//! Zero-group elision: the engine never submits a chunk group whose
//! members are all known to hold only zeros, and drops a group after the
//! load when it turns out to be all zero. Every gate is linear, so neither
//! can change the state — which is what these tests hold it to, across the
//! executor / store / transfer lattice — and the visit accounting must say
//! exactly what was skipped: `chunk_visits` performed, `chunk_visits_elided`
//! not made, the two summing to what the plan asked for.

use memqsim_core::engine::cpu::{self, CpuWorkerExecutor};
use memqsim_core::engine::{build_plan, hybrid, Granularity};
use memqsim_core::{
    build_store, run_with_executor, ChunkExecutor, ChunkStore, Counter, EngineError, ExecContext,
    ExecutorStats, GroupWork, MemQSimConfig, RunReport, StoreKind, TransferMode,
};
use mq_circuit::partition::RemapTransition;
use mq_circuit::unitary::run_dense;
use mq_circuit::{library, Circuit};
use mq_compress::CodecSpec;
use mq_device::{Device, DeviceSpec};
use mq_num::metrics::max_amp_err;
use mq_num::Complex64;

fn base_cfg() -> MemQSimConfig {
    MemQSimConfig {
        chunk_bits: 3,
        max_high_qubits: 2,
        // Lossless, so every configuration must land on the same values.
        codec: CodecSpec::Fpc,
        workers: 1,
        ..Default::default()
    }
}

/// How one lattice point runs the circuit.
#[derive(Clone, Copy, Debug)]
enum Engine {
    Cpu(Granularity),
    Hybrid { pipelined: bool },
}

/// The configuration lattice: name, engine, config.
fn lattice() -> Vec<(&'static str, Engine, MemQSimConfig)> {
    let base = base_cfg();
    let staged = Engine::Cpu(Granularity::Staged);
    let hybrid = |pipelined| Engine::Hybrid { pipelined };
    let with = |f: fn(&mut MemQSimConfig)| {
        let mut cfg = base;
        f(&mut cfg);
        cfg
    };
    vec![
        ("cpu w1", staged, base),
        ("cpu w4", staged, with(|c| c.workers = 4)),
        (
            "cpu spill",
            staged,
            with(|c| {
                c.store_kind = StoreKind::Spill {
                    resident_budget: 512,
                }
            }),
        ),
        ("hybrid raw pipelined", hybrid(true), base),
        ("hybrid raw serial", hybrid(false), base),
        (
            "hybrid compressed",
            hybrid(true),
            with(|c| c.transfer_mode = TransferMode::Compressed),
        ),
        ("cpu per-gate", Engine::Cpu(Granularity::PerGate), base),
    ]
}

fn run(circuit: &Circuit, engine: Engine, cfg: &MemQSimConfig) -> (Vec<Complex64>, RunReport) {
    let store = build_store(circuit.n_qubits(), cfg).expect("store");
    let report = match engine {
        Engine::Cpu(granularity) => cpu::run(&store, circuit, cfg, granularity),
        Engine::Hybrid { pipelined } => {
            let device = Device::new(DeviceSpec::tiny_test(1 << 12));
            hybrid::run(&store, circuit, cfg, &device, pipelined)
        }
    }
    .expect("run");
    (store.to_dense().expect("dense"), report)
}

fn circuits() -> Vec<Circuit> {
    let mut circuits = library::standard_suite(7);
    circuits.extend([
        library::bernstein_vazirani(6, 0b101101),
        library::ghz(7),
        library::w_state(7),
        library::random_circuit(7, 6, 4),
    ]);
    circuits
}

/// Every circuit at every lattice point: within 1e-12 of the dense oracle,
/// equal under `==` across every staged configuration (elision or not:
/// the compressed-transfer run sees no amplitudes and skips nothing), and
/// with visit accounting that adds up.
#[test]
fn every_lattice_point_matches_the_oracle_and_accounts_for_every_visit() {
    for circuit in circuits() {
        let oracle = run_dense(&circuit, 0);
        let mut staged_state: Option<Vec<Complex64>> = None;
        for (name, engine, cfg) in lattice() {
            let tag = format!("{} / {name}", circuit.name());
            let (state, r) = run(&circuit, engine, &cfg);
            let err = max_amp_err(&oracle, &state);
            assert!(err < 1e-12, "{tag}: err {err}");

            let granularity = match engine {
                Engine::Cpu(g) => g,
                Engine::Hybrid { .. } => Granularity::Staged,
            };
            if granularity == Granularity::Staged {
                let want = staged_state.get_or_insert_with(|| state.clone());
                assert_eq!(*want, state, "{tag}: differs from the first staged run");
            }

            // Performed + elided is what the plan asked for (the swaps the
            // scheduler inserts are gates, not visits); performed is what
            // the store saw.
            let plan = build_plan(&circuit, &cfg, granularity);
            assert_eq!(r.planned_visits(), plan.chunk_visits(), "{tag}");
            assert_eq!(r.stages, plan.stages.len(), "{tag}");
            let visits = r.telemetry.counter(Counter::ChunkVisits);
            assert_eq!(visits, r.chunk_visits as u64, "{tag}");
            if cfg.transfer_mode == TransferMode::Compressed {
                // Payloads only: nothing is learned, nothing is skipped.
                assert_eq!(r.chunk_visits_elided, 0, "{tag}");
            }
        }
    }
}

/// The sparse circuits the mechanism exists for skip most of their plan.
#[test]
fn sparse_states_elide_most_of_their_plan() {
    for circuit in [
        library::bernstein_vazirani(9, 0b1_0110_1101),
        library::ghz(10),
        library::w_state(10),
    ] {
        let (_, r) = run(&circuit, Engine::Cpu(Granularity::Staged), &base_cfg());
        assert!(
            r.chunk_visits_elided > r.chunk_visits,
            "{}: performed {} elided {}",
            circuit.name(),
            r.chunk_visits,
            r.chunk_visits_elided
        );
        // Stage 0 knows nothing yet and loads the whole register.
        assert!(r.chunk_visits >= 1 << (circuit.n_qubits() - 3));
    }
}

/// Forwards to the CPU executor and records how many groups the driver
/// announced for each stage.
#[derive(Default)]
struct GroupsPerStage {
    inner: CpuWorkerExecutor,
    announced: Vec<usize>,
}

impl ChunkExecutor for GroupsPerStage {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn prepare(&mut self, ctx: &ExecContext) -> Result<(), EngineError> {
        self.inner.prepare(ctx)
    }
    fn begin_stage(&mut self, ctx: &ExecContext, i: u32, n: usize) -> Result<(), EngineError> {
        assert_eq!(
            self.announced.len(),
            i as usize,
            "every stage opens, in order"
        );
        self.announced.push(n);
        self.inner.begin_stage(ctx, i, n)
    }
    fn submit(&mut self, ctx: &ExecContext, group: GroupWork) -> Result<(), EngineError> {
        self.inner.submit(ctx, group)
    }
    fn end_stage(&mut self, ctx: &ExecContext, i: u32) -> Result<(), EngineError> {
        self.inner.end_stage(ctx, i)
    }
    fn remap(&mut self, ctx: &ExecContext, t: &RemapTransition) -> Result<usize, EngineError> {
        self.inner.remap(ctx, t)
    }
    fn finish(&mut self, ctx: &ExecContext) -> Result<ExecutorStats, EngineError> {
        self.inner.finish(ctx)
    }
}

/// A random circuit fills the register within its first stages; from then
/// on every stage submits every group. Stage 0 always does: nothing is
/// known before the first load.
#[test]
fn elision_is_confined_to_the_first_stages_of_a_random_circuit() {
    let circuit = library::random_circuit(8, 8, 5);
    let cfg = base_cfg();
    let plan = build_plan(&circuit, &cfg, Granularity::Staged);
    let planned: Vec<usize> = plan
        .stages
        .iter()
        .map(|s| plan.chunk_count() / s.group_size())
        .collect();

    let store = build_store(8, &cfg).expect("store");
    let mut exec = GroupsPerStage::default();
    let r = run_with_executor(&store, &circuit, &cfg, Granularity::Staged, &mut exec).expect("run");
    assert_eq!(exec.announced.len(), planned.len());
    assert_eq!(exec.announced[0], planned[0]);
    assert!(r.chunk_visits_elided > 0, "the early stages are sparse");

    let last_short = exec
        .announced
        .iter()
        .zip(&planned)
        .rposition(|(got, want)| got < want)
        .expect("some stage was cut short");
    assert!(
        last_short < planned.len() / 3,
        "stage {last_short} of {} still elides: {:?} of {planned:?}",
        planned.len(),
        exec.announced
    );
    let err = max_amp_err(&run_dense(&circuit, 0), &store.to_dense().expect("dense"));
    assert!(err < 1e-12, "err {err}");
}

/// The shipped planner's own high↔high exchanges (the epilogue that undoes
/// absorbed SWAPs) on a state that is still sparse: flagged and unflagged
/// chunks trade places at the payload level, on every store kind, and the
/// run ends on the oracle's state.
#[test]
fn greedy_epilogue_swaps_sparse_chunks_onto_the_right_state() {
    let mut circuit = Circuit::new(7);
    circuit.swap(6, 4).swap(5, 3);
    circuit.x(6).h(0).cx(0, 5).h(1).x(4);
    for store_kind in [StoreKind::Compressed, StoreKind::Dense] {
        let cfg = MemQSimConfig {
            store_kind,
            ..base_cfg()
        };
        let plan = build_plan(&circuit, &cfg, Granularity::Staged);
        assert!(plan.epilogue.is_some(), "the SWAPs should be absorbed");
        let (state, r) = run(&circuit, Engine::Cpu(Granularity::Staged), &cfg);
        assert!(max_amp_err(&run_dense(&circuit, 0), &state) < 1e-12);
        assert_eq!(r.remap_passes, 1);
        assert!(r.chunk_visits_elided > 0);
        assert_eq!(r.planned_visits(), plan.chunk_visits());
    }
}
