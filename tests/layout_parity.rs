//! Layout parity: the shipped plan (the dependency scheduler: commuting
//! gates reordered, hot qubits swapped below the chunk boundary inside the
//! stages, high↔high `Swap`s absorbed) must be an observational no-op
//! relative to the fixed-layout `partition(..)` of the scheduler's own gate
//! order — same bits on every workload and executor — because inserted and
//! absorbed swaps are exact permutations and the plan restores the identity
//! layout before it ends. Against the circuit *as written* it is within
//! rounding of the dense oracle and never visits more chunks than
//! `partition(..)`. The reference plans are no user mode; they are built by
//! hand here and run through the plan-taking entry.

use memqsim_core::engine::cpu::CpuWorkerExecutor;
use memqsim_core::engine::hybrid::DevicePipelineExecutor;
use memqsim_core::engine::{build_plan, Granularity};
use memqsim_core::{
    build_store, run_plan_with_executor, ChunkStore, Counter, MemQSimConfig, RunReport,
    TransferMode,
};
use mq_circuit::gate::{mat2_h, mat2_ry};
use mq_circuit::matrix::Mat4;
use mq_circuit::partition::{partition, PartitionConfig, Plan};
use mq_circuit::schedule::schedule;
use mq_circuit::unitary::{circuit_unitary, run_dense};
use mq_circuit::{library, Circuit, Gate};
use mq_compress::CodecSpec;
use mq_device::{Device, DeviceSpec};
use mq_num::metrics::max_amp_err;
use mq_num::Complex64;
use proptest::prelude::*;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Exec {
    Cpu,
    /// The device pipeline, with chunks crossing the link this way.
    Device(TransferMode),
}

const EXECUTORS: [Exec; 3] = [
    Exec::Cpu,
    Exec::Device(TransferMode::Raw),
    Exec::Device(TransferMode::Compressed),
];

fn config(chunk_bits: u32) -> MemQSimConfig {
    MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        // Lossless codec: "bit-identical" must hold exactly, and a lossy
        // codec would round differently wherever the stage boundaries differ.
        codec: CodecSpec::Fpc,
        workers: 1,
        ..Default::default()
    }
}

fn partition_config(circuit: &Circuit, cfg: &MemQSimConfig) -> PartitionConfig {
    PartitionConfig {
        chunk_bits: cfg.effective_chunk_bits(circuit.n_qubits()),
        max_high_qubits: cfg.max_high_qubits,
    }
}

/// The shipped plan of `circuit`, and the fixed-layout reference it must
/// reproduce bit for bit: `partition` of the scheduler's own gate order.
fn shipped_and_reference(circuit: &Circuit, cfg: &MemQSimConfig) -> (Plan, Plan) {
    let pcfg = partition_config(circuit, cfg);
    let scheduled = schedule(circuit, &pcfg);
    let shipped = build_plan(circuit, cfg, Granularity::Staged);
    assert_eq!(shipped, scheduled.plan, "build_plan is the scheduler");
    (shipped, partition(&scheduled.linearized(circuit), &pcfg))
}

/// One run's final state and report.
type Run = (Vec<Complex64>, RunReport);

/// Runs `plan` from `|0..0>` on a fresh store.
fn run_plan(plan: Plan, mut cfg: MemQSimConfig, exec: Exec) -> Run {
    if let Exec::Device(transfer_mode) = exec {
        cfg.transfer_mode = transfer_mode;
    }
    let store = build_store(plan.n_qubits, &cfg).expect("store");
    let report = match exec {
        Exec::Cpu => {
            run_plan_with_executor(&store, plan, &cfg, &mut CpuWorkerExecutor::new()).expect("run")
        }
        Exec::Device(_) => {
            let device = Device::new(DeviceSpec::tiny_test(1 << 12));
            let mut executor = DevicePipelineExecutor::new(&device, true);
            run_plan_with_executor(&store, plan, &cfg, &mut executor).expect("run")
        }
    };
    (store.to_dense().expect("dense"), report)
}

/// The reference run and the shipped run of one circuit.
fn reference_and_shipped(circuit: &Circuit, exec: Exec, chunk_bits: u32) -> (Run, Run) {
    let cfg = config(chunk_bits);
    let (shipped, reference) = shipped_and_reference(circuit, &cfg);
    (run_plan(reference, cfg, exec), run_plan(shipped, cfg, exec))
}

/// Chunk visits `partition` of the circuit as written asks for.
fn as_written_visits(circuit: &Circuit, chunk_bits: u32) -> usize {
    partition(circuit, &partition_config(circuit, &config(chunk_bits))).chunk_visits()
}

/// Swaps the scheduler inserted (these circuits bring none of their own).
fn inserted_swaps(plan: &Plan) -> usize {
    let swaps = plan.stages.iter().flat_map(|s| &s.gates);
    swaps.filter(|g| matches!(g, Gate::Swap(..))).count()
}

/// A workload only a moving layout wins: three high targets rotating under
/// one shared low control. No two of the CX gates commute, so reordering
/// cannot merge the stages, but two swaps inside the first stage drop the
/// targets below the chunk boundary and the body collapses.
fn rotating_high_targets(n: u32, blocks: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for _ in 0..blocks {
        c.cx(0, n - 1).cx(0, n - 2).cx(0, n - 3);
    }
    c
}

fn assert_accounting(r: &RunReport, plan: &Plan, tag: &str) {
    let visits = r.telemetry.counter(Counter::ChunkVisits);
    assert_eq!(r.chunk_visits as u64, visits, "report vs telemetry: {tag}");
    assert_eq!(r.planned_visits(), plan.chunk_visits(), "{tag}");
    assert_eq!(
        r.remap_passes,
        usize::from(plan.epilogue.is_some()),
        "{tag}"
    );
}

/// Every suite workload, all three executors, chunk widths 3–6: the shipped
/// run lands on exactly the bits the reference run produced — the same bits
/// on every executor — within rounding of the oracle for the circuit as
/// written, never asks for more visits than the as-written partition, and
/// keeps the visit-accounting identity.
#[test]
fn greedy_is_bit_identical_to_fixed_everywhere() {
    for circuit in library::standard_suite(7) {
        let oracle = run_dense(&circuit, 0);
        for chunk_bits in 3..=6u32 {
            let (shipped_plan, reference_plan) =
                shipped_and_reference(&circuit, &config(chunk_bits));
            assert_eq!(reference_plan.epilogue, None);
            let mut first: Option<Vec<Complex64>> = None;
            for exec in EXECUTORS {
                let tag = format!("{} {exec:?} cb{chunk_bits}", circuit.name());
                let ((reference_state, reference), (state, shipped)) =
                    reference_and_shipped(&circuit, exec, chunk_bits);
                assert_eq!(reference_state, state, "state diverged: {tag}");
                assert_eq!(*first.get_or_insert_with(|| state.clone()), state, "{tag}");
                let err = max_amp_err(&oracle, &state);
                assert!(err < 1e-12, "err {err}: {tag}");
                assert!(
                    shipped.planned_visits() <= as_written_visits(&circuit, chunk_bits),
                    "more visits than the circuit as written: {tag}"
                );
                assert_accounting(&reference, &reference_plan, &tag);
                assert_accounting(&shipped, &shipped_plan, &tag);
            }
        }
    }
}

/// The rotating-high-targets workload must actually move the layout — the
/// test above is not allowed to be vacuous — and the move must pay.
#[test]
fn greedy_actually_remaps_and_wins_on_rotating_targets() {
    let circuit = rotating_high_targets(7, 10);
    let (plan, _) = shipped_and_reference(&circuit, &config(3));
    assert!(inserted_swaps(&plan) > 0, "no swap inserted");
    for exec in EXECUTORS {
        let tag = format!("{exec:?}");
        let ((reference_state, reference), (state, shipped)) =
            reference_and_shipped(&circuit, exec, 3);
        assert_eq!(reference_state, state, "state diverged: {tag}");
        assert!(
            max_amp_err(&run_dense(&circuit, 0), &state) < 1e-12,
            "{tag}"
        );
        assert!(
            3 * shipped.planned_visits() <= as_written_visits(&circuit, 3),
            "no win ({} vs {}): {tag}",
            shipped.planned_visits(),
            as_written_visits(&circuit, 3)
        );
        // The swaps moved gates from cross-chunk stages into the chunks.
        assert!(shipped.stages < reference.stages, "{tag}");
        assert_accounting(&shipped, &plan, &tag);
    }
}

/// A valid configuration whose gates pair more high qubits than one stage
/// may hold: the scheduler opens a swap-only stage and brings one of them
/// low, where `partition` would have refused the gate.
#[test]
fn gates_wider_than_max_high_qubits_are_swapped_low_not_refused() {
    let cx = Gate::Cx(0, 1).mat4().expect("a two-qubit gate");
    let dense_block = Mat4::kron(&mat2_h(), &mat2_ry(0.7)).mul(&cx);
    let chains: [fn(&mut Circuit, Mat4); 3] = [
        |c, u| _ = c.push(Gate::U2q(6, 7, u)).h(7).push(Gate::U2q(7, 6, u)),
        |c, _| _ = c.swap(6, 7).h(6).swap(7, 6).x(7),
        |c, _| _ = c.cx(6, 7).cx(7, 6).h(7).cx(6, 7),
    ];
    for chain in chains {
        let mut circuit = Circuit::new(8);
        circuit.h(0).h(6).cx(0, 7);
        chain(&mut circuit, dense_block);
        let oracle = run_dense(&circuit, 0);
        for exec in [Exec::Cpu, Exec::Device(TransferMode::Raw)] {
            let cfg = MemQSimConfig {
                chunk_bits: 4,
                max_high_qubits: 1,
                ..config(4)
            };
            cfg.validate().expect("a valid configuration");
            let plan = build_plan(&circuit, &cfg, Granularity::Staged);
            assert!(plan.stages.iter().all(|s| s.high_qubits.len() <= 1));
            let (state, _) = run_plan(plan, cfg, exec);
            let err = max_amp_err(&oracle, &state);
            assert!(err < 1e-12, "{exec:?}: err {err}");
        }
    }
}

/// High-high remaps exchange whole chunks without touching the codec: the
/// epilogue adds no visit, so every visit the run made belongs to a stage.
#[test]
fn high_high_remaps_move_payloads_without_codec_work() {
    let circuit = library::random_circuit(9, 6, 3);
    let (plan, _) = shipped_and_reference(&circuit, &config(3));
    let ((reference_state, _), (state, shipped)) = reference_and_shipped(&circuit, Exec::Cpu, 3);
    assert_eq!(reference_state, state);
    assert!(shipped.remap_passes > 0, "the epilogue should remap");
    assert!(shipped.planned_visits() < as_written_visits(&circuit, 3));
    assert_eq!(
        shipped.planned_visits(),
        plan.stages.len() * plan.chunk_count()
    );
    assert_accounting(&shipped, &plan, "cpu qft");
    // The same plan through the device: the epilogue runs against the store
    // on the host, and the device holds no chunk between stages, so it is
    // charged nothing for the remap.
    let ((_, _), (device_state, r)) =
        reference_and_shipped(&circuit, Exec::Device(TransferMode::Raw), 3);
    assert_eq!(device_state, state, "device run diverged");
    assert!(r.remap_passes > 0, "the epilogue should remap");
    assert_eq!(r.device.modeled_scatter, std::time::Duration::ZERO);
}

/// Planning by dependency must *measurably* cut chunk visits against the
/// circuit as written — the engine's own visit counters, not stage counts,
/// are the evidence. Random and QAOA circuits interleave chunk-crossing and
/// local gates, which is exactly the shape the scheduler exists to fix.
#[test]
fn scheduling_measurably_cuts_chunk_visits() {
    let cfg = MemQSimConfig {
        workers: 2,
        ..config(3)
    };
    let graph = library::ring_graph(8);
    let workloads = [
        library::random_circuit(8, 8, 2),
        library::random_circuit(8, 8, 5),
        library::qaoa_maxcut(8, &graph, &[0.7, 0.4], &[0.3, 0.9]),
    ];
    for circuit in &workloads {
        let as_written = partition(circuit, &partition_config(circuit, &cfg));
        let (base_state, base) = run_plan(as_written, cfg, Exec::Cpu);
        let shipped = build_plan(circuit, &cfg, Granularity::Staged);
        let (state, scheduled) = run_plan(shipped, cfg, Exec::Cpu);
        // Correctness first: scheduling is semantics-preserving.
        let err = max_amp_err(&base_state, &state);
        assert!(err < 1e-10, "{}: drifted by {err}", circuit.name());
        assert!(
            3 * scheduled.planned_visits() <= 2 * base.planned_visits(),
            "{}: visits {} -> {}",
            circuit.name(),
            base.planned_visits(),
            scheduled.planned_visits()
        );
    }
}

// --- the scheduler is on every run's path: properties over random circuits --

const N: u32 = 7;

/// A random gate over [`N`] qubits: 1q, controlled, diagonal (Cz/Cp/Rzz)
/// and SWAP — the classes the commutation rules and the scheduler tell
/// apart.
fn arb_gate() -> impl Strategy<Value = Gate> {
    let pair = || (0..N, 0..N).prop_filter_map("distinct", |(a, b)| (a != b).then_some((a, b)));
    prop_oneof![
        (0..N).prop_map(Gate::H),
        (0..N).prop_map(Gate::T),
        (0..N, -3.0f64..3.0).prop_map(|(q, t)| Gate::Ry(q, t)),
        (0..N, -3.0f64..3.0).prop_map(|(q, t)| Gate::Rz(q, t)),
        pair().prop_map(|(a, b)| Gate::Cx(a, b)),
        pair().prop_map(|(a, b)| Gate::Cz(a, b)),
        (pair(), -3.0f64..3.0).prop_map(|((a, b), l)| Gate::Cp(a, b, l)),
        (pair(), -3.0f64..3.0).prop_map(|((a, b), t)| Gate::Rzz(a, b, t)),
        pair().prop_map(|(a, b)| Gate::Swap(a, b)),
    ]
}

fn circuit_of(gates: Vec<Gate>) -> Circuit {
    let mut circuit = Circuit::new(N);
    for g in gates {
        circuit.push(g);
    }
    circuit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn reorder_preserves_the_circuit_unitary(
        gates in prop::collection::vec(arb_gate(), 1..40),
        chunk_bits in 2u32..=4,
    ) {
        let circuit = circuit_of(gates);
        let pcfg = partition_config(&circuit, &config(chunk_bits));
        let reordered = schedule(&circuit, &pcfg).linearized(&circuit);
        prop_assert_eq!(reordered.len(), circuit.len());
        let (want, got) = (circuit_unitary(&circuit), circuit_unitary(&reordered));
        prop_assert!(max_amp_err(want.data(), got.data()) < 1e-12);
    }

    #[test]
    fn shipped_plan_never_visits_more_chunks_than_the_fixed_partition(
        gates in prop::collection::vec(arb_gate(), 1..60),
        chunk_bits in 2u32..=4,
    ) {
        let circuit = circuit_of(gates);
        let shipped = build_plan(&circuit, &config(chunk_bits), Granularity::Staged);
        let fixed = as_written_visits(&circuit, chunk_bits);
        prop_assert!(shipped.chunk_visits() <= fixed, "shipped {} > fixed {}", shipped.chunk_visits(), fixed);
    }

    #[test]
    fn engine_on_the_shipped_plan_matches_the_dense_oracle(
        gates in prop::collection::vec(arb_gate(), 1..40),
        chunk_bits in 2u32..=4,
        workers in 1usize..=2,
    ) {
        let circuit = circuit_of(gates);
        let cfg = MemQSimConfig { workers, ..config(chunk_bits) };
        let (shipped, reference) = shipped_and_reference(&circuit, &cfg);
        let (state, _) = run_plan(shipped, cfg, Exec::Cpu);
        let err = max_amp_err(&state, &run_dense(&circuit, 0));
        prop_assert!(err < 1e-12, "err = {} at chunk_bits {} workers {}", err, chunk_bits, workers);
        prop_assert_eq!(state, run_plan(reference, cfg, Exec::Cpu).0);
    }
}
