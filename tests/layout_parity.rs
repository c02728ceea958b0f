//! Layout parity: the shipped plan (commutation-aware reorder, then the
//! greedy layout) must be an observational no-op relative to the
//! fixed-layout `partition(..)` plan of the same reordered gate list — same
//! bits on every workload, executor and granularity — because remap
//! transitions are exact permutations and the engine restores the identity
//! layout before it returns. Only the chunk *accounting* is allowed to
//! move, and only downward: the planner keeps the fixed plan unless
//! remapping strictly reduces chunk visits. The fixed plan is no user mode;
//! it is built by hand here and run through the plan-taking entry.

use memqsim_core::engine::cpu::CpuWorkerExecutor;
use memqsim_core::engine::hybrid::DevicePipelineExecutor;
use memqsim_core::engine::{build_plan, Granularity};
use memqsim_core::{
    build_store, run_plan_with_executor, ChunkStore, Counter, MemQSimConfig, RunReport,
};
use mq_circuit::partition::{partition, partition_per_gate, PartitionConfig, Plan};
use mq_circuit::reorder::reorder_for_locality;
use mq_circuit::unitary::{circuit_unitary, run_dense};
use mq_circuit::{library, Circuit, Gate};
use mq_compress::CodecSpec;
use mq_device::{DeviceSpec, DeviceTopology};
use mq_num::metrics::max_amp_err;
use mq_num::Complex64;
use proptest::prelude::*;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Exec {
    Cpu,
    Hybrid,
    Fleet4,
}

const EXECUTORS: [Exec; 3] = [Exec::Cpu, Exec::Hybrid, Exec::Fleet4];

fn config(chunk_bits: u32) -> MemQSimConfig {
    MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        // Lossless codec: "bit-identical" must hold exactly, and a lossy
        // codec would let the permuted chunk contents round differently.
        codec: CodecSpec::Fpc,
        workers: 1,
        // Residency cache on, so the hits + misses == visits identity is
        // exercised (it holds vacuously with the cache disabled).
        cache_bytes: 1 << 16,
        ..Default::default()
    }
}

/// The fixed-layout plan of `circuit` at `cfg`'s geometry, optionally over
/// the reordered gate list the shipped planner partitions.
fn fixed_plan(
    circuit: &Circuit,
    cfg: &MemQSimConfig,
    granularity: Granularity,
    reorder: bool,
) -> Plan {
    let chunk_bits = cfg.effective_chunk_bits(circuit.n_qubits());
    let reordered;
    let circuit = if reorder {
        reordered = reorder_for_locality(circuit, chunk_bits);
        &reordered
    } else {
        circuit
    };
    match granularity {
        Granularity::Staged => partition(
            circuit,
            &PartitionConfig {
                chunk_bits,
                max_high_qubits: cfg.max_high_qubits,
            },
        ),
        Granularity::PerGate => partition_per_gate(circuit, chunk_bits),
    }
}

/// One run's final state and report.
type Run = (Vec<Complex64>, RunReport);

/// Runs `plan` from `|0..0>` on a fresh store.
fn run_plan(plan: Plan, mut cfg: MemQSimConfig, exec: Exec) -> Run {
    let store = build_store(plan.n_qubits, &cfg).expect("store");
    let report = match exec {
        Exec::Cpu => {
            run_plan_with_executor(&store, plan, &cfg, &mut CpuWorkerExecutor::new()).expect("run")
        }
        Exec::Hybrid | Exec::Fleet4 => {
            cfg.devices = if exec == Exec::Fleet4 { 4 } else { 1 };
            let fleet =
                DeviceTopology::homogeneous(cfg.devices, DeviceSpec::tiny_test(1 << 12)).build();
            let mut executor = DevicePipelineExecutor::new_fleet(&fleet, true);
            run_plan_with_executor(&store, plan, &cfg, &mut executor).expect("run")
        }
    };
    (store.to_dense().expect("dense"), report)
}

/// The fixed reference run and the shipped run of one circuit.
fn fixed_and_shipped(
    circuit: &Circuit,
    exec: Exec,
    granularity: Granularity,
    chunk_bits: u32,
) -> (Run, Run) {
    let cfg = config(chunk_bits);
    let fixed = run_plan(fixed_plan(circuit, &cfg, granularity, true), cfg, exec);
    let shipped = run_plan(build_plan(circuit, &cfg, granularity), cfg, exec);
    (fixed, shipped)
}

/// A workload the greedy layout provably wins: three high targets rotating
/// under one shared low control. Commutation-aware reorder cannot merge the
/// stages (every gate shares the non-diagonal control), but one remap pass
/// drops all three targets below the chunk boundary and the whole body
/// collapses into local stages.
fn rotating_high_targets(n: u32, blocks: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for _ in 0..blocks {
        c.cx(0, n - 1).cx(0, n - 2).cx(0, n - 3);
    }
    c
}

fn assert_accounting(r: &RunReport, tag: &str) {
    let visits = r.telemetry.counter(Counter::ChunkVisits);
    let hits = r.telemetry.counter(Counter::CacheHits);
    let misses = r.telemetry.counter(Counter::CacheMisses);
    assert_eq!(hits + misses, visits, "hits+misses != visits: {tag}");
    assert_eq!(r.chunk_visits as u64, visits, "report vs telemetry: {tag}");
    if r.remap_passes > 0 {
        assert!(
            r.chunk_visits_saved_by_layout > 0,
            "remapped without saving anything: {tag}"
        );
    } else {
        assert_eq!(r.chunk_visits_saved_by_layout, 0, "{tag}");
    }
}

/// Every suite workload, both granularities, all three executors, chunk
/// widths 3–6: the shipped run lands on exactly the bits the fixed run
/// produced, never visits more chunks, and keeps the visit-accounting
/// identity.
#[test]
fn greedy_is_bit_identical_to_fixed_everywhere() {
    for (granularity, widths) in [
        (Granularity::Staged, 3..=6u32),
        (Granularity::PerGate, 3..=3),
    ] {
        for circuit in library::standard_suite(7) {
            for (exec, chunk_bits) in EXECUTORS
                .into_iter()
                .flat_map(|e| widths.clone().map(move |cb| (e, cb)))
            {
                let tag = format!("{} {exec:?} {granularity:?} cb{chunk_bits}", circuit.name());
                let ((fixed_state, fixed), (greedy_state, greedy)) =
                    fixed_and_shipped(&circuit, exec, granularity, chunk_bits);
                assert_eq!(fixed_state, greedy_state, "state diverged: {tag}");
                assert!(
                    greedy.planned_visits() <= fixed.planned_visits(),
                    "greedy regressed visits ({} > {}): {tag}",
                    greedy.planned_visits(),
                    fixed.planned_visits()
                );
                assert_eq!(fixed.remap_passes, 0, "fixed plan remapped: {tag}");
                assert_eq!(fixed.chunk_visits_saved_by_layout, 0, "{tag}");
                assert_accounting(&fixed, &tag);
                assert_accounting(&greedy, &tag);
                // Per-gate plans never remap (no lookahead window).
                if granularity == Granularity::PerGate {
                    assert_eq!(greedy.remap_passes, 0, "{tag}");
                }
            }
        }
    }
}

/// The rotating-high-targets workload must actually trigger the greedy
/// machinery — the implication test above is not allowed to be vacuous —
/// and the savings the planner claimed must be the savings delivered.
#[test]
fn greedy_actually_remaps_and_wins_on_rotating_targets() {
    let circuit = rotating_high_targets(7, 10);
    for exec in EXECUTORS {
        let tag = format!("{exec:?}");
        let ((fixed_state, fixed), (greedy_state, greedy)) =
            fixed_and_shipped(&circuit, exec, Granularity::Staged, 3);
        assert_eq!(fixed_state, greedy_state, "state diverged: {tag}");
        assert!(greedy.remap_passes > 0, "no remap pass: {tag}");
        assert!(
            greedy.planned_visits() < fixed.planned_visits(),
            "no win ({} vs {}): {tag}",
            greedy.planned_visits(),
            fixed.planned_visits()
        );
        assert_eq!(
            fixed.planned_visits() - greedy.planned_visits(),
            greedy.chunk_visits_saved_by_layout,
            "planner promised different savings than delivered: {tag}"
        );
        assert_accounting(&greedy, &tag);
    }
}

/// Fleet aggregation stays exact under remapping: `modeled` is the
/// makespan, every other column is the sum of the per-device lanes.
#[test]
fn per_device_stats_sum_to_fleet_totals_under_greedy() {
    // QFT's tail swap network is absorbed as high-high transpositions, so
    // the epilogue exchanges whole chunks.
    let circuit = library::qft(9);
    let ((fixed_state, _), (state, r)) =
        fixed_and_shipped(&circuit, Exec::Fleet4, Granularity::Staged, 3);
    assert_eq!(fixed_state, state, "state diverged");
    assert!(r.remap_passes > 0, "qft epilogue should remap");

    let lanes = &r.per_device;
    assert_eq!(lanes.len(), 4);
    let makespan = lanes.iter().map(|s| s.modeled).max().expect("lanes");
    assert_eq!(r.device.modeled, makespan);
    assert_eq!(
        r.device.modeled_scatter,
        lanes.iter().map(|s| s.modeled_scatter).sum()
    );
    assert_eq!(
        r.device.modeled_h2d,
        lanes.iter().map(|s| s.modeled_h2d).sum()
    );
    assert_eq!(
        r.device.modeled_d2h,
        lanes.iter().map(|s| s.modeled_d2h).sum()
    );
    assert_eq!(
        r.device.modeled_kernel,
        lanes.iter().map(|s| s.modeled_kernel).sum()
    );
    assert_eq!(
        r.device.bytes_h2d,
        lanes.iter().map(|s| s.bytes_h2d).sum::<usize>()
    );
    assert_eq!(
        r.device.bytes_d2h,
        lanes.iter().map(|s| s.bytes_d2h).sum::<usize>()
    );
    assert_eq!(
        r.device.commands,
        lanes.iter().map(|s| s.commands).sum::<usize>()
    );
    // A remap runs against the store on the host. The device holds no
    // chunk between stages, so no lane is charged anything for it.
    assert_eq!(r.device.modeled_scatter, std::time::Duration::ZERO);
}

/// High-high remaps exchange whole chunks without touching the codec: the
/// greedy run's decode count stays at the fixed run's level even though it
/// executes extra remap passes.
#[test]
fn high_high_remaps_move_payloads_without_codec_work() {
    let circuit = library::qft(9);
    let ((fixed_state, fixed), (state, greedy)) =
        fixed_and_shipped(&circuit, Exec::Cpu, Granularity::Staged, 3);
    assert_eq!(fixed_state, state);
    assert!(greedy.remap_passes > 0, "qft tail should be absorbed");
    // The absorbed swap network removes whole stages; the epilogue that
    // undoes it rides the payload fast path, so visits strictly drop and
    // no decode is charged for the exchange.
    assert!(greedy.planned_visits() < fixed.planned_visits());
    assert_accounting(&greedy, "cpu qft");
}

/// The other plan-shaping pass: commutation-aware reordering must
/// *measurably* cut chunk visits — the engine's own visit counters, not
/// stage counts, are the evidence. Random and QAOA circuits interleave
/// chunk-crossing and local gates, which is exactly the shape the pass
/// exists to fix. Both sides run fixed-layout plans, so the difference is
/// the reorder pass alone.
#[test]
fn reorder_pass_measurably_cuts_chunk_visits() {
    let cfg = MemQSimConfig {
        workers: 2,
        cache_bytes: 0,
        ..config(3)
    };
    let run_with = |circuit: &Circuit, reorder: bool| {
        let plan = fixed_plan(circuit, &cfg, Granularity::Staged, reorder);
        run_plan(plan, cfg, Exec::Cpu)
    };
    let graph = library::ring_graph(8);
    let workloads = vec![
        library::random_circuit(8, 8, 2),
        library::random_circuit(8, 8, 5),
        library::qaoa_maxcut(8, &graph, &[0.7, 0.4], &[0.3, 0.9]),
    ];
    let mut improved = 0usize;
    for circuit in &workloads {
        let (base_state, base) = run_with(circuit, false);
        let (reordered_state, reordered) = run_with(circuit, true);
        // Correctness first: reordering is semantics-preserving.
        let err = max_amp_err(&base_state, &reordered_state);
        assert!(err < 1e-10, "{}: reorder drifted by {err}", circuit.name());
        // Never worse, on any workload.
        assert!(
            reordered.planned_visits() <= base.planned_visits(),
            "{}: reorder increased visits {} -> {}",
            circuit.name(),
            base.planned_visits(),
            reordered.planned_visits()
        );
        if reordered.planned_visits() < base.planned_visits() {
            improved += 1;
        }
    }
    assert!(
        improved >= 2,
        "reorder pass reduced chunk visits on only {improved}/{} workloads",
        workloads.len()
    );
}

// --- the two passes are on every run's path: properties over random circuits --

const N: u32 = 7;

/// A random gate over [`N`] qubits: 1q, controlled, diagonal (Cz/Cp/Rzz)
/// and SWAP — the classes the commutation rules and the layout planner
/// tell apart.
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
        let reordered = reorder_for_locality(&circuit, chunk_bits);
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
        let cfg = config(chunk_bits);
        let shipped = build_plan(&circuit, &cfg, Granularity::Staged);
        let fixed = fixed_plan(&circuit, &cfg, Granularity::Staged, false);
        prop_assert!(
            shipped.chunk_visits() <= fixed.chunk_visits(),
            "shipped {} > fixed {}", shipped.chunk_visits(), fixed.chunk_visits()
        );
        if shipped.remap_passes() > 0 {
            prop_assert!(shipped.layout_visits_saved > 0);
        }
    }

    #[test]
    fn engine_on_the_shipped_plan_matches_the_dense_oracle(
        gates in prop::collection::vec(arb_gate(), 1..40),
        chunk_bits in 2u32..=4,
        workers in 1usize..=2,
    ) {
        let circuit = circuit_of(gates);
        let cfg = MemQSimConfig { workers, ..config(chunk_bits) };
        let (state, _) = run_plan(build_plan(&circuit, &cfg, Granularity::Staged), cfg, Exec::Cpu);
        let err = max_amp_err(&state, &run_dense(&circuit, 0));
        prop_assert!(err < 1e-12, "err = {} at chunk_bits {} workers {}", err, chunk_bits, workers);
    }
}
