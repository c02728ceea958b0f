//! Layout parity: `LayoutPolicy::Greedy` must be an observational no-op
//! relative to `Fixed` — same bits on every workload, executor and
//! granularity — because remap transitions are exact permutations and the
//! engine restores the identity layout before it returns. Only the chunk
//! *accounting* is allowed to move, and only downward: the planner keeps
//! the fixed plan unless remapping strictly reduces chunk visits.

use memqsim_core::engine::hybrid::DevicePipelineExecutor;
use memqsim_core::engine::{cpu, Granularity};
use memqsim_core::{
    build_store, run_with_executor, ChunkStore, Counter, LayoutPolicy, MemQSimConfig, RunReport,
    SerialAdapter,
};
use mq_circuit::{library, Circuit};
use mq_compress::CodecSpec;
use mq_device::{DeviceSpec, DeviceTopology};
use mq_num::Complex64;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Exec {
    Cpu,
    Hybrid,
    Fleet2,
}

const EXECUTORS: [Exec; 3] = [Exec::Cpu, Exec::Hybrid, Exec::Fleet2];

fn config(policy: LayoutPolicy, chunk_bits: u32) -> MemQSimConfig {
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
        layout_policy: policy,
        ..Default::default()
    }
}

fn run(
    circuit: &Circuit,
    policy: LayoutPolicy,
    exec: Exec,
    granularity: Granularity,
    chunk_bits: u32,
) -> (Vec<Complex64>, RunReport) {
    let mut cfg = config(policy, chunk_bits);
    let store = build_store(circuit.n_qubits(), &cfg).expect("store");
    let report = match exec {
        Exec::Cpu => cpu::run(&store, circuit, &cfg, granularity).expect("cpu run"),
        Exec::Hybrid | Exec::Fleet2 => {
            let n = if exec == Exec::Fleet2 { 2 } else { 1 };
            cfg.devices = n;
            let fleet = DeviceTopology::homogeneous(n, DeviceSpec::tiny_test(1 << 12)).build();
            let mut executor = SerialAdapter::new(DevicePipelineExecutor::new_fleet(&fleet, true));
            run_with_executor(&store, circuit, &cfg, granularity, &mut executor).expect("run")
        }
    };
    (store.to_dense().expect("dense"), report)
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

/// Every suite workload, both granularities, all three executors: the
/// greedy run lands on exactly the bits the fixed run produced, never
/// visits more chunks, and keeps the visit-accounting identity.
#[test]
fn greedy_is_bit_identical_to_fixed_everywhere() {
    for granularity in [Granularity::Staged, Granularity::PerGate] {
        for circuit in library::standard_suite(7) {
            for exec in EXECUTORS {
                let tag = format!("{} {exec:?} {granularity:?}", circuit.name());
                let (fixed_state, fixed) = run(&circuit, LayoutPolicy::Fixed, exec, granularity, 3);
                let (greedy_state, greedy) =
                    run(&circuit, LayoutPolicy::Greedy, exec, granularity, 3);
                assert_eq!(fixed_state, greedy_state, "state diverged: {tag}");
                assert!(
                    greedy.chunk_visits <= fixed.chunk_visits,
                    "greedy regressed visits ({} > {}): {tag}",
                    greedy.chunk_visits,
                    fixed.chunk_visits
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
        let (fixed_state, fixed) = run(&circuit, LayoutPolicy::Fixed, exec, Granularity::Staged, 3);
        let (greedy_state, greedy) =
            run(&circuit, LayoutPolicy::Greedy, exec, Granularity::Staged, 3);
        assert_eq!(fixed_state, greedy_state, "state diverged: {tag}");
        assert!(greedy.remap_passes > 0, "no remap pass: {tag}");
        assert!(
            greedy.chunk_visits < fixed.chunk_visits,
            "no win ({} vs {}): {tag}",
            greedy.chunk_visits,
            fixed.chunk_visits
        );
        assert_eq!(
            fixed.chunk_visits - greedy.chunk_visits,
            greedy.chunk_visits_saved_by_layout,
            "planner promised different savings than delivered: {tag}"
        );
        assert_accounting(&greedy, &tag);
    }
}

/// Fleet aggregation stays exact under remapping: `modeled` is the
/// makespan, every other column is the sum of the per-device lanes, and
/// both devices hear about the chunk-identity changes.
#[test]
fn per_device_stats_sum_to_fleet_totals_under_greedy() {
    // QFT's tail swap network is absorbed as high-high transpositions, so
    // the epilogue exchanges whole chunks — the path that notifies lanes.
    let circuit = library::qft(9);
    let (fixed_state, _) = run(
        &circuit,
        LayoutPolicy::Fixed,
        Exec::Fleet2,
        Granularity::Staged,
        3,
    );
    let (state, r) = run(
        &circuit,
        LayoutPolicy::Greedy,
        Exec::Fleet2,
        Granularity::Staged,
        3,
    );
    assert_eq!(fixed_state, state, "state diverged");
    assert!(r.remap_passes > 0, "qft epilogue should remap");

    let lanes = &r.per_device;
    assert_eq!(lanes.len(), 2);
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
    // Both lanes were told about the identity changes, and the notice is
    // the only thing that charges scatter time in an engine run.
    for (i, lane) in lanes.iter().enumerate() {
        assert!(
            lane.modeled_scatter > std::time::Duration::ZERO,
            "lane {i} never heard about the remap"
        );
    }
}

/// High-high remaps exchange whole chunks without touching the codec: the
/// greedy run's decode count stays at the fixed run's level even though it
/// executes extra remap passes.
#[test]
fn high_high_remaps_move_payloads_without_codec_work() {
    let circuit = library::qft(9);
    let (fixed_state, fixed) = run(
        &circuit,
        LayoutPolicy::Fixed,
        Exec::Cpu,
        Granularity::Staged,
        3,
    );
    let (state, greedy) = run(
        &circuit,
        LayoutPolicy::Greedy,
        Exec::Cpu,
        Granularity::Staged,
        3,
    );
    assert_eq!(fixed_state, state);
    assert!(greedy.remap_passes > 0, "qft tail should be absorbed");
    // The absorbed swap network removes whole stages; the epilogue that
    // undoes it rides the payload fast path, so visits strictly drop and
    // no decode is charged for the exchange.
    assert!(greedy.chunk_visits < fixed.chunk_visits);
    assert_accounting(&greedy, "cpu qft");
}

/// The other plan-shaping pass: commutation-aware reordering must
/// *measurably* cut chunk visits — the engine's own visit counters, not
/// stage counts, are the evidence. Random and QAOA circuits interleave
/// chunk-crossing and local gates, which is exactly the shape the pass
/// exists to fix.
#[test]
fn reorder_pass_measurably_cuts_chunk_visits() {
    let run_with = |circuit: &Circuit, reorder: bool| {
        let config = MemQSimConfig {
            chunk_bits: 3,
            max_high_qubits: 2,
            codec: CodecSpec::Fpc,
            workers: 2,
            reorder,
            ..Default::default()
        };
        let store = build_store(circuit.n_qubits(), &config).expect("store");
        let report = cpu::run(&store, circuit, &config, Granularity::Staged).expect("run");
        (store.to_dense().expect("dense"), report)
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
        let err = mq_num::metrics::max_amp_err(&base_state, &reordered_state);
        assert!(err < 1e-10, "{}: reorder drifted by {err}", circuit.name());
        // Never worse, on any workload.
        assert!(
            reordered.chunk_visits <= base.chunk_visits,
            "{}: reorder increased visits {} -> {}",
            circuit.name(),
            base.chunk_visits,
            reordered.chunk_visits
        );
        if reordered.chunk_visits < base.chunk_visits {
            improved += 1;
        }
    }
    assert!(
        improved >= 2,
        "reorder pass reduced chunk visits on only {improved}/{} workloads",
        workloads.len()
    );
}
