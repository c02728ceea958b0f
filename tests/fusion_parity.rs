//! Fusion parity: every group runs one apply body — specialize, fold the
//! scalars, one cache-blocked sweep — and `FusionLevel` only decides whether
//! the plan's gates are fused into matrices first. No level may change
//! *what* is computed: on a lossless codec every level must reproduce the
//! dense oracle to float-product reassociation error (~1e-12). What the
//! sweep saves is reported, at every level, through the identity
//! `passes = gates_applied + scalars_applied - apply_passes_saved`.

use memqsim_core::engine::{cpu, hybrid, Granularity, RunReport};
use memqsim_core::{build_store, ChunkStore, FusionLevel, MemQSimConfig};
use memqsim_suite::{
    circuit::library, circuit::unitary::run_dense, circuit::Circuit, num::metrics::max_amp_err,
    CodecSpec, DeviceSpec,
};

const LEVELS: [FusionLevel; 3] = [FusionLevel::Off, FusionLevel::Runs1q, FusionLevel::Blocks2q];

fn cfg(fusion: FusionLevel) -> MemQSimConfig {
    MemQSimConfig {
        chunk_bits: 3,
        max_high_qubits: 2,
        codec: CodecSpec::Fpc,
        workers: 1,
        fusion,
        ..Default::default()
    }
}

fn run_cpu(
    circuit: &Circuit,
    config: &MemQSimConfig,
    granularity: Granularity,
) -> (RunReport, Vec<memqsim_suite::num::Complex64>) {
    let store = build_store(circuit.n_qubits(), config).expect("store construction failed");
    let report = cpu::run(&store, circuit, config, granularity).unwrap();
    (report, store.to_dense().unwrap())
}

/// Passes over a group buffer the run actually made: one per applied gate
/// and scalar, minus what the blocked sweep saved.
fn buffer_passes(r: &RunReport) -> usize {
    assert!(r.apply_passes_saved <= r.gates_applied + r.scalars_applied);
    r.gates_applied + r.scalars_applied - r.apply_passes_saved
}

#[test]
fn fused_levels_match_off_across_suite_and_granularities() {
    let mut any_fused = false;
    let mut off_saved = false;
    for circuit in library::standard_suite(7) {
        let want = run_dense(&circuit, 0);
        for granularity in [Granularity::Staged, Granularity::PerGate] {
            let mut off_gates = 0;
            for level in LEVELS {
                let (report, got) = run_cpu(&circuit, &cfg(level), granularity);
                let err = max_amp_err(&want, &got);
                assert!(
                    err < 1e-12,
                    "{} {granularity:?} {level:?}: err {err}",
                    circuit.name()
                );
                // A run never makes more passes than it has gates and
                // scalars, and makes some whenever it has any.
                let work = report.gates_applied + report.scalars_applied;
                assert_eq!(buffer_passes(&report) > 0, work > 0);
                if level == FusionLevel::Off {
                    assert_eq!(report.gates_fused, 0);
                    off_gates = report.gates_applied;
                    off_saved |= report.apply_passes_saved > 0;
                } else {
                    // Fusion only ever removes gates.
                    assert!(report.gates_applied <= off_gates);
                    any_fused |= report.gates_fused > 0;
                }
            }
        }
    }
    // The sweep must actually exercise both mechanisms somewhere — and the
    // blocked sweep saves passes without any plan-level fusion.
    assert!(any_fused, "no circuit in the suite fused any gates");
    assert!(off_saved, "the unfused level saved no passes anywhere");
}

#[test]
fn qft12_blocks2q_saves_passes_and_matches_off() {
    let circuit = library::qft(12);
    let mk = |fusion| MemQSimConfig {
        chunk_bits: 6,
        ..cfg(fusion)
    };
    let want = run_dense(&circuit, 0);
    let (off, base) = run_cpu(&circuit, &mk(FusionLevel::Off), Granularity::Staged);
    let (fused, got) = run_cpu(&circuit, &mk(FusionLevel::Blocks2q), Granularity::Staged);
    for state in [&base, &got] {
        let err = max_amp_err(&want, state);
        assert!(err < 1e-12, "err {err}");
    }
    assert!(max_amp_err(&base, &got) < 1e-12);
    assert!(fused.gates_fused > 0);
    assert!(fused.apply_passes_saved > 0);
    assert_eq!(off.chunk_visits, fused.chunk_visits);

    // The acceptance bar: QFT's controlled-phase runs fold into phase
    // tables, so even the unfused level makes at most a quarter of the
    // one-pass-per-gate passes.
    let per_gate = off.gates_applied + off.scalars_applied;
    assert!(
        buffer_passes(&off) * 4 <= per_gate,
        "passes {} of {per_gate}: more than a quarter",
        buffer_passes(&off)
    );
}

#[test]
fn hybrid_blocks2q_matches_cpu_off_and_batches_kernels() {
    let circuit = library::random_circuit(8, 14, 11);
    let (_, want) = run_cpu(&circuit, &cfg(FusionLevel::Off), Granularity::Staged);

    let run_hybrid = |fusion| {
        let config = cfg(fusion);
        let store = build_store(circuit.n_qubits(), &config).expect("store construction failed");
        let device = memqsim_suite::device::Device::new(DeviceSpec::tiny_test(1 << 16));
        let report = hybrid::run(&store, &circuit, &config, &device, true).unwrap();
        (report, store.to_dense().unwrap())
    };

    let (off, base) = run_hybrid(FusionLevel::Off);
    let (fused, got) = run_hybrid(FusionLevel::Blocks2q);
    // One apply body behind both executors: the same bits, not just the
    // same state.
    assert_eq!(want, base);
    let err = max_amp_err(&want, &got);
    assert!(err < 1e-12, "err {err}");

    // Each device group becomes one batched kernel instead of one launch
    // per gate, so modeled kernel launches must drop.
    let launches = |r: &RunReport| r.telemetry.counter(memqsim_core::Counter::KernelLaunches);
    assert!(
        launches(&fused) < launches(&off),
        "launches {} -> {}",
        launches(&off),
        launches(&fused)
    );
}
