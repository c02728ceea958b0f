//! Apply parity: every group runs one apply body — specialize, fold the
//! scalars, one cache-blocked sweep — behind both executors. On a lossless
//! codec the engine must reproduce the dense oracle to float-product
//! reassociation error (~1e-12), the hybrid executor must produce the CPU
//! executor's bits, and what the sweep saves is reported through the
//! identity `passes = gates_applied + scalars_applied - apply_passes_saved`.

use memqsim_core::engine::{cpu, hybrid, Granularity, RunReport};
use memqsim_core::{build_store, ChunkStore, MemQSimConfig};
use memqsim_suite::{
    circuit::library, circuit::unitary::run_dense, circuit::Circuit, num::metrics::max_amp_err,
    CodecSpec, DeviceSpec,
};

fn cfg(chunk_bits: u32) -> MemQSimConfig {
    MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec: CodecSpec::Fpc,
        workers: 1,
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
fn engine_matches_dense_oracle_across_suite_and_granularities() {
    let mut saved = false;
    for circuit in library::standard_suite(7) {
        let want = run_dense(&circuit, 0);
        for granularity in [Granularity::Staged, Granularity::PerGate] {
            let (report, got) = run_cpu(&circuit, &cfg(3), granularity);
            let err = max_amp_err(&want, &got);
            assert!(err < 1e-12, "{} {granularity:?}: err {err}", circuit.name());
            // A run never makes more passes than it has gates and scalars,
            // and makes some whenever it has any.
            let work = report.gates_applied + report.scalars_applied;
            assert_eq!(buffer_passes(&report) > 0, work > 0);
            saved |= report.apply_passes_saved > 0;
        }
    }
    assert!(saved, "the blocked sweep saved no passes anywhere");
}

#[test]
fn qft12_sweep_makes_at_most_a_quarter_of_per_gate_passes() {
    let circuit = library::qft(12);
    let (report, got) = run_cpu(&circuit, &cfg(6), Granularity::Staged);
    let err = max_amp_err(&run_dense(&circuit, 0), &got);
    assert!(err < 1e-12, "err {err}");

    // The acceptance bar: QFT's controlled-phase runs fold into phase
    // tables, so the sweep makes at most a quarter of the
    // one-pass-per-gate passes.
    let per_gate = report.gates_applied + report.scalars_applied;
    assert!(
        buffer_passes(&report) * 4 <= per_gate,
        "passes {} of {per_gate}: more than a quarter",
        buffer_passes(&report)
    );
}

#[test]
fn hybrid_matches_cpu_bit_for_bit() {
    let circuit = library::random_circuit(8, 14, 11);
    let config = cfg(3);
    let (cpu_report, want) = run_cpu(&circuit, &config, Granularity::Staged);

    let store = build_store(circuit.n_qubits(), &config).expect("store construction failed");
    let device = memqsim_suite::device::Device::new(DeviceSpec::tiny_test(1 << 16));
    let report = hybrid::run(&store, &circuit, &config, &device, true).unwrap();
    // One apply body behind both executors: the same bits, not just the
    // same state, and the same pass accounting.
    assert_eq!(want, store.to_dense().unwrap());
    assert_eq!(buffer_passes(&report), buffer_passes(&cpu_report));
}
