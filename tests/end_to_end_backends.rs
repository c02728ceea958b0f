//! Integration: every library algorithm, on every compute path (dense
//! baseline, compressed CPU staged and per-gate, hybrid device pipeline),
//! against the independent dense oracle — the full stack exercised end to
//! end.

use memqsim_core::engine::{cpu, hybrid};
use memqsim_core::{build_store, Granularity, MemQSimConfig, RunReport, TransferMode};
use mq_circuit::unitary::run_dense;
use mq_circuit::{library, Circuit};
use mq_compress::CodecSpec;
use mq_device::{Device, DeviceSpec};
use mq_num::metrics::{fidelity, max_amp_err};
use mq_num::Complex64;
use mq_statevec::CpuConfig;

fn cfg(chunk_bits: u32, codec: CodecSpec) -> MemQSimConfig {
    MemQSimConfig::builder()
        .chunk_bits(chunk_bits)
        .max_high_qubits(2)
        .codec(codec)
        .workers(2)
        .build()
        .expect("valid test config")
}

/// The final state and report of `circuit` on the compressed CPU engine.
fn run_cpu(
    circuit: &Circuit,
    cfg: &MemQSimConfig,
    granularity: Granularity,
) -> (Vec<Complex64>, RunReport) {
    let store = build_store(circuit.n_qubits(), cfg).expect("store");
    let report = cpu::run(&store, circuit, cfg, granularity).expect("cpu run");
    (store.to_dense().expect("readable"), report)
}

/// The final state of `circuit` through the device pipeline on one device.
fn run_hybrid(circuit: &Circuit, cfg: &MemQSimConfig, device_amps: usize) -> Vec<Complex64> {
    let store = build_store(circuit.n_qubits(), cfg).expect("store");
    let device = Device::new(DeviceSpec::tiny_test(device_amps));
    hybrid::run(&store, circuit, cfg, &device, true).expect("hybrid run");
    store.to_dense().expect("readable")
}

fn run_baseline(circuit: &Circuit) -> Vec<Complex64> {
    mq_statevec::run_circuit(circuit, &CpuConfig { workers: 2 })
        .amplitudes()
        .to_vec()
}

fn all_circuits(n: u32) -> Vec<Circuit> {
    let mut v = library::standard_suite(n);
    v.push(library::w_state(n));
    v.push(library::bernstein_vazirani(
        n - 1,
        0b1011 & ((1 << (n - 1)) - 1),
    ));
    v.push(library::phase_estimation(n - 1, 0.3125));
    v.push(library::supremacy_like(n, 6, 3));
    v.push(library::quantum_volume(n, 3, 9));
    v
}

#[test]
fn every_algorithm_on_every_backend_matches_the_oracle() {
    let n = 8u32;
    let sz = cfg(4, CodecSpec::Sz { eb: 1e-12 });
    let fpc = cfg(4, CodecSpec::Fpc);
    for circuit in all_circuits(n) {
        let oracle = run_dense(&circuit, 0);
        let (staged, report) = run_cpu(&circuit, &sz, Granularity::Staged);
        // The compressed store holds a GHZ state far below its dense bytes.
        if circuit.name().starts_with("ghz") {
            assert!(report.peak_resident_bytes < (1 << n) * 16);
        }
        let paths = [
            ("dense", run_baseline(&circuit)),
            ("staged", staged),
            ("per-gate", run_cpu(&circuit, &fpc, Granularity::PerGate).0),
            ("hybrid", run_hybrid(&circuit, &sz, 1 << 14)),
        ];
        for (path, amplitudes) in &paths {
            let err = max_amp_err(&oracle, amplitudes);
            assert!(
                err < 1e-6,
                "{} on {path}: max amp err {err}",
                circuit.name()
            );
            let f = fidelity(&oracle, amplitudes);
            assert!(f > 1.0 - 1e-9, "{} on {path}: fidelity {f}", circuit.name());
        }
    }
}

#[test]
fn backends_agree_across_chunk_geometries() {
    let circuit = library::qft(9);
    let dense = run_baseline(&circuit);
    for chunk_bits in [2u32, 3, 5, 7, 9] {
        let (got, _) = run_cpu(
            &circuit,
            &cfg(chunk_bits, CodecSpec::Fpc),
            Granularity::Staged,
        );
        let err = max_amp_err(&dense, &got);
        assert!(err < 1e-9, "chunk_bits={chunk_bits}: {err}");
    }
}

#[test]
fn all_codecs_work_as_the_store_codec() {
    let circuit = library::grover(7, 42, 3);
    let oracle = run_dense(&circuit, 0);
    for spec in CodecSpec::sweep_set() {
        let tol = match spec {
            CodecSpec::Sz { eb } => (eb * 1e4).max(1e-8), // error accumulates per stage
            _ => 1e-10,
        };
        let (got, _) = run_cpu(&circuit, &cfg(3, spec), Granularity::Staged);
        let err = max_amp_err(&oracle, &got);
        assert!(err < tol.max(1e-3), "{spec}: err {err}");
    }
}

#[test]
fn deep_circuit_error_accumulation_stays_bounded() {
    // 40 layers of random circuit through a tight lossy store: fidelity must
    // survive hundreds of recompressions.
    let circuit = library::random_circuit(7, 40, 17);
    let oracle = run_dense(&circuit, 0);
    let cfg = cfg(3, CodecSpec::Sz { eb: 1e-12 });
    let (got, _) = run_cpu(&circuit, &cfg, Granularity::Staged);
    let f = fidelity(&oracle, &got);
    assert!(f > 0.99999, "fidelity after deep circuit: {f}");
}

#[test]
fn single_chunk_degenerate_case() {
    // chunk_bits >= n means one chunk and no cross-chunk logic at all.
    let circuit = library::qft(5);
    let (got, _) = run_cpu(&circuit, &cfg(16, CodecSpec::Fpc), Granularity::Staged);
    let oracle = run_dense(&circuit, 0);
    assert!(max_amp_err(&oracle, &got) < 1e-10);
}

#[test]
fn two_qubit_minimum_register() {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1).rz(1, 0.5).swap(0, 1);
    let oracle = run_dense(&c, 0);
    for chunk_bits in [1u32, 2] {
        let (got, _) = run_cpu(&c, &cfg(chunk_bits, CodecSpec::Fpc), Granularity::Staged);
        assert!(max_amp_err(&oracle, &got) < 1e-12, "cb={chunk_bits}");
    }
}

#[test]
fn optimization_flags_change_nothing_observable() {
    // Compressed transfers are a pure optimization: same amplitudes.
    let circuit = library::hardware_efficient_ansatz(8, 2, 3);
    let oracle = run_dense(&circuit, 0);
    let plain = cfg(3, CodecSpec::Fpc);
    let optimized = MemQSimConfig {
        transfer_mode: TransferMode::Compressed,
        ..plain
    };
    for config in [plain, optimized] {
        let (staged, _) = run_cpu(&circuit, &config, Granularity::Staged);
        let hybrid = run_hybrid(&circuit, &config, 1 << 12);
        for (path, got) in [("staged", staged), ("hybrid", hybrid)] {
            let err = max_amp_err(&oracle, &got);
            assert!(err < 1e-10, "{path} {:?}: {err}", config.transfer_mode);
        }
    }
}
