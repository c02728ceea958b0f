//! Integration: every library algorithm, on every backend, against the
//! independent dense oracle — the full stack exercised end to end.

use memqsim_core::{
    run_on_all, Backend, CompressedCpuBackend, DenseCpuBackend, EngineError, Granularity,
    HybridBackend, MemQSimConfig, TransferMode,
};
use mq_circuit::unitary::run_dense;
use mq_circuit::{library, Circuit};
use mq_compress::CodecSpec;
use mq_device::DeviceSpec;
use mq_num::metrics::{fidelity, max_amp_err};

fn cfg(chunk_bits: u32, codec: CodecSpec) -> MemQSimConfig {
    MemQSimConfig::builder()
        .chunk_bits(chunk_bits)
        .max_high_qubits(2)
        .codec(codec)
        .workers(2)
        .build()
        .expect("valid test config")
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
    let dense = DenseCpuBackend { workers: 2 };
    let compressed = CompressedCpuBackend::new(cfg(4, CodecSpec::Sz { eb: 1e-12 }));
    let per_gate = CompressedCpuBackend {
        cfg: cfg(4, CodecSpec::Fpc),
        granularity: Granularity::PerGate,
    };
    let hybrid = HybridBackend::new(
        cfg(4, CodecSpec::Sz { eb: 1e-12 }),
        DeviceSpec::tiny_test(1 << 14),
    );
    let backends: Vec<&dyn Backend> = vec![&dense, &compressed, &per_gate, &hybrid];

    for circuit in all_circuits(n) {
        let oracle = run_dense(&circuit, 0);
        for backend in &backends {
            let run = backend.run(&circuit).expect("backend failed");
            let err = max_amp_err(&oracle, &run.amplitudes);
            assert!(
                err < 1e-6,
                "{} on {}: max amp err {err}",
                circuit.name(),
                backend.name()
            );
            let f = fidelity(&oracle, &run.amplitudes);
            assert!(f > 1.0 - 1e-9, "{} fidelity {f}", backend.name());
        }
    }
}

#[test]
fn backends_agree_across_chunk_geometries() {
    let circuit = library::qft(9);
    for chunk_bits in [2u32, 3, 5, 7, 9] {
        let compressed = CompressedCpuBackend::new(cfg(chunk_bits, CodecSpec::Fpc));
        let dense = DenseCpuBackend::default();
        run_on_all(&circuit, &[&dense, &compressed], 1e-9)
            .unwrap_or_else(|e| panic!("chunk_bits={chunk_bits}: {e}"));
    }
}

#[test]
fn divergence_is_a_typed_error_not_a_panic() {
    // A deliberately lossy backend checked at an impossible tolerance: the
    // modularity harness must hand back a structured error naming both
    // backends, never panic.
    let circuit = library::qft(6);
    let dense = DenseCpuBackend::default();
    let lossy = CompressedCpuBackend::new(cfg(3, CodecSpec::Sz { eb: 1e-2 }));
    match run_on_all(&circuit, &[&dense, &lossy], 1e-15) {
        Err(EngineError::BackendDivergence {
            first,
            other,
            max_err,
            tol,
        }) => {
            assert_eq!(first, "dense-cpu");
            assert!(other.contains("compressed-cpu"), "{other}");
            assert!(max_err > tol);
            let msg = run_on_all(&circuit, &[&dense, &lossy], 1e-15)
                .unwrap_err()
                .to_string();
            assert!(msg.contains("diverges"), "{msg}");
        }
        other => panic!("expected BackendDivergence, got {other:?}"),
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
        let backend = CompressedCpuBackend::new(cfg(3, spec));
        let run = backend.run(&circuit).expect("run failed");
        let err = max_amp_err(&oracle, &run.amplitudes);
        assert!(err < tol.max(1e-3), "{spec}: err {err}");
    }
}

#[test]
fn deep_circuit_error_accumulation_stays_bounded() {
    // 40 layers of random circuit through a tight lossy store: fidelity must
    // survive hundreds of recompressions.
    let circuit = library::random_circuit(7, 40, 17);
    let oracle = run_dense(&circuit, 0);
    let backend = CompressedCpuBackend::new(cfg(3, CodecSpec::Sz { eb: 1e-12 }));
    let run = backend.run(&circuit).expect("run failed");
    let f = fidelity(&oracle, &run.amplitudes);
    assert!(f > 0.99999, "fidelity after deep circuit: {f}");
}

#[test]
fn single_chunk_degenerate_case() {
    // chunk_bits >= n means one chunk and no cross-chunk logic at all.
    let circuit = library::qft(5);
    let backend = CompressedCpuBackend::new(cfg(16, CodecSpec::Fpc));
    let run = backend.run(&circuit).expect("run failed");
    let oracle = run_dense(&circuit, 0);
    assert!(max_amp_err(&oracle, &run.amplitudes) < 1e-10);
}

#[test]
fn two_qubit_minimum_register() {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1).rz(1, 0.5).swap(0, 1);
    let oracle = run_dense(&c, 0);
    for chunk_bits in [1u32, 2] {
        let backend = CompressedCpuBackend::new(cfg(chunk_bits, CodecSpec::Fpc));
        let run = backend.run(&c).expect("run failed");
        assert!(
            max_amp_err(&oracle, &run.amplitudes) < 1e-12,
            "cb={chunk_bits}"
        );
    }
}

#[test]
fn optimization_flags_change_nothing_observable() {
    // The residency cache and compressed transfers are pure
    // optimizations: same amplitudes.
    let circuit = library::hardware_efficient_ansatz(8, 2, 3);
    let oracle = run_dense(&circuit, 0);
    let plain = cfg(3, CodecSpec::Fpc);
    let optimized = MemQSimConfig {
        cache_bytes: 8 * (1 << 3) * 16,
        transfer_mode: TransferMode::Compressed,
        ..plain
    };
    for config in [plain, optimized] {
        let compressed = CompressedCpuBackend::new(config);
        let hybrid = HybridBackend::new(config, DeviceSpec::tiny_test(1 << 12));
        for backend in [&compressed as &dyn Backend, &hybrid] {
            let run = backend.run(&circuit).expect("run failed");
            let err = max_amp_err(&oracle, &run.amplitudes);
            assert!(err < 1e-10, "{}: {err}", backend.name());
        }
    }
}
