//! Shared test helpers for the engine and fidelity test modules.
//!
//! Test-only (`#[cfg(test)]`): one place for the config/store/run-and-compare
//! boilerplate of the `engine::cpu`, `engine::hybrid` and `fidelity` tests.

use crate::config::MemQSimConfig;
use crate::engine::{cpu, hybrid, Granularity, RunReport};
use crate::store::{build_store, ChunkStore};
use mq_circuit::unitary::run_dense;
use mq_circuit::Circuit;
use mq_compress::CodecSpec;
use mq_device::{Device, DeviceSpec};
use mq_num::metrics::max_amp_err;
use std::sync::Arc;

/// Canonical small test configuration: tiny chunks, pair-to-quad groups,
/// single worker, everything else default.
pub(crate) fn cfg(chunk_bits: u32, codec: CodecSpec) -> MemQSimConfig {
    MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec,
        workers: 1,
        ..Default::default()
    }
}

/// A |0...0> store stack built for `cfg` (the same path the facade uses),
/// except with `chunk_bits` forced so geometry-mismatch tests can build
/// deliberately wrong stores.
pub(crate) fn zero_store(
    n_qubits: u32,
    chunk_bits: u32,
    cfg: &MemQSimConfig,
) -> Arc<dyn ChunkStore> {
    let cfg = MemQSimConfig { chunk_bits, ..*cfg };
    build_store(n_qubits, &cfg).expect("store construction")
}

/// A simulated device large enough for any test circuit.
pub(crate) fn tiny_device() -> Device {
    Device::new(DeviceSpec::tiny_test(1 << 20))
}

/// Runs `circuit` on the CPU engine and asserts the result matches the
/// dense reference within `tol`.
pub(crate) fn run_cpu_and_compare(
    circuit: &Circuit,
    config: &MemQSimConfig,
    tol: f64,
) -> RunReport {
    let store = zero_store(
        circuit.n_qubits(),
        config.effective_chunk_bits(circuit.n_qubits()),
        config,
    );
    let report = cpu::run(&store, circuit, config, Granularity::Staged).unwrap();
    compare_to_dense(&store, circuit, tol);
    report
}

/// Runs `circuit` on the hybrid engine and asserts the result matches the
/// dense reference within `tol`.
pub(crate) fn run_hybrid_and_compare(
    circuit: &Circuit,
    config: &MemQSimConfig,
    pipelined: bool,
    tol: f64,
) -> RunReport {
    let store = zero_store(
        circuit.n_qubits(),
        config.effective_chunk_bits(circuit.n_qubits()),
        config,
    );
    let dev = tiny_device();
    let report = hybrid::run(&store, circuit, config, &dev, pipelined).unwrap();
    compare_to_dense(&store, circuit, tol);
    report
}

fn compare_to_dense(store: &dyn ChunkStore, circuit: &Circuit, tol: f64) {
    let got = store.to_dense().unwrap();
    let want = run_dense(circuit, 0);
    let err = max_amp_err(&got, &want);
    assert!(err < tol, "{}: err {err}", circuit.name());
}
