//! Integration: the hybrid pipeline under stress and failure injection —
//! tiny staging pools, many chunks, worker threads, device OOM, and
//! sampling equivalence between dense and compressed paths.

use memqsim_core::{
    build_store, engine::hybrid, measure, ChunkStore, Counter, EngineError, MemQSimConfig, Role,
    Telemetry,
};
use mq_circuit::library;
use mq_circuit::unitary::run_dense;
use mq_compress::CodecSpec;
use mq_device::{Device, DeviceError, DeviceSpec};
use mq_num::metrics::max_amp_err;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg(chunk_bits: u32) -> MemQSimConfig {
    MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec: CodecSpec::Sz { eb: 1e-12 },
        workers: 2,
        ..Default::default()
    }
}

fn run_hybrid(
    circuit: &mq_circuit::Circuit,
    config: &MemQSimConfig,
    device_amps: usize,
    pipelined: bool,
) {
    let store = build_store(circuit.n_qubits(), config).expect("store construction failed");
    let device = Device::new(DeviceSpec::tiny_test(device_amps));
    hybrid::run(&store, circuit, config, &device, pipelined).expect("hybrid run failed");
    let got = store.to_dense().expect("store readable");
    let want = run_dense(circuit, 0);
    let err = max_amp_err(&got, &want);
    assert!(err < 1e-8, "{}: err {err}", circuit.name());
}

#[test]
fn many_tiny_chunks_through_a_small_pool() {
    // 2^7 chunks of 4 amps each through the two in-flight slots.
    let circuit = library::qft(9);
    run_hybrid(&circuit, &cfg(2), 1 << 12, true);
    run_hybrid(&circuit, &cfg(2), 1 << 12, false);
}

#[test]
fn device_exactly_fits_the_staging_buffers() {
    // Device capacity == the pipeline's two staging slots x group size:
    // must succeed.
    let circuit = library::ghz(8);
    let config = cfg(3); // groups up to 2^(3+2) = 32 amps; 2 slots = 64 amps
    run_hybrid(&circuit, &config, 64, true);
}

#[test]
fn device_one_amp_short_is_oom() {
    // 2 x 32 amps needed, 63 there: the second slot does not fit.
    let circuit = library::ghz(8);
    let config = cfg(3);
    let store = build_store(8, &config).expect("store construction failed");
    let device = Device::new(DeviceSpec::tiny_test(63));
    match hybrid::run(&store, &circuit, &config, &device, true) {
        Err(EngineError::Device(DeviceError::OutOfMemory {
            requested,
            available,
        })) => {
            assert_eq!(requested, 32);
            assert!(available < 32);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn store_survives_a_failed_run() {
    // After an OOM the store must still be structurally readable.
    let circuit = library::ghz(8);
    let config = cfg(3);
    let store = build_store(8, &config).expect("store construction failed");
    let device = Device::new(DeviceSpec::tiny_test(8));
    let _ = hybrid::run(&store, &circuit, &config, &device, true);
    let dense = store.to_dense().expect("store must stay readable");
    assert_eq!(dense.len(), 256);
    // The |0..0> amplitude is still there (no gates committed).
    assert!((store.norm().unwrap() - 1.0).abs() < 1e-6);
}

#[test]
fn sampling_matches_between_dense_and_compressed() {
    let circuit = library::w_state(8);
    let config = cfg(3);
    let store = build_store(8, &config).expect("store construction failed");
    let device = Device::new(DeviceSpec::tiny_test(1 << 10));
    hybrid::run(&store, &circuit, &config, &device, true).expect("run failed");

    let shots = 4000;
    let counts = measure::sample_counts(&store, shots, &mut StdRng::seed_from_u64(5)).unwrap();
    // W state: 8 single-excitation outcomes, each ~shots/8.
    assert_eq!(counts.len(), 8);
    for &(state, count) in &counts {
        assert_eq!(state.count_ones(), 1);
        let expect = shots as f64 / 8.0;
        assert!(
            (count as f64 - expect).abs() < expect * 0.5,
            "state {state:#b} count {count}"
        );
    }
}

#[test]
fn repeated_runs_on_one_device_reuse_memory_cleanly() {
    // Allocations must be freed between runs: 8 consecutive runs on a device
    // sized for ~1.5 runs' worth of buffers.
    let circuit = library::ghz(8);
    let config = cfg(3);
    let device = Device::new(DeviceSpec::tiny_test(96));
    for round in 0..8 {
        let store = build_store(8, &config).expect("store construction failed");
        hybrid::run(&store, &circuit, &config, &device, true)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
    assert_eq!(device.used_amps(), 0, "device memory leaked");
}

#[test]
fn telemetry_record_balances_and_matches_report_durations() {
    // The report's duration fields are *derived* from the telemetry record,
    // so they must agree exactly — and the record itself must be coherent.
    let circuit = library::supremacy_like(9, 5, 4);
    let config = cfg(3);
    let store = build_store(9, &config).expect("store construction failed");
    let device = Device::new(DeviceSpec::tiny_test(1 << 12));
    let r = hybrid::run(&store, &circuit, &config, &device, true).expect("run failed");
    let t = &r.telemetry;

    // Every span opened was closed.
    assert!(
        t.balanced(),
        "{} opened, {} closed",
        t.spans_opened,
        t.spans_closed
    );
    // Role busy sums ARE the report durations.
    assert_eq!(r.wall, t.wall);
    assert_eq!(r.decompress, t.busy(Role::Decompress));
    assert_eq!(r.compress, t.busy(Role::Recompress));
    assert_eq!(r.cpu_apply, t.busy(Role::CpuApply));
    // Transfer counters mirror the device's own accounting.
    assert_eq!(t.counter(Counter::BytesH2d), r.device.bytes_h2d as u64);
    assert_eq!(t.counter(Counter::BytesD2h), r.device.bytes_d2h as u64);
    assert!(t.counter(Counter::KernelLaunches) > 0);
    assert!(t.counter(Counter::BytesDecompressed) > 0);
    assert!(t.counter(Counter::BytesCompressed) > 0);
    // Interval algebra: the union of busy intervals never exceeds the sum.
    assert!(t.union_busy() <= t.serial_sum());
    assert_eq!(t.serial_sum() - t.union_busy(), t.overlap());
}

#[test]
fn telemetry_counters_are_monotonic() {
    // Counters only ever accumulate while a handle is attached.
    let telemetry = Telemetry::new();
    let config = MemQSimConfig {
        chunk_bits: 2,
        codec: CodecSpec::Fpc,
        ..Default::default()
    };
    let store = build_store(6, &config).expect("store construction failed");
    store.attach_telemetry(telemetry.clone());
    let mut last_bytes = 0;
    let mut last_visits = 0;
    for basis in [0usize, 5, 9, 33, 63] {
        let _ = store.probability(basis).expect("store readable");
        let bytes = telemetry.counter(Counter::BytesDecompressed);
        let visits = telemetry.counter(Counter::ChunkVisits);
        assert!(bytes >= last_bytes, "{bytes} < {last_bytes}");
        assert!(visits > last_visits, "visit counter did not advance");
        last_bytes = bytes;
        last_visits = visits;
    }
    store.detach_telemetry();
    // Detached: further traffic leaves the counters untouched.
    let _ = store.probability(0).expect("store readable");
    assert_eq!(telemetry.counter(Counter::ChunkVisits), last_visits);
}

#[test]
fn pipelined_run_overlaps_roles_where_serial_does_not() {
    // 2^9 chunks in groups of 4 give the pipeline hundreds of work items per
    // stage: the producer's decompression of group k+1 must overlap the
    // completer's recompression of group k. The serial engine's stage
    // barrier makes overlap structurally impossible.
    let circuit = library::qft(11);
    let config = MemQSimConfig {
        workers: 2,
        ..cfg(2)
    };
    let mk = || build_store(11, &config).expect("store construction failed");
    let device = Device::new(DeviceSpec::tiny_test(1 << 12));

    let serial_store = mk();
    let serial = hybrid::run(&serial_store, &circuit, &config, &device, false).expect("serial");
    assert!(serial.telemetry.balanced());
    assert!(
        !serial.telemetry.has_role_overlap(),
        "serial run overlapped"
    );
    assert_eq!(serial.telemetry.overlap(), std::time::Duration::ZERO);
    assert_eq!(serial.telemetry.union_busy(), serial.telemetry.serial_sum());

    let piped_store = mk();
    let piped = hybrid::run(&piped_store, &circuit, &config, &device, true).expect("pipelined");
    assert!(piped.telemetry.balanced());
    assert!(
        piped.telemetry.union_busy() < piped.telemetry.serial_sum(),
        "pipelined run shows no measured overlap: union {:?} vs sum {:?}",
        piped.telemetry.union_busy(),
        piped.telemetry.serial_sum()
    );
    assert!(piped.telemetry.has_role_overlap());
}

#[test]
fn pipelined_and_serial_produce_identical_states() {
    let circuit = library::supremacy_like(9, 5, 4);
    let config = cfg(3);
    let mk = || build_store(9, &config).expect("store construction failed");
    let a = mk();
    let b = mk();
    let dev = Device::new(DeviceSpec::tiny_test(1 << 12));
    hybrid::run(&a, &circuit, &config, &dev, true).unwrap();
    hybrid::run(&b, &circuit, &config, &dev, false).unwrap();
    let err = max_amp_err(&a.to_dense().unwrap(), &b.to_dense().unwrap());
    assert!(err < 1e-12, "pipelining changed the result: {err}");
}
