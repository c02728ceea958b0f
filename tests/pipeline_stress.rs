//! Integration: the hybrid pipeline under stress and failure injection —
//! tiny staging pools, many chunks, worker threads, device OOM, and
//! sampling equivalence between dense and compressed paths.

use memqsim_core::engine::hybrid::{self, DevicePipelineExecutor};
use memqsim_core::{
    build_store, build_store_from_amplitudes, measure, run_with_executor, ChunkStore,
    CompressedTier, Counter, EngineError, Granularity, MemQSimConfig, Role, Telemetry,
    TransferMode,
};
use mq_circuit::library;
use mq_circuit::unitary::run_dense;
use mq_compress::{Codec, CodecError, CodecSpec};
use mq_device::{Device, DeviceError, DeviceSpec};
use mq_num::metrics::max_amp_err;
use mq_num::Complex64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
fn corruption_mid_stage_is_typed_and_leaves_the_executor_reusable() {
    // "submit fails → no end_stage → finish drains" against the real
    // pipeline. No chunk of the start state is zero, so every group goes to
    // a device, and chunk 15 is first loaded by the last group of stage 0,
    // behind groups still in flight.
    let circuit = library::qft(7);
    let start = run_dense(&library::random_circuit(7, 4, 3), 0);
    let mut want = None;
    for (pipelined, devices, transfer_mode) in [
        (true, 1, TransferMode::Raw),
        (true, 1, TransferMode::Compressed),
        (true, 2, TransferMode::Raw),
        (true, 2, TransferMode::Compressed),
        (false, 1, TransferMode::Raw),
        (false, 1, TransferMode::Compressed),
        (false, 2, TransferMode::Raw),
        (false, 2, TransferMode::Compressed),
    ] {
        let what = format!("pipelined={pipelined} x{devices} {transfer_mode:?}");
        let config = MemQSimConfig {
            transfer_mode,
            ..cfg(3)
        };
        let fleet: Vec<Device> = (0..devices)
            .map(|_| Device::new(DeviceSpec::tiny_test(1 << 12)))
            .collect();
        let mut exec = DevicePipelineExecutor::new_fleet(&fleet, pipelined);
        let mut round = |corrupt: bool| {
            let store = build_store_from_amplitudes(&start, &config).unwrap();
            if corrupt {
                store.debug_corrupt_chunk(15);
            }
            let result =
                run_with_executor(&store, &circuit, &config, Granularity::Staged, &mut exec);
            (store, result)
        };
        let (store, result) = round(true);
        match result {
            Err(EngineError::Codec(CodecError::Corrupt(msg))) => {
                assert!(
                    msg.contains("chunk 15") && msg.contains("checksum"),
                    "{what}: {msg}"
                )
            }
            other => panic!("{what}: {other:?}"),
        }
        // Mid-stage: other groups were loaded before it (15 chunks under
        // today's plan).
        assert!(store.counters().chunk_visits >= 4, "{what}");
        assert!(fleet.iter().all(|d| d.used_amps() == 0), "{what}");
        // The same executor then runs clean, to the same bits in every cell.
        let (store, result) = round(false);
        result.unwrap_or_else(|e| panic!("{what}: {e}"));
        let state = store.to_dense().unwrap();
        assert_eq!(&state, want.get_or_insert_with(|| state.clone()), "{what}");
    }
    let mut whole = library::random_circuit(7, 4, 3);
    whole.extend(&circuit);
    assert!(max_amp_err(&want.unwrap(), &run_dense(&whole, 0)) < 1e-8);
}

/// FPC that panics on the `n`-th encode after `left` is set to `n`. It
/// forwards the amplitude entries too, so the run takes the in-place path.
struct PanickingCodec {
    inner: Box<dyn Codec>,
    left: AtomicIsize,
}

impl PanickingCodec {
    fn count_down(&self) {
        if self.left.fetch_sub(1, Ordering::SeqCst) == 1 {
            panic!("injected codec panic");
        }
    }
}

impl Codec for PanickingCodec {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn is_lossless(&self) -> bool {
        true
    }
    fn compress(&self, data: &[f64]) -> Vec<u8> {
        self.count_down();
        self.inner.compress(data)
    }
    fn decompress(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        self.inner.decompress(bytes, out)
    }
    fn compress_amps(&self, amps: &[Complex64]) -> Vec<u8> {
        self.count_down();
        self.inner.compress_amps(amps)
    }
    fn decompress_amps(&self, bytes: &[u8], out: &mut [Complex64]) -> Result<(), CodecError> {
        self.inner.decompress_amps(bytes, out)
    }
}

#[test]
fn a_panicking_completer_is_a_typed_error_not_a_hang() {
    // The whole scenario runs on a watchdog thread, so a regression fails
    // the test instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let config = MemQSimConfig {
            codec: CodecSpec::Fpc,
            ..cfg(3)
        };
        let c = library::qft(9);
        let dev = Device::new(DeviceSpec::tiny_test(1 << 12));
        let mut exec = DevicePipelineExecutor::new(&dev, true);
        let mut round = |store: &Arc<dyn ChunkStore>| {
            run_with_executor(store, &c, &config, Granularity::Staged, &mut exec)
        };

        let codec = Arc::new(PanickingCodec {
            inner: CodecSpec::Fpc.build(),
            left: AtomicIsize::new(0),
        });
        let store: Arc<dyn ChunkStore> = Arc::new(CompressedTier::zero_state(9, 3, codec.clone()));
        codec.left.store(8, Ordering::SeqCst);
        let err = round(&store).unwrap_err();
        assert_eq!(err, EngineError::WorkerPanicked { role: "recompress" });
        assert_eq!(dev.used_amps(), 0);

        // The same executor then serves a clean run, as a fresh one would.
        let again = build_store(9, &config).unwrap();
        round(&again).unwrap();
        let fresh = build_store(9, &config).unwrap();
        hybrid::run(&fresh, &c, &config, &dev, true).unwrap();
        assert_eq!(again.to_dense().unwrap(), fresh.to_dense().unwrap());
        tx.send(()).unwrap();
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("the run hung, or an assertion on its thread failed");
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
