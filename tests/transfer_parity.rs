//! Transfer-mode parity: `TransferMode::Compressed` must be a bit-level
//! no-op relative to `TransferMode::Raw`, and an accounting no-op wherever
//! the state has no all-zero chunk group — only the link traffic and the
//! codec location change. (Zero groups are the one asymmetry: the raw mode
//! sees amplitudes and skips them, the compressed mode moves payloads and
//! learns nothing.)
//!
//! The device-side encode kernel folds the group scalar into the
//! amplitudes *before* compressing, so the payloads it writes back are
//! byte-identical to what the raw path's host recompression would have
//! produced — which makes the final states equal exactly, even under a
//! lossy codec.

use memqsim_core::engine::hybrid;
use memqsim_core::{
    build_store, build_store_from_amplitudes, ChunkStore, CompressedTier, MemQSimConfig, RunReport,
    TransferMode,
};
use mq_circuit::unitary::run_dense;
use mq_circuit::{library, Circuit};
use mq_compress::{
    compress_complex, decompress_complex, Codec, CodecError, CodecSpec, PayloadMeta,
};
use mq_device::{Device, DeviceSpec, PinnedBuffer};
use mq_num::Complex64;
use proptest::prelude::*;
use std::sync::Arc;

fn config(codec: CodecSpec, mode: TransferMode) -> MemQSimConfig {
    MemQSimConfig {
        chunk_bits: 3,
        max_high_qubits: 2,
        codec,
        workers: 1,
        transfer_mode: mode,
        ..Default::default()
    }
}

/// Runs `circuit` from `start` (`|0..0>` when `None`).
fn run_mode(
    circuit: &Circuit,
    codec: CodecSpec,
    mode: TransferMode,
    pipelined: bool,
    start: Option<&[Complex64]>,
) -> (Vec<Complex64>, RunReport) {
    let cfg = config(codec, mode);
    let store = match start {
        Some(amps) => build_store_from_amplitudes(amps, &cfg),
        None => build_store(circuit.n_qubits(), &cfg),
    }
    .expect("store");
    let device = Device::new(DeviceSpec::tiny_test(1 << 12));
    let report = hybrid::run(&store, circuit, &cfg, &device, pipelined).expect("run");
    (store.to_dense().expect("dense"), report)
}

/// Every workload, both pipeline granularities, a lossless and a lossy
/// codec: compressed transfers give bit-identical states over the same
/// plan. From `|0..0>` the two modes do different amounts of *work* — only
/// the raw mode sees amplitudes, so only it learns that a group is all
/// zero and skips it — which is why the planned visits are compared here
/// and the work accounting from a state with no zero chunk.
#[test]
fn compressed_transfers_are_a_semantic_noop() {
    let dense_start = run_dense(&library::random_circuit(7, 4, 3), 0);
    for codec in [CodecSpec::Fpc, CodecSpec::Sz { eb: 1e-8 }] {
        for pipelined in [true, false] {
            for circuit in library::standard_suite(7) {
                let both = |start| {
                    let raw = run_mode(&circuit, codec, TransferMode::Raw, pipelined, start);
                    let comp =
                        run_mode(&circuit, codec, TransferMode::Compressed, pipelined, start);
                    (raw, comp)
                };
                let tag = format!("{} {codec} pipelined={pipelined}", circuit.name());

                let ((raw_state, raw), (comp_state, comp)) = both(None);
                assert_eq!(raw_state, comp_state, "state diverged: {tag}");
                assert_eq!(raw.stages, comp.stages, "{tag}");
                assert_eq!(raw.planned_visits(), comp.planned_visits(), "{tag}");
                assert!(raw.chunk_visits <= comp.chunk_visits, "{tag}");

                let ((raw_state, raw), (comp_state, comp)) = both(Some(&dense_start));
                assert_eq!(
                    raw_state, comp_state,
                    "state diverged from a dense start: {tag}"
                );
                assert_eq!(raw.gates_applied, comp.gates_applied, "{tag}");
                assert_eq!(raw.scalars_applied, comp.scalars_applied, "{tag}");
                assert_eq!(raw.chunk_visits, comp.chunk_visits, "{tag}");
                assert_eq!(raw.chunk_visits_elided, 0, "{tag}");
                assert_eq!(comp.chunk_visits_elided, 0, "{tag}");
                assert_eq!(raw.stages, comp.stages, "{tag}");
                assert_eq!(raw.groups_device, comp.groups_device, "{tag}");
                assert_eq!(raw.groups_cpu, comp.groups_cpu, "{tag}");
            }
        }
    }
}

/// The compressed run really did skip the staged raw copies: strictly
/// fewer link bytes and strictly less host decompression, with the codec
/// kernels charged on the stream clock.
#[test]
fn compressed_transfers_cut_traffic_without_changing_results() {
    let circuit = library::qft(7);
    let (_, raw) = run_mode(&circuit, CodecSpec::Fpc, TransferMode::Raw, true, None);
    let (_, comp) = run_mode(
        &circuit,
        CodecSpec::Fpc,
        TransferMode::Compressed,
        true,
        None,
    );
    assert!(comp.device.bytes_h2d < raw.device.bytes_h2d);
    assert_eq!(comp.device.bytes_h2d, comp.device.bytes_h2d_compressed);
    assert!(comp.device.modeled_decode > std::time::Duration::ZERO);
    assert!(comp.device.modeled_encode > std::time::Duration::ZERO);
    assert!(
        comp.telemetry
            .counter(mq_telemetry::Counter::DeviceDecodeTime)
            > 0,
        "decode kernel time must land in the run telemetry"
    );
}

/// A wrapper that implements only the `f64` entries, as a tracing or
/// counting wrapper around a library codec may: its amplitude entries are
/// the trait's provided plane-buffer bodies.
struct PlaneEntriesOnly(Box<dyn Codec>);

impl Codec for PlaneEntriesOnly {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn is_lossless(&self) -> bool {
        self.0.is_lossless()
    }
    fn error_bound(&self) -> Option<f64> {
        self.0.error_bound()
    }
    fn compress(&self, data: &[f64]) -> Vec<u8> {
        self.0.compress(data)
    }
    fn decompress(&self, bytes: &[u8], out: &mut [f64]) -> Result<(), CodecError> {
        self.0.decompress(bytes, out)
    }
    fn payload_meta(&self, payload: &[u8]) -> Option<PayloadMeta> {
        self.0.payload_meta(payload)
    }
}

/// The wrapper's payloads are the library codec's, byte for byte: a store
/// and a device stream take either one's payloads from the other.
#[test]
fn a_codec_with_only_the_f64_entries_is_interchangeable_with_the_library_codec() {
    let (n_qubits, chunk_bits) = (7u32, 4u32);
    let chunk = 1usize << chunk_bits;
    let state = run_dense(&library::random_circuit(n_qubits, 3, 5), 0);
    let mut sparse = vec![Complex64::ZERO; state.len()];
    sparse[..chunk].copy_from_slice(&state[..chunk]);
    let device = Device::new(DeviceSpec::tiny_test(1 << 10));
    let stream = device.create_stream();
    let buf = device.alloc(chunk).unwrap();
    let download = PinnedBuffer::new(chunk);
    for spec in [
        CodecSpec::ZeroRle,
        CodecSpec::Fpc,
        CodecSpec::ShuffleLzss,
        CodecSpec::Sz { eb: 1e-8 },
        CodecSpec::Auto { eb: None },
        CodecSpec::Auto { eb: Some(1e-9) },
    ] {
        let library: Arc<dyn Codec> = Arc::from(spec.build());
        let wrapped: Arc<dyn Codec> = Arc::new(PlaneEntriesOnly(spec.build()));
        for start in [&state, &sparse] {
            let store = |codec: &Arc<dyn Codec>| {
                CompressedTier::from_amplitudes(start, chunk_bits, Arc::clone(codec), None)
                    .expect("store")
            };
            let (a, b) = (store(&library), store(&wrapped));
            for i in 0..start.len() / chunk {
                let amps = &start[i * chunk..(i + 1) * chunk];
                let payload = compress_complex(library.as_ref(), amps);
                assert_eq!(compress_complex(wrapped.as_ref(), amps), payload, "{spec}");
                let (pa, pb) = (a.load_chunk_payload(i), b.load_chunk_payload(i));
                let (pa, pb) = (pa.unwrap().unwrap(), pb.unwrap().unwrap());
                assert_eq!(pa, pb, "{spec}: stored payloads differ");
                assert!(a.store_chunk_payload(i, pb).unwrap());
                assert!(b.store_chunk_payload(i, pa).unwrap());

                // Decoded on the device by one, re-encoded there by the
                // other: the host's payload and the host's amplitudes.
                stream.decode_chunk(payload.clone(), &wrapped, buf, 0, chunk);
                let encoded = stream.encode_chunk(buf, 0, chunk, &library);
                stream.d2h(buf, 0, &download, 0, chunk);
                stream.synchronize().unwrap();
                let mut via_host = vec![Complex64::ZERO; chunk];
                decompress_complex(library.as_ref(), &payload, &mut via_host).unwrap();
                assert_eq!(download.to_vec(), via_host, "{spec}: decodes differ");
                let reencoded = encoded.take().expect("the encode command ran");
                assert_eq!(reencoded, compress_complex(wrapped.as_ref(), &via_host));
            }
            assert_eq!(a.to_dense().unwrap(), b.to_dense().unwrap(), "{spec}");
        }
    }
}

fn adversarial_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => -1.0f64..1.0,
        1 => Just(0.0f64),
        1 => Just(-0.0f64),
        1 => Just(f64::MIN_POSITIVE),        // smallest normal
        1 => Just(f64::MIN_POSITIVE / 8.0),  // subnormal
        1 => Just(1e300f64),
        1 => Just(-1e300f64),
        1 => Just(1e-300f64),
        // SZ bin-edge straddlers: values a hair around multiples of the
        // 1e-8 error bound, where quantization rounds either way.
        1 => (-64i64..64).prop_map(|k| k as f64 * 1e-8 + 4.9e-9),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Host-encoded payloads decode identically through the device's codec
    /// commands, and device-encoded payloads are byte-identical to host
    /// ones — the two sides are interchangeable on adversarial amplitudes.
    #[test]
    fn device_codec_backend_round_trips_adversarial_amplitudes(
        reim in prop::collection::vec((adversarial_f64(), adversarial_f64()), 16..=16),
    ) {
        let amps: Vec<Complex64> =
            reim.iter().map(|&(r, i)| Complex64::new(r, i)).collect();
        let device = Device::new(DeviceSpec::tiny_test(1 << 10));
        let stream = device.create_stream();
        let buf = device.alloc(amps.len()).unwrap();
        let upload = PinnedBuffer::from_slice(&amps);
        let download = PinnedBuffer::new(amps.len());
        for spec in [
            CodecSpec::ZeroRle,
            CodecSpec::Fpc,
            CodecSpec::ShuffleLzss,
            CodecSpec::Sz { eb: 1e-8 },
        ] {
            let codec: Arc<dyn Codec> = Arc::from(spec.build());

            let host_payload = compress_complex(codec.as_ref(), &amps);
            stream.h2d(&upload, 0, buf, 0, amps.len());
            let encoded = stream.encode_chunk(buf, 0, amps.len(), &codec);
            stream.decode_chunk(host_payload.clone(), &codec, buf, 0, amps.len());
            stream.d2h(buf, 0, &download, 0, amps.len());
            stream.synchronize().unwrap();
            let dev_payload = encoded.take().expect("the encode command ran");
            prop_assert_eq!(&host_payload, &dev_payload, "payloads differ under {}", spec);

            let via_device = download.to_vec();
            let mut via_host = vec![Complex64::ZERO; amps.len()];
            decompress_complex(codec.as_ref(), &host_payload, &mut via_host).unwrap();
            prop_assert_eq!(&via_device, &via_host, "decodes differ under {}", spec);

            // Lossless codecs must round-trip the adversarial bits exactly.
            if codec.is_lossless() {
                prop_assert_eq!(
                    compress_complex(codec.as_ref(), &via_device),
                    host_payload,
                    "re-encode not stable under {}", spec
                );
                for (a, b) in amps.iter().zip(&via_device) {
                    prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                    prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
            }
        }
    }
}
