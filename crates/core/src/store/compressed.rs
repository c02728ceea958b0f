//! The codec + checksum base tier: chunks resident as compressed bytes,
//! each guarded by a `checksum64` taken at commit and verified before
//! every decode and every payload hand-out.

use super::accounting::PayloadAccounting;
use super::{checksum64, expect_chunk_len, verify_checksum, ChunkStore, StoreCounters};
use mq_compress::{compress_complex, decompress_complex, Codec, CodecError, CompressionStats};
use mq_num::{bits, Complex64};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One resident chunk: compressed bytes + integrity checksum.
#[derive(Debug, Default)]
struct ChunkSlot {
    bytes: Vec<u8>,
    checksum: u64,
}

/// The compressed chunk tier — MEMQSIM's headline representation.
///
/// Every chunk lives in CPU memory as codec-compressed bytes guarded by a
/// word-parallel `checksum64`, individually locked so pipeline threads and
/// "idle core" workers stream different chunks concurrently. Running totals
/// of resident compressed bytes and their peak are the numbers behind the
/// paper's "+5 qubits in the same memory" claim.
///
/// This tier holds no telemetry handle. Wrap it in a
/// [`TelemetryTier`](super::TelemetryTier) — or let
/// [`build_store`](super::build_store) do it — for the full stack.
pub struct CompressedTier {
    n_qubits: u32,
    chunk_bits: u32,
    codec: Arc<dyn Codec>,
    chunks: Vec<Mutex<ChunkSlot>>,
    current_bytes: AtomicUsize,
    peak_bytes: AtomicUsize,
    accounting: PayloadAccounting,
}

impl CompressedTier {
    fn new_empty(n_qubits: u32, chunk_bits: u32, codec: Arc<dyn Codec>) -> Self {
        let chunk_count = 1usize << (n_qubits - chunk_bits);
        CompressedTier {
            n_qubits,
            chunk_bits,
            codec,
            chunks: (0..chunk_count)
                .map(|_| Mutex::new(ChunkSlot::default()))
                .collect(),
            current_bytes: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
            accounting: PayloadAccounting::default(),
        }
    }

    /// Builds the compressed `|0...0>` state.
    pub fn zero_state(n_qubits: u32, chunk_bits: u32, codec: Arc<dyn Codec>) -> Self {
        let chunk_bits = chunk_bits.min(n_qubits);
        let chunk_amps = 1usize << chunk_bits;
        let chunk_count = 1usize << (n_qubits - chunk_bits);
        let store = CompressedTier::new_empty(n_qubits, chunk_bits, codec);
        let mut buf = vec![Complex64::ZERO; chunk_amps];
        buf[0] = Complex64::ONE;
        store.write_slot(0, &buf);
        if chunk_count > 1 {
            // Every other chunk is the same all-zero buffer: encode it once
            // and commit a copy of the payload per slot, with the accounting
            // of a real encode.
            buf[0] = Complex64::ZERO;
            let zero = compress_complex(store.codec.as_ref(), &buf);
            for i in 1..chunk_count {
                store.commit_encoded(i, zero.clone());
            }
        }
        store
    }

    /// Compresses an existing dense state.
    ///
    /// # Panics
    /// Panics if `amps.len()` is not a power of two.
    pub fn from_amplitudes(amps: &[Complex64], chunk_bits: u32, codec: Arc<dyn Codec>) -> Self {
        assert!(bits::is_pow2(amps.len()), "length must be a power of two");
        let n_qubits = bits::floor_log2(amps.len());
        let chunk_bits = chunk_bits.min(n_qubits);
        let chunk_amps = 1usize << chunk_bits;
        let store = CompressedTier::new_empty(n_qubits, chunk_bits, codec);
        for (i, piece) in amps.chunks_exact(chunk_amps).enumerate() {
            store.write_slot(i, piece);
        }
        store
    }

    /// The codec in use.
    pub fn codec(&self) -> &Arc<dyn Codec> {
        &self.codec
    }

    /// Compresses `amps` and commits the result to slot `i`.
    fn write_slot(&self, i: usize, amps: &[Complex64]) {
        self.commit_encoded(i, compress_complex(self.codec.as_ref(), amps));
    }

    /// Commits `bytes` to slot `i` as the output of a host encode.
    fn commit_encoded(&self, i: usize, bytes: Vec<u8>) {
        self.accounting.encoded_on_host(bytes.len());
        self.commit_slot(i, bytes);
    }

    /// Commits already-compressed `bytes` to slot `i`. The signed-delta
    /// byte update happens while still serialized on the slot, so
    /// `peak_bytes` cannot transiently overshoot by the old chunk's length.
    fn commit_slot(&self, i: usize, bytes: Vec<u8>) {
        let new_len = bytes.len();
        let checksum = checksum64(&bytes);
        let meta = self.codec.payload_meta(&bytes);
        self.accounting
            .committed(meta, self.chunk_amps() * size_of::<Complex64>(), new_len);
        let guard = &mut *self.chunks[i].lock();
        let old_len = guard.bytes.len();
        *guard = ChunkSlot { bytes, checksum };
        let cur = if new_len >= old_len {
            let d = new_len - old_len;
            self.current_bytes.fetch_add(d, Ordering::Relaxed) + d
        } else {
            let d = old_len - new_len;
            self.current_bytes.fetch_sub(d, Ordering::Relaxed) - d
        };
        self.peak_bytes.fetch_max(cur, Ordering::Relaxed);
    }
}

impl ChunkStore for CompressedTier {
    fn kind(&self) -> &'static str {
        "compressed"
    }

    fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    fn chunk_bits(&self) -> u32 {
        self.chunk_bits
    }

    /// Decompresses chunk `i` into `out`. The chunk's integrity checksum is
    /// verified first, so silent memory corruption surfaces as a typed error
    /// rather than garbage amplitudes.
    fn load_chunk(&self, i: usize, out: &mut [Complex64]) -> Result<(), CodecError> {
        expect_chunk_len(self.chunk_amps(), out.len())?;
        let guard = self.chunks[i].lock();
        verify_checksum(i, &guard.bytes, guard.checksum)?;
        self.accounting.decoding_on_host(guard.bytes.len());
        decompress_complex(self.codec.as_ref(), &guard.bytes, out)
    }

    fn store_chunk(&self, i: usize, amps: &[Complex64]) -> Result<(), CodecError> {
        expect_chunk_len(self.chunk_amps(), amps.len())?;
        self.write_slot(i, amps);
        Ok(())
    }

    /// Hands out chunk `i`'s compressed bytes verbatim (checksum-verified),
    /// counting a visit but no host decompression — the codec work happens
    /// wherever the payload is shipped.
    fn load_chunk_payload(&self, i: usize) -> Result<Option<Vec<u8>>, CodecError> {
        let guard = self.chunks[i].lock();
        verify_checksum(i, &guard.bytes, guard.checksum)?;
        self.accounting.visited();
        Ok(Some(guard.bytes.clone()))
    }

    /// Accepts an externally produced payload (same codec) as chunk `i`'s
    /// new contents. Byte/peak/stats accounting matches
    /// [`store_chunk`](ChunkStore::store_chunk), but `bytes_compressed`
    /// does not tick — no host compression happened.
    fn store_chunk_payload(&self, i: usize, payload: Vec<u8>) -> Result<bool, CodecError> {
        self.commit_slot(i, payload);
        Ok(true)
    }

    /// Swaps the compressed payloads (and checksums) of chunks `i` and `j`
    /// wholesale — the high↔high remap fast path. No codec round trip, no
    /// visit, and total resident bytes are unchanged.
    fn swap_chunks(&self, i: usize, j: usize) -> Result<bool, CodecError> {
        if i == j {
            return Ok(true);
        }
        // Lock in index order so concurrent swaps cannot deadlock.
        let (lo, hi) = (i.min(j), i.max(j));
        let mut a = self.chunks[lo].lock();
        let mut b = self.chunks[hi].lock();
        std::mem::swap(&mut *a, &mut *b);
        Ok(true)
    }

    fn state_bytes(&self) -> usize {
        self.current_bytes.load(Ordering::Relaxed)
    }

    fn peak_state_bytes(&self) -> usize {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    fn counters(&self) -> StoreCounters {
        self.accounting.counters()
    }

    fn cumulative_stats(&self) -> CompressionStats {
        self.accounting.stats()
    }

    fn set_error_allowance(&self, eb: Option<f64>) {
        self.codec.set_dynamic_bound(eb);
    }

    fn debug_corrupt_chunk(&self, i: usize) {
        let mut guard = self.chunks[i].lock();
        if let Some(b) = guard.bytes.first_mut() {
            *b ^= 0xFF;
        }
    }
}

impl std::fmt::Debug for CompressedTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressedTier")
            .field("n_qubits", &self.n_qubits)
            .field("chunk_bits", &self.chunk_bits)
            .field("codec", &self.codec.name())
            .field("chunks", &self.chunks.len())
            .field("state_bytes", &self.state_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_compress::{CodecSpec, SzCodec, ZeroRleCodec};
    use mq_num::complex::c64;

    fn sz(eb: f64) -> Arc<dyn Codec> {
        Arc::new(SzCodec::new(eb))
    }

    #[test]
    fn zero_state_round_trips() {
        let store = CompressedTier::zero_state(10, 4, sz(1e-12));
        assert_eq!(store.chunk_count(), 64);
        assert_eq!(store.chunk_amps(), 16);
        let dense = store.to_dense().unwrap();
        assert!((dense[0].re - 1.0).abs() <= 1e-12);
        assert!(dense[1..].iter().all(|z| z.norm() <= 2e-12));
        assert!((store.norm().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_state_compresses_massively() {
        let store = CompressedTier::zero_state(16, 10, Arc::new(ZeroRleCodec));
        assert!(
            store.current_ratio() > 100.0,
            "ratio {}",
            store.current_ratio()
        );
        assert!(store.state_bytes() < store.dense_bytes() / 100);
    }

    #[test]
    fn from_amplitudes_round_trips_within_bound() {
        let eb = 1e-8;
        let amps: Vec<Complex64> = (0..1024)
            .map(|i| {
                c64(
                    (i as f64 * 0.01).sin() * 0.03,
                    (i as f64 * 0.02).cos() * 0.03,
                )
            })
            .collect();
        let store = CompressedTier::from_amplitudes(&amps, 6, sz(eb));
        let back = store.to_dense().unwrap();
        for (a, b) in amps.iter().zip(&back) {
            assert!((a.re - b.re).abs() <= eb);
            assert!((a.im - b.im).abs() <= eb);
        }
    }

    #[test]
    fn chunk_update_cycle() {
        let store = CompressedTier::zero_state(6, 3, sz(1e-12));
        let mut buf = vec![Complex64::ZERO; 8];
        store.load_chunk(3, &mut buf).unwrap();
        assert!(buf.iter().all(|z| z.norm() < 1e-11));
        for (k, z) in buf.iter_mut().enumerate() {
            *z = c64(k as f64 * 0.1, 0.0);
        }
        store.store_chunk(3, &buf).unwrap();
        let mut buf2 = vec![Complex64::ZERO; 8];
        store.load_chunk(3, &mut buf2).unwrap();
        for (a, b) in buf.iter().zip(&buf2) {
            assert!((a.re - b.re).abs() <= 1e-11);
        }
    }

    #[test]
    fn chunk_bits_clamped_to_register() {
        let store = CompressedTier::zero_state(3, 10, sz(1e-12));
        assert_eq!(store.chunk_bits(), 3);
        assert_eq!(store.chunk_count(), 1);
    }

    #[test]
    fn probability_reads_single_chunk() {
        let mut amps = vec![Complex64::ZERO; 64];
        amps[37] = Complex64::ONE;
        let store = CompressedTier::from_amplitudes(&amps, 3, sz(1e-12));
        assert!((store.probability(37).unwrap() - 1.0).abs() < 1e-9);
        assert!(store.probability(36).unwrap() < 1e-9);
    }

    #[test]
    fn byte_accounting_tracks_updates() {
        let store = CompressedTier::zero_state(8, 4, sz(1e-12));
        let initial = store.state_bytes();
        assert!(initial > 0);
        // Overwrite a chunk with incompressible noise: bytes must grow.
        let noisy: Vec<Complex64> = (0..16)
            .map(|i| {
                let x = ((i * 2654435761usize) % 1000) as f64 / 1000.0;
                c64(x, 1.0 - x)
            })
            .collect();
        store.store_chunk(0, &noisy).unwrap();
        assert!(store.state_bytes() > initial);
        assert!(store.peak_state_bytes() >= store.state_bytes());
        let stats = store.cumulative_stats();
        assert_eq!(stats.blocks, 16 + 1);
    }

    #[test]
    fn wrong_length_buffers_are_typed_errors() {
        let store = CompressedTier::zero_state(8, 4, sz(1e-12));
        let mut long = vec![Complex64::ZERO; 32];
        assert_eq!(
            store.load_chunk(0, &mut long),
            Err(CodecError::BufferMismatch {
                expected: 16,
                got: 32
            })
        );
        assert_eq!(
            store.store_chunk(0, &long),
            Err(CodecError::BufferMismatch {
                expected: 16,
                got: 32
            })
        );
    }

    #[test]
    fn concurrent_chunk_access_is_safe() {
        let store = Arc::new(CompressedTier::zero_state(10, 5, sz(1e-12)));
        std::thread::scope(|s| {
            for t in 0..4usize {
                let store = store.clone();
                s.spawn(move || {
                    let mut buf = vec![Complex64::ZERO; 32];
                    for round in 0..16 {
                        let i = (t * 16 + round) % store.chunk_count();
                        store.load_chunk(i, &mut buf).unwrap();
                        buf[0] = c64(t as f64, round as f64);
                        store.store_chunk(i, &buf).unwrap();
                    }
                });
            }
        });
        // Still structurally sound.
        assert!(store.to_dense().is_ok());
    }

    #[test]
    fn lossless_codec_gives_exact_round_trip() {
        let spec = CodecSpec::Fpc;
        let amps: Vec<Complex64> = (0..256).map(|i| c64(i as f64, -(i as f64))).collect();
        let store = CompressedTier::from_amplitudes(&amps, 4, spec.build().into());
        let back = store.to_dense().unwrap();
        assert_eq!(amps, back);
    }

    #[test]
    fn renormalize_repairs_drift() {
        let amps: Vec<Complex64> = (0..64).map(|i| c64(0.2 * ((i % 5) as f64), 0.1)).collect();
        let store = CompressedTier::from_amplitudes(&amps, 3, sz(1e-12));
        let before = store.norm().unwrap();
        assert!(
            (before - 1.0).abs() > 0.1,
            "test state must be denormalized"
        );
        let reported = store.renormalize(1e-12).unwrap();
        assert!((reported - before).abs() < 1e-9);
        let after = store.norm().unwrap();
        assert!((after - 1.0).abs() < 1e-9, "norm after repair: {after}");
        // Within tolerance: no-op.
        let again = store.renormalize(1e-6).unwrap();
        assert!((again - 1.0).abs() < 1e-9);
    }

    #[test]
    fn payload_passthrough_round_trips() {
        let codec: Arc<dyn Codec> = Arc::from(CodecSpec::Fpc.build());
        let amps: Vec<Complex64> = (0..64).map(|i| c64(i as f64 * 0.5, -(i as f64))).collect();
        let store = CompressedTier::from_amplitudes(&amps, 3, codec.clone());
        let visits_before = store.counters().chunk_visits;
        let compressed_before = store.counters().bytes_compressed;

        // Loading a payload hands out exactly the codec bytes, counts a
        // visit, and charges no host decompression.
        let payload = store.load_chunk_payload(2).unwrap().unwrap();
        assert_eq!(payload, compress_complex(codec.as_ref(), &amps[16..24]));
        assert_eq!(store.counters().chunk_visits, visits_before + 1);
        assert_eq!(store.counters().bytes_decompressed, 0);

        // Storing an externally compressed payload commits it verbatim and
        // leaves bytes_compressed untouched (the codec ran elsewhere).
        let replacement: Vec<Complex64> = (0..8).map(|k| c64(0.25, k as f64)).collect();
        let new_payload = compress_complex(codec.as_ref(), &replacement);
        assert!(store.store_chunk_payload(5, new_payload).unwrap());
        assert_eq!(store.counters().bytes_compressed, compressed_before);
        let mut back = vec![Complex64::ZERO; 8];
        store.load_chunk(5, &mut back).unwrap();
        assert_eq!(back, replacement);
        assert!(store.state_bytes() > 0);
    }

    #[test]
    fn payload_load_checks_integrity() {
        let store = CompressedTier::zero_state(8, 4, sz(1e-12));
        store.debug_corrupt_chunk(1);
        assert!(matches!(
            store.load_chunk_payload(1),
            Err(CodecError::Corrupt(_))
        ));
        assert!(store.load_chunk_payload(0).unwrap().is_some());
    }

    #[test]
    fn swap_chunks_moves_payloads_without_codec_work() {
        let amps: Vec<Complex64> = (0..64).map(|i| c64(i as f64 * 0.5, -(i as f64))).collect();
        let store = CompressedTier::from_amplitudes(&amps, 3, sz(1e-12));
        let before = store.counters();
        let bytes_before = store.state_bytes();
        assert!(store.swap_chunks(1, 6).unwrap());
        assert!(store.swap_chunks(4, 4).unwrap(), "self-swap is a no-op");
        // No visits, no codec bytes, no resident-byte change.
        assert_eq!(store.counters(), before);
        assert_eq!(store.state_bytes(), bytes_before);
        // Contents exchanged exactly (checksums moved with the bytes).
        let mut buf = vec![Complex64::ZERO; 8];
        store.load_chunk(1, &mut buf).unwrap();
        for (a, b) in buf.iter().zip(&amps[48..56]) {
            assert!((a.re - b.re).abs() <= 1e-11);
        }
        store.load_chunk(6, &mut buf).unwrap();
        for (a, b) in buf.iter().zip(&amps[8..16]) {
            assert!((a.re - b.re).abs() <= 1e-11);
        }
    }

    #[test]
    fn adaptive_codec_picks_are_counted_from_payload_headers() {
        // Sparse chunks under the adaptive codec: every encode picks
        // zero-RLE, and with no error allowance nothing is lossy.
        let codec: Arc<dyn Codec> = Arc::from(CodecSpec::Auto { eb: None }.build());
        let store = CompressedTier::zero_state(8, 4, codec);
        let c = store.counters();
        assert_eq!(c.codec_picks_zero_rle, store.chunk_count() as u64);
        assert_eq!(c.codec_picks_fpc, 0);
        assert_eq!(c.lossy_encodes, 0);

        // With an allowance and adaptive precision, sparse chunks carrying
        // literal amplitudes demote to f32 pairs (halved literal bytes):
        // the pick is still zero-RLE, but mixed precision and lossy-encode
        // tick. (All-zero chunks tie at either width and stay f64.)
        let lossy: Arc<dyn Codec> = Arc::from(
            CodecSpec::Auto { eb: Some(1e-6) }
                .build_with_precision(mq_compress::Precision::Adaptive),
        );
        // Two adjacent nonzero amplitudes per 32-amp chunk: the chunk stays
        // sparse (60/64 zero f64s) and each plane carries an adjacent
        // literal pair that an f32 word stores in half the bytes.
        let mut amps = vec![Complex64::ZERO; 512];
        for i in 0..16 {
            amps[i * 32] = c64(0.5, -0.25);
            amps[i * 32 + 1] = c64(0.25, 0.125);
        }
        let store = CompressedTier::from_amplitudes(&amps, 5, lossy);
        let c = store.counters();
        assert_eq!(c.codec_picks_zero_rle, store.chunk_count() as u64);
        assert_eq!(c.mixed_precision_chunks, store.chunk_count() as u64);
        assert_eq!(c.lossy_encodes, store.chunk_count() as u64);

        // Static codecs report no payload metadata: all pick counters stay 0.
        let store = CompressedTier::zero_state(8, 4, Arc::new(ZeroRleCodec));
        let c = store.counters();
        assert_eq!(c.codec_picks_zero_rle, 0);
        assert_eq!(c.mixed_precision_chunks, 0);
    }

    #[test]
    fn corruption_is_detected_by_checksum() {
        let store = CompressedTier::zero_state(8, 4, sz(1e-12));
        store.debug_corrupt_chunk(3);
        let mut buf = vec![Complex64::ZERO; 16];
        assert!(matches!(
            store.load_chunk(3, &mut buf),
            Err(CodecError::Corrupt(_))
        ));
        store.load_chunk(0, &mut buf).unwrap();
    }
}
