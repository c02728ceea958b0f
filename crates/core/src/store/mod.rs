//! The chunked state-vector storage stack — MEMQSIM's resident
//! representation, decomposed into layers behind the [`ChunkStore`] trait.
//!
//! The `2^n`-amplitude state lives as `2^(n-c)` independently stored chunks
//! of `2^c` amplitudes (paper Fig. 2, "offline stage"). *How* a chunk is
//! held is a pluggable tier:
//!
//! * [`CompressedTier`] — codec-compressed chunks with integrity checksums,
//!   the paper's headline representation (and the default).
//! * [`DenseStore`] — uncompressed chunks; the no-codec baseline for widths
//!   where codec overhead dominates.
//! * [`SpillStore`] — compressed chunks bounded by a resident-byte budget;
//!   overflow spills to temp files on disk, the paper's beyond-RAM
//!   "+5 qubits" direction.
//!
//! One middleware tier wraps the base tier: [`TelemetryTier`] owns counter
//! emission. It diffs the inner tier's plain atomic totals into an attached
//! [`Telemetry`] handle after every operation, so base tiers never name a
//! telemetry type.
//!
//! [`build_store`] assembles the stack from a [`MemQSimConfig`]:
//! `TelemetryTier( base tier )`.
//!
//! [`Telemetry`]: mq_telemetry::Telemetry

mod accounting;
pub mod compressed;
pub mod dense;
pub mod spill;
pub mod telemetry_tier;

pub use compressed::CompressedTier;
pub use dense::DenseStore;
pub use spill::SpillStore;
pub use telemetry_tier::TelemetryTier;

use crate::config::{MemQSimConfig, StoreKind};
use mq_compress::{CodecError, CompressionStats};
use mq_num::{bits, Complex64};
use mq_telemetry::Telemetry;
use std::sync::Arc;

/// Independent lanes of [`checksum64`]. Four multiply chains read a payload
/// that misses cache at 13–14 GB/s; eight gain 3 µs on a 243 KB payload, under
/// 1 % of the run that has the most of them (EXPERIMENTS.md A8).
const CHECKSUM_LANES: usize = 4;

/// Odd multipliers, one per lane; the first also drives the final fold.
const CHECKSUM_MUL: [u64; CHECKSUM_LANES] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0xff51_afd7_ed55_8ccd,
];

/// The chunk integrity checksum every codec tier stores at commit and
/// verifies before each decode or payload hand-out.
///
/// The payload is read as little-endian `u64` words (so the value does not
/// depend on the platform or on where the slice sits in memory), word `k`
/// going to lane `k mod 4`: `lane = rotl((lane ^ word) · odd, 29)`. The
/// chains are independent, so the loop runs one word per multiply
/// *throughput* slot, where a single chain over bytes runs one byte per
/// multiply *latency*. The last `len mod 8` bytes are zero-padded into one
/// more word, and the lanes are folded, starting from the length, by the
/// same step.
///
/// Every step is a bijection of the lane for a fixed word and of the word
/// for a fixed lane (xor, multiply by an odd constant and rotate are all
/// invertible mod 2^64). So two payloads of equal length that differ only
/// inside one 8-byte word (offsets `8k..8k+8` from the slice start) or
/// only inside the sub-word tail *always* hash differently, as do two
/// whose words and padded tail agree but whose lengths differ — every bit
/// flip and byte overwrite, not all but 2⁻⁶⁴ of them. Wider damage is
/// caught with the usual 1 − 2⁻⁶⁴. Not keyed: it detects faults, not
/// adversaries.
pub(crate) fn checksum64(bytes: &[u8]) -> u64 {
    /// One step of up to `CHECKSUM_LANES` lanes: word `k` into lane `k`.
    fn absorb<'a>(lanes: &mut [u64; CHECKSUM_LANES], words: impl Iterator<Item = &'a [u8]>) {
        for ((lane, word), mul) in lanes.iter_mut().zip(words).zip(CHECKSUM_MUL) {
            let word = u64::from_le_bytes(word.try_into().expect("an 8-byte word"));
            *lane = (*lane ^ word).wrapping_mul(mul).rotate_left(29);
        }
    }
    let mut lanes = CHECKSUM_MUL;
    let mut blocks = bytes.chunks_exact(8 * CHECKSUM_LANES);
    for block in &mut blocks {
        absorb(&mut lanes, block.chunks_exact(8));
    }
    // Under one block is left: up to three whole words, then the tail,
    // zero-padded, in the lane after them.
    let words = blocks.remainder().chunks_exact(8);
    let mut tail = [0u8; 8];
    let rest = words.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    absorb(&mut lanes, words.chain([&tail[..]]));
    let folded = lanes.iter().fold(bytes.len() as u64, |h, lane| {
        (h ^ lane).wrapping_mul(CHECKSUM_MUL[0]).rotate_left(29)
    });
    folded ^ (folded >> 32)
}

/// Verify-on-load: chunk `i`'s stored `bytes` must still hash to the
/// `checksum` taken when they were committed.
pub(crate) fn verify_checksum(i: usize, bytes: &[u8], checksum: u64) -> Result<(), CodecError> {
    if checksum64(bytes) == checksum {
        Ok(())
    } else {
        Err(CodecError::Corrupt(format!(
            "chunk {i} failed its integrity checksum"
        )))
    }
}

/// Typed precondition: a chunk buffer must match the store's chunk size.
pub(crate) fn expect_chunk_len(expected: usize, got: usize) -> Result<(), CodecError> {
    if expected == got {
        Ok(())
    } else {
        Err(CodecError::BufferMismatch { expected, got })
    }
}

/// Monotonic operation totals a store tier accumulates over its lifetime.
///
/// Base tiers keep these as plain atomics; the [`TelemetryTier`] diffs them
/// into a run's [`Telemetry`] record.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreCounters {
    /// Chunk load/store round trips observed at this tier.
    pub chunk_visits: u64,
    /// Compressed payload bytes expanded by codec decompression.
    pub bytes_decompressed: u64,
    /// Compressed payload bytes produced by codec compression.
    pub bytes_compressed: u64,
    /// Always 0: no tier caches decompressed chunks. Kept, with
    /// `cache_misses`, only because the benchmark harness reads both.
    pub cache_hits: u64,
    /// Always 0; see `cache_hits`.
    pub cache_misses: u64,
    /// Compressed chunk bytes spilled to disk.
    pub spill_bytes_written: u64,
    /// Compressed chunk bytes read back from disk.
    pub spill_bytes_read: u64,
    /// Chunk encodes where the adaptive codec picked zero-RLE.
    pub codec_picks_zero_rle: u64,
    /// Chunk encodes where the adaptive codec picked FPC.
    pub codec_picks_fpc: u64,
    /// Chunk encodes where the adaptive codec picked shuffle+LZSS.
    pub codec_picks_shuffle_lzss: u64,
    /// Chunk encodes where the adaptive codec picked SZ.
    pub codec_picks_sz: u64,
    /// Chunk encodes stored as packed f32 pairs (mixed precision).
    pub mixed_precision_chunks: u64,
    /// Chunk encodes that went through a lossy path (SZ pick or f32
    /// demotion) — the signal the engine diffs per stage to attribute
    /// error-budget spend.
    pub lossy_encodes: u64,
}

/// A chunked state-vector storage tier.
///
/// Object-safe so engines, backends and benches hold `Arc<dyn ChunkStore>`
/// and never name a concrete representation. Implementations are
/// `Send + Sync`: pipeline threads and "idle core" workers stream different
/// chunks concurrently.
pub trait ChunkStore: Send + Sync {
    /// Short display name of this tier stack (`"compressed"`, `"dense"`,
    /// `"spill"`; middleware reports the inner store's kind).
    fn kind(&self) -> &'static str;

    /// Register width.
    fn n_qubits(&self) -> u32;

    /// Chunk size exponent (`2^chunk_bits` amplitudes per chunk).
    fn chunk_bits(&self) -> u32;

    /// Reads chunk `i` into `out` (`out.len()` must equal
    /// [`chunk_amps`](ChunkStore::chunk_amps), checked as a typed
    /// [`CodecError::BufferMismatch`]).
    fn load_chunk(&self, i: usize, out: &mut [Complex64]) -> Result<(), CodecError>;

    /// Stores `amps` as the new contents of chunk `i` (same length
    /// precondition as [`load_chunk`](ChunkStore::load_chunk)).
    fn store_chunk(&self, i: usize, amps: &[Complex64]) -> Result<(), CodecError>;

    /// Reads chunk `i`'s *compressed payload* without decoding it, for
    /// transfer modes that ship payloads to a device-side codec. Counts as
    /// a chunk visit like [`load_chunk`](ChunkStore::load_chunk), but no
    /// host decompression happens (and none is charged).
    ///
    /// `Ok(None)` means this tier stack cannot hand out a payload (no codec
    /// underneath). Callers must then fall back to
    /// [`load_chunk`](ChunkStore::load_chunk).
    fn load_chunk_payload(&self, i: usize) -> Result<Option<Vec<u8>>, CodecError> {
        let _ = i;
        Ok(None)
    }

    /// Stores a compressed `payload` — produced by *this store's codec*
    /// over exactly [`chunk_amps`](ChunkStore::chunk_amps) amplitudes — as
    /// the new contents of chunk `i`, with no host codec round trip.
    ///
    /// Returns `Ok(false)` if the tier cannot accept payloads; callers must
    /// then decode on the host and [`store_chunk`](ChunkStore::store_chunk)
    /// instead.
    fn store_chunk_payload(&self, i: usize, payload: Vec<u8>) -> Result<bool, CodecError> {
        let _ = (i, payload);
        Ok(false)
    }

    /// Exchanges the stored contents of chunks `i` and `j` at the payload
    /// level — the fast path for high↔high layout remaps, where two chunks
    /// swap wholesale with no intra-chunk movement. Codec tiers swap the
    /// compressed bytes (and checksums) directly: **no decode, no visit**.
    ///
    /// Returns `Ok(false)` if this tier cannot exchange payloads; callers
    /// must then fall back to load/store through the normal path (which
    /// counts visits as usual). Implementations must leave counters
    /// untouched on the fast path: a payload exchange is not a visit.
    fn swap_chunks(&self, i: usize, j: usize) -> Result<bool, CodecError> {
        let _ = (i, j);
        Ok(false)
    }

    /// Current bytes the stored state occupies in CPU memory (compressed
    /// for codec tiers, raw for [`DenseStore`], in-memory portion only for
    /// [`SpillStore`]).
    fn state_bytes(&self) -> usize;

    /// Peak of [`state_bytes`](ChunkStore::state_bytes) observed so far:
    /// the number to hold against a memory budget.
    fn peak_state_bytes(&self) -> usize;

    /// Monotonic operation totals for this tier stack.
    fn counters(&self) -> StoreCounters;

    /// Cumulative compress-call statistics (zero for tiers with no codec).
    fn cumulative_stats(&self) -> CompressionStats;

    // --- kept for the benchmark harness, which implements or reads them;
    // no tier overrides them ------------------------------------------------

    /// No tier defers work, so there is nothing to flush.
    fn flush(&self) -> Result<(), CodecError> {
        Ok(())
    }

    /// Always [`peak_state_bytes`](ChunkStore::peak_state_bytes): every
    /// byte a store holds in CPU memory is state.
    fn peak_resident_bytes(&self) -> usize {
        self.peak_state_bytes()
    }

    /// Always empty: no tier holds chunks decompressed.
    fn resident_chunks(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Attaches a per-run telemetry handle. Only the [`TelemetryTier`]
    /// reacts; inner tiers stay telemetry-free.
    fn attach_telemetry(&self, telemetry: Telemetry) {
        let _ = telemetry;
    }

    /// Detaches the telemetry handle, if any.
    fn detach_telemetry(&self) {}

    /// Sets (or clears, with `None`) the error allowance lossy codec work
    /// below this tier may spend per amplitude — the engine calls this at
    /// stage boundaries when a run-level fidelity budget is active. Tiers
    /// with a dynamically-boundable codec (see
    /// [`Codec::set_dynamic_bound`](mq_compress::Codec::set_dynamic_bound))
    /// forward to it; everything else ignores the call.
    fn set_error_allowance(&self, eb: Option<f64>) {
        let _ = eb;
    }

    /// Fault-injection hook: corrupt chunk `i`'s stored bytes so integrity
    /// checks can be tested. No-op on tiers without checksums.
    #[doc(hidden)]
    fn debug_corrupt_chunk(&self, i: usize) {
        let _ = i;
    }

    // --- provided helpers (geometry + whole-state reads) -----------------

    /// Amplitudes per chunk.
    fn chunk_amps(&self) -> usize {
        1usize << self.chunk_bits()
    }

    /// Number of chunks.
    fn chunk_count(&self) -> usize {
        1usize << (self.n_qubits() - self.chunk_bits())
    }

    /// Bytes a dense representation would need.
    fn dense_bytes(&self) -> usize {
        (1usize << self.n_qubits()) * size_of::<Complex64>()
    }

    /// Current overall compression ratio (dense / resident state bytes).
    fn current_ratio(&self) -> f64 {
        let c = self.state_bytes();
        if c == 0 {
            return 1.0;
        }
        self.dense_bytes() as f64 / c as f64
    }

    /// Decompresses the whole state (exponential memory — small registers
    /// and verification only).
    fn to_dense(&self) -> Result<Vec<Complex64>, CodecError> {
        let mut out = vec![Complex64::ZERO; 1usize << self.n_qubits()];
        for (i, slot) in out.chunks_exact_mut(self.chunk_amps()).enumerate() {
            self.load_chunk(i, slot)?;
        }
        Ok(out)
    }

    /// L2 norm, computed streaming one chunk at a time.
    fn norm(&self) -> Result<f64, CodecError> {
        let mut buf = vec![Complex64::ZERO; self.chunk_amps()];
        let mut acc = 0.0f64;
        for i in 0..self.chunk_count() {
            self.load_chunk(i, &mut buf)?;
            acc += buf.iter().map(|z| z.norm_sqr()).sum::<f64>();
        }
        Ok(acc.sqrt())
    }

    /// Rescales the state to unit norm, streaming chunk by chunk (two
    /// passes). Long lossy runs accumulate slight denormalization; calling
    /// this periodically (or before sampling) repairs it at the cost of one
    /// decompress/recompress round. No-op within `tol` of 1.
    fn renormalize(&self, tol: f64) -> Result<f64, CodecError> {
        let norm = self.norm()?;
        if norm <= 0.0 || (norm - 1.0).abs() <= tol {
            return Ok(norm);
        }
        let inv = 1.0 / norm;
        let mut buf = vec![Complex64::ZERO; self.chunk_amps()];
        for i in 0..self.chunk_count() {
            self.load_chunk(i, &mut buf)?;
            for z in buf.iter_mut() {
                *z = *z * inv;
            }
            self.store_chunk(i, &buf)?;
        }
        Ok(norm)
    }

    /// Born probability of one basis state (reads one chunk).
    fn probability(&self, basis: usize) -> Result<f64, CodecError> {
        assert!(
            basis < 1usize << self.n_qubits(),
            "basis state out of range"
        );
        let (chunk, off) = bits::split_index(basis, self.chunk_bits());
        let mut buf = vec![Complex64::ZERO; self.chunk_amps()];
        self.load_chunk(chunk, &mut buf)?;
        Ok(buf[off].norm_sqr())
    }
}

/// `Arc<S>` is a store wherever `S` is, so engine entry points taking
/// `&dyn ChunkStore` accept `&Arc<dyn ChunkStore>` (what [`build_store`]
/// returns) directly.
impl<S: ChunkStore + ?Sized> ChunkStore for Arc<S> {
    fn kind(&self) -> &'static str {
        (**self).kind()
    }

    fn n_qubits(&self) -> u32 {
        (**self).n_qubits()
    }

    fn chunk_bits(&self) -> u32 {
        (**self).chunk_bits()
    }

    fn load_chunk(&self, i: usize, out: &mut [Complex64]) -> Result<(), CodecError> {
        (**self).load_chunk(i, out)
    }

    fn store_chunk(&self, i: usize, amps: &[Complex64]) -> Result<(), CodecError> {
        (**self).store_chunk(i, amps)
    }

    fn load_chunk_payload(&self, i: usize) -> Result<Option<Vec<u8>>, CodecError> {
        (**self).load_chunk_payload(i)
    }

    fn store_chunk_payload(&self, i: usize, payload: Vec<u8>) -> Result<bool, CodecError> {
        (**self).store_chunk_payload(i, payload)
    }

    fn swap_chunks(&self, i: usize, j: usize) -> Result<bool, CodecError> {
        (**self).swap_chunks(i, j)
    }

    fn state_bytes(&self) -> usize {
        (**self).state_bytes()
    }

    fn peak_state_bytes(&self) -> usize {
        (**self).peak_state_bytes()
    }

    fn counters(&self) -> StoreCounters {
        (**self).counters()
    }

    fn cumulative_stats(&self) -> CompressionStats {
        (**self).cumulative_stats()
    }

    fn attach_telemetry(&self, telemetry: Telemetry) {
        (**self).attach_telemetry(telemetry)
    }

    fn detach_telemetry(&self) {
        (**self).detach_telemetry()
    }

    fn set_error_allowance(&self, eb: Option<f64>) {
        (**self).set_error_allowance(eb)
    }

    fn debug_corrupt_chunk(&self, i: usize) {
        (**self).debug_corrupt_chunk(i)
    }
}

/// Builds the configured storage stack holding the `|0...0>` state: the
/// base tier per [`StoreKind`], wrapped in a [`TelemetryTier`] so engines
/// can attach per-run counters.
///
/// Errors only for tiers that touch the filesystem ([`SpillStore`]).
pub fn build_store(n_qubits: u32, cfg: &MemQSimConfig) -> Result<Arc<dyn ChunkStore>, CodecError> {
    let chunk_bits = cfg.effective_chunk_bits(n_qubits);
    let codec: Arc<dyn mq_compress::Codec> =
        Arc::from(cfg.codec.build_with_precision(cfg.precision));
    let base: Arc<dyn ChunkStore> = match cfg.store_kind {
        StoreKind::Compressed => Arc::new(CompressedTier::zero_state(n_qubits, chunk_bits, codec)),
        StoreKind::Dense => Arc::new(DenseStore::zero_state(n_qubits, chunk_bits)),
        StoreKind::Spill { resident_budget } => Arc::new(SpillStore::zero_state(
            n_qubits,
            chunk_bits,
            codec,
            resident_budget,
        )?),
    };
    Ok(Arc::new(TelemetryTier::new(base)))
}

/// Like [`build_store`], but compressing an existing dense state.
///
/// A length that is not a power of two is a
/// [`CodecError::BufferMismatch`] naming the next power of two (1 for an
/// empty slice).
pub fn build_store_from_amplitudes(
    amps: &[Complex64],
    cfg: &MemQSimConfig,
) -> Result<Arc<dyn ChunkStore>, CodecError> {
    if !bits::is_pow2(amps.len()) {
        return Err(CodecError::BufferMismatch {
            expected: amps.len().next_power_of_two(),
            got: amps.len(),
        });
    }
    let n_qubits = bits::floor_log2(amps.len());
    let chunk_bits = cfg.effective_chunk_bits(n_qubits);
    let codec: Arc<dyn mq_compress::Codec> =
        Arc::from(cfg.codec.build_with_precision(cfg.precision));
    let base: Arc<dyn ChunkStore> = match cfg.store_kind {
        StoreKind::Compressed => Arc::new(CompressedTier::from_amplitudes(amps, chunk_bits, codec)),
        StoreKind::Dense => Arc::new(DenseStore::from_amplitudes(amps, chunk_bits)),
        StoreKind::Spill { resident_budget } => Arc::new(SpillStore::from_amplitudes(
            amps,
            chunk_bits,
            codec,
            resident_budget,
        )?),
    };
    Ok(Arc::new(TelemetryTier::new(base)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_compress::CodecSpec;

    fn cfg(kind: StoreKind) -> MemQSimConfig {
        MemQSimConfig {
            chunk_bits: 4,
            store_kind: kind,
            ..Default::default()
        }
    }

    /// Deterministic filler with no zero-heavy structure.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x2545_f491_4f6c_dd1du64 ^ len as u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// Every single-bit flip at each of `positions` and every overwrite of
    /// that byte (all 255 other values, or three when `!every_value`), and
    /// every change of length by 1..=9 bytes, must move the checksum.
    fn assert_damage_is_seen(
        payload: &[u8],
        positions: impl Iterator<Item = usize>,
        every_value: bool,
    ) {
        let len = payload.len();
        let clean = checksum64(payload);
        let mut buf = payload.to_vec();
        for pos in positions {
            let byte = buf[pos];
            let flips = (0..8).map(|bit| byte ^ (1 << bit));
            let overwrites: Vec<u8> = if every_value {
                (0..=255).collect()
            } else {
                flips.chain([0x00, 0xFF, byte.wrapping_add(1)]).collect()
            };
            for other in overwrites.into_iter().filter(|&b| b != byte) {
                buf[pos] = other;
                assert_ne!(
                    checksum64(&buf),
                    clean,
                    "len {len} byte {pos} -> {other:#x}"
                );
            }
            buf[pos] = byte;
        }
        for cut in 1..=len.min(9) {
            assert_ne!(
                checksum64(&buf[..len - cut]),
                clean,
                "len {len} cut by {cut}"
            );
        }
        for _ in 1..=9 {
            buf.push(0);
            assert_ne!(checksum64(&buf), clean, "len {len} grown to {}", buf.len());
        }
    }

    #[test]
    fn checksum_sees_every_single_byte_change_and_length_change() {
        for len in 0..=100 {
            assert_damage_is_seen(&noise(len), 0..len, true);
        }
        // All-zero and all-ones payloads are as well guarded as noisy ones.
        for fill in [0u8, 0xFF] {
            assert_damage_is_seen(&[fill; 77], 0..77, true);
        }
        // A payload-sized input through the block loop. One hash per
        // (position, value) over all of it is 10^12 byte reads, so this
        // takes both ends in full (every lane, the trailing whole words, the
        // 5-byte tail) and between them a stride coprime to the 32-byte
        // block, which lands on every lane and byte offset; at each
        // position the 8 bit flips and three overwrites.
        let len = (64 << 10) + 5;
        let ends = 40;
        let sampled = (0..ends)
            .chain((ends..len - ends).step_by(4093))
            .chain(len - ends..len);
        assert_damage_is_seen(&noise(len), sampled, false);
    }

    #[test]
    fn checksum_reads_content_not_address() {
        // Word reads are relative to the slice start: the same bytes at
        // every alignment within one buffer hash the same.
        for len in [0, 1, 7, 8, 9, 31, 32, 33, 64, 100] {
            let content = noise(len);
            let expect = checksum64(&content);
            let mut buf = vec![0xA5u8; len + 16];
            for off in 0..16 {
                buf.fill(0xA5);
                buf[off..off + len].copy_from_slice(&content);
                assert_eq!(
                    checksum64(&buf[off..off + len]),
                    expect,
                    "len {len} at +{off}"
                );
            }
        }
    }

    #[test]
    fn checksum_values_are_pinned() {
        // Little-endian word reads: these hold on every platform. A change
        // here is a change of what stored checksums mean.
        let ramp: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(checksum64(b""), 0xab62_dcd0_6813_a223);
        assert_eq!(checksum64(b"MEMQSim"), 0xdeb9_83d3_b95f_e902);
        assert_eq!(checksum64(&ramp), 0xf8ea_d83e_f0ff_73e7);
    }

    #[test]
    fn verify_checksum_is_a_typed_corrupt_error() {
        let bytes = noise(40);
        assert_eq!(verify_checksum(3, &bytes, checksum64(&bytes)), Ok(()));
        match verify_checksum(3, &bytes, !checksum64(&bytes)) {
            Err(CodecError::Corrupt(msg)) => {
                assert!(msg.contains("chunk 3") && msg.contains("checksum"), "{msg}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn factory_builds_every_kind_as_zero_state() {
        for kind in [
            StoreKind::Compressed,
            StoreKind::Dense,
            StoreKind::Spill {
                resident_budget: 1 << 16,
            },
        ] {
            let store = build_store(8, &cfg(kind)).unwrap();
            assert_eq!(store.n_qubits(), 8);
            assert_eq!(store.chunk_bits(), 4);
            assert_eq!(store.chunk_count(), 16);
            let dense = store.to_dense().unwrap();
            assert!((dense[0].re - 1.0).abs() < 1e-9, "{kind:?}");
            assert!(dense[1..].iter().all(|z| z.norm() < 1e-9), "{kind:?}");
            assert_eq!(store.peak_resident_bytes(), store.peak_state_bytes());
        }
    }

    #[test]
    fn zero_state_accounts_like_encoding_every_chunk() {
        // `zero_state` encodes the all-zero chunk once and commits copies;
        // every total must read as if each chunk had been encoded, which is
        // what `from_amplitudes` of the same state does.
        let mut basis0 = vec![Complex64::ZERO; 1 << 8];
        basis0[0] = Complex64::ONE;
        for kind in [
            StoreKind::Compressed,
            StoreKind::Spill {
                resident_budget: 1 << 16,
            },
            StoreKind::Spill {
                resident_budget: 100, // a few payloads: the rest spill
            },
        ] {
            for codec in [CodecSpec::Sz { eb: 1e-10 }, CodecSpec::Auto { eb: None }] {
                let mut c = cfg(kind);
                c.codec = codec;
                let zero = build_store(8, &c).unwrap();
                let encoded = build_store_from_amplitudes(&basis0, &c).unwrap();
                let what = format!("{kind:?} {codec:?}");
                assert_eq!(zero.counters(), encoded.counters(), "{what}");
                assert!(zero.counters().bytes_compressed > 0, "{what}");
                assert_eq!(
                    zero.cumulative_stats(),
                    encoded.cumulative_stats(),
                    "{what}"
                );
                assert_eq!(zero.cumulative_stats().blocks, 16, "{what}");
                assert_eq!(zero.state_bytes(), encoded.state_bytes(), "{what}");
                assert_eq!(
                    zero.peak_state_bytes(),
                    encoded.peak_state_bytes(),
                    "{what}"
                );
                assert_eq!(zero.to_dense().unwrap(), encoded.to_dense().unwrap());
            }
        }
    }

    #[test]
    fn buffer_mismatch_is_typed_on_every_kind() {
        for kind in [
            StoreKind::Compressed,
            StoreKind::Dense,
            StoreKind::Spill {
                resident_budget: 1 << 16,
            },
        ] {
            let store = build_store(8, &cfg(kind)).unwrap();
            let mut short = vec![Complex64::ZERO; 3];
            assert!(matches!(
                store.load_chunk(0, &mut short),
                Err(CodecError::BufferMismatch {
                    expected: 16,
                    got: 3
                })
            ));
            assert!(matches!(
                store.store_chunk(0, &short),
                Err(CodecError::BufferMismatch {
                    expected: 16,
                    got: 3
                })
            ));
        }
    }

    #[test]
    fn from_amplitudes_round_trips_on_every_kind() {
        let amps: Vec<Complex64> = (0..64)
            .map(|i| mq_num::complex::c64((i as f64 * 0.03).sin() * 0.1, 0.01))
            .collect();
        let mut c = cfg(StoreKind::Compressed);
        c.codec = CodecSpec::Fpc;
        for kind in [
            StoreKind::Compressed,
            StoreKind::Dense,
            StoreKind::Spill {
                resident_budget: 256,
            },
        ] {
            c.store_kind = kind;
            let store = build_store_from_amplitudes(&amps, &c).unwrap();
            assert_eq!(store.to_dense().unwrap(), amps, "{kind:?}");
            assert_eq!(store.peak_resident_bytes(), store.peak_state_bytes());
        }
    }

    #[test]
    fn from_amplitudes_refuses_a_length_that_is_not_a_power_of_two() {
        let c = cfg(StoreKind::Compressed);
        for (got, expected) in [(0, 1), (3, 4), (5, 8)] {
            let amps = vec![Complex64::ZERO; got];
            assert_eq!(
                build_store_from_amplitudes(&amps, &c).err(),
                Some(CodecError::BufferMismatch { expected, got })
            );
        }
    }
}
