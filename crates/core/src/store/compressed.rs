//! The codec + checksum base tier: chunks held as compressed payloads,
//! each guarded by a `checksum64` taken at commit and verified before
//! every decode and every payload hand-out. Under a resident-byte budget a
//! payload lives in memory or in a spill file on disk.

use super::{
    checksum64, expect_chunk_len, register_width, verify_checksum, ChunkStore, StoreCounters,
};
use mq_compress::{
    compress_complex, decompress_complex, Codec, CodecError, CompressionStats, PayloadMeta,
};
use mq_num::Complex64;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Process-wide sequence so concurrent stores in one process get distinct
/// spill directories.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// The codecs an adaptive payload header can name, in the order of the
/// `codec_picks_*` fields of [`StoreCounters`].
const PICKS: [&str; 4] = ["zero-rle", "fpc", "shuffle-lzss", "sz"];

/// One chunk: its checksummed payload, in memory or in its spill file.
#[derive(Debug, Default)]
struct ChunkSlot {
    /// The payload while it is in memory; empty while it is spilled.
    bytes: Vec<u8>,
    /// The payload's length while it lives in the spill file.
    spilled: Option<usize>,
    checksum: u64,
}

/// Lifetime totals of every commit and every load, wherever the payload
/// lives — so the fidelity ledger, which diffs `lossy_encodes` per stage,
/// reads the same with or without a budget. Plain atomics: booking takes
/// no lock.
#[derive(Debug, Default)]
struct Totals {
    visits: AtomicU64,
    bytes_decompressed: AtomicU64,
    bytes_compressed: AtomicU64,
    commits: AtomicU64,
    committed_bytes: AtomicU64,
    picks: [AtomicU64; PICKS.len()],
    mixed_precision_chunks: AtomicU64,
    lossy_encodes: AtomicU64,
}

/// A budgeted tier's resident-byte budget and spill files: one file per
/// spilled chunk in a directory of its own (`$TMPDIR/mq-spill-<pid>-<seq>`),
/// removed on drop.
struct Spill {
    budget: usize,
    dir: PathBuf,
    /// Taken before any slot lock by every commit and swap of a budgeted
    /// tier: making room moves other slots' payloads to disk, so admissions
    /// run one at a time and the resident total never passes the budget,
    /// even transiently.
    admission: Mutex<()>,
    written: AtomicU64,
    read: AtomicU64,
}

impl Spill {
    fn new(budget: usize) -> Result<Spill, CodecError> {
        let dir = std::env::temp_dir().join(format!(
            "mq-spill-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| CodecError::Io(format!("creating spill dir {}: {e}", dir.display())))?;
        Ok(Spill {
            budget,
            dir,
            admission: Mutex::new(()),
            written: AtomicU64::new(0),
            read: AtomicU64::new(0),
        })
    }

    fn path(&self, i: usize) -> PathBuf {
        self.dir.join(format!("chunk-{i}.bin"))
    }

    /// Moves `slot`'s in-memory payload into chunk `i`'s spill file.
    fn move_out(&self, i: usize, slot: &mut ChunkSlot) -> Result<(), CodecError> {
        std::fs::write(self.path(i), &slot.bytes)
            .map_err(|e| CodecError::Io(format!("writing spill file for chunk {i}: {e}")))?;
        let len = std::mem::take(&mut slot.bytes).len();
        self.written.fetch_add(len as u64, Ordering::Relaxed);
        slot.spilled = Some(len);
        Ok(())
    }

    /// Reads chunk `i`'s spill file back; a file of any length but `len`
    /// is corrupt.
    fn read(&self, i: usize, len: usize) -> Result<Vec<u8>, CodecError> {
        let bytes = std::fs::read(self.path(i))
            .map_err(|e| CodecError::Io(format!("reading spill file for chunk {i}: {e}")))?;
        if bytes.len() != len {
            return Err(CodecError::Corrupt(format!(
                "spill file for chunk {i} has {} bytes, expected {len}",
                bytes.len()
            )));
        }
        self.read.fetch_add(len as u64, Ordering::Relaxed);
        Ok(bytes)
    }

    /// Renames the spill files of slots `i` and `j` as the slots swap, so
    /// no payload passes through memory.
    fn swap_files(&self, i: usize, i_disk: bool, j: usize, j_disk: bool) -> Result<(), CodecError> {
        let rename = |from: &Path, to: &Path| {
            std::fs::rename(from, to).map_err(|e| {
                CodecError::Io(format!(
                    "renaming spill file {} -> {}: {e}",
                    from.display(),
                    to.display()
                ))
            })
        };
        let (pi, pj) = (self.path(i), self.path(j));
        match (i_disk, j_disk) {
            (true, true) => {
                let tmp = self.dir.join(format!("chunk-{i}.swap"));
                rename(&pi, &tmp)?;
                rename(&pj, &pi)?;
                rename(&tmp, &pj)
            }
            (true, false) => rename(&pi, &pj),
            (false, true) => rename(&pj, &pi),
            (false, false) => Ok(()),
        }
    }
}

impl Drop for Spill {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The compressed chunk tier — MEMQSIM's headline representation.
///
/// Every chunk is a codec payload guarded by a word-parallel `checksum64`,
/// individually locked so pipeline threads and "idle core" workers stream
/// different chunks concurrently. Running totals of in-memory payload bytes
/// and their peak are the numbers behind the paper's "+5 qubits in the same
/// memory" claim.
///
/// Built with a resident-byte budget ([`spilling`](Self::spilling), or
/// [`from_amplitudes`](Self::from_amplitudes) with `Some(budget)`), the
/// tier is the paper's beyond-RAM direction in miniature. A commit makes
/// room *before* admitting its payload, by moving the earliest-indexed
/// in-memory payloads to spill files, so the in-memory total never exceeds
/// the budget, even transiently; a payload larger than the whole budget
/// goes straight to disk. Loads read a spilled payload back but do not
/// promote it, and swaps of spilled chunks rename their files. The
/// checksum guards a payload wherever it lives.
///
/// Without a budget, a load or commit takes only its own slot's lock: the
/// byte totals and every counter are atomics. With one, commits and swaps
/// also take the tier's admission lock; loads still take only their slot's.
///
/// This tier holds no telemetry handle. Wrap it in a
/// [`TelemetryTier`](super::TelemetryTier) — or let
/// [`build_store`](super::build_store) do it — for the full stack.
pub struct CompressedTier {
    n_qubits: u32,
    chunk_bits: u32,
    codec: Arc<dyn Codec>,
    chunks: Vec<Mutex<ChunkSlot>>,
    /// Payload bytes in memory (spilled payloads excluded).
    current_bytes: AtomicUsize,
    peak_bytes: AtomicUsize,
    totals: Totals,
    /// `None`: every payload stays in memory.
    spill: Option<Spill>,
}

impl CompressedTier {
    fn new_empty(
        n_qubits: u32,
        chunk_bits: u32,
        codec: Arc<dyn Codec>,
        spill: Option<Spill>,
    ) -> Self {
        let chunk_bits = chunk_bits.min(n_qubits);
        CompressedTier {
            n_qubits,
            chunk_bits,
            codec,
            chunks: (0..1usize << (n_qubits - chunk_bits))
                .map(|_| Mutex::default())
                .collect(),
            current_bytes: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
            totals: Totals::default(),
            spill,
        }
    }

    /// Builds the compressed `|0...0>` state, every payload in memory.
    pub fn zero_state(n_qubits: u32, chunk_bits: u32, codec: Arc<dyn Codec>) -> Self {
        let store = CompressedTier::new_empty(n_qubits, chunk_bits, codec, None);
        for (i, bytes) in store.zero_payloads().enumerate() {
            store
                .commit(i, bytes, true)
                .expect("an unbudgeted commit cannot fail");
        }
        store
    }

    /// Builds the compressed `|0...0>` state under `resident_budget`
    /// in-memory payload bytes; the rest spills to disk.
    pub fn spilling(
        n_qubits: u32,
        chunk_bits: u32,
        codec: Arc<dyn Codec>,
        resident_budget: usize,
    ) -> Result<Self, CodecError> {
        let spill = Spill::new(resident_budget)?;
        let store = CompressedTier::new_empty(n_qubits, chunk_bits, codec, Some(spill));
        for (i, bytes) in store.zero_payloads().enumerate() {
            store.commit(i, bytes, true)?;
        }
        Ok(store)
    }

    /// Compresses an existing dense state, under `resident_budget`
    /// in-memory payload bytes when one is given. A length that is not a
    /// power of two is a [`CodecError::BufferMismatch`].
    pub fn from_amplitudes(
        amps: &[Complex64],
        chunk_bits: u32,
        codec: Arc<dyn Codec>,
        resident_budget: Option<usize>,
    ) -> Result<Self, CodecError> {
        let n_qubits = register_width(amps.len())?;
        let spill = resident_budget.map(Spill::new).transpose()?;
        let store = CompressedTier::new_empty(n_qubits, chunk_bits, codec, spill);
        for (i, piece) in amps.chunks_exact(store.chunk_amps()).enumerate() {
            store.commit(i, compress_complex(store.codec.as_ref(), piece), true)?;
        }
        Ok(store)
    }

    /// The codec in use.
    pub fn codec(&self) -> &Arc<dyn Codec> {
        &self.codec
    }

    /// The `|0...0>` state's payloads in chunk order. Every chunk after the
    /// first is the same all-zero buffer: it is encoded once and each slot
    /// commits a copy, with the accounting of a real encode.
    fn zero_payloads(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
        let mut buf = vec![Complex64::ZERO; self.chunk_amps()];
        buf[0] = Complex64::ONE;
        let first = compress_complex(self.codec.as_ref(), &buf);
        let mut zero = None;
        std::iter::once(first).chain((1..self.chunk_count()).map(move |_| {
            buf[0] = Complex64::ZERO;
            zero.get_or_insert_with(|| compress_complex(self.codec.as_ref(), &buf))
                .clone()
        }))
    }

    /// The one commit path: `bytes` — this tier's codec's encoding of one
    /// chunk, produced here when `host_encoded` — becomes slot `i`'s
    /// contents, in memory or on disk as the budget decides. The payload is
    /// booked only once it has landed: a failed spill write books nothing.
    fn commit(&self, i: usize, bytes: Vec<u8>, host_encoded: bool) -> Result<(), CodecError> {
        let (meta, len) = (self.codec.payload_meta(&bytes), bytes.len());
        let slot = ChunkSlot {
            checksum: checksum64(&bytes),
            bytes,
            spilled: None,
        };
        match &self.spill {
            None => self.hold(i, slot),
            Some(spill) => self.admit(spill, i, slot)?,
        }
        self.book(meta, len, host_encoded);
        Ok(())
    }

    /// Books a committed payload of `len` bytes. A payload handed in from
    /// elsewhere (`!host_encoded`) leaves `bytes_compressed` alone.
    fn book(&self, meta: Option<PayloadMeta>, len: usize, host_encoded: bool) {
        let t = &self.totals;
        if let Some(PayloadMeta {
            codec,
            f32_packed,
            lossless,
        }) = meta
        {
            if let Some(k) = PICKS.iter().position(|&c| c == codec) {
                t.picks[k].fetch_add(1, Ordering::Relaxed);
            }
            if f32_packed {
                t.mixed_precision_chunks.fetch_add(1, Ordering::Relaxed);
            }
            if !lossless {
                t.lossy_encodes.fetch_add(1, Ordering::Relaxed);
            }
        }
        let len = len as u64;
        t.commits.fetch_add(1, Ordering::Relaxed);
        t.committed_bytes.fetch_add(len, Ordering::Relaxed);
        if host_encoded {
            t.bytes_compressed.fetch_add(len, Ordering::Relaxed);
        }
    }

    /// Puts `slot` in memory at `i` (no budget). The signed-delta byte
    /// update happens while still serialized on the slot, so `peak_bytes`
    /// cannot transiently overshoot by the old chunk's length.
    fn hold(&self, i: usize, slot: ChunkSlot) {
        let new_len = slot.bytes.len();
        let guard = &mut *self.chunks[i].lock();
        let old_len = guard.bytes.len();
        *guard = slot;
        let cur = if new_len >= old_len {
            let d = new_len - old_len;
            self.current_bytes.fetch_add(d, Ordering::Relaxed) + d
        } else {
            let d = old_len - new_len;
            self.current_bytes.fetch_sub(d, Ordering::Relaxed) - d
        };
        self.peak_bytes.fetch_max(cur, Ordering::Relaxed);
    }

    /// Puts `slot` at `i` under the budget: the old payload leaves memory,
    /// then earlier-indexed payloads spill until the newcomer fits, or the
    /// newcomer goes straight to disk if it never can.
    fn admit(&self, spill: &Spill, i: usize, mut slot: ChunkSlot) -> Result<(), CodecError> {
        let _admission = spill.admission.lock();
        let mut target = self.chunks[i].lock();
        let len = slot.bytes.len();
        let mut resident = self.current_bytes.load(Ordering::Relaxed) - target.bytes.len();
        if len > spill.budget {
            spill.move_out(i, &mut slot)?;
        } else {
            for (j, other) in self.chunks.iter().enumerate() {
                if resident + len <= spill.budget {
                    break;
                }
                if j == i {
                    continue;
                }
                let mut other = other.lock();
                let freed = other.bytes.len();
                if other.spilled.is_none() {
                    spill.move_out(j, &mut other)?;
                    resident -= freed;
                    self.current_bytes.fetch_sub(freed, Ordering::Relaxed);
                }
            }
            resident += len;
            self.peak_bytes.fetch_max(resident, Ordering::Relaxed);
        }
        *target = slot;
        self.current_bytes.store(resident, Ordering::Relaxed);
        Ok(())
    }

    /// Slot `i`'s payload, checksum-verified: borrowed from memory, or read
    /// back from its spill file.
    fn verified<'a>(&self, i: usize, slot: &'a ChunkSlot) -> Result<Cow<'a, [u8]>, CodecError> {
        let bytes = match (slot.spilled, &self.spill) {
            (Some(len), Some(spill)) => Cow::Owned(spill.read(i, len)?),
            _ => Cow::Borrowed(slot.bytes.as_slice()),
        };
        verify_checksum(i, &bytes, slot.checksum)?;
        Ok(bytes)
    }
}

impl ChunkStore for CompressedTier {
    fn kind(&self) -> &'static str {
        if self.spill.is_some() {
            "spill"
        } else {
            "compressed"
        }
    }

    fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    fn chunk_bits(&self) -> u32 {
        self.chunk_bits
    }

    /// Decompresses chunk `i` into `out`. The chunk's integrity checksum is
    /// verified first, so silent memory or disk corruption surfaces as a
    /// typed error rather than garbage amplitudes.
    fn load_chunk(&self, i: usize, out: &mut [Complex64]) -> Result<(), CodecError> {
        expect_chunk_len(self.chunk_amps(), out.len())?;
        let slot = self.chunks[i].lock();
        let bytes = self.verified(i, &slot)?;
        self.totals.visits.fetch_add(1, Ordering::Relaxed);
        self.totals
            .bytes_decompressed
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        decompress_complex(self.codec.as_ref(), &bytes, out)
    }

    fn store_chunk(&self, i: usize, amps: &[Complex64]) -> Result<(), CodecError> {
        expect_chunk_len(self.chunk_amps(), amps.len())?;
        self.commit(i, compress_complex(self.codec.as_ref(), amps), true)
    }

    /// Hands out chunk `i`'s compressed bytes verbatim (checksum-verified),
    /// counting a visit but no host decompression — the codec work happens
    /// wherever the payload is shipped.
    fn load_chunk_payload(&self, i: usize) -> Result<Option<Vec<u8>>, CodecError> {
        let slot = self.chunks[i].lock();
        let bytes = self.verified(i, &slot)?.into_owned();
        self.totals.visits.fetch_add(1, Ordering::Relaxed);
        Ok(Some(bytes))
    }

    /// Accepts an externally produced payload (same codec) as chunk `i`'s
    /// new contents. Byte/peak/stats accounting matches
    /// [`store_chunk`](ChunkStore::store_chunk), but `bytes_compressed`
    /// does not tick — no host compression happened.
    fn store_chunk_payload(&self, i: usize, payload: Vec<u8>) -> Result<bool, CodecError> {
        self.commit(i, payload, false)?;
        Ok(true)
    }

    /// Swaps the payloads (and checksums) of chunks `i` and `j` wholesale —
    /// the high↔high remap fast path. In-memory bytes move by pointer and
    /// spill files by rename: no codec round trip, no visit, no spill
    /// traffic, and the in-memory total is unchanged.
    fn swap_chunks(&self, i: usize, j: usize) -> Result<bool, CodecError> {
        if i == j {
            return Ok(true);
        }
        let _admission = self.spill.as_ref().map(|s| s.admission.lock());
        // Lock in index order so concurrent swaps cannot deadlock.
        let (lo, hi) = (i.min(j), i.max(j));
        let mut a = self.chunks[lo].lock();
        let mut b = self.chunks[hi].lock();
        if let Some(spill) = &self.spill {
            spill.swap_files(lo, a.spilled.is_some(), hi, b.spilled.is_some())?;
        }
        std::mem::swap(&mut *a, &mut *b);
        Ok(true)
    }

    /// In-memory payload bytes only: spilled payloads do not count against
    /// the memory budget.
    fn state_bytes(&self) -> usize {
        self.current_bytes.load(Ordering::Relaxed)
    }

    fn peak_state_bytes(&self) -> usize {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    fn counters(&self) -> StoreCounters {
        let t = &self.totals;
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let (written, read) = self
            .spill
            .as_ref()
            .map_or((0, 0), |s| (get(&s.written), get(&s.read)));
        StoreCounters {
            chunk_visits: get(&t.visits),
            bytes_decompressed: get(&t.bytes_decompressed),
            bytes_compressed: get(&t.bytes_compressed),
            spill_bytes_written: written,
            spill_bytes_read: read,
            codec_picks_zero_rle: get(&t.picks[0]),
            codec_picks_fpc: get(&t.picks[1]),
            codec_picks_shuffle_lzss: get(&t.picks[2]),
            codec_picks_sz: get(&t.picks[3]),
            mixed_precision_chunks: get(&t.mixed_precision_chunks),
            lossy_encodes: get(&t.lossy_encodes),
            ..StoreCounters::default()
        }
    }

    /// One record per commit: every payload encodes a whole chunk.
    fn cumulative_stats(&self) -> CompressionStats {
        let blocks = self.totals.commits.load(Ordering::Relaxed) as usize;
        CompressionStats {
            raw_bytes: blocks * self.chunk_amps() * size_of::<Complex64>(),
            compressed_bytes: self.totals.committed_bytes.load(Ordering::Relaxed) as usize,
            blocks,
        }
    }

    fn set_error_allowance(&self, eb: Option<f64>) {
        self.codec.set_dynamic_bound(eb);
    }

    fn debug_corrupt_chunk(&self, i: usize) {
        let mut slot = self.chunks[i].lock();
        match (&self.spill, slot.spilled) {
            (Some(spill), Some(_)) => {
                if let Ok(mut bytes) = std::fs::read(spill.path(i)) {
                    if let Some(b) = bytes.first_mut() {
                        *b ^= 0xFF;
                    }
                    let _ = std::fs::write(spill.path(i), &bytes);
                }
            }
            _ => {
                if let Some(b) = slot.bytes.first_mut() {
                    *b ^= 0xFF;
                }
            }
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
            .field("resident_budget", &self.spill.as_ref().map(|s| s.budget))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{cpu, EngineError, Granularity};
    use crate::MemQSimConfig;
    use mq_compress::{CodecSpec, FpcCodec, SzCodec, ZeroRleCodec};
    use mq_num::complex::c64;

    fn sz(eb: f64) -> Arc<dyn Codec> {
        Arc::new(SzCodec::new(eb))
    }

    /// Indices of the chunks whose payload is in its spill file.
    fn spilled(store: &CompressedTier) -> Vec<usize> {
        (0..store.chunk_count())
            .filter(|&i| store.chunks[i].lock().spilled.is_some())
            .collect()
    }

    fn spill_dir(store: &CompressedTier) -> PathBuf {
        store.spill.as_ref().expect("a budgeted tier").dir.clone()
    }

    fn noisy_chunk(seed: usize, amps: usize) -> Vec<Complex64> {
        (0..amps)
            .map(|k| {
                let x = (((seed * amps + k) * 2654435761) % 100_000) as f64 / 100_000.0;
                c64(x, 1.0 - x)
            })
            .collect()
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
        let store = CompressedTier::from_amplitudes(&amps, 6, sz(eb), None).unwrap();
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
        let store = CompressedTier::from_amplitudes(&amps, 3, sz(1e-12), None).unwrap();
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
        // In memory, and under a budget that makes commits spill each
        // other's slots while loads read them.
        for store in [
            CompressedTier::zero_state(10, 5, sz(1e-12)),
            CompressedTier::spilling(10, 5, sz(1e-12), 256).unwrap(),
        ] {
            let store = Arc::new(store);
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
            // Still structurally sound, and inside the budget throughout.
            assert!(store.to_dense().is_ok());
            if let Some(spill) = &store.spill {
                assert!(store.peak_state_bytes() <= spill.budget);
                assert!(store.counters().spill_bytes_written > 0);
            }
        }
    }

    #[test]
    fn lossless_codec_gives_exact_round_trip() {
        let spec = CodecSpec::Fpc;
        let amps: Vec<Complex64> = (0..256).map(|i| c64(i as f64, -(i as f64))).collect();
        let store = CompressedTier::from_amplitudes(&amps, 4, spec.build().into(), None).unwrap();
        let back = store.to_dense().unwrap();
        assert_eq!(amps, back);
    }

    #[test]
    fn renormalize_repairs_drift() {
        let amps: Vec<Complex64> = (0..64).map(|i| c64(0.2 * ((i % 5) as f64), 0.1)).collect();
        let store = CompressedTier::from_amplitudes(&amps, 3, sz(1e-12), None).unwrap();
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
    fn payload_passthrough_round_trips_in_memory_and_on_disk() {
        let codec: Arc<dyn Codec> = Arc::from(CodecSpec::Fpc.build());
        let amps: Vec<Complex64> = (0..64).map(|i| c64(i as f64 * 0.5, -(i as f64))).collect();
        for budget in [None, Some(0)] {
            let store = CompressedTier::from_amplitudes(&amps, 3, codec.clone(), budget).unwrap();
            let visits_before = store.counters().chunk_visits;
            let compressed_before = store.counters().bytes_compressed;

            // Loading a payload hands out exactly the codec bytes, counts a
            // visit, and charges no host decompression.
            let payload = store.load_chunk_payload(2).unwrap().unwrap();
            assert_eq!(payload, compress_complex(codec.as_ref(), &amps[16..24]));
            assert_eq!(store.counters().chunk_visits, visits_before + 1);
            assert_eq!(store.counters().bytes_decompressed, 0);

            // Storing an externally compressed payload commits it verbatim
            // and leaves bytes_compressed untouched (the codec ran
            // elsewhere).
            let replacement: Vec<Complex64> = (0..8).map(|k| c64(0.25, k as f64)).collect();
            let new_payload = compress_complex(codec.as_ref(), &replacement);
            assert!(store.store_chunk_payload(5, new_payload).unwrap());
            assert_eq!(store.counters().bytes_compressed, compressed_before);
            let mut back = vec![Complex64::ZERO; 8];
            store.load_chunk(5, &mut back).unwrap();
            assert_eq!(back, replacement);
            assert_eq!(store.state_bytes() > 0, budget.is_none(), "{budget:?}");
        }
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
        let store = CompressedTier::from_amplitudes(&amps, 3, sz(1e-12), None).unwrap();
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
        let store = CompressedTier::from_amplitudes(&amps, 5, lossy, None).unwrap();
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
    fn corruption_is_detected_in_memory_and_on_disk() {
        let store = CompressedTier::zero_state(8, 4, sz(1e-12));
        store.debug_corrupt_chunk(3);
        let mut buf = vec![Complex64::ZERO; 16];
        assert!(matches!(
            store.load_chunk(3, &mut buf),
            Err(CodecError::Corrupt(_))
        ));
        store.load_chunk(0, &mut buf).unwrap();

        let on_disk = CompressedTier::spilling(8, 4, Arc::new(FpcCodec), 0).unwrap();
        on_disk.debug_corrupt_chunk(2);
        assert!(matches!(
            on_disk.load_chunk(2, &mut buf),
            Err(CodecError::Corrupt(_))
        ));
        on_disk.load_chunk(0, &mut buf).unwrap();
    }

    #[test]
    fn overflow_spills_to_disk_and_stays_under_budget() {
        // Incompressible chunks, a budget that holds roughly two of them.
        let budget = 16 * 16 * 2 + 64;
        let store = CompressedTier::spilling(8, 4, Arc::new(FpcCodec), budget).unwrap();
        for i in 0..store.chunk_count() {
            store.store_chunk(i, &noisy_chunk(i, 16)).unwrap();
            assert!(store.state_bytes() <= budget, "over budget at chunk {i}");
        }
        assert!(store.peak_state_bytes() <= budget);
        assert!(!spilled(&store).is_empty(), "nothing spilled");
        assert!(store.counters().spill_bytes_written > 0);
        // Every chunk — resident or spilled — reads back exactly (FPC is
        // lossless), and a load never promotes a spilled chunk.
        let on_disk = spilled(&store);
        let mut buf = vec![Complex64::ZERO; 16];
        for i in 0..store.chunk_count() {
            store.load_chunk(i, &mut buf).unwrap();
            assert_eq!(buf, noisy_chunk(i, 16), "chunk {i}");
        }
        assert!(store.counters().spill_bytes_read > 0);
        assert_eq!(spilled(&store), on_disk);
    }

    #[test]
    fn zero_budget_keeps_everything_on_disk() {
        let store = CompressedTier::spilling(6, 3, Arc::new(FpcCodec), 0).unwrap();
        assert_eq!(store.state_bytes(), 0);
        assert_eq!(spilled(&store).len(), store.chunk_count());
        assert_eq!(store.peak_state_bytes(), 0);
        assert_eq!(store.to_dense().unwrap()[0], Complex64::ONE);
    }

    #[test]
    fn swap_chunks_crosses_residencies_without_codec_or_spill_traffic() {
        // Budget holds ~2 chunks, so later stores spill earlier ones.
        let budget = 16 * 16 * 2 + 64;
        let store = CompressedTier::spilling(8, 4, Arc::new(FpcCodec), budget).unwrap();
        for i in 0..store.chunk_count() {
            store.store_chunk(i, &noisy_chunk(i, 16)).unwrap();
        }
        let resident = store.state_bytes();
        let before = store.counters();
        // One spilled chunk with a resident one, then two spilled ones
        // (pure renames).
        let disk = spilled(&store);
        let mem = (0..store.chunk_count())
            .find(|i| !disk.contains(i))
            .unwrap();
        assert!(store.swap_chunks(mem, disk[0]).unwrap());
        assert!(store.swap_chunks(disk[1], disk[2]).unwrap());
        assert_eq!(store.counters(), before);
        assert_eq!(store.state_bytes(), resident);
        // Contents followed the swaps exactly.
        let mut buf = vec![Complex64::ZERO; 16];
        store.load_chunk(mem, &mut buf).unwrap();
        assert_eq!(buf, noisy_chunk(disk[0], 16));
        store.load_chunk(disk[0], &mut buf).unwrap();
        assert_eq!(buf, noisy_chunk(mem, 16));
        store.load_chunk(disk[1], &mut buf).unwrap();
        assert_eq!(buf, noisy_chunk(disk[2], 16));
    }

    #[test]
    fn a_removed_spill_file_is_an_io_error() {
        let store = CompressedTier::spilling(6, 3, Arc::new(FpcCodec), 0).unwrap();
        std::fs::remove_file(spill_dir(&store).join("chunk-2.bin")).unwrap();
        let mut buf = vec![Complex64::ZERO; 8];
        assert!(matches!(
            store.load_chunk(2, &mut buf),
            Err(CodecError::Io(_))
        ));
        assert!(matches!(
            store.load_chunk_payload(2),
            Err(CodecError::Io(_))
        ));
        store.load_chunk(3, &mut buf).unwrap();

        // A commit whose spill write fails lands nothing and books nothing.
        let (counters, stats) = (store.counters(), store.cumulative_stats());
        std::fs::remove_dir_all(spill_dir(&store)).unwrap();
        assert!(matches!(store.store_chunk(3, &buf), Err(CodecError::Io(_))));
        assert_eq!(store.counters(), counters);
        assert_eq!(store.cumulative_stats(), stats);
    }

    #[test]
    fn a_spill_file_cut_short_is_corrupt() {
        let store = CompressedTier::spilling(6, 3, Arc::new(FpcCodec), 0).unwrap();
        let path = spill_dir(&store).join("chunk-2.bin");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let mut buf = vec![Complex64::ZERO; 8];
        match store.load_chunk(2, &mut buf) {
            Err(CodecError::Corrupt(msg)) => assert!(msg.contains("expected"), "{msg}"),
            other => panic!("short spill file not detected: {other:?}"),
        }
    }

    #[test]
    fn a_run_over_a_vanished_spill_file_fails_typed_and_leaves_no_directory() {
        let tier = CompressedTier::spilling(8, 4, Arc::new(FpcCodec), 0).unwrap();
        let dir = spill_dir(&tier);
        std::fs::remove_file(dir.join("chunk-5.bin")).unwrap();
        let store: Arc<dyn ChunkStore> = Arc::new(tier);
        let cfg = MemQSimConfig {
            chunk_bits: 4,
            codec: CodecSpec::Fpc,
            workers: 1,
            ..Default::default()
        };
        let run = cpu::run(
            &store,
            &mq_circuit::library::qft(8),
            &cfg,
            Granularity::Staged,
        );
        assert!(matches!(run, Err(EngineError::Codec(_))), "{run:?}");
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists(), "spill directory left behind");
    }
}
