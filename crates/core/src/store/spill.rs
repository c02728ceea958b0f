//! The disk-spill base tier: compressed chunks under a resident-byte
//! budget, overflow spilled to temp files.

use super::accounting::PayloadAccounting;
use super::{checksum64, expect_chunk_len, verify_checksum, ChunkStore, StoreCounters};
use mq_compress::{compress_complex, decompress_complex, Codec, CodecError, CompressionStats};
use mq_num::{bits, Complex64};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Process-wide sequence so concurrent stores in one process get distinct
/// spill directories.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Where one chunk's compressed bytes currently live.
enum SpillSlot {
    InMemory { bytes: Vec<u8>, checksum: u64 },
    OnDisk { len: usize, checksum: u64 },
}

struct SpillState {
    slots: Vec<Option<SpillSlot>>,
    /// Sum of in-memory compressed slot bytes — never exceeds the budget.
    resident: usize,
}

/// Compressed chunks bounded by a configurable resident-byte budget;
/// overflow spills to per-chunk temp files — the paper's beyond-RAM
/// "+5 qubits" direction, in miniature.
///
/// Stores compress first, then make room *before* admitting the new chunk:
/// earlier-indexed resident chunks are written to disk until the newcomer
/// fits, so the in-memory total never exceeds the budget, even
/// transiently (a chunk larger than the whole budget goes straight to
/// disk). Loads of spilled chunks read the file back but do **not**
/// promote — residency changes only on stores, which keeps the budget
/// invariant trivial under concurrent sweeps. Both tiers carry the
/// `checksum64` integrity word, verified before every decode, so bit rot
/// in memory *or* on disk surfaces as a typed [`CodecError::Corrupt`].
///
/// The spill directory is unique per store
/// (`$TMPDIR/mq-spill-<pid>-<seq>`) and removed on drop.
pub struct SpillStore {
    n_qubits: u32,
    chunk_bits: u32,
    codec: Arc<dyn Codec>,
    budget: usize,
    dir: PathBuf,
    state: Mutex<SpillState>,
    peak_resident: AtomicUsize,
    accounting: PayloadAccounting,
    spill_written: AtomicU64,
    spill_read: AtomicU64,
}

impl SpillStore {
    fn new_empty(
        n_qubits: u32,
        chunk_bits: u32,
        codec: Arc<dyn Codec>,
        budget: usize,
    ) -> Result<Self, CodecError> {
        let chunk_count = 1usize << (n_qubits - chunk_bits);
        let dir = std::env::temp_dir().join(format!(
            "mq-spill-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| CodecError::Io(format!("creating spill dir {}: {e}", dir.display())))?;
        Ok(SpillStore {
            n_qubits,
            chunk_bits,
            codec,
            budget,
            dir,
            state: Mutex::new(SpillState {
                slots: (0..chunk_count).map(|_| None).collect(),
                resident: 0,
            }),
            peak_resident: AtomicUsize::new(0),
            accounting: PayloadAccounting::default(),
            spill_written: AtomicU64::new(0),
            spill_read: AtomicU64::new(0),
        })
    }

    /// Builds the `|0...0>` state under `resident_budget` in-memory bytes.
    pub fn zero_state(
        n_qubits: u32,
        chunk_bits: u32,
        codec: Arc<dyn Codec>,
        resident_budget: usize,
    ) -> Result<Self, CodecError> {
        let chunk_bits = chunk_bits.min(n_qubits);
        let chunk_amps = 1usize << chunk_bits;
        let chunk_count = 1usize << (n_qubits - chunk_bits);
        let store = SpillStore::new_empty(n_qubits, chunk_bits, codec, resident_budget)?;
        let mut buf = vec![Complex64::ZERO; chunk_amps];
        buf[0] = Complex64::ONE;
        store.store_chunk(0, &buf)?;
        if chunk_count > 1 {
            // Every other chunk is the same all-zero buffer: encode it once
            // and commit a copy of the payload per slot, with the accounting
            // of a real encode.
            buf[0] = Complex64::ZERO;
            let zero = compress_complex(store.codec.as_ref(), &buf);
            for i in 1..chunk_count {
                store.commit_encoded(i, zero.clone())?;
            }
        }
        Ok(store)
    }

    /// Compresses an existing dense state under the budget.
    ///
    /// # Panics
    /// Panics if `amps.len()` is not a power of two.
    pub fn from_amplitudes(
        amps: &[Complex64],
        chunk_bits: u32,
        codec: Arc<dyn Codec>,
        resident_budget: usize,
    ) -> Result<Self, CodecError> {
        assert!(bits::is_pow2(amps.len()), "length must be a power of two");
        let n_qubits = bits::floor_log2(amps.len());
        let chunk_bits = chunk_bits.min(n_qubits);
        let chunk_amps = 1usize << chunk_bits;
        let store = SpillStore::new_empty(n_qubits, chunk_bits, codec, resident_budget)?;
        for (i, piece) in amps.chunks_exact(chunk_amps).enumerate() {
            store.store_chunk(i, piece)?;
        }
        Ok(store)
    }

    /// The configured resident-byte budget.
    pub fn resident_budget(&self) -> usize {
        self.budget
    }

    /// Number of chunks currently spilled to disk (snapshot).
    pub fn spilled_chunks(&self) -> usize {
        self.state
            .lock()
            .slots
            .iter()
            .filter(|s| matches!(s, Some(SpillSlot::OnDisk { .. })))
            .count()
    }

    fn chunk_path(&self, i: usize) -> PathBuf {
        self.dir.join(format!("chunk-{i}.bin"))
    }

    fn write_file(&self, i: usize, bytes: &[u8]) -> Result<(), CodecError> {
        std::fs::write(self.chunk_path(i), bytes)
            .map_err(|e| CodecError::Io(format!("writing spill file for chunk {i}: {e}")))?;
        self.spill_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn read_file(&self, i: usize, len: usize) -> Result<Vec<u8>, CodecError> {
        let bytes = std::fs::read(self.chunk_path(i))
            .map_err(|e| CodecError::Io(format!("reading spill file for chunk {i}: {e}")))?;
        if bytes.len() != len {
            return Err(CodecError::Corrupt(format!(
                "spill file for chunk {i} has {} bytes, expected {len}",
                bytes.len()
            )));
        }
        self.spill_read.fetch_add(len as u64, Ordering::Relaxed);
        Ok(bytes)
    }

    /// Commits `bytes` — this store's codec's encoding of one chunk — to
    /// slot `i`, in memory if the budget allows and on disk otherwise.
    fn commit_encoded(&self, i: usize, bytes: Vec<u8>) -> Result<(), CodecError> {
        let new_len = bytes.len();
        let checksum = checksum64(&bytes);
        let meta = self.codec.payload_meta(&bytes);
        let mut state = self.state.lock();
        // Retire the old slot's accounting first.
        let old_len = match &state.slots[i] {
            Some(SpillSlot::InMemory { bytes: old, .. }) => old.len(),
            _ => 0,
        };
        state.resident -= old_len;
        state.slots[i] = None;
        if new_len > self.budget {
            // Never fits: straight to disk, resident bytes untouched.
            self.write_file(i, &bytes)?;
            state.slots[i] = Some(SpillSlot::OnDisk {
                len: new_len,
                checksum,
            });
        } else {
            // Make room *before* admitting, so the in-memory total never
            // exceeds the budget even transiently.
            self.make_room(&mut state, i, new_len)?;
            state.resident += new_len;
            state.slots[i] = Some(SpillSlot::InMemory { bytes, checksum });
            self.peak_resident
                .fetch_max(state.resident, Ordering::Relaxed);
        }
        drop(state);
        self.accounting
            .committed(meta, self.chunk_amps() * size_of::<Complex64>(), new_len);
        self.accounting.encoded_on_host(new_len);
        Ok(())
    }

    /// Spills earliest-indexed resident chunks (≠ `keep`) until `need`
    /// more bytes fit in the budget. Called under the state lock.
    fn make_room(
        &self,
        state: &mut SpillState,
        keep: usize,
        need: usize,
    ) -> Result<(), CodecError> {
        if need > self.budget {
            return Ok(()); // caller sends the newcomer straight to disk
        }
        let mut i = 0;
        while state.resident + need > self.budget && i < state.slots.len() {
            if i != keep && matches!(state.slots[i], Some(SpillSlot::InMemory { .. })) {
                if let Some(SpillSlot::InMemory { bytes, checksum }) = state.slots[i].take() {
                    self.write_file(i, &bytes)?;
                    state.resident -= bytes.len();
                    state.slots[i] = Some(SpillSlot::OnDisk {
                        len: bytes.len(),
                        checksum,
                    });
                }
            }
            i += 1;
        }
        Ok(())
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl ChunkStore for SpillStore {
    fn kind(&self) -> &'static str {
        "spill"
    }

    fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    fn chunk_bits(&self) -> u32 {
        self.chunk_bits
    }

    fn load_chunk(&self, i: usize, out: &mut [Complex64]) -> Result<(), CodecError> {
        expect_chunk_len(self.chunk_amps(), out.len())?;
        let state = self.state.lock();
        // A resident payload is verified and decoded in place; only the
        // on-disk arm owns a buffer.
        let disk;
        let (bytes, checksum): (&[u8], u64) = match &state.slots[i] {
            Some(SpillSlot::InMemory { bytes, checksum }) => (bytes, *checksum),
            Some(SpillSlot::OnDisk { len, checksum }) => {
                disk = self.read_file(i, *len)?;
                (&disk, *checksum)
            }
            None => return Err(CodecError::Corrupt(format!("chunk {i} was never stored"))),
        };
        verify_checksum(i, bytes, checksum)?;
        self.accounting.decoding_on_host(bytes.len());
        decompress_complex(self.codec.as_ref(), bytes, out)
    }

    fn store_chunk(&self, i: usize, amps: &[Complex64]) -> Result<(), CodecError> {
        expect_chunk_len(self.chunk_amps(), amps.len())?;
        self.commit_encoded(i, compress_complex(self.codec.as_ref(), amps))
    }

    /// Swaps the two slots wholesale under the state lock. In-memory bytes
    /// move by pointer; on-disk chunks swap by *renaming* their spill files
    /// (no contents pass through memory), so resident bytes, the budget
    /// invariant, and every counter are untouched.
    fn swap_chunks(&self, i: usize, j: usize) -> Result<bool, CodecError> {
        if i == j {
            return Ok(true);
        }
        let mut state = self.state.lock();
        let ren = |from: &PathBuf, to: &PathBuf| {
            std::fs::rename(from, to).map_err(|e| {
                CodecError::Io(format!(
                    "renaming spill file {} -> {}: {e}",
                    from.display(),
                    to.display()
                ))
            })
        };
        let i_disk = matches!(state.slots[i], Some(SpillSlot::OnDisk { .. }));
        let j_disk = matches!(state.slots[j], Some(SpillSlot::OnDisk { .. }));
        let (pi, pj) = (self.chunk_path(i), self.chunk_path(j));
        if i_disk && j_disk {
            let tmp = self.dir.join(format!("chunk-{i}.swap"));
            ren(&pi, &tmp)?;
            ren(&pj, &pi)?;
            ren(&tmp, &pj)?;
        } else if i_disk {
            ren(&pi, &pj)?;
        } else if j_disk {
            ren(&pj, &pi)?;
        }
        state.slots.swap(i, j);
        Ok(true)
    }

    /// In-memory compressed bytes only — the spilled remainder lives on
    /// disk and does not count against the memory budget.
    fn state_bytes(&self) -> usize {
        self.state.lock().resident
    }

    fn peak_state_bytes(&self) -> usize {
        self.peak_resident.load(Ordering::Relaxed)
    }

    fn counters(&self) -> StoreCounters {
        StoreCounters {
            spill_bytes_written: self.spill_written.load(Ordering::Relaxed),
            spill_bytes_read: self.spill_read.load(Ordering::Relaxed),
            ..self.accounting.counters()
        }
    }

    fn cumulative_stats(&self) -> CompressionStats {
        self.accounting.stats()
    }

    fn set_error_allowance(&self, eb: Option<f64>) {
        self.codec.set_dynamic_bound(eb);
    }

    fn debug_corrupt_chunk(&self, i: usize) {
        let mut state = self.state.lock();
        match &mut state.slots[i] {
            Some(SpillSlot::InMemory { bytes, .. }) => {
                if let Some(b) = bytes.first_mut() {
                    *b ^= 0xFF;
                }
            }
            Some(SpillSlot::OnDisk { .. }) => {
                if let Ok(mut bytes) = std::fs::read(self.chunk_path(i)) {
                    if let Some(b) = bytes.first_mut() {
                        *b ^= 0xFF;
                    }
                    let _ = std::fs::write(self.chunk_path(i), &bytes);
                }
            }
            None => {}
        }
    }
}

impl std::fmt::Debug for SpillStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillStore")
            .field("n_qubits", &self.n_qubits)
            .field("chunk_bits", &self.chunk_bits)
            .field("codec", &self.codec.name())
            .field("budget", &self.budget)
            .field("resident_bytes", &self.state_bytes())
            .field("spilled_chunks", &self.spilled_chunks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_compress::{FpcCodec, SzCodec};
    use mq_num::complex::c64;

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
        let store = SpillStore::zero_state(8, 4, Arc::new(SzCodec::new(1e-12)), 1 << 16).unwrap();
        let dense = store.to_dense().unwrap();
        assert!((dense[0].re - 1.0).abs() <= 1e-12);
        assert!(dense[1..].iter().all(|z| z.norm() <= 2e-12));
    }

    #[test]
    fn overflow_spills_to_disk_and_stays_under_budget() {
        // Incompressible chunks, a budget that holds roughly two of them.
        let budget = 16 * 16 * 2 + 64;
        let store = SpillStore::zero_state(8, 4, Arc::new(FpcCodec), budget).unwrap();
        for i in 0..store.chunk_count() {
            store.store_chunk(i, &noisy_chunk(i, 16)).unwrap();
            assert!(store.state_bytes() <= budget, "over budget at chunk {i}");
        }
        assert!(store.peak_resident_bytes() <= budget);
        assert!(store.spilled_chunks() > 0, "nothing spilled");
        assert!(store.counters().spill_bytes_written > 0);
        // Every chunk — resident or spilled — reads back exactly (FPC is
        // lossless).
        let mut buf = vec![Complex64::ZERO; 16];
        for i in 0..store.chunk_count() {
            store.load_chunk(i, &mut buf).unwrap();
            assert_eq!(buf, noisy_chunk(i, 16), "chunk {i}");
        }
        assert!(store.counters().spill_bytes_read > 0);
    }

    #[test]
    fn zero_budget_keeps_everything_on_disk() {
        let store = SpillStore::zero_state(6, 3, Arc::new(FpcCodec), 0).unwrap();
        assert_eq!(store.state_bytes(), 0);
        assert_eq!(store.spilled_chunks(), store.chunk_count());
        assert_eq!(store.peak_resident_bytes(), 0);
        let dense = store.to_dense().unwrap();
        assert_eq!(dense[0], Complex64::ONE);
    }

    #[test]
    fn corruption_is_detected_on_both_tiers() {
        let store = SpillStore::zero_state(6, 3, Arc::new(FpcCodec), 0).unwrap();
        store.debug_corrupt_chunk(2); // on disk
        let mut buf = vec![Complex64::ZERO; 8];
        assert!(matches!(
            store.load_chunk(2, &mut buf),
            Err(CodecError::Corrupt(_))
        ));
        let roomy = SpillStore::zero_state(6, 3, Arc::new(FpcCodec), 1 << 20).unwrap();
        roomy.debug_corrupt_chunk(1); // in memory
        assert!(matches!(
            roomy.load_chunk(1, &mut buf),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn swap_chunks_crosses_tiers_without_codec_or_spill_traffic() {
        // Budget holds ~2 chunks, so later stores spill earlier ones.
        let budget = 16 * 16 * 2 + 64;
        let store = SpillStore::zero_state(8, 4, Arc::new(FpcCodec), budget).unwrap();
        for i in 0..store.chunk_count() {
            store.store_chunk(i, &noisy_chunk(i, 16)).unwrap();
        }
        let resident = store.state_bytes();
        let before = store.counters();
        // Pick one spilled and one resident chunk.
        let (mem_idx, disk_idx) = {
            let state = store.state.lock();
            let mem = state
                .slots
                .iter()
                .position(|s| matches!(s, Some(SpillSlot::InMemory { .. })))
                .unwrap();
            let disk = state
                .slots
                .iter()
                .position(|s| matches!(s, Some(SpillSlot::OnDisk { .. })))
                .unwrap();
            (mem, disk)
        };
        assert!(store.swap_chunks(mem_idx, disk_idx).unwrap());
        // Disk-disk swap too (pure renames).
        let disks: Vec<usize> = {
            let state = store.state.lock();
            state
                .slots
                .iter()
                .enumerate()
                .filter(|(k, s)| *k != mem_idx && matches!(s, Some(SpillSlot::OnDisk { .. })))
                .map(|(k, _)| k)
                .take(2)
                .collect()
        };
        assert!(store.swap_chunks(disks[0], disks[1]).unwrap());
        // No codec traffic, no spill I/O counted, budget accounting intact.
        assert_eq!(store.counters(), before);
        assert_eq!(store.state_bytes(), resident);
        // Contents followed the swap exactly.
        let mut buf = vec![Complex64::ZERO; 16];
        store.load_chunk(mem_idx, &mut buf).unwrap();
        assert_eq!(buf, noisy_chunk(disk_idx, 16));
        store.load_chunk(disks[0], &mut buf).unwrap();
        assert_eq!(buf, noisy_chunk(disks[1], 16));
    }

    #[test]
    fn spill_directory_is_removed_on_drop() {
        let store = SpillStore::zero_state(6, 3, Arc::new(FpcCodec), 0).unwrap();
        let dir = store.dir.clone();
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists());
    }
}
