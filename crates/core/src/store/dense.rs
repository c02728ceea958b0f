//! The uncompressed base tier: chunks resident as raw amplitudes.

use super::{expect_chunk_len, register_width, ChunkStore, StoreCounters};
use mq_compress::{CodecError, CompressionStats};
use mq_num::Complex64;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// The no-codec baseline tier: every chunk stays decompressed in CPU
/// memory. Useful for small widths where codec overhead dominates, and as
/// the truthful "no compression" comparison point for benches — same chunk
/// streaming, zero codec traffic, `dense_bytes` footprint.
pub struct DenseStore {
    n_qubits: u32,
    chunk_bits: u32,
    chunks: Vec<Mutex<Vec<Complex64>>>,
    visits: AtomicU64,
}

impl DenseStore {
    /// Builds the dense `|0...0>` state.
    pub fn zero_state(n_qubits: u32, chunk_bits: u32) -> Self {
        let chunk_bits = chunk_bits.min(n_qubits);
        let chunk_amps = 1usize << chunk_bits;
        let chunk_count = 1usize << (n_qubits - chunk_bits);
        let store = DenseStore {
            n_qubits,
            chunk_bits,
            chunks: (0..chunk_count)
                .map(|_| Mutex::new(vec![Complex64::ZERO; chunk_amps]))
                .collect(),
            visits: AtomicU64::new(0),
        };
        store.chunks[0].lock()[0] = Complex64::ONE;
        store
    }

    /// Chunks an existing dense state. A length that is not a power of two
    /// is a [`CodecError::BufferMismatch`].
    pub fn from_amplitudes(amps: &[Complex64], chunk_bits: u32) -> Result<Self, CodecError> {
        let n_qubits = register_width(amps.len())?;
        let chunk_bits = chunk_bits.min(n_qubits);
        let chunk_amps = 1usize << chunk_bits;
        Ok(DenseStore {
            n_qubits,
            chunk_bits,
            chunks: amps
                .chunks_exact(chunk_amps)
                .map(|piece| Mutex::new(piece.to_vec()))
                .collect(),
            visits: AtomicU64::new(0),
        })
    }
}

impl ChunkStore for DenseStore {
    fn kind(&self) -> &'static str {
        "dense"
    }

    fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    fn chunk_bits(&self) -> u32 {
        self.chunk_bits
    }

    fn load_chunk(&self, i: usize, out: &mut [Complex64]) -> Result<(), CodecError> {
        expect_chunk_len(self.chunk_amps(), out.len())?;
        out.copy_from_slice(&self.chunks[i].lock());
        self.visits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn store_chunk(&self, i: usize, amps: &[Complex64]) -> Result<(), CodecError> {
        expect_chunk_len(self.chunk_amps(), amps.len())?;
        self.chunks[i].lock().copy_from_slice(amps);
        Ok(())
    }

    /// Swaps the two chunks' amplitude vectors wholesale (pointer swap
    /// under both locks) — no copy, no visit.
    fn swap_chunks(&self, i: usize, j: usize) -> Result<bool, CodecError> {
        if i == j {
            return Ok(true);
        }
        let (lo, hi) = (i.min(j), i.max(j));
        let mut a = self.chunks[lo].lock();
        let mut b = self.chunks[hi].lock();
        std::mem::swap(&mut *a, &mut *b);
        Ok(true)
    }

    /// Always the full dense footprint — this tier never shrinks.
    fn state_bytes(&self) -> usize {
        self.dense_bytes()
    }

    fn peak_state_bytes(&self) -> usize {
        self.dense_bytes()
    }

    fn counters(&self) -> StoreCounters {
        StoreCounters {
            chunk_visits: self.visits.load(Ordering::Relaxed),
            ..StoreCounters::default()
        }
    }

    fn cumulative_stats(&self) -> CompressionStats {
        CompressionStats::default()
    }
}

impl std::fmt::Debug for DenseStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseStore")
            .field("n_qubits", &self.n_qubits)
            .field("chunk_bits", &self.chunk_bits)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_num::complex::c64;

    #[test]
    fn zero_state_round_trips_exactly() {
        let store = DenseStore::zero_state(10, 4);
        assert_eq!(store.chunk_count(), 64);
        let dense = store.to_dense().unwrap();
        assert_eq!(dense[0], Complex64::ONE);
        assert!(dense[1..].iter().all(|z| *z == Complex64::ZERO));
        assert!((store.norm().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stores_are_bit_exact() {
        let store = DenseStore::zero_state(6, 3);
        let buf: Vec<Complex64> = (0..8).map(|k| c64(k as f64 * 0.1, -0.2)).collect();
        store.store_chunk(5, &buf).unwrap();
        let mut back = vec![Complex64::ZERO; 8];
        store.load_chunk(5, &mut back).unwrap();
        assert_eq!(back, buf);
    }

    #[test]
    fn footprint_is_the_dense_footprint() {
        let store = DenseStore::zero_state(10, 4);
        assert_eq!(store.state_bytes(), (1 << 10) * 16);
        assert_eq!(store.peak_resident_bytes(), store.dense_bytes());
        assert!((store.current_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(store.cumulative_stats().blocks, 0);
    }

    #[test]
    fn swap_chunks_exchanges_without_visits() {
        let store = DenseStore::zero_state(6, 3);
        let buf: Vec<Complex64> = (0..8).map(|k| c64(k as f64, 0.5)).collect();
        store.store_chunk(2, &buf).unwrap();
        assert!(store.swap_chunks(2, 7).unwrap());
        assert_eq!(store.counters().chunk_visits, 0);
        let mut back = vec![Complex64::ZERO; 8];
        store.load_chunk(7, &mut back).unwrap();
        assert_eq!(back, buf);
        store.load_chunk(2, &mut back).unwrap();
        assert!(back.iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    fn visits_counted_no_codec_traffic() {
        let store = DenseStore::zero_state(6, 3);
        let mut buf = vec![Complex64::ZERO; 8];
        store.load_chunk(0, &mut buf).unwrap();
        store.load_chunk(1, &mut buf).unwrap();
        let c = store.counters();
        assert_eq!(c.chunk_visits, 2);
        assert_eq!(c.bytes_decompressed, 0);
        assert_eq!(c.bytes_compressed, 0);
    }
}
