//! The telemetry middleware: owns counter emission for the whole stack.

use super::{ChunkStore, StoreCounters};
use mq_compress::{CodecError, CompressionStats};
use mq_num::Complex64;
use mq_telemetry::{Counter, Telemetry};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many [`StoreCounters`] fields map onto [`Counter`] variants.
const N: usize = 15;

/// The stack's counter totals paired with their telemetry counters, in a
/// fixed order shared by the emission bookkeeping.
fn fields(c: &StoreCounters) -> [(Counter, u64); N] {
    [
        (Counter::ChunkVisits, c.chunk_visits),
        (Counter::BytesDecompressed, c.bytes_decompressed),
        (Counter::BytesCompressed, c.bytes_compressed),
        (Counter::CacheHits, c.cache_hits),
        (Counter::CacheMisses, c.cache_misses),
        (Counter::RecompressSkipped, c.recompress_skipped),
        (Counter::Evictions, c.evictions),
        (Counter::SpillBytesWritten, c.spill_bytes_written),
        (Counter::SpillBytesRead, c.spill_bytes_read),
        (Counter::CodecPicksZeroRle, c.codec_picks_zero_rle),
        (Counter::CodecPicksFpc, c.codec_picks_fpc),
        (Counter::CodecPicksShuffleLzss, c.codec_picks_shuffle_lzss),
        (Counter::CodecPicksSz, c.codec_picks_sz),
        (Counter::MixedPrecisionChunks, c.mixed_precision_chunks),
        (Counter::LossyEncodes, c.lossy_encodes),
    ]
}

/// Translates the inner stack's plain atomic totals into an attached
/// per-run [`Telemetry`] handle, so inner tiers never name a telemetry
/// type.
///
/// While a handle is attached, every operation through this tier diffs the
/// inner [`StoreCounters`] against an "emitted so far" watermark and adds
/// the delta to the run record — counters are visible in real time, not
/// just at detach. The watermark advances with a monotone compare-exchange,
/// which is race-free under concurrent operations because the inner totals
/// only grow: whichever thread wins the exchange emits exactly the
/// uncovered delta. Attachment snapshots the current totals first, so
/// traffic from before the run (state initialization) never lands in the
/// record.
pub struct TelemetryTier {
    inner: Arc<dyn ChunkStore>,
    /// Read locks only on the per-chunk hot path; write locks on
    /// attach/detach.
    telemetry: RwLock<Option<Telemetry>>,
    /// Per-counter totals already added to the attached handle.
    emitted: [AtomicU64; N],
}

impl TelemetryTier {
    /// Wraps `inner` as the outermost tier of a storage stack.
    pub fn new(inner: Arc<dyn ChunkStore>) -> Self {
        TelemetryTier {
            inner,
            telemetry: RwLock::new(None),
            emitted: [const { AtomicU64::new(0) }; N],
        }
    }

    /// The wrapped inner store.
    pub fn inner(&self) -> &Arc<dyn ChunkStore> {
        &self.inner
    }

    /// Emits any counter growth since the last sync into the attached
    /// handle (no-op when detached).
    fn sync(&self) {
        let guard = self.telemetry.read();
        let Some(t) = guard.as_ref() else { return };
        for (slot, (counter, total)) in self.emitted.iter().zip(fields(&self.inner.counters())) {
            loop {
                let seen = slot.load(Ordering::Relaxed);
                if total <= seen {
                    break;
                }
                if slot
                    .compare_exchange(seen, total, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    t.add(counter, total - seen);
                    break;
                }
            }
        }
    }
}

impl ChunkStore for TelemetryTier {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn n_qubits(&self) -> u32 {
        self.inner.n_qubits()
    }

    fn chunk_bits(&self) -> u32 {
        self.inner.chunk_bits()
    }

    fn load_chunk(&self, i: usize, out: &mut [Complex64]) -> Result<(), CodecError> {
        let result = self.inner.load_chunk(i, out);
        self.sync();
        result
    }

    fn store_chunk(&self, i: usize, amps: &[Complex64]) -> Result<(), CodecError> {
        let result = self.inner.store_chunk(i, amps);
        self.sync();
        result
    }

    fn load_chunk_payload(&self, i: usize) -> Result<Option<Vec<u8>>, CodecError> {
        let result = self.inner.load_chunk_payload(i);
        self.sync();
        result
    }

    fn store_chunk_payload(&self, i: usize, payload: Vec<u8>) -> Result<bool, CodecError> {
        let result = self.inner.store_chunk_payload(i, payload);
        self.sync();
        result
    }

    fn swap_chunks(&self, i: usize, j: usize) -> Result<bool, CodecError> {
        let result = self.inner.swap_chunks(i, j);
        self.sync();
        result
    }

    fn flush(&self) -> Result<(), CodecError> {
        let result = self.inner.flush();
        self.sync();
        result
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn peak_state_bytes(&self) -> usize {
        self.inner.peak_state_bytes()
    }

    fn peak_resident_bytes(&self) -> usize {
        self.inner.peak_resident_bytes()
    }

    fn counters(&self) -> StoreCounters {
        self.inner.counters()
    }

    fn cumulative_stats(&self) -> CompressionStats {
        self.inner.cumulative_stats()
    }

    fn resident_chunks(&self) -> Vec<usize> {
        self.inner.resident_chunks()
    }

    /// Attaches a handle: until [`ChunkStore::detach_telemetry`] is
    /// called, every chunk load/store contributes
    /// to the run's counter record. Engines attach at run start and detach
    /// before returning. Totals accumulated before the attach (state
    /// initialization) are excluded.
    fn attach_telemetry(&self, telemetry: Telemetry) {
        let mut guard = self.telemetry.write();
        for (slot, (_, total)) in self.emitted.iter().zip(fields(&self.inner.counters())) {
            slot.store(total, Ordering::Relaxed);
        }
        *guard = Some(telemetry);
    }

    /// Final-syncs and detaches the handle, if any.
    fn detach_telemetry(&self) {
        let mut guard = self.telemetry.write();
        if let Some(t) = guard.as_ref() {
            for (slot, (counter, total)) in self.emitted.iter().zip(fields(&self.inner.counters()))
            {
                let seen = slot.swap(total, Ordering::Relaxed);
                if total > seen {
                    t.add(counter, total - seen);
                }
            }
        }
        *guard = None;
    }

    fn set_error_allowance(&self, eb: Option<f64>) {
        self.inner.set_error_allowance(eb);
    }

    fn debug_corrupt_chunk(&self, i: usize) {
        self.inner.debug_corrupt_chunk(i);
    }
}

impl std::fmt::Debug for TelemetryTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryTier")
            .field("inner", &self.inner.kind())
            .field("attached", &self.telemetry.read().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{CompressedTier, ResidencyCache};
    use super::*;
    use mq_compress::SzCodec;

    fn stack(cache_entries: usize) -> TelemetryTier {
        let base: Arc<dyn ChunkStore> = Arc::new(CompressedTier::zero_state(
            8,
            4,
            Arc::new(SzCodec::new(1e-12)),
        ));
        let inner: Arc<dyn ChunkStore> = if cache_entries > 0 {
            Arc::new(ResidencyCache::new(base, cache_entries * 16 * 16))
        } else {
            base
        };
        TelemetryTier::new(inner)
    }

    #[test]
    fn attach_detach_counts_codec_traffic() {
        let store = stack(0);
        let t = Telemetry::new();
        store.attach_telemetry(t.clone());
        let mut buf = vec![Complex64::ZERO; 16];
        store.load_chunk(0, &mut buf).unwrap();
        store.store_chunk(1, &buf).unwrap();
        assert_eq!(t.counter(Counter::ChunkVisits), 1);
        assert!(t.counter(Counter::BytesDecompressed) > 0);
        assert!(t.counter(Counter::BytesCompressed) > 0);
        // No cache configured: the cache counters stay silent.
        assert_eq!(t.counter(Counter::CacheHits), 0);
        assert_eq!(t.counter(Counter::CacheMisses), 0);
        // After detaching, traffic no longer lands in the record.
        store.detach_telemetry();
        let before = t.counter(Counter::ChunkVisits);
        store.load_chunk(2, &mut buf).unwrap();
        assert_eq!(t.counter(Counter::ChunkVisits), before);
    }

    #[test]
    fn attach_excludes_initialization_traffic() {
        let store = stack(0);
        assert!(store.counters().bytes_compressed > 0, "init wrote chunks");
        let t = Telemetry::new();
        store.attach_telemetry(t.clone());
        assert_eq!(t.counter(Counter::BytesCompressed), 0);
        assert_eq!(t.counter(Counter::ChunkVisits), 0);
    }

    #[test]
    fn counters_are_visible_per_operation_not_just_at_detach() {
        let store = stack(0);
        let t = Telemetry::new();
        store.attach_telemetry(t.clone());
        let mut buf = vec![Complex64::ZERO; 16];
        for expected in 1..=3u64 {
            store.load_chunk(0, &mut buf).unwrap();
            assert_eq!(t.counter(Counter::ChunkVisits), expected);
        }
    }

    #[test]
    fn cached_stack_emits_hit_and_miss_counters() {
        let store = stack(4);
        let t = Telemetry::new();
        store.attach_telemetry(t.clone());
        let mut buf = vec![Complex64::ZERO; 16];
        store.load_chunk(0, &mut buf).unwrap(); // miss
        store.load_chunk(0, &mut buf).unwrap(); // hit
        assert_eq!(t.counter(Counter::CacheMisses), 1);
        assert_eq!(t.counter(Counter::CacheHits), 1);
        assert_eq!(
            t.counter(Counter::CacheHits) + t.counter(Counter::CacheMisses),
            t.counter(Counter::ChunkVisits)
        );
        store.detach_telemetry();
    }

    #[test]
    fn reattach_only_reports_new_traffic() {
        let store = stack(0);
        let mut buf = vec![Complex64::ZERO; 16];
        let t1 = Telemetry::new();
        store.attach_telemetry(t1.clone());
        store.load_chunk(0, &mut buf).unwrap();
        store.detach_telemetry();
        assert_eq!(t1.counter(Counter::ChunkVisits), 1);
        let t2 = Telemetry::new();
        store.attach_telemetry(t2.clone());
        store.load_chunk(1, &mut buf).unwrap();
        store.load_chunk(2, &mut buf).unwrap();
        store.detach_telemetry();
        assert_eq!(t2.counter(Counter::ChunkVisits), 2);
        assert_eq!(t1.counter(Counter::ChunkVisits), 1);
    }
}
