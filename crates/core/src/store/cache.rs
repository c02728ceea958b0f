//! The write-back residency-cache middleware: hot decompressed chunks in
//! front of any inner [`ChunkStore`].

use super::{expect_chunk_len, ChunkStore, StoreCounters};
use mq_compress::{CodecError, CompressionStats};
use mq_num::Complex64;
use mq_telemetry::Telemetry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One decompressed chunk resident in the cache.
struct CacheEntry {
    amps: Vec<Complex64>,
    /// True when the resident copy is newer than the inner store's.
    dirty: bool,
    /// Monotonic generation stamp; write-backs commit only if it still
    /// matches their snapshot, so a concurrent store supersedes them.
    gen: u64,
    /// Recency clock value of the last touch (drives victim selection).
    tick: u64,
}

/// Bitwise equality of two chunks, stopping at the first difference.
/// `==` on the floats would be wrong here: it calls `-0.0` and `+0.0` equal
/// (a skipped store would then lose the sign) and `NaN` unequal to itself.
fn same_bits(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

struct CacheState {
    map: HashMap<usize, CacheEntry>,
    tick: u64,
    gen: u64,
}

/// Bounded write-back cache of decompressed chunks over any inner store.
///
/// Loads of resident chunks skip the inner store (checksum and codec)
/// entirely; stores replace the resident copy and mark it dirty — the
/// inner store sees the data only on eviction or [`flush`](ChunkStore::flush), and clean evictions drop the
/// buffer with zero inner traffic. A store whose amplitudes are bit for bit
/// the resident copy's — an exact compare that stops at the first
/// difference, not a hash, so a changed chunk can never be taken for an
/// unchanged one — is skipped and does not re-dirty a clean entry.
///
/// Eviction is *scan-resistant*: entries carry a recency clock, but on
/// overflow the **most** recently touched entry is evicted — the engines
/// sweep every chunk once per stage, and classic LRU degrades to zero hits
/// on cyclic sweeps that exceed capacity (each entry is evicted moments
/// before its next use). Evicting the freshest entry sacrifices a chunk
/// already visited this sweep and protects the unharvested tail: the
/// textbook scan-resistant choice, within one entry of Belady-optimal for
/// cyclic access.
///
/// Cache bytes count toward
/// [`peak_resident_bytes`](ChunkStore::peak_resident_bytes) so the
/// memory-efficiency claim stays truthful.
///
/// Lock order: the cache mutex may be held while the inner store takes its
/// chunk-slot locks (write-backs and evictions commit to the inner store
/// under the cache lock, which is what makes the gen-checked write-back
/// race free), but **never** the reverse — the load path calls into the
/// inner store with the cache lock released.
pub struct ResidencyCache {
    inner: Arc<dyn ChunkStore>,
    /// Capacity in entries (`cache_bytes / decompressed chunk size`);
    /// 0 = passthrough.
    capacity: usize,
    entry_bytes: usize,
    state: Mutex<CacheState>,
    /// Per-chunk write versions, bumped (under the cache lock) whenever
    /// this middleware commits new content to the inner store; the load
    /// path uses them to avoid admitting a stale decode after a concurrent
    /// write-back.
    versions: Vec<AtomicU64>,
    cache_bytes_now: AtomicUsize,
    peak_cache_bytes: AtomicUsize,
    /// Peak of inner state bytes + cache bytes observed at any instant.
    peak_resident: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    skipped: AtomicU64,
    evictions: AtomicU64,
}

impl ResidencyCache {
    /// Wraps `inner` with up to `cache_bytes` of decompressed resident
    /// chunks (rounded down to whole chunks; budgets below one chunk make
    /// the cache a passthrough).
    pub fn new(inner: Arc<dyn ChunkStore>, cache_bytes: usize) -> Self {
        let entry_bytes = inner.chunk_amps() * 16;
        let capacity = cache_bytes / entry_bytes;
        let chunk_count = inner.chunk_count();
        ResidencyCache {
            inner,
            capacity,
            entry_bytes,
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                tick: 0,
                gen: 0,
            }),
            versions: (0..chunk_count).map(|_| AtomicU64::new(0)).collect(),
            cache_bytes_now: AtomicUsize::new(0),
            peak_cache_bytes: AtomicUsize::new(0),
            peak_resident: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The wrapped inner store.
    pub fn inner(&self) -> &Arc<dyn ChunkStore> {
        &self.inner
    }

    /// Decompressed bytes currently held resident.
    pub fn cache_resident_bytes(&self) -> usize {
        self.cache_bytes_now.load(Ordering::Relaxed)
    }

    /// Peak decompressed bytes ever held resident.
    pub fn peak_cache_bytes(&self) -> usize {
        self.peak_cache_bytes.load(Ordering::Relaxed)
    }

    /// Evicts everything (write-backs included), leaving the cache empty
    /// and the inner store current — a full spill.
    pub fn drain(&self) -> Result<(), CodecError> {
        loop {
            let victim = {
                let cache = self.state.lock();
                cache.map.iter().next().map(|(&i, e)| (i, e.gen))
            };
            match victim {
                None => return Ok(()),
                Some((i, gen)) => {
                    if self.evict_candidate(i, gen)? {
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    fn note_resident(&self) {
        let resident = self.inner.state_bytes() + self.cache_bytes_now.load(Ordering::Relaxed);
        self.peak_resident.fetch_max(resident, Ordering::Relaxed);
    }

    /// Writes a dirty resident copy through to the inner store if
    /// generation `gen` still owns the entry; a concurrent store supersedes
    /// us. The gen check and the inner commit happen atomically under the
    /// cache lock, so a racing newer write-back can never be overwritten by
    /// an older one.
    fn writeback(&self, i: usize, amps: &[Complex64], gen: u64) -> Result<(), CodecError> {
        let mut cache = self.state.lock();
        if let Some(e) = cache.map.get_mut(&i) {
            if e.gen == gen {
                self.inner.store_chunk(i, amps)?;
                self.versions[i].fetch_add(1, Ordering::Release);
                e.dirty = false;
            }
        }
        drop(cache);
        self.note_resident();
        Ok(())
    }

    /// Completes the eviction of a snapshot victim: dirty copies are
    /// committed to the inner store, clean ones dropped with zero inner
    /// traffic. Returns whether the entry was actually removed.
    fn evict_candidate(&self, i: usize, gen: u64) -> Result<bool, CodecError> {
        let mut cache = self.state.lock();
        let dirty_amps = match cache.map.get(&i) {
            Some(e) if e.gen == gen => e.dirty.then(|| e.amps.clone()),
            _ => return Ok(false),
        };
        if let Some(amps) = dirty_amps {
            self.inner.store_chunk(i, &amps)?;
            self.versions[i].fetch_add(1, Ordering::Release);
        }
        cache.map.remove(&i);
        // Byte accounting happens under the cache lock (derived from the
        // map size) so a concurrent insert can never observe a transient
        // sum above the real occupancy.
        self.cache_bytes_now
            .store(cache.map.len() * self.entry_bytes, Ordering::Relaxed);
        drop(cache);
        self.note_resident();
        Ok(true)
    }

    /// Evicts entries until there is room for one more (see the type docs
    /// for why the victim is the *most* recently touched entry).
    fn make_room(&self) -> Result<(), CodecError> {
        loop {
            let victim = {
                let cache = self.state.lock();
                if cache.map.len() < self.capacity {
                    return Ok(());
                }
                cache
                    .map
                    .iter()
                    .max_by_key(|(_, e)| e.tick)
                    .map(|(&i, e)| (i, e.gen))
            };
            match victim {
                Some((i, gen)) => {
                    if self.evict_candidate(i, gen)? {
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => return Ok(()),
            }
        }
    }

    /// Admits a freshly decoded chunk as a clean entry, unless the inner
    /// slot changed since the decode or the chunk raced in some other way.
    fn admit_clean(&self, i: usize, amps: &[Complex64], version: u64) -> Result<(), CodecError> {
        self.make_room()?;
        let mut inserted = false;
        {
            let mut cache = self.state.lock();
            if cache.map.len() < self.capacity
                && !cache.map.contains_key(&i)
                && self.versions[i].load(Ordering::Acquire) == version
            {
                cache.tick += 1;
                cache.gen += 1;
                let (tick, gen) = (cache.tick, cache.gen);
                cache.map.insert(
                    i,
                    CacheEntry {
                        amps: amps.to_vec(),
                        dirty: false,
                        gen,
                        tick,
                    },
                );
                inserted = true;
                let cur = cache.map.len() * self.entry_bytes;
                self.cache_bytes_now.store(cur, Ordering::Relaxed);
                self.peak_cache_bytes.fetch_max(cur, Ordering::Relaxed);
            }
        }
        if inserted {
            self.note_resident();
        }
        Ok(())
    }
}

impl ChunkStore for ResidencyCache {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn n_qubits(&self) -> u32 {
        self.inner.n_qubits()
    }

    fn chunk_bits(&self) -> u32 {
        self.inner.chunk_bits()
    }

    /// Serves resident chunks straight from the decompressed copy — no
    /// checksum, no codec. Misses fall through to the inner store and the
    /// decode is admitted as a clean entry.
    fn load_chunk(&self, i: usize, out: &mut [Complex64]) -> Result<(), CodecError> {
        expect_chunk_len(self.chunk_amps(), out.len())?;
        if self.capacity == 0 {
            return self.inner.load_chunk(i, out);
        }
        {
            let mut cache = self.state.lock();
            cache.tick += 1;
            let tick = cache.tick;
            if let Some(e) = cache.map.get_mut(&i) {
                e.tick = tick;
                out.copy_from_slice(&e.amps);
                drop(cache);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
        let version = self.versions[i].load(Ordering::Acquire);
        self.inner.load_chunk(i, out)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.admit_clean(i, out, version)
    }

    /// Replaces the resident copy and marks it dirty (write-back) — the
    /// inner store sees the data on eviction or flush — unless `amps` is
    /// bit for bit the resident copy, which skips the store entirely.
    fn store_chunk(&self, i: usize, amps: &[Complex64]) -> Result<(), CodecError> {
        expect_chunk_len(self.chunk_amps(), amps.len())?;
        if self.capacity == 0 {
            return self.inner.store_chunk(i, amps);
        }
        let skipped = loop {
            // None = no room yet; Some(skipped) = entry updated.
            let mut outcome = None;
            let mut inserted = false;
            {
                let mut cache = self.state.lock();
                cache.tick += 1;
                cache.gen += 1;
                let (tick, gen) = (cache.tick, cache.gen);
                if let Some(e) = cache.map.get_mut(&i) {
                    e.tick = tick;
                    if same_bits(&e.amps, amps) {
                        outcome = Some(true);
                    } else {
                        e.amps.copy_from_slice(amps);
                        e.dirty = true;
                        e.gen = gen;
                        outcome = Some(false);
                    }
                } else if cache.map.len() < self.capacity {
                    cache.map.insert(
                        i,
                        CacheEntry {
                            amps: amps.to_vec(),
                            dirty: true,
                            gen,
                            tick,
                        },
                    );
                    outcome = Some(false);
                    inserted = true;
                    let cur = cache.map.len() * self.entry_bytes;
                    self.cache_bytes_now.store(cur, Ordering::Relaxed);
                    self.peak_cache_bytes.fetch_max(cur, Ordering::Relaxed);
                }
            }
            if inserted {
                self.note_resident();
            }
            match outcome {
                Some(o) => break o,
                None => self.make_room()?,
            }
        };
        if skipped {
            self.skipped.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Serves a codec payload *through* the cache: a dirty resident copy is
    /// written back first (encode-through), so the inner store's bytes are
    /// never stale when they ship. Served payloads count as cache hits when
    /// the chunk was resident (the resident copy vouched for freshness) and
    /// misses otherwise, preserving `hits + misses == chunk_visits`; an
    /// inner refusal counts nothing — the caller falls back to
    /// [`load_chunk`](ChunkStore::load_chunk), which does its own counting.
    fn load_chunk_payload(&self, i: usize) -> Result<Option<Vec<u8>>, CodecError> {
        if self.capacity == 0 {
            return self.inner.load_chunk_payload(i);
        }
        let mut was_resident = false;
        let dirty = {
            let mut cache = self.state.lock();
            cache.tick += 1;
            let tick = cache.tick;
            match cache.map.get_mut(&i) {
                Some(e) => {
                    e.tick = tick;
                    was_resident = true;
                    e.dirty.then(|| (e.amps.clone(), e.gen))
                }
                None => None,
            }
        };
        if let Some((amps, gen)) = dirty {
            self.writeback(i, &amps, gen)?;
        }
        let payload = self.inner.load_chunk_payload(i)?;
        if payload.is_some() {
            if was_resident {
                self.hits.fetch_add(1, Ordering::Relaxed);
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(payload)
    }

    /// Commits a codec payload through to the inner store and, on
    /// acceptance, invalidates any resident copy (its decompressed bytes
    /// are stale the moment the payload lands) and bumps the chunk's write
    /// version so a racing decode cannot re-admit the old content. Counts
    /// nothing: the matching [`load_chunk_payload`] already booked this
    /// chunk's visit. An inner refusal leaves the cache untouched.
    ///
    /// [`load_chunk_payload`]: ChunkStore::load_chunk_payload
    fn store_chunk_payload(&self, i: usize, payload: Vec<u8>) -> Result<bool, CodecError> {
        if self.capacity == 0 {
            return self.inner.store_chunk_payload(i, payload);
        }
        let accepted = {
            // Commit under the cache lock (lock order allows cache → inner)
            // so the version bump, the inner write and the invalidation are
            // one atomic step from any concurrent load's point of view.
            let mut cache = self.state.lock();
            let accepted = self.inner.store_chunk_payload(i, payload)?;
            if accepted {
                self.versions[i].fetch_add(1, Ordering::Release);
                if cache.map.remove(&i).is_some() {
                    self.cache_bytes_now
                        .store(cache.map.len() * self.entry_bytes, Ordering::Relaxed);
                }
            }
            accepted
        };
        if accepted {
            self.note_resident();
        }
        Ok(accepted)
    }

    /// Forwards a payload-level chunk exchange to the inner store after
    /// making the inner bytes authoritative: dirty resident copies of
    /// either chunk are written back first, then both residents are
    /// invalidated (their decompressed bytes describe the pre-swap
    /// contents) with their write versions bumped so racing decodes cannot
    /// re-admit stale data. Counts nothing — the exchange itself is free.
    fn swap_chunks(&self, i: usize, j: usize) -> Result<bool, CodecError> {
        if self.capacity == 0 {
            return self.inner.swap_chunks(i, j);
        }
        // One atomic step under the cache lock (lock order cache → inner).
        let mut cache = self.state.lock();
        for k in [i, j] {
            if let Some(e) = cache.map.get(&k) {
                if e.dirty {
                    self.inner.store_chunk(k, &e.amps)?;
                }
            }
            if cache.map.remove(&k).is_some() {
                self.versions[k].fetch_add(1, Ordering::Release);
            }
        }
        self.cache_bytes_now
            .store(cache.map.len() * self.entry_bytes, Ordering::Relaxed);
        let swapped = self.inner.swap_chunks(i, j)?;
        if swapped && i != j {
            for k in [i, j] {
                self.versions[k].fetch_add(1, Ordering::Release);
            }
        }
        Ok(swapped)
    }

    /// Writes every dirty resident chunk back to the inner store (entries
    /// stay resident, now clean), then flushes the inner store.
    fn flush(&self) -> Result<(), CodecError> {
        let dirty: Vec<(usize, Vec<Complex64>, u64)> = {
            let cache = self.state.lock();
            cache
                .map
                .iter()
                .filter(|(_, e)| e.dirty)
                .map(|(&i, e)| (i, e.amps.clone(), e.gen))
                .collect()
        };
        for (i, amps, gen) in dirty {
            self.writeback(i, &amps, gen)?;
        }
        self.inner.flush()
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn peak_state_bytes(&self) -> usize {
        self.inner.peak_state_bytes()
    }

    fn peak_resident_bytes(&self) -> usize {
        self.peak_resident
            .load(Ordering::Relaxed)
            .max(self.inner.peak_resident_bytes())
    }

    fn counters(&self) -> StoreCounters {
        let inner = self.inner.counters();
        if self.capacity == 0 {
            return inner;
        }
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        StoreCounters {
            // The inner store only sees misses; visits at this tier are
            // the caller-observed total.
            chunk_visits: hits + misses,
            cache_hits: hits,
            cache_misses: misses,
            recompress_skipped: self.skipped.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            ..inner
        }
    }

    fn cumulative_stats(&self) -> CompressionStats {
        self.inner.cumulative_stats()
    }

    fn resident_chunks(&self) -> Vec<usize> {
        self.state.lock().map.keys().copied().collect()
    }

    fn attach_telemetry(&self, telemetry: Telemetry) {
        self.inner.attach_telemetry(telemetry);
    }

    fn detach_telemetry(&self) {
        self.inner.detach_telemetry();
    }

    fn set_error_allowance(&self, eb: Option<f64>) {
        self.inner.set_error_allowance(eb);
    }

    fn debug_corrupt_chunk(&self, i: usize) {
        self.inner.debug_corrupt_chunk(i);
    }
}

impl std::fmt::Debug for ResidencyCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidencyCache")
            .field("inner", &self.inner.kind())
            .field("capacity_chunks", &self.capacity)
            .field("cache_resident_bytes", &self.cache_resident_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::CompressedTier;
    use super::*;
    use mq_compress::{FpcCodec, SzCodec};
    use mq_num::complex::c64;

    /// A store with every chunk already written once (8 qubits, 16 chunks
    /// of 16 amps), cache configured for `entries` resident chunks.
    fn cached_store(entries: usize) -> (Arc<dyn ChunkStore>, ResidencyCache) {
        let inner: Arc<dyn ChunkStore> = Arc::new(CompressedTier::zero_state(
            8,
            4,
            Arc::new(SzCodec::new(1e-12)),
        ));
        let cache = ResidencyCache::new(inner.clone(), entries * inner.chunk_amps() * 16);
        (inner, cache)
    }

    #[test]
    fn cache_hits_skip_the_codec() {
        let (_, store) = cached_store(4);
        let mut buf = vec![Complex64::ZERO; 16];
        store.load_chunk(0, &mut buf).unwrap(); // miss: decodes + admits
        let decoded = store.counters().bytes_decompressed;
        assert!(decoded > 0);
        assert_eq!(store.counters().cache_misses, 1);
        store.load_chunk(0, &mut buf).unwrap(); // hit: no codec traffic
        let c = store.counters();
        assert_eq!(c.bytes_decompressed, decoded);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.chunk_visits, 2);
        assert_eq!(c.cache_hits + c.cache_misses, c.chunk_visits);
    }

    #[test]
    fn dirty_store_defers_recompression_until_flush() {
        let (inner, store) = cached_store(4);
        let compressed_0 = store.counters().bytes_compressed;
        let buf: Vec<Complex64> = (0..16).map(|k| c64(0.1 * k as f64, 0.0)).collect();
        store.store_chunk(2, &buf).unwrap();
        assert_eq!(
            store.counters().bytes_compressed,
            compressed_0,
            "write-back must not touch the codec"
        );
        // The dirty resident copy is what loads see.
        let mut back = vec![Complex64::ZERO; 16];
        store.load_chunk(2, &mut back).unwrap();
        assert_eq!(back, buf);
        store.flush().unwrap();
        assert!(store.counters().bytes_compressed > compressed_0);
        // Flushed entries stay resident (clean): another flush is free.
        let after = store.counters().bytes_compressed;
        store.flush().unwrap();
        assert_eq!(store.counters().bytes_compressed, after);
        // And the inner store now round-trips the data.
        inner.load_chunk(2, &mut back).unwrap();
        for (a, b) in back.iter().zip(&buf) {
            assert!((a.re - b.re).abs() <= 1e-9);
        }
    }

    #[test]
    fn identical_store_is_skipped_and_leaves_the_entry_clean() {
        let (_, store) = cached_store(4);
        let baseline = store.counters().bytes_compressed;
        let mut buf = vec![Complex64::ZERO; 16];
        store.load_chunk(5, &mut buf).unwrap(); // admit clean
        store.store_chunk(5, &buf).unwrap(); // identical content
        assert_eq!(store.counters().recompress_skipped, 1);
        store.flush().unwrap();
        assert_eq!(
            store.counters().bytes_compressed,
            baseline,
            "unmodified store must not dirty the entry"
        );
        let c = store.counters();
        assert_eq!(c.cache_hits + c.cache_misses, c.chunk_visits);
    }

    /// The skip is an exact compare: differences a 64-bit hash could only
    /// promise to catch with probability, and `==` on floats would miss.
    #[test]
    fn store_differing_in_one_bit_pattern_is_not_skipped() {
        let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let resident: Vec<Complex64> = (0..16).map(|k| c64(0.0, 0.125 * k as f64)).collect();
        let mut zero_sign = resident.clone();
        zero_sign[3].re = -0.0; // equal under `==`, different bits
        let mut last_amp = resident.clone();
        last_amp[15].im = f64::from_bits(last_amp[15].im.to_bits() + 1);
        let visits_add_up = |store: &ResidencyCache| {
            let c = store.counters();
            assert_eq!(c.cache_hits + c.cache_misses, c.chunk_visits);
        };
        for changed in [zero_sign, last_amp] {
            assert_ne!(bits(&changed), bits(&resident));
            // FPC is lossless, so the inner tier must give the bits back too.
            let inner: Arc<dyn ChunkStore> =
                Arc::new(CompressedTier::zero_state(8, 4, Arc::new(FpcCodec)));
            let store = ResidencyCache::new(inner.clone(), 4 * 16 * 16);
            store.store_chunk(2, &resident).unwrap();
            store.flush().unwrap(); // resident copy clean
            let compressed = store.counters().bytes_compressed;

            store.store_chunk(2, &resident).unwrap(); // identical: skipped
            assert_eq!(store.counters().recompress_skipped, 1);
            store.store_chunk(2, &changed).unwrap();
            assert_eq!(store.counters().recompress_skipped, 1, "not skipped");
            visits_add_up(&store);

            let mut back = vec![Complex64::ZERO; 16];
            store.load_chunk(2, &mut back).unwrap(); // hit on the dirty copy
            assert_eq!(bits(&back), bits(&changed));
            visits_add_up(&store);
            store.drain().unwrap(); // dirty: written back, then dropped
            assert!(store.counters().bytes_compressed > compressed);
            inner.load_chunk(2, &mut back).unwrap();
            assert_eq!(bits(&back), bits(&changed));
            store.load_chunk(2, &mut back).unwrap(); // miss
            assert_eq!(bits(&back), bits(&changed));

            let c = store.counters();
            assert_eq!((c.cache_hits, c.cache_misses), (1, 1));
            visits_add_up(&store);
        }
    }

    #[test]
    fn overflow_eviction_writes_back_dirty_chunks() {
        let (_, store) = cached_store(2);
        let baseline = store.counters().bytes_compressed;
        let mk = |seed: usize| -> Vec<Complex64> {
            (0..16)
                .map(|k| c64((seed * 16 + k) as f64 * 0.01, 0.0))
                .collect()
        };
        // Three dirty stores through a 2-entry cache: one must be evicted
        // (the freshest at overflow time — scan-resistant victim choice).
        store.store_chunk(0, &mk(0)).unwrap();
        store.store_chunk(1, &mk(1)).unwrap();
        store.store_chunk(2, &mk(2)).unwrap();
        assert!(store.counters().evictions >= 1);
        assert!(
            store.counters().bytes_compressed > baseline,
            "dirty eviction must recompress"
        );
        assert!(store.cache_resident_bytes() <= 2 * store.chunk_amps() * 16);
        // All three chunks readable and correct, evicted or resident alike.
        for seed in 0..3usize {
            let mut back = vec![Complex64::ZERO; 16];
            store.load_chunk(seed, &mut back).unwrap();
            for (a, b) in back.iter().zip(&mk(seed)) {
                assert!((a.re - b.re).abs() <= 1e-9, "chunk {seed}");
            }
        }
    }

    #[test]
    fn clean_eviction_is_codec_free() {
        let (_, store) = cached_store(1);
        let mut buf = vec![Complex64::ZERO; 16];
        store.load_chunk(0, &mut buf).unwrap(); // admit clean
        let compressed = store.counters().bytes_compressed;
        store.load_chunk(1, &mut buf).unwrap(); // evicts clean chunk 0
        assert!(store.counters().evictions >= 1);
        assert_eq!(
            store.counters().bytes_compressed,
            compressed,
            "clean eviction must not recompress"
        );
    }

    #[test]
    fn cache_budget_bounds_resident_bytes() {
        let (_, store) = cached_store(3);
        let budget = 3 * store.chunk_amps() * 16;
        let buf: Vec<Complex64> = (0..16).map(|k| c64(0.01 * k as f64, 0.0)).collect();
        for round in 0..4 {
            for i in 0..store.chunk_count() {
                let mut b = buf.clone();
                b[0] = c64(round as f64, i as f64);
                store.store_chunk(i, &b).unwrap();
                assert!(
                    store.cache_resident_bytes() <= budget,
                    "cache overran its budget"
                );
            }
        }
        assert!(store.peak_cache_bytes() <= budget);
        assert!(store.peak_resident_bytes() >= store.peak_state_bytes());
    }

    #[test]
    fn cached_hit_bypasses_corruption_check_until_eviction() {
        let (inner, store) = cached_store(2);
        let mut buf = vec![Complex64::ZERO; 16];
        store.load_chunk(7, &mut buf).unwrap(); // resident, clean
        store.debug_corrupt_chunk(7);
        // Resident: served from the (uncorrupted) decompressed copy.
        assert!(store.load_chunk(7, &mut buf).is_ok());
        // Non-resident chunk with corruption still surfaces the error.
        store.debug_corrupt_chunk(9);
        assert!(matches!(
            store.load_chunk(9, &mut buf),
            Err(CodecError::Corrupt(_))
        ));
        // Once chunk 7 leaves the cache (clean eviction — no write-back),
        // the corrupted inner slot is exposed again.
        store.drain().unwrap();
        assert!(matches!(
            inner.load_chunk(7, &mut buf),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn concurrent_cached_access_is_safe_and_coherent() {
        let inner: Arc<dyn ChunkStore> = Arc::new(CompressedTier::zero_state(
            10,
            5,
            Arc::new(SzCodec::new(1e-12)),
        ));
        // Tiny cache: constant eviction churn under contention.
        let store = Arc::new(ResidencyCache::new(inner, 3 * 32 * 16));
        std::thread::scope(|s| {
            for t in 0..4usize {
                let store = store.clone();
                s.spawn(move || {
                    let mut buf = vec![Complex64::ZERO; 32];
                    for round in 0..32 {
                        let i = (t * 16 + round) % store.chunk_count();
                        store.load_chunk(i, &mut buf).unwrap();
                        buf[0] = c64(t as f64, round as f64);
                        store.store_chunk(i, &buf).unwrap();
                    }
                });
            }
        });
        store.flush().unwrap();
        assert!(store.to_dense().is_ok());
        let budget = 3 * store.chunk_amps() * 16;
        assert!(store.peak_cache_bytes() <= budget);
    }

    #[test]
    fn drain_spills_and_preserves_data() {
        let (inner, store) = cached_store(4);
        let buf: Vec<Complex64> = (0..16).map(|k| c64(0.02 * k as f64, 0.01)).collect();
        store.store_chunk(1, &buf).unwrap(); // dirty resident
        store.drain().unwrap();
        assert!(store.resident_chunks().is_empty());
        let mut back = vec![Complex64::ZERO; 16];
        inner.load_chunk(1, &mut back).unwrap();
        for (a, b) in back.iter().zip(&buf) {
            assert!((a.re - b.re).abs() <= 1e-9);
        }
    }

    #[test]
    fn payload_load_writes_back_dirty_resident_copy() {
        let (inner, store) = cached_store(4);
        let buf: Vec<Complex64> = (0..16).map(|k| c64(0.03 * k as f64, 0.0)).collect();
        store.store_chunk(2, &buf).unwrap(); // dirty resident, no codec yet
        let compressed_0 = store.counters().bytes_compressed;
        let payload = store.load_chunk_payload(2).unwrap();
        assert!(payload.is_some(), "active cache must serve payloads now");
        assert!(
            store.counters().bytes_compressed > compressed_0,
            "dirty resident must be written back before its payload ships"
        );
        // The shipped payload reflects the resident content, not the stale
        // inner zero state.
        let mut back = vec![Complex64::ZERO; 16];
        inner.load_chunk(2, &mut back).unwrap();
        for (a, b) in back.iter().zip(&buf) {
            assert!((a.re - b.re).abs() <= 1e-9);
        }
        // Resident chunk: the payload load books a cache hit, keeping the
        // visit identity intact.
        let c = store.counters();
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.cache_hits + c.cache_misses, c.chunk_visits);
    }

    #[test]
    fn payload_store_invalidates_resident_copy() {
        let (inner, store) = cached_store(4);
        let mut buf = vec![Complex64::ZERO; 16];
        store.load_chunk(3, &mut buf).unwrap(); // clean resident
        assert!(store.resident_chunks().contains(&3));
        // Forge new content for chunk 3 by encoding it through the inner
        // tier at another index.
        let fresh: Vec<Complex64> = (0..16).map(|k| c64(0.07 * k as f64, 0.02)).collect();
        inner.store_chunk(9, &fresh).unwrap();
        let payload = inner.load_chunk_payload(9).unwrap().unwrap();
        assert!(store.store_chunk_payload(3, payload).unwrap());
        assert!(
            !store.resident_chunks().contains(&3),
            "accepted payload must invalidate the stale resident copy"
        );
        // The next load sees the committed payload, not the old zeros.
        store.load_chunk(3, &mut buf).unwrap();
        for (a, b) in buf.iter().zip(&fresh) {
            assert!((a.re - b.re).abs() <= 1e-9);
        }
    }

    #[test]
    fn payload_round_trip_through_active_cache_counts_once() {
        let (_, store) = cached_store(4);
        // Miss path: not resident, payload served straight from the inner
        // tier — one visit, counted as a miss.
        let p = store.load_chunk_payload(5).unwrap().unwrap();
        let c = store.counters();
        assert_eq!(c.cache_misses, 1);
        assert_eq!(c.cache_hits, 0);
        assert_eq!(c.chunk_visits, 1);
        // Commit path books nothing: the pair is one visit total.
        assert!(store.store_chunk_payload(5, p).unwrap());
        let c = store.counters();
        assert_eq!(c.cache_hits + c.cache_misses, c.chunk_visits);
        assert_eq!(c.chunk_visits, 1);
    }

    #[test]
    fn swap_chunks_flushes_dirty_residents_and_invalidates_both() {
        let (inner, store) = cached_store(4);
        let buf: Vec<Complex64> = (0..16).map(|k| c64(0.04 * k as f64, 0.0)).collect();
        store.store_chunk(1, &buf).unwrap(); // dirty resident
        let mut scratch = vec![Complex64::ZERO; 16];
        store.load_chunk(6, &mut scratch).unwrap(); // clean resident
        let visits_before = store.counters().chunk_visits;
        assert!(store.swap_chunks(1, 6).unwrap());
        // Both residents invalidated, no visit counted for the swap.
        assert!(!store.resident_chunks().contains(&1));
        assert!(!store.resident_chunks().contains(&6));
        assert_eq!(store.counters().chunk_visits, visits_before);
        let c = store.counters();
        assert_eq!(c.cache_hits + c.cache_misses, c.chunk_visits);
        // The dirty content crossed to chunk 6 through the swap.
        inner.load_chunk(6, &mut scratch).unwrap();
        for (a, b) in scratch.iter().zip(&buf) {
            assert!((a.re - b.re).abs() <= 1e-9);
        }
        // And loads through the cache observe the swapped state, not the
        // stale resident copies.
        store.load_chunk(1, &mut scratch).unwrap();
        assert!(scratch.iter().all(|z| z.norm() < 1e-9));
    }

    #[test]
    fn sub_chunk_budget_is_a_passthrough() {
        let inner: Arc<dyn ChunkStore> = Arc::new(CompressedTier::zero_state(
            8,
            4,
            Arc::new(SzCodec::new(1e-12)),
        ));
        let store = ResidencyCache::new(inner, 8);
        let mut buf = vec![Complex64::ZERO; 16];
        store.load_chunk(0, &mut buf).unwrap();
        assert!(store.resident_chunks().is_empty());
        assert_eq!(store.counters().cache_hits, 0);
        assert_eq!(store.counters().cache_misses, 0);
    }
}
