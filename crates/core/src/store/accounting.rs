//! The payload accounting both codec tiers keep: what every commit and
//! every load of a compressed chunk adds to [`StoreCounters`] and
//! [`CompressionStats`].

use super::StoreCounters;
use mq_compress::{CompressionStats, PayloadMeta};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-commit and per-load totals of a tier that holds chunks as codec
/// payloads ([`CompressedTier`](super::CompressedTier),
/// [`SpillStore`](super::SpillStore)). One struct, so a payload is booked
/// the same way wherever it lands: the engine's fidelity ledger diffs
/// `lossy_encodes` per stage and must not depend on the store kind.
#[derive(Debug, Default)]
pub(crate) struct PayloadAccounting {
    stats: Mutex<CompressionStats>,
    visits: AtomicU64,
    bytes_decompressed: AtomicU64,
    bytes_compressed: AtomicU64,
    // Adaptive-codec pick histogram, populated from the payload headers of
    // self-describing codecs (static codecs report no metadata and leave
    // these at zero).
    picks_zero_rle: AtomicU64,
    picks_fpc: AtomicU64,
    picks_shuffle_lzss: AtomicU64,
    picks_sz: AtomicU64,
    mixed_precision_chunks: AtomicU64,
    lossy_encodes: AtomicU64,
}

impl PayloadAccounting {
    /// A payload of `len` bytes encoding `raw_bytes` of amplitudes became a
    /// slot's contents; `meta` is what its header declares
    /// ([`Codec::payload_meta`](mq_compress::Codec::payload_meta)).
    pub(crate) fn committed(&self, meta: Option<PayloadMeta>, raw_bytes: usize, len: usize) {
        if let Some(meta) = meta {
            let pick = match meta.codec {
                "zero-rle" => Some(&self.picks_zero_rle),
                "fpc" => Some(&self.picks_fpc),
                "shuffle-lzss" => Some(&self.picks_shuffle_lzss),
                "sz" => Some(&self.picks_sz),
                _ => None,
            };
            if let Some(counter) = pick {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            if meta.f32_packed {
                self.mixed_precision_chunks.fetch_add(1, Ordering::Relaxed);
            }
            if !meta.lossless {
                self.lossy_encodes.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.stats.lock().record(raw_bytes, len);
    }

    /// The host codec produced `len` payload bytes (a payload handed in from
    /// elsewhere is committed without this).
    pub(crate) fn encoded_on_host(&self, len: usize) {
        self.bytes_compressed
            .fetch_add(len as u64, Ordering::Relaxed);
    }

    /// A verified payload was handed out undecoded: a visit, no codec bytes.
    pub(crate) fn visited(&self) {
        self.visits.fetch_add(1, Ordering::Relaxed);
    }

    /// A verified payload of `len` bytes goes to the host decoder.
    pub(crate) fn decoding_on_host(&self, len: usize) {
        self.visited();
        self.bytes_decompressed
            .fetch_add(len as u64, Ordering::Relaxed);
    }

    /// The totals as the fields of [`StoreCounters`] a codec tier owns.
    pub(crate) fn counters(&self) -> StoreCounters {
        StoreCounters {
            chunk_visits: self.visits.load(Ordering::Relaxed),
            bytes_decompressed: self.bytes_decompressed.load(Ordering::Relaxed),
            bytes_compressed: self.bytes_compressed.load(Ordering::Relaxed),
            codec_picks_zero_rle: self.picks_zero_rle.load(Ordering::Relaxed),
            codec_picks_fpc: self.picks_fpc.load(Ordering::Relaxed),
            codec_picks_shuffle_lzss: self.picks_shuffle_lzss.load(Ordering::Relaxed),
            codec_picks_sz: self.picks_sz.load(Ordering::Relaxed),
            mixed_precision_chunks: self.mixed_precision_chunks.load(Ordering::Relaxed),
            lossy_encodes: self.lossy_encodes.load(Ordering::Relaxed),
            ..StoreCounters::default()
        }
    }

    /// Cumulative commit statistics.
    pub(crate) fn stats(&self) -> CompressionStats {
        *self.stats.lock()
    }
}
