//! Cheap per-chunk statistics driving adaptive codec selection.
//!
//! The adaptive codec ([`AutoCodec`](crate::AutoCodec)) must decide, per
//! chunk and at encode time, which backend codec to run and whether the
//! chunk tolerates an f32 demotion. Running every candidate and keeping the
//! smallest would answer both questions exactly but costs several full
//! codec passes; this module computes three O(n) statistics (plus a small
//! strided sample) that prune the candidate set down to the one or two
//! codecs that can actually win:
//!
//! * **zero fraction** — exact-zero sparsity, the signal for zero-RLE;
//! * **max magnitude** — bounds the absolute error of an f32 demotion
//!   (`max_abs * 2^-23`), deciding whether mixed precision fits the stage's
//!   error allowance;
//! * **high-byte diversity** — distinct sign/exponent/top-mantissa patterns
//!   in a strided sample; few distinct patterns means the byte-shuffled
//!   planes are repetitive and LZSS dictionary coding can win, many means
//!   an XOR predictor (FPC) is the better lossless fallback.

use crate::planes::Planes;

/// How many elements the diversity sample inspects at most.
const SAMPLE_CAP: usize = 64;

/// Relative rounding step of an f32 mantissa, used conservatively
/// (`2^-23`, one bit looser than the true half-ulp `2^-24`).
pub const F32_RELATIVE_STEP: f64 = 1.1920928955078125e-7;

/// Absolute floor for f32 demotion error: values below the f32 subnormal
/// range flush to zero, contributing up to one f32 subnormal ulp.
pub const F32_ABSOLUTE_FLOOR: f64 = 1e-40;

/// Summary statistics of one chunk's raw f64 plane data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkProbe {
    /// Elements probed.
    pub len: usize,
    /// Fraction of elements that are exactly `±0.0`.
    pub zero_frac: f64,
    /// Largest absolute value seen (0.0 for an empty chunk).
    pub max_abs: f64,
    /// Distinct high-16-bit (sign + exponent + top mantissa) patterns in
    /// the strided sample.
    pub high_byte_diversity: usize,
    /// Elements the diversity sample actually inspected.
    pub sampled: usize,
}

/// Probes `data` in a single pass plus a strided sample.
pub fn probe(data: &[f64]) -> ChunkProbe {
    probe_planes(Planes::new(data))
}

/// [`probe`] over a value sequence read in place.
pub(crate) fn probe_planes<const S: usize>(data: Planes<'_, S>) -> ChunkProbe {
    let mut zeros = 0usize;
    let mut max_abs = 0.0f64;
    // A count and a maximum (of the values that are not NaN): neither
    // depends on the order the values come in.
    for &x in data.unordered() {
        if x == 0.0 {
            zeros += 1;
        }
        let a = x.abs();
        if a > max_abs {
            max_abs = a;
        }
    }
    let len = data.len();
    let stride = (len / SAMPLE_CAP).max(1);
    let mut patterns: Vec<u16> = (0..len)
        .step_by(stride)
        .take(SAMPLE_CAP)
        .map(|i| (data.get(i).to_bits() >> 48) as u16)
        .collect();
    let sampled = patterns.len();
    patterns.sort_unstable();
    patterns.dedup();
    ChunkProbe {
        len,
        zero_frac: if len == 0 {
            0.0
        } else {
            zeros as f64 / len as f64
        },
        max_abs,
        high_byte_diversity: patterns.len(),
        sampled,
    }
}

impl ChunkProbe {
    /// True when the chunk is dominated by exact zeros — zero-RLE territory.
    pub fn is_sparse(&self) -> bool {
        self.zero_frac >= 0.9
    }

    /// True when the sampled sign/exponent patterns are repetitive enough
    /// that byte-shuffle + LZSS is worth trying over the FPC predictor.
    pub fn is_plane_repetitive(&self) -> bool {
        self.sampled > 0 && self.high_byte_diversity * 4 <= self.sampled.max(4)
    }

    /// True when demoting this chunk to f32 pairs stays within `allowance`:
    /// every magnitude fits the f32 range and the worst-case rounding error
    /// (`max_abs * 2^-23`, floored at the subnormal flush error) is covered.
    pub fn f32_fits(&self, allowance: Option<f64>) -> bool {
        let Some(eb) = allowance else {
            return false;
        };
        self.len.is_multiple_of(2)
            && self.max_abs.is_finite()
            && self.max_abs <= f32::MAX as f64
            && eb >= self.max_abs * F32_RELATIVE_STEP
            && eb >= F32_ABSOLUTE_FLOOR
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_counts_zeros_and_max() {
        let mut data = vec![0.0f64; 100];
        data[3] = -2.5;
        data[77] = 1.0;
        let p = probe(&data);
        assert_eq!(p.len, 100);
        assert!((p.zero_frac - 0.98).abs() < 1e-12);
        assert_eq!(p.max_abs, 2.5);
        assert!(p.is_sparse());
    }

    #[test]
    fn empty_chunk_probe_is_benign() {
        let p = probe(&[]);
        assert_eq!(p.len, 0);
        assert_eq!(p.zero_frac, 0.0);
        assert_eq!(p.max_abs, 0.0);
        assert_eq!(p.sampled, 0);
        assert!(!p.is_sparse());
        // Empty chunks trivially "fit" f32 by length, but there is nothing
        // to demote; the codec never takes the path. Fit still requires an
        // allowance.
        assert!(!p.f32_fits(None));
    }

    #[test]
    fn diversity_separates_repetitive_from_noisy() {
        let repetitive: Vec<f64> = (0..1024).map(|i| 0.5 + (i % 4) as f64 * 1e-12).collect();
        let noisy: Vec<f64> = (0..1024)
            .map(|i| ((i * 2654435761usize) % 9973) as f64 * 1e-4 - 0.5)
            .collect();
        assert!(probe(&repetitive).is_plane_repetitive());
        assert!(!probe(&noisy).is_plane_repetitive());
    }

    #[test]
    fn f32_fit_respects_magnitude_and_allowance() {
        let small = probe(&[0.25f64, -0.5, 0.125, 0.0]);
        assert!(small.f32_fits(Some(1e-6)));
        assert!(!small.f32_fits(Some(1e-9)), "0.5 * 2^-23 > 1e-9");
        assert!(!small.f32_fits(None));
        // Out of f32 range: never demote, no matter the allowance.
        let huge = probe(&[1e300f64, 0.0]);
        assert!(!huge.f32_fits(Some(1e280)));
        // Odd length cannot pair-pack.
        let odd = probe(&[0.1f64, 0.2, 0.3]);
        assert!(!odd.f32_fits(Some(1.0)));
    }
}
