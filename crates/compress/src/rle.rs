//! Zero run-length coding for `f64` streams.
//!
//! State vectors early in a circuit are overwhelmingly exact zeros (a basis
//! state has one nonzero amplitude); this codec exploits that directly:
//! alternating varint-coded runs of zeros and literal runs of raw `f64`s.
//! Lossless.

use crate::planes::{Planes, PlanesMut};
use crate::varint::{self, VarintError};

/// Encodes `data` as alternating zero-run / literal-run tokens.
pub fn encode(data: &[f64], out: &mut Vec<u8>) {
    encode_planes(Planes::new(data), out);
}

/// [`encode`] over a value sequence read in place.
pub(crate) fn encode_planes<const S: usize>(data: Planes<'_, S>, out: &mut Vec<u8>) {
    let is_zero = |x: f64| x == 0.0 && x.is_sign_positive();
    varint::write_u64(out, data.len() as u64);
    let mut i = 0usize;
    while i < data.len() {
        // Zero run (may be empty), then literal run (may be empty, at end).
        let literals = data.run_end(i, is_zero);
        varint::write_u64(out, (literals - i) as u64);
        i = data.run_end(literals, |x| !is_zero(x));
        varint::write_u64(out, (i - literals) as u64);
        data.extend_le_bytes(literals..i, out);
    }
}

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RleError {
    /// Underlying varint failure.
    Varint(VarintError),
    /// Output length does not match the header.
    LengthMismatch {
        /// Length in the encoded header.
        expected: usize,
        /// Length of the output buffer supplied.
        got: usize,
    },
    /// Buffer ended early or runs overflow the output.
    Corrupt,
}

impl std::fmt::Display for RleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RleError::Varint(e) => write!(f, "rle varint error: {e}"),
            RleError::LengthMismatch { expected, got } => {
                write!(f, "rle length mismatch: encoded {expected}, buffer {got}")
            }
            RleError::Corrupt => write!(f, "corrupt rle stream"),
        }
    }
}

impl std::error::Error for RleError {}

impl From<VarintError> for RleError {
    fn from(e: VarintError) -> Self {
        RleError::Varint(e)
    }
}

/// Decodes into `out`, whose length must equal the encoded element count.
pub fn decode(buf: &[u8], out: &mut [f64]) -> Result<(), RleError> {
    decode_planes(buf, PlanesMut::new(out))
}

/// [`decode`] into a value sequence written in place.
pub(crate) fn decode_planes<const S: usize>(
    buf: &[u8],
    mut out: PlanesMut<'_, S>,
) -> Result<(), RleError> {
    let mut pos = 0usize;
    let n = varint::read_u64(buf, &mut pos)? as usize;
    if n != out.len() {
        return Err(RleError::LengthMismatch {
            expected: n,
            got: out.len(),
        });
    }
    let mut i = 0usize;
    while i < n {
        // Each run is checked against what is left, never added first: a
        // crafted run near `u64::MAX` wraps the sum.
        let zrun = varint::read_u64(buf, &mut pos)? as usize;
        if zrun > n - i {
            return Err(RleError::Corrupt);
        }
        out.fill(i..i + zrun, 0.0);
        i += zrun;
        let lrun = varint::read_u64(buf, &mut pos)? as usize;
        if lrun > n - i || lrun > (buf.len() - pos) / 8 {
            return Err(RleError::Corrupt);
        }
        out.set_le_bytes(i, &buf[pos..pos + lrun * 8]);
        pos += lrun * 8;
        i += lrun;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[f64]) -> usize {
        let mut buf = Vec::new();
        encode(data, &mut buf);
        let mut out = vec![f64::NAN; data.len()];
        decode(&buf, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert!(a.to_bits() == b.to_bits(), "bit-exact: {a} vs {b}");
        }
        buf.len()
    }

    #[test]
    fn all_zeros_compress_massively() {
        let data = vec![0.0f64; 100_000];
        let size = round_trip(&data);
        assert!(size < 16, "got {size} bytes");
    }

    #[test]
    fn basis_state_pattern() {
        let mut data = vec![0.0f64; 4096];
        data[137] = 1.0;
        let size = round_trip(&data);
        assert!(size < 32);
    }

    #[test]
    fn dense_data_small_overhead() {
        let data: Vec<f64> = (1..1000).map(|i| i as f64 * 0.001).collect();
        let size = round_trip(&data);
        // One literal run: header + 2 varints + 8n bytes.
        assert!(size < data.len() * 8 + 16);
    }

    #[test]
    fn preserves_negative_zero_and_nan_as_literals() {
        let data = [0.0, -0.0, f64::NAN, 0.0, 1.5];
        let mut buf = Vec::new();
        encode(&data, &mut buf);
        let mut out = vec![0.0f64; 5];
        decode(&buf, &mut out).unwrap();
        assert!(out[1].is_sign_negative() && out[1] == 0.0);
        assert!(out[2].is_nan());
        assert_eq!(out[4], 1.5);
    }

    #[test]
    fn empty_input() {
        round_trip(&[]);
    }

    #[test]
    fn alternating_pattern() {
        let data: Vec<f64> = (0..1000)
            .map(|i| if i % 3 == 0 { 0.0 } else { i as f64 })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn length_mismatch_detected() {
        let mut buf = Vec::new();
        encode(&[1.0, 2.0], &mut buf);
        let mut out = vec![0.0f64; 3];
        assert!(matches!(
            decode(&buf, &mut out),
            Err(RleError::LengthMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        encode(&[0.0, 1.0, 2.0, 3.0], &mut buf);
        buf.truncate(buf.len() - 4);
        let mut out = vec![0.0f64; 4];
        assert!(decode(&buf, &mut out).is_err());
    }

    #[test]
    fn corrupt_run_lengths_detected() {
        // Header says 2 elements but a zero-run of 100 follows.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 2);
        varint::write_u64(&mut buf, 100);
        let mut out = vec![0.0f64; 2];
        assert_eq!(decode(&buf, &mut out), Err(RleError::Corrupt));
    }

    #[test]
    fn runs_that_would_wrap_a_sum_are_corrupt() {
        // One literal, then a zero run of u64::MAX: `i + zrun` wraps.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 4);
        varint::write_u64(&mut buf, 0);
        varint::write_u64(&mut buf, 1);
        buf.extend_from_slice(&1.5f64.to_le_bytes());
        varint::write_u64(&mut buf, u64::MAX);
        let mut out = vec![0.0f64; 4];
        assert_eq!(decode(&buf, &mut out), Err(RleError::Corrupt));
        // A literal run of u64::MAX: `lrun * 8` wraps.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 4);
        varint::write_u64(&mut buf, 0);
        varint::write_u64(&mut buf, u64::MAX);
        buf.extend_from_slice(&[0; 32]);
        assert_eq!(decode(&buf, &mut out), Err(RleError::Corrupt));
    }
}
