//! Byte-shuffle transform.
//!
//! Transposes an `f64` array's bytes into 8 planes (all byte-0s, then all
//! byte-1s, ...). Exponent/sign bytes of nearby amplitudes correlate
//! strongly, so planes compress far better under a dictionary coder than
//! interleaved bytes do. Pure permutation — lossless by construction.

use crate::planes::{Planes, PlanesMut};

/// Transposes `data` into byte planes, appending `8 * data.len()` bytes.
pub fn shuffle(data: &[f64], out: &mut Vec<u8>) {
    shuffle_planes(Planes::new(data), out);
}

/// [`shuffle`] over a value sequence read in place.
pub(crate) fn shuffle_planes<const S: usize>(data: Planes<'_, S>, out: &mut Vec<u8>) {
    let n = data.len();
    let start = out.len();
    out.resize(start + n * 8, 0);
    let planes = &mut out[start..];
    let mut i = 0;
    data.for_each(0..n, |x| {
        for (b, &byte) in x.to_le_bytes().iter().enumerate() {
            planes[b * n + i] = byte;
        }
        i += 1;
    });
}

/// Inverse of [`shuffle`]: reconstructs `out.len()` doubles from
/// `8 * out.len()` plane bytes.
///
/// # Panics
/// Panics if `planes.len() != 8 * out.len()`.
pub fn unshuffle(planes: &[u8], out: &mut [f64]) {
    unshuffle_planes(planes, PlanesMut::new(out));
}

/// [`unshuffle`] into a value sequence written in place.
///
/// # Panics
/// Panics if `planes.len() != 8 * out.len()`.
pub(crate) fn unshuffle_planes<const S: usize>(planes: &[u8], mut out: PlanesMut<'_, S>) {
    let n = out.len();
    assert_eq!(planes.len(), n * 8, "plane buffer size mismatch");
    let mut i = 0;
    out.set_each(0..n, || {
        let mut bytes = [0u8; 8];
        for (b, byte) in bytes.iter_mut().enumerate() {
            *byte = planes[b * n + i];
        }
        i += 1;
        f64::from_le_bytes(bytes)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_bit_exact() {
        let data = [1.5, -2.25, 0.0, -0.0, f64::NAN, f64::INFINITY, 1e-300];
        let mut planes = Vec::new();
        shuffle(&data, &mut planes);
        assert_eq!(planes.len(), data.len() * 8);
        let mut out = vec![0.0f64; data.len()];
        unshuffle(&planes, &mut out);
        for (a, b) in data.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_input() {
        let mut planes = Vec::new();
        shuffle(&[], &mut planes);
        assert!(planes.is_empty());
        let mut out: Vec<f64> = vec![];
        unshuffle(&planes, &mut out);
    }

    #[test]
    fn plane_layout_groups_same_byte_index() {
        let data = [
            f64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]),
            f64::from_le_bytes([11, 12, 13, 14, 15, 16, 17, 18]),
        ];
        let mut planes = Vec::new();
        shuffle(&data, &mut planes);
        assert_eq!(&planes[0..2], &[1, 11]); // byte-0 plane
        assert_eq!(&planes[2..4], &[2, 12]); // byte-1 plane
        assert_eq!(&planes[14..16], &[8, 18]); // byte-7 plane
    }

    #[test]
    fn appends_after_existing_content() {
        let mut buf = vec![0xEE, 0xFF];
        shuffle(&[1.0], &mut buf);
        assert_eq!(buf.len(), 2 + 8);
        assert_eq!(&buf[..2], &[0xEE, 0xFF]);
    }

    #[test]
    #[should_panic]
    fn unshuffle_size_mismatch_panics() {
        let mut out = vec![0.0f64; 3];
        unshuffle(&[0u8; 16], &mut out);
    }

    #[test]
    fn similar_exponents_make_constant_planes() {
        // Values in [1, 2): identical sign/exponent bytes.
        let data: Vec<f64> = (0..64).map(|i| 1.0 + i as f64 / 64.0).collect();
        let mut planes = Vec::new();
        shuffle(&data, &mut planes);
        let n = data.len();
        // The top byte plane (sign + exponent high bits) is constant.
        let top = &planes[7 * n..8 * n];
        assert!(top.iter().all(|&b| b == top[0]));
    }
}
