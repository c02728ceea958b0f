//! FPC-style lossless floating-point compression.
//!
//! Each `f64` is XOR-ed against the better of two predictors (last value and
//! a stride predictor: last + (last - second_last)); the residual's leading
//! zero *bytes* are counted and only the tail bytes are stored. One nibble
//! per value selects the predictor (1 bit) and encodes min(lzb, 7) (3 bits).
//! Bit-exact round trip, including NaN and signed zeros.

use crate::bitstream::{BitReader, BitWriter, BitstreamOverrun};
use crate::planes::{Planes, PlanesMut};
use crate::varint::{self, VarintError};

/// Compresses `data` losslessly, appending to `out`.
pub fn encode(data: &[f64], out: &mut Vec<u8>) {
    encode_planes(Planes::new(data), out);
}

/// [`encode`] over a value sequence read in place.
pub(crate) fn encode_planes<const S: usize>(data: Planes<'_, S>, out: &mut Vec<u8>) {
    varint::write_u64(out, data.len() as u64);
    let mut w = BitWriter::new();
    let mut last = 0u64;
    let mut last2 = 0u64;
    data.for_each(0..data.len(), |x| {
        let bits = x.to_bits();
        let pred1 = last;
        let pred2 = last.wrapping_add(last.wrapping_sub(last2));
        let r1 = bits ^ pred1;
        let r2 = bits ^ pred2;
        let (sel, resid) = if leading_zero_bytes(r2) > leading_zero_bytes(r1) {
            (1u64, r2)
        } else {
            (0u64, r1)
        };
        // FPC's 3-bit code covers {0,1,2,3,4,5,6,8} leading zero bytes: code
        // 7 means a fully-zero residual; an actual lzb of 7 is demoted to 6
        // (one wasted byte in a rare case) so zero residuals cost no tail.
        let mut lzb = leading_zero_bytes(resid);
        if lzb == 7 {
            lzb = 6;
        }
        let code = if lzb == 8 { 7 } else { lzb };
        let tail_bytes = 8 - lzb.min(8);
        w.write_bits(sel, 1);
        w.write_bits(code as u64, 3);
        if tail_bytes > 0 {
            w.write_bits(resid, (tail_bytes * 8) as u32);
        }
        last2 = last;
        last = bits;
    });
    let payload = w.into_bytes();
    varint::write_u64(out, payload.len() as u64);
    out.extend_from_slice(&payload);
}

fn leading_zero_bytes(v: u64) -> usize {
    (v.leading_zeros() / 8) as usize
}

/// Decompression errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FpcError {
    /// Header failure.
    Varint(VarintError),
    /// Output buffer length differs from the encoded count.
    LengthMismatch {
        /// Encoded element count.
        expected: usize,
        /// Supplied buffer length.
        got: usize,
    },
    /// Payload truncated.
    Truncated,
}

impl std::fmt::Display for FpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FpcError::Varint(e) => write!(f, "fpc varint error: {e}"),
            FpcError::LengthMismatch { expected, got } => {
                write!(f, "fpc length mismatch: encoded {expected}, buffer {got}")
            }
            FpcError::Truncated => write!(f, "truncated fpc payload"),
        }
    }
}

impl std::error::Error for FpcError {}

impl From<VarintError> for FpcError {
    fn from(e: VarintError) -> Self {
        FpcError::Varint(e)
    }
}

impl From<BitstreamOverrun> for FpcError {
    fn from(_: BitstreamOverrun) -> Self {
        FpcError::Truncated
    }
}

/// Decompresses into `out`, which must match the encoded count.
pub fn decode(buf: &[u8], out: &mut [f64]) -> Result<(), FpcError> {
    decode_planes(buf, PlanesMut::new(out))
}

/// [`decode`] into a value sequence written in place.
pub(crate) fn decode_planes<const S: usize>(
    buf: &[u8],
    mut out: PlanesMut<'_, S>,
) -> Result<(), FpcError> {
    let mut pos = 0usize;
    let n = varint::read_u64(buf, &mut pos)? as usize;
    if n != out.len() {
        return Err(FpcError::LengthMismatch {
            expected: n,
            got: out.len(),
        });
    }
    let payload_len = varint::read_u64(buf, &mut pos)? as usize;
    // Against what is left: a crafted length wraps `pos + payload_len`.
    if payload_len > buf.len() - pos {
        return Err(FpcError::Truncated);
    }
    let mut r = BitReader::new(&buf[pos..pos + payload_len]);
    let mut last = 0u64;
    let mut last2 = 0u64;
    out.try_set_each(0..n, || {
        let sel = r.read_bits(1)?;
        let code = r.read_bits(3)? as usize;
        let lzb = if code == 7 { 8 } else { code };
        let tail_bytes = 8 - lzb;
        let resid = if tail_bytes > 0 {
            r.read_bits((tail_bytes * 8) as u32)?
        } else {
            0
        };
        let pred = if sel == 1 {
            last.wrapping_add(last.wrapping_sub(last2))
        } else {
            last
        };
        let bits = resid ^ pred;
        last2 = last;
        last = bits;
        Ok(f64::from_bits(bits))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[f64]) -> usize {
        let mut buf = Vec::new();
        encode(data, &mut buf);
        let mut out = vec![0.0f64; data.len()];
        decode(&buf, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact: {a} vs {b}");
        }
        buf.len()
    }

    #[test]
    fn empty_and_single() {
        round_trip(&[]);
        round_trip(&[std::f64::consts::PI]);
    }

    #[test]
    fn constant_streams_compress_well() {
        let data = vec![0.714285714; 10_000];
        let size = round_trip(&data);
        // sel+code+0 tail bytes = 4 bits per repeated value.
        assert!(size < 6_000, "got {size}");
    }

    #[test]
    fn zeros_compress_to_half_byte_each() {
        let data = vec![0.0f64; 8192];
        let size = round_trip(&data);
        assert!(size < 5000, "got {size}");
    }

    #[test]
    fn linear_ramp_uses_stride_predictor() {
        // Integer-valued ramp: bits advance regularly; the stride predictor
        // captures much of it.
        let data: Vec<f64> = (0..4096).map(|i| i as f64).collect();
        let size = round_trip(&data);
        assert!(size < 4096 * 8 / 2, "got {size}");
    }

    #[test]
    fn special_values_bit_exact() {
        round_trip(&[
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            5e-324, // subnormal
        ]);
    }

    #[test]
    fn random_data_round_trips_with_bounded_expansion() {
        let data: Vec<f64> = (0..5000u64)
            .map(|i| f64::from_bits(i.wrapping_mul(0x9E3779B97F4A7C15)))
            .collect();
        let mut buf = Vec::new();
        encode(&data, &mut buf);
        // Worst case: 4 bits overhead per 8-byte value.
        assert!(buf.len() < data.len() * 9 + 32);
        let mut out = vec![0.0f64; data.len()];
        decode(&buf, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn length_mismatch_detected() {
        let mut buf = Vec::new();
        encode(&[1.0, 2.0], &mut buf);
        let mut out = vec![0.0f64; 4];
        assert!(matches!(
            decode(&buf, &mut out),
            Err(FpcError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let mut buf = Vec::new();
        encode(&data, &mut buf);
        buf.truncate(buf.len() / 2);
        let mut out = vec![0.0f64; 100];
        assert!(decode(&buf, &mut out).is_err());
    }

    #[test]
    fn payload_length_that_would_wrap_is_truncated() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 1);
        varint::write_u64(&mut buf, u64::MAX);
        buf.extend_from_slice(&[0; 8]);
        let mut out = [0.0f64; 1];
        assert_eq!(decode(&buf, &mut out), Err(FpcError::Truncated));
    }

    /// The payload is `BitWriter` output, and stored payloads are compared
    /// byte for byte (device vs host encodes):
    /// these bytes come from the bit-at-a-time writer this crate started
    /// with, and the word-at-a-time one must keep producing them.
    #[test]
    fn golden_bytes_pin_the_lsb_first_layout() {
        fn fnv1a(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
        }
        let small = [
            0.0,
            1.0,
            1.0,
            -2.5,
            1e-300,
            f64::NAN,
            0.1,
            0.1 + f64::EPSILON,
            -0.0,
            3.0,
            3.0,
            1e300,
        ];
        let mut buf = Vec::new();
        encode(&small, &mut buf);
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "0c480e000000000000f03f0e000000000000f4ff90358f2ffce1161a0c59f3f8c21f6e5d7ea0\
             99999999991904c43000a09a9999999999fb0b00000000000008c00e9c7500883ce43f3e"
        );
        round_trip(&small);

        // A thousand values of every tail width, so runs cross many word
        // boundaries at every bit offset.
        let mut seed = 1u64;
        let big: Vec<f64> = (0..1000)
            .map(|i| {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match i % 5 {
                    0 => 0.0,
                    1 => (seed >> 11) as f64 / (1u64 << 53) as f64,
                    2 => 0.25,
                    3 => f64::from_bits(seed),
                    _ => (i as f64).sqrt(),
                }
            })
            .collect();
        let mut buf = Vec::new();
        encode(&big, &mut buf);
        assert_eq!((buf.len(), fnv1a(&buf)), (8293, 0xd9ec_fe20_67e7_2956));
        round_trip(&big);
    }
}
