//! SZ-style error-bounded lossy compression (the paper's "state-of-the-art
//! data compressor" stand-in).
//!
//! Algorithm (the SZ-1.4 core, 1-D):
//!
//! 1. **Predict** each value with the order-1 Lorenzo predictor — the
//!    previous *decompressed* value, so encoder and decoder stay in lockstep.
//! 2. **Quantize** the prediction residual to `q = round(diff / (2*eb))`;
//!    reconstructing `pred + q*2*eb` is then within `eb` of the input.
//! 3. Values whose quantization code falls outside the code range (or whose
//!    reconstruction fails the bound due to floating-point rounding — a
//!    checked guard) are stored verbatim as **outliers**.
//! 4. Quantization codes are **entropy-coded** with canonical Huffman.
//!
//! Steps 1–2 are one floating-point dependency chain per predictor (about
//! forty cycles a value), so the input is cut into `LANES` = 4 contiguous
//! **lanes**: lane `k` covers values `[k·⌈n/LANES⌉, (k+1)·⌈n/LANES⌉)` and
//! its predictor starts from 0, as the whole stream's does. The encoder
//! advances all lanes in one loop and the chains overlap; symbols and
//! outliers are still written in data order, so a decoder only has to reset
//! its predictor at each lane boundary.
//!
//! The decompressed output satisfies `|x - x'| <= eb` pointwise, always —
//! property-tested over arbitrary inputs including NaN/infinity (which take
//! the outlier path and round-trip bit-exactly).

use crate::bitstream::BitWriter;
use crate::huffman::{self, CanonicalCode, HuffmanError, ALPHABET};
use crate::varint::{self, VarintError};
use std::cell::RefCell;

/// Half of the quantization-code alphabet (codes span `-RADIUS+1..RADIUS`).
const RADIUS: i64 = 1 << 15;
/// Symbol 0 marks an outlier; quantized code `q` maps to `q + RADIUS`.
const ESCAPE: u16 = 0;
/// Independent predictor chains per stream. Part of the format.
const LANES: usize = 4;

const _: () = assert!(2 * RADIUS as usize == ALPHABET, "symbols must fit u16");

/// The lane length for `n > 0` values: lanes are `chunks(lane_len(n))`.
fn lane_len(n: usize) -> usize {
    n.div_ceil(LANES)
}

/// One predict → quantize step of a lane: returns the symbol for `x` and
/// moves `prev` to the value the decoder will reconstruct. An escaped `x`
/// is appended to `outliers`.
#[inline(always)]
fn quantize(x: f64, prev: &mut f64, step: f64, eb: f64, outliers: &mut Vec<f64>) -> u16 {
    let pred = *prev;
    let scaled = (x - pred) / step;
    // `scaled.round()` lies inside the code range exactly when this holds
    // (false for NaN and infinities), and inside it round-half-away is a
    // truncating cast after adding the largest double below one half —
    // which keeps libm's `round`, a call that spills every lane's
    // registers, out of the loop.
    if scaled.abs() < (RADIUS - 1) as f64 - 0.5 {
        let q = (scaled + 0.499_999_999_999_999_94_f64.copysign(scaled)) as i64;
        let recon = pred + q as f64 * step;
        if (x - recon).abs() <= eb {
            *prev = recon;
            return (q + RADIUS) as u16;
        }
    }
    outliers.push(x);
    *prev = if x.is_finite() { x } else { 0.0 };
    ESCAPE
}

/// Symbol frequencies over the full alphabet, built one symbol at a time.
struct Histogram {
    /// Occurrences per symbol; all zero between streams.
    counts: Vec<u32>,
    /// The symbols with a non-zero count, in first-seen order: what to read
    /// out and re-zero, so neither costs a pass over the alphabet.
    seen: Vec<u16>,
}

impl Histogram {
    #[inline(always)]
    fn add(&mut self, symbol: u16) {
        let count = &mut self.counts[symbol as usize];
        if *count == 0 {
            self.seen.push(symbol);
        }
        *count += 1;
    }

    /// Moves the `(symbol, count)` pairs, sorted by symbol, into `freqs`
    /// and leaves the histogram empty.
    fn drain_into(&mut self, freqs: &mut Vec<(u16, u64)>) {
        self.seen.sort_unstable();
        freqs.clear();
        for &s in &self.seen {
            freqs.push((s, self.counts[s as usize] as u64));
            self.counts[s as usize] = 0;
        }
        self.seen.clear();
    }
}

/// Per-thread working memory of [`encode`] and [`decode`], kept between
/// calls so a call allocates nothing that scales with the alphabet.
struct Scratch {
    /// One symbol per input value, in data order.
    symbols: Vec<u16>,
    histogram: Histogram,
    freqs: Vec<(u16, u64)>,
    /// Escaped values per lane (the lanes advance together but the stream
    /// lists outliers in data order).
    outliers: [Vec<f64>; LANES],
    code: CanonicalCode,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        symbols: Vec::new(),
        histogram: Histogram {
            counts: vec![0; ALPHABET],
            seen: Vec::new(),
        },
        freqs: Vec::new(),
        outliers: Default::default(),
        code: CanonicalCode::new(),
    });
}

/// Encodes `data` with absolute error bound `eb`, appending to `out`.
///
/// # Panics
/// Panics if `eb` is not finite and positive, or `data` holds 2^32 values
/// or more.
pub fn encode(data: &[f64], eb: f64, out: &mut Vec<u8>) {
    assert!(eb.is_finite() && eb > 0.0, "error bound must be positive");
    assert!(u32::try_from(data.len()).is_ok(), "input too long");
    varint::write_u64(out, data.len() as u64);
    out.extend_from_slice(&eb.to_le_bytes());
    if data.is_empty() {
        return;
    }
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.quantize_lanes(data, eb);
        scratch.write_symbols(out);
        scratch.write_outliers(out);
    });
}

impl Scratch {
    /// Steps 1–3: fills `symbols`, `histogram` and `outliers` from `data`.
    fn quantize_lanes(&mut self, data: &[f64], eb: f64) {
        let step = 2.0 * eb;
        self.symbols.resize(data.len(), ESCAPE);
        self.outliers.iter_mut().for_each(Vec::clear);
        let hist = &mut self.histogram;

        let len = lane_len(data.len());
        let mut input = data.chunks(len);
        let mut output = self.symbols.chunks_mut(len);
        let input: [&[f64]; LANES] = std::array::from_fn(|_| input.next().unwrap_or(&[]));
        let output: [&mut [u16]; LANES] = std::array::from_fn(|_| output.next().unwrap_or(&mut []));
        let mut prev = [0.0f64; LANES];

        // All lanes in step, as far as the shortest (the last) reaches...
        let common = input[LANES - 1].len();
        for i in 0..common {
            for k in 0..LANES {
                let s = quantize(input[k][i], &mut prev[k], step, eb, &mut self.outliers[k]);
                output[k][i] = s;
                hist.add(s);
            }
        }
        // ...then what is left of each, at most LANES - 1 values unless the
        // input is shorter than LANES * (LANES - 1).
        for k in 0..LANES {
            for (&x, slot) in input[k][common..].iter().zip(&mut output[k][common..]) {
                *slot = quantize(x, &mut prev[k], step, eb, &mut self.outliers[k]);
                hist.add(*slot);
            }
        }
    }

    /// Step 4: the code-length table and the entropy-coded symbol stream.
    fn write_symbols(&mut self, out: &mut Vec<u8>) {
        self.histogram.drain_into(&mut self.freqs);
        let lengths = huffman::build_code_lengths(&self.freqs);
        CanonicalCode::serialize_lengths(&lengths, out);
        // A single-symbol alphabet (e.g. an all-zero chunk) needs no payload
        // at all — the count is in the header.
        if lengths.len() == 1 {
            varint::write_u64(out, 0);
            return;
        }
        self.code
            .rebuild(&lengths)
            .expect("lengths from builder are valid");
        let payload_len = self.code.encoded_bits(&self.freqs).div_ceil(8) as usize;
        varint::write_u64(out, payload_len as u64);
        out.reserve(payload_len + 8);
        let start = out.len();
        let mut w = BitWriter::appending_to(std::mem::take(out));
        for &s in &self.symbols {
            self.code.encode(&mut w, s);
        }
        *out = w.into_bytes();
        debug_assert_eq!(out.len() - start, payload_len);
    }

    fn write_outliers(&self, out: &mut Vec<u8>) {
        let count: usize = self.outliers.iter().map(Vec::len).sum();
        varint::write_u64(out, count as u64);
        out.reserve(count * 8);
        for x in self.outliers.iter().flatten() {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Decode errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SzError {
    /// Varint failure in the container.
    Varint(VarintError),
    /// Output buffer length differs from the encoded count.
    LengthMismatch {
        /// Encoded element count.
        expected: usize,
        /// Supplied buffer length.
        got: usize,
    },
    /// Huffman table or stream failure.
    Huffman(HuffmanError),
    /// Structural corruption (truncated sections, bad bound, ...).
    Corrupt(&'static str),
}

impl std::fmt::Display for SzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SzError::Varint(e) => write!(f, "sz varint error: {e}"),
            SzError::LengthMismatch { expected, got } => {
                write!(f, "sz length mismatch: encoded {expected}, buffer {got}")
            }
            SzError::Huffman(e) => write!(f, "sz huffman error: {e}"),
            SzError::Corrupt(m) => write!(f, "corrupt sz stream: {m}"),
        }
    }
}

impl std::error::Error for SzError {}

impl From<VarintError> for SzError {
    fn from(e: VarintError) -> Self {
        SzError::Varint(e)
    }
}

impl From<HuffmanError> for SzError {
    fn from(e: HuffmanError) -> Self {
        SzError::Huffman(e)
    }
}

/// Decompresses into `out` (length must match). Returns the error bound the
/// stream was encoded with.
pub fn decode(buf: &[u8], out: &mut [f64]) -> Result<f64, SzError> {
    let mut pos = 0usize;
    let n = varint::read_u64(buf, &mut pos)?;
    if n != out.len() as u64 {
        return Err(SzError::LengthMismatch {
            expected: usize::try_from(n).unwrap_or(usize::MAX),
            got: out.len(),
        });
    }
    let eb_bytes = take(buf, &mut pos, Some(8)).ok_or(SzError::Corrupt("missing error bound"))?;
    let eb = f64::from_le_bytes(eb_bytes.try_into().expect("eight bytes taken"));
    if !(eb.is_finite() && eb > 0.0) {
        return Err(SzError::Corrupt("invalid error bound"));
    }
    if out.is_empty() {
        return Ok(eb);
    }
    let step = 2.0 * eb;

    let lengths = CanonicalCode::deserialize_lengths(buf, &mut pos, out.len())?;
    let payload_len = usize::try_from(varint::read_u64(buf, &mut pos)?).ok();
    let payload =
        take(buf, &mut pos, payload_len).ok_or(SzError::Corrupt("truncated symbol payload"))?;
    let outlier_count = usize::try_from(varint::read_u64(buf, &mut pos)?).ok();
    let outlier_bytes = outlier_count.and_then(|count| count.checked_mul(8));
    let outliers =
        take(buf, &mut pos, outlier_bytes).ok_or(SzError::Corrupt("truncated outliers"))?;
    let mut outliers = outliers.chunks_exact(8);

    if let [(symbol, _)] = lengths[..] {
        reconstruct(out, step, &mut outliers, || Ok(symbol))?;
    } else {
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.code.rebuild(&lengths)?;
            let mut symbols = scratch.code.decoder(payload);
            reconstruct(out, step, &mut outliers, || Ok(symbols.next_symbol()?))
        })?;
    }
    if outliers.next().is_some() {
        return Err(SzError::Corrupt("outlier overrun"));
    }
    Ok(eb)
}

/// The `len` bytes of `buf` at `*pos`, advancing `*pos` past them. `None`
/// when the bytes are not all there, or `len` is `None` already (a length
/// that did not fit a `usize`).
fn take<'a>(buf: &'a [u8], pos: &mut usize, len: Option<usize>) -> Option<&'a [u8]> {
    let end = pos.checked_add(len?)?;
    let bytes = buf.get(*pos..end)?;
    *pos = end;
    Some(bytes)
}

/// Rebuilds `out` from its symbol stream, lane by lane.
#[inline(always)]
fn reconstruct(
    out: &mut [f64],
    step: f64,
    outliers: &mut std::slice::ChunksExact<'_, u8>,
    mut next_symbol: impl FnMut() -> Result<u16, SzError>,
) -> Result<(), SzError> {
    let len = lane_len(out.len());
    for lane in out.chunks_mut(len) {
        let mut prev = 0.0f64;
        for slot in lane {
            let s = next_symbol()?;
            if s == ESCAPE {
                let bytes = outliers
                    .next()
                    .ok_or(SzError::Corrupt("outlier underrun"))?;
                let x = f64::from_le_bytes(bytes.try_into().expect("chunks of eight"));
                *slot = x;
                prev = if x.is_finite() { x } else { 0.0 };
            } else {
                let q = s as i64 - RADIUS;
                prev += q as f64 * step;
                *slot = prev;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bounded(data: &[f64], eb: f64) -> usize {
        let mut buf = Vec::new();
        encode(data, eb, &mut buf);
        let mut out = vec![0.0f64; data.len()];
        let got_eb = decode(&buf, &mut out).unwrap();
        assert_eq!(got_eb, eb);
        for (i, (a, b)) in data.iter().zip(&out).enumerate() {
            if a.is_finite() {
                assert!(
                    (a - b).abs() <= eb,
                    "idx {i}: |{a} - {b}| = {} > {eb}",
                    (a - b).abs()
                );
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "non-finite must be exact");
            }
        }
        buf.len()
    }

    #[test]
    fn empty_input() {
        assert_bounded(&[], 1e-6);
    }

    #[test]
    fn constant_data_compresses_hard() {
        // One outlier (the jump from 0) + 65535 center codes at ~1 bit each:
        // a ratio around 60x from pure Huffman over the quant codes.
        let data = vec![0.125f64; 65536];
        let size = assert_bounded(&data, 1e-10);
        assert!(size < 10_000, "got {size}");
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data: Vec<f64> = (0..65536).map(|i| (i as f64 * 1e-4).sin() * 0.01).collect();
        let size = assert_bounded(&data, 1e-8);
        let raw = data.len() * 8;
        assert!(size * 4 < raw, "ratio {}", raw as f64 / size as f64);
    }

    #[test]
    fn zeros_compress_like_rle() {
        let mut data = vec![0.0f64; 32768];
        data[5] = 0.73;
        data[17000] = -0.73;
        let size = assert_bounded(&data, 1e-9);
        assert!(size < 8192, "got {size}");
    }

    #[test]
    fn error_bound_is_respected_on_rough_data() {
        let data: Vec<f64> = (0..10_000u64)
            .map(|i| {
                let r = i.wrapping_mul(0x9E3779B97F4A7C15) >> 11;
                (r as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect();
        for eb in [1e-3, 1e-6, 1e-12] {
            assert_bounded(&data, eb);
        }
    }

    #[test]
    fn tighter_bounds_cost_more_bytes() {
        let data: Vec<f64> = (0..20_000).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut loose = Vec::new();
        encode(&data, 1e-3, &mut loose);
        let mut tight = Vec::new();
        encode(&data, 1e-9, &mut tight);
        assert!(loose.len() < tight.len());
    }

    #[test]
    fn huge_values_take_outlier_path() {
        let data = [1e300, -1e300, 1e-300, 0.0, 42.0];
        assert_bounded(&data, 1e-6);
    }

    #[test]
    fn non_finite_values_round_trip_exactly() {
        let data = [
            f64::NAN,
            1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2.0,
            2.0 + 1e-7,
        ];
        assert_bounded(&data, 1e-6);
    }

    #[test]
    fn statevector_like_amplitudes() {
        // Amplitudes of a uniform superposition with phase noise.
        let n = 1 << 14;
        let amp = 1.0 / (n as f64).sqrt();
        let data: Vec<f64> = (0..n).map(|i| amp * ((i as f64 * 0.001).cos())).collect();
        let size = assert_bounded(&data, amp * 1e-4);
        let ratio = (n * 8) as f64 / size as f64;
        assert!(ratio > 4.0, "ratio {ratio}");
    }

    #[test]
    fn length_mismatch_detected() {
        let mut buf = Vec::new();
        encode(&[1.0, 2.0], 1e-6, &mut buf);
        let mut out = vec![0.0f64; 3];
        assert!(matches!(
            decode(&buf, &mut out),
            Err(SzError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let mut buf = Vec::new();
        encode(&data, 1e-6, &mut buf);
        for cut in [buf.len() / 4, buf.len() / 2, buf.len() - 1] {
            let mut out = vec![0.0f64; 1000];
            assert!(decode(&buf[..cut], &mut out).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn garbage_header_detected() {
        let mut out = vec![0.0f64; 4];
        assert!(decode(&[0xFF, 0xFF, 0xFF], &mut out).is_err());
        // Valid count but bogus (negative) error bound.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 4);
        buf.extend_from_slice(&(-1.0f64).to_le_bytes());
        assert!(matches!(decode(&buf, &mut out), Err(SzError::Corrupt(_))));
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_bound() {
        let mut buf = Vec::new();
        encode(&[1.0], 0.0, &mut buf);
    }

    // --- lanes ---------------------------------------------------------------

    /// The encoder this module started with — one predictor chain through
    /// libm's `round`, a `BTreeMap` histogram, canonical codes assigned by
    /// sorting and written a bit at a time — run once per lane.
    fn reference_encode(data: &[f64], eb: f64, out: &mut Vec<u8>) {
        use std::collections::BTreeMap;
        varint::write_u64(out, data.len() as u64);
        out.extend_from_slice(&eb.to_le_bytes());
        if data.is_empty() {
            return;
        }
        let step = 2.0 * eb;
        let mut symbols: Vec<u16> = Vec::new();
        let mut outliers: Vec<u8> = Vec::new();
        for lane in data.chunks(data.len().div_ceil(LANES)) {
            let mut prev = 0.0f64;
            for &x in lane {
                let pred = prev;
                let diff = x - pred;
                let qf = (diff / step).round();
                let mut escaped = true;
                if qf.is_finite() && qf.abs() < (RADIUS - 1) as f64 {
                    let q = qf as i64;
                    let recon = pred + q as f64 * step;
                    if (x - recon).abs() <= eb {
                        symbols.push((q + RADIUS) as u16);
                        prev = recon;
                        escaped = false;
                    }
                }
                if escaped {
                    symbols.push(ESCAPE);
                    outliers.extend_from_slice(&x.to_le_bytes());
                    prev = if x.is_finite() { x } else { 0.0 };
                }
            }
        }

        let mut freqs = BTreeMap::new();
        for &s in &symbols {
            *freqs.entry(s).or_insert(0u64) += 1;
        }
        let lengths = huffman::build_code_lengths(&freqs.into_iter().collect::<Vec<_>>());
        CanonicalCode::serialize_lengths(&lengths, out);
        if lengths.len() == 1 {
            varint::write_u64(out, 0);
        } else {
            let mut by_length = lengths.clone();
            by_length.sort_by_key(|&(s, l)| (l, s));
            let mut codes = BTreeMap::new();
            let (mut code, mut code_len) = (0u64, by_length[0].1);
            for &(s, l) in &by_length {
                code <<= l - code_len;
                code_len = l;
                codes.insert(s, (code, l));
                code += 1;
            }
            let mut w = BitWriter::new();
            for s in &symbols {
                let (code, len) = codes[s];
                for i in (0..len).rev() {
                    w.write_bit((code >> i) & 1 == 1);
                }
            }
            let payload = w.into_bytes();
            varint::write_u64(out, payload.len() as u64);
            out.extend_from_slice(&payload);
        }
        varint::write_u64(out, (outliers.len() / 8) as u64);
        out.extend_from_slice(&outliers);
    }

    fn uniform(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*seed >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// The six input shapes of the lane tests, `n` values each.
    fn shapes(n: usize) -> Vec<(&'static str, Vec<f64>)> {
        let mut seed = n as u64;
        let smooth = |i: usize| (i as f64 * 1e-3).sin() * 0.01;
        vec![
            ("zeros", vec![0.0; n]),
            (
                "constant plane + zero plane",
                (0..n)
                    .map(|i| if i < n / 2 { 4.8828125e-4 } else { 0.0 })
                    .collect(),
            ),
            ("smooth", (0..n).map(smooth).collect()),
            (
                "sign-alternating",
                (0..n)
                    .map(|i| if i % 2 == 0 { 1e-3 } else { -1e-3 })
                    .collect(),
            ),
            (
                "uniform random",
                (0..n).map(|_| uniform(&mut seed)).collect(),
            ),
            (
                "non-finite sprinkled",
                (0..n)
                    .map(|i| match i % 11 {
                        0 => f64::NAN,
                        3 => f64::INFINITY,
                        5 => f64::NEG_INFINITY,
                        8 => 1e300,
                        _ => smooth(i),
                    })
                    .collect(),
            ),
        ]
    }

    #[test]
    fn interleaved_lanes_match_the_lane_by_lane_reference_byte_for_byte() {
        for n in [0, 1, 2, 3, 4, 5, 7, 4095, 4097, 1 << 17] {
            for (shape, data) in shapes(n) {
                for eb in [1e-4, 1e-10, 1e-13] {
                    let mut want = Vec::new();
                    reference_encode(&data, eb, &mut want);
                    let mut got = Vec::new();
                    encode(&data, eb, &mut got);
                    assert!(got == want, "n={n} {shape} eb={eb}: payloads differ");
                    assert_bounded(&data, eb);
                }
            }
        }
    }

    #[test]
    fn ties_round_away_from_zero_as_libm_does() {
        // With a power-of-two bound every quotient here is exact, and most
        // are a tie or one ulp to either side of one.
        let eb = 0.25;
        let mut data: Vec<f64> = Vec::new();
        for i in -64..=64 {
            let x = i as f64 * 0.125;
            data.extend([x, x.next_up(), x, x.next_down()]);
        }
        // The edge of the code range, from both sides.
        let edge = (RADIUS - 1) as f64 - 0.5;
        for scaled in [edge, edge.next_down(), -edge, edge + 0.5] {
            data.extend([0.0, scaled * 2.0 * eb]);
        }
        let mut want = Vec::new();
        reference_encode(&data, eb, &mut want);
        let mut got = Vec::new();
        encode(&data, eb, &mut got);
        assert_eq!(got, want);
        assert_bounded(&data, eb);
    }

    #[test]
    fn every_lane_restarts_its_predictor() {
        // A constant costs one outlier per lane and nothing else: the lanes
        // do not see each other.
        let data = vec![0.125f64; 4096];
        let mut buf = Vec::new();
        encode(&data, 1e-10, &mut buf);
        let mut expect = Vec::new();
        for lane in data.chunks(1024) {
            let mut one = Vec::new();
            encode(lane, 1e-10, &mut one);
            let mut out = vec![0.0; lane.len()];
            decode(&one, &mut out).unwrap();
            expect.extend(out);
        }
        let mut out = vec![0.0; data.len()];
        decode(&buf, &mut out).unwrap();
        assert_eq!(out, expect);
        assert_eq!(out, data);
    }

    // --- hostile streams -------------------------------------------------------

    /// `count`, `eb`, then a two-symbol length table: what every crafted
    /// stream below starts with.
    fn crafted_prefix(count: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, count);
        buf.extend_from_slice(&1e-6f64.to_le_bytes());
        CanonicalCode::serialize_lengths(&[(ESCAPE, 1), (RADIUS as u16, 1)], &mut buf);
        buf
    }

    #[test]
    fn symbol_past_the_alphabet_is_a_typed_error() {
        // One table entry whose symbol is u32::MAX: sizing a table by it
        // would ask for 32 GiB.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 4);
        buf.extend_from_slice(&1e-6f64.to_le_bytes());
        varint::write_u64(&mut buf, 1);
        varint::write_u64(&mut buf, u32::MAX as u64);
        buf.push(1);
        varint::write_u64(&mut buf, 0);
        varint::write_u64(&mut buf, 0);
        let mut out = [0.0f64; 4];
        assert_eq!(
            decode(&buf, &mut out),
            Err(SzError::Huffman(HuffmanError::InvalidLengths))
        );
    }

    #[test]
    fn length_table_longer_than_the_output_is_a_typed_error() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 2);
        buf.extend_from_slice(&1e-6f64.to_le_bytes());
        CanonicalCode::serialize_lengths(&[(1, 2), (2, 2), (3, 2)], &mut buf);
        let mut out = [0.0f64; 2];
        assert_eq!(
            decode(&buf, &mut out),
            Err(SzError::Huffman(HuffmanError::InvalidLengths))
        );
    }

    #[test]
    fn wrapping_payload_length_is_a_typed_error() {
        let mut buf = crafted_prefix(4);
        varint::write_u64(&mut buf, u64::MAX);
        buf.extend_from_slice(&[0; 16]);
        let mut out = [0.0f64; 4];
        assert_eq!(
            decode(&buf, &mut out),
            Err(SzError::Corrupt("truncated symbol payload"))
        );
    }

    #[test]
    fn wrapping_outlier_count_is_a_typed_error() {
        // 2^61 outliers: times eight bytes each is 0 in 64 bits.
        let mut buf = crafted_prefix(4);
        varint::write_u64(&mut buf, 1);
        buf.push(0);
        varint::write_u64(&mut buf, 1 << 61);
        buf.extend_from_slice(&[0; 16]);
        let mut out = [0.0f64; 4];
        assert_eq!(
            decode(&buf, &mut out),
            Err(SzError::Corrupt("truncated outliers"))
        );
    }

    #[test]
    fn mutated_payloads_decode_or_fail_but_never_panic() {
        let mut seed = 3u64;
        let smooth: Vec<f64> = (0..300).map(|i| (i as f64 * 0.05).sin()).collect();
        let rough: Vec<f64> = (0..61)
            .map(|i| match i % 7 {
                0 => f64::NAN,
                3 => 1e300,
                _ => uniform(&mut seed) * 1e-3,
            })
            .collect();
        let zeros = vec![0.0f64; 64];
        for (data, eb) in [(&smooth, 1e-6), (&rough, 1e-5), (&zeros, 1e-10)] {
            let mut valid = Vec::new();
            encode(data, eb, &mut valid);
            let mut out = vec![0.0f64; data.len()];
            let check = |bytes: &[u8], out: &mut [f64]| {
                if let Ok(eb) = decode(bytes, out) {
                    assert!(eb.is_finite() && eb > 0.0);
                }
            };
            for cut in 0..valid.len() {
                check(&valid[..cut], &mut out);
            }
            for at in 0..valid.len() {
                for flip in [0x01, 0x80, 0xFF] {
                    let mut bytes = valid.clone();
                    bytes[at] ^= flip;
                    check(&bytes, &mut out);
                }
            }
            assert_eq!(decode(&valid, &mut out), Ok(eb));
        }
    }
}
