//! SZ-style error-bounded lossy compression (the paper's "state-of-the-art
//! data compressor" stand-in).
//!
//! The input is cut into **blocks** of `BLOCK` = 128 values, and one scan of
//! a block, before anything is predicted, picks the cheapest form that can
//! hold it — its **class**, two bits a block in a table behind the header:
//!
//! * **constant** — the block is one `f64` `c`, decoded by `fill`: the value
//!   itself when all are bit-identical and finite (lossless), else the
//!   midpoint of a block whose values all lie within `2·eb` of its first one
//!   (so all are finite), stored only after checking `|c − min| <= eb` and
//!   `|max − c| <= eb` — every value of the block lies between those two, so
//!   it is within `eb` of `c` by construction. A block holding a NaN or an
//!   infinity is never constant.
//! * **repeat** — a constant block whose `c` is bit-identical to the constant
//!   stored last before it: no bytes beyond its two class bits.
//! * **verbatim** — more than half of the neighbour differences lie beyond
//!   the predictor's reach (`±(RADIUS − 1.5)·2·eb`), so more than half of the
//!   values would escape: all are copied as little-endian bytes, no symbol
//!   and no outlier entry spent on any.
//! * **quantised** — the SZ-1.4 core, 1-D:
//!   1. **Predict** each value with the order-1 Lorenzo predictor — the
//!      previous *decompressed* value, so encoder and decoder stay in
//!      lockstep.
//!   2. **Quantize** the prediction residual to `q = round(diff / (2*eb))`;
//!      reconstructing `pred + q*2*eb` is then within `eb` of the input.
//!   3. Values whose quantization code falls outside the code range (or
//!      whose reconstruction fails the bound due to floating-point rounding
//!      — a checked guard) are stored verbatim as **outliers**; NaN and the
//!      infinities always are, so they round-trip bit-exactly.
//!   4. Quantization codes are **entropy-coded** with canonical Huffman.
//!
//! Stream layout (sections 5–8 only when some block is quantised, and then
//! covering the quantised blocks alone):
//!
//! ```text
//! 1  varint  n                       5  Huffman (symbol, length) table
//! 2  f64     eb                      6  varint + symbol payload
//! 3  u8[⌈blocks/4⌉]  class table     7  varint outlier count
//! 4a f64[constant blocks]            8  f64[outliers]
//! 4b f64[values of verbatim blocks]
//! ```
//!
//! Steps 1–2 are one floating-point dependency chain per predictor (about
//! forty cycles a value), so the input is cut into `LANES` = 4 contiguous
//! **lanes** of `⌈⌈n/LANES⌉/BLOCK⌉` whole blocks — no block straddles a
//! lane — and each lane's predictor starts from 0, as the whole stream's
//! does. The encoder advances all lanes a block at a time, and the chains of
//! those whose current block is quantised overlap; every section is still
//! written in data order, so a decoder only has to reset its predictor at
//! each lane boundary. Within a lane the predictor runs through the other
//! classes: after a constant block it holds that block's value, after a
//! verbatim block the block's last finite value. The stored constants are
//! data, not predictor state: a repeat may reach back across a lane boundary.
//!
//! The decompressed output satisfies `|x - x'| <= eb` pointwise, always —
//! property-tested over arbitrary inputs including NaN/infinity (which
//! round-trip bit-exactly).

use crate::bitstream::BitWriter;
use crate::huffman::{self, CanonicalCode, HuffmanError, ALPHABET};
use crate::planes::{Planes, PlanesMut};
use crate::varint::{self, VarintError};
use std::cell::RefCell;
use std::ops::Range;

/// Half of the quantization-code alphabet (codes span `-RADIUS+1..RADIUS`).
const RADIUS: i64 = 1 << 15;
/// Symbol 0 marks an outlier; quantized code `q` maps to `q + RADIUS`.
const ESCAPE: u16 = 0;
/// Independent predictor chains per stream. Part of the format.
const LANES: usize = 4;
/// Values per block (the last one of a stream may be shorter). Part of the
/// format.
const BLOCK: usize = 128;

// The block classes, as the class table spells them.
const QUANTISED: u8 = 0;
const CONSTANT: u8 = 1;
const VERBATIM: u8 = 2;
const REPEAT: u8 = 3;

const _: () = assert!(2 * RADIUS as usize == ALPHABET, "symbols must fit u16");

/// The lane length for `n > 0` values, a whole number of blocks: lanes are
/// `chunks(lane_len(n))`, blocks are `chunks(BLOCK)` of the whole input.
fn lane_len(n: usize) -> usize {
    n.div_ceil(LANES).next_multiple_of(BLOCK)
}

/// The blocks of `n` values, as ranges: `BLOCK` values each, the last one
/// possibly fewer.
fn blocks(n: usize) -> impl Iterator<Item = Range<usize>> {
    (0..n).step_by(BLOCK).map(move |at| at..n.min(at + BLOCK))
}

/// The value of eight little-endian bytes.
fn f64_le(bytes: &[u8]) -> f64 {
    f64::from_le_bytes(bytes.try_into().expect("chunks of eight"))
}

/// Neighbour differences the class scan counts between two looks at the
/// tally.
const SCAN_RUN: usize = 32;

/// The largest `|x − pred| / step` that still quantises to a code.
const REACH: f64 = (RADIUS - 1) as f64 - 0.5;

/// The class scan of one block: its class (never [`REPEAT`], which depends
/// on the blocks before it) and, for a constant block, the value to store.
fn classify(block: &[f64], eb: f64) -> (u8, f64) {
    let (first, last) = (block[0], block[block.len() - 1]);
    // A flat block ends where it starts, which nearly every other block
    // fails at once; the scans behind that test are reductions without an
    // exit, so the compiler can vectorise them.
    if first.is_finite() {
        let same = |x: f64| x.to_bits() == first.to_bits();
        if same(last) && block.iter().fold(true, |all, &x| all & same(x)) {
            return (CONSTANT, first);
        }
        // Within `2·eb` of a finite value is finite: from here on no NaN or
        // infinity is in the block — the only place `f64::min` / `max`,
        // which return the other operand for a NaN, may be trusted (a scan
        // built on them alone calls `[c, c, NaN, c]` constant).
        let near = |x: f64| (x - first).abs() <= 2.0 * eb;
        if near(last) && block.iter().fold(true, |all, &x| all & near(x)) {
            let lo = block.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = block.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let c = lo + (hi - lo) / 2.0;
            if (c - lo).abs() <= eb && (hi - c).abs() <= eb {
                return (CONSTANT, c);
            }
        }
    }
    // Verbatim when more than half of the neighbour differences are out of
    // the predictor's reach, counted a run at a time (no exit inside a run,
    // so it vectorises) until either answer is certain: halfway through, on
    // data that is all of one kind.
    let reach = REACH * 2.0 * eb;
    let diffs = block.len() - 1;
    let mut far = 0;
    for start in (0..diffs).step_by(SCAN_RUN) {
        let end = diffs.min(start + SCAN_RUN);
        // Counted by the pairs in reach, so that a NaN difference is far.
        let near = block[start..=end]
            .windows(2)
            .filter(|pair| (pair[1] - pair[0]).abs() < reach)
            .count();
        far += end - start - near;
        if 2 * far > diffs {
            return (VERBATIM, 0.0);
        }
        if 2 * (far + diffs - end) <= diffs {
            break;
        }
    }
    (QUANTISED, 0.0)
}

/// Appends the class table of `classes`: two bits a block, first block
/// lowest.
fn write_class_table(classes: impl ExactSizeIterator<Item = u8>, out: &mut Vec<u8>) {
    let table = out.len();
    out.resize(table + classes.len().div_ceil(4), 0);
    for (b, class) in classes.enumerate() {
        out[table + b / 4] |= class << (2 * (b % 4));
    }
}

/// The value a verbatim block leaves in its lane's predictor: its last
/// finite one (`prev` stays when it has none).
fn carry_verbatim(block: impl DoubleEndedIterator<Item = f64>, prev: &mut f64) {
    if let Some(x) = block.rev().find(|x| x.is_finite()) {
        *prev = x;
    }
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
    if scaled.abs() < REACH {
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
    /// Per block, in data order: its class and, for a constant or repeat
    /// block, its value.
    plan: Vec<(u8, f64)>,
    /// One symbol per input value, at the value's index; only those of
    /// quantised blocks are written and read.
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
        plan: Vec::new(),
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

/// The lanes of one [`encode`] call: what each reads and writes, and where
/// its predictor stands. Lane `k` reads values `k * len..` of `data`, at
/// most `len` of them.
struct Lanes<'a, const S: usize> {
    data: Planes<'a, S>,
    len: usize,
    output: [&'a mut [u16]; LANES],
    prev: [f64; LANES],
    outliers: &'a mut [Vec<f64>; LANES],
    histogram: &'a mut Histogram,
    eb: f64,
    /// Where a lane's block is gathered when `data` is not one slice. For
    /// the planes of `2^k` amplitudes, lanes 0 and 2 (1 and 3) hold the real
    /// and the imaginary parts of the same amplitudes, so their gathers walk
    /// the same cache lines in lock-step.
    gathered: [[f64; BLOCK]; LANES],
}

impl<const S: usize> Lanes<'_, S> {
    /// Quantises `range` of each of the lanes `which` (distinct), one value
    /// of each in turn, so that their dependency chains overlap.
    #[inline(always)]
    fn quantize<const M: usize>(&mut self, which: [usize; M], range: Range<usize>) {
        let (eb, step) = (self.eb, 2.0 * self.eb);
        let (data, len) = (self.data, self.len);
        let mut gathered = self.gathered.iter_mut();
        let x = which.map(|k| {
            let buf = gathered.next().expect("a buffer per lane");
            data.read(k * len + range.start..k * len + range.end, buf)
        });
        let mut prev = which.map(|k| self.prev[k]);
        let distinct = "distinct lanes";
        let symbols = self.output.get_disjoint_mut(which).expect(distinct);
        let symbols = symbols.map(|lane| &mut lane[range.clone()]);
        let outliers = self.outliers.get_disjoint_mut(which).expect(distinct);
        for i in 0..range.len() {
            for j in 0..M {
                symbols[j][i] = quantize(x[j][i], &mut prev[j], step, eb, outliers[j]);
                self.histogram.add(symbols[j][i]);
            }
        }
        for (j, k) in which.into_iter().enumerate() {
            self.prev[k] = prev[j];
        }
    }

    /// Moves lane `k`'s predictor past its verbatim block `range`.
    fn carry_verbatim(&mut self, k: usize, range: Range<usize>) {
        let at = k * self.len;
        let block = self
            .data
            .read(at + range.start..at + range.end, &mut self.gathered[0]);
        carry_verbatim(block.iter().copied(), &mut self.prev[k]);
    }
}

/// Encodes `data` with absolute error bound `eb`, appending to `out`.
///
/// # Panics
/// Panics if `eb` is not finite and positive, or `data` holds 2^32 values
/// or more.
pub fn encode(data: &[f64], eb: f64, out: &mut Vec<u8>) {
    encode_planes(Planes::new(data), eb, out);
}

/// [`encode`] over a value sequence read in place.
pub(crate) fn encode_planes<const S: usize>(data: Planes<'_, S>, eb: f64, out: &mut Vec<u8>) {
    assert!(eb.is_finite() && eb > 0.0, "error bound must be positive");
    assert!(u32::try_from(data.len()).is_ok(), "input too long");
    varint::write_u64(out, data.len() as u64);
    out.extend_from_slice(&eb.to_le_bytes());
    if data.is_empty() {
        return;
    }
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.classify_blocks(data, eb);
        scratch.write_classes(data, out);
        if scratch.plan.iter().any(|&(class, _)| class == QUANTISED) {
            scratch.quantize_lanes(data, eb);
            scratch.write_symbols(out);
            scratch.write_outliers(out);
        }
    });
}

impl Scratch {
    /// The class scan: fills `plan` from `data`.
    fn classify_blocks<const S: usize>(&mut self, data: Planes<'_, S>, eb: f64) {
        let mut buf = [0.0; BLOCK];
        let mut stored = None;
        self.plan.clear();
        self.plan.extend(blocks(data.len()).map(|block| {
            let (class, c) = classify(data.read(block, &mut buf), eb);
            if class == CONSTANT && stored.replace(c.to_bits()) == Some(c.to_bits()) {
                (REPEAT, c)
            } else {
                (class, c)
            }
        }));
    }

    /// The class table, the constants and the verbatim values.
    fn write_classes<const S: usize>(&self, data: Planes<'_, S>, out: &mut Vec<u8>) {
        write_class_table(self.plan.iter().map(|&(class, _)| class), out);
        for &(class, c) in &self.plan {
            if class == CONSTANT {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        let verbatim = self.plan.iter().filter(|b| b.0 == VERBATIM).count();
        out.reserve(verbatim * BLOCK * 8);
        for (block, &(class, _)) in blocks(data.len()).zip(&self.plan) {
            if class == VERBATIM {
                data.extend_le_bytes(block, out);
            }
        }
    }

    /// Steps 1–3 over the quantised blocks: fills their `symbols`, the
    /// `histogram` and `outliers`.
    fn quantize_lanes<const S: usize>(&mut self, data: Planes<'_, S>, eb: f64) {
        let n = data.len();
        self.symbols.resize(n, ESCAPE);
        self.outliers.iter_mut().for_each(Vec::clear);

        let len = lane_len(n);
        let rows = len / BLOCK;
        let mut output = self.symbols.chunks_mut(len);
        let mut plan = self.plan.chunks(rows);
        let plan: [&[(u8, f64)]; LANES] = std::array::from_fn(|_| plan.next().unwrap_or(&[]));
        let mut lanes = Lanes {
            data,
            len,
            output: std::array::from_fn(|_| output.next().unwrap_or(&mut [])),
            prev: [0.0; LANES],
            outliers: &mut self.outliers,
            histogram: &mut self.histogram,
            eb,
            gathered: [[0.0; BLOCK]; LANES],
        };

        for row in 0..rows {
            let at = row * BLOCK;
            // The lanes with a whole quantised block in this row; the others
            // only move their predictor.
            let (mut whole, mut count) = ([0; LANES], 0);
            for (k, plan) in plan.iter().enumerate() {
                let Some(&(class, c)) = plan.get(row) else {
                    continue;
                };
                // A lane with a block in this row holds values past `at`.
                let end = (n - k * len).min(at + BLOCK);
                match class {
                    QUANTISED if end == at + BLOCK => {
                        whole[count] = k;
                        count += 1;
                    }
                    // The stream's short last block.
                    QUANTISED => lanes.quantize([k], at..end),
                    VERBATIM => lanes.carry_verbatim(k, at..end),
                    _ => lanes.prev[k] = c,
                }
            }
            let block = at..at + BLOCK;
            match whole[..count] {
                [a, b, c, d] => lanes.quantize([a, b, c, d], block),
                [a, b, c] => lanes.quantize([a, b, c], block),
                [a, b] => lanes.quantize([a, b], block),
                [a] => lanes.quantize([a], block),
                _ => {}
            }
        }
    }

    /// Step 4: the code-length table and the entropy-coded symbol stream.
    fn write_symbols(&mut self, out: &mut Vec<u8>) {
        self.histogram.drain_into(&mut self.freqs);
        let lengths = huffman::build_code_lengths(&self.freqs);
        CanonicalCode::serialize_lengths(&lengths, out);
        // A single-symbol alphabet needs no payload at all — the count is
        // in the class table.
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
        for (symbols, &(class, _)) in self.symbols.chunks(BLOCK).zip(&self.plan) {
            if class == QUANTISED {
                for &s in symbols {
                    self.code.encode(&mut w, s);
                }
            }
        }
        *out = w.into_bytes();
        debug_assert_eq!(out.len() - start, payload_len);
    }

    fn write_outliers(&self, out: &mut Vec<u8>) {
        let count: usize = self.outliers.iter().map(Vec::len).sum();
        varint::write_u64(out, count as u64);
        out.reserve(count * 8);
        for lane in &self.outliers {
            Planes::new(lane).extend_le_bytes(0..lane.len(), out);
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

/// What the encoder decided for one stream: blocks per class and bytes per
/// section (see [`block_mix`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockMix {
    /// Blocks stored as one value.
    pub constant: usize,
    /// Constant blocks that repeat the value stored before them.
    pub repeat: usize,
    /// Blocks copied byte for byte.
    pub verbatim: usize,
    /// Blocks that went through predict → quantise → Huffman.
    pub quantised: usize,
    /// Bytes of the count, the bound and the class table.
    pub header_bytes: usize,
    /// Bytes of the stored constants.
    pub constant_bytes: usize,
    /// Bytes of the verbatim values.
    pub verbatim_bytes: usize,
    /// Bytes of the Huffman table, the symbol payload and the outlier list.
    pub quantised_bytes: usize,
}

/// The sections of a stream that the class table sizes, cut out of it with
/// every length checked against the bytes that are there.
struct Sections<'a> {
    /// Two bits a block, first block lowest.
    classes: &'a [u8],
    constants: &'a [u8],
    verbatim: &'a [u8],
    /// Values in quantised blocks: what the symbol stream must hold.
    quantised_values: usize,
    mix: BlockMix,
}

impl<'a> Sections<'a> {
    /// Reads the class table of a stream of `n` values at `*pos` and
    /// the constants and verbatim values it promises, leaving `*pos` at the
    /// Huffman table (or the end).
    fn parse(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<Sections<'a>, SzError> {
        let blocks = n.div_ceil(BLOCK);
        let classes = take(buf, pos, Some(blocks.div_ceil(4)))
            .ok_or(SzError::Corrupt("truncated class table"))?;
        let mut s = Sections {
            classes,
            constants: &[],
            verbatim: &[],
            quantised_values: 0,
            mix: BlockMix {
                header_bytes: *pos,
                ..BlockMix::default()
            },
        };
        let mut verbatim_values = 0usize;
        for b in 0..blocks {
            let len = BLOCK.min(n - b * BLOCK);
            match s.class(b) {
                CONSTANT => s.mix.constant += 1,
                REPEAT => s.mix.repeat += 1,
                VERBATIM => {
                    s.mix.verbatim += 1;
                    verbatim_values += len;
                }
                _ => {
                    s.mix.quantised += 1;
                    s.quantised_values += len;
                }
            }
        }
        s.constants = take(buf, pos, s.mix.constant.checked_mul(8))
            .ok_or(SzError::Corrupt("truncated constants"))?;
        s.verbatim = take(buf, pos, verbatim_values.checked_mul(8))
            .ok_or(SzError::Corrupt("truncated verbatim values"))?;
        s.mix.constant_bytes = s.constants.len();
        s.mix.verbatim_bytes = s.verbatim.len();
        s.mix.quantised_bytes = buf.len() - *pos;
        Ok(s)
    }

    fn class(&self, block: usize) -> u8 {
        (self.classes[block / 4] >> (2 * (block % 4))) & 3
    }
}

/// The count and the error bound a stream starts with.
fn read_header(buf: &[u8], pos: &mut usize) -> Result<(u64, f64), SzError> {
    let n = varint::read_u64(buf, pos)?;
    let eb_bytes = take(buf, pos, Some(8)).ok_or(SzError::Corrupt("missing error bound"))?;
    let eb = f64::from_le_bytes(eb_bytes.try_into().expect("eight bytes taken"));
    if !(eb.is_finite() && eb > 0.0) {
        return Err(SzError::Corrupt("invalid error bound"));
    }
    Ok((n, eb))
}

/// What the encoder decided for `payload`, read from its header and class
/// table without decoding a value.
pub fn block_mix(payload: &[u8]) -> Result<BlockMix, SzError> {
    let mut pos = 0usize;
    let (n, _) = read_header(payload, &mut pos)?;
    let n = usize::try_from(n).map_err(|_| SzError::Corrupt("count past the address space"))?;
    Ok(Sections::parse(payload, &mut pos, n)?.mix)
}

/// Decompresses into `out` (length must match). Returns the error bound the
/// stream was encoded with.
pub fn decode(buf: &[u8], out: &mut [f64]) -> Result<f64, SzError> {
    decode_planes(buf, PlanesMut::new(out))
}

/// [`decode`] into a value sequence written in place.
pub(crate) fn decode_planes<const S: usize>(
    buf: &[u8],
    mut out: PlanesMut<'_, S>,
) -> Result<f64, SzError> {
    let mut pos = 0usize;
    let (n, eb) = read_header(buf, &mut pos)?;
    if n != out.len() as u64 {
        return Err(SzError::LengthMismatch {
            expected: usize::try_from(n).unwrap_or(usize::MAX),
            got: out.len(),
        });
    }
    if out.len() == 0 {
        return Ok(eb);
    }
    let step = 2.0 * eb;
    let sections = Sections::parse(buf, &mut pos, out.len())?;
    let out = &mut out;
    if sections.quantised_values == 0 {
        let mut none = [].chunks_exact(8);
        reconstruct(out, step, &sections, &mut none, || {
            Err(SzError::Corrupt("symbol outside a quantised block"))
        })?;
        return Ok(eb);
    }

    let lengths = CanonicalCode::deserialize_lengths(buf, &mut pos, sections.quantised_values)?;
    let payload_len = usize::try_from(varint::read_u64(buf, &mut pos)?).ok();
    let payload =
        take(buf, &mut pos, payload_len).ok_or(SzError::Corrupt("truncated symbol payload"))?;
    let outlier_count = usize::try_from(varint::read_u64(buf, &mut pos)?).ok();
    let outlier_bytes = outlier_count.and_then(|count| count.checked_mul(8));
    let outliers =
        take(buf, &mut pos, outlier_bytes).ok_or(SzError::Corrupt("truncated outliers"))?;
    let mut outliers = outliers.chunks_exact(8);

    if let [(symbol, _)] = lengths[..] {
        reconstruct(out, step, &sections, &mut outliers, || Ok(symbol))?;
    } else {
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.code.rebuild(&lengths)?;
            let mut symbols = scratch.code.decoder(payload);
            reconstruct(out, step, &sections, &mut outliers, || {
                Ok(symbols.next_symbol()?)
            })
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

/// Rebuilds `out` block by block, resetting the predictor at each lane
/// boundary.
#[inline(always)]
fn reconstruct<const S: usize>(
    out: &mut PlanesMut<'_, S>,
    step: f64,
    sections: &Sections<'_>,
    outliers: &mut std::slice::ChunksExact<'_, u8>,
    mut next_symbol: impl FnMut() -> Result<u16, SzError>,
) -> Result<(), SzError> {
    let n = out.len();
    let rows = lane_len(n) / BLOCK;
    let mut constants = sections.constants.chunks_exact(8);
    let mut verbatim = sections.verbatim.chunks(BLOCK * 8);
    let mut stored = None;
    let mut prev = 0.0f64;
    for (b, block) in blocks(n).enumerate() {
        if b % rows == 0 {
            prev = 0.0;
        }
        match sections.class(b) {
            class @ (CONSTANT | REPEAT) => {
                if class == CONSTANT {
                    let bytes = constants
                        .next()
                        .ok_or(SzError::Corrupt("constant underrun"))?;
                    let c = f64_le(bytes);
                    if !c.is_finite() {
                        return Err(SzError::Corrupt("non-finite constant"));
                    }
                    stored = Some(c);
                }
                prev = stored.ok_or(SzError::Corrupt("repeat before any constant"))?;
                out.fill(block, prev);
            }
            VERBATIM => {
                // Only the stream's last block is short, and the verbatim
                // section was cut to the lengths of its blocks in order.
                let bytes = verbatim
                    .next()
                    .filter(|bytes| bytes.len() == block.len() * 8)
                    .ok_or(SzError::Corrupt("verbatim underrun"))?;
                out.set_le_bytes(block.start, bytes);
                carry_verbatim(bytes.chunks_exact(8).map(f64_le), &mut prev);
            }
            _ => out.try_set_each::<SzError>(block, || {
                let s = next_symbol()?;
                if s == ESCAPE {
                    let bytes = outliers
                        .next()
                        .ok_or(SzError::Corrupt("outlier underrun"))?;
                    let x = f64_le(bytes);
                    prev = if x.is_finite() { x } else { 0.0 };
                    Ok(x)
                } else {
                    let q = s as i64 - RADIUS;
                    prev += q as f64 * step;
                    Ok(prev)
                }
            })?,
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
        // 512 blocks: one stored constant and 511 repeats, so the stream is
        // its 128-byte class table, the count, the bound and eight bytes.
        let data = vec![0.125f64; 65536];
        let size = assert_bounded(&data, 1e-10);
        assert_eq!(size, 3 + 8 + 128 + 8);
    }

    #[test]
    fn small_chunks_keep_their_bytes() {
        // One chunk of 2^10 and of 2^16 amplitudes as the store hands it
        // over (re plane, then im plane): all zero, or one repeated value.
        // The streams this format replaced took 17 / 18 bytes for the zeros
        // and 308 / 16 438 for the value; the allowance is those of the
        // zeros plus the class table plus one constant.
        for (amps, old) in [(1usize << 10, 17), (1 << 16, 18)] {
            let table = (2 * amps).div_ceil(BLOCK).div_ceil(4);
            for value in [0.0, 0.03125] {
                let size = assert_bounded(&vec![value; 2 * amps], 1e-10);
                assert!(size <= old + table + 8, "{amps} x {value}: {size} B");
            }
        }
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
    fn incompressible_data_costs_its_own_bytes() {
        // Noise far outside the predictor's reach is copied: the raw bytes
        // plus the header and the class table, nothing per value.
        let mut seed = 5u64;
        let data: Vec<f64> = (0..1 << 15).map(|_| uniform(&mut seed) * 1e-3).collect();
        let size = assert_bounded(&data, 1e-10);
        assert_eq!(size, 3 + 8 + 64 + data.len() * 8);
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

        // A block that is one value but for a NaN or an infinity is not a
        // constant block (`f64::min` / `max` skip a NaN: a scan built on
        // them folds it away), wherever the odd value sits; nor is a block
        // of nothing but one non-finite value.
        for odd in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 2, BLOCK - 1] {
                for len in [BLOCK, 3 * BLOCK, 3 * BLOCK + 5] {
                    let mut data = vec![0.25f64; len];
                    data[len - BLOCK + at] = odd;
                    assert_bounded(&data, 1e-6);
                    let mut buf = Vec::new();
                    encode(&data, 1e-6, &mut buf);
                    let mix = block_mix(&buf).unwrap();
                    assert_eq!(mix.constant + mix.repeat, len.div_ceil(BLOCK) - 1);
                }
            }
            assert_bounded(&[odd; BLOCK + 1], 1e-6);
        }
        // Both zeros are one value to the bound, and a block of either alone
        // comes back with its sign.
        let mut zeros = vec![-0.0f64; 2 * BLOCK];
        zeros[BLOCK..].fill(0.0);
        let mut buf = Vec::new();
        encode(&zeros, 1e-6, &mut buf);
        let mut out = vec![1.0; zeros.len()];
        decode(&buf, &mut out).unwrap();
        assert!(zeros
            .iter()
            .zip(&out)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn jitter_within_the_bound_is_one_constant() {
        // Values eb/2 apart around a level: one stored value a block, within
        // eb of each of them; a spread of more than 2·eb is not constant.
        let eb = 1e-10;
        let level = 4.8828125e-4;
        let jitter: Vec<f64> = (0..4 * BLOCK)
            .map(|i| level + (i % 4) as f64 * eb / 2.0)
            .collect();
        assert_bounded(&jitter, eb);
        let mut buf = Vec::new();
        encode(&jitter, eb, &mut buf);
        let mix = block_mix(&buf).unwrap();
        assert_eq!((mix.constant + mix.repeat, mix.quantised), (4, 0));

        let wide: Vec<f64> = (0..BLOCK)
            .map(|i| level + (i % 2) as f64 * 2.5 * eb)
            .collect();
        assert_bounded(&wide, eb);
        buf.clear();
        encode(&wide, eb, &mut buf);
        assert_eq!(block_mix(&buf).unwrap().quantised, 1);
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

    // --- the format, spelled naively -------------------------------------------

    /// The stream layout written the slow way — the class scan as plain
    /// loops, one predictor chain through libm's `round` run lane by lane, a
    /// `BTreeMap` histogram, canonical codes assigned by sorting and written
    /// a bit at a time. Returns the class of every block.
    fn reference_encode(data: &[f64], eb: f64, out: &mut Vec<u8>) -> Vec<u8> {
        use std::collections::BTreeMap;
        varint::write_u64(out, data.len() as u64);
        out.extend_from_slice(&eb.to_le_bytes());
        if data.is_empty() {
            return Vec::new();
        }
        let step = 2.0 * eb;

        // The class scan. `value[b]` is what a constant or repeat block b
        // decodes to.
        let mut classes: Vec<u8> = Vec::new();
        let mut value: Vec<f64> = Vec::new();
        let mut stored: Option<u64> = None;
        for block in data.chunks(BLOCK) {
            let mut constant = None;
            if block.iter().all(|x| x.to_bits() == block[0].to_bits()) {
                if block[0].is_finite() {
                    constant = Some(block[0]);
                }
            } else if block
                .iter()
                .all(|x| x.is_finite() && (x - block[0]).abs() <= 2.0 * eb)
            {
                let (mut lo, mut hi) = (block[0], block[0]);
                for &x in block {
                    if x < lo {
                        lo = x;
                    }
                    if x > hi {
                        hi = x;
                    }
                }
                let mid = lo + (hi - lo) / 2.0;
                if (mid - lo).abs() <= eb && (hi - mid).abs() <= eb {
                    constant = Some(mid);
                }
            }
            let mut far = 0;
            for i in 1..block.len() {
                let d = (block[i] - block[i - 1]).abs();
                if d.is_nan() || d >= ((RADIUS - 1) as f64 - 0.5) * step {
                    far += 1;
                }
            }
            classes.push(match constant {
                Some(c) if stored == Some(c.to_bits()) => REPEAT,
                Some(c) => {
                    stored = Some(c.to_bits());
                    CONSTANT
                }
                None if 2 * far > block.len() - 1 => VERBATIM,
                None => QUANTISED,
            });
            value.push(constant.unwrap_or(0.0));
        }

        let mut table = vec![0u8; classes.len().div_ceil(4)];
        for (b, &class) in classes.iter().enumerate() {
            table[b / 4] |= class << (2 * (b % 4));
        }
        out.extend_from_slice(&table);
        for (b, &class) in classes.iter().enumerate() {
            if class == CONSTANT {
                out.extend_from_slice(&value[b].to_le_bytes());
            }
        }
        for (b, block) in data.chunks(BLOCK).enumerate() {
            if classes[b] == VERBATIM {
                for x in block {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        if !classes.contains(&QUANTISED) {
            return classes;
        }

        // Whole blocks to a lane, a quarter of the values rounded up.
        let blocks_per_lane = data.len().div_ceil(LANES).div_ceil(BLOCK);
        let mut symbols: Vec<u16> = Vec::new();
        let mut outliers: Vec<u8> = Vec::new();
        let mut prev = 0.0f64;
        for (b, block) in data.chunks(BLOCK).enumerate() {
            if b % blocks_per_lane == 0 {
                prev = 0.0;
            }
            match classes[b] {
                CONSTANT | REPEAT => prev = value[b],
                VERBATIM => {
                    for &x in block {
                        if x.is_finite() {
                            prev = x;
                        }
                    }
                }
                _ => {
                    for &x in block {
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
        classes
    }

    fn uniform(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*seed >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// The input shapes of the format tests, `n` values each.
    fn shapes(n: usize) -> Vec<(&'static str, Vec<f64>)> {
        let mut seed = n as u64;
        let smooth = |i: usize| (i as f64 * 1e-3).sin() * 0.01;
        let mut runs_seed = seed ^ 0xABCD;
        let mut level = 0.0;
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
            (
                // Runs of 90 values, so that blocks of every class meet and
                // straddle runs: a level, the same level again, jitter
                // around it, a ramp, noise, a level with one NaN.
                "runs of every class",
                (0..n)
                    .map(|i| {
                        if i % 90 == 0 && (i / 90) % 6 < 2 {
                            level = uniform(&mut runs_seed) * 1e-2;
                        }
                        match (i / 90) % 6 {
                            0 | 1 => level,
                            2 => level + (i % 3) as f64 * 2e-14,
                            3 => level + (i % 90) as f64 * 1e-7,
                            4 => uniform(&mut runs_seed),
                            _ if i % 90 == 45 => f64::NAN,
                            _ => level,
                        }
                    })
                    .collect(),
            ),
        ]
    }

    #[test]
    fn interleaved_lanes_match_the_lane_by_lane_reference_byte_for_byte() {
        let lengths = [
            0,
            1,
            2,
            3,
            4,
            5,
            7,
            127,
            128,
            129,
            511,
            512,
            513,
            4095,
            4097,
            1 << 17,
        ];
        for n in lengths {
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
        // Every block at work in the quantiser, whatever its spread.
        let mut want = Vec::new();
        let classes = reference_encode(&data, eb, &mut want);
        assert!(classes.contains(&QUANTISED));
        let mut got = Vec::new();
        encode(&data, eb, &mut got);
        assert_eq!(got, want);
        assert_bounded(&data, eb);
    }

    #[test]
    fn block_mix_reads_what_the_encoder_decided() {
        for n in [0, 1, 129, 4097, 1 << 15] {
            for (shape, data) in shapes(n) {
                let mut buf = Vec::new();
                let classes = reference_encode(&data, 1e-10, &mut buf);
                let count = |class| classes.iter().filter(|&&c| c == class).count();
                let mix = block_mix(&buf).unwrap();
                assert_eq!(
                    [mix.constant, mix.repeat, mix.verbatim, mix.quantised],
                    [CONSTANT, REPEAT, VERBATIM, QUANTISED].map(count),
                    "n={n} {shape}"
                );
                assert_eq!(
                    mix.header_bytes
                        + mix.constant_bytes
                        + mix.verbatim_bytes
                        + mix.quantised_bytes,
                    buf.len()
                );
                assert_eq!(mix.constant_bytes, 8 * mix.constant);
                assert_eq!(mix.quantised_bytes == 0, mix.quantised == 0);
                // ...and a full decode walks the same sections to the end.
                let mut out = vec![0.0; n];
                decode(&buf, &mut out).unwrap();
            }
        }
    }

    #[test]
    fn every_lane_restarts_its_predictor() {
        // Ramps steep enough to be quantised everywhere: what a lane decodes
        // to does not depend on what the lanes before it held.
        let ramp = |from: f64| (0..4096).map(move |i| from + i as f64 * 1e-9);
        let a: Vec<f64> = ramp(0.125).collect();
        let mut b = a.clone();
        for (slot, x) in b.iter_mut().zip(ramp(-3.0)).take(1024) {
            *slot = x;
        }
        let decoded = |data: &[f64]| {
            let mut buf = Vec::new();
            encode(data, 1e-10, &mut buf);
            assert_eq!(block_mix(&buf).unwrap().quantised, 32);
            let mut out = vec![0.0; data.len()];
            decode(&buf, &mut out).unwrap();
            out
        };
        let (a, b) = (decoded(&a), decoded(&b));
        assert_ne!(a[..1024], b[..1024]);
        assert_eq!(a[1024..], b[1024..]);
    }

    // --- hostile streams -------------------------------------------------------

    /// `count`, `eb` and the class table of `classes`: what every crafted
    /// stream below starts with.
    fn crafted_prefix(count: u64, classes: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, count);
        buf.extend_from_slice(&1e-6f64.to_le_bytes());
        write_class_table(classes.iter().copied(), &mut buf);
        buf
    }

    /// A crafted stream of four quantised values up to its two-symbol
    /// length table.
    fn crafted_quantised_prefix() -> Vec<u8> {
        let mut buf = crafted_prefix(4, &[QUANTISED]);
        CanonicalCode::serialize_lengths(&[(ESCAPE, 1), (RADIUS as u16, 1)], &mut buf);
        buf
    }

    #[test]
    fn symbol_past_the_alphabet_is_a_typed_error() {
        // One table entry whose symbol is u32::MAX: sizing a table by it
        // would ask for 32 GiB.
        let mut buf = crafted_prefix(4, &[QUANTISED]);
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
        // Three symbols for two values; and for 129 values of which one
        // block is constant, 129 symbols for the one value left.
        let mut buf = crafted_prefix(2, &[QUANTISED]);
        CanonicalCode::serialize_lengths(&[(1, 2), (2, 2), (3, 2)], &mut buf);
        let mut out = [0.0f64; 2];
        assert_eq!(
            decode(&buf, &mut out),
            Err(SzError::Huffman(HuffmanError::InvalidLengths))
        );

        let mut buf = crafted_prefix(129, &[CONSTANT, QUANTISED]);
        buf.extend_from_slice(&0.5f64.to_le_bytes());
        let table: Vec<(u16, u8)> = (1..=129).map(|s| (s, 8)).collect();
        CanonicalCode::serialize_lengths(&table, &mut buf);
        let mut out = [0.0f64; 129];
        assert_eq!(
            decode(&buf, &mut out),
            Err(SzError::Huffman(HuffmanError::InvalidLengths))
        );
    }

    #[test]
    fn wrapping_payload_length_is_a_typed_error() {
        let mut buf = crafted_quantised_prefix();
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
        let mut buf = crafted_quantised_prefix();
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
    fn truncated_class_table_is_a_typed_error() {
        // Eight blocks need two table bytes.
        let buf = crafted_prefix(1000, &[CONSTANT; 4]);
        let mut out = [0.0f64; 1000];
        let err = Err(SzError::Corrupt("truncated class table"));
        assert_eq!(decode(&buf, &mut out), err);
        assert_eq!(block_mix(&buf), err.map(|_| BlockMix::default()));
    }

    #[test]
    fn count_no_stream_can_hold_is_a_typed_error() {
        // A count whose class table alone is 2^55 bytes — and times eight
        // wraps — read where no output buffer vouches for it.
        let buf = crafted_prefix(u64::MAX, &[VERBATIM; 64]);
        assert_eq!(
            block_mix(&buf),
            Err(SzError::Corrupt("truncated class table"))
        );
    }

    #[test]
    fn sections_shorter_than_the_classes_promise_are_typed_errors() {
        let mut out = [0.0f64; 2 * BLOCK];
        let mut buf = crafted_prefix(out.len() as u64, &[CONSTANT, CONSTANT]);
        buf.extend_from_slice(&0.5f64.to_le_bytes());
        let err = Err(SzError::Corrupt("truncated constants"));
        assert_eq!(decode(&buf, &mut out), err);
        assert_eq!(block_mix(&buf), err.map(|_| BlockMix::default()));

        let mut buf = crafted_prefix(out.len() as u64, &[VERBATIM, VERBATIM]);
        buf.extend_from_slice(&[0; 8 * (BLOCK + 1)]);
        let err = Err(SzError::Corrupt("truncated verbatim values"));
        assert_eq!(decode(&buf, &mut out), err);
        assert_eq!(block_mix(&buf), err.map(|_| BlockMix::default()));
    }

    #[test]
    fn repeat_needs_a_constant_before_it() {
        // Nothing to repeat at the head of the stream...
        let mut out = [0.0f64; 8 * BLOCK];
        let err = Err(SzError::Corrupt("repeat before any constant"));
        let buf = crafted_prefix(BLOCK as u64, &[REPEAT]);
        assert_eq!(decode(&buf, &mut out[..BLOCK]), err);
        // ...nor at the head of the second lane (two blocks to a lane here)
        // when the first held no constant.
        let mut classes = [REPEAT; 8];
        classes[..2].fill(VERBATIM);
        let mut buf = crafted_prefix(out.len() as u64, &classes);
        buf.extend_from_slice(&[0; 8 * 2 * BLOCK]);
        assert_eq!(decode(&buf, &mut out), err);
        // After one it is legal there: the constant is data, not predictor
        // state, and crosses the lane boundary.
        classes[..2].copy_from_slice(&[CONSTANT, REPEAT]);
        let mut buf = crafted_prefix(out.len() as u64, &classes);
        buf.extend_from_slice(&0.75f64.to_le_bytes());
        assert_eq!(decode(&buf, &mut out), Ok(1e-6));
        assert_eq!(out, [0.75; 8 * BLOCK]);
    }

    #[test]
    fn non_finite_constant_is_a_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut buf = crafted_prefix(BLOCK as u64, &[CONSTANT]);
            buf.extend_from_slice(&bad.to_le_bytes());
            let mut out = [0.0f64; BLOCK];
            assert_eq!(
                decode(&buf, &mut out),
                Err(SzError::Corrupt("non-finite constant"))
            );
        }
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
        let flat: Vec<f64> = (0..5 * BLOCK + 9)
            .map(|i| [0.0, 0.25, 0.25, -1.5, 0.0, 0.25][i / BLOCK])
            .collect();
        let noise: Vec<f64> = (0..3 * BLOCK + 1).map(|_| uniform(&mut seed)).collect();
        let mixed = shapes(4 * BLOCK + 30).pop().expect("the runs shape").1;
        for (data, eb) in [
            (&smooth, 1e-6),
            (&rough, 1e-5),
            (&zeros, 1e-10),
            (&flat, 1e-10),
            (&noise, 1e-10),
            (&mixed, 1e-10),
        ] {
            let mut valid = Vec::new();
            encode(data, eb, &mut valid);
            let mut out = vec![0.0f64; data.len()];
            let check = |bytes: &[u8], out: &mut [f64]| {
                if let Ok(eb) = decode(bytes, out) {
                    assert!(eb.is_finite() && eb > 0.0);
                }
                let _ = block_mix(bytes);
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
