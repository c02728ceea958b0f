//! Canonical Huffman coding.
//!
//! Built for the SZ-style quantization-code stream: a dense alphabet of at
//! most [`ALPHABET`] symbols, heavily skewed toward the center code. Code
//! lengths are depth-limited (frequency halving) so both directions can use
//! fixed-width tables: one `(code, length)` entry per symbol to encode, a
//! prefix table indexed by the next 12 bits of the stream to decode. Codes
//! are written first bit first into the LSB-first
//! [`bitstream`](crate::bitstream), so the tables hold them bit-reversed and
//! a whole code moves in one shift.

use crate::bitstream::{BitReader, BitWriter, BitstreamOverrun};
use crate::varint;

/// Maximum code length in bits.
pub const MAX_CODE_LEN: u8 = 32;

/// Size of the symbol space: symbols are `u16`, so every per-symbol table
/// has this many entries whatever a stream claims.
pub const ALPHABET: usize = 1 << 16;

/// Width of the decode prefix table (shorter when every code is).
const LOOKUP_BITS: u32 = 12;

/// Entries of the per-length tables (index 0 unused).
const LEN_SLOTS: usize = MAX_CODE_LEN as usize + 1;

/// Builds Huffman code lengths for `(symbol, count)` pairs (counts > 0).
/// Returns `(symbol, length)` pairs. A single-symbol alphabet gets length 1.
pub fn build_code_lengths(freqs: &[(u16, u64)]) -> Vec<(u16, u8)> {
    assert!(!freqs.is_empty(), "empty alphabet");
    debug_assert!(freqs.iter().all(|&(_, c)| c > 0), "zero-count symbol");
    if freqs.len() == 1 {
        return vec![(freqs[0].0, 1)];
    }
    let mut counts: Vec<u64> = freqs.iter().map(|&(_, c)| c).collect();
    loop {
        let lengths = huffman_lengths(&counts);
        let max = lengths.iter().copied().max().unwrap_or(0);
        if max <= MAX_CODE_LEN {
            return freqs
                .iter()
                .zip(&lengths)
                .map(|(&(s, _), &l)| (s, l))
                .collect();
        }
        // Flatten the distribution and retry.
        for c in &mut counts {
            *c = (*c / 2).max(1);
        }
    }
}

/// Plain Huffman code lengths from counts (parallel array), via the
/// two-queue method on sorted leaves.
fn huffman_lengths(counts: &[u64]) -> Vec<u8> {
    let n = counts.len();
    debug_assert!(n >= 2);
    // Node arena: leaves 0..n, internal nodes after.
    #[derive(Clone, Copy)]
    struct Node {
        weight: u64,
        left: usize,
        right: usize,
    }
    let mut nodes: Vec<Node> = counts
        .iter()
        .map(|&w| Node {
            weight: w,
            left: usize::MAX,
            right: usize::MAX,
        })
        .collect();
    // Sorted leaf queue + FIFO internal queue: O(n log n) for the sort,
    // O(n) for the merge.
    let mut leaves: Vec<usize> = (0..n).collect();
    leaves.sort_by_key(|&i| counts[i]);
    let mut li = 0usize;
    let mut internals: std::collections::VecDeque<usize> = std::collections::VecDeque::new();

    let pop_min = |nodes: &Vec<Node>,
                   li: &mut usize,
                   internals: &mut std::collections::VecDeque<usize>|
     -> usize {
        let leaf = leaves.get(*li).copied();
        let internal = internals.front().copied();
        match (leaf, internal) {
            (Some(l), Some(i)) => {
                if nodes[l].weight <= nodes[i].weight {
                    *li += 1;
                    l
                } else {
                    internals.pop_front();
                    i
                }
            }
            (Some(l), None) => {
                *li += 1;
                l
            }
            (None, Some(i)) => {
                internals.pop_front();
                i
            }
            (None, None) => unreachable!("ran out of nodes"),
        }
    };

    for _ in 0..n - 1 {
        let a = pop_min(&nodes, &mut li, &mut internals);
        let b = pop_min(&nodes, &mut li, &mut internals);
        let w = nodes[a].weight.saturating_add(nodes[b].weight);
        nodes.push(Node {
            weight: w,
            left: a,
            right: b,
        });
        internals.push_back(nodes.len() - 1);
    }
    // Depth-first traversal from the root to assign depths.
    let root = nodes.len() - 1;
    let mut lengths = vec![0u8; n];
    let mut stack = vec![(root, 0u8)];
    while let Some((idx, depth)) = stack.pop() {
        let node = nodes[idx];
        if node.left == usize::MAX {
            lengths[idx] = depth.max(1);
        } else {
            stack.push((node.left, depth.saturating_add(1)));
            stack.push((node.right, depth.saturating_add(1)));
        }
    }
    lengths
}

/// A canonical Huffman code: encode and decode tables built from
/// `(symbol, length)` pairs. One value serves many codes in turn —
/// [`rebuild`](CanonicalCode::rebuild) refills the tables in place, touching
/// only the entries of the old and the new alphabet.
#[derive(Debug, Clone)]
pub struct CanonicalCode {
    /// Encode table, [`ALPHABET`] entries: `(bit-reversed code << 8) | len`;
    /// 0 = symbol absent.
    enc: Vec<u64>,
    /// Decode prefix table, indexed by the next bits of the stream — as
    /// many as the longest code has, [`LOOKUP_BITS`] at most:
    /// `(symbol << 8) | len`; 0 = no code this short starts with these bits.
    lookup: Vec<u32>,
    /// For each length 1..=MAX: the first canonical code of that length.
    first_code: [u32; LEN_SLOTS],
    /// For each length: offset into `sorted_syms` of its first symbol.
    offset: [u32; LEN_SLOTS],
    /// Count of codes per length.
    count: [u32; LEN_SLOTS],
    /// Symbols sorted by (length, symbol).
    sorted_syms: Vec<u16>,
}

/// Errors from canonical-code construction or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// Lengths do not satisfy the Kraft inequality / overfull tree, or the
    /// serialized table is malformed.
    InvalidLengths,
    /// A decoded bit pattern matches no symbol.
    BadCode,
    /// Bitstream ended mid-symbol.
    Truncated,
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::InvalidLengths => write!(f, "invalid Huffman code lengths"),
            HuffmanError::BadCode => write!(f, "bit pattern matches no Huffman symbol"),
            HuffmanError::Truncated => write!(f, "bitstream ended mid-symbol"),
        }
    }
}

impl std::error::Error for HuffmanError {}

impl From<BitstreamOverrun> for HuffmanError {
    fn from(_: BitstreamOverrun) -> Self {
        HuffmanError::Truncated
    }
}

impl Default for CanonicalCode {
    fn default() -> Self {
        CanonicalCode::new()
    }
}

impl CanonicalCode {
    /// The empty code: encodes nothing, decodes nothing, until
    /// [`rebuild`](CanonicalCode::rebuild) gives it an alphabet.
    pub fn new() -> CanonicalCode {
        CanonicalCode {
            enc: vec![0; ALPHABET],
            lookup: vec![0; 1],
            first_code: [0; LEN_SLOTS],
            offset: [0; LEN_SLOTS],
            count: [0; LEN_SLOTS],
            sorted_syms: Vec::new(),
        }
    }

    /// Builds encode/decode tables from `(symbol, length)` pairs.
    pub fn from_lengths(lengths: &[(u16, u8)]) -> Result<CanonicalCode, HuffmanError> {
        let mut code = CanonicalCode::new();
        code.rebuild(lengths)?;
        Ok(code)
    }

    /// Replaces this code with the one `lengths` describes (pairs sorted by
    /// strictly increasing symbol). On error the previous code stays.
    pub fn rebuild(&mut self, lengths: &[(u16, u8)]) -> Result<(), HuffmanError> {
        if lengths.is_empty() {
            return Err(HuffmanError::InvalidLengths);
        }
        let mut count = [0u32; LEN_SLOTS];
        let mut prev_sym = None;
        for &(s, l) in lengths {
            if l == 0 || l > MAX_CODE_LEN || prev_sym.is_some_and(|p| s <= p) {
                return Err(HuffmanError::InvalidLengths);
            }
            prev_sym = Some(s);
            count[l as usize] += 1;
        }
        // Kraft check (allow underfull trees — e.g. the 1-symbol code).
        let kraft: u64 = (1..LEN_SLOTS)
            .map(|l| (count[l] as u64) << (MAX_CODE_LEN as usize - l))
            .sum();
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(HuffmanError::InvalidLengths);
        }

        // Canonical first codes, and where each length's symbols start.
        let mut first_code = [0u32; LEN_SLOTS];
        let mut offset = [0u32; LEN_SLOTS];
        let (mut code, mut seen) = (0u32, 0u32);
        for l in 1..LEN_SLOTS {
            code = (code + count[l - 1]) << 1;
            first_code[l] = code;
            offset[l] = seen;
            seen += count[l];
        }
        let max_len = (1..LEN_SLOTS).rfind(|&l| count[l] > 0).expect("non-empty") as u32;

        for &s in &self.sorted_syms {
            self.enc[s as usize] = 0;
        }
        let lookup_bits = max_len.min(LOOKUP_BITS);
        self.lookup.clear();
        self.lookup.resize(1 << lookup_bits, 0);
        self.sorted_syms.clear();
        self.sorted_syms.resize(lengths.len(), 0);
        // `lengths` is sorted by symbol, so filling each length's run in
        // input order sorts by (length, symbol).
        let mut next = offset;
        for &(s, l) in lengths {
            let slot = next[l as usize];
            next[l as usize] += 1;
            self.sorted_syms[slot as usize] = s;
            let code = first_code[l as usize] + (slot - offset[l as usize]);
            let reversed = code.reverse_bits() >> (32 - l as u32);
            self.enc[s as usize] = (reversed as u64) << 8 | l as u64;
            if l as u32 <= lookup_bits {
                let entry = (s as u32) << 8 | l as u32;
                for slot in self.lookup[reversed as usize..].iter_mut().step_by(1 << l) {
                    *slot = entry;
                }
            }
        }
        self.first_code = first_code;
        self.offset = offset;
        self.count = count;
        Ok(())
    }

    /// Total bits `encode` will write for a stream with these `(symbol,
    /// count)` frequencies.
    pub fn encoded_bits(&self, freqs: &[(u16, u64)]) -> u64 {
        freqs
            .iter()
            .map(|&(s, c)| c * (self.enc[s as usize] & 0xFF))
            .sum()
    }

    /// Encodes one symbol (must be in the alphabet).
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, symbol: u16) {
        let entry = self.enc[symbol as usize];
        debug_assert!(entry != 0, "symbol {symbol} not in alphabet");
        w.write_bits(entry >> 8, (entry & 0xFF) as u32);
    }

    /// Starts decoding the symbol stream in `payload`.
    pub fn decoder<'a>(&'a self, payload: &'a [u8]) -> Decoder<'a> {
        Decoder {
            code: self,
            bits: BitReader::new(payload),
            last: 0,
            last_code: u64::MAX,
        }
    }

    /// The table entry `(symbol << 8) | len` of the code the stream bits
    /// `bits` start with.
    #[inline]
    fn entry_at(&self, bits: u64) -> Result<u32, HuffmanError> {
        let entry = self.lookup[bits as usize & (self.lookup.len() - 1)];
        if entry != 0 {
            return Ok(entry);
        }
        self.long_entry_at(bits)
    }

    /// The canonical walk, one bit at a time: codes longer than the prefix
    /// table, and patterns no code matches.
    #[cold]
    fn long_entry_at(&self, bits: u64) -> Result<u32, HuffmanError> {
        let mut code = 0u32;
        for len in 1..LEN_SLOTS {
            code = (code << 1) | ((bits >> (len - 1)) & 1) as u32;
            let first = self.first_code[len];
            if code >= first && code - first < self.count[len] {
                let idx = self.offset[len] + (code - first);
                return Ok((self.sorted_syms[idx as usize] as u32) << 8 | len as u32);
            }
        }
        Err(HuffmanError::BadCode)
    }

    /// Serializes the `(symbol, length)` table compactly.
    pub fn serialize_lengths(lengths: &[(u16, u8)], out: &mut Vec<u8>) {
        varint::write_u64(out, lengths.len() as u64);
        let mut prev_sym = 0u16;
        for &(s, l) in lengths {
            // Symbols are emitted sorted by the callers; delta-encode.
            varint::write_u64(out, (s - prev_sym) as u64);
            out.push(l);
            prev_sym = s;
        }
    }

    /// Inverse of [`CanonicalCode::serialize_lengths`]. A table of more than
    /// `max_symbols` entries is rejected before anything is allocated for
    /// it (a stream of `n` values uses at most `n` symbols).
    pub fn deserialize_lengths(
        buf: &[u8],
        pos: &mut usize,
        max_symbols: usize,
    ) -> Result<Vec<(u16, u8)>, HuffmanError> {
        let n = varint::read_u64(buf, pos).map_err(|_| HuffmanError::InvalidLengths)?;
        if n == 0 || n > max_symbols.min(ALPHABET) as u64 {
            return Err(HuffmanError::InvalidLengths);
        }
        let mut out = Vec::with_capacity(n as usize);
        let mut sym = 0u16;
        for i in 0..n {
            let delta = varint::read_u64(buf, pos).map_err(|_| HuffmanError::InvalidLengths)?;
            // Strictly increasing symbols after the first, none past the
            // alphabet.
            if i > 0 && delta == 0 {
                return Err(HuffmanError::InvalidLengths);
            }
            sym = u16::try_from(delta)
                .ok()
                .and_then(|d| sym.checked_add(d))
                .ok_or(HuffmanError::InvalidLengths)?;
            let l = *buf.get(*pos).ok_or(HuffmanError::InvalidLengths)?;
            *pos += 1;
            out.push((sym, l));
        }
        Ok(out)
    }
}

/// One pass over a symbol stream (see [`CanonicalCode::decoder`]).
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    code: &'a CanonicalCode,
    bits: BitReader<'a>,
    /// Table entry and stream bits of the previous symbol's code (before
    /// the first symbol: bits no stream starts with).
    last: u32,
    last_code: u64,
}

impl Decoder<'_> {
    /// Decodes the next symbol.
    #[inline]
    pub fn next_symbol(&mut self) -> Result<u16, HuffmanError> {
        let bits = self.bits.peek();
        // On the skewed streams this coder exists for, nearly every symbol
        // repeats the one before. Testing for that first lets the cursor
        // advance by a length already in a register, behind a branch that
        // predicts well, so the next load need not wait for this symbol's
        // table entry (the bit-at-a-time walk got the same from predicting
        // its exit).
        let last_len = self.last & 0xFF;
        if bits & ((1 << last_len) - 1) != self.last_code {
            self.last = self.code.entry_at(bits)?;
            self.last_code = bits & ((1 << (self.last & 0xFF)) - 1);
        }
        // Past the end the stream reads as zeros, which may well match a
        // code; it is the cursor that knows.
        self.bits.consume(self.last & 0xFF)?;
        Ok((self.last >> 8) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Code lengths for the frequencies of a symbol stream.
    fn lengths_from_symbols(symbols: impl Iterator<Item = u16>) -> Vec<(u16, u8)> {
        let mut freqs = std::collections::BTreeMap::new();
        for s in symbols {
            *freqs.entry(s).or_insert(0u64) += 1;
        }
        build_code_lengths(&freqs.into_iter().collect::<Vec<_>>())
    }

    fn round_trip(symbols: &[u16]) {
        let lengths = lengths_from_symbols(symbols.iter().copied());
        let code = CanonicalCode::from_lengths(&lengths).unwrap();
        let mut w = BitWriter::new();
        for &s in symbols {
            code.encode(&mut w, s);
        }
        let bytes = w.into_bytes();
        let mut r = code.decoder(&bytes);
        for &s in symbols {
            assert_eq!(r.next_symbol().unwrap(), s);
        }
    }

    #[test]
    fn two_symbol_round_trip() {
        round_trip(&[0, 1, 0, 0, 1, 0, 1, 1, 0]);
    }

    #[test]
    fn single_symbol_alphabet() {
        round_trip(&[42, 42, 42, 42]);
        let lengths = lengths_from_symbols([7u16, 7, 7].into_iter());
        assert_eq!(lengths, vec![(7, 1)]);
    }

    #[test]
    fn skewed_distribution_gets_short_codes() {
        // Symbol 5 dominates; it must get the shortest code.
        let mut syms = vec![5u16; 1000];
        syms.extend([1, 2, 3, 4].repeat(3));
        let lengths = lengths_from_symbols(syms.iter().copied());
        let code5 = lengths.iter().find(|&&(s, _)| s == 5).unwrap().1;
        for &(s, l) in &lengths {
            if s != 5 {
                assert!(l >= code5, "symbol {s} shorter than dominant symbol");
            }
        }
        round_trip(&syms);
    }

    #[test]
    fn large_sparse_alphabet_round_trip() {
        let symbols: Vec<u16> = (0..2000u32).map(|i| ((i * 37) % 50000) as u16).collect();
        round_trip(&symbols);
    }

    #[test]
    fn average_length_beats_fixed_width_on_skew() {
        let mut syms = vec![0u16; 10_000];
        for i in 0..100 {
            syms.push(i % 16 + 1);
        }
        let lengths = lengths_from_symbols(syms.iter().copied());
        let code = CanonicalCode::from_lengths(&lengths).unwrap();
        let mut w = BitWriter::new();
        for &s in &syms {
            code.encode(&mut w, s);
        }
        // 17 symbols would need 5 fixed bits; entropy coding must do much
        // better on this skew.
        assert!(w.bit_len() < syms.len() * 2);
    }

    #[test]
    fn lengths_serialize_round_trip() {
        let lengths = lengths_from_symbols([1u16, 1, 2, 2, 2, 900, 900, 65535].into_iter());
        let mut buf = Vec::new();
        CanonicalCode::serialize_lengths(&lengths, &mut buf);
        let mut pos = 0;
        let back = CanonicalCode::deserialize_lengths(&buf, &mut pos, 8).unwrap();
        assert_eq!(back, lengths);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn invalid_lengths_rejected() {
        // Overfull: three codes of length 1.
        let bad = vec![(0u16, 1u8), (1, 1), (2, 1)];
        assert_eq!(
            CanonicalCode::from_lengths(&bad).unwrap_err(),
            HuffmanError::InvalidLengths
        );
        // Zero length.
        assert!(CanonicalCode::from_lengths(&[(0, 0)]).is_err());
        // Duplicate symbol.
        assert!(CanonicalCode::from_lengths(&[(3, 1), (3, 2)]).is_err());
        // Empty.
        assert!(CanonicalCode::from_lengths(&[]).is_err());
    }

    #[test]
    fn truncated_stream_is_detected() {
        let lengths =
            lengths_from_symbols((0..16u16).flat_map(|s| std::iter::repeat_n(s, s as usize + 1)));
        let code = CanonicalCode::from_lengths(&lengths).unwrap();
        let mut w = BitWriter::new();
        for s in 0..16u16 {
            code.encode(&mut w, s);
        }
        let mut bytes = w.into_bytes();
        bytes.truncate(1);
        let mut r = code.decoder(&bytes);
        let mut err = None;
        for _ in 0..16 {
            match r.next_symbol() {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(
            err,
            Some(HuffmanError::Truncated) | Some(HuffmanError::BadCode)
        ));
    }

    #[test]
    fn decode_error_on_garbage_table() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 1 << 30); // absurd count
        let mut pos = 0;
        assert!(CanonicalCode::deserialize_lengths(&buf, &mut pos, usize::MAX).is_err());
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let lengths =
            lengths_from_symbols([0u16, 0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10].into_iter());
        let code = CanonicalCode::from_lengths(&lengths).unwrap();
        // Encode each symbol alone and check that no encoding is a prefix
        // of another (by decoding a concatenation back).
        let all: Vec<u16> = lengths.iter().map(|&(s, _)| s).collect();
        let mut w = BitWriter::new();
        for &s in &all {
            code.encode(&mut w, s);
        }
        let bytes = w.into_bytes();
        let mut r = code.decoder(&bytes);
        for &s in &all {
            assert_eq!(r.next_symbol().unwrap(), s);
        }
    }

    #[test]
    fn serialized_delta_past_the_alphabet_is_rejected() {
        // A delta of 2^32 + 5 used to be cast down to the "valid" symbol 5.
        for delta in [(1u64 << 32) + 5, 1 << 16, u64::MAX] {
            let mut buf = Vec::new();
            varint::write_u64(&mut buf, 1);
            varint::write_u64(&mut buf, delta);
            buf.push(1);
            assert_eq!(
                CanonicalCode::deserialize_lengths(&buf, &mut 0, 8),
                Err(HuffmanError::InvalidLengths)
            );
        }
        // So is a sum past it, a repeated symbol, and more entries than
        // the caller has values for.
        for (deltas, max) in [
            (&[65535u64, 1][..], 8),
            (&[7, 0][..], 8),
            (&[1, 1, 1][..], 2),
        ] {
            let mut buf = Vec::new();
            varint::write_u64(&mut buf, deltas.len() as u64);
            for &delta in deltas {
                varint::write_u64(&mut buf, delta);
                buf.push(1);
            }
            assert_eq!(
                CanonicalCode::deserialize_lengths(&buf, &mut 0, max),
                Err(HuffmanError::InvalidLengths),
                "{deltas:?}"
            );
        }
    }

    #[test]
    fn rebuilding_forgets_the_previous_alphabet() {
        let mut code = CanonicalCode::from_lengths(&[(3, 1), (900, 2), (65535, 2)]).unwrap();
        code.rebuild(&[(4, 1), (900, 1)]).unwrap();
        assert_eq!(code.encoded_bits(&[(3, 10), (65535, 10)]), 0);
        assert_eq!(code.encoded_bits(&[(4, 10), (900, 10)]), 20);
        // A failed rebuild leaves the code as it was.
        assert!(code.rebuild(&[(5, 1), (5, 1)]).is_err());
        let mut w = BitWriter::new();
        for s in [4, 900, 900, 4] {
            code.encode(&mut w, s);
        }
        let bytes = w.into_bytes();
        let mut r = code.decoder(&bytes);
        for s in [4, 900, 900, 4] {
            assert_eq!(r.next_symbol().unwrap(), s);
        }
    }

    #[test]
    fn codes_longer_than_the_prefix_table_round_trip() {
        // Fibonacci-like counts make a maximally deep tree: lengths run
        // from 1 to well past LOOKUP_BITS.
        let mut freqs: Vec<(u16, u64)> = Vec::new();
        let (mut a, mut b) = (1u64, 1u64);
        for s in 0..24u16 {
            freqs.push((s * 100, a));
            (a, b) = (b, a + b);
        }
        let lengths = build_code_lengths(&freqs);
        let longest = lengths.iter().map(|&(_, l)| l).max().unwrap();
        assert!(longest as u32 > LOOKUP_BITS, "longest {longest}");
        let symbols: Vec<u16> = (0..24u16).chain((0..24).rev()).map(|s| s * 100).collect();
        let code = CanonicalCode::from_lengths(&lengths).unwrap();
        let mut w = BitWriter::new();
        for &s in &symbols {
            code.encode(&mut w, s);
        }
        let bytes = w.into_bytes();
        let mut r = code.decoder(&bytes);
        for &s in &symbols {
            assert_eq!(r.next_symbol().unwrap(), s);
        }
        // Nothing is left but padding, which no decode may run past.
        assert!((0..8).any(|_| r.next_symbol().is_err()));
    }
}
