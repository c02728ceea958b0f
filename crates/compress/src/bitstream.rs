//! Bit-granular I/O over byte buffers.
//!
//! LSB-first bit order: the first bit written lands in the least-significant
//! bit of the first byte. All codecs in this crate share these two types, so
//! their on-wire formats stay mutually consistent. Both move whole 64-bit
//! words: the writer gathers bits in an accumulator and stores it eight
//! bytes at a time, the reader loads eight bytes at the cursor and shifts.

/// Writes bit runs into a growing byte buffer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits not yet stored to `buf`, first-written bit lowest.
    acc: u64,
    /// Valid bits in `acc` (0..64).
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer that appends after the bytes already in `buf`
    /// ([`into_bytes`](BitWriter::into_bytes) hands the whole buffer back).
    pub fn appending_to(buf: Vec<u8>) -> Self {
        BitWriter {
            buf,
            acc: 0,
            nbits: 0,
        }
    }

    /// Appends the low `n` bits of `value` (n <= 64).
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        debug_assert!(n == 64 || value >> n == 0, "value has bits above n");
        self.acc |= value << self.nbits;
        let total = self.nbits + n;
        if total >= 64 {
            self.buf.extend_from_slice(&self.acc.to_le_bytes());
            // The part of `value` that did not fit (none when nbits was 0).
            self.acc = value.checked_shr(64 - self.nbits).unwrap_or(0);
            self.nbits = total - 64;
        } else {
            self.nbits = total;
        }
    }

    /// Appends one bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Pads to a byte boundary and appends a whole byte slice.
    pub fn write_bytes_aligned(&mut self, bytes: &[u8]) {
        self.flush();
        self.buf.extend_from_slice(bytes);
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align(&mut self) {
        self.nbits = self.nbits.next_multiple_of(8);
        if self.nbits == 64 {
            self.flush();
        }
    }

    /// Total bits in the buffer so far (bytes handed to
    /// [`appending_to`](BitWriter::appending_to) included).
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Finishes (zero-padding the last byte) and returns the byte buffer.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.flush();
        self.buf
    }

    /// Stores the accumulator's bits, padded to whole bytes.
    fn flush(&mut self) {
        let bytes = self.nbits.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
        self.acc = 0;
        self.nbits = 0;
    }
}

/// Reads bit runs from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

/// Error returned when a read runs past the end of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitstreamOverrun;

impl std::fmt::Display for BitstreamOverrun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bitstream overrun")
    }
}

impl std::error::Error for BitstreamOverrun {}

impl<'a> BitReader<'a> {
    /// Most bits one [`peek`](BitReader::peek) can return: a 64-bit load at
    /// a byte address leaves at least this many after dropping the up to
    /// seven bits before the cursor.
    pub const MAX_PEEK: u32 = 57;

    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// The next [`MAX_PEEK`](BitReader::MAX_PEEK) bits without consuming
    /// them, next bit lowest; bits past the end of the buffer read as zero
    /// (it is [`consume`](BitReader::consume) that reports an overrun).
    #[inline]
    pub fn peek(&self) -> u64 {
        let byte = self.pos / 8;
        let word = match self.buf.get(byte..byte + 8) {
            Some(b) => u64::from_le_bytes(b.try_into().expect("eight bytes")),
            None => {
                let mut tail = [0u8; 8];
                let rest = self.buf.get(byte..).unwrap_or(&[]);
                tail[..rest.len()].copy_from_slice(rest);
                u64::from_le_bytes(tail)
            }
        };
        (word >> (self.pos % 8)) & ((1u64 << Self::MAX_PEEK) - 1)
    }

    /// Advances the cursor by `n` bits.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<(), BitstreamOverrun> {
        if n as usize > self.remaining_bits() {
            return Err(BitstreamOverrun);
        }
        self.pos += n as usize;
        Ok(())
    }

    /// Reads `n` bits (n <= 64) as the low bits of the result.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u64, BitstreamOverrun> {
        debug_assert!(n <= 64);
        if n as usize > self.remaining_bits() {
            return Err(BitstreamOverrun);
        }
        let low_n = n.min(32);
        let low = self.peek() & ((1u64 << low_n) - 1);
        self.pos += low_n as usize;
        if n <= 32 {
            return Ok(low);
        }
        let high = self.peek() & ((1u64 << (n - 32)) - 1);
        self.pos += (n - 32) as usize;
        Ok(low | high << 32)
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, BitstreamOverrun> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Skips to the next byte boundary and reads `n` whole bytes.
    pub fn read_bytes_aligned(&mut self, n: usize) -> Result<&'a [u8], BitstreamOverrun> {
        self.align();
        let start = self.pos / 8;
        let end = start.checked_add(n).ok_or(BitstreamOverrun)?;
        let bytes = self.buf.get(start..end).ok_or(BitstreamOverrun)?;
        self.pos = end * 8;
        Ok(bytes)
    }

    /// Advances to the next byte boundary.
    pub fn align(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }

    /// Bits remaining.
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_values_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEAD, 16);
        w.write_bits(1, 1);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 0);
        w.write_bits(0x12345, 20);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xDEAD);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(20).unwrap(), 0x12345);
    }

    #[test]
    fn bit_len_tracks_writes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b11, 2);
        assert_eq!(w.bit_len(), 2);
        w.write_bits(0, 7);
        assert_eq!(w.bit_len(), 9);
    }

    #[test]
    fn aligned_bytes_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bytes_aligned(&[0xAA, 0xBB]);
        w.write_bits(0b10, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bytes_aligned(2).unwrap(), &[0xAA, 0xBB]);
        assert_eq!(r.read_bits(2).unwrap(), 0b10);
    }

    #[test]
    fn overrun_is_detected() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert_eq!(r.read_bits(1), Err(BitstreamOverrun));
        let mut r2 = BitReader::new(&bytes);
        assert_eq!(r2.read_bits(9), Err(BitstreamOverrun));
        assert_eq!(r2.read_bytes_aligned(2), Err(BitstreamOverrun));
    }

    #[test]
    fn remaining_bits_counts_down() {
        let bytes = [0u8, 0];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.remaining_bits(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.remaining_bits(), 11);
        r.align();
        assert_eq!(r.remaining_bits(), 8);
    }

    #[test]
    fn lsb_first_layout() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1); // bit 0 of byte 0
        w.write_bits(0b11, 2); // bits 1-2
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 0b0000_0111);
    }

    #[test]
    fn appending_keeps_the_bytes_already_there() {
        let mut w = BitWriter::appending_to(vec![0xAB, 0xCD]);
        w.write_bits(0b101, 3);
        assert_eq!(w.bit_len(), 19);
        assert_eq!(w.into_bytes(), [0xAB, 0xCD, 0b101]);
    }

    #[test]
    fn runs_straddling_the_accumulator_round_trip() {
        // Every offset into the 64-bit accumulator, every width.
        for offset in 0..64u32 {
            for width in 1..=64u32 {
                let value = 0xDEAD_BEEF_F00D_CAFEu64 >> (64 - width);
                let mut w = BitWriter::new();
                w.write_bits((1u64 << offset) - 1, offset);
                w.write_bits(value, width);
                w.write_bits(0b10, 2);
                let bytes = w.into_bytes();
                assert_eq!(bytes.len(), (offset + width + 2).div_ceil(8) as usize);
                let mut r = BitReader::new(&bytes);
                assert_eq!(r.read_bits(offset).unwrap(), (1u64 << offset) - 1);
                assert_eq!(r.read_bits(width).unwrap(), value);
                assert_eq!(r.read_bits(2).unwrap(), 0b10);
            }
        }
    }

    #[test]
    fn align_at_the_accumulator_boundary() {
        let mut w = BitWriter::new();
        w.write_bits(1, 57);
        w.align();
        assert_eq!(w.bit_len(), 64);
        w.write_bits(0xFF, 8);
        let bytes = w.into_bytes();
        assert_eq!(bytes, [1, 0, 0, 0, 0, 0, 0, 0, 0xFF]);
    }

    #[test]
    fn peek_pads_with_zeros_and_consume_reports_the_end() {
        let bytes = [0xFF, 0x01];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek(), 0x1FF);
        r.consume(4).unwrap();
        assert_eq!(r.peek(), 0x1F);
        assert_eq!(r.consume(13), Err(BitstreamOverrun));
        r.consume(12).unwrap();
        assert_eq!(r.peek(), 0);
        assert_eq!(r.consume(1), Err(BitstreamOverrun));
        // A full word's worth is capped at MAX_PEEK bits.
        let long = [0xFF; 16];
        let mut r = BitReader::new(&long);
        r.consume(3).unwrap();
        assert_eq!(r.peek(), (1u64 << BitReader::MAX_PEEK) - 1);
    }
}
