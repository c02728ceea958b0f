//! Bit-manipulation kernel for amplitude indexing.
//!
//! State-vector simulation is, at heart, index arithmetic: a gate on qubit
//! `q` couples amplitude `i` (with bit `q` clear) to amplitude `i | 1<<q`.
//! Iterating over all such pairs without branching is done by *inserting* a
//! zero bit at position `q` into a dense counter — [`insert_zero_bit`].
//! The chunked store additionally needs to split a global amplitude index
//! into `(chunk, offset)` pairs and to know which chunk a cross-chunk gate
//! pairs with — [`split_index`], [`pair_chunk`].

/// Inserts a `0` bit at position `pos` of `i`, shifting higher bits left.
///
/// Mapping the dense range `0..2^(n-1)` through this function enumerates all
/// indices of an `n`-bit space whose bit `pos` is zero, in increasing order.
///
/// ```
/// use mq_num::bits::insert_zero_bit;
/// // indices with bit 1 clear, over a 3-bit space: 000,001,100,101
/// let got: Vec<usize> = (0..4).map(|i| insert_zero_bit(i, 1)).collect();
/// assert_eq!(got, vec![0b000, 0b001, 0b100, 0b101]);
/// ```
#[inline]
pub fn insert_zero_bit(i: usize, pos: u32) -> usize {
    let low_mask = (1usize << pos) - 1;
    let low = i & low_mask;
    let high = (i & !low_mask) << 1;
    high | low
}

/// Inserts two `0` bits at (distinct) positions `p_lo < p_hi`.
///
/// Enumerates indices with both bits clear — the pair-iteration kernel for
/// two-qubit gates.
#[inline]
pub fn insert_two_zero_bits(i: usize, p_lo: u32, p_hi: u32) -> usize {
    debug_assert!(p_lo < p_hi);
    // Insert at the lower position first, then the higher (whose index is
    // unaffected because p_hi > p_lo even after the first insertion shifts
    // bits >= p_lo up by one — p_hi is given in the *final* index space).
    insert_zero_bit(insert_zero_bit(i, p_lo), p_hi)
}

/// True if `i`'s bit `pos` is set.
#[inline]
pub fn bit(i: usize, pos: u32) -> bool {
    (i >> pos) & 1 == 1
}

/// Sets bit `pos` of `i`.
#[inline]
pub fn set_bit(i: usize, pos: u32) -> usize {
    i | (1usize << pos)
}

/// Clears bit `pos` of `i`.
#[inline]
pub fn clear_bit(i: usize, pos: u32) -> usize {
    i & !(1usize << pos)
}

/// Flips bit `pos` of `i`.
#[inline]
pub fn flip_bit(i: usize, pos: u32) -> usize {
    i ^ (1usize << pos)
}

/// Reverses the low `n` bits of `i` (bits `n..` must be zero).
///
/// Used by the QFT, whose natural output is bit-reversed.
#[inline]
pub fn bit_reverse(i: usize, n: u32) -> usize {
    debug_assert!(n == 0 || i >> n == 0, "high bits must be clear");
    if n == 0 {
        return 0;
    }
    i.reverse_bits() >> (usize::BITS - n)
}

/// `ceil(log2(x))` for `x >= 1`.
#[inline]
pub fn ceil_log2(x: usize) -> u32 {
    assert!(x >= 1);
    if x == 1 {
        0
    } else {
        usize::BITS - (x - 1).leading_zeros()
    }
}

/// `floor(log2(x))` for `x >= 1`.
#[inline]
pub fn floor_log2(x: usize) -> u32 {
    assert!(x >= 1);
    usize::BITS - 1 - x.leading_zeros()
}

/// True if `x` is a power of two (and nonzero).
#[inline]
pub fn is_pow2(x: usize) -> bool {
    x != 0 && x & (x - 1) == 0
}

/// Splits a global amplitude index into `(chunk_index, offset_in_chunk)` for
/// chunks of `2^chunk_bits` amplitudes.
#[inline]
pub fn split_index(global: usize, chunk_bits: u32) -> (usize, usize) {
    (global >> chunk_bits, global & ((1usize << chunk_bits) - 1))
}

/// Joins `(chunk_index, offset)` back into a global amplitude index.
#[inline]
pub fn join_index(chunk: usize, offset: usize, chunk_bits: u32) -> usize {
    (chunk << chunk_bits) | offset
}

/// For a gate on global qubit `q >= chunk_bits`, returns the chunk paired
/// with `chunk` (they hold the two halves of each amplitude pair).
#[inline]
pub fn pair_chunk(chunk: usize, q: u32, chunk_bits: u32) -> usize {
    debug_assert!(q >= chunk_bits);
    chunk ^ (1usize << (q - chunk_bits))
}

/// Iterator over all amplitude-pair base indices for a gate on qubit `q` in
/// an `n`-qubit register: yields every index with bit `q` clear.
pub fn pair_bases(n_qubits: u32, q: u32) -> impl Iterator<Item = usize> {
    debug_assert!(q < n_qubits);
    (0..1usize << (n_qubits - 1)).map(move |i| insert_zero_bit(i, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_zero_bit_enumerates_cleared_indices() {
        for n in 1..=6u32 {
            for q in 0..n {
                let got: Vec<usize> = (0..1usize << (n - 1))
                    .map(|i| insert_zero_bit(i, q))
                    .collect();
                let want: Vec<usize> = (0..1usize << n).filter(|i| !bit(*i, q)).collect();
                assert_eq!(got, want, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn insert_two_zero_bits_enumerates_doubly_cleared() {
        let n = 5u32;
        for lo in 0..n {
            for hi in lo + 1..n {
                let got: Vec<usize> = (0..1usize << (n - 2))
                    .map(|i| insert_two_zero_bits(i, lo, hi))
                    .collect();
                let want: Vec<usize> = (0..1usize << n)
                    .filter(|i| !bit(*i, lo) && !bit(*i, hi))
                    .collect();
                assert_eq!(got, want, "lo={lo} hi={hi}");
            }
        }
    }

    #[test]
    fn bit_ops() {
        assert!(bit(0b101, 0));
        assert!(!bit(0b101, 1));
        assert_eq!(set_bit(0b100, 0), 0b101);
        assert_eq!(clear_bit(0b101, 2), 0b001);
        assert_eq!(flip_bit(0b101, 1), 0b111);
        assert_eq!(flip_bit(0b111, 1), 0b101);
    }

    #[test]
    fn bit_reverse_small() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(0, 0), 0);
        // involution
        for n in 1..=10u32 {
            for i in 0..1usize << n.min(8) {
                assert_eq!(bit_reverse(bit_reverse(i, n), n), i);
            }
        }
    }

    #[test]
    fn logs() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(1024), 10);
        assert_eq!(floor_log2(1025), 10);
    }

    #[test]
    fn pow2_check() {
        assert!(is_pow2(1));
        assert!(is_pow2(2));
        assert!(is_pow2(1 << 20));
        assert!(!is_pow2(0));
        assert!(!is_pow2(3));
        assert!(!is_pow2(12));
    }

    #[test]
    fn split_join_round_trip() {
        for chunk_bits in 0..8u32 {
            for global in 0..512usize {
                let (c, o) = split_index(global, chunk_bits);
                assert_eq!(join_index(c, o, chunk_bits), global);
                assert!(o < 1 << chunk_bits);
            }
        }
    }

    #[test]
    fn pair_chunk_is_involution_and_differs_in_one_bit() {
        let chunk_bits = 4;
        for q in 4..8u32 {
            for c in 0..16usize {
                let p = pair_chunk(c, q, chunk_bits);
                assert_ne!(p, c);
                assert_eq!(pair_chunk(p, q, chunk_bits), c);
                assert_eq!((p ^ c).count_ones(), 1);
            }
        }
    }

    #[test]
    fn pair_bases_covers_half_the_space() {
        let v: Vec<usize> = pair_bases(4, 2).collect();
        assert_eq!(v.len(), 8);
        for i in &v {
            assert!(!bit(*i, 2));
        }
    }
}
