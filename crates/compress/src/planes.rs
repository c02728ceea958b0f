//! Where a codec's value sequence lives.
//!
//! Every codec encodes one sequence of `f64` values. For
//! [`Codec::compress`](crate::Codec::compress) it is the caller's slice; for a
//! chunk of amplitudes it is the chunk's **plane order** — every real part,
//! then every imaginary part — because prediction works far better within a
//! plane than across the re/im interleave. Plane order is the payload's value
//! order: an amplitude payload is byte for byte the payload of the two planes
//! laid end to end.
//!
//! [`Planes`] reads that sequence in place from `S` interleaved planes stored
//! row by row (`&[[f64; S]]`): `S = 1` is a plain slice, `S = 2` an amplitude
//! buffer, read as its real plane and then its imaginary plane. [`PlanesMut`]
//! writes it. Each codec body is written once over these views and
//! instantiated for both, so no amplitude chunk is ever copied into a
//! separate plane buffer on its way to or from a codec.

use mq_num::complex::{as_f64_slice, as_f64_slice_mut};
use mq_num::Complex64;
use std::convert::Infallible;
use std::ops::Range;

/// The parts of `range` (of a sequence of `S` planes of `rows` values each)
/// that lie in each plane, as `(plane, rows of that plane)`.
fn segments<const S: usize>(
    rows: usize,
    range: Range<usize>,
) -> impl Iterator<Item = (usize, Range<usize>)> {
    (0..S).filter_map(move |h| {
        let (first, lo, hi) = (
            h * rows,
            range.start.max(h * rows),
            range.end.min((h + 1) * rows),
        );
        (lo < hi).then(|| (h, lo - first..hi - first))
    })
}

/// A value sequence read in place: plane 0 of `rows`, then plane 1, ...
#[derive(Debug, Clone, Copy)]
pub(crate) struct Planes<'a, const S: usize> {
    rows: &'a [[f64; S]],
}

impl<'a> Planes<'a, 1> {
    /// The sequence `values`.
    pub fn new(values: &'a [f64]) -> Self {
        Planes {
            rows: values.as_chunks().0,
        }
    }
}

impl<'a> Planes<'a, 2> {
    /// The plane order of `amps`: every real part, then every imaginary part.
    pub fn of_amps(amps: &'a [Complex64]) -> Self {
        Planes {
            rows: as_f64_slice(amps).as_chunks().0,
        }
    }
}

impl<'a, const S: usize> Planes<'a, S> {
    /// Values in the sequence.
    pub fn len(self) -> usize {
        S * self.rows.len()
    }

    /// True when the sequence holds no value.
    pub fn is_empty(self) -> bool {
        self.rows.is_empty()
    }

    /// Value `i`.
    pub fn get(self, i: usize) -> f64 {
        let rows = self.rows.len();
        self.rows[i % rows][i / rows]
    }

    /// Every value once, in an unspecified order: for reductions that do not
    /// depend on it.
    pub fn unordered(self) -> &'a [f64] {
        self.rows.as_flattened()
    }

    /// Calls `f` on values `range`, in order.
    #[inline(always)]
    pub fn for_each(self, range: Range<usize>, mut f: impl FnMut(f64)) {
        for (h, rows) in segments::<S>(self.rows.len(), range) {
            for row in &self.rows[rows] {
                f(row[h]);
            }
        }
    }

    /// The first index from `start` on whose value fails `pred`, or
    /// `self.len()`.
    #[inline(always)]
    pub fn run_end(self, start: usize, pred: impl Fn(f64) -> bool) -> usize {
        for (h, rows) in segments::<S>(self.rows.len(), start..self.len()) {
            let first = h * self.rows.len() + rows.start;
            if let Some(k) = self.rows[rows].iter().position(|row| !pred(row[h])) {
                return first + k;
            }
        }
        self.len()
    }

    /// Values `range`, borrowed where they lie when the sequence is one
    /// slice, gathered into `buf` otherwise.
    ///
    /// # Panics
    /// Panics if `S > 1` and `buf` is shorter than `range`.
    #[inline(always)]
    pub fn read<'b>(self, range: Range<usize>, buf: &'b mut [f64]) -> &'b [f64]
    where
        'a: 'b,
    {
        if S == 1 {
            return self.rows[range].as_flattened();
        }
        let buf = &mut buf[..range.len()];
        let mut slots = buf.iter_mut();
        for (h, rows) in segments::<S>(self.rows.len(), range) {
            for (row, slot) in self.rows[rows].iter().zip(&mut slots) {
                *slot = row[h];
            }
        }
        buf
    }

    /// Appends values `range` to `out` as little-endian bytes, eight a value.
    pub fn extend_le_bytes(self, range: Range<usize>, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + range.len() * 8, 0);
        let mut bytes = out[start..].chunks_exact_mut(8);
        for (h, rows) in segments::<S>(self.rows.len(), range) {
            for (row, bytes) in self.rows[rows].iter().zip(&mut bytes) {
                bytes.copy_from_slice(&row[h].to_le_bytes());
            }
        }
    }
}

/// A value sequence written in place; the layout of [`Planes`].
#[derive(Debug)]
pub(crate) struct PlanesMut<'a, const S: usize> {
    rows: &'a mut [[f64; S]],
}

impl<'a> PlanesMut<'a, 1> {
    /// The sequence `values`.
    pub fn new(values: &'a mut [f64]) -> Self {
        PlanesMut {
            rows: values.as_chunks_mut().0,
        }
    }
}

impl<'a> PlanesMut<'a, 2> {
    /// The plane order of `amps`: every real part, then every imaginary part.
    pub fn of_amps(amps: &'a mut [Complex64]) -> Self {
        PlanesMut {
            rows: as_f64_slice_mut(amps).as_chunks_mut().0,
        }
    }
}

impl<const S: usize> PlanesMut<'_, S> {
    /// Values in the sequence.
    pub fn len(&self) -> usize {
        S * self.rows.len()
    }

    /// Sets values `range` to `value`: one fill of the buffer when the range
    /// lies contiguously in it.
    pub fn fill(&mut self, range: Range<usize>, value: f64) {
        if S == 1 {
            self.rows[range].as_flattened_mut().fill(value);
            return;
        }
        if range == (0..self.len()) {
            self.rows.as_flattened_mut().fill(value);
            return;
        }
        for (h, rows) in segments::<S>(self.rows.len(), range) {
            for row in &mut self.rows[rows] {
                row[h] = value;
            }
        }
    }

    /// Sets the values from `start` on to the little-endian `bytes`, eight a
    /// value.
    pub fn set_le_bytes(&mut self, start: usize, bytes: &[u8]) {
        let mut bytes = bytes.chunks_exact(8);
        let range = start..start + bytes.len();
        for (h, rows) in segments::<S>(self.rows.len(), range) {
            for (row, bytes) in self.rows[rows].iter_mut().zip(&mut bytes) {
                row[h] = f64::from_le_bytes(bytes.try_into().expect("chunks of eight"));
            }
        }
    }

    /// Sets values `range`, in order, to what `next` returns; stops at its
    /// first error.
    #[inline(always)]
    pub fn try_set_each<E>(
        &mut self,
        range: Range<usize>,
        mut next: impl FnMut() -> Result<f64, E>,
    ) -> Result<(), E> {
        for (h, rows) in segments::<S>(self.rows.len(), range) {
            for row in &mut self.rows[rows] {
                row[h] = next()?;
            }
        }
        Ok(())
    }

    /// Sets values `range`, in order, to what `next` returns.
    #[inline(always)]
    pub fn set_each(&mut self, range: Range<usize>, mut next: impl FnMut() -> f64) {
        let Ok(()) = self.try_set_each::<Infallible>(range, || Ok(next()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_num::complex::c64;

    fn amps(n: usize) -> Vec<Complex64> {
        (0..n).map(|i| c64(i as f64, -(i as f64) - 0.5)).collect()
    }

    /// The plane order of `amps`, spelled out.
    fn planes_of(amps: &[Complex64]) -> Vec<f64> {
        amps.iter()
            .map(|a| a.re)
            .chain(amps.iter().map(|a| a.im))
            .collect()
    }

    #[test]
    fn amplitude_view_reads_the_plane_order_everywhere() {
        for n in [0usize, 1, 2, 3, 7, 128, 129] {
            let a = amps(n);
            let want = planes_of(&a);
            let view = Planes::of_amps(&a);
            assert_eq!(view.len(), want.len());
            for (i, &x) in want.iter().enumerate() {
                assert_eq!(view.get(i), x, "n={n} i={i}");
            }
            for start in 0..=want.len() {
                for end in start..=want.len() {
                    let mut got = Vec::new();
                    view.for_each(start..end, |x| got.push(x));
                    assert_eq!(got, want[start..end]);
                    let mut buf = [0.0; 512];
                    assert_eq!(view.read(start..end, &mut buf), &want[start..end]);
                    let mut bytes = Vec::new();
                    view.extend_le_bytes(start..end, &mut bytes);
                    let mut flat = Vec::new();
                    Planes::new(&want).extend_le_bytes(start..end, &mut flat);
                    assert_eq!(bytes, flat);
                }
                let negative = |x: f64| x < 0.0;
                let want_end = want[start..]
                    .iter()
                    .position(|&x| !negative(x))
                    .map_or(want.len(), |k| start + k);
                assert_eq!(view.run_end(start, negative), want_end, "n={n}");
            }
            let mut sorted = view.unordered().to_vec();
            let mut want_sorted = want.clone();
            sorted.sort_by(f64::total_cmp);
            want_sorted.sort_by(f64::total_cmp);
            assert_eq!(sorted, want_sorted);
        }
    }

    /// Write `op` of the test below: the same call on any view.
    fn write<const S: usize>(
        view: &mut PlanesMut<'_, S>,
        op: usize,
        range: Range<usize>,
        bytes: &[u8],
    ) {
        match op {
            0 => view.set_le_bytes(range.start, bytes),
            1 => view.fill(range, 9.0),
            _ => {
                let mut k = 0.0;
                view.set_each(range, || {
                    k += 1.0;
                    k
                });
            }
        }
    }

    #[test]
    fn amplitude_writes_land_in_plane_order() {
        for n in [1usize, 2, 3, 129] {
            let want = planes_of(&amps(n));
            for start in 0..2 * n {
                for end in start..=2 * n {
                    let mut got = vec![Complex64::ZERO; n];
                    let mut flat = vec![0.0; 2 * n];
                    let mut bytes = Vec::new();
                    Planes::new(&want).extend_le_bytes(start..end, &mut bytes);
                    for op in 0..3 {
                        write(&mut PlanesMut::of_amps(&mut got), op, start..end, &bytes);
                        write(&mut PlanesMut::new(&mut flat), op, start..end, &bytes);
                        assert_eq!(planes_of(&got), flat, "op {op}, n={n} {start}..{end}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_failing_writer_stops_at_its_error() {
        let mut got = vec![Complex64::ZERO; 4];
        let mut left = 5;
        let result = PlanesMut::of_amps(&mut got).try_set_each(0..8, || {
            left -= 1;
            if left == 0 {
                Err("out")
            } else {
                Ok(1.0)
            }
        });
        assert_eq!(result, Err("out"));
        assert_eq!(planes_of(&got), [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
    }
}
