//! Small dense complex matrices for gate algebra.
#![allow(clippy::needless_range_loop)] // index loops mirror the math
//!
//! Three tiers: [`Mat2`] (single-qubit, fixed 2x2), [`Mat4`] (two-qubit,
//! fixed 4x4) for the hot kernels, and [`MatN`] (arbitrary `2^k x 2^k`,
//! heap-backed) for fusion products and random-unitary generation. All are
//! row-major.

use mq_num::complex::c64;
use mq_num::Complex64;

/// A 2x2 complex matrix (single-qubit operator), row-major.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat2(pub [Complex64; 4]);

/// A 4x4 complex matrix (two-qubit operator), row-major.
///
/// Basis convention: index `i = (b_hi << 1) | b_lo` where `b_lo` is the bit
/// of the gate's *first* qubit argument and `b_hi` of the second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4(pub [Complex64; 16]);

impl Mat2 {
    /// Identity.
    pub const IDENTITY: Mat2 = Mat2([c64(1.0, 0.0), c64(0.0, 0.0), c64(0.0, 0.0), c64(1.0, 0.0)]);

    /// Builds from rows `[[a, b], [c, d]]`.
    #[inline]
    pub const fn new(a: Complex64, b: Complex64, c: Complex64, d: Complex64) -> Mat2 {
        Mat2([a, b, c, d])
    }

    /// Element at `(row, col)`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> Complex64 {
        self.0[row * 2 + col]
    }

    /// Matrix product `self * rhs`.
    pub fn mul(&self, rhs: &Mat2) -> Mat2 {
        let mut out = [Complex64::ZERO; 4];
        for r in 0..2 {
            for c in 0..2 {
                out[r * 2 + c] = self.at(r, 0) * rhs.at(0, c) + self.at(r, 1) * rhs.at(1, c);
            }
        }
        Mat2(out)
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Mat2 {
        Mat2([
            self.0[0].conj(),
            self.0[2].conj(),
            self.0[1].conj(),
            self.0[3].conj(),
        ])
    }

    /// True if `self * self^dagger ≈ I` within `tol` per element.
    pub fn is_unitary(&self, tol: f64) -> bool {
        let p = self.mul(&self.adjoint());
        p.approx_eq(&Mat2::IDENTITY, tol)
    }

    /// True if off-diagonal elements are ≈ 0 within `tol`.
    pub fn is_diagonal(&self, tol: f64) -> bool {
        self.0[1].norm() <= tol && self.0[2].norm() <= tol
    }

    /// Element-wise approximate equality.
    pub fn approx_eq(&self, other: &Mat2, tol: f64) -> bool {
        self.0
            .iter()
            .zip(&other.0)
            .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Applies to an amplitude pair, returning the updated pair. Always
    /// inlined: the gate kernels compile it once per instruction set, and
    /// an out-of-line copy would be baseline code inside a vector loop.
    #[inline(always)]
    pub fn apply(&self, a0: Complex64, a1: Complex64) -> (Complex64, Complex64) {
        (
            self.0[0] * a0 + self.0[1] * a1,
            self.0[2] * a0 + self.0[3] * a1,
        )
    }
}

impl Mat4 {
    /// Identity.
    pub fn identity() -> Mat4 {
        let mut m = [Complex64::ZERO; 16];
        for i in 0..4 {
            m[i * 4 + i] = Complex64::ONE;
        }
        Mat4(m)
    }

    /// Element at `(row, col)`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> Complex64 {
        self.0[row * 4 + col]
    }

    /// Matrix product `self * rhs`.
    pub fn mul(&self, rhs: &Mat4) -> Mat4 {
        let mut out = [Complex64::ZERO; 16];
        for r in 0..4 {
            for c in 0..4 {
                let mut acc = Complex64::ZERO;
                for k in 0..4 {
                    acc = self.at(r, k).mul_add(rhs.at(k, c), acc);
                }
                out[r * 4 + c] = acc;
            }
        }
        Mat4(out)
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Mat4 {
        let mut out = [Complex64::ZERO; 16];
        for r in 0..4 {
            for c in 0..4 {
                out[c * 4 + r] = self.at(r, c).conj();
            }
        }
        Mat4(out)
    }

    /// True if unitary within `tol` per element.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.mul(&self.adjoint()).approx_eq(&Mat4::identity(), tol)
    }

    /// True if off-diagonal elements are ≈ 0 within `tol`.
    pub fn is_diagonal(&self, tol: f64) -> bool {
        (0..16).all(|i| i / 4 == i % 4 || self.0[i].norm() <= tol)
    }

    /// Element-wise approximate equality.
    pub fn approx_eq(&self, other: &Mat4, tol: f64) -> bool {
        self.0
            .iter()
            .zip(&other.0)
            .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Kronecker product `hi ⊗ lo`: the two-qubit operator that applies `lo`
    /// to the first (low) qubit and `hi` to the second (high) qubit, in this
    /// crate's `(b_hi << 1) | b_lo` basis convention.
    pub fn kron(hi: &Mat2, lo: &Mat2) -> Mat4 {
        let mut out = [Complex64::ZERO; 16];
        for rh in 0..2 {
            for ch in 0..2 {
                for rl in 0..2 {
                    for cl in 0..2 {
                        out[(rh * 2 + rl) * 4 + (ch * 2 + cl)] = hi.at(rh, ch) * lo.at(rl, cl);
                    }
                }
            }
        }
        Mat4(out)
    }

    /// Swaps the roles of the low and high qubit (conjugation by SWAP).
    pub fn swap_qubits(&self) -> Mat4 {
        let perm = [0usize, 2, 1, 3];
        let mut out = [Complex64::ZERO; 16];
        for r in 0..4 {
            for c in 0..4 {
                out[perm[r] * 4 + perm[c]] = self.at(r, c);
            }
        }
        Mat4(out)
    }

    /// Applies to a 4-amplitude group. Always inlined, as [`Mat2::apply`].
    #[inline(always)]
    pub fn apply(&self, a: [Complex64; 4]) -> [Complex64; 4] {
        let mut out = [Complex64::ZERO; 4];
        for r in 0..4 {
            let mut acc = Complex64::ZERO;
            for c in 0..4 {
                acc = self.at(r, c).mul_add(a[c], acc);
            }
            out[r] = acc;
        }
        out
    }
}

/// An arbitrary `2^k x 2^k` complex matrix, row-major, heap-backed.
#[derive(Debug, Clone, PartialEq)]
pub struct MatN {
    k: u32,
    data: Vec<Complex64>,
}

impl MatN {
    /// Identity on `k` qubits.
    pub fn identity(k: u32) -> MatN {
        let d = 1usize << k;
        let mut data = vec![Complex64::ZERO; d * d];
        for i in 0..d {
            data[i * d + i] = Complex64::ONE;
        }
        MatN { k, data }
    }

    /// Builds from raw row-major data of length `(2^k)^2`.
    ///
    /// # Panics
    /// Panics on a length mismatch.
    pub fn from_data(k: u32, data: Vec<Complex64>) -> MatN {
        let d = 1usize << k;
        assert_eq!(data.len(), d * d, "MatN data length mismatch");
        MatN { k, data }
    }

    /// Number of qubits this operator acts on.
    #[inline]
    pub fn qubits(&self) -> u32 {
        self.k
    }

    /// Matrix dimension `2^k`.
    #[inline]
    pub fn dim(&self) -> usize {
        1usize << self.k
    }

    /// Element at `(row, col)`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> Complex64 {
        self.data[row * self.dim() + col]
    }

    /// Mutable element access.
    #[inline]
    pub fn at_mut(&mut self, row: usize, col: usize) -> &mut Complex64 {
        let d = self.dim();
        &mut self.data[row * d + col]
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[Complex64] {
        &self.data
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn mul(&self, rhs: &MatN) -> MatN {
        assert_eq!(self.k, rhs.k, "dimension mismatch");
        let d = self.dim();
        let mut out = vec![Complex64::ZERO; d * d];
        for r in 0..d {
            for kk in 0..d {
                let a = self.at(r, kk);
                if a == Complex64::ZERO {
                    continue;
                }
                for c in 0..d {
                    out[r * d + c] = a.mul_add(rhs.at(kk, c), out[r * d + c]);
                }
            }
        }
        MatN {
            k: self.k,
            data: out,
        }
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> MatN {
        let d = self.dim();
        let mut out = vec![Complex64::ZERO; d * d];
        for r in 0..d {
            for c in 0..d {
                out[c * d + r] = self.at(r, c).conj();
            }
        }
        MatN {
            k: self.k,
            data: out,
        }
    }

    /// True if unitary within `tol` per element.
    pub fn is_unitary(&self, tol: f64) -> bool {
        let p = self.mul(&self.adjoint());
        let id = MatN::identity(self.k);
        p.data
            .iter()
            .zip(&id.data)
            .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Applies to a `2^k`-amplitude group (out-of-place).
    pub fn apply(&self, input: &[Complex64], out: &mut [Complex64]) {
        let d = self.dim();
        assert_eq!(input.len(), d);
        assert_eq!(out.len(), d);
        for r in 0..d {
            let mut acc = Complex64::ZERO;
            for c in 0..d {
                acc = self.at(r, c).mul_add(input[c], acc);
            }
            out[r] = acc;
        }
    }

    /// Haar-ish random unitary built by QR (modified Gram-Schmidt) of a
    /// matrix with independent standard-normal complex entries.
    pub fn random_unitary<R: rand::Rng>(k: u32, rng: &mut R) -> MatN {
        let d = 1usize << k;
        // Box-Muller normals.
        let normal = |rng: &mut R| -> f64 {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let mut cols: Vec<Vec<Complex64>> = (0..d)
            .map(|_| (0..d).map(|_| c64(normal(rng), normal(rng))).collect())
            .collect();
        // Modified Gram-Schmidt over columns.
        for j in 0..d {
            for i in 0..j {
                let proj = mq_num::metrics::inner_product(&cols[i], &cols[j]);
                for r in 0..d {
                    let v = cols[i][r];
                    cols[j][r] -= proj * v;
                }
            }
            let norm = mq_num::metrics::l2_norm(&cols[j]);
            assert!(norm > 1e-12, "degenerate random matrix");
            for r in 0..d {
                cols[j][r] = cols[j][r] / norm;
            }
        }
        let mut data = vec![Complex64::ZERO; d * d];
        for (j, col) in cols.iter().enumerate() {
            for r in 0..d {
                data[r * d + j] = col[r];
            }
        }
        MatN { k, data }
    }
}

impl From<&Mat2> for MatN {
    fn from(m: &Mat2) -> MatN {
        MatN::from_data(1, m.0.to_vec())
    }
}

impl From<&Mat4> for MatN {
    fn from(m: &Mat4) -> MatN {
        MatN::from_data(2, m.0.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-12;

    fn pauli_x() -> Mat2 {
        Mat2::new(
            Complex64::ZERO,
            Complex64::ONE,
            Complex64::ONE,
            Complex64::ZERO,
        )
    }

    #[test]
    fn mat2_identity_and_mul() {
        let x = pauli_x();
        assert!(x.mul(&x).approx_eq(&Mat2::IDENTITY, TOL));
        assert!(x.mul(&Mat2::IDENTITY).approx_eq(&x, TOL));
        assert!(x.is_unitary(TOL));
    }

    #[test]
    fn mat2_adjoint_of_phase() {
        let s = Mat2::new(
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::I,
        );
        let sdg = s.adjoint();
        assert!(s.mul(&sdg).approx_eq(&Mat2::IDENTITY, TOL));
        assert!(s.is_diagonal(TOL));
        assert!(!pauli_x().is_diagonal(TOL));
    }

    #[test]
    fn mat2_apply_pair() {
        let x = pauli_x();
        let (a, b) = x.apply(c64(0.25, 0.0), c64(0.0, 0.5));
        assert!(a.approx_eq(c64(0.0, 0.5), TOL));
        assert!(b.approx_eq(c64(0.25, 0.0), TOL));
    }

    #[test]
    fn mat4_identity_mul_adjoint() {
        let id = Mat4::identity();
        assert!(id.is_unitary(TOL));
        let k = Mat4::kron(&pauli_x(), &Mat2::IDENTITY);
        assert!(k.is_unitary(TOL));
        assert!(k.mul(&k).approx_eq(&Mat4::identity(), TOL));
        assert!(k.adjoint().approx_eq(&k, TOL)); // X ⊗ I is Hermitian
    }

    #[test]
    fn kron_ordering_convention() {
        // X on low qubit, I on high: should map index 0b00 -> 0b01.
        let m = Mat4::kron(&Mat2::IDENTITY, &pauli_x());
        let out = m.apply([
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::ZERO,
        ]);
        assert!(out[1].approx_eq(Complex64::ONE, TOL));
        // X on high qubit: 0b00 -> 0b10.
        let m = Mat4::kron(&pauli_x(), &Mat2::IDENTITY);
        let out = m.apply([
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::ZERO,
        ]);
        assert!(out[2].approx_eq(Complex64::ONE, TOL));
    }

    #[test]
    fn mat4_swap_qubits_involution() {
        let mut rng = StdRng::seed_from_u64(7);
        let u = MatN::random_unitary(2, &mut rng);
        let m = Mat4(u.data().to_vec().try_into().unwrap());
        assert!(m.swap_qubits().swap_qubits().approx_eq(&m, TOL));
    }

    #[test]
    fn matn_identity_apply() {
        let id = MatN::identity(3);
        let input: Vec<Complex64> = (0..8).map(|i| c64(i as f64, -(i as f64))).collect();
        let mut out = vec![Complex64::ZERO; 8];
        id.apply(&input, &mut out);
        assert_eq!(input, out);
    }

    #[test]
    fn matn_mul_associates() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = MatN::random_unitary(2, &mut rng);
        let b = MatN::random_unitary(2, &mut rng);
        let c = MatN::random_unitary(2, &mut rng);
        let l = a.mul(&b).mul(&c);
        let r = a.mul(&b.mul(&c));
        for (x, y) in l.data().iter().zip(r.data()) {
            assert!(x.approx_eq(*y, 1e-10));
        }
    }

    #[test]
    fn random_unitary_is_unitary() {
        let mut rng = StdRng::seed_from_u64(123);
        for k in 1..=3u32 {
            let u = MatN::random_unitary(k, &mut rng);
            assert!(u.is_unitary(1e-9), "k={k}");
        }
    }

    #[test]
    fn random_unitary_is_seeded_deterministic() {
        let a = MatN::random_unitary(2, &mut StdRng::seed_from_u64(9));
        let b = MatN::random_unitary(2, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn matn_from_mat2_and_mat4() {
        let x: MatN = (&pauli_x()).into();
        assert_eq!(x.qubits(), 1);
        assert!(x.is_unitary(TOL));
        let k: MatN = (&Mat4::kron(&pauli_x(), &pauli_x())).into();
        assert_eq!(k.qubits(), 2);
        assert!(k.is_unitary(TOL));
    }
}
