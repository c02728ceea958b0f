//! Double-precision complex arithmetic.
//!
//! A deliberately small, `#[repr(C)]`, `Copy` complex type. State-vector
//! simulation spends essentially all of its FLOPs in `Complex64` mul/add, so
//! every method here is `#[inline]` and branch-free.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// Layout-compatible with `[f64; 2]` (guaranteed by `#[repr(C)]`), which the
/// compression stack relies on to view amplitude buffers as flat `f64`
/// planes.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor, mirroring `num_complex::Complex64::new`.
#[inline]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// Additive identity.
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    /// Multiplicative identity.
    pub const ONE: Complex64 = c64(1.0, 0.0);
    /// The imaginary unit `i`.
    pub const I: Complex64 = c64(0.0, 1.0);

    /// Creates a complex number from Cartesian parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        c64(re, im)
    }

    /// Creates a complex number from polar form `r * e^{i theta}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        c64(r * theta.cos(), r * theta.sin())
    }

    /// `e^{i theta}` — a unit phase. The workhorse of rotation gates.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        c64(theta.cos(), theta.sin())
    }

    /// Squared magnitude `|z|^2 = re^2 + im^2`.
    ///
    /// This is the Born-rule probability weight of an amplitude; it avoids
    /// the square root of [`Complex64::norm`].
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`: `sqrt(re^2 + im^2)` where that sum is a normal
    /// number — within 1 ulp of `hypot`, at a fraction of libm's cost —
    /// `0` for two zero parts, and `hypot` wherever squaring overflows,
    /// underflows or meets an infinity or NaN.
    #[inline]
    pub fn norm(self) -> f64 {
        let sqr = self.norm_sqr();
        if sqr.is_normal() {
            sqr.sqrt()
        } else if self.re == 0.0 && self.im == 0.0 {
            0.0
        } else {
            self.re.hypot(self.im)
        }
    }

    /// Argument (phase angle) in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// Multiplication by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        c64(self.re * k, self.im * k)
    }

    /// Multiplicative inverse `1/z`.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        c64(self.re / d, -self.im / d)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        c64(r * self.im.cos(), r * self.im.sin())
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        let r = self.norm();
        let two = 2.0_f64;
        let re = ((r + self.re) / two).sqrt();
        let im = ((r - self.re) / two).sqrt() * self.im.signum();
        c64(re, im)
    }

    /// Fused multiply-add: `self * b + acc`.
    ///
    /// Written so LLVM can contract it into scalar FMAs when the target
    /// supports them.
    #[inline]
    pub fn mul_add(self, b: Complex64, acc: Complex64) -> Self {
        c64(
            self.re * b.re - self.im * b.im + acc.re,
            self.re * b.im + self.im * b.re + acc.im,
        )
    }

    /// True if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// True if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Component-wise approximate equality with absolute tolerance `tol`.
    #[inline]
    pub fn approx_eq(self, other: Complex64, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        c64(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z * w^-1 by definition
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.inv()
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        c64(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        c64(self.re / rhs, self.im / rhs)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        c64(re, 0.0)
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = f.precision() {
            write!(f, "{:.*}{:+.*}i", p, self.re, p, self.im)
        } else {
            write!(f, "{}{:+}i", self.re, self.im)
        }
    }
}

/// Reinterprets a slice of complex amplitudes as a flat `f64` slice
/// (`[re0, im0, re1, im1, ...]`).
///
/// Sound because `Complex64` is `#[repr(C)]` over two `f64`s.
#[inline]
pub fn as_f64_slice(amps: &[Complex64]) -> &[f64] {
    // SAFETY: Complex64 is #[repr(C)] { f64, f64 } — same size/align as
    // [f64; 2], and any bit pattern is a valid f64.
    unsafe { std::slice::from_raw_parts(amps.as_ptr() as *const f64, amps.len() * 2) }
}

/// Mutable variant of [`as_f64_slice`].
#[inline]
pub fn as_f64_slice_mut(amps: &mut [Complex64]) -> &mut [f64] {
    // SAFETY: see as_f64_slice.
    unsafe { std::slice::from_raw_parts_mut(amps.as_mut_ptr() as *mut f64, amps.len() * 2) }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex64::ZERO, c64(0.0, 0.0));
        assert_eq!(Complex64::ONE, c64(1.0, 0.0));
        assert_eq!(Complex64::I, c64(0.0, 1.0));
        assert_eq!(Complex64::from(3.5), c64(3.5, 0.0));
    }

    #[test]
    fn arithmetic_identities() {
        let z = c64(1.5, -2.5);
        assert!((z + Complex64::ZERO).approx_eq(z, TOL));
        assert!((z * Complex64::ONE).approx_eq(z, TOL));
        assert!((z - z).approx_eq(Complex64::ZERO, TOL));
        assert!((z * z.inv()).approx_eq(Complex64::ONE, TOL));
        assert!((-z + z).approx_eq(Complex64::ZERO, TOL));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!((Complex64::I * Complex64::I).approx_eq(c64(-1.0, 0.0), TOL));
    }

    #[test]
    fn mul_matches_expanded_form() {
        let a = c64(2.0, 3.0);
        let b = c64(-1.0, 4.0);
        // (2+3i)(-1+4i) = -2 + 8i - 3i + 12i^2 = -14 + 5i
        assert!((a * b).approx_eq(c64(-14.0, 5.0), TOL));
    }

    #[test]
    fn division_round_trips() {
        let a = c64(2.0, 3.0);
        let b = c64(-1.0, 4.0);
        assert!(((a / b) * b).approx_eq(a, 1e-10));
    }

    #[test]
    fn conj_and_norm() {
        let z = c64(3.0, 4.0);
        assert_eq!(z.norm(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.conj(), c64(3.0, -4.0));
        assert!((z * z.conj()).approx_eq(c64(25.0, 0.0), TOL));
    }

    /// Distance between two finite, same-signed floats in units in the
    /// last place.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn norm_matches_hypot_in_its_special_cases_and_within_an_ulp_elsewhere() {
        let tiny = f64::MIN_POSITIVE;
        let sub = f64::from_bits(1);
        let parts = [
            0.0,
            -0.0,
            1e-170,
            -1e-170,
            1e170,
            -1e170,
            sub,
            -sub,
            tiny / 3.0,
            tiny,
            1e-154,
            0.3,
            -1.0,
            1e154,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for &re in &parts {
            for &im in &parts {
                let (got, want) = (c64(re, im).norm(), re.hypot(im));
                let special = !(re * re + im * im).is_normal();
                if want.is_nan() {
                    assert!(got.is_nan(), "({re:e}, {im:e})");
                } else if special {
                    assert_eq!(got.to_bits(), want.to_bits(), "({re:e}, {im:e})");
                } else {
                    assert!(
                        ulps(got, want) <= 1,
                        "({re:e}, {im:e}): {got:e} vs {want:e}"
                    );
                }
            }
        }
        // Amplitude-sized parts of every magnitude an engine meets.
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let unit = |bits: u64| (bits >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let scale = f64::powi(2.0, (x % 64) as i32 - 48);
            let z = c64(unit(x) * scale, unit(x.rotate_left(29)) * scale);
            let want = z.re.hypot(z.im);
            assert!(ulps(z.norm(), want) <= 1, "{z:?}");
        }
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::from_polar(2.0, 0.7);
        assert!((z.norm() - 2.0).abs() < TOL);
        assert!((z.arg() - 0.7).abs() < TOL);
    }

    #[test]
    fn cis_is_unit_phase() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            let z = Complex64::cis(theta);
            assert!((z.norm() - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn exp_of_i_pi_is_minus_one() {
        let z = c64(0.0, std::f64::consts::PI).exp();
        assert!(z.approx_eq(c64(-1.0, 0.0), 1e-12));
    }

    #[test]
    fn sqrt_squares_back() {
        for &z in &[c64(4.0, 0.0), c64(0.0, 2.0), c64(-1.0, 0.0), c64(3.0, -4.0)] {
            let s = z.sqrt();
            assert!((s * s).approx_eq(z, 1e-10), "sqrt({z:?}) = {s:?}");
        }
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = c64(1.0, 2.0);
        let b = c64(3.0, -1.0);
        let c = c64(-0.5, 0.25);
        assert!(a.mul_add(b, c).approx_eq(a * b + c, TOL));
    }

    #[test]
    fn scalar_ops() {
        let z = c64(1.0, -2.0);
        assert!((z * 2.0).approx_eq(c64(2.0, -4.0), TOL));
        assert!((2.0 * z).approx_eq(c64(2.0, -4.0), TOL));
        assert!((z / 2.0).approx_eq(c64(0.5, -1.0), TOL));
    }

    #[test]
    fn assign_ops() {
        let mut z = c64(1.0, 1.0);
        z += c64(1.0, 0.0);
        assert_eq!(z, c64(2.0, 1.0));
        z -= c64(0.0, 1.0);
        assert_eq!(z, c64(2.0, 0.0));
        z *= c64(0.0, 1.0);
        assert_eq!(z, c64(0.0, 2.0));
        z /= c64(0.0, 2.0);
        assert!(z.approx_eq(Complex64::ONE, TOL));
    }

    #[test]
    fn sum_folds() {
        let v = vec![c64(1.0, 1.0); 10];
        let s: Complex64 = v.into_iter().sum();
        assert!(s.approx_eq(c64(10.0, 10.0), TOL));
    }

    #[test]
    fn nan_and_finite_checks() {
        assert!(c64(f64::NAN, 0.0).is_nan());
        assert!(!c64(1.0, 2.0).is_nan());
        assert!(c64(1.0, 2.0).is_finite());
        assert!(!c64(f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn f64_slice_view_is_interleaved() {
        let mut amps = vec![c64(1.0, 2.0), c64(3.0, 4.0)];
        assert_eq!(as_f64_slice(&amps), &[1.0, 2.0, 3.0, 4.0]);
        as_f64_slice_mut(&mut amps)[3] = 9.0;
        assert_eq!(amps[1], c64(3.0, 9.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", c64(1.0, -2.0)), "1-2i");
        assert_eq!(format!("{:.2}", c64(1.0, 2.0)), "1.00+2.00i");
    }
}
