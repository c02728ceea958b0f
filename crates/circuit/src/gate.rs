//! The gate set.
//!
//! A closed enum covering the standard single- and two-qubit gates, fused
//! arbitrary unitaries (produced by the fusion pass), and natively
//! multi-controlled single-qubit unitaries (`Mcu`) — the same primitive SV-Sim
//! and Aer expose, which lets Grover/arithmetic circuits avoid ancilla
//! ladders while still exercising interesting chunk-locality behaviour
//! (controls never *pair* amplitudes, they only *select* them).

use crate::matrix::{Mat2, Mat4};
use mq_num::complex::c64;
use mq_num::Complex64;
use std::f64::consts::FRAC_1_SQRT_2;
use std::fmt;

/// A quantum gate applied to specific qubits. Qubit indices are `u32`.
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H(u32),
    /// Pauli-X.
    X(u32),
    /// Pauli-Y.
    Y(u32),
    /// Pauli-Z.
    Z(u32),
    /// Phase gate S = sqrt(Z).
    S(u32),
    /// S-dagger.
    Sdg(u32),
    /// T = sqrt(S).
    T(u32),
    /// T-dagger.
    Tdg(u32),
    /// sqrt(X).
    Sx(u32),
    /// sqrt(X)-dagger.
    Sxdg(u32),
    /// Rotation about X by `theta`.
    Rx(u32, f64),
    /// Rotation about Y by `theta`.
    Ry(u32, f64),
    /// Rotation about Z by `theta`.
    Rz(u32, f64),
    /// Phase gate diag(1, e^{i lambda}).
    P(u32, f64),
    /// General single-qubit gate U3(theta, phi, lambda).
    U3(u32, f64, f64, f64),
    /// Fused arbitrary single-qubit unitary.
    U1q(u32, Mat2),
    /// Controlled-X (control, target).
    Cx(u32, u32),
    /// Controlled-Y (control, target).
    Cy(u32, u32),
    /// Controlled-Z (symmetric).
    Cz(u32, u32),
    /// Controlled phase diag(1,1,1,e^{i lambda}) (symmetric).
    Cp(u32, u32, f64),
    /// SWAP (symmetric).
    Swap(u32, u32),
    /// ZZ interaction exp(-i theta/2 Z⊗Z) — diagonal; QAOA's cost gate.
    Rzz(u32, u32, f64),
    /// Fused arbitrary two-qubit unitary on `(a, b)`; matrix basis index is
    /// `(bit_b << 1) | bit_a`.
    U2q(u32, u32, Mat4),
    /// Multi-controlled single-qubit unitary: applies `u` to `target` when
    /// every qubit in `controls` is 1. `controls` must be sorted, unique and
    /// exclude `target`. With 2 controls and `u = X` this is the Toffoli.
    Mcu {
        /// Control qubits (sorted ascending, no duplicates).
        controls: Vec<u32>,
        /// Target qubit.
        target: u32,
        /// The controlled single-qubit operator.
        u: Mat2,
    },
}

impl Gate {
    /// Builds a Toffoli (CCX) gate.
    pub fn ccx(c0: u32, c1: u32, target: u32) -> Gate {
        let mut controls = vec![c0, c1];
        controls.sort_unstable();
        Gate::Mcu {
            controls,
            target,
            u: mat2_x(),
        }
    }

    /// Builds a multi-controlled X.
    pub fn mcx(controls: &[u32], target: u32) -> Gate {
        let mut controls = controls.to_vec();
        controls.sort_unstable();
        Gate::Mcu {
            controls,
            target,
            u: mat2_x(),
        }
    }

    /// Builds a multi-controlled Z.
    pub fn mcz(controls: &[u32], target: u32) -> Gate {
        let mut controls = controls.to_vec();
        controls.sort_unstable();
        Gate::Mcu {
            controls,
            target,
            u: mat2_z(),
        }
    }

    /// Builds a multi-controlled phase gate.
    pub fn mcp(controls: &[u32], target: u32, lambda: f64) -> Gate {
        let mut controls = controls.to_vec();
        controls.sort_unstable();
        Gate::Mcu {
            controls,
            target,
            u: mat2_p(lambda),
        }
    }

    /// All qubits this gate touches, targets and controls alike.
    pub fn qubits(&self) -> Vec<u32> {
        use Gate::*;
        match self {
            H(q)
            | X(q)
            | Y(q)
            | Z(q)
            | S(q)
            | Sdg(q)
            | T(q)
            | Tdg(q)
            | Sx(q)
            | Sxdg(q)
            | Rx(q, _)
            | Ry(q, _)
            | Rz(q, _)
            | P(q, _)
            | U3(q, _, _, _)
            | U1q(q, _) => vec![*q],
            Cx(a, b) | Cy(a, b) | Cz(a, b) | Swap(a, b) | U2q(a, b, _) => vec![*a, *b],
            Cp(a, b, _) | Rzz(a, b, _) => vec![*a, *b],
            Mcu {
                controls, target, ..
            } => {
                let mut v = controls.clone();
                v.push(*target);
                v
            }
        }
    }

    /// Qubits whose amplitudes get *paired* by this gate (i.e. the gate
    /// mixes |0> and |1> along them). Controls and diagonal action don't
    /// pair; this is what chunk-locality planning cares about.
    pub fn pairing_qubits(&self) -> Vec<u32> {
        use Gate::*;
        match self {
            // Diagonal single-qubit gates pair nothing.
            Z(_) | S(_) | Sdg(_) | T(_) | Tdg(_) | Rz(_, _) | P(_, _) => vec![],
            H(q) | X(q) | Y(q) | Sx(q) | Sxdg(q) | Rx(q, _) | Ry(q, _) | U3(q, _, _, _) => {
                vec![*q]
            }
            U1q(q, m) => {
                if m.is_diagonal(0.0) {
                    vec![]
                } else {
                    vec![*q]
                }
            }
            // Controlled gates pair only their target...
            Cx(_, t) | Cy(_, t) => vec![*t],
            // ...and diagonal two-qubit gates pair nothing.
            Cz(_, _) | Cp(_, _, _) | Rzz(_, _, _) => vec![],
            Swap(a, b) | U2q(a, b, _) => vec![*a, *b],
            Mcu { target, u, .. } => {
                if u.is_diagonal(0.0) {
                    vec![]
                } else {
                    vec![*target]
                }
            }
        }
    }

    /// Highest qubit index used, or `None` for an (impossible) empty set.
    pub fn max_qubit(&self) -> u32 {
        self.qubits()
            .into_iter()
            .max()
            .expect("gate with no qubits")
    }

    /// True if the gate's matrix is diagonal in the computational basis.
    pub fn is_diagonal(&self) -> bool {
        self.diagonal().is_some()
    }

    /// The diagonal of a gate for which [`is_diagonal`](Self::is_diagonal)
    /// holds (`None` otherwise): what the diagonal kernels, the folded phase
    /// tables and chunk-group specialization consume instead of a dense
    /// matrix.
    pub fn diagonal(&self) -> Option<Diagonal<'_>> {
        use std::f64::consts::FRAC_PI_4;
        use Gate::*;
        const ONE: Complex64 = Complex64::ONE;
        let one = |q: &u32, d0, d1| Some(Diagonal::One { q: *q, d: [d0, d1] });
        let two = |a: &u32, b: &u32, d| Some(Diagonal::Two { a: *a, b: *b, d });
        match self {
            Z(q) => one(q, ONE, -ONE),
            S(q) => one(q, ONE, Complex64::I),
            Sdg(q) => one(q, ONE, -Complex64::I),
            T(q) => one(q, ONE, Complex64::cis(FRAC_PI_4)),
            Tdg(q) => one(q, ONE, Complex64::cis(-FRAC_PI_4)),
            P(q, l) => one(q, ONE, Complex64::cis(*l)),
            Rz(q, t) => one(q, Complex64::cis(-t / 2.0), Complex64::cis(t / 2.0)),
            U1q(q, m) if m.is_diagonal(0.0) => one(q, m.0[0], m.0[3]),
            Cz(a, b) => two(a, b, [ONE, ONE, ONE, -ONE]),
            Cp(a, b, l) => two(a, b, [ONE, ONE, ONE, Complex64::cis(*l)]),
            Rzz(a, b, t) => {
                let e_m = Complex64::cis(-t / 2.0);
                let e_p = Complex64::cis(t / 2.0);
                two(a, b, [e_m, e_p, e_p, e_m])
            }
            U2q(a, b, m) if m.is_diagonal(0.0) => two(a, b, [m.0[0], m.0[5], m.0[10], m.0[15]]),
            Mcu {
                controls,
                target,
                u,
            } if u.is_diagonal(0.0) => Some(Diagonal::Controlled {
                controls,
                target: *target,
                d: [u.0[0], u.0[3]],
            }),
            _ => None,
        }
    }

    /// The inverse gate.
    pub fn adjoint(&self) -> Gate {
        use Gate::*;
        match self {
            H(q) => H(*q),
            X(q) => X(*q),
            Y(q) => Y(*q),
            Z(q) => Z(*q),
            S(q) => Sdg(*q),
            Sdg(q) => S(*q),
            T(q) => Tdg(*q),
            Tdg(q) => T(*q),
            Sx(q) => Sxdg(*q),
            Sxdg(q) => Sx(*q),
            Rx(q, t) => Rx(*q, -t),
            Ry(q, t) => Ry(*q, -t),
            Rz(q, t) => Rz(*q, -t),
            P(q, l) => P(*q, -l),
            U3(q, t, phi, lam) => U3(*q, -t, -lam, -phi),
            U1q(q, m) => U1q(*q, m.adjoint()),
            Cx(c, t) => Cx(*c, *t),
            Cy(c, t) => Cy(*c, *t),
            Cz(a, b) => Cz(*a, *b),
            Cp(a, b, l) => Cp(*a, *b, -l),
            Swap(a, b) => Swap(*a, *b),
            Rzz(a, b, t) => Rzz(*a, *b, -t),
            U2q(a, b, m) => U2q(*a, *b, m.adjoint()),
            Mcu {
                controls,
                target,
                u,
            } => Mcu {
                controls: controls.clone(),
                target: *target,
                u: u.adjoint(),
            },
        }
    }

    /// The 2x2 matrix of a single-qubit gate (`None` for multi-qubit gates).
    pub fn mat2(&self) -> Option<Mat2> {
        use Gate::*;
        Some(match self {
            H(_) => mat2_h(),
            X(_) => mat2_x(),
            Y(_) => mat2_y(),
            Z(_) => mat2_z(),
            S(_) => mat2_p(std::f64::consts::FRAC_PI_2),
            Sdg(_) => mat2_p(-std::f64::consts::FRAC_PI_2),
            T(_) => mat2_p(std::f64::consts::FRAC_PI_4),
            Tdg(_) => mat2_p(-std::f64::consts::FRAC_PI_4),
            Sx(_) => mat2_sx(),
            Sxdg(_) => mat2_sx().adjoint(),
            Rx(_, t) => mat2_rx(*t),
            Ry(_, t) => mat2_ry(*t),
            Rz(_, t) => mat2_rz(*t),
            P(_, l) => mat2_p(*l),
            U3(_, t, p, l) => mat2_u3(*t, *p, *l),
            U1q(_, m) => *m,
            _ => return None,
        })
    }

    /// The 4x4 matrix of a two-qubit gate in the `(bit_b << 1) | bit_a`
    /// basis for gate arguments `(a, b)` (`None` otherwise).
    pub fn mat4(&self) -> Option<Mat4> {
        use Gate::*;
        Some(match self {
            // Control is argument 0 (low bit), target argument 1 (high bit):
            // |c t> with index (t<<1)|c. Gate flips t when c=1: swaps
            // indices 0b01 <-> 0b11 (c=1,t=0 <-> c=1,t=1).
            Cx(_, _) => {
                let mut m = Mat4::identity();
                m.0[4 + 1] = Complex64::ZERO;
                m.0[3 * 4 + 3] = Complex64::ZERO;
                m.0[4 + 3] = Complex64::ONE;
                m.0[3 * 4 + 1] = Complex64::ONE;
                m
            }
            Cy(_, _) => {
                let mut m = Mat4::identity();
                m.0[4 + 1] = Complex64::ZERO;
                m.0[3 * 4 + 3] = Complex64::ZERO;
                m.0[4 + 3] = c64(0.0, -1.0);
                m.0[3 * 4 + 1] = c64(0.0, 1.0);
                m
            }
            Cz(_, _) => {
                let mut m = Mat4::identity();
                m.0[3 * 4 + 3] = c64(-1.0, 0.0);
                m
            }
            Cp(_, _, l) => {
                let mut m = Mat4::identity();
                m.0[3 * 4 + 3] = Complex64::cis(*l);
                m
            }
            Swap(_, _) => {
                let mut m = Mat4::identity();
                m.0[4 + 1] = Complex64::ZERO;
                m.0[2 * 4 + 2] = Complex64::ZERO;
                m.0[4 + 2] = Complex64::ONE;
                m.0[2 * 4 + 1] = Complex64::ONE;
                m
            }
            Rzz(_, _, t) => {
                let mut m = Mat4::identity();
                let e_minus = Complex64::cis(-t / 2.0);
                let e_plus = Complex64::cis(t / 2.0);
                m.0[0] = e_minus;
                m.0[4 + 1] = e_plus;
                m.0[2 * 4 + 2] = e_plus;
                m.0[3 * 4 + 3] = e_minus;
                m
            }
            U2q(_, _, m) => *m,
            _ => return None,
        })
    }

    /// Human-readable mnemonic (lowercase, QASM-style).
    pub fn name(&self) -> &'static str {
        use Gate::*;
        match self {
            H(_) => "h",
            X(_) => "x",
            Y(_) => "y",
            Z(_) => "z",
            S(_) => "s",
            Sdg(_) => "sdg",
            T(_) => "t",
            Tdg(_) => "tdg",
            Sx(_) => "sx",
            Sxdg(_) => "sxdg",
            Rx(_, _) => "rx",
            Ry(_, _) => "ry",
            Rz(_, _) => "rz",
            P(_, _) => "p",
            U3(_, _, _, _) => "u3",
            U1q(_, _) => "u1q",
            Cx(_, _) => "cx",
            Cy(_, _) => "cy",
            Cz(_, _) => "cz",
            Cp(_, _, _) => "cp",
            Swap(_, _) => "swap",
            Rzz(_, _, _) => "rzz",
            U2q(_, _, _) => "u2q",
            Mcu { .. } => "mcu",
        }
    }

    /// Validates qubit indices against a register of `n` qubits.
    pub fn validate(&self, n: u32) -> Result<(), GateError> {
        let qs = self.qubits();
        for &q in &qs {
            if q >= n {
                return Err(GateError::QubitOutOfRange { qubit: q, n });
            }
        }
        let mut sorted = qs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != qs.len() {
            return Err(GateError::DuplicateQubit);
        }
        if let Gate::Mcu { controls, .. } = self {
            if controls.is_empty() {
                return Err(GateError::EmptyControls);
            }
            if controls.windows(2).any(|w| w[0] >= w[1]) {
                return Err(GateError::UnsortedControls);
            }
        }
        Ok(())
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Gate::*;
        match self {
            Rx(q, t) | Ry(q, t) | Rz(q, t) | P(q, t) => {
                write!(f, "{}({:.6}) q[{}]", self.name(), t, q)
            }
            U3(q, t, p, l) => write!(f, "u3({t:.6},{p:.6},{l:.6}) q[{q}]"),
            Cp(a, b, l) => write!(f, "cp({l:.6}) q[{a}],q[{b}]"),
            Rzz(a, b, t) => write!(f, "rzz({t:.6}) q[{a}],q[{b}]"),
            Mcu {
                controls, target, ..
            } => {
                write!(f, "mcu(")?;
                for (i, c) in controls.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "q[{c}]")?;
                }
                write!(f, ") q[{target}]")
            }
            g => {
                write!(f, "{} ", g.name())?;
                for (i, q) in g.qubits().iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "q[{q}]")?;
                }
                Ok(())
            }
        }
    }
}

/// The diagonal of a diagonal gate, in the gate's own qubit indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Diagonal<'a> {
    /// `diag(d[0], d[1])` on qubit `q`.
    One {
        /// The qubit.
        q: u32,
        /// Factor by the qubit's bit value.
        d: [Complex64; 2],
    },
    /// A two-qubit diagonal on `(a, b)`, indexed `(bit_b << 1) | bit_a`.
    Two {
        /// Low index bit.
        a: u32,
        /// High index bit.
        b: u32,
        /// Factor by `(bit_b << 1) | bit_a`.
        d: [Complex64; 4],
    },
    /// `diag(d[0], d[1])` on `target` where every control is 1, identity
    /// elsewhere.
    Controlled {
        /// Control qubits.
        controls: &'a [u32],
        /// Target qubit.
        target: u32,
        /// Factor by the target's bit value when the controls are set.
        d: [Complex64; 2],
    },
}

impl Diagonal<'_> {
    /// The factor the gate multiplies the amplitude at index `idx` by.
    #[inline]
    pub fn factor(&self, idx: usize) -> Complex64 {
        match self {
            Diagonal::One { q, d } => d[idx >> q & 1],
            Diagonal::Two { a, b, d } => d[(idx >> b & 1) << 1 | (idx >> a & 1)],
            Diagonal::Controlled {
                controls,
                target,
                d,
            } => {
                if controls.iter().all(|c| idx >> c & 1 == 1) {
                    d[idx >> target & 1]
                } else {
                    Complex64::ONE
                }
            }
        }
    }
}

/// Errors from gate validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateError {
    /// A qubit index is >= the register size.
    QubitOutOfRange {
        /// Offending qubit.
        qubit: u32,
        /// Register size.
        n: u32,
    },
    /// The same qubit appears twice in one gate.
    DuplicateQubit,
    /// An `Mcu` with no controls (use a plain 1q gate instead).
    EmptyControls,
    /// `Mcu` controls not sorted/unique.
    UnsortedControls,
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::QubitOutOfRange { qubit, n } => {
                write!(f, "qubit {qubit} out of range for {n}-qubit register")
            }
            GateError::DuplicateQubit => write!(f, "duplicate qubit in gate"),
            GateError::EmptyControls => write!(f, "multi-controlled gate with no controls"),
            GateError::UnsortedControls => write!(f, "mcu controls must be sorted and unique"),
        }
    }
}

impl std::error::Error for GateError {}

// --- standard matrices ------------------------------------------------------

/// Hadamard matrix.
pub fn mat2_h() -> Mat2 {
    let h = FRAC_1_SQRT_2;
    Mat2::new(c64(h, 0.0), c64(h, 0.0), c64(h, 0.0), c64(-h, 0.0))
}

/// Pauli-X matrix.
pub fn mat2_x() -> Mat2 {
    Mat2::new(
        Complex64::ZERO,
        Complex64::ONE,
        Complex64::ONE,
        Complex64::ZERO,
    )
}

/// Pauli-Y matrix.
pub fn mat2_y() -> Mat2 {
    Mat2::new(
        Complex64::ZERO,
        c64(0.0, -1.0),
        c64(0.0, 1.0),
        Complex64::ZERO,
    )
}

/// Pauli-Z matrix.
pub fn mat2_z() -> Mat2 {
    Mat2::new(
        Complex64::ONE,
        Complex64::ZERO,
        Complex64::ZERO,
        c64(-1.0, 0.0),
    )
}

/// Phase matrix diag(1, e^{i lambda}).
pub fn mat2_p(lambda: f64) -> Mat2 {
    Mat2::new(
        Complex64::ONE,
        Complex64::ZERO,
        Complex64::ZERO,
        Complex64::cis(lambda),
    )
}

/// sqrt(X) matrix.
pub fn mat2_sx() -> Mat2 {
    Mat2::new(c64(0.5, 0.5), c64(0.5, -0.5), c64(0.5, -0.5), c64(0.5, 0.5))
}

/// Rx(theta) matrix.
pub fn mat2_rx(theta: f64) -> Mat2 {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    Mat2::new(c64(c, 0.0), c64(0.0, -s), c64(0.0, -s), c64(c, 0.0))
}

/// Ry(theta) matrix.
pub fn mat2_ry(theta: f64) -> Mat2 {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    Mat2::new(c64(c, 0.0), c64(-s, 0.0), c64(s, 0.0), c64(c, 0.0))
}

/// Rz(theta) matrix.
pub fn mat2_rz(theta: f64) -> Mat2 {
    Mat2::new(
        Complex64::cis(-theta / 2.0),
        Complex64::ZERO,
        Complex64::ZERO,
        Complex64::cis(theta / 2.0),
    )
}

/// U3(theta, phi, lambda) matrix (OpenQASM convention).
pub fn mat2_u3(theta: f64, phi: f64, lambda: f64) -> Mat2 {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    Mat2::new(
        c64(c, 0.0),
        -Complex64::cis(lambda) * s,
        Complex64::cis(phi) * s,
        Complex64::cis(phi + lambda) * c,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    const TOL: f64 = 1e-12;

    fn all_1q_gates() -> Vec<Gate> {
        vec![
            Gate::H(0),
            Gate::X(0),
            Gate::Y(0),
            Gate::Z(0),
            Gate::S(0),
            Gate::Sdg(0),
            Gate::T(0),
            Gate::Tdg(0),
            Gate::Sx(0),
            Gate::Sxdg(0),
            Gate::Rx(0, 0.3),
            Gate::Ry(0, 0.7),
            Gate::Rz(0, 1.1),
            Gate::P(0, 0.9),
            Gate::U3(0, 0.3, 0.5, 0.7),
            Gate::U1q(0, mat2_u3(1.0, 2.0, 3.0)),
        ]
    }

    fn all_2q_gates() -> Vec<Gate> {
        vec![
            Gate::Cx(0, 1),
            Gate::Cy(0, 1),
            Gate::Cz(0, 1),
            Gate::Cp(0, 1, 0.4),
            Gate::Swap(0, 1),
            Gate::Rzz(0, 1, 0.8),
            Gate::U2q(0, 1, Mat4::kron(&mat2_h(), &mat2_x())),
        ]
    }

    #[test]
    fn every_gate_matrix_is_unitary() {
        for g in all_1q_gates() {
            assert!(g.mat2().unwrap().is_unitary(TOL), "{g}");
        }
        for g in all_2q_gates() {
            assert!(g.mat4().unwrap().is_unitary(TOL), "{g}");
        }
    }

    #[test]
    fn adjoint_matrix_is_matrix_adjoint() {
        for g in all_1q_gates() {
            let m = g.mat2().unwrap();
            let madj = g.adjoint().mat2().unwrap();
            assert!(
                m.mul(&madj).approx_eq(&Mat2::IDENTITY, 1e-10),
                "{g}: adjoint not inverse"
            );
        }
        for g in all_2q_gates() {
            let m = g.mat4().unwrap();
            let madj = g.adjoint().mat4().unwrap();
            assert!(
                m.mul(&madj).approx_eq(&Mat4::identity(), 1e-10),
                "{g}: adjoint not inverse"
            );
        }
    }

    #[test]
    fn s_squared_is_z_and_t_squared_is_s() {
        let s = Gate::S(0).mat2().unwrap();
        assert!(s.mul(&s).approx_eq(&mat2_z(), TOL));
        let t = Gate::T(0).mat2().unwrap();
        assert!(t.mul(&t).approx_eq(&s, TOL));
        let sx = Gate::Sx(0).mat2().unwrap();
        assert!(sx.mul(&sx).approx_eq(&mat2_x(), TOL));
    }

    #[test]
    fn u3_specializations() {
        // U3(0,0,l) = P(l)
        assert!(mat2_u3(0.0, 0.0, 0.9).approx_eq(&mat2_p(0.9), TOL));
        // U3(pi/2, 0, pi) = H
        assert!(mat2_u3(FRAC_PI_2, 0.0, PI).approx_eq(&mat2_h(), TOL));
        // U3(t, -pi/2, pi/2) = Rx(t)
        assert!(mat2_u3(0.7, -FRAC_PI_2, FRAC_PI_2).approx_eq(&mat2_rx(0.7), TOL));
        // U3(t, 0, 0) = Ry(t)
        assert!(mat2_u3(0.7, 0.0, 0.0).approx_eq(&mat2_ry(0.7), TOL));
    }

    #[test]
    fn rz_vs_p_differ_by_global_phase() {
        let rz = mat2_rz(0.8);
        let p = mat2_p(0.8);
        let phase = Complex64::cis(0.4); // e^{i t/2}
        for i in 0..4 {
            assert!((phase * rz.0[i]).approx_eq(p.0[i], TOL));
        }
    }

    #[test]
    fn qubit_listings() {
        assert_eq!(Gate::H(3).qubits(), vec![3]);
        assert_eq!(Gate::Cx(1, 4).qubits(), vec![1, 4]);
        let ccx = Gate::ccx(5, 2, 0);
        assert_eq!(ccx.qubits(), vec![2, 5, 0]);
        assert_eq!(ccx.max_qubit(), 5);
    }

    #[test]
    fn pairing_qubits_ignore_diagonals_and_controls() {
        assert!(Gate::Z(0).pairing_qubits().is_empty());
        assert!(Gate::Rz(0, 1.0).pairing_qubits().is_empty());
        assert!(Gate::Cz(0, 5).pairing_qubits().is_empty());
        assert!(Gate::Cp(0, 5, 0.2).pairing_qubits().is_empty());
        assert!(Gate::Rzz(0, 5, 0.2).pairing_qubits().is_empty());
        assert_eq!(Gate::Cx(7, 2).pairing_qubits(), vec![2]);
        assert_eq!(Gate::Swap(1, 6).pairing_qubits(), vec![1, 6]);
        assert_eq!(Gate::mcz(&[1, 2], 9).pairing_qubits(), Vec::<u32>::new());
        assert_eq!(Gate::mcx(&[1, 2], 9).pairing_qubits(), vec![9]);
        assert_eq!(Gate::H(4).pairing_qubits(), vec![4]);
    }

    #[test]
    fn diagonal_flags() {
        for g in [
            Gate::Z(0),
            Gate::S(0),
            Gate::T(0),
            Gate::Rz(0, 0.3),
            Gate::P(0, 0.3),
            Gate::Cz(0, 1),
            Gate::Cp(0, 1, 0.3),
            Gate::Rzz(0, 1, 0.3),
            Gate::mcz(&[0, 1], 2),
            Gate::mcp(&[0], 2, 0.5),
            Gate::U1q(1, mat2_p(0.7)),
            Gate::U2q(2, 0, Gate::Rzz(0, 1, 0.4).mat4().unwrap()),
        ] {
            assert!(g.is_diagonal(), "{g}");
            // `diagonal()` is the gate's action: factor(i) scales basis
            // state |i> exactly as the dense oracle does.
            let d = g.diagonal().expect("diagonal gate has a diagonal");
            for i in 0..8usize {
                let mut state = vec![Complex64::ZERO; 8];
                state[i] = Complex64::ONE;
                crate::unitary::apply_gate_dense(3, &mut state, &g);
                assert!(state[i].approx_eq(d.factor(i), 1e-15), "{g} at {i}");
            }
        }
        for g in [
            Gate::H(0),
            Gate::X(0),
            Gate::Cx(0, 1),
            Gate::Swap(0, 1),
            Gate::U1q(0, mat2_h()),
            Gate::U2q(0, 1, Gate::Swap(0, 1).mat4().unwrap()),
        ] {
            assert!(!g.is_diagonal(), "{g}");
            assert_eq!(g.diagonal(), None, "{g}");
        }
    }

    #[test]
    fn validate_catches_errors() {
        assert!(Gate::H(0).validate(1).is_ok());
        assert_eq!(
            Gate::H(3).validate(2),
            Err(GateError::QubitOutOfRange { qubit: 3, n: 2 })
        );
        assert_eq!(Gate::Cx(1, 1).validate(4), Err(GateError::DuplicateQubit));
        let bad = Gate::Mcu {
            controls: vec![],
            target: 0,
            u: mat2_x(),
        };
        assert_eq!(bad.validate(4), Err(GateError::EmptyControls));
        let unsorted = Gate::Mcu {
            controls: vec![2, 1],
            target: 0,
            u: mat2_x(),
        };
        assert_eq!(unsorted.validate(4), Err(GateError::UnsortedControls));
        assert!(Gate::ccx(2, 1, 0).validate(3).is_ok());
    }

    #[test]
    fn display_is_qasm_like() {
        assert_eq!(format!("{}", Gate::H(2)), "h q[2]");
        assert_eq!(format!("{}", Gate::Cx(0, 1)), "cx q[0],q[1]");
        assert!(format!("{}", Gate::Rz(1, FRAC_PI_4)).starts_with("rz(0.785398)"));
        assert_eq!(format!("{}", Gate::ccx(0, 1, 2)), "mcu(q[0],q[1]) q[2]");
    }

    #[test]
    fn cx_matrix_convention() {
        // Gate arguments (control=a=low bit, target=b=high bit).
        let m = Gate::Cx(0, 1).mat4().unwrap();
        // |c=1,t=0> = index 0b01 -> |c=1,t=1> = index 0b11.
        let out = m.apply([
            Complex64::ZERO,
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::ZERO,
        ]);
        assert!(out[3].approx_eq(Complex64::ONE, TOL));
        // |c=0,t=0> unchanged.
        let out = m.apply([
            Complex64::ONE,
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::ZERO,
        ]);
        assert!(out[0].approx_eq(Complex64::ONE, TOL));
    }

    #[test]
    fn rzz_is_diagonal_and_symmetric() {
        let m = Gate::Rzz(0, 1, 0.6).mat4().unwrap();
        assert!(m.swap_qubits().approx_eq(&m, TOL));
        for r in 0..4 {
            for c in 0..4 {
                if r != c {
                    assert!(m.at(r, c).norm() < TOL);
                }
            }
        }
    }
}
