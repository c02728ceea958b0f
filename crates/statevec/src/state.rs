//! The dense state vector and circuit execution.

use crate::apply::apply_gate;
use mq_circuit::Circuit;
use mq_num::aligned::AlignedVec;
use mq_num::{bits, metrics, Complex64};

/// Execution configuration for the dense CPU backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Members of the worker team each gate kernel splits across; the
    /// default is the host's core count ([`mq_num::parallel::cores`]).
    pub workers: usize,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            workers: mq_num::parallel::cores(),
        }
    }
}

/// A dense `n`-qubit quantum state: `2^n` complex amplitudes, cache-line
/// aligned.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    n_qubits: u32,
    amps: AlignedVec<Complex64>,
}

impl State {
    /// The all-zeros basis state `|0...0>`.
    pub fn zero(n_qubits: u32) -> State {
        State::basis(n_qubits, 0)
    }

    /// The computational basis state `|index>`.
    ///
    /// # Panics
    /// Panics if `index >= 2^n_qubits`.
    pub fn basis(n_qubits: u32, index: usize) -> State {
        let dim = mq_num::dim(n_qubits as usize);
        assert!(index < dim, "basis index out of range");
        let mut amps = AlignedVec::zeroed(dim);
        amps[index] = Complex64::ONE;
        State { n_qubits, amps }
    }

    /// Builds a state from raw amplitudes (length must be a power of two).
    ///
    /// # Panics
    /// Panics if the length is not a power of two.
    pub fn from_amplitudes(amps: &[Complex64]) -> State {
        assert!(
            bits::is_pow2(amps.len()),
            "amplitude count must be a power of two"
        );
        State {
            n_qubits: bits::floor_log2(amps.len()),
            amps: AlignedVec::from_slice(amps),
        }
    }

    /// Register width.
    #[inline]
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Number of amplitudes (`2^n`).
    #[inline]
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// The amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex64] {
        self.amps.as_slice()
    }

    /// Mutable amplitudes (for backends writing in place).
    #[inline]
    pub fn amplitudes_mut(&mut self) -> &mut [Complex64] {
        self.amps.as_mut_slice()
    }

    /// Born probability of basis state `index`.
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// The full probability distribution.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|z| z.norm_sqr()).collect()
    }

    /// Marginal probability that qubit `q` reads 1.
    pub fn probability_of_one(&self, q: u32) -> f64 {
        assert!(q < self.n_qubits);
        let mask = 1usize << q;
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, z)| z.norm_sqr())
            .sum()
    }

    /// L2 norm (1.0 for a physical state).
    pub fn norm(&self) -> f64 {
        metrics::l2_norm(self.amplitudes())
    }

    /// Rescales to unit norm. No-op on the zero vector.
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 && (n - 1.0).abs() > f64::EPSILON {
            let inv = 1.0 / n;
            for z in self.amps.iter_mut() {
                *z = *z * inv;
            }
        }
    }

    /// Fidelity against another state of the same width.
    pub fn fidelity(&self, other: &State) -> f64 {
        assert_eq!(self.n_qubits, other.n_qubits, "width mismatch");
        metrics::fidelity(self.amplitudes(), other.amplitudes())
    }

    /// Applies one gate in place.
    pub fn apply(&mut self, gate: &mq_circuit::Gate, workers: usize) {
        gate.validate(self.n_qubits).expect("invalid gate");
        apply_gate(self.amps.as_mut_slice(), gate, workers);
    }

    /// Runs a whole circuit in place.
    pub fn run(&mut self, circuit: &Circuit, cfg: &CpuConfig) {
        assert_eq!(circuit.n_qubits(), self.n_qubits, "width mismatch");
        for g in circuit.gates() {
            apply_gate(self.amps.as_mut_slice(), g, cfg.workers);
        }
    }
}

/// Convenience: runs `circuit` from `|0...0>` and returns the final state.
pub fn run_circuit(circuit: &Circuit, cfg: &CpuConfig) -> State {
    let mut s = State::zero(circuit.n_qubits());
    s.run(circuit, cfg);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_circuit::library;
    use mq_circuit::unitary::run_dense;
    use mq_num::complex::c64;
    use mq_num::metrics::max_amp_err;

    #[test]
    fn zero_state_is_basis_zero() {
        let s = State::zero(3);
        assert_eq!(s.dim(), 8);
        assert_eq!(s.probability(0), 1.0);
        assert!((s.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn basis_state_places_amplitude() {
        let s = State::basis(4, 9);
        assert_eq!(s.probability(9), 1.0);
        assert_eq!(s.probability(0), 0.0);
    }

    #[test]
    #[should_panic]
    fn basis_rejects_out_of_range() {
        let _ = State::basis(2, 4);
    }

    #[test]
    fn from_amplitudes_infers_width() {
        let amps = vec![c64(0.5, 0.0); 4];
        let s = State::from_amplitudes(&amps);
        assert_eq!(s.n_qubits(), 2);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn from_amplitudes_rejects_non_pow2() {
        let _ = State::from_amplitudes(&[Complex64::ZERO; 3]);
    }

    #[test]
    fn run_matches_oracle_for_suite() {
        for c in library::standard_suite(6) {
            for cfg in [CpuConfig { workers: 1 }, CpuConfig { workers: 2 }] {
                let s = run_circuit(&c, &cfg);
                let want = run_dense(&c, 0);
                assert!(
                    max_amp_err(s.amplitudes(), &want) < 1e-10,
                    "{} cfg={cfg:?}",
                    c.name()
                );
            }
        }
    }

    #[test]
    fn probability_of_one_on_bell() {
        let c = library::bell_pair(2, 0, 1);
        let s = run_circuit(&c, &CpuConfig::default());
        assert!((s.probability_of_one(0) - 0.5).abs() < 1e-12);
        assert!((s.probability_of_one(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalize_restores_unit_norm() {
        let mut s = State::zero(2);
        for z in s.amplitudes_mut() {
            *z = c64(0.5, 0.5);
        }
        assert!(s.norm() > 1.0);
        s.normalize();
        assert!((s.norm() - 1.0).abs() < 1e-12);
        // Zero vector stays zero.
        let mut z = State::zero(1);
        z.amplitudes_mut()[0] = Complex64::ZERO;
        z.normalize();
        assert_eq!(z.norm(), 0.0);
    }

    #[test]
    fn fidelity_tracks_equality() {
        let a = run_circuit(&library::ghz(4), &CpuConfig::default());
        let b = run_circuit(&library::ghz(4), &CpuConfig::default());
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
        let c = run_circuit(&library::w_state(4), &CpuConfig::default());
        assert!(a.fidelity(&c) < 0.9);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let s = run_circuit(&library::qft(5), &CpuConfig::default());
        let total: f64 = s.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn apply_validates_gate() {
        let mut s = State::zero(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.apply(&mq_circuit::Gate::H(7), 1);
        }));
        assert!(r.is_err());
    }
}
