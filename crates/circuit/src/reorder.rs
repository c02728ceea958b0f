//! Commutation rules: which gates may trade places.
//!
//! The scheduler ([`crate::schedule`]) builds its dependency DAG from these
//! rules: two gates are ordered only when they overlap and do not provably
//! commute. Commutation is decided *conservatively* (sound, not complete):
//!
//! * gates on disjoint qubit sets commute;
//! * diagonal gates commute with each other regardless of overlap;
//! * a diagonal gate commutes with a controlled gate that only *controls*
//!   on the shared qubits (controls are diagonal on their qubit).

use crate::gate::Gate;

/// What the commutation rules read off a gate, as bit masks over the
/// register (qubit `q` is bit `q`; registers are at most 64 qubits wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Footprint {
    /// Every qubit the gate touches.
    pub(crate) qubits: u64,
    /// The qubits it pairs ([`Gate::pairing_qubits`]).
    pub(crate) pairing: u64,
    /// Whether its matrix is diagonal.
    pub(crate) diagonal: bool,
}

impl Footprint {
    /// The footprint of `gate`.
    pub(crate) fn of(gate: &Gate) -> Footprint {
        let mask = |qs: Vec<u32>| qs.iter().fold(0u64, |m, q| m | 1 << q);
        Footprint {
            qubits: mask(gate.qubits()),
            pairing: mask(gate.pairing_qubits()),
            diagonal: gate.is_diagonal(),
        }
    }

    /// True if the two gates may trade places (conservative).
    pub(crate) fn commutes(&self, other: &Footprint) -> bool {
        let shared = self.qubits & other.qubits;
        shared == 0 // disjoint supports
            || (self.diagonal && other.diagonal) // simultaneous eigenbasis
            // Diagonal vs controlled: fine when every shared qubit is only a
            // *control* of the non-diagonal gate (controls act diagonally).
            || (self.diagonal && other.pairing & shared == 0)
            || (other.diagonal && self.pairing & shared == 0)
    }
}

/// True if `a` and `b` may trade places (conservative).
pub fn commutes(a: &Gate, b: &Gate) -> bool {
    Footprint::of(a).commutes(&Footprint::of(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutation_rules() {
        // Disjoint.
        assert!(commutes(&Gate::H(0), &Gate::X(1)));
        assert!(commutes(&Gate::Cx(0, 1), &Gate::Cx(2, 3)));
        // Overlapping non-diagonal: refused.
        assert!(!commutes(&Gate::H(0), &Gate::X(0)));
        assert!(!commutes(&Gate::Cx(0, 1), &Gate::H(1)));
        // Diagonal pair: allowed even on the same qubit.
        assert!(commutes(&Gate::Rz(0, 0.3), &Gate::T(0)));
        assert!(commutes(&Gate::Cz(0, 1), &Gate::Rzz(1, 2, 0.5)));
        // Diagonal vs control-only overlap: allowed.
        assert!(commutes(&Gate::Z(0), &Gate::Cx(0, 1)));
        assert!(commutes(&Gate::Cp(0, 2, 0.1), &Gate::Cx(0, 1)));
        // Diagonal vs paired overlap: refused.
        assert!(!commutes(&Gate::Z(1), &Gate::Cx(0, 1)));
        assert!(!commutes(&Gate::Rz(0, 1.0), &Gate::Swap(0, 1)));
    }
}
