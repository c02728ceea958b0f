//! Logical→physical qubit layouts.
//!
//! Gate *reordering* shuffles commuting gates but can never make a
//! genuinely nonlocal gate local. Qubit *relabeling* can: a layout
//! permutation assigns each logical qubit a physical bit position in the
//! stored state. The scheduler ([`crate::schedule`]) moves the layout two
//! ways: it folds a `Swap` gate on two high positions into the relabeling
//! with no data movement, and it appends physical `Swap(low, high)` gates
//! to a stage whose group buffer holds both positions anyway. The final
//! layout is restored to identity before the plan ends, so a run under a
//! moving layout lands on the same state as a fixed-layout run.

use crate::gate::Gate;

/// A logical→physical qubit layout: `phys_of(q)` is the bit position in the
/// stored state that carries logical qubit `q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QubitLayout {
    phys_of_logical: Vec<u32>,
}

impl QubitLayout {
    /// The identity layout on `n` qubits.
    pub fn identity(n: u32) -> QubitLayout {
        QubitLayout {
            phys_of_logical: (0..n).collect(),
        }
    }

    /// Physical bit position of logical qubit `q`.
    pub fn phys(&self, q: u32) -> u32 {
        self.phys_of_logical[q as usize]
    }

    /// True if every logical qubit sits at its own position.
    pub fn is_identity(&self) -> bool {
        self.phys_of_logical
            .iter()
            .enumerate()
            .all(|(i, &p)| p == i as u32)
    }

    /// Logical qubit currently stored at physical position `p`.
    pub fn logical_at(&self, p: u32) -> u32 {
        self.phys_of_logical
            .iter()
            .position(|&x| x == p)
            .expect("layout is a permutation") as u32
    }

    /// Exchanges the logical qubits stored at physical positions `a` and
    /// `b` (the effect of executing a remap transposition `(a, b)`).
    pub fn swap_physical(&mut self, a: u32, b: u32) {
        let la = self.logical_at(a) as usize;
        let lb = self.logical_at(b) as usize;
        self.phys_of_logical[la] = b;
        self.phys_of_logical[lb] = a;
    }

    /// Folds a logical `Swap(qa, qb)` gate into the layout: the two logical
    /// qubits exchange physical positions with **no data movement** (the
    /// swap's basis permutation is deferred into the relabeling).
    pub fn absorb_logical_swap(&mut self, qa: u32, qb: u32) {
        self.phys_of_logical.swap(qa as usize, qb as usize);
    }

    /// Rewrites a gate's logical qubit indices into physical positions.
    /// `Mcu` controls are re-sorted so the gate stays valid.
    pub fn map_gate(&self, g: &Gate) -> Gate {
        use Gate::*;
        let m = |q: u32| self.phys(q);
        match g {
            H(q) => H(m(*q)),
            X(q) => X(m(*q)),
            Y(q) => Y(m(*q)),
            Z(q) => Z(m(*q)),
            S(q) => S(m(*q)),
            Sdg(q) => Sdg(m(*q)),
            T(q) => T(m(*q)),
            Tdg(q) => Tdg(m(*q)),
            Sx(q) => Sx(m(*q)),
            Sxdg(q) => Sxdg(m(*q)),
            Rx(q, t) => Rx(m(*q), *t),
            Ry(q, t) => Ry(m(*q), *t),
            Rz(q, t) => Rz(m(*q), *t),
            P(q, l) => P(m(*q), *l),
            U3(q, t, p, l) => U3(m(*q), *t, *p, *l),
            U1q(q, u) => U1q(m(*q), *u),
            Cx(c, t) => Cx(m(*c), m(*t)),
            Cy(c, t) => Cy(m(*c), m(*t)),
            Cz(a, b) => Cz(m(*a), m(*b)),
            Cp(a, b, l) => Cp(m(*a), m(*b), *l),
            Swap(a, b) => Swap(m(*a), m(*b)),
            Rzz(a, b, t) => Rzz(m(*a), m(*b), *t),
            U2q(a, b, u) => U2q(m(*a), m(*b), *u),
            Mcu {
                controls,
                target,
                u,
            } => {
                let mut controls: Vec<u32> = controls.iter().map(|&c| m(c)).collect();
                controls.sort_unstable();
                Mcu {
                    controls,
                    target: m(*target),
                    u: *u,
                }
            }
        }
    }

    /// The physical transpositions that move the stored state from this
    /// layout back to identity, in application order. High positions are
    /// fixed first so that logical qubits already among the high positions
    /// resolve as free high↔high chunk exchanges; the low↔high crossings
    /// that genuinely moved data pay their sweep here.
    pub fn restore_to_identity(&self, chunk_bits: u32) -> Vec<(u32, u32)> {
        let n = self.phys_of_logical.len() as u32;
        let mut work = self.clone();
        let mut swaps = Vec::new();
        // Physical position p must end up holding logical p. Walk high
        // positions first (descending), then low.
        let order = (chunk_bits..n).rev().chain(0..chunk_bits);
        for p in order {
            if work.logical_at(p) == p {
                continue;
            }
            let from = work.phys(p); // where logical p currently sits
            swaps.push((from.min(p), from.max(p)));
            work.swap_physical(from, p);
        }
        debug_assert!(work.is_identity());
        swaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_layout_maps_gates_unchanged() {
        let l = QubitLayout::identity(6);
        assert!(l.is_identity());
        assert_eq!(l.map_gate(&Gate::Cx(1, 4)), Gate::Cx(1, 4));
    }

    #[test]
    fn swap_physical_round_trips() {
        let mut l = QubitLayout::identity(8);
        l.swap_physical(2, 6);
        assert_eq!(l.phys(2), 6);
        assert_eq!(l.phys(6), 2);
        assert_eq!(l.logical_at(6), 2);
        assert_eq!(l.map_gate(&Gate::H(2)), Gate::H(6));
        l.swap_physical(2, 6);
        assert!(l.is_identity());
    }

    #[test]
    fn absorbed_swap_exchanges_logical_positions() {
        let mut l = QubitLayout::identity(8);
        l.absorb_logical_swap(1, 7);
        assert_eq!(l.phys(1), 7);
        assert_eq!(l.phys(7), 1);
        // Mcu controls stay sorted after mapping.
        let g = Gate::mcx(&[1, 3], 5);
        let mapped = l.map_gate(&g);
        if let Gate::Mcu { controls, .. } = &mapped {
            assert_eq!(controls, &vec![3, 7]);
        } else {
            panic!("expected Mcu");
        }
        assert!(mapped.validate(8).is_ok());
    }

    #[test]
    fn restore_prefers_high_high_exchanges() {
        // A permutation with a pure high-high component: logical 5 and 6
        // swapped (both >= chunk_bits 4), plus a low-high crossing.
        let mut l = QubitLayout::identity(8);
        l.absorb_logical_swap(5, 6);
        l.absorb_logical_swap(1, 7);
        let swaps = l.restore_to_identity(4);
        // At least one restoring transposition is high-high (free).
        assert!(swaps.iter().any(|&(a, b)| a >= 4 && b >= 4), "{swaps:?}");
        // Applying them returns the layout to identity.
        let mut check = l.clone();
        for &(a, b) in &swaps {
            check.swap_physical(a, b);
        }
        assert!(check.is_identity());
    }
}
