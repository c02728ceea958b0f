//! Access-pattern analysis (paper design challenge 3).
//!
//! "Different quantum algorithms' behaviors affect the access pattern on the
//! state vector" — this module quantifies that: how chunk-local a circuit is
//! for a given chunk size, how often qubits are touched, and how much
//! staging the offline stage can save versus the per-gate baseline.

use crate::partition::{partition, partition_per_gate, PartitionConfig};
use crate::schedule::schedule;
use crate::Circuit;

/// Locality profile of a circuit for a given chunk size.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalityProfile {
    /// Circuit name.
    pub name: String,
    /// Register width.
    pub n_qubits: u32,
    /// Chunk size exponent the profile was computed for.
    pub chunk_bits: u32,
    /// Total gate count.
    pub gates: usize,
    /// Gates whose pairing qubits are all below `chunk_bits`.
    pub local_gates: usize,
    /// Gates with no pairing qubits at all (diagonal / control-only).
    pub diagonal_gates: usize,
    /// Number of stages packing the circuit as written takes (`max_high =
    /// 1`, falling back to 2 if a gate demands it).
    pub stages: usize,
    /// Chunk visits of that as-written plan.
    pub staged_chunk_visits: usize,
    /// Chunk visits of the scheduler's plan for the same geometry (swap-only
    /// tail sweeps included).
    pub scheduled_chunk_visits: usize,
    /// Chunk visits under the per-gate baseline.
    pub per_gate_chunk_visits: usize,
    /// Per-qubit gate-touch counts (index = qubit).
    pub qubit_touches: Vec<usize>,
}

impl LocalityProfile {
    /// Fraction of gates that are chunk-local, in `[0, 1]`.
    pub fn local_fraction(&self) -> f64 {
        if self.gates == 0 {
            return 1.0;
        }
        self.local_gates as f64 / self.gates as f64
    }

    /// Ratio of per-gate to staged chunk visits — the factor by which stage
    /// fusion reduces compression traffic (>= 1).
    pub fn staging_gain(&self) -> f64 {
        if self.staged_chunk_visits == 0 {
            return 1.0;
        }
        self.per_gate_chunk_visits as f64 / self.staged_chunk_visits as f64
    }

    /// Ratio of as-written to scheduled chunk visits — the further factor
    /// planning by dependency buys on top of staging.
    pub fn scheduling_gain(&self) -> f64 {
        if self.scheduled_chunk_visits == 0 {
            return 1.0;
        }
        self.staged_chunk_visits as f64 / self.scheduled_chunk_visits as f64
    }
}

/// Computes the locality profile of `circuit` at `chunk_bits`.
pub fn locality_profile(circuit: &Circuit, chunk_bits: u32) -> LocalityProfile {
    let n = circuit.n_qubits();
    let mut local_gates = 0usize;
    let mut diagonal_gates = 0usize;
    let mut qubit_touches = vec![0usize; n as usize];
    let mut needs_two_high = false;

    for g in circuit.gates() {
        for q in g.qubits() {
            qubit_touches[q as usize] += 1;
        }
        let high: Vec<u32> = g
            .pairing_qubits()
            .into_iter()
            .filter(|&q| q >= chunk_bits)
            .collect();
        if high.is_empty() {
            local_gates += 1;
        }
        if high.len() >= 2 {
            needs_two_high = true;
        }
        if g.pairing_qubits().is_empty() {
            diagonal_gates += 1;
        }
    }

    let cfg = PartitionConfig {
        chunk_bits,
        max_high_qubits: if needs_two_high { 2 } else { 1 },
    };
    let plan = partition(circuit, &cfg);
    let scheduled = schedule(circuit, &cfg).plan;
    let per_gate = partition_per_gate(circuit, chunk_bits);

    LocalityProfile {
        name: circuit.name().to_string(),
        n_qubits: n,
        chunk_bits,
        gates: circuit.len(),
        local_gates,
        diagonal_gates,
        stages: plan.stages.len(),
        staged_chunk_visits: plan.chunk_visits(),
        scheduled_chunk_visits: scheduled.chunk_visits(),
        per_gate_chunk_visits: per_gate.chunk_visits(),
        qubit_touches,
    }
}

/// Sweeps chunk sizes, returning one profile per `chunk_bits` value.
pub fn locality_sweep(
    circuit: &Circuit,
    chunk_bits_range: impl Iterator<Item = u32>,
) -> Vec<LocalityProfile> {
    chunk_bits_range
        .map(|cb| locality_profile(circuit, cb))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    #[test]
    fn ghz_is_mostly_local_with_large_chunks() {
        let c = library::ghz(10);
        let p = locality_profile(&c, 8);
        // Only CX(7,8) and CX(8,9) pair high qubits.
        assert_eq!(p.gates - p.local_gates, 2);
        assert!(p.local_fraction() > 0.7);
    }

    #[test]
    fn everything_local_when_one_chunk() {
        for c in library::standard_suite(6) {
            let p = locality_profile(&c, 6);
            assert_eq!(p.local_gates, p.gates, "{}", c.name());
            assert_eq!(p.stages, 1.min(p.gates), "{}", c.name());
        }
    }

    #[test]
    fn the_scheduler_never_profiles_worse_than_as_written() {
        for c in library::standard_suite(8) {
            let p = locality_profile(&c, 4);
            assert!(p.scheduling_gain() >= 1.0, "{}: {p:?}", c.name());
        }
        // QFT's absorbed tail swap network makes the gain strict.
        let p = locality_profile(&library::qft(10), 4);
        assert!(
            p.scheduling_gain() > 1.0,
            "qft gain {}",
            p.scheduling_gain()
        );
    }

    #[test]
    fn qaoa_cost_layers_are_diagonal() {
        let c = library::qaoa_maxcut(8, &library::ring_graph(8), &[0.3], &[0.5]);
        let p = locality_profile(&c, 2);
        // 8 rzz gates are diagonal.
        assert!(p.diagonal_gates >= 8);
    }

    #[test]
    fn staging_gain_is_at_least_one() {
        for c in library::standard_suite(8) {
            for cb in [2u32, 4, 6] {
                let p = locality_profile(&c, cb);
                assert!(p.staging_gain() >= 1.0, "{} cb={cb}", c.name());
            }
        }
    }

    #[test]
    fn qft_touches_every_qubit() {
        let p = locality_profile(&library::qft(6), 3);
        assert!(p.qubit_touches.iter().all(|&t| t > 0));
    }

    #[test]
    fn local_fraction_monotone_in_chunk_bits() {
        let c = library::qft(8);
        let profiles = locality_sweep(&c, 1..=8);
        for w in profiles.windows(2) {
            assert!(w[1].local_fraction() >= w[0].local_fraction());
        }
    }

    #[test]
    fn empty_circuit_profile() {
        let c = Circuit::new(4);
        let p = locality_profile(&c, 2);
        assert_eq!(p.local_fraction(), 1.0);
        assert_eq!(p.staging_gain(), 1.0);
        assert_eq!(p.stages, 0);
    }
}
