//! Commutation-aware gate reordering for chunk locality.
//!
//! The greedy stage partitioner ([`crate::partition`]) packs *consecutive*
//! gates; interleavings like `H(high); Rz(low); H(high')` force stage
//! breaks that a legal reorder avoids. This pass sinks each gate leftward
//! past gates it provably commutes with until it lands next to a gate with
//! the same cross-chunk signature, clustering same-signature runs so the
//! partitioner emits fewer stages — less decompress/recompress traffic for
//! the identical circuit unitary.
//!
//! Only gates *with* a cross-chunk signature move. A chunk-local gate fits
//! any stage, so it has no cluster to join and keeps its place: moving it
//! changes which intermediate states get stored, not how many stages there
//! are. (Were local gates to sink to the nearest local gate as well, the
//! closing H layer of Bernstein–Vazirani would land in the first stage for
//! exactly the qubits below the secret's lowest set bit, and the run's peak
//! compressed size would swing 6x with that bit.)
//!
//! Commutation is decided *conservatively* (sound, not complete):
//!
//! * gates on disjoint qubit sets commute;
//! * diagonal gates commute with each other regardless of overlap;
//! * a diagonal gate commutes with a controlled gate that only *controls*
//!   on the shared qubits (controls are diagonal on their qubit).

use crate::gate::Gate;
use crate::Circuit;

/// True if the reordering pass may swap `a` and `b` (conservative).
pub fn commutes(a: &Gate, b: &Gate) -> bool {
    let qa = a.qubits();
    let qb = b.qubits();
    if qa.iter().all(|q| !qb.contains(q)) {
        return true; // disjoint supports
    }
    if a.is_diagonal() && b.is_diagonal() {
        return true; // simultaneous eigenbasis
    }
    // Diagonal vs controlled: fine when every shared qubit is only a
    // *control* of the non-diagonal gate (controls act diagonally).
    if a.is_diagonal() {
        return shared_only_controls(b, &qa);
    }
    if b.is_diagonal() {
        return shared_only_controls(a, &qb);
    }
    false
}

/// True if every qubit of `gate` that appears in `other_qubits` is a
/// control (not paired) for `gate`.
fn shared_only_controls(gate: &Gate, other_qubits: &[u32]) -> bool {
    let pairing = gate.pairing_qubits();
    gate.qubits()
        .iter()
        .filter(|q| other_qubits.contains(q))
        .all(|q| !pairing.contains(q))
}

/// The cross-chunk signature of a gate: its sorted high pairing qubits.
fn signature(gate: &Gate, chunk_bits: u32) -> Vec<u32> {
    let mut sig: Vec<u32> = gate
        .pairing_qubits()
        .into_iter()
        .filter(|&q| q >= chunk_bits)
        .collect();
    sig.sort_unstable();
    sig.dedup();
    sig
}

/// Reorders `circuit` (unitary-preserving) so gates sharing a cross-chunk
/// signature cluster together for the given chunk size.
pub fn reorder_for_locality(circuit: &Circuit, chunk_bits: u32) -> Circuit {
    let mut out: Vec<(Gate, Vec<u32>)> = Vec::with_capacity(circuit.len());
    for gate in circuit.gates() {
        let sig = signature(gate, chunk_bits);
        if sig.is_empty() {
            out.push((gate.clone(), sig));
            continue;
        }
        // Sink left past commuting gates, looking for a same-signature
        // neighbor to join. The neighbor itself need not commute — the gate
        // is inserted *after* it, preserving their relative order.
        let mut pos = out.len();
        let mut target = None;
        while pos > 0 {
            if out[pos - 1].1 == sig {
                target = Some(pos);
                break;
            }
            if !commutes(gate, &out[pos - 1].0) {
                break;
            }
            pos -= 1;
        }
        let insert_at = target.unwrap_or(out.len());
        out.insert(insert_at, (gate.clone(), sig));
    }
    let mut result = Circuit::named(
        circuit.n_qubits(),
        if circuit.name().is_empty() {
            String::new()
        } else {
            format!("{}_reordered", circuit.name())
        },
    );
    for (g, _) in out {
        result.push(g);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use crate::partition::{partition, PartitionConfig};
    use crate::unitary::run_dense;
    use mq_num::metrics::max_amp_err;

    fn stage_count(c: &Circuit, chunk_bits: u32) -> usize {
        partition(
            c,
            &PartitionConfig {
                chunk_bits,
                max_high_qubits: 2,
            },
        )
        .stages
        .len()
    }

    fn assert_same_unitary(a: &Circuit, b: &Circuit) {
        for start in [0usize, 1, (1 << a.n_qubits()) - 1] {
            let x = run_dense(a, start);
            let y = run_dense(b, start);
            assert!(
                max_amp_err(&x, &y) < 1e-10,
                "reorder changed the state from |{start}>"
            );
        }
    }

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

    #[test]
    fn reordering_preserves_unitaries_on_the_suite() {
        for c in library::standard_suite(6) {
            for chunk_bits in [2u32, 4] {
                let r = reorder_for_locality(&c, chunk_bits);
                assert_eq!(r.len(), c.len(), "{}", c.name());
                assert_same_unitary(&c, &r);
            }
        }
    }

    #[test]
    fn reordering_never_increases_stage_count_on_the_suite() {
        for c in library::standard_suite(8) {
            for chunk_bits in [3u32, 5] {
                let before = stage_count(&c, chunk_bits);
                let after = stage_count(&reorder_for_locality(&c, chunk_bits), chunk_bits);
                assert!(
                    after <= before,
                    "{} cb={chunk_bits}: {before} -> {after}",
                    c.name()
                );
            }
        }
    }

    #[test]
    fn interleaved_high_low_gates_cluster() {
        // Rotating H's over three distinct high qubits (only two fit one
        // stage) interleaved with local Rz's: naive partition needs a new
        // stage almost every round; reorder clusters by signature.
        let n = 8u32;
        let chunk_bits = 4;
        let mut c = Circuit::new(n);
        for _ in 0..4 {
            c.h(5);
            c.rz(1, 0.1);
            c.h(6);
            c.rz(2, 0.2);
            c.h(7);
            c.rz(3, 0.3);
        }
        let before = stage_count(&c, chunk_bits);
        let r = reorder_for_locality(&c, chunk_bits);
        let after = stage_count(&r, chunk_bits);
        assert!(after < before, "{before} -> {after}");
        assert_same_unitary(&c, &r);
    }

    #[test]
    fn qaoa_mixer_layers_benefit() {
        // QAOA p=2: cost layers are diagonal (commute with everything
        // diagonal), mixers pair. Reorder clusters the high-mixer gates.
        let n = 10u32;
        let c = library::qaoa_maxcut(n, &library::ring_graph(n), &[0.3, 0.6], &[0.2, 0.5]);
        let before = stage_count(&c, 4);
        let r = reorder_for_locality(&c, 4);
        let after = stage_count(&r, 4);
        assert!(after <= before, "{before} -> {after}");
        assert_same_unitary(&c, &r);
    }

    #[test]
    fn chunk_local_gates_keep_their_place() {
        // Bernstein–Vazirani at every position of the secret's lowest set
        // bit: the closing H layer on the chunk-local qubits is never pulled
        // forward past the oracle, so every secret gets the same stages.
        let (data, chunk_bits) = (9u32, 6u32);
        let shapes: Vec<Vec<usize>> = (0..chunk_bits)
            .map(|lowest| {
                let secret = (0b101u64 << chunk_bits) | (1 << lowest) | (1 << (chunk_bits - 1));
                let c = library::bernstein_vazirani(data, secret);
                let r = reorder_for_locality(&c, chunk_bits);
                let local = |g: &Gate| signature(g, chunk_bits).is_empty();
                let kept: Vec<&Gate> = r.gates().iter().filter(|g| local(g)).collect();
                let want: Vec<&Gate> = c.gates().iter().filter(|g| local(g)).collect();
                assert_eq!(kept, want, "local gates reordered for secret {secret:b}");
                let last_cx = r.gates().iter().rposition(|g| matches!(g, Gate::Cx(..)));
                let closing = &r.gates()[last_cx.unwrap() + 1..];
                let closing_local = closing.iter().filter(|g| local(g)).count();
                assert_eq!(closing_local, chunk_bits as usize, "secret {secret:b}");
                let plan = partition(
                    &r,
                    &PartitionConfig {
                        chunk_bits,
                        max_high_qubits: 2,
                    },
                );
                plan.stages.iter().map(|s| s.high_qubits.len()).collect()
            })
            .collect();
        assert!(shapes.windows(2).all(|w| w[0] == w[1]), "{shapes:?}");
    }

    #[test]
    fn empty_and_single_gate_circuits() {
        let c = Circuit::new(4);
        assert!(reorder_for_locality(&c, 2).is_empty());
        let mut one = Circuit::new(4);
        one.h(3);
        let r = reorder_for_locality(&one, 2);
        assert_eq!(r.gates(), one.gates());
    }
}
