//! Gate specialization for chunk-group buffers.
//!
//! When a stage executes, the engine assembles a buffer holding a *group*
//! of `2^|H|` chunks (`H` = the stage's high pairing qubits). A circuit
//! gate's qubits then fall into three classes:
//!
//! * **local** (`q < chunk_bits`) — same bit position inside the buffer;
//! * **in `H`** — mapped to buffer bit `chunk_bits + rank(q in H)`;
//! * **outside** — a high qubit not in `H`. Its value is *fixed* for the
//!   whole group (every chunk in the group shares those bits), so the gate
//!   specializes: controls drop away or kill the gate, diagonal action
//!   collapses to a smaller gate or a global scalar.
//!
//! The planner guarantees outside qubits are never *paired* by the gate, so
//! specialization is always possible; hitting the `unreachable!` arms means
//! the plan was built with the wrong config.

use mq_circuit::gate::{Diagonal, Gate};
use mq_circuit::matrix::Mat2;
use mq_num::Complex64;

/// The result of specializing one circuit gate to one chunk group.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // transient value, applied immediately
pub enum Specialized {
    /// The gate does not touch this group at all.
    Skip,
    /// The gate multiplies the whole group buffer by a scalar.
    Scalar(Complex64),
    /// The gate acts inside the buffer with remapped qubit indices.
    Apply(Gate),
}

/// Context for specialization: the chunk geometry and the group identity.
#[derive(Debug, Clone)]
pub struct GroupContext<'a> {
    /// log2 amplitudes per chunk.
    pub chunk_bits: u32,
    /// The stage's high pairing qubits, sorted ascending.
    pub high: &'a [u32],
    /// Any chunk index belonging to the group (its non-`high` high bits
    /// identify the group; its `high` bits are ignored).
    pub base_chunk: usize,
}

impl<'a> GroupContext<'a> {
    /// Buffer width in qubits: chunk bits + one per high qubit.
    pub fn buffer_qubits(&self) -> u32 {
        self.chunk_bits + self.high.len() as u32
    }

    /// Classifies a global qubit: `Ok(local_index)` if representable in the
    /// buffer, `Err(bit_value)` if outside (with its fixed value).
    fn map(&self, q: u32) -> Result<u32, bool> {
        if q < self.chunk_bits {
            return Ok(q);
        }
        if let Some(rank) = self.high.iter().position(|&h| h == q) {
            return Ok(self.chunk_bits + rank as u32);
        }
        Err((self.base_chunk >> (q - self.chunk_bits)) & 1 == 1)
    }
}

/// Specializes `gate` to the chunk group described by `ctx`. A diagonal
/// gate stays diagonal: the result is `Skip`, `Scalar`, or a gate for which
/// [`Gate::is_diagonal`] holds, so it reaches the diagonal kernels and the
/// folded phase tables, never a dense matrix kernel.
pub fn specialize(gate: &Gate, ctx: &GroupContext<'_>) -> Specialized {
    use Gate::*;
    match gate {
        // --- single-qubit gates -------------------------------------------
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
        | U1q(q, _) => match (ctx.map(*q), gate.diagonal()) {
            (Ok(l), _) => Specialized::Apply(remap_1q(gate, l)),
            (Err(bit), Some(Diagonal::One { d, .. })) => scalar(d[bit as usize]),
            (Err(_), _) => unreachable!("pairing gate {gate} on outside qubit"),
        },
        // --- controlled-pairing gates -------------------------------------
        Cx(c, t) | Cy(c, t) => {
            let target = match ctx.map(*t) {
                Ok(l) => l,
                Err(_) => unreachable!("pairing target of {gate} outside buffer"),
            };
            match ctx.map(*c) {
                Ok(lc) => Specialized::Apply(match gate {
                    Cx(..) => Cx(lc, target),
                    _ => Cy(lc, target),
                }),
                Err(false) => Specialized::Skip,
                Err(true) => Specialized::Apply(match gate {
                    Cx(..) => X(target),
                    _ => Y(target),
                }),
            }
        }
        // --- diagonal two-qubit gates --------------------------------------
        Cz(a, b) | Cp(a, b, _) | Rzz(a, b, _) => {
            let Some(Diagonal::Two { d, .. }) = gate.diagonal() else {
                unreachable!("{gate} is a two-qubit diagonal");
            };
            let f = |ba: bool, bb: bool| d[(bb as usize) << 1 | ba as usize];
            match (ctx.map(*a), ctx.map(*b)) {
                (Ok(la), Ok(lb)) => Specialized::Apply(match gate {
                    Cz(..) => Cz(la, lb),
                    Cp(_, _, l) => Cp(la, lb, *l),
                    Rzz(_, _, t) => Rzz(la, lb, *t),
                    _ => unreachable!(),
                }),
                (Ok(la), Err(bb)) => diag1_apply(la, f(false, bb), f(true, bb)),
                (Err(ba), Ok(lb)) => diag1_apply(lb, f(ba, false), f(ba, true)),
                (Err(ba), Err(bb)) => scalar(f(ba, bb)),
            }
        }
        // --- two-qubit pairing gates ----------------------------------------
        Swap(a, b) => match (ctx.map(*a), ctx.map(*b)) {
            (Ok(la), Ok(lb)) => Specialized::Apply(Swap(la, lb)),
            _ => unreachable!("swap pairs both qubits; planner must cover them"),
        },
        U2q(a, b, m) => match (ctx.map(*a), ctx.map(*b)) {
            (Ok(la), Ok(lb)) => Specialized::Apply(U2q(la, lb, *m)),
            _ => unreachable!("u2q pairs both qubits; planner must cover them"),
        },
        // --- multi-controlled ----------------------------------------------
        Mcu {
            controls,
            target,
            u,
        } => {
            let mut kept: Vec<u32> = Vec::with_capacity(controls.len());
            for &c in controls {
                match ctx.map(c) {
                    Ok(l) => kept.push(l),
                    Err(false) => return Specialized::Skip,
                    Err(true) => {} // satisfied control drops away
                }
            }
            match ctx.map(*target) {
                Ok(lt) => {
                    kept.sort_unstable();
                    if kept.is_empty() {
                        Specialized::Apply(U1q(lt, *u))
                    } else {
                        Specialized::Apply(Mcu {
                            controls: kept,
                            target: lt,
                            u: *u,
                        })
                    }
                }
                Err(bit) => {
                    // Outside target: must be diagonal (planner guarantee).
                    assert!(u.is_diagonal(0.0), "pairing mcu target outside buffer");
                    let s = if bit { u.0[3] } else { u.0[0] };
                    controlled_scalar(&kept, s)
                }
            }
        }
    }
}

/// Remaps a plain single-qubit gate to a new qubit index.
fn remap_1q(gate: &Gate, l: u32) -> Gate {
    use Gate::*;
    match gate {
        H(_) => H(l),
        X(_) => X(l),
        Y(_) => Y(l),
        Z(_) => Z(l),
        S(_) => S(l),
        Sdg(_) => Sdg(l),
        T(_) => T(l),
        Tdg(_) => Tdg(l),
        Sx(_) => Sx(l),
        Sxdg(_) => Sxdg(l),
        Rx(_, t) => Rx(l, *t),
        Ry(_, t) => Ry(l, *t),
        Rz(_, t) => Rz(l, *t),
        P(_, p) => P(l, *p),
        U3(_, a, b, c) => U3(l, *a, *b, *c),
        U1q(_, m) => U1q(l, *m),
        _ => unreachable!("not a 1q gate"),
    }
}

/// A whole-buffer factor: nothing to do when it is exactly one.
fn scalar(s: Complex64) -> Specialized {
    if s == Complex64::ONE {
        Specialized::Skip
    } else {
        Specialized::Scalar(s)
    }
}

/// `diag(d0, d1)` on buffer qubit `l`, as a diagonal `U1q`.
fn diag1_apply(l: u32, d0: Complex64, d1: Complex64) -> Specialized {
    if d0 == Complex64::ONE && d1 == Complex64::ONE {
        return Specialized::Skip;
    }
    Specialized::Apply(Gate::U1q(
        l,
        Mat2::new(d0, Complex64::ZERO, Complex64::ZERO, d1),
    ))
}

/// "Multiply amplitudes with all `controls` set by `s`" as a diagonal gate.
fn controlled_scalar(controls: &[u32], s: Complex64) -> Specialized {
    if s == Complex64::ONE {
        return Specialized::Skip;
    }
    let mut cs = controls.to_vec();
    cs.sort_unstable();
    match cs.split_last() {
        None => Specialized::Scalar(s),
        Some((&last, [])) => diag1_apply(last, Complex64::ONE, s),
        Some((&last, rest)) => Specialized::Apply(Gate::Mcu {
            controls: rest.to_vec(),
            target: last,
            u: Mat2::new(Complex64::ONE, Complex64::ZERO, Complex64::ZERO, s),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_num::complex::c64;

    fn ctx<'a>(chunk_bits: u32, high: &'a [u32], base_chunk: usize) -> GroupContext<'a> {
        GroupContext {
            chunk_bits,
            high,
            base_chunk,
        }
    }

    #[test]
    fn local_gates_pass_through_unchanged() {
        let c = ctx(4, &[], 0);
        assert_eq!(specialize(&Gate::H(2), &c), Specialized::Apply(Gate::H(2)));
        assert_eq!(
            specialize(&Gate::Cx(1, 3), &c),
            Specialized::Apply(Gate::Cx(1, 3))
        );
    }

    #[test]
    fn high_qubits_remap_to_buffer_top() {
        // chunk_bits=4, H = [6, 9]: qubit 6 -> 4, qubit 9 -> 5.
        let c = ctx(4, &[6, 9], 0);
        assert_eq!(specialize(&Gate::H(6), &c), Specialized::Apply(Gate::H(4)));
        assert_eq!(
            specialize(&Gate::Cx(9, 2), &c),
            Specialized::Apply(Gate::Cx(5, 2))
        );
        assert_eq!(
            specialize(&Gate::Swap(6, 9), &c),
            Specialized::Apply(Gate::Swap(4, 5))
        );
    }

    #[test]
    fn outside_control_skips_or_drops() {
        // qubit 7 outside; base_chunk bit (7-4)=3 decides.
        let c0 = ctx(4, &[], 0b0000);
        assert_eq!(specialize(&Gate::Cx(7, 1), &c0), Specialized::Skip);
        let c1 = ctx(4, &[], 0b1000);
        assert_eq!(
            specialize(&Gate::Cx(7, 1), &c1),
            Specialized::Apply(Gate::X(1))
        );
    }

    #[test]
    fn outside_diagonal_1q_becomes_scalar() {
        let c1 = ctx(4, &[], 0b0010); // qubit 5 bit = 1
        match specialize(&Gate::Z(5), &c1) {
            Specialized::Scalar(s) => assert!(s.approx_eq(c64(-1.0, 0.0), 1e-15)),
            other => panic!("unexpected {other:?}"),
        }
        let c0 = ctx(4, &[], 0b0000);
        assert_eq!(specialize(&Gate::Z(5), &c0), Specialized::Skip);
        // Rz has a phase on both bit values.
        match specialize(&Gate::Rz(5, 1.0), &c0) {
            Specialized::Scalar(s) => assert!(s.approx_eq(Complex64::cis(-0.5), 1e-15)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cz_with_one_outside_qubit() {
        // Cz(local 2, outside 6): bit=1 -> Z(2) as diagonal U1q.
        let c1 = ctx(4, &[], 0b0100);
        match specialize(&Gate::Cz(2, 6), &c1) {
            Specialized::Apply(Gate::U1q(2, m)) => {
                assert!(m.0[0].approx_eq(Complex64::ONE, 1e-15));
                assert!(m.0[3].approx_eq(c64(-1.0, 0.0), 1e-15));
            }
            other => panic!("unexpected {other:?}"),
        }
        let c0 = ctx(4, &[], 0);
        assert_eq!(specialize(&Gate::Cz(2, 6), &c0), Specialized::Skip);
    }

    #[test]
    fn cz_with_both_outside_qubits() {
        let c11 = ctx(2, &[], 0b11); // qubits 2 and 3 both 1
        match specialize(&Gate::Cz(2, 3), &c11) {
            Specialized::Scalar(s) => assert!(s.approx_eq(c64(-1.0, 0.0), 1e-15)),
            other => panic!("unexpected {other:?}"),
        }
        let c01 = ctx(2, &[], 0b01);
        assert_eq!(specialize(&Gate::Cz(2, 3), &c01), Specialized::Skip);
    }

    #[test]
    fn rzz_specializations() {
        let t = 0.8;
        // One outside (bit 0): Rz-like diagonal on the local qubit.
        let c = ctx(4, &[], 0);
        match specialize(&Gate::Rzz(1, 6, t), &c) {
            Specialized::Apply(Gate::U1q(1, m)) => {
                assert!(m.0[0].approx_eq(Complex64::cis(-t / 2.0), 1e-15));
                assert!(m.0[3].approx_eq(Complex64::cis(t / 2.0), 1e-15));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Both outside, equal bits: scalar e^{-it/2}.
        let c11 = ctx(2, &[], 0b11);
        match specialize(&Gate::Rzz(2, 3, t), &c11) {
            Specialized::Scalar(s) => assert!(s.approx_eq(Complex64::cis(-t / 2.0), 1e-15)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mcu_with_outside_controls() {
        // mcx(controls=[5,6], target=1), chunk_bits=4.
        let g = Gate::mcx(&[5, 6], 1);
        // Both outside controls satisfied: bare X (as a fused U1q).
        let c = ctx(4, &[], 0b0110);
        assert_eq!(
            specialize(&g, &c),
            Specialized::Apply(Gate::U1q(1, mq_circuit::gate::mat2_x()))
        );
        // One unsatisfied: skip.
        let c = ctx(4, &[], 0b0100);
        assert_eq!(specialize(&g, &c), Specialized::Skip);
        // Mixed: control 2 local, control 6 outside satisfied.
        let g2 = Gate::mcx(&[2, 6], 1);
        let c = ctx(4, &[], 0b0100);
        assert_eq!(
            specialize(&g2, &c),
            Specialized::Apply(Gate::Mcu {
                controls: vec![2],
                target: 1,
                u: mq_circuit::gate::mat2_x()
            })
        );
    }

    #[test]
    fn diagonal_mcu_with_outside_target() {
        // mcz(controls=[1], target=7): outside target bit=1 -> controlled
        // scalar -1 on qubit 1 = U1q diag(1, -1) = Z.
        let g = Gate::mcz(&[1], 7);
        let c = ctx(4, &[], 0b1000);
        match specialize(&g, &c) {
            Specialized::Apply(Gate::U1q(1, m)) => {
                assert!(m.0[3].approx_eq(c64(-1.0, 0.0), 1e-15));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Target bit = 0: diag entry is 1 -> skip.
        let c = ctx(4, &[], 0);
        assert_eq!(specialize(&g, &c), Specialized::Skip);
    }

    #[test]
    fn mcu_all_outside_becomes_scalar() {
        // mcp(controls=[5], target=6, pi): both outside, both bits 1.
        let g = Gate::mcp(&[5], 6, std::f64::consts::PI);
        let c = ctx(4, &[], 0b0110);
        match specialize(&g, &c) {
            Specialized::Scalar(s) => assert!(s.approx_eq(c64(-1.0, 0.0), 1e-12)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn high_qubit_diag2_stays_in_buffer() {
        // Cp between a local and an H qubit: the same gate, remapped.
        let high = [6u32];
        let c = ctx(4, &high, 0);
        assert_eq!(
            specialize(&Gate::Cp(2, 6, 0.3), &c),
            Specialized::Apply(Gate::Cp(2, 4, 0.3))
        );
        assert_eq!(
            specialize(&Gate::Rzz(6, 1, 0.3), &c),
            Specialized::Apply(Gate::Rzz(4, 1, 0.3))
        );
    }

    /// Specializes `gate` for every group of a 6-qubit register (chunks of
    /// 2 qubits, qubit 3 the stage's high qubit, qubits 2, 4 and 5 outside),
    /// applies the result to the gathered group buffer and holds it against
    /// the dense oracle. Returns every outcome seen.
    fn specialize_all_groups(gate: &Gate) -> Vec<Specialized> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const N: u32 = 6;
        const CHUNK_BITS: u32 = 2;
        let high = [3u32];
        let mut rng = StdRng::seed_from_u64(5);
        let psi: Vec<Complex64> = (0..1usize << N)
            .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut want = psi.clone();
        mq_circuit::unitary::apply_gate_dense(N, &mut want, gate);

        let mut seen = Vec::new();
        for base_chunk in 0..1usize << (N - CHUNK_BITS) {
            if base_chunk >> (high[0] - CHUNK_BITS) & 1 == 1 {
                continue; // the group's other member
            }
            let c = ctx(CHUNK_BITS, &high, base_chunk);
            // Buffer index -> global index: local bits, then the high bit.
            let global = |j: usize| {
                let local = j & ((1 << CHUNK_BITS) - 1);
                let h = j >> CHUNK_BITS & 1;
                (base_chunk << CHUNK_BITS) | (h << high[0]) | local
            };
            let len = 1usize << c.buffer_qubits();
            let mut buffer: Vec<Complex64> = (0..len).map(|j| psi[global(j)]).collect();
            let out = specialize(gate, &c);
            match &out {
                Specialized::Skip => {}
                Specialized::Scalar(s) => buffer.iter_mut().for_each(|z| *z *= *s),
                Specialized::Apply(g) => {
                    assert!(g.is_diagonal(), "{gate} specialized to dense {g}");
                    mq_statevec::apply::apply_gate(&mut buffer, g, 1);
                }
            }
            for (j, z) in buffer.iter().enumerate() {
                assert!(
                    z.approx_eq(want[global(j)], 1e-12),
                    "{gate} group {base_chunk} index {j}: {out:?}"
                );
            }
            seen.push(out);
        }
        seen
    }

    #[test]
    fn diagonal_gates_stay_diagonal_in_every_placement() {
        let applies = |s: &Specialized| matches!(s, Specialized::Apply(_));
        let scales = |s: &Specialized| matches!(s, Specialized::Scalar(_));

        // Single-qubit kinds: in the buffer (local, high) or outside with
        // the bit at 0 and at 1 (every group is visited).
        let kinds_1q: [fn(u32) -> Gate; 5] = [
            Gate::Z,
            Gate::S,
            Gate::T,
            |q| Gate::P(q, 0.7),
            |q| Gate::Rz(q, 1.1),
        ];
        for mk in kinds_1q {
            for q in [0, 3] {
                assert!(specialize_all_groups(&mk(q)).iter().all(applies));
            }
            for q in [2, 5] {
                let seen = specialize_all_groups(&mk(q));
                assert!(!seen.iter().any(applies), "{seen:?}");
                assert!(seen.iter().any(scales), "{seen:?}");
            }
        }

        // Two-qubit kinds over in/in, in/out (bit 0 and 1, both argument
        // orders) and out/out.
        let kinds_2q: [fn(u32, u32) -> Gate; 3] = [
            Gate::Cz,
            |a, b| Gate::Cp(a, b, 0.9),
            |a, b| Gate::Rzz(a, b, 0.6),
        ];
        for mk in kinds_2q {
            for (a, b) in [(0, 1), (1, 3), (3, 0)] {
                assert!(specialize_all_groups(&mk(a, b)).iter().all(applies));
            }
            for (a, b) in [(1, 4), (4, 1), (3, 2), (5, 0)] {
                let seen = specialize_all_groups(&mk(a, b));
                assert!(!seen.iter().any(scales), "{seen:?}");
                assert!(seen.iter().any(applies), "{seen:?}");
            }
            for (a, b) in [(2, 4), (5, 2)] {
                let seen = specialize_all_groups(&mk(a, b));
                assert!(!seen.iter().any(applies), "{seen:?}");
                assert!(seen.iter().any(scales), "{seen:?}");
            }
        }

        // mcz: all inside, an outside control, an outside target (one and
        // two controls left), everything outside.
        assert!(specialize_all_groups(&Gate::mcz(&[0, 3], 1))
            .iter()
            .all(applies));
        for g in [
            Gate::mcz(&[0, 4], 1),
            Gate::mcz(&[1], 5),
            Gate::mcz(&[0, 3], 2),
        ] {
            let seen = specialize_all_groups(&g);
            assert!(!seen.iter().any(scales), "{seen:?}");
            assert!(seen.iter().any(applies), "{seen:?}");
            assert!(seen.contains(&Specialized::Skip), "{seen:?}");
        }
        let seen = specialize_all_groups(&Gate::mcz(&[2, 4], 5));
        assert!(!seen.iter().any(applies), "{seen:?}");
        assert!(seen.contains(&Specialized::Scalar(c64(-1.0, 0.0))));
    }

    #[test]
    fn buffer_qubits_counts_high() {
        assert_eq!(ctx(4, &[], 0).buffer_qubits(), 4);
        assert_eq!(ctx(4, &[6, 9], 0).buffer_qubits(), 6);
    }
}
