//! Property test: the cache-blocked sweep is the per-gate kernels is the
//! dense oracle. `apply_all_tiled` is the engines' only apply body, so on
//! random op lists it must agree with one `apply_gate` call per gate (one
//! plain multiply per scalar) and with `apply_gate_dense` to ~1e-12 (folding
//! a diagonal run into a phase table only reassociates products) at *every*
//! tile width from 2 amplitudes to the whole buffer. The lists mix what the
//! segmenter treats differently: diagonal runs — with scalars and cuts in
//! them — whose union support outgrows one phase table and straddles the
//! tile and the 256-amplitude block boundary, X/SWAP permutation runs,
//! pairing gates below and above the tile, and CX/SWAP exchanges on the edge
//! shapes (a one- or two-amplitude run, the top qubit). The exchange kernel
//! moves amplitudes and computes nothing, so against the oracle it is held
//! to `==` on every ordered qubit pair.

use mq_circuit::gate::{mat2_p, Gate};
use mq_circuit::unitary::apply_gate_dense;
use mq_num::complex::c64;
use mq_num::metrics::max_amp_err;
use mq_num::Complex64;
use mq_statevec::apply::{apply_all_tiled, apply_gate, SweepOp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Wide enough for a diagonal run to exceed the 10-qubit table limit and
/// for tiles on both sides of the 2^8 block.
const N: u32 = 12;

fn distinct(rng: &mut StdRng, k: usize) -> Vec<u32> {
    let mut qs: Vec<u32> = Vec::new();
    while qs.len() < k {
        let q = rng.gen_range(0..N);
        if !qs.contains(&q) {
            qs.push(q);
        }
    }
    qs
}

fn diagonal_gate(rng: &mut StdRng) -> Gate {
    let q = distinct(rng, 3);
    let t = rng.gen_range(-3.0..3.0);
    match rng.gen_range(0..11) {
        0 => Gate::Z(q[0]),
        1 => Gate::S(q[0]),
        2 => Gate::T(q[0]),
        3 => Gate::P(q[0], t),
        4 => Gate::Rz(q[0], t),
        5 => Gate::Cz(q[0], q[1]),
        6 => Gate::Cp(q[0], q[1], t),
        7 => Gate::Rzz(q[0], q[1], t),
        8 => Gate::mcz(&q[..2], q[2]),
        9 => Gate::U1q(q[0], mat2_p(t)),
        _ => Gate::U2q(q[0], q[1], Gate::Rzz(0, 1, t).mat4().unwrap()),
    }
}

fn permutation_gate(rng: &mut StdRng) -> Gate {
    let q = distinct(rng, 2);
    if rng.gen_range(0..2) == 0 {
        Gate::X(q[0])
    } else {
        Gate::Swap(q[0], q[1])
    }
}

fn pairing_gate(rng: &mut StdRng) -> Gate {
    let q = distinct(rng, 3);
    match rng.gen_range(0..4) {
        0 => Gate::H(q[0]),
        1 => Gate::Cx(q[0], q[1]),
        2 => Gate::U3(q[0], 0.3, -1.1, 2.0),
        _ => Gate::ccx(q[0], q[1], q[2]),
    }
}

/// CX or SWAP with the low qubit at 0 or 1 (runs too short for a slice
/// swap), the high one on top of the buffer, or both anywhere.
fn exchange_gate(rng: &mut StdRng) -> Gate {
    let q = distinct(rng, 2);
    let (mut lo, mut hi) = (q[0].min(q[1]), q[0].max(q[1]));
    match rng.gen_range(0..4) {
        0 => lo = rng.gen_range(0..2),
        1 => hi = N - 1,
        2 => (lo, hi) = (rng.gen_range(0..2), N - 1),
        _ => {}
    }
    if lo == hi {
        hi += 1;
    }
    let (a, b) = if rng.gen_range(0..2) == 0 {
        (lo, hi)
    } else {
        (hi, lo)
    };
    if rng.gen_range(0..2) == 0 {
        Gate::Cx(a, b)
    } else {
        Gate::Swap(a, b)
    }
}

/// 3-6 runs of one kind each, in random order. A diagonal run is what a
/// specialized stage holds: gates, scalars and the odd cut.
fn op_list(seed: u64) -> Vec<SweepOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(3..=6) {
        match rng.gen_range(0..4) {
            0 => {
                for _ in 0..rng.gen_range(3..=16) {
                    ops.push(match rng.gen_range(0..8) {
                        0 => SweepOp::Scalar(Complex64::cis(rng.gen_range(-3.0..3.0))),
                        1 => SweepOp::Cut,
                        _ => SweepOp::Gate(diagonal_gate(&mut rng)),
                    });
                }
            }
            1 => {
                for _ in 0..rng.gen_range(1..=5) {
                    ops.push(SweepOp::Gate(permutation_gate(&mut rng)));
                }
            }
            2 => {
                for _ in 0..rng.gen_range(1..=3) {
                    ops.push(SweepOp::Gate(pairing_gate(&mut rng)));
                }
            }
            _ => {
                for _ in 0..rng.gen_range(1..=3) {
                    ops.push(SweepOp::Gate(exchange_gate(&mut rng)));
                }
            }
        }
    }
    ops
}

fn random_state(seed: u64) -> Vec<Complex64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..1usize << N)
        .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

#[test]
fn cx_and_swap_equal_the_dense_oracle_on_every_qubit_pair() {
    let start = random_state(17);
    for (a, b) in (0..N).flat_map(|a| (0..N).map(move |b| (a, b))) {
        if a == b {
            continue;
        }
        for gate in [Gate::Cx(a, b), Gate::Swap(a, b)] {
            let (mut kernel, mut dense) = (start.clone(), start.clone());
            apply_gate(&mut kernel, &gate, 2);
            apply_gate_dense(N, &mut dense, &gate);
            assert!(kernel == dense, "{gate} is not the oracle's permutation");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sweep_equals_per_gate_equals_dense_at_every_tile_width(
        seed in any::<u64>(),
        workers in 1usize..=3,
    ) {
        let ops = op_list(seed);
        let start = random_state(seed ^ 0x5eed);

        let mut per_gate = start.clone();
        let mut dense = start.clone();
        for op in &ops {
            match op {
                SweepOp::Gate(g) => {
                    apply_gate(&mut per_gate, g, 1);
                    apply_gate_dense(N, &mut dense, g);
                }
                SweepOp::Scalar(s) => {
                    for z in per_gate.iter_mut().chain(dense.iter_mut()) {
                        *z *= *s;
                    }
                }
                SweepOp::Cut => {}
            }
        }
        let err = max_amp_err(&per_gate, &dense);
        prop_assert!(err < 1e-12, "per-gate kernels vs dense oracle: {err}");

        for tile_bits in 1..=N {
            let mut swept = start.clone();
            let stats = apply_all_tiled(&mut swept, &ops, workers, 1 << tile_bits);
            let err = max_amp_err(&swept, &per_gate);
            prop_assert!(err < 1e-12, "tile 2^{tile_bits}, workers {workers}: {err}");
            let cuts = ops.iter().filter(|op| matches!(op, SweepOp::Cut)).count();
            prop_assert_eq!(stats.gates + stats.scalars + cuts, ops.len());
            prop_assert!(stats.passes <= stats.gates + stats.scalars);
        }
    }
}
