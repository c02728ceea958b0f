//! The scheduler's contract, checked on plans alone (no state is simulated):
//! properties over random circuits, and pins on the plans the benchmark
//! workloads get.

use mq_circuit::layout::QubitLayout;
use mq_circuit::partition::{partition, PartitionConfig};
use mq_circuit::reorder::commutes;
use mq_circuit::schedule::{schedule, Schedule};
use mq_circuit::{library, Circuit, Gate};
use proptest::prelude::*;

const N: u32 = 8;

/// A random gate over [`N`] qubits: 1q, controlled, diagonal, SWAP and a
/// dense two-qubit block — the classes the commutation rules and the
/// scheduler tell apart.
fn arb_gate() -> impl Strategy<Value = Gate> {
    let pair = || (0..N, 0..N).prop_filter_map("distinct", |(a, b)| (a != b).then_some((a, b)));
    prop_oneof![
        (0..N).prop_map(Gate::H),
        (0..N).prop_map(Gate::T),
        (0..N, -3.0f64..3.0).prop_map(|(q, t)| Gate::Ry(q, t)),
        (0..N, -3.0f64..3.0).prop_map(|(q, t)| Gate::Rz(q, t)),
        pair().prop_map(|(a, b)| Gate::Cx(a, b)),
        pair().prop_map(|(a, b)| Gate::Cz(a, b)),
        (pair(), -3.0f64..3.0).prop_map(|((a, b), l)| Gate::Cp(a, b, l)),
        pair().prop_map(|(a, b)| Gate::Swap(a, b)),
        pair().prop_map(|(a, b)| Gate::U2q(a, b, Gate::Swap(0, 1).mat4().expect("2q"))),
        pair().prop_map(|(a, b)| Gate::mcx(&[a], b)),
    ]
}

fn circuit_of(n: u32, gates: Vec<Gate>) -> Circuit {
    let mut circuit = Circuit::new(n);
    for g in gates {
        circuit.push(g);
    }
    circuit
}

fn high_pairing(gates: &[Gate], chunk_bits: u32) -> Vec<u32> {
    let mut high: Vec<u32> = gates
        .iter()
        .flat_map(|g| g.pairing_qubits())
        .filter(|&q| q >= chunk_bits)
        .collect();
    high.sort_unstable();
    high.dedup();
    high
}

/// Replays `s` against `circuit`: every stage is some absorbed high↔high
/// `Swap`s, then gates of `s.order` under the layout so far, then inserted
/// swaps that move the layout; the epilogue must leave it the identity.
fn assert_plan_is_the_order_under_a_layout_that_ends_at_identity(
    circuit: &Circuit,
    s: &Schedule,
    cfg: &PartitionConfig,
) {
    let c = cfg.chunk_bits.min(circuit.n_qubits());
    let mut layout = QubitLayout::identity(circuit.n_qubits());
    let mut order = s.order.iter().map(|&j| &circuit.gates()[j]).peekable();
    // One more (empty) round after the last stage takes the trailing swaps.
    for stage in s.plan.stages.iter().map(Some).chain([None]) {
        while let Some(swap @ Gate::Swap(a, b)) = order.peek() {
            // The as-written fallback runs such a swap as a gate.
            let runs = stage.is_some_and(|s| s.gates.first() == Some(&layout.map_gate(swap)));
            if runs || layout.phys(*a).min(layout.phys(*b)) < c {
                break;
            }
            layout.absorb_logical_swap(*a, *b);
            order.next();
        }
        let Some(stage) = stage else { break };
        assert!(stage.high_qubits.len() <= cfg.max_high_qubits as usize);
        assert_eq!(stage.high_qubits, high_pairing(&stage.gates, c));
        let mut gates = stage.gates.iter().peekable();
        while let Some(g) = gates.peek() {
            if order.peek().map(|next| layout.map_gate(next)).as_ref() != Some(*g) {
                break;
            }
            order.next();
            gates.next();
        }
        for g in gates {
            let Gate::Swap(a, b) = g else {
                panic!("{g} is neither the next scheduled gate nor an inserted swap")
            };
            layout.swap_physical(*a, *b);
        }
    }
    assert_eq!(order.next(), None, "a scheduled gate is in no stage");
    for &(a, b) in s.plan.epilogue.iter().flat_map(|e| &e.swaps) {
        assert!(a.min(b) >= c, "the epilogue only exchanges whole chunks");
        layout.swap_physical(a, b);
    }
    assert!(layout.is_identity(), "{layout:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_schedule_is_a_legal_order_in_legal_stages_and_never_worse_than_as_written(
        gates in prop::collection::vec(arb_gate(), 0..60),
        chunk_bits in 1u32..=9,
        max_high_qubits in 1u32..=3,
    ) {
        let circuit = circuit_of(N, gates);
        let cfg = PartitionConfig { chunk_bits, max_high_qubits };
        let s = schedule(&circuit, &cfg);
        prop_assert_eq!(&s, &schedule(&circuit, &cfg));

        // Every gate exactly once, and no non-commuting pair out of order.
        let mut at = vec![usize::MAX; circuit.len()];
        for (pos, &j) in s.order.iter().enumerate() {
            prop_assert_eq!(at[j], usize::MAX);
            at[j] = pos;
        }
        prop_assert!(at.iter().all(|&pos| pos != usize::MAX));
        for (j, b) in circuit.gates().iter().enumerate() {
            for (i, a) in circuit.gates()[..j].iter().enumerate() {
                prop_assert!(commutes(a, b) || at[i] < at[j], "{} and {} traded places", a, b);
            }
        }
        assert_plan_is_the_order_under_a_layout_that_ends_at_identity(&circuit, &s, &cfg);

        // `partition` refuses a gate wider than `max_high_qubits`.
        let fits = |g: &Gate| high_pairing(std::slice::from_ref(g), chunk_bits).len() <= max_high_qubits as usize;
        if circuit.gates().iter().all(fits) {
            let as_written = partition(&circuit, &cfg);
            prop_assert!(
                s.plan.stages.len() <= as_written.stages.len(),
                "{} sweeps, {} as written", s.plan.stages.len(), as_written.stages.len()
            );
        }
    }
}

fn stages(circuit: &Circuit, chunk_bits: u32) -> Schedule {
    let cfg = PartitionConfig {
        chunk_bits,
        max_high_qubits: 2,
    };
    let s = schedule(circuit, &cfg);
    assert_plan_is_the_order_under_a_layout_that_ends_at_identity(circuit, &s, &cfg);
    s
}

/// The plans behind the four `perf_suite` workloads.
#[test]
fn benchmark_circuits_keep_their_stage_counts() {
    assert!(stages(&library::qft(22), 16).plan.stages.len() <= 5);
    assert!(
        stages(&library::random_circuit(20, 10, 11), 14)
            .plan
            .stages
            .len()
            <= 9
    );
    // perf_suite's `bv_secret(23, 16, 11)`.
    let bv = library::bernstein_vazirani(23, 0x71ba38);
    assert!(stages(&bv, 16).plan.stages.len() <= 6);
}

/// Three high targets rotating under one shared low control: no two CX
/// commute, so only moving the targets below the chunk boundary helps — and
/// the swaps ride the stages that were open anyway.
#[test]
fn rotating_high_targets_take_three_sweeps() {
    let n = 20;
    let mut c = Circuit::new(n);
    c.h(0);
    for _ in 0..10 {
        c.cx(0, n - 1).cx(0, n - 2).cx(0, n - 3);
    }
    let s = stages(&c, 14);
    assert!(s.plan.stages.len() <= 3, "{}", s.plan.stages.len());
    assert!(s.plan.gate_count() > c.len(), "no swap was inserted");
    assert_eq!(s.plan.epilogue, None);
}

/// Bernstein–Vazirani at every position of the secret's lowest set bit: the
/// stages pair the same high positions whichever chunk-local qubits the
/// oracle touches, so the run's peak compressed size does not swing with
/// the secret.
#[test]
fn bv_stage_shapes_do_not_depend_on_the_secrets_lowest_set_bit() {
    let (data, chunk_bits) = (9u32, 6u32);
    let shapes: Vec<Vec<Vec<u32>>> = (0..chunk_bits)
        .map(|lowest| {
            let secret = (0b101u64 << chunk_bits) | (1 << lowest) | (1 << (chunk_bits - 1));
            let s = stages(&library::bernstein_vazirani(data, secret), chunk_bits);
            s.plan.stages.into_iter().map(|s| s.high_qubits).collect()
        })
        .collect();
    assert!(shapes.windows(2).all(|w| w[0] == w[1]), "{shapes:?}");
}

/// Planning cost is bounded by construction — per stage, one probe per set
/// of useful high positions, each linear in the gates it runs — so a deep
/// circuit plans in milliseconds. Prints `plan_s`.
#[test]
fn a_deep_circuit_plans_in_milliseconds() {
    let circuit = library::random_circuit(24, 200, 11);
    let cfg = PartitionConfig {
        chunk_bits: 16,
        max_high_qubits: 2,
    };
    let best = (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(schedule(std::hint::black_box(&circuit), &cfg));
            start.elapsed()
        })
        .min()
        .expect("three runs");
    println!(
        "plan_s random_circuit(24, 200, 11): {best:?} for {} gates",
        circuit.len()
    );
    // 50 ms is the budget for an optimized build; `cargo test` is not one.
    let budget_ms = if cfg!(debug_assertions) { 500 } else { 50 };
    assert!(best.as_millis() < budget_ms, "{best:?}");
}
