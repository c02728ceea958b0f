//! The MEMQSIM **offline stage**: circuit partitioning for a chunked state
//! vector.
//!
//! The state vector is split into `2^(n-c)` chunks of `2^c` amplitudes
//! (`c = chunk_bits`). A gate whose *pairing* qubits (see
//! [`Gate::pairing_qubits`]) are all `< c` can be applied to each chunk
//! independently ("local"). A pairing qubit `q >= c` couples chunk `k` with
//! chunk `k ^ 2^(q-c)`, so the engine must co-schedule groups of chunks.
//!
//! A [`Plan`] is a list of [`Stage`]s whose union of high pairing qubits
//! stays within `max_high_qubits`, bounding each stage's working set to
//! `2^|H|` chunks. Applying *all* gates of a stage per
//! decompress→recompress round is the paper's answer to design challenge
//! (2): compression frequency drops from per-gate to per-stage. The plan
//! every run executes comes from [`crate::schedule`]; [`partition`] and
//! [`partition_per_gate`] here pack the circuit *as written* and are the
//! references it is held against.

use crate::gate::Gate;
use crate::Circuit;

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// log2 of amplitudes per chunk.
    pub chunk_bits: u32,
    /// Maximum number of distinct high (cross-chunk) pairing qubits per
    /// stage; the stage working set is `2^max_high_qubits` chunks.
    pub max_high_qubits: u32,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            chunk_bits: 16,
            max_high_qubits: 1,
        }
    }
}

/// A remap transition: an ordered list of transpositions of *physical* bit
/// positions `>= chunk_bits`, applied to the stored state after the plan's
/// last stage. Each transposition `(a, b)` exchanges the amplitudes' bit
/// positions `a` and `b` — a pairwise exchange of whole chunks with no
/// intra-chunk movement, so a payload-capable store swaps compressed bytes
/// and no chunk is visited. (A transposition that names a position inside
/// the chunk would need a sweep of the register; the scheduler does those as
/// `Swap` gates inside a stage instead, and the engine refuses one here.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemapTransition {
    /// Physical position transpositions, in application order.
    pub swaps: Vec<(u32, u32)>,
}

/// One stage of the plan: a list of gates whose cross-chunk coupling is
/// limited to `high_qubits`.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// The gates, in execution order, in *physical* qubit positions (the
    /// scheduler has already applied its layout), so
    /// `is_local`/`high_qubits`/`chunk_groups` need no layout awareness.
    pub gates: Vec<Gate>,
    /// Sorted, deduplicated global indices of pairing qubits `>= chunk_bits`
    /// used by the gates of this stage. Empty for fully chunk-local stages.
    pub high_qubits: Vec<u32>,
}

impl Stage {
    /// A stage of `gates` pairing the high positions `high_qubits`.
    pub fn new(gates: Vec<Gate>, high_qubits: Vec<u32>) -> Stage {
        Stage { gates, high_qubits }
    }

    /// True if every gate applies within single chunks.
    pub fn is_local(&self) -> bool {
        self.high_qubits.is_empty()
    }

    /// Number of chunks that must be co-resident to execute this stage
    /// (`2^|high_qubits|`).
    pub fn group_size(&self) -> usize {
        1usize << self.high_qubits.len()
    }
}

/// A full execution plan for a circuit against a chunked state vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Register width the plan was built for.
    pub n_qubits: u32,
    /// Chunk size exponent.
    pub chunk_bits: u32,
    /// The stages, in execution order.
    pub stages: Vec<Stage>,
    /// High↔high chunk exchanges restoring the identity layout after the
    /// last stage, so the stored state ends in logical order. `None` when
    /// the plan's last stage already leaves every qubit at home.
    pub epilogue: Option<RemapTransition>,
}

impl Plan {
    /// Total number of gates across all stages.
    pub fn gate_count(&self) -> usize {
        self.stages.iter().map(|s| s.gates.len()).sum()
    }

    /// Number of chunks of the state vector (`2^(n - chunk_bits)`; 1 when
    /// the register fits in one chunk).
    pub fn chunk_count(&self) -> usize {
        1usize << self.n_qubits.saturating_sub(self.chunk_bits)
    }

    /// Total chunk visits over the whole plan: each stage decompresses and
    /// recompresses every chunk exactly once (in groups of
    /// `stage.group_size()`); the epilogue exchanges payloads and visits
    /// nothing. This is the quantity the paper's challenge (2) minimizes.
    pub fn chunk_visits(&self) -> usize {
        self.stages.len() * self.chunk_count()
    }

    /// Per-gate baseline (Wu et al.\[6\]): one stage per gate. Used by the
    /// granularity ablation.
    pub fn chunk_visits_per_gate_baseline(&self) -> usize {
        self.gate_count() * self.chunk_count()
    }
}

/// Partitions `circuit` as written into stages per `cfg`: consecutive gates
/// share a stage while the union of their high pairing qubits fits.
///
/// Invariants (property-tested): concatenating `stages[i].gates` in order
/// reproduces `circuit.gates()` exactly; every stage satisfies
/// `|high_qubits| <= max_high_qubits`; `high_qubits` matches the gates'
/// actual high pairing qubits.
///
/// # Panics
/// Panics if a single gate needs more than `max_high_qubits` high pairing
/// qubits on its own (e.g. a `Swap` across two high qubits with
/// `max_high_qubits == 1`) — callers should raise `max_high_qubits` or
/// lower `chunk_bits`. With `max_high_qubits >= 2` every gate in this
/// crate's gate set is schedulable.
pub fn partition(circuit: &Circuit, cfg: &PartitionConfig) -> Plan {
    let c = cfg.chunk_bits;
    let mut stages: Vec<Stage> = Vec::new();
    let mut cur_gates: Vec<Gate> = Vec::new();
    let mut cur_high: Vec<u32> = Vec::new();

    for g in circuit.gates() {
        let mut gate_high: Vec<u32> = g.pairing_qubits().into_iter().filter(|&q| q >= c).collect();
        gate_high.sort_unstable();
        gate_high.dedup();
        assert!(
            gate_high.len() <= cfg.max_high_qubits as usize,
            "gate {g} needs {} high qubits but max_high_qubits is {}",
            gate_high.len(),
            cfg.max_high_qubits
        );
        // Union if it fits, else start a new stage.
        let mut union = cur_high.clone();
        for &q in &gate_high {
            if !union.contains(&q) {
                union.push(q);
            }
        }
        union.sort_unstable();
        if union.len() <= cfg.max_high_qubits as usize || cur_gates.is_empty() {
            cur_high = union;
            cur_gates.push(g.clone());
        } else {
            stages.push(Stage::new(
                std::mem::take(&mut cur_gates),
                std::mem::take(&mut cur_high),
            ));
            cur_gates.push(g.clone());
            cur_high = gate_high;
        }
    }
    if !cur_gates.is_empty() {
        stages.push(Stage::new(cur_gates, cur_high));
    }
    Plan {
        n_qubits: circuit.n_qubits(),
        chunk_bits: c,
        stages,
        epilogue: None,
    }
}

/// Builds the degenerate per-gate plan (one stage per gate) — the
/// compression-around-every-gate baseline of Wu et al.\[6\].
pub fn partition_per_gate(circuit: &Circuit, chunk_bits: u32) -> Plan {
    let mut stages = Vec::with_capacity(circuit.len());
    for g in circuit.gates() {
        let mut high: Vec<u32> = g
            .pairing_qubits()
            .into_iter()
            .filter(|&q| q >= chunk_bits)
            .collect();
        high.sort_unstable();
        high.dedup();
        stages.push(Stage::new(vec![g.clone()], high));
    }
    Plan {
        n_qubits: circuit.n_qubits(),
        chunk_bits,
        stages,
        epilogue: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    fn cfg(chunk_bits: u32, max_high: u32) -> PartitionConfig {
        PartitionConfig {
            chunk_bits,
            max_high_qubits: max_high,
        }
    }

    fn assert_plan_invariants(plan: &Plan, circuit: &Circuit, max_high: u32) {
        // Gate order preserved.
        let flat: Vec<&Gate> = plan.stages.iter().flat_map(|s| s.gates.iter()).collect();
        assert_eq!(flat.len(), circuit.len());
        for (a, b) in flat.iter().zip(circuit.gates()) {
            assert_eq!(**a, *b);
        }
        for s in &plan.stages {
            assert!(s.high_qubits.len() <= max_high as usize);
            assert!(!s.gates.is_empty());
            // high_qubits covers exactly the gates' high pairing qubits.
            let mut want: Vec<u32> = s
                .gates
                .iter()
                .flat_map(|g| g.pairing_qubits())
                .filter(|&q| q >= plan.chunk_bits)
                .collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(s.high_qubits, want);
        }
    }

    #[test]
    fn all_local_circuit_is_one_stage() {
        let c = library::ghz(6);
        // chunk_bits = 6 means the whole register is one chunk.
        let plan = partition(&c, &cfg(6, 1));
        assert_eq!(plan.stages.len(), 1);
        assert!(plan.stages[0].is_local());
        assert_eq!(plan.chunk_count(), 1);
        assert_plan_invariants(&plan, &c, 1);
    }

    #[test]
    fn ghz_with_small_chunks_stages_by_high_qubit() {
        let c = library::ghz(8);
        let plan = partition(&c, &cfg(4, 1));
        // CX gates with target >= 4 each introduce one high qubit; CX(3,4)
        // pairs on qubit 4, CX(4,5) on 5, etc. — distinct highs force
        // separate stages.
        assert!(plan.stages.len() >= 4, "{}", plan.stages.len());
        assert_plan_invariants(&plan, &c, 1);
    }

    #[test]
    fn diagonal_gates_never_go_high() {
        let n = 8;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n {
            c.rz(q, 0.1);
        }
        c.cz(0, 7).cp(6, 7, 0.5).rzz(5, 7, 0.3);
        let plan = partition(&c, &cfg(2, 1));
        assert_eq!(plan.stages.len(), 1, "everything is chunk-local");
        assert!(plan.stages[0].is_local());
    }

    #[test]
    fn mcu_controls_do_not_count_as_high() {
        let mut c = Circuit::new(10);
        c.mcx(&[8, 9], 0); // controls high, target local
        let plan = partition(&c, &cfg(4, 1));
        assert_eq!(plan.stages.len(), 1);
        assert!(plan.stages[0].is_local());
        // But a high *target* does pair.
        let mut c2 = Circuit::new(10);
        c2.mcx(&[0, 1], 9);
        let plan2 = partition(&c2, &cfg(4, 1));
        assert_eq!(plan2.stages[0].high_qubits, vec![9]);
    }

    #[test]
    fn qft_plan_invariants_hold() {
        // (chunk_bits=2, max_high=1) is invalid for qft(8): swap(2,5) pairs
        // two high qubits — covered by the should_panic test below.
        for (chunk_bits, max_high) in [(2u32, 2u32), (4, 1), (4, 2), (6, 1), (6, 2)] {
            let c = library::qft(8);
            let plan = partition(&c, &cfg(chunk_bits, max_high));
            assert_plan_invariants(&plan, &c, max_high);
        }
    }

    #[test]
    fn larger_max_high_never_increases_stage_count() {
        let c = library::random_circuit(10, 12, 3);
        let s1 = partition(&c, &cfg(4, 1)).stages.len();
        let s2 = partition(&c, &cfg(4, 2)).stages.len();
        let s3 = partition(&c, &cfg(4, 3)).stages.len();
        assert!(s2 <= s1);
        assert!(s3 <= s2);
    }

    #[test]
    fn larger_chunks_never_increase_stage_count() {
        let c = library::qft(10);
        let a = partition(&c, &cfg(2, 2)).stages.len();
        let b = partition(&c, &cfg(5, 2)).stages.len();
        let d = partition(&c, &cfg(9, 2)).stages.len();
        assert!(b <= a);
        assert!(d <= b);
    }

    #[test]
    #[should_panic]
    fn swap_across_two_high_qubits_needs_max_high_2() {
        let mut c = Circuit::new(10);
        c.swap(8, 9);
        let _ = partition(&c, &cfg(4, 1));
    }

    #[test]
    fn swap_across_two_high_qubits_ok_with_max_high_2() {
        let mut c = Circuit::new(10);
        c.swap(8, 9);
        let plan = partition(&c, &cfg(4, 2));
        assert_eq!(plan.stages[0].high_qubits, vec![8, 9]);
        assert_eq!(plan.stages[0].group_size(), 4);
    }

    #[test]
    fn per_gate_baseline_has_one_stage_per_gate() {
        let c = library::qft(6);
        let plan = partition_per_gate(&c, 3);
        assert_eq!(plan.stages.len(), c.len());
        assert_eq!(plan.gate_count(), c.len());
        assert!(plan.chunk_visits() >= partition(&c, &cfg(3, 1)).chunk_visits());
    }

    #[test]
    fn chunk_visit_accounting() {
        let c = library::ghz(8);
        let plan = partition(&c, &cfg(4, 1));
        assert_eq!(plan.chunk_count(), 16);
        assert_eq!(plan.chunk_visits(), plan.stages.len() * 16);
        assert_eq!(plan.chunk_visits_per_gate_baseline(), c.len() * 16);
    }

    #[test]
    fn empty_circuit_has_no_stages() {
        let c = Circuit::new(5);
        let plan = partition(&c, &cfg(2, 1));
        assert!(plan.stages.is_empty());
        assert_eq!(plan.gate_count(), 0);
    }
}
