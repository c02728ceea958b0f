//! The scheduler behind every plan: list scheduling over the circuit's
//! dependency DAG, with qubit swaps inside the stages.
//!
//! Every stage is one decompress → apply → recompress round over the whole
//! register, so the number of stages is the codec bill. Packing the gates
//! *as written* ([`crate::partition::partition`]) closes a stage whenever
//! the next gate pairs a high qubit that no longer fits, whatever the gates
//! behind it could have done. The scheduler plans by dependency instead:
//!
//! 1. **DAG.** Two gates are ordered only if they overlap and do not
//!    commute ([`crate::reorder`]), so every topological order is the same
//!    unitary.
//! 2. **Stages by list scheduling.** A gate runs once its predecessors ran
//!    and every qubit it *pairs* sits below `chunk_bits` or in the stage's
//!    set `H` of at most `max_high_qubits` high positions. `H` grows from
//!    empty: each round probes the positions every waiting gate asks for and
//!    opens the ones that let the most gates run to a fixpoint. Ready `Swap`s
//!    on two high positions are folded into the layout first; they move
//!    nothing.
//! 3. **Parking.** While the positions `H` are inside the group buffer
//!    anyway, leave in them the accessible qubits whose next pairing use lies
//!    deepest in the remaining DAG (Belady's rule), by appending plain
//!    `Swap(low, h)` gates to the stage: a remap for the price of one
//!    permutation pass over a buffer that is already decoded.
//! 4. **Tail.** Low-home qubits still parked high come back in swap-only
//!    stages, `max_high_qubits` per sweep; what is left of the layout is a
//!    permutation of the low positions (local `Swap`s on the last stage) and
//!    one of the high positions (the plan's epilogue: whole-chunk exchanges).
//!
//! A stage never opens on a diagonal gate whose run started in the stage
//! before: at a fixpoint every ready gate is blocked on a qubit it pairs.
//! So the engine's folded phase tables hold the same factors as under
//! `partition` of the scheduler's own order ([`Schedule::linearized`]), and
//! the two end states agree bit for bit.
//!
//! Planning is cheap by construction: a stage costs at most
//! `max_high_qubits` rounds of one probe per waiting gate, each linear in
//! the gates it runs.

use crate::gate::Gate;
use crate::layout::QubitLayout;
use crate::partition::{partition, PartitionConfig, Plan, RemapTransition, Stage};
use crate::reorder::Footprint;
use crate::Circuit;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A plan and the gate order it executes.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The plan: stages in physical positions, swaps inserted, epilogue set.
    pub plan: Plan,
    /// Indices into `circuit.gates()` in execution order — a topological
    /// order of the dependency DAG. Inserted swaps are not in it (they undo
    /// each other through the layout); absorbed `Swap` gates are.
    pub order: Vec<usize>,
}

impl Schedule {
    /// `circuit` with its gates in the scheduled order: the same unitary,
    /// and the gate list whose fixed-layout `partition` reproduces the
    /// plan's end state bit for bit.
    pub fn linearized(&self, circuit: &Circuit) -> Circuit {
        let mut out = Circuit::named(circuit.n_qubits(), circuit.name());
        for &j in &self.order {
            out.push(circuit.gates()[j].clone());
        }
        out
    }
}

/// The set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let q = mask.trailing_zeros();
            mask &= mask - 1;
            q
        })
    })
}

/// How much a qubit deserves one of a closing stage's high positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Parking {
    /// It must come low now: no stage can run the gate that waits for it.
    Pinned,
    /// Next paired by a gate this deep in the remaining DAG.
    NextUse(u32),
    /// Never paired again, but at home below the chunk boundary: the tail
    /// will have to fetch it back.
    DoneLowHome,
    /// Never paired again and at home above the boundary.
    DoneHighHome,
}

struct Scheduler<'a> {
    gates: &'a [Gate],
    footprints: Vec<Footprint>,
    /// The DAG: successors of every gate, and how many of its predecessors
    /// have not run yet.
    successors: Vec<Vec<usize>>,
    unmet: Vec<u32>,
    done: Vec<bool>,
    /// Gates that have not run and whose predecessors all have.
    ready: Vec<usize>,
    /// Per logical qubit, the gates that pair it, in circuit order.
    uses: Vec<Vec<usize>>,
    layout: QubitLayout,
    order: Vec<usize>,
    chunk_bits: u32,
    /// Mask of the positions below the chunk boundary.
    low: u64,
    max_high: usize,
}

impl<'a> Scheduler<'a> {
    fn new(circuit: &'a Circuit, cfg: &PartitionConfig) -> Scheduler<'a> {
        let n = circuit.n_qubits();
        assert!(n <= u64::BITS, "qubit masks are 64 bits wide");
        let gates = circuit.gates();
        let footprints: Vec<Footprint> = gates.iter().map(Footprint::of).collect();

        let mut successors = vec![Vec::new(); gates.len()];
        let mut unmet = vec![0u32; gates.len()];
        let mut uses = vec![Vec::new(); n as usize];
        // Per qubit, the gates on it since (and including) the last one that
        // pairs it: nothing on the qubit commutes with that one, so it
        // already orders everything earlier.
        let mut open: Vec<Vec<usize>> = vec![Vec::new(); n as usize];
        let mut linked = vec![usize::MAX; gates.len()];
        for (j, fj) in footprints.iter().enumerate() {
            for q in bits(fj.qubits) {
                let open = &mut open[q as usize];
                for &i in open.iter() {
                    if linked[i] != j && !footprints[i].commutes(fj) {
                        linked[i] = j;
                        successors[i].push(j);
                        unmet[j] += 1;
                    }
                }
                if fj.pairing >> q & 1 == 1 {
                    uses[q as usize].push(j);
                    if !fj.diagonal {
                        open.clear();
                    }
                }
                open.push(j);
            }
        }
        // A register narrower than a chunk is one chunk.
        let chunk_bits = cfg.chunk_bits.min(n);
        Scheduler {
            gates,
            ready: (0..gates.len()).filter(|&j| unmet[j] == 0).collect(),
            footprints,
            successors,
            unmet,
            done: vec![false; gates.len()],
            uses,
            layout: QubitLayout::identity(n),
            order: Vec::with_capacity(gates.len()),
            chunk_bits,
            low: 1u64.checked_shl(chunk_bits).map_or(u64::MAX, |b| b - 1),
            max_high: cfg.max_high_qubits as usize,
        }
    }

    /// Mask of the physical positions gate `j` pairs.
    fn pairs(&self, j: usize) -> u64 {
        bits(self.footprints[j].pairing).fold(0, |m, q| m | 1 << self.layout.phys(q))
    }

    /// Runs every gate `admit` lets through (it sees the gate and the
    /// positions it pairs), lowest circuit index first, until none is left:
    /// returns the gates that ran, in that order, and the ready gates it
    /// refused. Only `unmet` changes; [`commit`](Self::commit) or
    /// [`undo`](Self::undo) must follow.
    fn fixpoint(&mut self, admit: impl Fn(&Gate, u64) -> bool) -> (Vec<usize>, Vec<usize>) {
        let mut queue: BinaryHeap<Reverse<usize>> =
            self.ready.iter().map(|&j| Reverse(j)).collect();
        let (mut ran, mut refused) = (Vec::new(), Vec::new());
        while let Some(Reverse(j)) = queue.pop() {
            if !admit(&self.gates[j], self.pairs(j)) {
                refused.push(j);
                continue;
            }
            ran.push(j);
            for &s in &self.successors[j] {
                self.unmet[s] -= 1;
                if self.unmet[s] == 0 {
                    queue.push(Reverse(s));
                }
            }
        }
        (ran, refused)
    }

    fn undo(&mut self, ran: &[usize]) {
        for &j in ran {
            for &s in &self.successors[j] {
                self.unmet[s] += 1;
            }
        }
    }

    fn commit(&mut self, ran: &[usize], refused: Vec<usize>) {
        for &j in ran {
            self.done[j] = true;
        }
        self.order.extend_from_slice(ran);
        self.ready = refused;
    }

    /// How many gates a stage over the positions `open` would run.
    fn probe(&mut self, open: u64) -> usize {
        let (ran, _) = self.fixpoint(|_, pairs| pairs & !open == 0);
        self.undo(&ran);
        ran.len()
    }

    /// The gate that next pairs logical qubit `q`, if any is left.
    fn next_use(&self, q: u32) -> Option<usize> {
        self.uses[q as usize]
            .iter()
            .copied()
            .find(|&j| !self.done[j])
    }

    /// The high positions (as a mask) to open: grown from nothing by the
    /// waiting gate whose positions let the most gates run, until
    /// `max_high` positions are open or nothing waits on one that fits.
    fn choose_high(&mut self) -> u64 {
        let low = self.low;
        let mut high = 0u64;
        loop {
            let (ran, refused) = self.fixpoint(|_, pairs| pairs & !(low | high) == 0);
            self.undo(&ran);
            let mut wanted: Vec<u64> = refused
                .iter()
                .map(|&j| high | self.pairs(j) & !low)
                .filter(|w| w.count_ones() as usize <= self.max_high)
                .collect();
            wanted.sort_unstable();
            wanted.dedup();
            let mut best = (ran.len(), high);
            for w in wanted {
                let ran = self.probe(low | w);
                if ran > best.0 {
                    best = (ran, w);
                }
            }
            if best.1 == high {
                return high;
            }
            high = best.1;
        }
    }

    /// Closes a stage over the high positions `high`: appends the swaps
    /// that leave in them the accessible qubits ranked highest by
    /// [`Parking`], keeping what already sits there on a tie.
    fn park(&mut self, stage: &mut Vec<Gate>, high: &[u32], pinned: Option<u32>) {
        // Longest chain of gates still to run above each gate still to run.
        let mut depth = vec![0u32; self.gates.len()];
        let first = self.ready.iter().copied().min().unwrap_or(self.gates.len());
        for j in first..self.gates.len() {
            if !self.done[j] {
                for &s in &self.successors[j] {
                    depth[s] = depth[s].max(depth[j] + 1);
                }
            }
        }
        let rank = |p: u32| {
            let q = self.layout.logical_at(p);
            match self.next_use(q) {
                _ if pinned == Some(p) => Parking::Pinned,
                Some(j) => Parking::NextUse(depth[j]),
                None if q >= self.chunk_bits => Parking::DoneHighHome,
                None => Parking::DoneLowHome,
            }
        };
        let mut ranked: Vec<(Reverse<Parking>, bool, u32)> = (0..self.chunk_bits)
            .map(|p| (Reverse(rank(p)), true, p))
            .chain(high.iter().map(|&p| (Reverse(rank(p)), false, p)))
            .collect();
        ranked.sort_unstable();
        let parked = &ranked[..high.len()];
        let leaving = high
            .iter()
            .filter(|h| !parked.iter().any(|&(_, _, p)| p == **h));
        let arriving = parked.iter().filter(|&&(_, is_low, _)| is_low);
        let swaps: Vec<(u32, u32)> = arriving.map(|&(_, _, p)| p).zip(leaving.copied()).collect();
        for (low, h) in swaps {
            stage.push(Gate::Swap(low, h));
            self.layout.swap_physical(low, h);
        }
    }

    fn run(mut self) -> (Vec<Stage>, Option<RemapTransition>, Vec<usize>) {
        let (c, n) = (self.chunk_bits, self.uses.len() as u32);
        let low = self.low;
        let mut stages: Vec<Stage> = Vec::new();
        while !self.ready.is_empty() {
            // A Swap on two high positions is a relabeling: no stage.
            let (absorbed, refused) =
                self.fixpoint(|g, pairs| matches!(g, Gate::Swap(..)) && pairs & low == 0);
            for &j in &absorbed {
                let Gate::Swap(a, b) = self.gates[j] else {
                    unreachable!("only swaps are admitted")
                };
                self.layout.absorb_logical_swap(a, b);
            }
            self.commit(&absorbed, refused);
            if self.ready.is_empty() {
                break;
            }

            let mut high = self.choose_high();
            let (ran, refused) = self.fixpoint(|_, pairs| pairs & !(low | high) == 0);
            let mut gates: Vec<Gate> = ran
                .iter()
                .map(|&j| self.layout.map_gate(&self.gates[j]))
                .collect();
            // No set of high positions runs anything: the first waiting gate
            // pairs more of them than fit. Open a swap-only stage on one and
            // bring its qubit low.
            let pinned = ran.is_empty().then(|| {
                let stuck = bits(self.pairs(refused[0]) & !low).next();
                stuck.expect("a refused gate pairs a high position")
            });
            if let Some(p) = pinned {
                assert!(
                    c > 0,
                    "{} cannot run: chunks hold no qubit",
                    self.gates[refused[0]]
                );
                high = 1 << p;
            }
            self.commit(&ran, refused);
            let high: Vec<u32> = bits(high).collect();
            self.park(&mut gates, &high, pinned);
            stages.push(Stage::new(gates, high));
        }

        // Tail: low-home qubits still parked high trade places with the
        // high-home qubits below the boundary, `max_high` per sweep.
        loop {
            let strays: Vec<u32> = (c..n)
                .filter(|&p| self.layout.logical_at(p) < c)
                .take(self.max_high)
                .collect();
            if strays.is_empty() {
                break;
            }
            let lows: Vec<u32> = (0..c).filter(|&p| self.layout.logical_at(p) >= c).collect();
            let gates = strays.iter().zip(lows).map(|(&h, l)| {
                self.layout.swap_physical(l, h);
                Gate::Swap(l, h)
            });
            stages.push(Stage::new(gates.collect(), strays));
        }
        // What is left permutes the low positions among themselves (local
        // swaps on the last stage) and the high ones (chunk exchanges).
        let mut epilogue = Vec::new();
        for (a, b) in self.layout.restore_to_identity(c) {
            if a >= c {
                epilogue.push((a, b));
            } else {
                let last = stages.last_mut().expect("only a stage moves a low qubit");
                last.gates.push(Gate::Swap(a, b));
            }
        }
        let epilogue = (!epilogue.is_empty()).then_some(RemapTransition { swaps: epilogue });
        (stages, epilogue, self.order)
    }
}

/// Schedules `circuit` for chunks of `2^cfg.chunk_bits` amplitudes and
/// groups of at most `2^cfg.max_high_qubits` chunks. Never takes more
/// stages than [`partition`] of the circuit as written: list scheduling is
/// greedy, and where the author's order happens to beat it, that order is
/// the schedule.
///
/// # Panics
/// Panics if `chunk_bits` is 0 and a gate pairs more than `max_high_qubits`
/// qubits: no group buffer could ever hold it.
pub fn schedule(circuit: &Circuit, cfg: &PartitionConfig) -> Schedule {
    let scheduler = Scheduler::new(circuit, cfg);
    let low = scheduler.low;
    let as_written_fits = scheduler
        .footprints
        .iter()
        .all(|f| (f.pairing & !low).count_ones() <= cfg.max_high_qubits);
    let (stages, epilogue, order) = scheduler.run();
    if as_written_fits {
        let as_written = partition(circuit, cfg);
        if as_written.stages.len() < stages.len() {
            return Schedule {
                plan: as_written,
                order: (0..circuit.len()).collect(),
            };
        }
    }
    Schedule {
        plan: Plan {
            n_qubits: circuit.n_qubits(),
            chunk_bits: cfg.chunk_bits,
            stages,
            epilogue,
        },
        order,
    }
}
