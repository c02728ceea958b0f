//! Folded phase tables under a moving layout: the apply sweep folds each
//! diagonal run of a stage into one phase table, and how a folded product
//! rounds depends on which factors share a table and in what order. The
//! scheduler's in-stage swaps change everything the fold could key on —
//! which of a gate's qubits lie inside the group buffer, which collapse to
//! scalars, which controlled gates vanish from a group, where stages end —
//! so the engine keys it on the stage's own gate list instead (see
//! `specialize_stage`), and the scheduler never opens a stage in the middle
//! of a diagonal run. These circuits put phase gates on exactly the qubits
//! the swaps move and hold the shipped plan to the bits the hand-built
//! fixed-layout `partition(..)` of the scheduler's own gate order produced.

use memqsim_core::engine::cpu::CpuWorkerExecutor;
use memqsim_core::engine::hybrid::DevicePipelineExecutor;
use memqsim_core::engine::{build_plan, Granularity};
use memqsim_core::{build_store, run_plan_with_executor, ChunkStore, MemQSimConfig, RunReport};
use mq_circuit::partition::{partition, PartitionConfig, Plan};
use mq_circuit::schedule::schedule;
use mq_circuit::unitary::run_dense;
use mq_circuit::{Circuit, Gate};
use mq_compress::CodecSpec;
use mq_device::{Device, DeviceSpec};
use mq_num::Complex64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: u32 = 13;

/// Three hot high targets under one shared low control (the shape an
/// in-stage swap pays for), with a phase run after every CX: one- and two-qubit phases on
/// the targets, the other high qubits and the chunk-local ones, a
/// three-control phase, and — every other block — a run over all 13 qubits,
/// wider than one phase table, that ends in a single gate wider than one.
fn phased_hot_targets(blocks: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(N);
    for q in 0..N {
        c.h(q);
    }
    let hot = [N - 1, N - 2, N - 3];
    for block in 0..blocks {
        for (k, &t) in hot.iter().enumerate() {
            // The phase on the target before last: outside the buffer of any
            // stage that packs two of these CX as written.
            c.cx(0, t).rz(hot[(k + 2) % 3], rng.gen_range(-3.0..3.0));
            for _ in 0..rng.gen_range(2..6) {
                let angle = rng.gen_range(-3.0..3.0);
                let a = hot[rng.gen_range(0..3usize)];
                let b = rng.gen_range(1..N - 6);
                let high = rng.gen_range(N - 6..N - 3);
                match rng.gen_range(0..7) {
                    0 => c.rz(a, angle),
                    1 => c.p(b, angle),
                    2 => c.cp(a, b, angle),
                    3 => c.cp(high, a, angle),
                    4 => c.rzz(high, b, angle),
                    5 => c.cz(a, high),
                    _ => c.push(Gate::mcz(&[a, high, 0], b)),
                };
            }
        }
        if block % 2 == 1 {
            for q in 1..N {
                c.cp(q - 1, q, rng.gen_range(-3.0..3.0));
            }
            let controls: Vec<u32> = (1..N).collect();
            c.push(Gate::mcz(&controls, 0));
        }
    }
    c
}

fn config(chunk_bits: u32) -> MemQSimConfig {
    MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec: CodecSpec::Fpc,
        workers: 1,
        ..Default::default()
    }
}

fn run(plan: Plan, chunk_bits: u32, hybrid: bool) -> (Vec<Complex64>, RunReport) {
    let cfg = config(chunk_bits);
    let store = build_store(plan.n_qubits, &cfg).expect("store");
    let report = if hybrid {
        let device = Device::new(DeviceSpec::tiny_test(1 << 13));
        let mut executor = DevicePipelineExecutor::new(&device, true);
        run_plan_with_executor(&store, plan, &cfg, &mut executor).expect("run")
    } else {
        run_plan_with_executor(&store, plan, &cfg, &mut CpuWorkerExecutor::new()).expect("run")
    };
    (store.to_dense().expect("dense"), report)
}

#[test]
fn greedy_keeps_the_bits_of_fixed_when_phases_sit_on_the_remapped_qubits() {
    let mut swapped = 0;
    let mut folded = 0;
    for seed in 0..6 {
        let circuit = phased_hot_targets(4, seed);
        let oracle = run_dense(&circuit, 0);
        for chunk_bits in [5, 9] {
            let cfg = config(chunk_bits);
            let pcfg = PartitionConfig {
                chunk_bits,
                max_high_qubits: cfg.max_high_qubits,
            };
            let scheduled = schedule(&circuit, &pcfg);
            let shipped = build_plan(&circuit, &cfg, Granularity::Staged);
            assert_eq!(shipped, scheduled.plan);
            // The circuit has no swap of its own: every one was inserted.
            let gates = shipped.stages.iter().flat_map(|s| &s.gates);
            let inserted = gates.filter(|g| matches!(g, Gate::Swap(..))).count();
            let reference = partition(&scheduled.linearized(&circuit), &pcfg);
            for hybrid in [false, true] {
                let tag = format!("seed {seed} cb{chunk_bits} hybrid={hybrid}");
                let (fixed_state, fixed) = run(reference.clone(), chunk_bits, hybrid);
                let (greedy_state, greedy) = run(shipped.clone(), chunk_bits, hybrid);
                assert_eq!(fixed_state, greedy_state, "state diverged: {tag}");
                let err = mq_num::metrics::max_amp_err(&oracle, &greedy_state);
                assert!(err < 1e-12, "{tag}: err {err}");
                assert_eq!(fixed.remap_passes, 0, "{tag}");
                swapped += usize::from(inserted > 0);
                folded += usize::from(fixed.apply_passes_saved > 0);
                // The swaps moved gates between the buffer and the scalars.
                if inserted > 0 {
                    assert_ne!(fixed.scalars_applied, greedy.scalars_applied, "{tag}");
                }
            }
        }
    }
    // Not vacuous: the layouts differed and the tables folded.
    assert!(
        swapped >= 12,
        "only {swapped} of 24 runs carry an in-stage swap"
    );
    assert_eq!(folded, 24, "every run folds phase runs");
}
