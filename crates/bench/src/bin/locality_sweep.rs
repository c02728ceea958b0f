//! **Experiment L1 — locality sweep: the circuit as written vs the shipped
//! plan.**
//!
//! Every run is planned by the dependency scheduler
//! (`mq_circuit::schedule`): gates ordered only by the DAG of non-commuting
//! overlaps, stages chosen by list scheduling, hot qubits swapped below the
//! chunk boundary inside the stages, `Swap`s on two high positions absorbed.
//! This sweep runs the shipped plan against two hand-built references — the
//! fixed-layout `partition(..)` of the circuit *as written* and of the
//! scheduler's own gate order — and pins the claims that make the scheduler
//! worth having:
//!
//! * safety: the shipped plan never asks for more chunk visits than the
//!   circuit as written, and its state is bit-identical to `partition` of
//!   the order it executes (inserted and absorbed swaps are exact
//!   permutations);
//! * a real win: ≥ 2x fewer planned visits on the random circuit and ≥ 5x
//!   on the one whose hot targets rotate under a shared control — the second
//!   out of reach of reordering alone, because no two of its CX commute.
//!
//! Workloads: a seeded random circuit, a random circuit with rotating hot
//! high targets, a QAOA ring, and QFT, each at chunk_bits 6–8, with the
//! measured wall time of both runs beside their visit counts (`--qubits 20`
//! is the seconds-scale row set). Visit counts are *planned* visits —
//! performed plus the ones the engine elided because the group was known
//! to be all zero — since that is what a plan costs; the shipped run's
//! performed count is printed beside them. Everything lands in
//! `results/BENCH_locality.json`.
//!
//! Usage: `cargo run -p mq-bench --release --bin locality_sweep
//!         [--qubits 16] [--check]`
//!
//! `--check` exits non-zero if any gate fails — the CI smoke gate — and
//! leaves the committed results file as it is.

use memqsim_core::engine::cpu::CpuWorkerExecutor;
use memqsim_core::engine::{build_plan, Granularity};
use memqsim_core::{build_store, run_plan_with_executor, MemQSimConfig, RunReport};
use mq_bench::{emit_sweep_json, fmt_secs, Args, Table};
use mq_circuit::partition::{partition, PartitionConfig, Plan};
use mq_circuit::schedule::schedule;
use mq_circuit::{library, Circuit, Gate};
use mq_compress::CodecSpec;
use mq_num::metrics::max_amp_err;
use mq_num::Complex64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random circuit whose two-qubit gates keep hitting the top three qubits
/// under one shared low control. The shared non-diagonal control defeats
/// reordering (no two CX gates commute), while two swaps inside the first
/// stage drop the targets below the chunk boundary for the whole body.
fn random_hot_targets(n: u32, blocks: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    c.h(0);
    for _ in 0..blocks {
        for t in [n - 1, n - 2, n - 3] {
            c.cx(0, t);
            let q = rng.gen_range(1..4u32);
            c.rz(q, rng.gen_range(0.0..std::f64::consts::PI));
        }
    }
    c
}

fn workloads(n: u32) -> Vec<(&'static str, Circuit)> {
    vec![
        ("random", library::random_circuit(n, 8, 7)),
        ("random-hot-targets", random_hot_targets(n, 10, 23)),
        (
            "qaoa-ring(p=2)",
            library::qaoa_maxcut(n, &library::ring_graph(n), &[0.4, 0.8], &[0.3, 0.6]),
        ),
        ("qft", library::qft(n)),
    ]
}

fn config(chunk_bits: u32) -> MemQSimConfig {
    MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec: CodecSpec::Fpc, // lossless: parity must be bit-exact
        workers: 1,
        ..Default::default()
    }
}

fn run(plan: Plan, cfg: &MemQSimConfig) -> (Vec<Complex64>, RunReport) {
    let store = build_store(plan.n_qubits, cfg).expect("store construction failed");
    let report = run_plan_with_executor(&store, plan, cfg, &mut CpuWorkerExecutor::new())
        .expect("engine run failed");
    (store.to_dense().expect("store is readable"), report)
}

fn main() {
    let args = Args::capture();
    let n: u32 = args.get("qubits", 16u32);
    let check = args.has("check");

    println!("# L1 — locality sweep: as written vs shipped ({n} qubits, chunk_bits 6-8)\n");

    let mut failures = Vec::new();
    let mut json_rows = Vec::new();
    // Smallest planned-visit cut per workload, over the chunk widths.
    let mut worst_cut: Vec<(&str, f64)> = Vec::new();
    for (workload, circuit) in workloads(n) {
        let mut t = Table::new(&[
            "chunk_bits",
            "as written",
            "shipped",
            "shipped performed",
            "cut",
            "stages",
            "swaps in stage",
            "wall s (measured) as written / shipped",
            "parity",
        ]);
        let mut cut = f64::INFINITY;
        for chunk_bits in [6u32, 7, 8] {
            let cfg = config(chunk_bits);
            let pcfg = PartitionConfig {
                chunk_bits,
                max_high_qubits: cfg.max_high_qubits,
            };
            let scheduled = schedule(&circuit, &pcfg);
            let plan = build_plan(&circuit, &cfg, Granularity::Staged);
            let gates = plan.stages.iter().flat_map(|s| &s.gates);
            let own_swaps = circuit
                .gates()
                .iter()
                .filter(|g| matches!(g, Gate::Swap(..)));
            let swaps = gates.filter(|g| matches!(g, Gate::Swap(..))).count() as i64
                - own_swaps.count() as i64;
            let (written_state, written) = run(partition(&circuit, &pcfg), &cfg);
            let (order_state, _) = run(partition(&scheduled.linearized(&circuit), &pcfg), &cfg);
            let (shipped_state, shipped) = run(plan, &cfg);
            let tag = format!("{workload} cb{chunk_bits}");
            // Plans are compared on the visits they ask for (performed +
            // elided): how many of them find an all-zero group depends on
            // where a layout leaves the early, sparse state.
            let (written_visits, shipped_visits) =
                (written.planned_visits(), shipped.planned_visits());

            // The layout must be a bit-level no-op against the gate order
            // the plan executes; reordering itself changes the
            // floating-point evaluation order, so the circuit as written is
            // held to numeric tolerance instead.
            let bit_identical = order_state == shipped_state;
            if !bit_identical {
                failures.push(format!(
                    "{tag}: shipped diverged from partition of its own order"
                ));
            }
            let err = max_amp_err(&written_state, &shipped_state);
            if err > 1e-10 {
                failures.push(format!("{tag}: shipped vs as written err {err:.3e}"));
            }
            if shipped_visits > written_visits {
                failures.push(format!(
                    "{tag}: shipped visits {shipped_visits} > as written {written_visits}"
                ));
            }

            let ratio = written_visits as f64 / shipped_visits.max(1) as f64;
            cut = cut.min(ratio);
            t.row(&[
                chunk_bits.to_string(),
                written_visits.to_string(),
                shipped_visits.to_string(),
                shipped.chunk_visits.to_string(),
                format!("{ratio:.2}x"),
                format!("{} -> {}", written.stages, shipped.stages),
                swaps.to_string(),
                format!(
                    "{} / {}",
                    fmt_secs(written.wall.as_secs_f64()),
                    fmt_secs(shipped.wall.as_secs_f64())
                ),
                if bit_identical {
                    "exact".to_string()
                } else {
                    "DIVERGED".to_string()
                },
            ]);
            json_rows.push(format!(
                "    {{\"workload\": \"{workload}\", \"chunk_bits\": {chunk_bits}, \
                 \"as_written_visits\": {written_visits}, \
                 \"shipped_visits\": {shipped_visits}, \"shipped_visits_performed\": {}, \
                 \"cut\": {ratio:.4}, \"as_written_stages\": {}, \"shipped_stages\": {}, \
                 \"swaps_in_stage\": {swaps}, \"remap_passes\": {}, \
                 \"as_written_wall_s_measured\": {:.4}, \
                 \"shipped_wall_s_measured\": {:.4}, \"bit_identical\": {bit_identical}}}",
                shipped.chunk_visits,
                written.stages,
                shipped.stages,
                shipped.remap_passes,
                written.wall.as_secs_f64(),
                shipped.wall.as_secs_f64()
            ));
        }
        println!("## {workload}{n}\n\n{t}");
        worst_cut.push((workload, cut));
    }

    for (workload, floor) in [("random", 2.0), ("random-hot-targets", 5.0)] {
        let cut = worst_cut
            .iter()
            .find(|(w, _)| *w == workload)
            .expect("workload")
            .1;
        if cut < floor {
            failures.push(format!(
                "{workload}: planned-visit cut {cut:.2}x < {floor}x"
            ));
        }
    }

    let cuts: Vec<String> = worst_cut
        .iter()
        .map(|(w, cut)| format!("\"{w}\": {cut:.4}"))
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"locality\",\n  \"qubits\": {n},\n  \
         \"gates\": {{\"parity_exact\": true, \"shipped_never_worse\": true, \
         \"random_cut_2x\": true, \"random_hot_targets_cut_5x\": true, \
         \"pass\": {}}},\n  \
         \"smallest_cut_vs_as_written\": {{{}}},\n  \"sweep\": [\n{}\n  ]\n}}",
        failures.is_empty(),
        cuts.join(", "),
        json_rows.join(",\n")
    );
    emit_sweep_json("BENCH_locality", &json, check);

    if failures.is_empty() {
        let cuts: Vec<String> = worst_cut
            .iter()
            .map(|(w, cut)| format!("{w} {cut:.2}x"))
            .collect();
        println!(
            "\nLocality: planned chunk visits cut vs the circuit as written by at least {}; \
             shipped never worse, states bit-identical to partition of the shipped order. [OK]",
            cuts.join(", ")
        );
    } else {
        eprintln!("\nlocality sweep failures:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        if check {
            std::process::exit(1);
        }
    }
}
