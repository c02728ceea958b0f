//! **Experiment L1 — qubit-layout locality sweep.**
//!
//! The shipped planner reorders commuting gates and then lets the greedy
//! layout *move* hot cross-chunk qubits below the chunk boundary instead of
//! repeatedly paying cross-chunk stages for them. This sweep runs the
//! shipped plan against two hand-built baselines — the fixed-layout
//! `partition(..)` of the circuit as written (`fixed`) and of the reordered
//! gate list (`reorder-only`) — and pins the three claims that make the
//! layout machinery worth having:
//!
//! * safety: the shipped plan never visits more chunks than either
//!   baseline (the planner falls back to the fixed layout whenever
//!   remapping would not strictly win), and its state is bit-identical to
//!   the reorder-only state it extends;
//! * a real win: on at least one random/QAOA workload the greedy layout
//!   cuts chunk visits ≥ 1.5x below the *reorder-only* baseline — gains
//!   commutation-aware gate reordering cannot reach, because the hot
//!   targets share one non-diagonal control;
//! * free transpositions: high-high remaps (QFT's absorbed tail swap
//!   network) exchange whole compressed payloads — the remap pass adds
//!   zero chunk visits, so no decode is ever charged for it.
//!
//! Workloads: a seeded random circuit, a random circuit with rotating hot
//! high targets, a QAOA ring, and QFT, each at chunk_bits 6–8, with the
//! measured wall time of every run beside its visit count (`--qubits 20`
//! is the seconds-scale row set). Visit counts are *planned* visits —
//! performed plus the ones the engine elided because the group was known
//! to be all zero — since that is what a plan costs; the shipped run's
//! performed count is printed beside them. Everything lands in
//! `results/BENCH_locality.json`.
//!
//! Usage: `cargo run -p mq-bench --release --bin locality_sweep
//!         [--qubits 16] [--check]`
//!
//! `--check` exits non-zero if any gate fails — the CI smoke gate.

use memqsim_core::engine::cpu::CpuWorkerExecutor;
use memqsim_core::engine::{build_plan, Granularity};
use memqsim_core::{build_store, run_plan_with_executor, MemQSimConfig, RunReport};
use mq_bench::{fmt_secs, write_results_json, Args, Table};
use mq_circuit::partition::{partition, PartitionConfig, Plan};
use mq_circuit::reorder::reorder_for_locality;
use mq_circuit::{library, Circuit};
use mq_compress::CodecSpec;
use mq_num::metrics::max_amp_err;
use mq_num::Complex64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random circuit whose two-qubit gates keep hitting the top three qubits
/// under one shared low control. The shared non-diagonal control defeats
/// commutation-aware reordering (no two CX gates commute), while one remap
/// pass drops the targets below the chunk boundary for the whole body.
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

    println!("# L1 — qubit-layout locality sweep ({n} qubits, chunk_bits 6-8)\n");

    let mut failures = Vec::new();
    let mut json_rows = Vec::new();
    let mut best_ratio = 0.0f64;
    let mut best_tag = String::new();
    let mut payload_swaps_proven = false;
    for (workload, circuit) in workloads(n) {
        let mut t = Table::new(&[
            "chunk_bits",
            "fixed",
            "reorder-only",
            "shipped",
            "shipped performed",
            "vs reorder",
            "remaps",
            "saved",
            "wall s (measured) fixed / reorder / shipped",
            "parity",
        ]);
        for chunk_bits in [6u32, 7, 8] {
            let cfg = config(chunk_bits);
            let pcfg = PartitionConfig {
                chunk_bits,
                max_high_qubits: cfg.max_high_qubits,
            };
            let (fixed_state, fixed) = run(partition(&circuit, &pcfg), &cfg);
            let reordered = reorder_for_locality(&circuit, chunk_bits);
            let (reorder_state, reorder) = run(partition(&reordered, &pcfg), &cfg);
            let (greedy_state, greedy) = run(build_plan(&circuit, &cfg, Granularity::Staged), &cfg);
            let tag = format!("{workload} cb{chunk_bits}");
            // Plans are compared on the visits they ask for (performed +
            // elided): how many of them find an all-zero group depends on
            // where a layout leaves the early, sparse state.
            let (fixed_visits, reorder_visits, greedy_visits) = (
                fixed.planned_visits(),
                reorder.planned_visits(),
                greedy.planned_visits(),
            );

            // Layout must be a bit-level no-op against the same base
            // circuit (reorder-only); the reorder pass itself changes the
            // floating-point evaluation order, so the fixed baseline is
            // held to numeric tolerance instead.
            let bit_identical = reorder_state == greedy_state;
            if !bit_identical {
                failures.push(format!("{tag}: shipped diverged from reorder-only"));
            }
            let err = max_amp_err(&fixed_state, &greedy_state);
            if err > 1e-10 {
                failures.push(format!("{tag}: shipped vs fixed err {err:.3e}"));
            }
            if greedy_visits > fixed_visits {
                failures.push(format!(
                    "{tag}: shipped visits {greedy_visits} > fixed {fixed_visits}"
                ));
            }
            if greedy_visits > reorder_visits {
                failures.push(format!(
                    "{tag}: shipped visits {greedy_visits} > reorder-only {reorder_visits}"
                ));
            }
            if greedy.remap_passes > 0 && greedy.chunk_visits_saved_by_layout == 0 {
                failures.push(format!("{tag}: remapped without saving visits"));
            }
            // QFT's absorbed tail swaps are high-high: the epilogue that
            // undoes them exchanges whole compressed payloads, so it adds
            // remap passes but ZERO chunk visits — every decode in the run
            // is a stage visit, and the totals divide exactly.
            let chunk_count = 1usize << (n - chunk_bits);
            if workload == "qft" && greedy.remap_passes > 0 {
                if greedy_visits == greedy.stages * chunk_count {
                    payload_swaps_proven = true;
                } else {
                    failures.push(format!(
                        "{tag}: high-high remap decoded chunks (visits {greedy_visits} != stages {} x {chunk_count})",
                        greedy.stages
                    ));
                }
            }

            let ratio = reorder_visits as f64 / greedy_visits.max(1) as f64;
            if (workload.starts_with("random") || workload.starts_with("qaoa"))
                && ratio > best_ratio
            {
                best_ratio = ratio;
                best_tag = tag.clone();
            }
            t.row(&[
                chunk_bits.to_string(),
                fixed_visits.to_string(),
                reorder_visits.to_string(),
                greedy_visits.to_string(),
                greedy.chunk_visits.to_string(),
                format!("{ratio:.2}x"),
                greedy.remap_passes.to_string(),
                greedy.chunk_visits_saved_by_layout.to_string(),
                format!(
                    "{} / {} / {}",
                    fmt_secs(fixed.wall.as_secs_f64()),
                    fmt_secs(reorder.wall.as_secs_f64()),
                    fmt_secs(greedy.wall.as_secs_f64())
                ),
                if bit_identical {
                    "exact".to_string()
                } else {
                    "DIVERGED".to_string()
                },
            ]);
            json_rows.push(format!(
                "    {{\"workload\": \"{workload}\", \"chunk_bits\": {chunk_bits}, \
                 \"fixed_visits\": {}, \"reorder_only_visits\": {}, \
                 \"shipped_visits\": {}, \"shipped_visits_performed\": {}, \
                 \"reduction_vs_reorder\": {ratio:.4}, \
                 \"remap_passes\": {}, \"visits_saved\": {}, \
                 \"fixed_wall_s_measured\": {:.4}, \"reorder_only_wall_s_measured\": {:.4}, \
                 \"shipped_wall_s_measured\": {:.4}, \"bit_identical\": {bit_identical}}}",
                fixed_visits,
                reorder_visits,
                greedy_visits,
                greedy.chunk_visits,
                greedy.remap_passes,
                greedy.chunk_visits_saved_by_layout,
                fixed.wall.as_secs_f64(),
                reorder.wall.as_secs_f64(),
                greedy.wall.as_secs_f64()
            ));
        }
        println!("## {workload}{n}\n\n{t}");
    }

    if best_ratio < 1.5 {
        failures.push(format!(
            "best shipped-vs-reorder reduction {best_ratio:.2}x < 1.5x on every random/QAOA workload"
        ));
    }
    if !payload_swaps_proven {
        failures.push("no qft config exercised a payload-moving high-high remap".to_string());
    }

    let json = format!(
        "{{\n  \"experiment\": \"locality\",\n  \"qubits\": {n},\n  \
         \"gates\": {{\"parity_exact\": true, \"shipped_never_worse\": true, \
         \"reduction_1_5x_vs_reorder\": true, \"payload_swaps_no_decode\": true, \
         \"pass\": {}}},\n  \
         \"best_reduction_vs_reorder\": {best_ratio:.4},\n  \
         \"best_reduction_workload\": \"{best_tag}\",\n  \"sweep\": [\n{}\n  ]\n}}",
        failures.is_empty(),
        json_rows.join(",\n")
    );
    match write_results_json("BENCH_locality", &json) {
        Ok(path) => println!("Sweep written to {}.", path.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }

    if failures.is_empty() {
        println!(
            "\nLocality: {best_ratio:.2}x best chunk-visit reduction vs reorder-only \
             ({best_tag}), shipped never worse than either baseline, states bit-identical, \
             high-high remaps moved payloads without decode. [OK]"
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
