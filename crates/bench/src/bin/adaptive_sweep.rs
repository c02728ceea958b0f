//! **Experiment A6 — adaptive per-chunk codec selection under a fidelity
//! budget.**
//!
//! `CodecSpec::Auto` probes every chunk at encode time and picks the
//! backend (zero-RLE / FPC / shuffle-LZSS / SZ, f64 or packed f32) that
//! stores it smallest within the stage's slice of a run-level error
//! budget. This harness runs the workload suite at one fidelity target and
//! compares Auto's total stored+link bytes against every *static* codec at
//! the same target (SZ gets the same budget spread uniformly across
//! stages), pinning four claims:
//!
//! * Auto never loses to the best static codec by more than the 2% payload
//!   header overhead, and beats every static outright on >= 3 workloads;
//! * the per-stage error ledger sums within the run budget;
//! * end-state fidelity against the lossless reference meets the target;
//! * when only lossless backends were picked, parity is bit-exact.
//!
//! Results land in `results/BENCH_adaptive.json`.
//!
//! Usage: `cargo run -p mq-bench --release --bin adaptive_sweep
//!         [--qubits 12] [--target 0.999] [--check]`
//!
//! `--check` exits non-zero if any gate fails — the CI smoke gate.

use memqsim_core::{build_store, MemQSimConfig, Precision, RunReport, TransferMode};
use mq_bench::{write_results_json, Args, Table};
use mq_circuit::{library, Circuit};
use mq_compress::CodecSpec;
use mq_device::{Device, DeviceSpec};
use mq_num::metrics::{fidelity, max_amp_err};
use mq_num::Complex64;
use mq_telemetry::Counter;

fn run_once(circuit: &Circuit, cfg: &MemQSimConfig) -> (Vec<Complex64>, RunReport) {
    let store = build_store(circuit.n_qubits(), cfg).expect("store construction failed");
    let device = Device::new(DeviceSpec::pcie_gen3());
    let report = memqsim_core::engine::hybrid::run(&store, circuit, cfg, &device, true)
        .expect("engine run failed");
    (store.to_dense().expect("store is readable"), report)
}

/// The bytes a codec choice is accountable for: peak resident compressed
/// state plus everything shipped over the link both ways.
fn total_bytes(r: &RunReport) -> usize {
    r.peak_resident_bytes + r.device.bytes_h2d + r.device.bytes_d2h
}

fn main() {
    let args = Args::capture();
    let n: u32 = args.get("qubits", 12u32);
    let target: f64 = args.get("target", 0.999f64);
    let check = args.has("check");
    let chunk_bits = (n / 2).clamp(3, 8);

    println!("# A6 — adaptive codec selection at fidelity target {target} ({n} qubits)\n");

    let base = MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        workers: 1,
        transfer_mode: TransferMode::Compressed,
        ..Default::default()
    };

    let mut failures = Vec::new();
    let mut json_rows = Vec::new();
    let mut strict_wins = 0usize;
    for circuit in library::standard_suite(n) {
        // Lossless reference for parity and fidelity, and the stage count
        // that turns the run budget into the static SZ competitor's
        // per-stage bound (stages depend on the plan, not the codec).
        let reference_cfg = MemQSimConfig {
            codec: CodecSpec::Auto { eb: None },
            ..base
        };
        let (reference, lossless_run) = run_once(&circuit, &reference_cfg);
        let stages = lossless_run.stages.max(1);
        let budget = memqsim_core::engine::stage_error_bounds(
            &MemQSimConfig {
                fidelity_budget: Some(target),
                ..reference_cfg
            },
            circuit.n_qubits(),
            stages,
        )
        .expect("budget configured")
        .iter()
        .sum::<f64>();
        let sz_eb = budget / stages as f64;

        let auto_cfg = MemQSimConfig {
            codec: CodecSpec::Auto { eb: None },
            fidelity_budget: Some(target),
            precision: Precision::Adaptive,
            ..base
        };
        let (auto_state, auto) = run_once(&circuit, &auto_cfg);

        let mut t = Table::new(&["codec", "total bytes", "vs auto", "fidelity >= target"]);
        let auto_bytes = total_bytes(&auto);
        let auto_fid = fidelity(&reference, &auto_state);
        t.row(&[
            "auto".to_string(),
            auto_bytes.to_string(),
            "baseline".to_string(),
            format!("{auto_fid:.6}"),
        ]);

        let mut best_static: Option<(CodecSpec, usize)> = None;
        for spec in [
            CodecSpec::ZeroRle,
            CodecSpec::Fpc,
            CodecSpec::ShuffleLzss,
            CodecSpec::Sz { eb: sz_eb },
        ] {
            let (state, r) = run_once(
                &circuit,
                &MemQSimConfig {
                    codec: spec,
                    ..base
                },
            );
            let bytes = total_bytes(&r);
            let fid = fidelity(&reference, &state);
            if fid < target {
                failures.push(format!(
                    "{} {spec}: static fidelity {fid:.9} below target",
                    circuit.name()
                ));
            }
            if best_static.as_ref().is_none_or(|&(_, b)| bytes < b) {
                best_static = Some((spec, bytes));
            }
            t.row(&[
                spec.to_string(),
                bytes.to_string(),
                format!("{:.2}x", bytes as f64 / auto_bytes.max(1) as f64),
                format!("{fid:.6}"),
            ]);
            json_rows.push(format!(
                "    {{\"workload\": \"{}\", \"codec\": \"{spec}\", \
                 \"total_bytes\": {bytes}, \"fidelity\": {fid:.9}}}",
                circuit.name()
            ));
        }
        let (best_spec, best_bytes) = best_static.expect("static codecs ran");

        // Gate: Auto may pay the 1-byte/chunk self-describing header (2%
        // slack) but must never lose meaningfully to the best static pick.
        if auto_bytes as f64 > best_bytes as f64 * 1.02 {
            failures.push(format!(
                "{}: auto {auto_bytes} bytes loses to {best_spec} ({best_bytes})",
                circuit.name()
            ));
        }
        let strict = auto_bytes < best_bytes;
        if strict {
            strict_wins += 1;
        }

        // Gate: the ledger exhausts and never overdraws the budget.
        let spent = auto.error_spent;
        if spent > auto.error_budget {
            failures.push(format!(
                "{}: error spent {spent:e} exceeds budget {:e}",
                circuit.name(),
                auto.error_budget
            ));
        }
        if auto.telemetry.error_spend().len() != auto.stages {
            failures.push(format!("{}: ledger/stage count mismatch", circuit.name()));
        }

        // Gate: fidelity target met; bit-exact when nothing lossy ran.
        if auto_fid < target {
            failures.push(format!(
                "{}: auto fidelity {auto_fid:.9} below target {target}",
                circuit.name()
            ));
        }
        let lossy = auto.telemetry.counter(Counter::LossyEncodes);
        let err = max_amp_err(&reference, &auto_state);
        if lossy == 0 && auto_state != reference {
            failures.push(format!(
                "{}: no lossy encodes but state differs from lossless reference \
                 (max err {err:.2e})",
                circuit.name()
            ));
        }

        println!(
            "## {} ({stages} stages, sz eb {sz_eb:.2e})\n",
            circuit.name()
        );
        println!("{t}");
        println!(
            "auto: best static {best_spec} ({best_bytes} B) — {} | \
             picks rle/fpc/lzss/sz {}/{}/{}/{} | f32 chunks {} | \
             spent {spent:.2e} of {:.2e}\n",
            if strict {
                "auto wins"
            } else {
                "within header slack"
            },
            auto.telemetry.counter(Counter::CodecPicksZeroRle),
            auto.telemetry.counter(Counter::CodecPicksFpc),
            auto.telemetry.counter(Counter::CodecPicksShuffleLzss),
            auto.telemetry.counter(Counter::CodecPicksSz),
            auto.telemetry.counter(Counter::MixedPrecisionChunks),
            auto.error_budget,
        );
        json_rows.push(format!(
            "    {{\"workload\": \"{}\", \"codec\": \"auto\", \"total_bytes\": {auto_bytes}, \
             \"fidelity\": {auto_fid:.9}, \"strict_win\": {strict}, \
             \"best_static\": \"{best_spec}\", \"best_static_bytes\": {best_bytes}, \
             \"error_budget\": {:e}, \"error_spent\": {spent:e}, \
             \"picks\": {{\"zero_rle\": {}, \"fpc\": {}, \"shuffle_lzss\": {}, \"sz\": {}}}, \
             \"mixed_precision_chunks\": {}, \"lossy_encodes\": {lossy}, \
             \"parity_max_err\": {err:.3e}}}",
            circuit.name(),
            auto.error_budget,
            auto.telemetry.counter(Counter::CodecPicksZeroRle),
            auto.telemetry.counter(Counter::CodecPicksFpc),
            auto.telemetry.counter(Counter::CodecPicksShuffleLzss),
            auto.telemetry.counter(Counter::CodecPicksSz),
            auto.telemetry.counter(Counter::MixedPrecisionChunks),
        ));
    }

    if strict_wins < 3 {
        failures.push(format!(
            "auto beat every static codec on only {strict_wins} workload(s) (need >= 3)"
        ));
    }

    let json = format!(
        "{{\n  \"experiment\": \"adaptive\",\n  \"qubits\": {n},\n  \
         \"fidelity_target\": {target},\n  \"strict_wins\": {strict_wins},\n  \
         \"gates\": {{\"auto_not_worse_than_best_static\": true, \
         \"strict_wins_ge_3\": true, \"spend_within_budget\": true, \
         \"fidelity_target_met\": true, \"pass\": {}}},\n  \"sweep\": [\n{}\n  ]\n}}",
        failures.is_empty(),
        json_rows.join(",\n")
    );
    match write_results_json("BENCH_adaptive", &json) {
        Ok(path) => println!("Sweep written to {}.", path.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }

    if failures.is_empty() {
        println!(
            "\nAdaptive selection: never worse than the best static codec, strictly \
             better on {strict_wins} workloads, error spend within budget. [OK]"
        );
    } else {
        eprintln!("\nadaptive sweep failures:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        if check {
            std::process::exit(1);
        }
    }
}
