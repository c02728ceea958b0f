//! **Experiment A5 — fused, cache-blocked gate application.**
//!
//! Sweeps `FusionLevel::{Off, Runs1q, Blocks2q}` on the compressed CPU
//! engine (lossless codec, per-stage scheduling). Every level runs the one
//! blocked apply sweep; the level only decides whether the plan's gates are
//! fused into matrices first. Reported per circuit and level: gates removed
//! by plan-level fusion, amplitude-buffer passes made against one pass per
//! gate, and the pass and wall-time ratios against `Off`. Every run is held
//! to the dense oracle (< 1e-12), so the ratios compare equal results.
//!
//! Usage: `cargo run -p mq-bench --release --bin fusion_sweep [--qubits 12]
//!         [--codec fpc]`

use memqsim_core::{build_store, ChunkStore, FusionLevel, Granularity, MemQSimConfig};
use mq_bench::{write_results_json, Args, Table};
use mq_circuit::library;
use mq_circuit::Circuit;
use mq_compress::CodecSpec;
use mq_num::metrics::max_amp_err;
use mq_num::Complex64;

struct Row {
    report: memqsim_core::engine::RunReport,
    state: Vec<Complex64>,
    seconds: f64,
}

fn run_once(circuit: &Circuit, chunk_bits: u32, codec: CodecSpec, fusion: FusionLevel) -> Row {
    let cfg = MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec,
        workers: 1,
        fusion,
        ..Default::default()
    };
    let store = build_store(circuit.n_qubits(), &cfg).expect("store construction failed");
    let report = memqsim_core::engine::cpu::run(&store, circuit, &cfg, Granularity::Staged)
        .expect("engine run failed");
    let seconds = report.wall.as_secs_f64();
    Row {
        report,
        state: store.to_dense().expect("dense readback failed"),
        seconds,
    }
}

/// One pass per applied gate and scalar: what a per-gate loop would make.
fn per_gate_passes(r: &memqsim_core::engine::RunReport) -> usize {
    r.gates_applied + r.scalars_applied
}

/// Amplitude-buffer passes the run made: the per-gate count minus what the
/// blocked sweep saved (at every level, `Off` included).
fn buffer_passes(r: &memqsim_core::engine::RunReport) -> usize {
    per_gate_passes(r) - r.apply_passes_saved
}

fn level_name(level: FusionLevel) -> &'static str {
    match level {
        FusionLevel::Off => "off",
        FusionLevel::Runs1q => "runs1q",
        FusionLevel::Blocks2q => "blocks2q",
    }
}

fn main() {
    let args = Args::capture();
    let n: u32 = args.get("qubits", 12u32);
    // Every run is checked against the dense oracle, so the codec must be
    // lossless (or adaptive without an error bound) for the 1e-12 gate.
    let codec: CodecSpec = args.get("codec", CodecSpec::Fpc);
    let chunk_bits = (n / 2).clamp(3, 10);

    println!("# A5 — fused, cache-blocked gate application (chunks of 2^{chunk_bits} amps)\n");

    let circuits = [
        library::qft(n),
        library::random_circuit(n, 2 * n, 7),
        library::hardware_efficient_ansatz(n, 2, 5),
    ];
    let levels = [FusionLevel::Off, FusionLevel::Runs1q, FusionLevel::Blocks2q];

    let mut json_rows = Vec::new();
    let mut all_ok = true;
    for circuit in &circuits {
        println!("## {}\n", circuit.name());
        let mut t = Table::new(&[
            "fusion",
            "gates applied",
            "fused away",
            "passes",
            "passes/visit",
            "vs per-gate",
            "passes vs off",
            "wall",
            "wall vs off",
            "err vs dense",
        ]);
        let oracle = mq_circuit::unitary::run_dense(circuit, 0);
        let base = run_once(circuit, chunk_bits, codec, FusionLevel::Off);
        for level in levels {
            let row = if level == FusionLevel::Off {
                Row {
                    report: base.report.clone(),
                    state: base.state.clone(),
                    seconds: base.seconds,
                }
            } else {
                run_once(circuit, chunk_bits, codec, level)
            };
            let err = max_amp_err(&oracle, &row.state);
            all_ok &= err < 1e-12;
            let passes = buffer_passes(&row.report);
            let per_gate_ratio = per_gate_passes(&row.report) as f64 / passes.max(1) as f64;
            let passes_ratio = buffer_passes(&base.report) as f64 / passes.max(1) as f64;
            let wall_ratio = base.seconds / row.seconds.max(1e-12);
            t.row(&[
                level_name(level).to_string(),
                row.report.gates_applied.to_string(),
                row.report.gates_fused.to_string(),
                passes.to_string(),
                format!(
                    "{:.2}",
                    passes as f64 / row.report.chunk_visits.max(1) as f64
                ),
                format!("{per_gate_ratio:.2}x"),
                format!("{passes_ratio:.2}x"),
                format!("{:.1} ms", row.seconds * 1e3),
                format!("{wall_ratio:.2}x"),
                format!("{err:.1e}"),
            ]);
            json_rows.push(format!(
                "    {{\"circuit\": \"{}\", \"fusion\": \"{}\", \"seconds\": {:.6}, \
                 \"gates_applied\": {}, \"scalars_applied\": {}, \"gates_fused\": {}, \
                 \"apply_passes_saved\": {}, \"chunk_visits\": {}, \"buffer_passes\": {}, \
                 \"passes_ratio_vs_per_gate\": {per_gate_ratio:.4}, \
                 \"passes_ratio_vs_off\": {passes_ratio:.4}, \
                 \"wall_ratio_vs_off\": {wall_ratio:.4}, \"max_amp_err_vs_dense\": {err:.3e}}}",
                circuit.name(),
                level_name(level),
                row.seconds,
                row.report.gates_applied,
                row.report.scalars_applied,
                row.report.gates_fused,
                row.report.apply_passes_saved,
                row.report.chunk_visits,
                passes,
            ));
        }
        println!("{t}\n");
    }
    println!(
        "Parity vs the dense oracle on every run: [{}]",
        if all_ok { "OK" } else { "FAIL" }
    );

    let json = format!(
        "{{\n  \"experiment\": \"fusion\",\n  \"qubits\": {n},\n  \
         \"chunk_bits\": {chunk_bits},\n  \"sweep\": [\n{}\n  ]\n}}",
        json_rows.join(",\n")
    );
    match write_results_json("BENCH_fusion", &json) {
        Ok(path) => println!("Sweep written to {}.", path.display()),
        Err(e) => eprintln!("could not write results JSON: {e}"),
    }
    assert!(all_ok, "a run diverged from the dense oracle");
}
