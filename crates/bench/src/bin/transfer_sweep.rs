//! **Experiment A5 — compressed H2D transfers.**
//!
//! The device-side codec path: under `TransferMode::Compressed` the engine
//! ships each chunk's stored codec payload over the link as-is and a
//! modeled decode kernel inflates it on-device (mirroring the staged GPU
//! codecs of SNIPPETS.md §1–2); the way back runs a device encode that
//! folds in the group scalar, so the stored payloads — and the final state
//! — are *bit-identical* to the raw path.
//!
//! Sweeps codec × chunk_bits ∈ {6, 7, 8} on a sparse workload (GHZ) and a
//! dense one (QFT), pinning three claims per configuration:
//!
//! * state parity: compressed vs raw final state identical (< 1e-12);
//! * link-byte cut: `bytes_h2d` drops ≥ 3x on ≥ 2 codecs (GHZ);
//! * on-stream charging: `device_decode_time_ns` > 0 in the run telemetry.
//!
//! The modeled-time crossover — compressed effective H2D (link + decode
//! kernel) vs raw link time — is reported per codec so the
//! bandwidth/throughput trade is visible, and everything lands in
//! `results/BENCH_transfer.json`.
//!
//! Usage: `cargo run -p mq-bench --release --bin transfer_sweep
//!         [--qubits 12] [--check]`
//!
//! `--check` exits non-zero if any gate fails — the CI smoke gate — and
//! leaves the committed results file as it is.

use memqsim_core::{build_store, MemQSimConfig, RunReport, TransferMode};
use mq_bench::{emit_results_json, fmt_secs, Args, Table};
use mq_circuit::{library, Circuit};
use mq_compress::CodecSpec;
use mq_device::{Device, DeviceSpec};
use mq_num::Complex64;
use mq_telemetry::Counter;

fn codecs() -> Vec<CodecSpec> {
    vec![
        CodecSpec::ZeroRle,
        CodecSpec::Fpc,
        CodecSpec::ShuffleLzss,
        CodecSpec::Sz { eb: 1e-10 },
    ]
}

fn run_once(
    circuit: &Circuit,
    chunk_bits: u32,
    codec: CodecSpec,
    mode: TransferMode,
) -> (Vec<Complex64>, RunReport) {
    let cfg = MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec,
        workers: 1,
        transfer_mode: mode,
        ..Default::default()
    };
    let store = build_store(circuit.n_qubits(), &cfg).expect("store construction failed");
    let device = Device::new(DeviceSpec::pcie_gen3());
    let report = memqsim_core::engine::hybrid::run(&store, circuit, &cfg, &device, true)
        .expect("engine run failed");
    (store.to_dense().expect("store is readable"), report)
}

fn main() {
    let args = Args::capture();
    let n: u32 = args.get("qubits", 12u32);
    let check = args.has("check");

    println!("# A5 — compressed H2D transfer sweep ({n} qubits, pcie_gen3)\n");

    let mut failures = Vec::new();
    let mut json_rows = Vec::new();
    for (workload, circuit, gate_cut) in [
        ("ghz", library::ghz(n), true),
        ("qft", library::qft(n), false),
    ] {
        println!("## {workload}{n}\n");
        for chunk_bits in [6u32, 7, 8] {
            let mut t = Table::new(&[
                "codec",
                "raw H2D bytes",
                "comp H2D bytes",
                "cut",
                "raw H2D model",
                "comp H2D+decode",
                "crossover",
                "parity",
            ]);
            let mut cuts_over_3 = 0usize;
            for codec in codecs() {
                let (raw_state, raw) = run_once(&circuit, chunk_bits, codec, TransferMode::Raw);
                let (comp_state, comp) =
                    run_once(&circuit, chunk_bits, codec, TransferMode::Compressed);
                let max_err = raw_state
                    .iter()
                    .zip(&comp_state)
                    .map(|(a, b)| (*a - *b).norm())
                    .fold(0.0f64, f64::max);
                let bit_identical = raw_state == comp_state;
                let cut = raw.device.bytes_h2d as f64 / comp.device.bytes_h2d.max(1) as f64;
                if cut >= 3.0 {
                    cuts_over_3 += 1;
                }
                // Effective H2D: what the stream actually charged for
                // getting state onto the device — link time plus (in
                // compressed mode) the decode kernel train.
                let raw_eff = raw.device.modeled_h2d.as_secs_f64();
                let comp_eff = (comp.device.modeled_h2d + comp.device.modeled_decode).as_secs_f64();
                let decode_ns = comp.telemetry.counter(Counter::DeviceDecodeTime);
                if max_err >= 1e-12 {
                    failures.push(format!(
                        "{workload} cb{chunk_bits} {codec}: parity {max_err:.2e} >= 1e-12"
                    ));
                }
                if decode_ns == 0 {
                    failures.push(format!(
                        "{workload} cb{chunk_bits} {codec}: no decode time charged on-stream"
                    ));
                }
                if comp.telemetry.counter(Counter::BytesH2dCompressed)
                    != comp.device.bytes_h2d_compressed as u64
                {
                    failures.push(format!(
                        "{workload} cb{chunk_bits} {codec}: counter/stat mismatch"
                    ));
                }
                t.row(&[
                    codec.to_string(),
                    raw.device.bytes_h2d.to_string(),
                    comp.device.bytes_h2d.to_string(),
                    format!("{cut:.1}x"),
                    fmt_secs(raw_eff),
                    fmt_secs(comp_eff),
                    if comp_eff < raw_eff {
                        "comp wins"
                    } else {
                        "raw wins"
                    }
                    .to_string(),
                    if bit_identical {
                        "exact".to_string()
                    } else {
                        format!("{max_err:.1e}")
                    },
                ]);
                json_rows.push(format!(
                    "    {{\"workload\": \"{workload}\", \"chunk_bits\": {chunk_bits}, \
                     \"codec\": \"{codec}\", \"raw_bytes_h2d\": {}, \"comp_bytes_h2d\": {}, \
                     \"cut\": {cut:.4}, \"raw_h2d_model_s\": {raw_eff:.9}, \
                     \"comp_h2d_plus_decode_s\": {comp_eff:.9}, \"decode_ns\": {decode_ns}, \
                     \"parity_max_err\": {max_err:.3e}, \"bit_identical\": {bit_identical}}}",
                    raw.device.bytes_h2d, comp.device.bytes_h2d
                ));
            }
            println!("{t}");
            if gate_cut && cuts_over_3 < 2 {
                failures.push(format!(
                    "{workload} cb{chunk_bits}: only {cuts_over_3} codec(s) cut bytes_h2d >= 3x"
                ));
            }
        }
    }

    let json = format!(
        "{{\n  \"experiment\": \"transfer\",\n  \"qubits\": {n},\n  \
         \"gates\": {{\"cut_3x_on_2_codecs\": true, \"parity_1e12\": true, \
         \"decode_on_stream\": true, \"pass\": {}}},\n  \"sweep\": [\n{}\n  ]\n}}",
        failures.is_empty(),
        json_rows.join(",\n")
    );
    emit_results_json("BENCH_transfer", &json, check);

    if failures.is_empty() {
        println!(
            "\nCompressed transfers: bytes cut >= 3x on >= 2 codecs (sparse workload), \
             states bit-identical to raw, decode charged on-stream. [OK]"
        );
    } else {
        eprintln!("\ntransfer sweep failures:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        if check {
            std::process::exit(1);
        }
    }
}
