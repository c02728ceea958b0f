//! **Experiment F2 — Figure 2: the data-management pipeline.**
//!
//! Breaks a hybrid run into the paper's steps (decompress, H2D, device
//! kernels, D2H, recompress) and compares the pipelined execution against
//! the serial ablation and against a run with the residency cache on. The
//! modeled clock (the deterministic device/cost model) is reported beside
//! the measured role timeline and wall time, never added to them.
//!
//! Usage: `cargo run -p mq-bench --release --bin pipeline_breakdown
//!         [--qubits 16] [--chunk-bits 12]`

use memqsim_core::{build_store, engine::hybrid, Counter, MemQSimConfig};
use mq_bench::{write_results_json, Args, Table};
use mq_circuit::library;
use mq_compress::CodecSpec;
use mq_device::{Device, DeviceSpec};
use std::time::Duration;

fn fmt(d: Duration) -> String {
    format!("{:.2} ms", d.as_secs_f64() * 1e3)
}

fn main() {
    let args = Args::capture();
    let n: u32 = args.get("qubits", 16u32);
    let chunk_bits: u32 = args.get("chunk-bits", 12u32);

    let cfg = MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec: CodecSpec::Sz { eb: 1e-10 },
        workers: 1,
        ..Default::default()
    };

    println!("# F2 — pipeline breakdown (qft{n}, chunks of 2^{chunk_bits} amps)\n");

    let circuit = library::qft(n);
    // Residency-cache budget for the cached mode: half the working set
    // (dense state + one group staging buffer).
    let cache_bytes = ((1usize << n) * 16 + (1usize << (chunk_bits + 2)) * 16) / 2;
    let mut rows = Vec::new();
    for (key, label, pipelined, cache) in [
        ("serial", "serial (no overlap)", false, 0),
        ("pipelined", "pipelined (Fig. 2)", true, 0),
        ("cached", "pipelined + residency cache", true, cache_bytes),
    ] {
        let cfg = MemQSimConfig {
            cache_bytes: cache,
            ..cfg
        };
        let store = build_store(n, &cfg).expect("store construction failed");
        let device = Device::new(DeviceSpec::pcie_gen3());
        let r = hybrid::run(&store, &circuit, &cfg, &device, pipelined).expect("hybrid run failed");
        rows.push((key, label, r));
    }

    let mut t = Table::new(&[
        "mode",
        "decompress",
        "H2D (model)",
        "kernels (model)",
        "D2H (model)",
        "recompress",
        "modeled serial",
        "modeled overlapped",
        "wall",
    ]);
    for (_, label, r) in &rows {
        t.row(&[
            label.to_string(),
            fmt(r.decompress),
            fmt(r.device.modeled_h2d),
            fmt(r.device.modeled_kernel),
            fmt(r.device.modeled_d2h),
            fmt(r.compress),
            fmt(r.modeled_serial),
            fmt(r.modeled_overlapped),
            fmt(r.wall),
        ]);
    }
    println!("{t}");

    // Measured role timeline, straight from the mq-telemetry span record:
    // the union of busy intervals is what actually ran concurrently.
    let mut measured = Table::new(&[
        "mode",
        "busy sum",
        "busy union",
        "measured overlap",
        "roles overlap?",
        "H2D bytes",
        "D2H bytes",
        "kernel launches",
        "decompressed",
        "cache hits",
    ]);
    for (_, label, r) in &rows {
        let t = &r.telemetry;
        measured.row(&[
            label.to_string(),
            fmt(t.serial_sum()),
            fmt(t.union_busy()),
            fmt(t.overlap()),
            t.has_role_overlap().to_string(),
            t.counter(Counter::BytesH2d).to_string(),
            t.counter(Counter::BytesD2h).to_string(),
            t.counter(Counter::KernelLaunches).to_string(),
            t.counter(Counter::BytesDecompressed).to_string(),
            t.counter(Counter::CacheHits).to_string(),
        ]);
    }
    println!("Measured role timeline (mq-telemetry):\n\n{measured}");
    let cached = &rows[2].2.telemetry;
    let uncached = &rows[1].2.telemetry;
    println!(
        "Residency cache: {} of {} chunk visits served without the codec; \
         decompression {} -> {} bytes.",
        cached.counter(Counter::CacheHits),
        cached.counter(Counter::ChunkVisits),
        uncached.counter(Counter::BytesDecompressed),
        cached.counter(Counter::BytesDecompressed),
    );

    let r = &rows[1].2;
    let overlap_gain =
        r.modeled_serial.as_secs_f64() / r.modeled_overlapped.as_secs_f64().max(1e-12);
    println!(
        "\nSteps executed: {} stages, {} device groups.",
        r.stages, r.groups_device
    );
    println!(
        "Staging: {} pinned + {} device buffer bytes.",
        r.pinned_bytes, r.device_buffer_bytes
    );
    println!("\nModeled overlap gain (serial / overlapped): {overlap_gain:.2}x");
    println!("(Perfect double-buffering hides the smaller of CPU-side and device-side time;");
    println!("the paper's Fig. 2 pipelines decompression, transfer and kernels the same way.)");

    // Shape checks. The serial ablation's stage barrier makes role overlap
    // structurally impossible; the pipelined run must show *measured*
    // overlap (busy union strictly below the busy sum) — but only when the
    // workload offers any (more than one group per stage; a single-chunk
    // degenerate run has nothing to pipeline).
    let serial = &rows[0].2;
    let model_ok = r.modeled_overlapped <= r.modeled_serial;
    let serial_ok = !serial.telemetry.has_role_overlap();
    let pipelinable = r.groups_device > r.stages;
    // The cached mode is excluded: cache hits remove most of the decompress
    // work, so there may legitimately be nothing left to overlap.
    let piped_ok = !pipelinable || r.telemetry.union_busy() < r.telemetry.serial_sum();
    let cache_ok =
        cached.counter(Counter::BytesDecompressed) < uncached.counter(Counter::BytesDecompressed);
    println!(
        "\nShape {} — overlapped <= serial (model).",
        if model_ok { "[OK]" } else { "[FAIL]" }
    );
    println!(
        "Shape {} — serial run measured no role overlap.",
        if serial_ok { "[OK]" } else { "[FAIL]" }
    );
    println!(
        "Shape {} — pipelined run measured real overlap (union < sum).",
        if !pipelinable {
            "[n/a: one group per stage]"
        } else if piped_ok {
            "[OK]"
        } else {
            "[FAIL]"
        }
    );
    println!(
        "Shape {} — residency cache cut decompression traffic.",
        if cache_ok { "[OK]" } else { "[FAIL]" }
    );

    let modes = rows
        .iter()
        .map(|(key, _, r)| format!("    \"{key}\": {}", r.telemetry.to_json(false)))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"experiment\": \"pipeline_breakdown\",\n  \"circuit\": \"qft{n}\",\n  \
         \"chunk_bits\": {chunk_bits},\n  \"cache_bytes\": {cache_bytes},\n  \
         \"checks\": {{\"model_overlap\": {model_ok}, \
         \"serial_no_overlap\": {serial_ok}, \"pipelined_overlap\": {piped_ok}, \
         \"cache_traffic_cut\": {cache_ok}}},\n  \
         \"modes\": {{\n{modes}\n  }}\n}}"
    );
    match write_results_json("telemetry_pipeline_breakdown", &json) {
        Ok(path) => println!("\nTelemetry written to {}.", path.display()),
        Err(e) => eprintln!("\ncould not write results JSON: {e}"),
    }

    if !(model_ok && serial_ok && piped_ok && cache_ok) {
        std::process::exit(1);
    }
}
