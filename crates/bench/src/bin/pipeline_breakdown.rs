//! **Experiment F2 — Figure 2: the data-management pipeline.**
//!
//! Breaks a hybrid run into the paper's steps (decompress, H2D, device
//! kernels, D2H, recompress) and compares the pipelined execution against
//! the serial ablation. The modeled clock (the deterministic device/cost
//! model) is reported beside the measured role timeline and wall time,
//! never added to them.
//!
//! Usage: `cargo run -p mq-bench --release --bin pipeline_breakdown
//!         [--qubits 16] [--chunk-bits 10]`
//!
//! The default gives every stage 16 groups. The overlap witness is spans of
//! different host roles open at once — the device's own thread records
//! none — and four groups a stage through two staging slots (2^12-amp
//! chunks) leave decode and recompress next to nothing to overlap.

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
    let chunk_bits: u32 = args.get("chunk-bits", 10u32);

    let cfg = MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec: CodecSpec::Sz { eb: 1e-10 },
        workers: 1,
        ..Default::default()
    };

    println!(
        "# F2 — pipeline breakdown (qft{n}, chunks of 2^{chunk_bits} amps, {} kernels)\n",
        mq_statevec::apply::kernel_isa()
    );

    let circuit = library::qft(n);
    let mut rows = Vec::new();
    for (key, label, pipelined) in [
        ("serial", "serial (no overlap)", false),
        ("pipelined", "pipelined (Fig. 2)", true),
    ] {
        let store = build_store(n, &cfg).expect("store construction failed");
        let device = Device::new(DeviceSpec::pcie_gen3());
        let r = hybrid::run(&store, &circuit, &cfg, &device, pipelined).expect("hybrid run failed");
        rows.push((key, label, r));
    }

    // Measured host timeline, straight from the mq-telemetry span record:
    // the union of busy intervals is what actually ran concurrently.
    let mut measured = Table::new(&[
        "mode",
        "decompress (measured)",
        "recompress (measured)",
        "busy sum (measured)",
        "busy union (measured)",
        "overlap (measured)",
        "roles overlap?",
        "device real (measured)",
        "wall (measured)",
    ]);
    // The deterministic device clock. The two clocks are never added.
    let mut modeled = Table::new(&[
        "mode",
        "H2D (model)",
        "kernels (model)",
        "D2H (model)",
        "device total (model)",
    ]);
    let mut counters = Table::new(&[
        "mode",
        "H2D bytes",
        "D2H bytes",
        "kernel launches",
        "decompressed",
    ]);
    for (_, label, r) in &rows {
        let t = &r.telemetry;
        measured.row(&[
            label.to_string(),
            fmt(r.decompress),
            fmt(r.compress),
            fmt(t.serial_sum()),
            fmt(t.union_busy()),
            fmt(t.overlap()),
            t.has_role_overlap().to_string(),
            fmt(r.device.real),
            fmt(r.wall),
        ]);
        modeled.row(&[
            label.to_string(),
            fmt(r.device.modeled_h2d),
            fmt(r.device.modeled_kernel),
            fmt(r.device.modeled_d2h),
            fmt(r.device.modeled),
        ]);
        counters.row(&[
            label.to_string(),
            t.counter(Counter::BytesH2d).to_string(),
            t.counter(Counter::BytesD2h).to_string(),
            t.counter(Counter::KernelLaunches).to_string(),
            t.counter(Counter::BytesDecompressed).to_string(),
        ]);
    }
    println!("Measured host timeline (mq-telemetry spans):\n\n{measured}");
    println!("Modeled device clock:\n\n{modeled}");
    println!("Counters:\n\n{counters}");

    let r = &rows[1].2;
    println!(
        "\nSteps executed: {} stages, {} device groups.",
        r.stages, r.groups_device
    );
    println!(
        "Staging: {} pinned + {} device buffer bytes.",
        r.pinned_bytes, r.device_buffer_bytes
    );

    // Shape checks. The serial ablation's stage barrier makes role overlap
    // structurally impossible; the pipelined run must show *measured*
    // overlap (busy union strictly below the busy sum) — but only when the
    // workload offers any (more than one group per stage; a single-chunk
    // degenerate run has nothing to pipeline).
    let serial = &rows[0].2;
    let serial_ok = !serial.telemetry.has_role_overlap();
    let pipelinable = r.groups_device > r.stages;
    let piped_ok = !pipelinable || r.telemetry.union_busy() < r.telemetry.serial_sum();
    println!(
        "\nShape {} — serial run measured no role overlap.",
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

    let modes = rows
        .iter()
        .map(|(key, _, r)| format!("    \"{key}\": {}", r.telemetry.to_json(false)))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"experiment\": \"pipeline_breakdown\",\n  \"circuit\": \"qft{n}\",\n  \
         \"chunk_bits\": {chunk_bits},\n  \
         \"checks\": {{\"serial_no_overlap\": {serial_ok}, \"pipelined_overlap\": {piped_ok}}},\n  \
         \"modes\": {{\n{modes}\n  }}\n}}"
    );
    match write_results_json("telemetry_pipeline_breakdown", &json) {
        Ok(path) => println!("\nTelemetry written to {}.", path.display()),
        Err(e) => eprintln!("\ncould not write results JSON: {e}"),
    }

    if !(serial_ok && piped_ok) {
        std::process::exit(1);
    }
}
