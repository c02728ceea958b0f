//! **Experiment F2 — Figure 2: the data-management pipeline.**
//!
//! Breaks a hybrid run into the paper's steps (decompress, H2D, device
//! kernels, D2H, recompress) and compares the pipelined execution against
//! the serial ablation. The modeled clock (the deterministic device/cost
//! model) is reported beside the measured role timeline and wall time,
//! never added to them.
//!
//! Usage: `cargo run -p mq-bench --release --bin pipeline_breakdown
//!         [--qubits 16] [--chunk-bits 10] [--check]`
//!
//! The default gives every stage 16 groups. The overlap witness is the one
//! Fig. 2 draws: a host decode span open while the device executes a
//! command (each device command is a `Role::Device` span). `--check` (the
//! CI smoke step) writes no results file.

use memqsim_core::{build_store, engine::hybrid, Counter, MemQSimConfig, Role};
use mq_bench::{emit_results_json, Args, Table};
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
    let check = args.has("check");

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
        "host roles overlap?",
        "decode overlaps device?",
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
            t.roles_overlap(Role::Decompress, Role::Device).to_string(),
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

    // Shape checks. The serial ablation stores each group before it decodes
    // the next, so no two host roles overlap and no decode or encode runs
    // while the device works. The pipelined run must show a decode running
    // beside device work — but only when the workload offers any (more than
    // one group per stage; a single-chunk degenerate run has nothing to
    // pipeline) and the host has a second core to run it on.
    let serial = &rows[0].2.telemetry;
    let serial_ok = !serial.has_role_overlap()
        && !serial.roles_overlap(Role::Decompress, Role::Device)
        && !serial.roles_overlap(Role::Recompress, Role::Device);
    let pipelinable = r.groups_device > r.stages && mq_num::parallel::cores() > 1;
    let piped_ok = !pipelinable || r.telemetry.roles_overlap(Role::Decompress, Role::Device);
    println!(
        "\nShape {} — serial run: no host roles overlap, no decode or encode beside device work.",
        if serial_ok { "[OK]" } else { "[FAIL]" }
    );
    println!(
        "Shape {} — pipelined run decoded while the device worked (Fig. 2).",
        if !pipelinable {
            "[n/a: one group per stage, or one core]"
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
    println!();
    emit_results_json("telemetry_pipeline_breakdown", &json, check);

    if !(serial_ok && piped_ok) {
        std::process::exit(1);
    }
}
