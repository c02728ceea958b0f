//! **Experiment T1 / C1 / C2 — Table 1.**
//!
//! Regenerates the paper's only numeric table: H2D/D2H transfer time in
//! seconds for the sync, async-per-element and buffered-scatter strategies
//! at 20 and 25 qubits, and checks the two derived claims (async ≈ 870x
//! sync H2D; buffer ≈ 1.03x sync).
//!
//! Usage: `cargo run -p mq-bench --release --bin table1 [--fast]`
//! (`--fast` restricts to 20 qubits to keep the run under a few seconds).

use mq_bench::{fmt_secs, write_results_json, Args, Table};
use mq_compress::{Codec, CodecSpec};
use mq_device::{
    run_compressed_transfer_experiment, run_transfer_experiment, Device, DeviceSpec,
    TransferStrategy,
};
use mq_telemetry::{Counter, Telemetry};
use std::sync::Arc;

fn main() {
    let args = Args::capture();
    let qubit_rows: Vec<u32> = if args.has("fast") {
        vec![20]
    } else {
        vec![20, 25]
    };

    // Paper values for side-by-side comparison: (qubits, strategy) -> (h2d, d2h).
    let paper = |q: u32, s: TransferStrategy| -> (f64, f64) {
        match (q, s) {
            (20, TransferStrategy::Sync) => (0.003, 0.008),
            (20, TransferStrategy::AsyncPerElement) => (2.7, 9.2),
            (20, TransferStrategy::BufferedScatter) => (0.003, 0.004),
            (25, TransferStrategy::Sync) => (0.080, 0.233),
            (25, TransferStrategy::AsyncPerElement) => (77.9, 294.4),
            (25, TransferStrategy::BufferedScatter) => (0.110, 0.273),
            _ => (f64::NAN, f64::NAN),
        }
    };

    let device = Device::new(DeviceSpec::pcie_gen3());
    println!("# Table 1 — data transfer time H2D/D2H in seconds\n");
    println!(
        "Device model: {} ({} GiB, H2D {:.1} GB/s, D2H {:.1} GB/s, {:.1} us/call H2D)\n",
        device.spec().name,
        device.spec().memory_bytes() >> 30,
        device.spec().h2d_bandwidth / 1e9,
        device.spec().d2h_bandwidth / 1e9,
        device.spec().h2d_call_overhead * 1e6,
    );

    let mut table = Table::new(&[
        "qubits",
        "strategy",
        "H2D (model)",
        "D2H (model)",
        "H2D (paper)",
        "D2H (paper)",
        "wall",
    ]);
    let mut sync_h2d = std::collections::HashMap::new();
    let mut sync_total = std::collections::HashMap::new();
    let mut results = Vec::new();

    let mut telemetry_entries = Vec::new();
    for &q in &qubit_rows {
        for strategy in TransferStrategy::all() {
            let piece = 1usize << q; // paper moves the whole vector at once
            let telemetry = Telemetry::new();
            device.attach_telemetry(telemetry.clone());
            let r = run_transfer_experiment(&device, q, piece, strategy)
                .expect("transfer experiment failed");
            device.detach_telemetry();
            let record = telemetry.finish();
            let (ph, pd) = paper(q, strategy);
            let h2d = r.effective_h2d().as_secs_f64();
            let d2h = r.effective_d2h().as_secs_f64();
            table.row(&[
                q.to_string(),
                strategy.label().to_string(),
                fmt_secs(h2d),
                fmt_secs(d2h),
                fmt_secs(ph),
                fmt_secs(pd),
                format!("{:.1} ms", r.real_total.as_secs_f64() * 1e3),
            ]);
            if strategy == TransferStrategy::Sync {
                sync_h2d.insert(q, h2d);
                sync_total.insert(q, h2d + d2h);
            }
            results.push((q, strategy, h2d, d2h));
            telemetry_entries.push((q, strategy, h2d, d2h, record));
        }
    }
    println!("{table}");

    // Counter sanity: every strategy moves the exact same payload (the full
    // 2^q-amplitude vector, 16 bytes per amplitude) in each direction; only
    // buffered scatter performs gather/scatter passes.
    let mut counters_ok = true;
    for (q, strategy, _, _, record) in &telemetry_entries {
        let expect = (1u64 << q) * 16;
        let h2d_bytes = record.counter(Counter::BytesH2d);
        let d2h_bytes = record.counter(Counter::BytesD2h);
        let scatter = record.counter(Counter::ScatterOps);
        let uniform = h2d_bytes == expect && d2h_bytes == expect;
        let scatter_sane = (*strategy == TransferStrategy::BufferedScatter) == (scatter > 0);
        counters_ok &= uniform && scatter_sane && record.balanced();
        if !(uniform && scatter_sane) {
            println!(
                "counter mismatch at {q}q/{}: h2d {h2d_bytes} d2h {d2h_bytes} scatter {scatter}",
                strategy.label()
            );
        }
    }

    // Beyond the paper's three strategies: the compressed-transfer row —
    // ship the codec payload and decode it with the modeled device-side
    // kernel instead of moving raw amplitudes.
    println!("## Compressed transfer (device-side codec)\n");
    let mut comp_table = Table::new(&[
        "qubits",
        "codec",
        "raw bytes",
        "payload bytes",
        "cut",
        "H2D+decode",
        "D2H+encode",
        "wall",
    ]);
    let mut comp_ok = true;
    let mut comp_entries = Vec::new();
    for &q in &qubit_rows {
        for spec in [CodecSpec::ZeroRle, CodecSpec::Fpc] {
            let codec: Arc<dyn Codec> = Arc::from(spec.build());
            let piece = 1usize << q.min(22); // chunked pieces, full vector total
            let r = run_compressed_transfer_experiment(&device, q, piece, &codec)
                .expect("compressed transfer experiment failed");
            comp_ok &= r.bytes_cut() >= 3.0;
            comp_table.row(&[
                q.to_string(),
                r.codec.clone(),
                r.raw_bytes.to_string(),
                r.payload_bytes_h2d.to_string(),
                format!("{:.1}x", r.bytes_cut()),
                fmt_secs(r.effective_h2d().as_secs_f64()),
                fmt_secs(r.effective_d2h().as_secs_f64()),
                format!("{:.1} ms", r.real_total.as_secs_f64() * 1e3),
            ]);
            comp_entries.push(format!(
                "    {{\"qubits\": {q}, \"codec\": \"{}\", \"raw_bytes\": {}, \
                 \"payload_bytes_h2d\": {}, \"cut\": {:.4}, \"h2d_plus_decode_s\": {}, \
                 \"d2h_plus_encode_s\": {}}}",
                r.codec,
                r.raw_bytes,
                r.payload_bytes_h2d,
                r.bytes_cut(),
                r.effective_h2d().as_secs_f64(),
                r.effective_d2h().as_secs_f64()
            ));
        }
    }
    println!("{comp_table}");

    println!("## Claim checks\n");
    let mut ok = true;
    for &(q, strategy, h2d, d2h) in &results {
        match strategy {
            TransferStrategy::AsyncPerElement => {
                let ratio = h2d / sync_h2d[&q];
                let pass = (100.0..5000.0).contains(&ratio);
                ok &= pass;
                println!(
                    "- C1 ({q}q): async/sync H2D = {ratio:.0}x (paper: ~870x) {}",
                    if pass { "[OK]" } else { "[FAIL]" }
                );
            }
            TransferStrategy::BufferedScatter => {
                let ratio = (h2d + d2h) / sync_total[&q];
                let pass = (0.95..1.15).contains(&ratio);
                ok &= pass;
                println!(
                    "- C2 ({q}q): buffer/sync total = {ratio:.3}x (paper: ~1.03x) {}",
                    if pass { "[OK]" } else { "[FAIL]" }
                );
            }
            TransferStrategy::Sync => {}
        }
    }
    println!(
        "- counters: every strategy moved the full vector both ways, gather/scatter only \
         under buffering {}",
        if counters_ok { "[OK]" } else { "[FAIL]" }
    );
    ok &= counters_ok;

    // The paper's ordering per qubit count: async >> buffered >= sync-ish.
    // Check it on the modeled clocks the telemetry entries carry.
    let mut ordering_ok = true;
    for &q in &qubit_rows {
        let total = |s: TransferStrategy| -> f64 {
            telemetry_entries
                .iter()
                .find(|(eq, es, _, _, _)| *eq == q && *es == s)
                .map(|(_, _, h, d, _)| h + d)
                .unwrap_or(f64::NAN)
        };
        ordering_ok &= total(TransferStrategy::AsyncPerElement) > total(TransferStrategy::Sync)
            && total(TransferStrategy::AsyncPerElement) > total(TransferStrategy::BufferedScatter);
    }
    println!(
        "- ordering: async-per-element slowest at every size, as in Table 1 {}",
        if ordering_ok { "[OK]" } else { "[FAIL]" }
    );
    ok &= ordering_ok;
    println!(
        "- C3: compressed transfer moves >= 3x fewer link bytes than raw on every codec {}",
        if comp_ok { "[OK]" } else { "[FAIL]" }
    );
    ok &= comp_ok;

    let entries = telemetry_entries
        .iter()
        .map(|(q, strategy, h2d, d2h, record)| {
            format!(
                "    {{\"qubits\": {q}, \"strategy\": \"{}\", \"h2d_model_s\": {h2d}, \
                 \"d2h_model_s\": {d2h}, \"telemetry\": {}}}",
                strategy.label(),
                record.to_json(false)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"experiment\": \"table1\",\n  \"checks\": {{\"claims\": {}, \
         \"counters\": {counters_ok}, \"ordering\": {ordering_ok}, \
         \"compressed_cut\": {comp_ok}}},\n  \
         \"entries\": [\n{entries}\n  ],\n  \"compressed\": [\n{}\n  ]\n}}",
        ok && counters_ok && ordering_ok,
        comp_entries.join(",\n")
    );
    match write_results_json("telemetry_table1", &json) {
        Ok(path) => println!("\nTelemetry written to {}.", path.display()),
        Err(e) => eprintln!("\ncould not write results JSON: {e}"),
    }

    println!(
        "\nShape {}",
        if ok {
            "reproduced."
        } else {
            "NOT reproduced — investigate!"
        }
    );
    if !ok {
        std::process::exit(1);
    }
}
