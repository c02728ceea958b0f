//! **Experiment D1 — multi-device sharded execution.**
//!
//! Chunk groups within a stage touch disjoint chunk sets, so a stage's
//! groups can scatter across an N-device fleet with zero coordination
//! beyond the stage barrier. This sweep pins the two claims that make
//! sharding worth having:
//!
//! * bit-exact parity: the N-device state is *identical* to the 1-device
//!   state (and the accounting columns match), for every workload;
//! * near-linear modeled scaling: the fleet makespan (max over device
//!   lanes) shrinks ≥ 3.0x at 4 devices on at least one workload, and the
//!   measured load imbalance stays close to 1 under the device pipeline's
//!   contiguous-range split.
//!
//! Workloads are the qubit_extension mix (GHZ, W state, BV, QAOA ring,
//! QFT, random) at a sweep-friendly register size. Everything lands in
//! `results/BENCH_sharding.json`.
//!
//! Usage: `cargo run -p mq-bench --release --bin sharding_sweep
//!         [--qubits 12] [--chunk-bits 6] [--check]`
//!
//! `--check` exits non-zero if any gate fails — the CI smoke gate — and
//! leaves the committed results file as it is.

use memqsim_core::{build_store, MemQSimConfig, RunReport};
use mq_bench::{emit_sweep_json, fmt_secs, Args, Table};
use mq_circuit::{library, Circuit};
use mq_compress::CodecSpec;
use mq_device::{Device, DeviceSpec};
use mq_num::Complex64;

fn workloads(n: u32) -> Vec<(&'static str, Circuit)> {
    vec![
        ("ghz", library::ghz(n)),
        ("w-state", library::w_state(n)),
        (
            "bernstein-vazirani",
            library::bernstein_vazirani(n - 1, 0b1011_0110_1011 & ((1 << (n - 1)) - 1)),
        ),
        (
            "qaoa-ring(p=1)",
            library::qaoa_maxcut(n, &library::ring_graph(n), &[0.5], &[0.4]),
        ),
        ("qft", library::qft(n)),
        ("random", library::random_circuit(n, 8, 7)),
    ]
}

fn run_fleet(circuit: &Circuit, chunk_bits: u32, devices: usize) -> (Vec<Complex64>, RunReport) {
    let cfg = MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec: CodecSpec::Fpc,
        workers: 1,
        ..Default::default()
    };
    let store = build_store(circuit.n_qubits(), &cfg).expect("store construction failed");
    let fleet: Vec<Device> = (0..devices)
        .map(|_| Device::new(DeviceSpec::pcie_gen3()))
        .collect();
    let report = memqsim_core::engine::hybrid::run_fleet(&store, circuit, &cfg, &fleet, true)
        .expect("engine run failed");
    (store.to_dense().expect("store is readable"), report)
}

fn main() {
    let args = Args::capture();
    let n: u32 = args.get("qubits", 12u32);
    let chunk_bits: u32 = args.get("chunk-bits", 6u32);
    let check = args.has("check");

    println!("# D1 — multi-device sharding sweep ({n} qubits, cb{chunk_bits}, pcie_gen3 fleet)\n");

    let mut failures = Vec::new();
    let mut json_rows = Vec::new();
    let mut best_4dev_speedup = 0.0f64;
    for (workload, circuit) in workloads(n) {
        let (one_state, one) = run_fleet(&circuit, chunk_bits, 1);
        let base_modeled = one.device.modeled.as_secs_f64();
        let mut t = Table::new(&[
            "devices",
            "makespan",
            "speedup",
            "imbalance",
            "groups/dev",
            "parity",
        ]);
        t.row(&[
            "1".to_string(),
            fmt_secs(base_modeled),
            "1.0x".to_string(),
            format!("{:.3}", one.telemetry.load_imbalance()),
            one.groups_device.to_string(),
            "exact".to_string(),
        ]);
        for devices in [2usize, 4] {
            let (state, r) = run_fleet(&circuit, chunk_bits, devices);
            let bit_identical = state == one_state;
            let makespan = r.device.modeled.as_secs_f64();
            let speedup = base_modeled / makespan.max(f64::MIN_POSITIVE);
            let imbalance = r.telemetry.load_imbalance();
            if devices == 4 {
                best_4dev_speedup = best_4dev_speedup.max(speedup);
            }
            if !bit_identical {
                failures.push(format!(
                    "{workload} x{devices}: state diverged from 1-device"
                ));
            }
            for (col, a, b) in [
                ("gates", r.gates_applied, one.gates_applied),
                ("scalars", r.scalars_applied, one.scalars_applied),
                ("visits", r.chunk_visits, one.chunk_visits),
                ("stages", r.stages, one.stages),
                ("groups_device", r.groups_device, one.groups_device),
            ] {
                if a != b {
                    failures.push(format!("{workload} x{devices}: {col} {a} != 1-device {b}"));
                }
            }
            let lane_sum: u64 = r.telemetry.device_lanes().iter().map(|l| l.groups).sum();
            if lane_sum as usize != r.groups_device {
                failures.push(format!(
                    "{workload} x{devices}: lane groups {lane_sum} != total {}",
                    r.groups_device
                ));
            }
            let per_dev: Vec<String> = r
                .telemetry
                .device_lanes()
                .iter()
                .map(|l| l.groups.to_string())
                .collect();
            t.row(&[
                devices.to_string(),
                fmt_secs(makespan),
                format!("{speedup:.2}x"),
                format!("{imbalance:.3}"),
                per_dev.join("/"),
                if bit_identical {
                    "exact".to_string()
                } else {
                    "DIVERGED".to_string()
                },
            ]);
            json_rows.push(format!(
                "    {{\"workload\": \"{workload}\", \"devices\": {devices}, \
                 \"makespan_s\": {makespan:.9}, \"one_device_s\": {base_modeled:.9}, \
                 \"speedup\": {speedup:.4}, \"load_imbalance\": {imbalance:.4}, \
                 \"groups_device\": {}, \"bit_identical\": {bit_identical}}}",
                r.groups_device
            ));
        }
        println!("## {workload}{n}\n\n{t}");
    }

    if best_4dev_speedup < 3.0 {
        failures.push(format!(
            "best 4-device speedup {best_4dev_speedup:.2}x < 3.0x on every workload"
        ));
    }

    let json = format!(
        "{{\n  \"experiment\": \"sharding\",\n  \"qubits\": {n},\n  \
         \"chunk_bits\": {chunk_bits},\n  \
         \"gates\": {{\"parity_exact\": true, \"accounting_identity\": true, \
         \"speedup_4dev_3x\": true, \"pass\": {}}},\n  \
         \"best_4dev_speedup\": {best_4dev_speedup:.4},\n  \"sweep\": [\n{}\n  ]\n}}",
        failures.is_empty(),
        json_rows.join(",\n")
    );
    emit_sweep_json("BENCH_sharding", &json, check);

    if failures.is_empty() {
        println!(
            "\nSharding: {best_4dev_speedup:.2}x best modeled speedup at 4 devices, \
             states bit-identical to 1-device, accounting identical. [OK]"
        );
    } else {
        eprintln!("\nsharding sweep failures:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        if check {
            std::process::exit(1);
        }
    }
}
