//! **Experiment F1 — Figure 1: modularized simulation.**
//!
//! The paper's Figure 1 shows the compression layer sitting between the
//! quantum algorithm and interchangeable compute backends. Here the layer's
//! two seams are the `ChunkStore` (where the state lives) and the
//! `ChunkExecutor` (what computes on it). This harness runs the same
//! circuits unchanged on four compute paths — the dense baseline
//! (`run_circuit`), the compressed CPU engine at both compression
//! granularities (`cpu::run`, staged and per-gate) and the hybrid
//! CPU+device pipeline (`hybrid::run`) — and checks that the final states
//! agree amplitude by amplitude. Any divergence above 1e-6 exits 1.
//!
//! Usage: `cargo run -p mq-bench --release --bin modularity [--qubits 10]`

use memqsim_core::engine::{cpu, hybrid};
use memqsim_core::{build_store, EngineError, Granularity, MemQSimConfig};
use mq_bench::{Args, Table};
use mq_circuit::{library, Circuit};
use mq_compress::CodecSpec;
use mq_device::{Device, DeviceSpec};
use mq_num::metrics::max_amp_err;
use mq_num::stats::format_bytes;
use mq_num::Complex64;
use std::time::{Duration, Instant};

/// One compute path's final state and table row.
type PathRun = (&'static str, Vec<Complex64>, [String; 4]);

fn run_paths(circuit: &Circuit, cfg: &MemQSimConfig) -> Result<Vec<PathRun>, EngineError> {
    let ms = |wall: Duration| format!("{:.2} ms", wall.as_secs_f64() * 1e3);
    let start = Instant::now();
    let state = mq_statevec::run_circuit(circuit, &mq_statevec::CpuConfig::default());
    let dense_row = [
        ms(start.elapsed()),
        format_bytes(state.dim() * size_of::<Complex64>()),
        format_bytes(0),
        format!("{} amplitudes", state.dim()),
    ];
    let mut runs = vec![(
        "dense (run_circuit)",
        state.amplitudes().to_vec(),
        dense_row,
    )];

    let device = Device::new(DeviceSpec::pcie_gen3());
    for (path, granularity) in [
        ("staged (cpu::run)", Some(Granularity::Staged)),
        ("per-gate (cpu::run)", Some(Granularity::PerGate)),
        ("hybrid (hybrid::run)", None),
    ] {
        let store = build_store(circuit.n_qubits(), cfg)?;
        let r = match granularity {
            Some(g) => cpu::run(&store, circuit, cfg, g)?,
            None => hybrid::run(&store, circuit, cfg, &device, true)?,
        };
        let detail = match granularity {
            Some(_) => r.visits_summary(),
            None => format!(
                "{} device groups, modeled {:?}",
                r.groups_device, r.device.modeled
            ),
        };
        let row = [
            ms(r.wall),
            format_bytes(r.peak_resident_bytes),
            format_bytes(r.peak_working_bytes()),
            format!("{} stages, {detail}", r.stages),
        ];
        runs.push((path, store.to_dense()?, row));
    }
    Ok(runs)
}

fn main() {
    let args = Args::capture();
    let n: u32 = args.get("qubits", 10u32);

    let cfg = MemQSimConfig {
        chunk_bits: (n / 2).max(3),
        max_high_qubits: 2,
        codec: CodecSpec::Sz { eb: 1e-11 },
        workers: 1,
        ..Default::default()
    };

    println!("# F1 — compute-path modularity at {n} qubits\n");
    println!(
        "One store ({}, 2^{} chunks) under four compute paths; the compression layer is",
        cfg.codec, cfg.chunk_bits
    );
    println!("independent of both the algorithm and the compute backend (paper Fig. 1).\n");

    for circuit in library::standard_suite(n) {
        let fail = |msg: String| -> ! {
            eprintln!("{}: {msg}", circuit.name());
            std::process::exit(1)
        };
        let runs = run_paths(&circuit, &cfg).unwrap_or_else(|e| fail(e.to_string()));
        let (reference, want, _) = &runs[0];
        for (path, got, _) in &runs[1..] {
            let err = max_amp_err(want, got);
            if err > 1e-6 {
                fail(format!(
                    "{path} diverges from {reference}: max amplitude error {err:.3e} > 1e-6"
                ));
            }
        }
        println!("## {} ({} gates)\n", circuit.name(), circuit.len());
        let mut t = Table::new(&["path", "wall", "peak state", "peak working", "detail"]);
        for (path, _, row) in runs {
            let [wall, state, working, detail] = row;
            t.row(&[path.to_string(), wall, state, working, detail]);
        }
        println!("{t}");
        println!("All paths agree within 1e-6 max amplitude error. [OK]\n");
    }
}
