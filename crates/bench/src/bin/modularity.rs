//! **Experiment F1 — Figure 1: modularized simulation.**
//!
//! The paper's Figure 1 shows the compression layer sitting between the
//! quantum algorithm and interchangeable simulator backends. This harness
//! demonstrates exactly that: the same circuits run unchanged on the dense
//! CPU backend, the compressed CPU backend (two compression granularities)
//! and the hybrid CPU+device backend, all behind one `Backend` trait, and
//! the results agree amplitude-by-amplitude.
//!
//! Usage: `cargo run -p mq-bench --release --bin modularity [--qubits 10]`

use memqsim_core::{
    backend::run_on_all, Backend, CompressedCpuBackend, DenseCpuBackend, Granularity,
    HybridBackend, MemQSimConfig,
};
use mq_bench::{Args, Table};
use mq_circuit::library;
use mq_compress::CodecSpec;
use mq_device::DeviceSpec;
use mq_num::stats::format_bytes;

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

    let dense = DenseCpuBackend::default();
    let compressed = CompressedCpuBackend::new(cfg);
    let per_gate = CompressedCpuBackend {
        cfg,
        granularity: Granularity::PerGate,
    };
    let hybrid = HybridBackend::new(cfg, DeviceSpec::pcie_gen3());
    let backends: Vec<&dyn Backend> = vec![&dense, &compressed, &per_gate, &hybrid];

    println!("# F1 — backend modularity at {n} qubits\n");
    println!("One `Backend` trait; the compression layer is independent of both the");
    println!("algorithm and the compute backend (paper Fig. 1).\n");

    for circuit in library::standard_suite(n) {
        // Divergence comes back as a typed error naming both backends, so a
        // failed modularity check reads as a diagnosis, not a panic.
        let runs = run_on_all(&circuit, &backends, 1e-6).unwrap_or_else(|e| {
            eprintln!("{}: {e}", circuit.name());
            std::process::exit(1);
        });
        println!("## {} ({} gates)\n", circuit.name(), circuit.len());
        let mut t = Table::new(&["backend", "wall", "peak state", "peak working", "detail"]);
        for (b, r) in backends.iter().zip(&runs) {
            t.row(&[
                b.name(),
                format!("{:.2} ms", r.wall.as_secs_f64() * 1e3),
                format_bytes(r.peak_state_bytes),
                format_bytes(r.peak_working_bytes),
                r.detail.clone(),
            ]);
        }
        println!("{t}");
        println!("All backends agree within 1e-6 max amplitude error. [OK]\n");
    }
}
