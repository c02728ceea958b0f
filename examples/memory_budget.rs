//! Simulating past the dense-memory limit — the paper's headline ability.
//!
//! Gives the simulator a hard state-memory budget that a dense state vector
//! of the target size cannot satisfy, then runs a 22-qubit GHZ circuit
//! inside it: 64 MiB of dense amplitudes held in well under 1 MiB.
//!
//! Run with: `cargo run --example memory_budget --release`

use memqsim_suite::circuit::library;
use memqsim_suite::core::{build_store, Granularity};
use memqsim_suite::num::stats::format_bytes;
use memqsim_suite::{ChunkStore, CodecSpec, MemQSimConfig};

fn main() {
    let n = 22u32;
    let budget: usize = 1 << 20; // 1 MiB
    let dense_needed = (1usize << n) * 16;
    println!(
        "Target: {n} qubits -> dense needs {} but our budget is {}.",
        format_bytes(dense_needed),
        format_bytes(budget)
    );

    // Chunk size picks the working-set/footprint trade-off: 2^12-amp chunks
    // keep the transient group buffer at 256 KiB, well inside the budget.
    let cfg = MemQSimConfig::builder()
        .chunk_bits(12)
        .codec(CodecSpec::Sz { eb: 1e-10 })
        .build()
        .expect("valid config");
    let circuit = library::ghz(n);
    let store = build_store(n, &cfg).expect("store construction");
    let t0 = std::time::Instant::now();
    let report = memqsim_suite::core::engine::cpu::run(&store, &circuit, &cfg, Granularity::Staged)
        .expect("simulation failed");
    let peak = report.peak_resident_bytes + report.peak_buffer_bytes;

    println!(
        "Simulated {} gates in {:.2?} across {} stages.",
        circuit.len(),
        t0.elapsed(),
        report.stages
    );
    println!(
        "Peak footprint: {} store + {} working buffers = {} ({:.0}x under dense).",
        format_bytes(report.peak_resident_bytes),
        format_bytes(report.peak_buffer_bytes),
        format_bytes(peak),
        dense_needed as f64 / peak as f64
    );
    assert!(peak <= budget, "budget exceeded!");

    let p0 = store.probability(0).expect("store readable");
    let p1 = store.probability((1 << n) - 1).expect("store readable");
    println!("P(|0..0>) = {p0:.6}, P(|1..1>) = {p1:.6} — GHZ verified under budget.");
    assert!((p0 - 0.5).abs() < 1e-5 && (p1 - 0.5).abs() < 1e-5);
}
