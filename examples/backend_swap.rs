//! The modularity seam (paper Fig. 1): one circuit, three compute paths.
//!
//! The same QAOA workload runs unchanged on the dense CPU baseline, the
//! compressed CPU engine and the hybrid CPU+simulated-GPU pipeline — and the
//! MaxCut expectation value agrees everywhere.
//!
//! Run with: `cargo run --example backend_swap --release`

use memqsim_suite::circuit::library;
use memqsim_suite::device::Device;
use memqsim_suite::statevec::expval::expected_cut;
use memqsim_suite::statevec::{run_circuit, CpuConfig, State};
use memqsim_suite::{CodecSpec, DeviceSpec, MemQSim, MemQSimConfig};

fn main() {
    let n = 12u32;
    let edges = library::ring_graph(n);
    let circuit = library::qaoa_maxcut(n, &edges, &[0.55, 0.85], &[0.35, 0.6]);
    println!(
        "Workload: {} ({} gates) on a {n}-vertex ring, |E| = {}\n",
        circuit.name(),
        circuit.len(),
        edges.len()
    );

    let cfg = MemQSimConfig::builder()
        .chunk_bits(7)
        .codec(CodecSpec::Sz { eb: 1e-10 })
        .build()
        .expect("valid config");
    let sim = MemQSim::new(cfg);
    let dense = run_circuit(&circuit, &CpuConfig::default());
    let compressed = sim.simulate(&circuit).expect("compressed run failed");
    let device = Device::new(DeviceSpec::pcie_gen3());
    let hybrid = sim
        .simulate_hybrid(&circuit, &device)
        .expect("hybrid run failed");

    let dense_cut = expected_cut(&dense, &edges);
    println!("{:<10} cut = {dense_cut:.6}", "dense");
    let mut cuts = vec![dense_cut];
    for (path, outcome) in [("compressed", &compressed), ("hybrid", &hybrid)] {
        let state = State::from_amplitudes(&outcome.to_dense().expect("store readable"));
        let cut = expected_cut(&state, &edges);
        println!(
            "{path:<10} cut = {cut:.6}   wall = {:>9.2?}   peak state = {} B   ({})",
            outcome.report.wall, outcome.report.peak_resident_bytes, outcome.report.executor
        );
        cuts.push(cut);
    }

    let spread = cuts.iter().fold(0.0f64, |m, &c| m.max((c - cuts[0]).abs()));
    println!("\nMax disagreement across compute paths: {spread:.2e}");
    assert!(spread < 1e-6, "compute paths disagree!");
    println!("The compression layer is transparent to the algorithm — Fig. 1 in action.");
}
