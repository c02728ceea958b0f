//! The modularity seam (paper Fig. 1): one circuit, three backends.
//!
//! The same QAOA workload runs unchanged on the dense CPU baseline, the
//! compressed CPU engine and the hybrid CPU+simulated-GPU pipeline — and the
//! MaxCut expectation value agrees everywhere.
//!
//! Run with: `cargo run --example backend_swap --release`

use memqsim_suite::circuit::library;
use memqsim_suite::statevec::expval::expected_cut;
use memqsim_suite::statevec::State;
use memqsim_suite::{
    Backend, CodecSpec, CompressedCpuBackend, DenseCpuBackend, DeviceSpec, HybridBackend,
    MemQSimConfig,
};

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
    let dense = DenseCpuBackend::default();
    let compressed = CompressedCpuBackend::new(cfg);
    let hybrid = HybridBackend::new(cfg, DeviceSpec::pcie_gen3());
    let backends: Vec<&dyn Backend> = vec![&dense, &compressed, &hybrid];

    let mut cuts = Vec::new();
    for backend in &backends {
        let run = backend.run(&circuit).expect("backend run failed");
        let state = State::from_amplitudes(&run.amplitudes);
        let cut = expected_cut(&state, &edges);
        println!(
            "{:<45} cut = {:.6}   wall = {:>9.2?}   peak state = {} B",
            backend.name(),
            cut,
            run.wall,
            run.peak_state_bytes
        );
        cuts.push(cut);
    }

    let spread = cuts.iter().fold(0.0f64, |m, &c| m.max((c - cuts[0]).abs()));
    println!("\nMax disagreement across backends: {spread:.2e}");
    assert!(spread < 1e-6, "backends disagree!");
    println!("The compression layer is transparent to the algorithm — Fig. 1 in action.");
}
