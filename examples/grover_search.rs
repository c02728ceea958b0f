//! Grover search through the compressed simulator, with sampling.
//!
//! Searches a 12-qubit space (4096 entries) for one marked item while the
//! state vector stays compressed in CPU memory, then samples measurement
//! shots directly from the compressed store. (12 qubits keeps the optimal
//! iteration count ~50, so the single-core run stays under a second.)
//!
//! Run with: `cargo run --example grover_search --release`

use memqsim_suite::circuit::library;
use memqsim_suite::core::measure;
use memqsim_suite::{ChunkStore, CodecSpec, MemQSim, MemQSimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 12u32;
    let marked = 0xBEEu64 & ((1 << n) - 1);
    let iterations = library::optimal_grover_iterations(n);
    println!("Grover search: {n} qubits, marked item {marked:#x}, {iterations} iterations");

    let circuit = library::grover(n, marked, iterations);
    println!("Circuit: {} gates", circuit.len());

    let sim = MemQSim::new(
        MemQSimConfig::builder()
            .chunk_bits(8)
            .codec(CodecSpec::Sz { eb: 1e-9 })
            .build()
            .expect("valid config"),
    );
    let t0 = std::time::Instant::now();
    let outcome = sim.simulate(&circuit).expect("simulation failed");
    println!(
        "Simulated in {:.2?}; resident compressed state: {} of {} dense bytes",
        t0.elapsed(),
        outcome.store.state_bytes(),
        outcome.store.dense_bytes()
    );

    let p = outcome
        .probability(marked as usize)
        .expect("store readable");
    println!("P(marked) = {p:.4}");
    assert!(p > 0.5, "Grover amplification failed");

    // Sample 100 measurement shots straight off the compressed store.
    let mut rng = StdRng::seed_from_u64(2024);
    let counts = measure::sample_counts(&outcome.store, 100, &mut rng).expect("sampling failed");
    let (top_state, top_count) = counts[0];
    println!("Top measurement outcome: {top_state:#x} observed {top_count}/100 times");
    assert_eq!(top_state as u64, marked);
    println!("\nSearch succeeded: the marked item dominates the measurement record.");
}
