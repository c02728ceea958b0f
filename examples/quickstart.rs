//! Quickstart: build a circuit, simulate it with MEMQSIM, inspect results.
//!
//! Run with: `cargo run --example quickstart --release`

use memqsim_suite::circuit::Circuit;
use memqsim_suite::{ChunkStore, CodecSpec, MemQSim, MemQSimConfig};

fn main() {
    // 1. Build a circuit with the chainable builder: a 12-qubit GHZ state.
    let n = 12;
    let mut circuit = Circuit::named(n, "quickstart-ghz");
    circuit.h(0);
    for q in 1..n {
        circuit.cx(q - 1, q);
    }
    println!(
        "Circuit: {} qubits, {} gates, depth {}",
        circuit.n_qubits(),
        circuit.len(),
        circuit.depth()
    );

    // 2. Configure MEMQSIM: 2^8-amplitude chunks, SZ-style lossy compression
    //    with a 1e-10 absolute error bound.
    let sim = MemQSim::new(
        MemQSimConfig::builder()
            .chunk_bits(8)
            .codec(CodecSpec::Sz { eb: 1e-10 })
            .build()
            .expect("valid config"),
    );

    // 3. Simulate. The state stays compressed in memory throughout.
    let outcome = sim.simulate(&circuit).expect("simulation failed");

    // 4. Query without decompressing everything.
    let p_zero = outcome.probability(0);
    let p_ones = outcome.probability((1 << n) - 1);
    println!("P(|0...0>) = {p_zero:.6}");
    println!("P(|1...1>) = {p_ones:.6}");

    // 5. Memory accounting — the point of the paper.
    println!(
        "Dense state would need {} bytes; compressed store holds {} bytes ({:.0}x smaller).",
        outcome.store.dense_bytes(),
        outcome.store.state_bytes(),
        outcome.compression_ratio
    );
    println!(
        "Executed {} stages with {}.",
        outcome.report.stages,
        outcome.report.visits_summary()
    );

    // 6. Per-run telemetry: every engine records a span/counter timeline.
    let t = &outcome.report.telemetry;
    println!(
        "Telemetry: {} spans, {} bytes decompressed, {} bytes recompressed.",
        outcome.report.telemetry.spans().len(),
        t.counter(memqsim_suite::telemetry::Counter::BytesDecompressed),
        t.counter(memqsim_suite::telemetry::Counter::BytesCompressed),
    );

    assert!((p_zero - 0.5).abs() < 1e-6);
    assert!((p_ones - 0.5).abs() < 1e-6);
    println!("\nGHZ state verified: the two extreme basis states each carry probability 1/2.");
}
