//! A small QASM front end: simulate an OpenQASM 2.0 file with MEMQSIM and
//! print a measurement histogram — the "drop-in simulator" usage the
//! paper's modularity pitch implies.
//!
//! Run with: `cargo run --example run_qasm --release -- <file.qasm> [shots]`
//! With no argument, a built-in demo program is used.

use memqsim_suite::circuit::qasm;
use memqsim_suite::core::measure;
use memqsim_suite::{ChunkStore, CodecSpec, MemQSim, MemQSimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DEMO: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
// 5-qubit GHZ with a phase twist
qreg q[5];
creg c[5];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
cx q[3],q[4];
rz(pi/4) q[4];
measure q[0] -> c[0];
"#;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (source, label) = match args.first() {
        Some(path) => (
            std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }),
            path.clone(),
        ),
        None => (DEMO.to_string(), "<built-in demo>".to_string()),
    };
    let shots: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1000);

    let program = match qasm::parse(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{label}: {e}");
            std::process::exit(1);
        }
    };
    let n = program.circuit.n_qubits();
    println!(
        "{label}: {n} qubits, {} gates, {} measure statements",
        program.circuit.len(),
        program.measurements.len()
    );

    let sim = MemQSim::new(
        MemQSimConfig::builder()
            .chunk_bits((n / 2).max(4))
            .codec(CodecSpec::Sz { eb: 1e-10 })
            .build()
            .expect("valid config"),
    );
    let t0 = std::time::Instant::now();
    let outcome = sim.simulate(&program.circuit).expect("simulation failed");
    println!(
        "simulated in {:.2?}; state resident at {} bytes ({:.1}x under dense)",
        t0.elapsed(),
        outcome.store.state_bytes(),
        outcome.compression_ratio
    );
    println!(
        "{} stages, {}, {} kernels",
        outcome.report.stages,
        outcome.report.visits_summary(),
        outcome.report.kernel_isa
    );

    let mut rng = StdRng::seed_from_u64(1);
    let counts = measure::sample_counts(&outcome.store, shots, &mut rng).expect("sampling failed");
    println!("\ntop outcomes over {shots} shots:");
    for (state, count) in counts.iter().take(8) {
        println!("  |{state:0width$b}>  {count}", width = n as usize);
    }
}
