//! # mq-bench — the MEMQSIM experiment harness
//!
//! Shared plumbing for the experiment binaries (`src/bin/*`), each of which
//! regenerates one table, figure or claim from the paper (see the
//! experiment index in `DESIGN.md`):
//!
//! | binary                | paper artifact |
//! |-----------------------|----------------|
//! | `table1`              | Table 1 + the 870x / 1.03x claims (C1, C2) |
//! | `qubit_extension`     | the "+5 qubits" claim (C3) |
//! | `modularity`          | Figure 1 (compute-path modularity, F1) |
//! | `pipeline_breakdown`  | Figure 2 (pipeline stages & overlap) |
//! | `granularity`         | design-challenge-2 ablation (A1) |
//! | `access_patterns`     | design-challenge-3 analysis (A2) |
//! | `codec_sweep`         | compressor comparison (A3) |
//! | `fidelity_sweep`      | lossy error → result quality (A4) |
//! | `transfer_sweep`      | compressed H2D transfers (A5) |
//! | `adaptive_sweep`      | per-chunk codec selection under a fidelity budget (A6) |
//! | `locality_sweep`      | the circuit as written vs the shipped plan (L1) |
//!
//! This library provides markdown table rendering, mid-circuit state
//! snapshots as compression workloads, and small CLI-argument helpers.

pub mod report;
pub mod table;
pub mod workloads;

pub use report::{emit_results_json, write_results_json};
pub use table::Table;

/// Parses `--key value` style options from `std::env::args`, with defaults.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn capture() -> Args {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Builds from an explicit vector (tests).
    pub fn from_vec(raw: Vec<String>) -> Args {
        Args { raw }
    }

    /// The value following `--name`, parsed, or `default`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// True if the bare flag `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }
}

/// Formats seconds the way the paper's Table 1 does (three significant
/// figures, plain seconds).
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.1}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_values_and_flags() {
        let a = Args::from_vec(
            ["--qubits", "20", "--fast"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(a.get("qubits", 5u32), 20);
        assert_eq!(a.get("missing", 7u32), 7);
        assert!(a.has("fast"));
        assert!(!a.has("slow"));
    }

    #[test]
    fn codec_args_parse_through_the_shared_spec_parser() {
        // Bins take `--codec <spec>` via `Args::get` + `CodecSpec: FromStr`,
        // so there is exactly one codec-name parser in the workspace.
        use mq_compress::CodecSpec;
        let a = Args::from_vec(
            ["--codec", "auto:1e-9"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(
            a.get("codec", CodecSpec::Fpc),
            CodecSpec::Auto { eb: Some(1e-9) }
        );
        let bad = Args::from_vec(["--codec", "lz4"].iter().map(|s| s.to_string()).collect());
        assert_eq!(bad.get("codec", CodecSpec::Fpc), CodecSpec::Fpc);
    }

    #[test]
    fn args_ignore_malformed_values() {
        let a = Args::from_vec(["--qubits", "abc"].iter().map(|s| s.to_string()).collect());
        assert_eq!(a.get("qubits", 5u32), 5);
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_secs(0.003), "0.003");
        assert_eq!(fmt_secs(2.7), "2.70");
        assert_eq!(fmt_secs(294.4), "294.4");
    }
}
