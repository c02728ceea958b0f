//! Fidelity accounting for lossy-compressed simulation (experiment A4).
//!
//! Lossy chunk compression injects a bounded pointwise error at every
//! recompression; this module quantifies how that error accumulates into
//! state-level infidelity, by comparing any run's final amplitudes against
//! the dense reference.

use mq_num::{metrics, Complex64};

/// Result-quality comparison of a run against the dense oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// Quantum state fidelity `|<ref|got>|^2` (normalization-insensitive).
    pub fidelity: f64,
    /// Maximum absolute amplitude error.
    pub max_amp_err: f64,
    /// L2 norm of the produced state (drift from 1 measures lossy damage).
    pub norm: f64,
    /// Total-variation distance between the outcome distributions.
    pub total_variation: f64,
}

/// Scores the amplitudes `got` against the exact `reference` (typically
/// [`mq_circuit::unitary::run_dense`] of the same circuit).
pub fn compare_to_dense(reference: &[Complex64], got: &[Complex64]) -> QualityReport {
    let p_ref: Vec<f64> = reference.iter().map(|z| z.norm_sqr()).collect();
    let norm_got = metrics::l2_norm(got);
    let p_got: Vec<f64> = got
        .iter()
        .map(|z| z.norm_sqr() / (norm_got * norm_got).max(f64::MIN_POSITIVE))
        .collect();
    QualityReport {
        fidelity: metrics::fidelity(reference, got),
        max_amp_err: metrics::max_amp_err(reference, got),
        norm: norm_got,
        total_variation: metrics::total_variation(&p_ref, &p_got),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{cpu, Granularity};
    use crate::testkit;
    use mq_circuit::unitary::run_dense;
    use mq_circuit::{library, Circuit};
    use mq_compress::CodecSpec;

    /// Scores the compressed CPU engine under `codec` on `circuit`.
    fn score(circuit: &Circuit, codec: CodecSpec) -> QualityReport {
        let cfg = testkit::cfg(3, codec);
        let store = testkit::zero_store(circuit.n_qubits(), 3, &cfg);
        cpu::run(&store, circuit, &cfg, Granularity::Staged).unwrap();
        compare_to_dense(&run_dense(circuit, 0), &store.to_dense().unwrap())
    }

    #[test]
    fn dense_backend_is_exact() {
        let c = library::qft(6);
        let state = mq_statevec::run_circuit(&c, &mq_statevec::CpuConfig::default());
        let r = compare_to_dense(&run_dense(&c, 0), state.amplitudes());
        assert!(r.fidelity > 1.0 - 1e-12);
        assert!(r.max_amp_err < 1e-12);
        assert!((r.norm - 1.0).abs() < 1e-12);
        assert!(r.total_variation < 1e-12);
    }

    #[test]
    fn tight_bound_keeps_fidelity_near_one() {
        let r = score(&library::qft(7), CodecSpec::Sz { eb: 1e-12 });
        assert!(r.fidelity > 1.0 - 1e-8, "fidelity {}", r.fidelity);
    }

    #[test]
    fn loose_bound_degrades_fidelity_monotonically() {
        let c = library::hardware_efficient_ansatz(7, 2, 11);
        let tight = score(&c, CodecSpec::Sz { eb: 1e-12 });
        let loose = score(&c, CodecSpec::Sz { eb: 1e-4 });
        assert!(tight.fidelity >= loose.fidelity);
        assert!(tight.max_amp_err <= loose.max_amp_err);
    }

    #[test]
    fn lossless_codec_is_exact_through_the_engine() {
        let r = score(&library::grover(6, 5, 2), CodecSpec::Fpc);
        assert!(r.max_amp_err < 1e-12);
    }
}
