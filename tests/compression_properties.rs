//! Property-based integration tests: codec guarantees and chunked-engine
//! equivalence over randomized inputs.

use memqsim_core::{ChunkStore, CompressedTier, Granularity, MemQSimConfig};
use mq_circuit::unitary::run_dense;
use mq_circuit::{Circuit, Gate};
use mq_compress::{Codec, CodecSpec};
use mq_num::metrics::max_amp_err;
use mq_num::Complex64;
use proptest::prelude::*;
use std::sync::Arc;

// --- codec properties ---------------------------------------------------------

fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => -1.0f64..1.0,
        1 => -1e12f64..1e12,
        1 => Just(0.0f64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lossless_codecs_are_bit_exact(data in prop::collection::vec(finite_f64(), 0..512)) {
        for spec in [CodecSpec::Null, CodecSpec::ZeroRle, CodecSpec::Fpc, CodecSpec::ShuffleLzss] {
            let codec = spec.build();
            let bytes = codec.compress(&data);
            let mut out = vec![0.0f64; data.len()];
            codec.decompress(&bytes, &mut out).unwrap();
            for (a, b) in data.iter().zip(&out) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn sz_respects_its_bound_on_arbitrary_data(
        data in prop::collection::vec(finite_f64(), 1..512),
        eb_exp in -12i32..-2,
    ) {
        let eb = 10f64.powi(eb_exp);
        let codec = mq_compress::SzCodec::new(eb);
        let bytes = codec.compress(&data);
        let mut out = vec![0.0f64; data.len()];
        codec.decompress(&bytes, &mut out).unwrap();
        for (a, b) in data.iter().zip(&out) {
            prop_assert!((a - b).abs() <= eb, "|{} - {}| > {}", a, b, eb);
        }
    }

    #[test]
    fn store_round_trips_arbitrary_states(
        reim in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 64..=64),
        chunk_bits in 1u32..=6,
    ) {
        let amps: Vec<Complex64> = reim.iter().map(|&(r, i)| Complex64::new(r, i)).collect();
        let store = CompressedTier::from_amplitudes(
            &amps,
            chunk_bits,
            Arc::from(CodecSpec::Fpc.build()),
            None,
        )
        .unwrap();
        let back = store.to_dense().unwrap();
        prop_assert_eq!(amps, back);
    }
}

// --- randomized circuit equivalence -----------------------------------------

/// Strategy: a random gate over `n` qubits, weighted toward the tricky
/// cases (cross-chunk targets, diagonal gates, multi-controls).
fn arb_gate(n: u32) -> impl Strategy<Value = Gate> {
    let q = 0..n;
    prop_oneof![
        q.clone().prop_map(Gate::H),
        q.clone().prop_map(Gate::X),
        q.clone().prop_map(Gate::T),
        (q.clone(), -3.0f64..3.0).prop_map(|(q, t)| Gate::Rx(q, t)),
        (q.clone(), -3.0f64..3.0).prop_map(|(q, t)| Gate::Rz(q, t)),
        (0..n, 0..n).prop_filter_map("distinct", move |(a, b)| (a != b).then_some(Gate::Cx(a, b))),
        (0..n, 0..n, -3.0f64..3.0).prop_filter_map("distinct", move |(a, b, l)| (a != b)
            .then_some(Gate::Cp(a, b, l))),
        (0..n, 0..n).prop_filter_map("distinct", move |(a, b)| (a != b)
            .then_some(Gate::Swap(a, b))),
        (0..n, 0..n, -3.0f64..3.0).prop_filter_map("distinct", move |(a, b, t)| (a != b)
            .then_some(Gate::Rzz(a, b, t))),
        (0..n, 0..n, 0..n).prop_filter_map("distinct", move |(a, b, t)| {
            (a != b && a != t && b != t).then(|| Gate::ccx(a, b, t))
        }),
        (0..n, 0..n, 0..n).prop_filter_map("distinct", move |(a, b, t)| {
            (a != b && a != t && b != t).then(|| Gate::mcz(&[a, b], t))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chunked_engine_equals_oracle_on_random_circuits(
        gates in prop::collection::vec(arb_gate(6), 1..24),
        chunk_bits in 1u32..=6,
    ) {
        let mut circuit = Circuit::new(6);
        for g in gates {
            circuit.push(g);
        }
        let cfg = MemQSimConfig {
            chunk_bits,
            max_high_qubits: 2,
            codec: CodecSpec::Fpc,
            workers: 1,
            ..Default::default()
        };
        let store: Arc<dyn ChunkStore> =
            Arc::new(CompressedTier::zero_state(6, chunk_bits.min(6), Arc::from(cfg.codec.build())));
        memqsim_core::engine::cpu::run(&store, &circuit, &cfg, Granularity::Staged).unwrap();
        let got = store.to_dense().unwrap();
        let want = run_dense(&circuit, 0);
        let err = max_amp_err(&got, &want);
        prop_assert!(err < 1e-10, "err = {} at chunk_bits {}", err, chunk_bits);
    }

    #[test]
    fn staged_and_per_gate_agree_on_random_circuits(
        gates in prop::collection::vec(arb_gate(5), 1..16),
    ) {
        let mut circuit = Circuit::new(5);
        for g in gates {
            circuit.push(g);
        }
        let cfg = MemQSimConfig {
            chunk_bits: 2,
            max_high_qubits: 2,
            codec: CodecSpec::Fpc,
            workers: 1,
            ..Default::default()
        };
        let a: Arc<dyn ChunkStore> =
            Arc::new(CompressedTier::zero_state(5, 2, Arc::from(cfg.codec.build())));
        memqsim_core::engine::cpu::run(&a, &circuit, &cfg, Granularity::Staged).unwrap();
        let b: Arc<dyn ChunkStore> =
            Arc::new(CompressedTier::zero_state(5, 2, Arc::from(cfg.codec.build())));
        memqsim_core::engine::cpu::run(&b, &circuit, &cfg, Granularity::PerGate).unwrap();
        let err = max_amp_err(&a.to_dense().unwrap(), &b.to_dense().unwrap());
        prop_assert!(err < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reorder_pass_preserves_random_circuits_through_the_engine(
        gates in prop::collection::vec(arb_gate(6), 1..24),
        chunk_bits in 1u32..=5,
    ) {
        let mut circuit = Circuit::new(6);
        for g in gates {
            circuit.push(g);
        }
        let want = run_dense(&circuit, 0);
        // The scheduler's gate order standalone preserves the unitary...
        let pcfg = mq_circuit::partition::PartitionConfig { chunk_bits, max_high_qubits: 2 };
        let reordered = mq_circuit::schedule::schedule(&circuit, &pcfg).linearized(&circuit);
        prop_assert!(max_amp_err(&run_dense(&reordered, 0), &want) < 1e-10);
        // ...and the engine, which always runs that order, matches the oracle.
        let cfg = MemQSimConfig {
            chunk_bits,
            max_high_qubits: 2,
            codec: CodecSpec::Fpc,
            workers: 1,
            ..Default::default()
        };
        let store: Arc<dyn ChunkStore> =
            Arc::new(CompressedTier::zero_state(6, chunk_bits.min(6), Arc::from(cfg.codec.build())));
        memqsim_core::engine::cpu::run(&store, &circuit, &cfg, Granularity::Staged).unwrap();
        let err = max_amp_err(&store.to_dense().unwrap(), &want);
        prop_assert!(err < 1e-10, "reordered engine drifted by {}", err);
    }
}
