//! Integration: the hot-chunk residency cache. Cached runs must be
//! observationally identical to uncached runs while eliminating codec
//! traffic; corruption detection must still fire on every real decode; and
//! measurement must see dirty cached writes without an explicit flush.

use memqsim_core::{
    build_store, engine::cpu, measure, ChunkStore, CompressedTier, Counter, Granularity,
    MemQSimConfig, ResidencyCache, RunReport,
};
use mq_circuit::unitary::run_dense;
use mq_circuit::{library, Circuit, Gate};
use mq_compress::{CodecError, CodecSpec};
use mq_num::metrics::max_amp_err;
use mq_num::Complex64;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn cached_cfg(chunk_bits: u32, cache_bytes: usize) -> MemQSimConfig {
    MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec: CodecSpec::Fpc,
        workers: 1,
        cache_bytes,
        ..Default::default()
    }
}

fn run_cpu(circuit: &Circuit, cfg: &MemQSimConfig) -> (Arc<dyn ChunkStore>, RunReport) {
    let store = build_store(circuit.n_qubits(), cfg).expect("store construction failed");
    let report = cpu::run(&store, circuit, cfg, Granularity::Staged).expect("engine run failed");
    (store, report)
}

// --- acceptance: codec-traffic elimination under a memory budget ------------

#[test]
fn acceptance_cached_grover_halves_codec_traffic_within_budget() {
    // Repeated-stage workload: Grover with 6 iterations over 2^5 = 32 chunks
    // (>= 16), cache sized for half the working set (dense state + one group
    // staging buffer).
    let n = 8u32;
    let chunk_bits = 3u32;
    let circuit = library::grover(n, 0b0110_1001, 6);
    let state_bytes = (1usize << n) * 16;
    let group_bytes = (1usize << (chunk_bits + 2)) * 16;
    let cache_bytes = (state_bytes + group_bytes) / 2;

    let (_, uncached) = run_cpu(&circuit, &cached_cfg(chunk_bits, 0));
    let (store, cached) = run_cpu(&circuit, &cached_cfg(chunk_bits, cache_bytes));

    // Backend agreement with the dense reference (Fpc is lossless).
    let err = max_amp_err(&store.to_dense().unwrap(), &run_dense(&circuit, 0));
    assert!(err < 1e-10, "cached run drifted from dense oracle: {err}");

    // Every chunk visit is classified as exactly one of hit/miss.
    let hits = cached.telemetry.counter(Counter::CacheHits);
    let misses = cached.telemetry.counter(Counter::CacheMisses);
    assert_eq!(
        hits + misses,
        cached.telemetry.counter(Counter::ChunkVisits),
        "hits {hits} + misses {misses} != visits"
    );
    assert!(hits > 0, "no cache hits on a repeated-stage workload");

    // The headline claim: >= 2x less decompression traffic.
    let cold = uncached.telemetry.counter(Counter::BytesDecompressed);
    let warm = cached.telemetry.counter(Counter::BytesDecompressed);
    assert!(
        warm * 2 <= cold,
        "cache cut decompression only {cold} -> {warm} ({:.2}x, want >= 2x)",
        cold as f64 / warm.max(1) as f64
    );

    // Footprint stays inside the configured budget: compressed peak plus at
    // most the cache byte budget.
    assert!(
        cached.peak_resident_bytes <= cached.peak_compressed_bytes + cache_bytes,
        "resident peak {} exceeds compressed peak {} + cache budget {}",
        cached.peak_resident_bytes,
        cached.peak_compressed_bytes,
        cache_bytes
    );
    // The uncached ablation reports no cache traffic at all.
    assert_eq!(uncached.telemetry.counter(Counter::CacheHits), 0);
    assert_eq!(uncached.telemetry.counter(Counter::Evictions), 0);
}

// --- corruption detection vs cache hits -------------------------------------

#[test]
fn corruption_is_detected_on_miss_and_bypassed_on_hit() {
    let amps: Vec<Complex64> = (0..64)
        .map(|i| Complex64::new(0.1 * i as f64, -0.05 * i as f64))
        .collect();
    let inner: Arc<dyn ChunkStore> = Arc::new(CompressedTier::from_amplitudes(
        &amps,
        3,
        Arc::from(CodecSpec::Fpc.build()),
    ));
    // Cache sized for 4 of the 8 chunks, layered explicitly over the codec tier.
    let store = ResidencyCache::new(inner, 4 * 8 * 16);

    // A corrupted chunk that is NOT resident fails its checksum at decode.
    let mut buf = vec![Complex64::ZERO; 8];
    store.debug_corrupt_chunk(5);
    match store.load_chunk(5, &mut buf) {
        Err(CodecError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
        other => panic!("corruption not detected: {other:?}"),
    }

    // A resident chunk serves hits from the decoded copy: corrupting the
    // compressed slot underneath is invisible until the entry leaves.
    let mut first = vec![Complex64::ZERO; 8];
    store.load_chunk(0, &mut first).expect("clean load");
    store.debug_corrupt_chunk(0);
    let mut hit = vec![Complex64::ZERO; 8];
    store
        .load_chunk(0, &mut hit)
        .expect("cached hit must bypass the checksum");
    assert_eq!(first, hit);

    // Draining the cache forces the next read back through the decoder,
    // which now sees the corrupt slot.
    store.drain().expect("drain must succeed");
    assert!(matches!(
        store.load_chunk(0, &mut buf),
        Err(CodecError::Corrupt(_))
    ));
}

// --- measurement coherence ---------------------------------------------------

#[test]
fn dirty_cached_writes_are_visible_to_measurement_without_flush() {
    let inner: Arc<dyn ChunkStore> = Arc::new(CompressedTier::zero_state(
        6,
        2,
        Arc::from(CodecSpec::Fpc.build()),
    ));
    let store = ResidencyCache::new(inner.clone(), 4 * 4 * 16);

    // Move all amplitude mass from |000000> to |000001> through the cache:
    // the compressed slot still holds the old chunk until eviction/flush.
    let mut chunk = vec![Complex64::ZERO; 4];
    chunk[1] = Complex64::new(1.0, 0.0);
    store.store_chunk(0, &chunk).expect("store through cache");

    assert!((store.probability(1).unwrap() - 1.0).abs() < 1e-12);
    assert!(store.probability(0).unwrap() < 1e-12);
    assert!((store.norm().unwrap() - 1.0).abs() < 1e-12);

    // After an explicit flush the compressed tier underneath agrees even
    // when read directly, bypassing the cache.
    store.flush().expect("flush must succeed");
    assert!((inner.probability(1).unwrap() - 1.0).abs() < 1e-12);
}

#[test]
fn sampling_a_cached_run_matches_the_uncached_run_exactly() {
    let circuit = library::w_state(8);
    let (plain, _) = run_cpu(&circuit, &cached_cfg(3, 0));
    let (cached, _) = run_cpu(&circuit, &cached_cfg(3, 10 * 8 * 16));
    // Lossless codec + identical seed: the sampled counts must be identical.
    let a = measure::sample_counts(&plain, 2000, &mut StdRng::seed_from_u64(11)).unwrap();
    let b = measure::sample_counts(&cached, 2000, &mut StdRng::seed_from_u64(11)).unwrap();
    assert_eq!(a, b);
}

// --- property: cached == uncached across random circuits and tiny budgets ---

fn arb_gate(n: u32) -> impl Strategy<Value = Gate> {
    let q = 0..n;
    prop_oneof![
        q.clone().prop_map(Gate::H),
        q.clone().prop_map(Gate::X),
        q.clone().prop_map(Gate::T),
        (q.clone(), -3.0f64..3.0).prop_map(|(q, t)| Gate::Rx(q, t)),
        (q, -3.0f64..3.0).prop_map(|(q, t)| Gate::Rz(q, t)),
        (0..n, 0..n).prop_filter_map("distinct", move |(a, b)| (a != b).then_some(Gate::Cx(a, b))),
        (0..n, 0..n, -3.0f64..3.0).prop_filter_map("distinct", move |(a, b, l)| (a != b)
            .then_some(Gate::Cp(a, b, l))),
        (0..n, 0..n).prop_filter_map("distinct", move |(a, b)| (a != b)
            .then_some(Gate::Swap(a, b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn cached_engine_matches_uncached_on_random_circuits(
        gates in prop::collection::vec(arb_gate(6), 1..20),
        chunk_bits in 1u32..=4,
        cache_entries in 1usize..=5,
    ) {
        let mut circuit = Circuit::new(6);
        for g in gates {
            circuit.push(g);
        }
        let cfg = cached_cfg(chunk_bits, cache_entries * (1usize << chunk_bits) * 16);
        let (plain, _) = run_cpu(&circuit, &cached_cfg(chunk_bits, 0));
        let (cached, report) = run_cpu(&circuit, &cfg);
        let err = max_amp_err(&plain.to_dense().unwrap(), &cached.to_dense().unwrap());
        prop_assert!(err < 1e-12, "cache changed the result by {}", err);
        // The hit/miss accounting identity holds on every run shape.
        let hits = report.telemetry.counter(Counter::CacheHits);
        let misses = report.telemetry.counter(Counter::CacheMisses);
        prop_assert_eq!(hits + misses, report.telemetry.counter(Counter::ChunkVisits));
        // Budget invariant under heavy eviction pressure.
        prop_assert!(
            report.peak_resident_bytes <= report.peak_compressed_bytes + cfg.cache_bytes
        );
    }
}
