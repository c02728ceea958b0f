//! Criterion bench for the store's hot-chunk residency cache: hit, miss and
//! eviction service times against the raw codec round-trip each one replaces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use memqsim_core::{build_store_from_amplitudes, ChunkStore, MemQSimConfig};
use mq_circuit::library;
use mq_compress::CodecSpec;
use mq_num::Complex64;
use mq_statevec::{run_circuit, CpuConfig};
use std::sync::Arc;

const CHUNK_BITS: u32 = 10;
const ENTRY_BYTES: usize = (1usize << CHUNK_BITS) * 16;

/// A realistic mid-circuit state as the store's contents, behind a stack
/// with `cache_entries` residency-cache slots (0 = bare codec tier).
fn qft_store(cache_entries: usize) -> Arc<dyn ChunkStore> {
    let state = run_circuit(&library::qft(14), &CpuConfig::default());
    let cfg = MemQSimConfig {
        chunk_bits: CHUNK_BITS,
        codec: CodecSpec::Sz { eb: 1e-10 },
        cache_bytes: cache_entries * ENTRY_BYTES,
        ..Default::default()
    };
    build_store_from_amplitudes(state.amplitudes(), &cfg).expect("store construction failed")
}

fn bench_store_cache(c: &mut Criterion) {
    let mut buf = vec![Complex64::ZERO; 1 << CHUNK_BITS];

    let mut group = c.benchmark_group("store_cache");
    group.throughput(Throughput::Bytes(ENTRY_BYTES as u64));
    group.sample_size(20);

    // Baseline: every load decodes, every store encodes.
    let uncached = qft_store(0);
    group.bench_with_input(BenchmarkId::from_parameter("uncached_load"), &(), |b, _| {
        b.iter(|| uncached.load_chunk(0, &mut buf).expect("load"))
    });
    uncached.load_chunk(1, &mut buf).expect("load");
    group.bench_with_input(
        BenchmarkId::from_parameter("uncached_store"),
        &(),
        |b, _| b.iter(|| uncached.store_chunk(1, &buf).expect("store")),
    );

    // Hit: the resident copy is handed back with zero codec work.
    let cached = qft_store(4);
    cached.load_chunk(0, &mut buf).expect("admit");
    group.bench_with_input(BenchmarkId::from_parameter("cached_hit"), &(), |b, _| {
        b.iter(|| cached.load_chunk(0, &mut buf).expect("hit"))
    });

    // Dirty store into a resident entry: defers all recompression.
    group.bench_with_input(BenchmarkId::from_parameter("cached_store"), &(), |b, _| {
        b.iter(|| cached.store_chunk(0, &buf).expect("store"))
    });

    // Miss + clean eviction churn: a 1-entry cache and two alternating
    // chunks, so every load decodes, admits, and drops the previous entry.
    let churn = qft_store(1);
    let mut i = 0usize;
    group.bench_with_input(
        BenchmarkId::from_parameter("miss_with_clean_eviction"),
        &(),
        |b, _| {
            b.iter(|| {
                i ^= 1;
                churn.load_chunk(i, &mut buf).expect("miss")
            })
        },
    );

    // Dirty-eviction churn: alternating stores through the 1-entry cache;
    // every store writes back the previously dirtied chunk.
    let mut j = 0usize;
    group.bench_with_input(
        BenchmarkId::from_parameter("store_with_dirty_eviction"),
        &(),
        |b, _| {
            b.iter(|| {
                j ^= 1;
                churn.store_chunk(j, &buf).expect("store")
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_store_cache);
criterion_main!(benches);
