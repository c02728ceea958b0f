//! Acceptance: the disk-spill tier completes circuits whose decompressed
//! working set does not fit in the configured resident budget — the layered
//! realization of the paper's "simulate past the memory limit" direction —
//! while keeping the store's resident bytes inside the budget throughout.

use memqsim_core::engine::{cpu, Granularity};
use memqsim_core::{build_store, ChunkStore, MemQSimConfig, StoreKind};
use mq_circuit::library;
use mq_circuit::unitary::run_dense;
use mq_compress::CodecSpec;
use mq_num::metrics::max_amp_err;

fn spill_cfg(chunk_bits: u32, resident_budget: usize) -> MemQSimConfig {
    MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec: CodecSpec::Fpc,
        workers: 1,
        store_kind: StoreKind::Spill { resident_budget },
        ..Default::default()
    }
}

#[test]
fn acceptance_spill_run_exceeding_budget_completes_under_it() {
    // A Porter–Thomas-like random state is incompressible: with Fpc the
    // stored chunks weigh about as much as the 2^12 * 16 B = 64 KiB dense
    // state. An 8 KiB resident budget therefore cannot hold the working set
    // — the run only completes if chunks actually cycle through disk.
    let n = 12u32;
    let budget = 8 << 10;
    let dense_bytes = (1usize << n) * 16;
    assert!(
        dense_bytes > 4 * budget,
        "test premise: working set >> budget"
    );

    let circuit = library::random_circuit(n, 6, 42);
    let cfg = spill_cfg(6, budget);
    let store = build_store(n, &cfg).expect("store construction failed");
    let report = cpu::run(&store, &circuit, &cfg, Granularity::Staged).expect("spill run failed");

    // The store never held more than the budget in memory...
    assert!(
        store.peak_resident_bytes() <= budget,
        "peak resident {} exceeds budget {}",
        store.peak_resident_bytes(),
        budget
    );
    assert_eq!(report.peak_resident_bytes, store.peak_resident_bytes());
    // ...which is only possible because chunks went to disk and came back.
    let counters = store.counters();
    assert!(counters.spill_bytes_written > 0, "nothing was ever spilled");
    assert!(
        counters.spill_bytes_read > 0,
        "spilled chunks never reloaded"
    );

    // And the answer is still exact (Fpc is lossless).
    let got = store.to_dense().expect("store readable after spill run");
    let want = run_dense(&circuit, 0);
    let err = max_amp_err(&got, &want);
    assert!(err < 1e-10, "spill run drifted from dense oracle: {err}");
}

#[test]
fn spill_store_round_trips_through_the_facade() {
    // The same store kind selected through the public builder, end to end.
    let n = 10u32;
    let cfg = MemQSimConfig::builder()
        .chunk_bits(5)
        .codec(CodecSpec::Sz { eb: 1e-10 })
        .store_kind(StoreKind::Spill {
            resident_budget: 2 << 10,
        })
        .build()
        .expect("valid config");
    let sim = memqsim_core::MemQSim::new(cfg);
    let outcome = sim.simulate(&library::ghz(n)).expect("simulation failed");
    assert!((outcome.probability(0).expect("readable") - 0.5).abs() < 1e-6);
    assert!((outcome.probability((1 << n) - 1).expect("readable") - 0.5).abs() < 1e-6);
    assert!(outcome.store.peak_resident_bytes() <= 2 << 10);
}
