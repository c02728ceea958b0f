//! Integration: the memory claims — peak accounting, compression-ratio
//! behaviour across workload classes, and the qubit-extension mechanism
//! behind the paper's "+5 qubits".

use memqsim_core::{ChunkStore, CompressedTier, Granularity, MemQSimConfig};
use mq_circuit::{library, Circuit};
use mq_compress::CodecSpec;
use std::sync::Arc;

fn run(
    circuit: &Circuit,
    chunk_bits: u32,
    codec: CodecSpec,
) -> (Arc<CompressedTier>, memqsim_core::engine::RunReport) {
    let cfg = MemQSimConfig {
        chunk_bits,
        max_high_qubits: 2,
        codec,
        workers: 1,
        ..Default::default()
    };
    let store = Arc::new(CompressedTier::zero_state(
        circuit.n_qubits(),
        cfg.effective_chunk_bits(circuit.n_qubits()),
        Arc::from(codec.build()),
    ));
    let engine_store: Arc<dyn ChunkStore> = store.clone();
    let report = memqsim_core::engine::cpu::run(&engine_store, circuit, &cfg, Granularity::Staged)
        .expect("run failed");
    (store, report)
}

#[test]
fn structured_states_compress_far_below_dense() {
    let sz = CodecSpec::Sz { eb: 1e-10 };
    for (circuit, min_ratio) in [
        (library::ghz(14), 50.0),
        (library::w_state(14), 40.0),
        (library::bernstein_vazirani(13, 0b1010101), 50.0),
    ] {
        let (store, _) = run(&circuit, 8, sz);
        let ratio = store.current_ratio();
        assert!(
            ratio > min_ratio,
            "{}: ratio {ratio} < {min_ratio}",
            circuit.name()
        );
    }
}

#[test]
fn random_states_do_not_compress() {
    let (store, _) = run(
        &library::random_circuit(12, 10, 3),
        6,
        CodecSpec::Sz { eb: 1e-10 },
    );
    let ratio = store.current_ratio();
    assert!(ratio < 2.0, "Porter–Thomas state compressed {ratio}x?!");
}

#[test]
fn peak_tracks_the_worst_moment_not_the_end() {
    // A circuit that inflates mid-run (uniform superposition) then returns
    // to a basis state: the peak must exceed the final footprint. The CX
    // ladder across the chunk boundary (and its inverse) commutes with
    // neither H layer, so the always-on reorder pass cannot pair the H's up
    // and cancel the inflation inside one stage.
    let n = 12u32;
    let mut circuit = Circuit::named(n, "inflate-deflate");
    for q in 0..n {
        circuit.h(q);
    }
    for q in 0..n - 1 {
        circuit.cx(q, q + 1);
    }
    for q in (0..n - 1).rev() {
        circuit.cx(q, q + 1);
    }
    for q in 0..n {
        circuit.h(q);
    }
    let (store, report) = run(&circuit, 6, CodecSpec::Sz { eb: 1e-10 });
    assert!(
        report.peak_resident_bytes > store.state_bytes(),
        "peak {} vs final {}",
        report.peak_resident_bytes,
        store.state_bytes()
    );
}

#[test]
fn tighter_bounds_cost_more_resident_bytes() {
    let circuit = library::qft(12);
    let (loose, _) = run(&circuit, 6, CodecSpec::Sz { eb: 1e-4 });
    let (tight, _) = run(&circuit, 6, CodecSpec::Sz { eb: 1e-12 });
    assert!(loose.state_bytes() < tight.state_bytes());
}

#[test]
fn qubit_extension_mechanism_ghz() {
    // The C3 experiment in miniature: at a budget that caps dense
    // simulation at 10 qubits, compressed GHZ fits with >= 5 extra qubits.
    // At this miniature scale the per-chunk container floor (~33 bytes of
    // SZ header/table per chunk) is what finally exhausts the budget — the
    // paper's "excessively fine granularity lowers the ratio" trade-off in
    // action. The full-scale version of this experiment is the
    // `qubit_extension` harness binary.
    let budget = (1usize << 10) * 16; // dense limit: 10 qubits
    let codec = CodecSpec::Sz { eb: 1e-10 };
    let mut max_fitting = 0u32;
    for n in 10..=17u32 {
        let (_, report) = run(&library::ghz(n), 6, codec);
        let peak = report.peak_resident_bytes + report.peak_buffer_bytes;
        if peak <= budget {
            max_fitting = n;
        } else {
            break;
        }
    }
    assert!(
        max_fitting >= 14,
        "only reached {max_fitting} qubits in a 10-qubit dense budget"
    );
}

#[test]
fn working_buffer_peak_scales_with_group_size() {
    let circuit = library::qft(12);
    let (_, small_groups) = run(&circuit, 4, CodecSpec::Fpc);
    let (_, large_groups) = run(&circuit, 10, CodecSpec::Fpc);
    assert!(large_groups.peak_buffer_bytes > small_groups.peak_buffer_bytes);
}

/// The CPU engine's memory claim: the members of the worker team share one
/// group buffer, so the working-buffer peak is the largest single group
/// over the plan's stages whatever the worker count — and the worker count
/// moves nothing else: the final state is bit-identical on a lossless codec.
#[test]
fn one_group_buffer_whatever_the_worker_count() {
    let circuit = library::qft(9);
    let run = |workers: usize| {
        let cfg = MemQSimConfig {
            chunk_bits: 3,
            max_high_qubits: 2,
            codec: CodecSpec::Fpc,
            workers,
            ..Default::default()
        };
        let store = memqsim_core::build_store(9, &cfg).expect("store");
        let report = memqsim_core::engine::cpu::run(&store, &circuit, &cfg, Granularity::Staged)
            .expect("run failed");
        let plan = memqsim_core::engine::cpu::build_plan(&circuit, &cfg, Granularity::Staged);
        let largest_group = plan.stages.iter().map(|s| s.group_size()).max().unwrap();
        let want = largest_group * store.chunk_amps() * 16;
        assert_eq!(report.peak_buffer_bytes, want, "workers {workers}");
        store.to_dense().expect("dense")
    };
    let one = run(1);
    for workers in [2, 3, 4] {
        assert!(run(workers) == one, "workers {workers} changed the state");
    }
}

#[test]
fn cumulative_stats_count_every_store() {
    let circuit = library::ghz(10);
    let (store, report) = run(&circuit, 5, CodecSpec::Fpc);
    let stats = store.cumulative_stats();
    // Every group that was written back left one recompress span, and
    // GHZ's plan never remaps, so the spans count the stores: initial fill
    // (32 chunks) + one block per performed store.
    let cfg = MemQSimConfig {
        chunk_bits: 5,
        max_high_qubits: 2,
        ..Default::default()
    };
    let plan = memqsim_core::engine::cpu::build_plan(&circuit, &cfg, Granularity::Staged);
    assert_eq!(report.remap_passes, 0);
    let stores: usize = report
        .telemetry
        .spans()
        .iter()
        .filter(|s| s.role == mq_telemetry::Role::Recompress)
        .map(|s| plan.stages[s.stage as usize].group_size())
        .sum();
    assert_eq!(stats.blocks, 32 + stores);
    // A visited group is written back unless it loaded as all zero, and
    // one that is known to be all zero is not visited at all.
    assert!(stores > 0 && stores < report.chunk_visits);
    assert!(report.chunk_visits_elided > 0);
    assert_eq!(report.planned_visits(), plan.chunk_visits());
}

#[test]
fn corrupted_chunk_is_detected_not_garbage() {
    let circuit = library::ghz(10);
    let (store, _) = run(&circuit, 5, CodecSpec::Sz { eb: 1e-10 });
    // Flip a byte inside one chunk's compressed representation.
    store.debug_corrupt_chunk(3);
    let mut buf = vec![mq_num::Complex64::ZERO; store.chunk_amps()];
    match store.load_chunk(3, &mut buf) {
        Err(mq_compress::CodecError::Corrupt(msg)) => {
            assert!(msg.contains("checksum"), "{msg}");
        }
        other => panic!("corruption not detected: {other:?}"),
    }
    // Other chunks stay readable.
    store
        .load_chunk(0, &mut buf)
        .expect("untouched chunk must load");
    // Whole-state reads also surface the error.
    assert!(store.to_dense().is_err());
}

#[test]
fn engine_surfaces_corruption_as_engine_error() {
    use memqsim_core::EngineError;
    let cfg = MemQSimConfig {
        chunk_bits: 4,
        max_high_qubits: 2,
        codec: CodecSpec::Fpc,
        workers: 1,
        ..Default::default()
    };
    let store = Arc::new(CompressedTier::zero_state(
        8,
        4,
        Arc::from(cfg.codec.build()),
    ));
    store.debug_corrupt_chunk(7);
    let engine_store: Arc<dyn ChunkStore> = store;
    let result =
        memqsim_core::engine::cpu::run(&engine_store, &library::qft(8), &cfg, Granularity::Staged);
    assert!(matches!(result, Err(EngineError::Codec(_))), "{result:?}");
}

#[test]
fn adaptive_codec_runs_the_engine_and_beats_fixed_rle_on_mixed_states() {
    use mq_compress::{AutoCodec, Codec, Precision};
    // Run a circuit whose state is sparse early and dense late.
    let circuit = library::qft(10);
    let cfg = MemQSimConfig {
        chunk_bits: 5,
        max_high_qubits: 2,
        codec: CodecSpec::Fpc, // placeholder; store below uses the auto codec
        workers: 1,
        ..Default::default()
    };
    let adaptive: Arc<dyn Codec> = Arc::new(AutoCodec::new(Some(1e-11), Precision::F64));
    let store: Arc<dyn ChunkStore> = Arc::new(CompressedTier::zero_state(10, 5, adaptive));
    memqsim_core::engine::cpu::run(&store, &circuit, &cfg, Granularity::Staged).unwrap();
    let got = store.to_dense().unwrap();
    let want = mq_circuit::unitary::run_dense(&circuit, 0);
    assert!(mq_num::metrics::max_amp_err(&got, &want) < 1e-6);
}

/// Every place a stored payload is verified, one row each: a corrupted
/// chunk comes back as a typed checksum error from the tier itself and from
/// a whole engine run over it — never a panic, never decoded garbage.
#[test]
fn every_verifying_load_path_reports_corruption_as_a_checksum_error() {
    use memqsim_core::{EngineError, SpillStore};
    use mq_compress::{Codec, CodecError};
    use mq_num::Complex64;

    fn load(store: &dyn ChunkStore, i: usize) -> Result<(), CodecError> {
        let mut buf = vec![Complex64::ZERO; store.chunk_amps()];
        store.load_chunk(i, &mut buf)
    }
    fn payload(store: &dyn ChunkStore, i: usize) -> Result<(), CodecError> {
        store.load_chunk_payload(i).map(|p| assert!(p.is_some()))
    }
    fn assert_checksum_error(what: &str, result: Result<(), CodecError>) {
        match result {
            Err(CodecError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{what}: {msg}"),
            other => panic!("{what}: corruption not detected: {other:?}"),
        }
    }
    let codec = || -> Arc<dyn Codec> { Arc::from(CodecSpec::Fpc.build()) };
    let compressed =
        || -> Arc<dyn ChunkStore> { Arc::new(CompressedTier::zero_state(8, 4, codec())) };
    type Access = fn(&dyn ChunkStore, usize) -> Result<(), CodecError>;
    let rows: Vec<(&str, Arc<dyn ChunkStore>, Access)> = vec![
        ("CompressedTier::load_chunk", compressed(), load),
        ("CompressedTier::load_chunk_payload", compressed(), payload),
        (
            "SpillStore, slot in memory",
            Arc::new(SpillStore::zero_state(8, 4, codec(), 1 << 20).unwrap()),
            load,
        ),
        (
            "SpillStore, slot on disk",
            Arc::new(SpillStore::zero_state(8, 4, codec(), 0).unwrap()),
            load,
        ),
    ];
    let cfg = MemQSimConfig {
        chunk_bits: 4,
        max_high_qubits: 2,
        codec: CodecSpec::Fpc,
        workers: 1,
        ..Default::default()
    };
    for (what, store, access) in rows {
        store.debug_corrupt_chunk(6);
        assert_checksum_error(what, access(&*store, 6));
        access(&*store, 5).unwrap_or_else(|e| panic!("{what}: untouched chunk: {e}"));

        let run =
            memqsim_core::engine::cpu::run(&store, &library::qft(8), &cfg, Granularity::Staged);
        match run {
            Err(EngineError::Codec(e)) => assert_checksum_error(what, Err(e)),
            other => panic!("{what}: engine run over a corrupt chunk: {other:?}"),
        }
    }
}
