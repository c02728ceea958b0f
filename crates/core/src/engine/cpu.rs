//! The compressed CPU engine.
//!
//! Executes a circuit directly against any [`ChunkStore`] stack:
//! for every stage of the offline plan, every chunk group is decompressed
//! into a working buffer, all of the stage's gates are applied (specialized
//! to the group), and the chunks are recompressed — the "idle core" loop of
//! paper Fig. 2, step 5. Groups run one after another, and `cfg.workers`
//! members of the worker team ([`mq_num::parallel`]) work inside each: all
//! decompress their share of the group's chunks, all sweep their share of
//! the buffer, all recompress. So one group buffer serves the whole run,
//! whatever the worker count. A group that decompresses to all zeros ends
//! there: nothing to apply, nothing to write back (see
//! [`exec`](super::exec) on zero groups).
//!
//! The streaming skeleton (validation, plan, cache, ordering, accounting,
//! flush, report) lives in [`exec::run_with_executor`](super::exec); this
//! module contributes only the [`CpuWorkerExecutor`] compute path.

use crate::config::MemQSimConfig;
use crate::engine::exec::{
    process_groups_on_cpu, run_with_executor, ApplyCounters, ChunkExecutor, ExecContext,
    ExecutorStats, GroupWork,
};
use crate::engine::{EngineError, Granularity, RunReport};
use crate::store::ChunkStore;
use mq_circuit::Circuit;
use mq_num::Complex64;
use std::sync::Arc;

pub use crate::engine::exec::build_plan;

const AMP_BYTES: usize = std::mem::size_of::<Complex64>();

/// [`ChunkExecutor`] that processes every chunk group on the CPU: it
/// collects a stage's groups and runs them at the stage barrier, one at a
/// time, `cfg.workers` members of the worker team inside each.
#[derive(Default)]
pub struct CpuWorkerExecutor {
    counters: ApplyCounters,
    groups: usize,
    peak_buffer_bytes: usize,
    /// The open stage's groups, buffered until the stage barrier.
    pending: Vec<Vec<usize>>,
    /// The one group buffer, reused across groups and stages.
    buffer: Vec<Complex64>,
}

impl CpuWorkerExecutor {
    /// Creates a fresh executor (one per run).
    pub fn new() -> CpuWorkerExecutor {
        CpuWorkerExecutor::default()
    }
}

impl ChunkExecutor for CpuWorkerExecutor {
    fn name(&self) -> String {
        "cpu-workers".to_string()
    }

    fn submit(&mut self, _ctx: &ExecContext, group: GroupWork) -> Result<(), EngineError> {
        self.groups += 1;
        self.pending.push(group.chunks);
        Ok(())
    }

    fn end_stage(&mut self, ctx: &ExecContext, index: u32) -> Result<(), EngineError> {
        if !self.pending.is_empty() {
            let group_amps = ctx.stage(index).group_size() * ctx.chunk_amps();
            self.peak_buffer_bytes = self.peak_buffer_bytes.max(group_amps * AMP_BYTES);
        }
        let result =
            process_groups_on_cpu(ctx, index, &self.pending, &self.counters, &mut self.buffer);
        self.pending.clear();
        result
    }

    fn finish(&mut self, _ctx: &ExecContext) -> Result<ExecutorStats, EngineError> {
        Ok(ExecutorStats {
            gates_applied: *self.counters.gates.get_mut(),
            scalars_applied: *self.counters.scalars.get_mut(),
            groups_cpu: self.groups,
            peak_buffer_bytes: self.peak_buffer_bytes,
            ..ExecutorStats::default()
        })
    }
}

/// Runs `circuit` against `store` on CPU workers.
///
/// Geometry mismatches between the store and `cfg`/`circuit` surface as
/// [`EngineError::WidthMismatch`] / [`EngineError::ChunkMismatch`].
pub fn run(
    store: &Arc<dyn ChunkStore>,
    circuit: &Circuit,
    cfg: &MemQSimConfig,
    granularity: Granularity,
) -> Result<RunReport, EngineError> {
    let mut executor = CpuWorkerExecutor::new();
    run_with_executor(store, circuit, cfg, granularity, &mut executor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, run_cpu_and_compare};
    use mq_circuit::library;
    use mq_circuit::unitary::run_dense;
    use mq_compress::CodecSpec;
    use mq_num::metrics::{fidelity, max_amp_err};
    use mq_telemetry::Role;

    #[test]
    fn suite_matches_dense_reference_lossless() {
        for c in library::standard_suite(7) {
            for chunk_bits in [3u32, 5, 7] {
                run_cpu_and_compare(&c, &testkit::cfg(chunk_bits, CodecSpec::Fpc), 1e-10);
            }
        }
    }

    #[test]
    fn suite_matches_dense_reference_lossy() {
        for c in library::standard_suite(6) {
            let report =
                run_cpu_and_compare(&c, &testkit::cfg(3, CodecSpec::Sz { eb: 1e-12 }), 1e-6);
            assert!(report.gates_applied > 0);
        }
    }

    #[test]
    fn lossy_fidelity_stays_high() {
        let c = library::qft(8);
        let config = testkit::cfg(4, CodecSpec::Sz { eb: 1e-10 });
        let store = testkit::zero_store(8, 4, &config);
        run(&store, &c, &config, Granularity::Staged).unwrap();
        let got = store.to_dense().unwrap();
        let want = run_dense(&c, 0);
        let f = fidelity(&got, &want);
        assert!(f > 0.999999, "fidelity {f}");
    }

    #[test]
    fn multithreaded_run_matches_single_threaded() {
        // Small chunks (decode and encode split across members) and a group
        // as large as the kernels' parallel threshold (the sweep splits too).
        for (n, chunk_bits, depth) in [(8u32, 3u32, 8u32), (15, 13, 2)] {
            let c = library::random_circuit(n, depth, 5);
            for codec in [CodecSpec::Fpc, CodecSpec::Sz { eb: 1e-10 }] {
                let final_state = |workers| {
                    let cfg = MemQSimConfig {
                        workers,
                        ..testkit::cfg(chunk_bits, codec)
                    };
                    let store = testkit::zero_store(n, chunk_bits, &cfg);
                    run(&store, &c, &cfg, Granularity::Staged).unwrap();
                    store.to_dense().unwrap()
                };
                let one = final_state(1);
                for workers in [2, 3, 4] {
                    assert!(
                        final_state(workers) == one,
                        "{workers} workers changed the result ({codec:?}, {n} qubits)"
                    );
                }
            }
        }
    }

    #[test]
    fn per_gate_granularity_same_result_more_visits() {
        let c = library::qft(7);
        let config = testkit::cfg(3, CodecSpec::Fpc);
        let staged_store = testkit::zero_store(7, 3, &config);
        let staged = run(&staged_store, &c, &config, Granularity::Staged).unwrap();
        let pg_store = testkit::zero_store(7, 3, &config);
        let per_gate = run(&pg_store, &c, &config, Granularity::PerGate).unwrap();
        let err = max_amp_err(
            &staged_store.to_dense().unwrap(),
            &pg_store.to_dense().unwrap(),
        );
        assert!(err < 1e-12);
        assert!(
            per_gate.chunk_visits > staged.chunk_visits,
            "per-gate {} vs staged {}",
            per_gate.chunk_visits,
            staged.chunk_visits
        );
        assert_eq!(per_gate.stages, c.len());
    }

    #[test]
    fn grover_finds_marked_state_through_compression() {
        let n = 7;
        let marked = 0b1011010u64;
        let c = library::grover(n, marked, library::optimal_grover_iterations(n));
        let config = testkit::cfg(3, CodecSpec::Sz { eb: 1e-11 });
        let store = testkit::zero_store(n, 3, &config);
        run(&store, &c, &config, Granularity::Staged).unwrap();
        let p = store.probability(marked as usize).unwrap();
        assert!(p > 0.9, "p(marked) = {p}");
    }

    #[test]
    fn norm_is_preserved() {
        let c = library::hardware_efficient_ansatz(8, 2, 3);
        let config = testkit::cfg(4, CodecSpec::Sz { eb: 1e-10 });
        let store = testkit::zero_store(8, 4, &config);
        run(&store, &c, &config, Granularity::Staged).unwrap();
        let n = store.norm().unwrap();
        assert!((n - 1.0).abs() < 1e-5, "norm {n}");
    }

    #[test]
    fn report_accounting_is_consistent() {
        let c = library::ghz(8);
        let config = testkit::cfg(4, CodecSpec::Fpc);
        let store = testkit::zero_store(8, 4, &config);
        let r = run(&store, &c, &config, Granularity::Staged).unwrap();
        assert!(r.stages >= 1);
        assert!(r.chunk_visits >= store.chunk_count());
        assert!(r.peak_compressed_bytes > 0);
        assert!(r.peak_buffer_bytes > 0);
        // The CPU executor routes nothing through a device.
        assert_eq!(r.executor, "cpu-workers");
        assert_eq!(r.groups_device, 0);
        assert!(r.groups_cpu > 0);
        assert_eq!(r.device, mq_device::StreamStats::default());
        assert_eq!(r.pinned_bytes, 0);
        // GHZ has no outside-diagonal gates, so no scalars.
        assert_eq!(r.scalars_applied, 0);
        // Durations are derived from the telemetry record, not separate
        // accumulators, so they agree with it exactly.
        assert!(r.telemetry.balanced());
        // One worker carries each group through its three roles in turn.
        assert!(!r.telemetry.has_role_overlap());
        assert_eq!(r.decompress, r.telemetry.busy(Role::Decompress));
        assert_eq!(r.cpu_apply, r.telemetry.busy(Role::CpuApply));
        assert_eq!(r.compress, r.telemetry.busy(Role::Recompress));
        assert_eq!(
            r.chunk_visits as u64,
            r.telemetry.counter(mq_telemetry::Counter::ChunkVisits)
        );
        assert!(r.telemetry.counter(mq_telemetry::Counter::BytesCompressed) > 0);
    }

    #[test]
    fn corruption_surfaces_as_a_codec_error() {
        use crate::store::CompressedTier;
        let config = testkit::cfg(4, CodecSpec::Fpc);
        let store: Arc<dyn ChunkStore> = Arc::new(CompressedTier::zero_state(
            8,
            4,
            Arc::from(config.codec.build()),
        ));
        store.debug_corrupt_chunk(7);
        let result = run(&store, &library::qft(8), &config, Granularity::Staged);
        assert!(matches!(result, Err(EngineError::Codec(_))), "{result:?}");
    }

    #[test]
    fn rejects_invalid_config() {
        let c = library::ghz(4);
        let mut config = testkit::cfg(2, CodecSpec::Fpc);
        config.workers = 0;
        let store = testkit::zero_store(4, 2, &config);
        assert!(matches!(
            run(&store, &c, &config, Granularity::Staged),
            Err(EngineError::Config(_))
        ));
    }

    #[test]
    fn geometry_mismatch_is_a_typed_error() {
        let config = testkit::cfg(3, CodecSpec::Fpc);
        let store = testkit::zero_store(6, 3, &config);
        assert!(matches!(
            run(&store, &library::ghz(8), &config, Granularity::Staged),
            Err(EngineError::WidthMismatch { .. })
        ));
        let store = testkit::zero_store(8, 5, &config);
        assert!(matches!(
            run(&store, &library::ghz(8), &config, Granularity::Staged),
            Err(EngineError::ChunkMismatch { .. })
        ));
    }

    #[test]
    fn adder_works_chunked() {
        let n_bits = 2;
        let (a, b) = (2u64, 3u64);
        let mut c = library::arithmetic::load_operands(n_bits, a, b);
        c.extend(&library::ripple_carry_adder(n_bits));
        let config = testkit::cfg(2, CodecSpec::ZeroRle);
        let store = testkit::zero_store(c.n_qubits(), 2, &config);
        run(&store, &c, &config, Granularity::Staged).unwrap();
        let dense = store.to_dense().unwrap();
        let hot: Vec<usize> = (0..dense.len())
            .filter(|&i| dense[i].norm() > 0.5)
            .collect();
        assert_eq!(hot.len(), 1);
        assert_eq!(
            library::arithmetic::decode_sum(n_bits, hot[0] as u64),
            a + b
        );
    }
}
