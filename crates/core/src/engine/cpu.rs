//! The compressed CPU engine.
//!
//! Executes a circuit directly against any [`ChunkStore`] stack:
//! for every stage of the offline plan, every chunk group is decompressed
//! into a working buffer, all of the stage's gates are applied (specialized
//! to the group), and the chunks are recompressed — the "idle core" loop of
//! paper Fig. 2, step 5.
//!
//! Two shapes, one executor:
//!
//! * `pipeline_depth == 1` (default) — the serial chunk loop: groups of a
//!   stage are distributed over `cfg.workers` flat workers, each handling a
//!   group's decompress → apply → recompress back to back.
//! * `pipeline_depth > 1` — the paper's overlapped chunk loop on the CPU:
//!   three persistent worker pools (decoders → appliers → encoders, sized
//!   by [`WorkerSplit`]) connected by bounded channels, with a recycled
//!   buffer pool capping decompressed groups in flight at
//!   `pipeline_depth`. Group `k+1` decompresses while group `k` applies
//!   and group `k-1` recompresses, so the three telemetry roles genuinely
//!   overlap — `RunTelemetry::has_role_overlap()` measures it.
//!
//! The streaming skeleton (validation, plan, cache, ordering, accounting,
//! flush, report) lives in [`exec::run_with_executor`](super::exec); this
//! module contributes only the [`CpuWorkerExecutor`] compute path.

use crate::config::{MemQSimConfig, WorkerSplit};
use crate::engine::exec::{
    apply_stage_to_group, load_group, process_groups_on_cpu, run_with_executor, store_group,
    ApplyCounters, ChunkExecutor, ExecContext, ExecutorStats, GroupWork, StageWork,
};
use crate::engine::{EngineError, Granularity, RunReport};
use crate::store::ChunkStore;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use mq_circuit::partition::Plan;
use mq_circuit::Circuit;
use mq_num::Complex64;
use mq_telemetry::{Role, Telemetry};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

pub use crate::engine::exec::build_plan;

const AMP_BYTES: usize = std::mem::size_of::<Complex64>();

/// One chunk group moving through the decode → apply → encode pools. The
/// buffer travels with the job and returns to the token pool afterwards,
/// so live decompressed bytes never exceed `pipeline_depth × group_bytes`.
struct PipeJob {
    stage: u32,
    chunks: Vec<usize>,
    buf: Vec<Complex64>,
}

/// The persistent three-pool pipeline (spawned in `prepare`, joined in
/// `finish`). Stage barriers are enforced by draining the `done` channel
/// until every submitted group of the stage has reported back.
struct Pipeline {
    /// `None` after shutdown; dropping it disconnects the decoder pool.
    decode_tx: Option<Sender<PipeJob>>,
    /// Recycled group buffers; capacity (= prefill) is the in-flight budget.
    token_rx: Receiver<Vec<Complex64>>,
    /// One completion message per submitted group, errors included.
    done_rx: Receiver<Result<(), EngineError>>,
    handles: Vec<JoinHandle<()>>,
    in_flight: usize,
    first_error: Option<EngineError>,
    /// Largest group (amplitudes) ever submitted — sizes the honest
    /// `peak_buffer_bytes = depth × max_group_amps × 16` claim.
    max_group_amps: usize,
    depth: usize,
}

fn worker_lost() -> EngineError {
    EngineError::Config("cpu pipeline worker exited unexpectedly".into())
}

impl Pipeline {
    fn spawn(ctx: &ExecContext, counters: &Arc<ApplyCounters>) -> Pipeline {
        let depth = ctx.cfg.pipeline_depth;
        let split = ctx
            .cfg
            .worker_split
            .unwrap_or_else(|| WorkerSplit::auto(ctx.cfg.workers));

        let (decode_tx, decode_rx) = bounded::<PipeJob>(depth);
        let (apply_tx, apply_rx) = bounded::<PipeJob>(depth);
        let (encode_tx, encode_rx) = bounded::<PipeJob>(depth);
        let (token_tx, token_rx) = bounded::<Vec<Complex64>>(depth);
        let (done_tx, done_rx) = unbounded::<Result<(), EngineError>>();
        for _ in 0..depth {
            token_tx.send(Vec::new()).expect("token pool has capacity");
        }

        let mut handles = Vec::with_capacity(split.total());
        for _ in 0..split.decode {
            handles.push(spawn_decoder(
                Arc::clone(&ctx.store),
                ctx.telemetry.clone(),
                decode_rx.clone(),
                apply_tx.clone(),
                done_tx.clone(),
                token_tx.clone(),
            ));
        }
        for _ in 0..split.apply {
            handles.push(spawn_applier(
                Arc::clone(&ctx.plan),
                Arc::clone(counters),
                ctx.telemetry.clone(),
                apply_rx.clone(),
                encode_tx.clone(),
            ));
        }
        for _ in 0..split.encode {
            handles.push(spawn_encoder(
                Arc::clone(&ctx.store),
                ctx.telemetry.clone(),
                encode_rx.clone(),
                done_tx.clone(),
                token_tx.clone(),
            ));
        }

        Pipeline {
            decode_tx: Some(decode_tx),
            token_rx,
            done_rx,
            handles,
            in_flight: 0,
            first_error: None,
            max_group_amps: 0,
            depth,
        }
    }

    /// Folds completion messages into `in_flight`/`first_error`; blocks
    /// until all in-flight groups completed when `to_zero`, otherwise only
    /// harvests what is already available.
    fn collect_done(&mut self, to_zero: bool) {
        while self.in_flight > 0 {
            let msg = if to_zero {
                match self.done_rx.recv() {
                    Ok(m) => m,
                    Err(_) => {
                        // Workers gone with groups outstanding: a panic
                        // somewhere in the pipeline.
                        self.first_error.get_or_insert_with(worker_lost);
                        self.in_flight = 0;
                        break;
                    }
                }
            } else {
                match self.done_rx.try_recv() {
                    Ok(m) => m,
                    Err(_) => break,
                }
            };
            self.in_flight -= 1;
            if let Err(e) = msg {
                self.first_error.get_or_insert(e);
            }
        }
    }

    /// Submits one group: acquires a recycled buffer (blocking while the
    /// in-flight window is full — the backpressure that bounds memory) and
    /// hands the job to the decoder pool.
    fn submit(
        &mut self,
        stage: u32,
        chunks: Vec<usize>,
        group_amps: usize,
    ) -> Result<(), EngineError> {
        self.collect_done(false);
        if let Some(e) = self.first_error.clone() {
            return Err(e);
        }
        let mut buf = self.token_rx.recv().map_err(|_| worker_lost())?;
        // Recycled buffers are fully overwritten by the decoder; re-zero
        // only on a size change so steady-state submits skip the memset.
        if buf.len() != group_amps {
            buf.clear();
            buf.resize(group_amps, Complex64::ZERO);
        }
        self.max_group_amps = self.max_group_amps.max(group_amps);
        let tx = self.decode_tx.as_ref().expect("pipeline running");
        tx.send(PipeJob { stage, chunks, buf })
            .map_err(|_| worker_lost())?;
        self.in_flight += 1;
        Ok(())
    }

    /// Stage barrier: waits until every submitted group has been encoded
    /// back into the store, surfacing the first error among them.
    fn barrier(&mut self) -> Result<(), EngineError> {
        self.collect_done(true);
        match self.first_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Drains outstanding work, winds the pools down and joins them.
    fn shutdown(&mut self) -> Result<(), EngineError> {
        self.collect_done(true);
        self.decode_tx.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        match self.first_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        // Normal runs shut down in `finish`; this covers executor drops on
        // early driver exits so no detached thread outlives the run.
        let _ = self.shutdown();
    }
}

fn spawn_decoder(
    store: Arc<dyn ChunkStore>,
    telemetry: Telemetry,
    rx: Receiver<PipeJob>,
    apply_tx: Sender<PipeJob>,
    done_tx: Sender<Result<(), EngineError>>,
    token_tx: Sender<Vec<Complex64>>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let chunk_amps = store.chunk_amps();
        while let Ok(mut job) = rx.recv() {
            let result = {
                let _span = telemetry.stage_span(Role::Decompress, job.stage);
                load_group(&*store, &job.chunks, &mut job.buf, chunk_amps)
            };
            match result {
                Ok(()) => {
                    if apply_tx.send(job).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    // The failed group still completes: recycle its buffer
                    // (the pool never shrinks) and report the error.
                    let _ = token_tx.try_send(job.buf);
                    if done_tx.send(Err(e)).is_err() {
                        break;
                    }
                }
            }
        }
    })
}

fn spawn_applier(
    plan: Arc<Plan>,
    counters: Arc<ApplyCounters>,
    telemetry: Telemetry,
    rx: Receiver<PipeJob>,
    encode_tx: Sender<PipeJob>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(mut job) = rx.recv() {
            {
                let _span = telemetry.stage_span(Role::CpuApply, job.stage);
                apply_stage_to_group(
                    &plan.stages[job.stage as usize],
                    plan.chunk_bits,
                    job.chunks[0],
                    &mut job.buf,
                    &counters,
                    &telemetry,
                );
            }
            if encode_tx.send(job).is_err() {
                break;
            }
        }
    })
}

fn spawn_encoder(
    store: Arc<dyn ChunkStore>,
    telemetry: Telemetry,
    rx: Receiver<PipeJob>,
    done_tx: Sender<Result<(), EngineError>>,
    token_tx: Sender<Vec<Complex64>>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let chunk_amps = store.chunk_amps();
        while let Ok(job) = rx.recv() {
            let result = {
                let _span = telemetry.stage_span(Role::Recompress, job.stage);
                store_group(&*store, &job.chunks, &job.buf, chunk_amps)
            };
            let _ = token_tx.try_send(job.buf);
            if done_tx.send(result).is_err() {
                break;
            }
        }
    })
}

/// [`ChunkExecutor`] that processes every chunk group on CPU workers:
/// the flat `cfg.workers` group-parallel loop at `pipeline_depth == 1`, or
/// the overlapped decode → apply → encode pool pipeline above it.
#[derive(Default)]
pub struct CpuWorkerExecutor {
    counters: Arc<ApplyCounters>,
    groups: usize,
    peak_buffer_bytes: usize,
    /// Depth-1 path: groups buffered until the stage barrier.
    pending: Vec<Vec<usize>>,
    /// Depth > 1 path: the persistent pool pipeline.
    pipeline: Option<Pipeline>,
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

    fn prepare(&mut self, ctx: &ExecContext) -> Result<(), EngineError> {
        if ctx.cfg.pipeline_depth > 1 {
            self.pipeline = Some(Pipeline::spawn(ctx, &self.counters));
        }
        Ok(())
    }

    fn submit(&mut self, ctx: &ExecContext, group: GroupWork) -> Result<(), EngineError> {
        self.groups += 1;
        match &mut self.pipeline {
            None => {
                self.pending.push(group.chunks);
                Ok(())
            }
            Some(p) => {
                let group_amps = group.chunks.len() * ctx.chunk_amps();
                p.submit(group.stage, group.chunks, group_amps)
            }
        }
    }

    fn end_stage(&mut self, ctx: &ExecContext, index: u32) -> Result<(), EngineError> {
        match &mut self.pipeline {
            None => {
                let work = StageWork {
                    index,
                    stage: ctx.stage(index),
                    groups: std::mem::take(&mut self.pending),
                    shards: Vec::new(),
                    error_allowance: ctx.stage_error_allowance(index),
                };
                let group_amps = work.stage.group_size() * ctx.chunk_amps();
                self.peak_buffer_bytes = self
                    .peak_buffer_bytes
                    .max(ctx.cfg.workers.min(work.groups.len()) * group_amps * AMP_BYTES);
                process_groups_on_cpu(ctx, &work, &work.groups, &self.counters)
            }
            Some(p) => p.barrier(),
        }
    }

    fn finish(&mut self, _ctx: &ExecContext) -> Result<ExecutorStats, EngineError> {
        let mut shutdown_err = None;
        if let Some(mut p) = self.pipeline.take() {
            shutdown_err = p.shutdown().err();
            // The in-flight budget is the real buffer peak: `depth` pooled
            // buffers, each grown to the largest group seen.
            self.peak_buffer_bytes = self
                .peak_buffer_bytes
                .max(p.depth * p.max_group_amps * AMP_BYTES);
        }
        self.pending.clear();
        if let Some(e) = shutdown_err {
            return Err(e);
        }
        Ok(ExecutorStats {
            gates_applied: self.counters.gates.load(Ordering::Relaxed),
            scalars_applied: self.counters.scalars.load(Ordering::Relaxed),
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
    fn pipelined_suite_matches_dense_reference() {
        for c in library::standard_suite(6) {
            let config = MemQSimConfig {
                pipeline_depth: 4,
                workers: 2,
                ..testkit::cfg(3, CodecSpec::Fpc)
            };
            let report = run_cpu_and_compare(&c, &config, 1e-10);
            assert_eq!(report.executor, "cpu-workers", "{}", c.name());
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
        let c = library::random_circuit(8, 8, 5);
        let mk = |workers| MemQSimConfig {
            workers,
            ..testkit::cfg(3, CodecSpec::Fpc)
        };
        let s1 = testkit::zero_store(8, 3, &mk(1));
        run(&s1, &c, &mk(1), Granularity::Staged).unwrap();
        let s4 = testkit::zero_store(8, 3, &mk(4));
        run(&s4, &c, &mk(4), Granularity::Staged).unwrap();
        let err = max_amp_err(&s1.to_dense().unwrap(), &s4.to_dense().unwrap());
        assert!(err < 1e-12, "thread count changed the result: {err}");
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
    fn pipelined_corruption_surfaces_and_joins_cleanly() {
        use crate::store::CompressedTier;
        let config = MemQSimConfig {
            pipeline_depth: 4,
            ..testkit::cfg(4, CodecSpec::Fpc)
        };
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
        let mut config = testkit::cfg(2, CodecSpec::Fpc);
        config.pipeline_depth = 0;
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
