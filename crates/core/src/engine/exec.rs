//! The unified execution core: one chunk-streaming driver, one executor
//! protocol.
//!
//! Every MEMQSIM engine runs the same skeleton — validate the configuration
//! and store geometry, build the offline plan, attach telemetry and the
//! residency cache, then stream every stage's chunk groups (residency-first
//! when the cache is on) through some compute path, flush, and assemble a
//! report. [`run_with_executor`] owns that skeleton once; the compute path
//! is a [`ChunkExecutor`], the only executor trait there is:
//! [`begin_stage`](ChunkExecutor::begin_stage), one
//! [`submit`](ChunkExecutor::submit) per chunk group, then
//! [`end_stage`](ChunkExecutor::end_stage) as the stage barrier. Both
//! library executors, the harness's wrapper and every test mock implement
//! it directly:
//!
//! * [`CpuWorkerExecutor`](super::cpu::CpuWorkerExecutor) — "idle core"
//!   workers carry each group through decompress → apply → recompress
//!   (paper Fig. 2 step 5): one group at a time, every member of the
//!   worker team inside it. It buffers a stage's submissions and runs them
//!   at the barrier;
//! * [`DevicePipelineExecutor`](super::hybrid::DevicePipelineExecutor) —
//!   the three-role decompress / device / recompress pipeline (Fig. 2 steps
//!   1–6), streaming: `submit` stages and issues one group while earlier
//!   ones are still on the device or being recompressed.
//!
//! **Zero groups are never streamed.** Every gate is a linear map, so a
//! chunk group that holds only zeros still holds only zeros after its
//! stage — and early in a structured circuit that is most of the register.
//! For one run the driver wraps the caller's store in a `ZeroTracker`, a
//! forwarding [`ChunkStore`] with one flag per chunk that records whether
//! the last amplitudes read from or written to the chunk were all `±0.0`,
//! and hands that out as [`ExecContext::store`]. The flags change what
//! happens in three places, and nowhere else: the driver does not submit a
//! group whose members are all flagged ([`RunReport::chunk_visits_elided`]
//! counts those visits; stages still open and close), and the CPU group
//! loop and the device pipeline's `submit` drop a group that has just
//! *loaded* as all zero before specializing, applying or storing it — which
//! is what covers stage 0, where nothing is known yet. A flag never stands
//! in for a load: no amplitude is ever served from it, every member of a
//! surviving group is loaded and checksum-verified as before, and the map
//! is dropped with the run. It lives on the engine's side of the
//! [`ChunkStore`] trait, not in the store as a slot state, so that any
//! store stack — including a caller's own wrappers, which forward only the
//! trait's methods — takes the same path.

use crate::config::MemQSimConfig;
use crate::engine::report::RunReport;
use crate::engine::{EngineError, Granularity, StoreTelemetryGuard};
use crate::planner::chunk_groups;
use crate::specialize::{specialize, GroupContext, Specialized};
use crate::store::{ChunkStore, StoreCounters};
use mq_circuit::partition::{partition_per_gate, PartitionConfig, Plan, RemapTransition, Stage};
use mq_circuit::schedule::schedule;
use mq_circuit::Circuit;
use mq_compress::{CodecError, CompressionStats};
use mq_device::StreamStats;
use mq_num::parallel;
use mq_num::Complex64;
use mq_statevec::apply::{apply_all_tiled, SweepOp, DEFAULT_TILE_AMPS, DIAG_MAX_BITS};
use mq_telemetry::{Counter, Role, StageErrorSpend, Telemetry};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Everything the driver hands an executor: the store being simulated, the
/// offline plan, the active configuration and the run's telemetry handle.
///
/// All fields are owned/shared so an executor can clone the context (or
/// individual fields) into worker threads that outlive any single trait
/// call — the streaming protocol keeps a pipeline running across
/// `submit`/`end_stage` boundaries.
#[derive(Clone)]
pub struct ExecContext {
    /// The chunked state the run mutates: the caller's [`ChunkStore`] stack
    /// behind the run's known-zero chunk map (see the module docs), which
    /// forwards every call.
    pub store: Arc<dyn ChunkStore>,
    /// The offline plan (stages, geometry) the driver streams.
    pub plan: Arc<Plan>,
    /// The active engine configuration.
    pub cfg: MemQSimConfig,
    /// The run's shared telemetry handle (already attached to the store).
    pub telemetry: Telemetry,
    /// The known-zero chunk map; `store` is this same object.
    zero: Arc<ZeroTracker>,
}

impl ExecContext {
    /// Whether every chunk of `group` is known to hold only zeros. Asked
    /// right after loading the group it is the post-load skip: a linear map
    /// sends zeros to zeros, so there is nothing to apply or write back.
    pub(crate) fn group_is_zero(&self, group: &[usize]) -> bool {
        self.zero.all_flagged(group)
    }

    /// Amplitudes per chunk.
    pub fn chunk_amps(&self) -> usize {
        self.store.chunk_amps()
    }

    /// The plan stage at `index` (the index every streaming call carries).
    pub fn stage(&self, index: u32) -> &Stage {
        &self.plan.stages[index as usize]
    }

    /// The per-amplitude error allowance stage `index` may spend under the
    /// run's fidelity budget (`None` without one). Executors carrying a
    /// private codec instance apply it via
    /// [`Codec::set_dynamic_bound`](mq_compress::Codec::set_dynamic_bound);
    /// the driver feeds the same value to the store's codec.
    pub fn stage_error_allowance(&self, index: u32) -> Option<f64> {
        stage_error_bounds(&self.cfg, self.plan.n_qubits, self.plan.stages.len())
            .map(|bounds| bounds[index as usize])
    }
}

/// One chunk group of one stage, as handed to
/// [`ChunkExecutor::submit`]. Groups within a stage touch disjoint chunk
/// sets, so an executor may process in-flight groups in any order; the
/// next stage begins only after [`ChunkExecutor::end_stage`].
#[derive(Debug, Clone)]
pub struct GroupWork {
    /// Stage index within the plan (telemetry stage id).
    pub stage: u32,
    /// The group's position in the driver's visit order for this stage.
    pub seq: usize,
    /// The co-resident chunk indices of this group.
    pub chunks: Vec<usize>,
    /// The device index this group is sharded to (always 0 for
    /// single-device configurations; fleets split each stage's groups,
    /// ranked by base chunk, into contiguous per-device ranges).
    pub shard: usize,
}

/// Executor-side accounting folded into the final [`RunReport`].
#[derive(Debug, Clone, Default)]
pub struct ExecutorStats {
    /// Gates applied (after specialization).
    pub gates_applied: usize,
    /// Outside-qubit scalar factors applied (folded into the apply sweep).
    pub scalars_applied: usize,
    /// Groups routed through a device.
    pub groups_device: usize,
    /// Groups handled by CPU workers (the CPU executor only).
    pub groups_cpu: usize,
    /// Peak transient group-buffer bytes.
    pub peak_buffer_bytes: usize,
    /// Host pinned staging bytes held for the run.
    pub pinned_bytes: usize,
    /// Device working-buffer bytes held for the run.
    pub device_buffer_bytes: usize,
    /// Device-side stream accounting. For an N-device fleet this is the
    /// aggregate: `modeled` is the makespan (max over devices), every
    /// other field sums. Zero when no device was involved.
    pub device: StreamStats,
    /// Per-device stream accounting, one entry per fleet device (empty
    /// when no device was involved).
    pub per_device: Vec<StreamStats>,
}

/// A pluggable compute path for the chunk-streaming driver.
///
/// Lifecycle: [`prepare`](Self::prepare) once, then per plan stage
/// [`begin_stage`](Self::begin_stage) → one [`submit`](Self::submit) per
/// chunk group → [`end_stage`](Self::end_stage), then
/// [`finish`](Self::finish) exactly once, *even if a stage failed*, so
/// executors can drain pipelines and release buffers unconditionally.
///
/// `end_stage` is the stage barrier: every submitted group must be fully
/// applied and stored before it returns (a stage may read chunks the
/// previous stage wrote). Between `submit` calls an executor is free to
/// keep groups in flight — that window is what lets a pipelined
/// implementation overlap decompress, apply and recompress of different
/// groups. When a `submit` fails, the driver skips the stage's `end_stage`
/// and goes straight to `finish`, so `finish` must tolerate (and drain) an
/// un-ended stage.
pub trait ChunkExecutor {
    /// Display name, recorded in the report.
    fn name(&self) -> String;

    /// Allocates run-scoped resources (buffers, streams, threads).
    fn prepare(&mut self, _ctx: &ExecContext) -> Result<(), EngineError> {
        Ok(())
    }

    /// Opens stage `index`, which will receive `n_groups` submissions.
    fn begin_stage(
        &mut self,
        _ctx: &ExecContext,
        _index: u32,
        _n_groups: usize,
    ) -> Result<(), EngineError> {
        Ok(())
    }

    /// Accepts one chunk group of the open stage. May block while the
    /// executor's in-flight window is full (backpressure), and may return
    /// an error detected on any *previously* submitted group.
    fn submit(&mut self, ctx: &ExecContext, group: GroupWork) -> Result<(), EngineError>;

    /// Stage barrier: drains every in-flight group of stage `index`,
    /// surfacing the first error any of them hit.
    fn end_stage(&mut self, ctx: &ExecContext, index: u32) -> Result<(), EngineError>;

    /// Executes a layout remap transition. Called only after the last stage
    /// has closed, so the store is coherent. Chunk identities may change
    /// across the call — executors holding chunk-indexed state must
    /// invalidate or re-key it. Returns the chunk visits performed; the
    /// default runs the permutation directly against the store.
    fn remap(
        &mut self,
        ctx: &ExecContext,
        transition: &RemapTransition,
    ) -> Result<usize, EngineError> {
        apply_remap_on_store(ctx, transition)
    }

    /// Drains and releases resources, returning the executor's accounting.
    fn finish(&mut self, _ctx: &ExecContext) -> Result<ExecutorStats, EngineError>;
}

/// Identity constructor, kept only because the frozen
/// `perf_suite/src/main.rs:353` spells its traced executor
/// `SerialAdapter::new(DevicePipelineExecutor::new(&device, true))`: the
/// traced run gets the executor itself, exactly the timed run's path.
/// Deleted when ROADMAP item 3(ii) moves the harness off the name.
#[doc(hidden)]
pub struct SerialAdapter;

impl SerialAdapter {
    /// Returns `inner` unchanged.
    #[allow(clippy::new_ret_no_self)] // the frozen call site spells it `new`
    pub fn new<E>(inner: E) -> E {
        inner
    }
}

/// Builds the plan for `circuit` under `cfg` at the given granularity:
/// staged plans come from the dependency scheduler
/// ([`mq_circuit::schedule`]), per-gate plans take the circuit as written,
/// one gate a stage.
pub fn build_plan(circuit: &Circuit, cfg: &MemQSimConfig, granularity: Granularity) -> Plan {
    let chunk_bits = cfg.effective_chunk_bits(circuit.n_qubits());
    match granularity {
        Granularity::Staged => {
            let cfg = PartitionConfig {
                chunk_bits,
                max_high_qubits: cfg.max_high_qubits,
            };
            schedule(circuit, &cfg).plan
        }
        Granularity::PerGate => partition_per_gate(circuit, chunk_bits),
    }
}

/// Assigns one stage's groups to devices: rank groups by base chunk, then
/// split the ranking into `n_devices` contiguous ranges, so device `d` owns
/// the `d`-th range of the chunk space and the same chunks land on the same
/// device's arena in every stage (the stage's group *bases* shift with its
/// high qubits, but ranking keeps the ranges balanced regardless).
///
/// Groups within a stage touch disjoint chunk sets, so any assignment is
/// bit-exact; this one keeps arena locality and a balanced makespan.
fn assign_shards(n_devices: usize, groups: &[Vec<usize>]) -> Vec<usize> {
    let mut shards = vec![0usize; groups.len()];
    if n_devices > 1 {
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&i| groups[i].first().copied().unwrap_or(0));
        for (rank, &gi) in order.iter().enumerate() {
            shards[gi] = rank * n_devices / groups.len();
        }
    }
    shards
}

/// Executes one remap transition directly against the store, returning the
/// chunk visits it performed. Every transposition exchanges two positions
/// above the chunk boundary, i.e. pairs of whole chunks: the store's
/// [`swap_chunks`](ChunkStore::swap_chunks) fast path moves compressed
/// payloads without a decode (zero visits); a refusing tier falls back to a
/// load/load/store/store round trip (two visits per pair). A transposition
/// naming a position inside the chunk is a hand-built plan's mistake — the
/// scheduler moves those qubits with `Swap` gates inside a stage — and is
/// refused as [`EngineError::Config`].
pub fn apply_remap_on_store(
    ctx: &ExecContext,
    transition: &RemapTransition,
) -> Result<usize, EngineError> {
    let store = &ctx.store;
    let c = store.chunk_bits();
    let chunk_amps = store.chunk_amps();
    // Refuse before anything moves: a half-applied permutation is worse
    // than none.
    if let Some((a, b)) = transition.swaps.iter().find(|(a, b)| a.min(b) < &c) {
        return Err(EngineError::Config(format!(
            "remap transposition ({a}, {b}) names a position below chunk_bits {c}"
        )));
    }
    let mut visits = 0usize;
    let mut buf_a = Vec::new();
    let mut buf_b = Vec::new();
    for &(a, b) in &transition.swaps {
        let (b1, b2) = (1usize << (a - c), 1usize << (b - c));
        for k in 0..store.chunk_count() {
            if k & b1 == 0 || k & b2 != 0 {
                continue; // visit each pair once, from its (1, 0) side
            }
            let j = k ^ b1 ^ b2;
            if !store.swap_chunks(k, j)? {
                buf_a.resize(chunk_amps, Complex64::ZERO);
                buf_b.resize(chunk_amps, Complex64::ZERO);
                store.load_chunk(k, &mut buf_a)?;
                store.load_chunk(j, &mut buf_b)?;
                store.store_chunk(k, &buf_b)?;
                store.store_chunk(j, &buf_a)?;
                visits += 2;
            }
        }
    }
    Ok(visits)
}

/// Whether every amplitude is `+0.0` or `-0.0`. Blocks are OR-folded so an
/// all-zero chunk scans at memory speed, and the first block holding a set
/// bit ends the scan: O(1) on a dense chunk.
fn all_zero(amps: &[Complex64]) -> bool {
    amps.chunks(64).all(|block| {
        let bits = block
            .iter()
            .fold(0u64, |acc, z| acc | z.re.to_bits() | z.im.to_bits());
        bits << 1 == 0 // the sign of zero does not count
    })
}

/// The run's known-zero chunk map: a [`ChunkStore`] middleware the driver
/// wraps around the caller's store for one run and hands out as
/// [`ExecContext::store`], so every executor, mock and remap path keeps it
/// current without knowing it exists.
///
/// Flag `i` set means: the last amplitudes this run read from or wrote to
/// chunk `i` were all `±0.0`, and nothing has touched the chunk since. It
/// is decided by [`all_zero`] over what [`load_chunk`](ChunkStore::load_chunk)
/// returned and what [`store_chunk`](ChunkStore::store_chunk) was given,
/// moves with a successful [`swap_chunks`](ChunkStore::swap_chunks), and is
/// cleared by a payload store (whose content is never seen) and by any
/// failed call. A flag never stands in for a load — nothing is served from
/// it; the driver only uses it to *not visit* a group whose members are all
/// flagged. Flags die with the run.
///
/// Every [`ChunkStore`] method is forwarded by hand: a method added to the
/// trait with a default body must be added here too, or the run would see
/// the default instead of the caller's store.
struct ZeroTracker {
    inner: Arc<dyn ChunkStore>,
    /// Written by the workers of a stage and read by the driver after that
    /// stage's barrier; `SeqCst` so no pairing has to be argued.
    zero: Vec<AtomicBool>,
}

impl ZeroTracker {
    fn new(inner: Arc<dyn ChunkStore>) -> ZeroTracker {
        ZeroTracker {
            zero: (0..inner.chunk_count())
                .map(|_| AtomicBool::new(false))
                .collect(),
            inner,
        }
    }

    fn set(&self, i: usize, zero: bool) {
        self.zero[i].store(zero, Ordering::SeqCst);
    }

    fn all_flagged(&self, group: &[usize]) -> bool {
        group.iter().all(|&i| self.zero[i].load(Ordering::SeqCst))
    }
}

impl ChunkStore for ZeroTracker {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn n_qubits(&self) -> u32 {
        self.inner.n_qubits()
    }

    fn chunk_bits(&self) -> u32 {
        self.inner.chunk_bits()
    }

    fn load_chunk(&self, i: usize, out: &mut [Complex64]) -> Result<(), CodecError> {
        let result = self.inner.load_chunk(i, out);
        self.set(i, result.is_ok() && all_zero(out));
        result
    }

    fn store_chunk(&self, i: usize, amps: &[Complex64]) -> Result<(), CodecError> {
        let result = self.inner.store_chunk(i, amps);
        self.set(i, result.is_ok() && all_zero(amps));
        result
    }

    fn load_chunk_payload(&self, i: usize) -> Result<Option<Vec<u8>>, CodecError> {
        let payload = self.inner.load_chunk_payload(i);
        if payload.is_err() {
            self.set(i, false);
        }
        payload
    }

    fn store_chunk_payload(&self, i: usize, payload: Vec<u8>) -> Result<bool, CodecError> {
        self.set(i, false);
        self.inner.store_chunk_payload(i, payload)
    }

    fn swap_chunks(&self, i: usize, j: usize) -> Result<bool, CodecError> {
        match self.inner.swap_chunks(i, j) {
            Ok(true) => {
                // Remaps run after the last stage on the driver's thread, so the
                // two flags need not move as one.
                let was_i = self.zero[i].load(Ordering::SeqCst);
                self.set(i, self.zero[j].swap(was_i, Ordering::SeqCst));
                Ok(true)
            }
            Ok(false) => Ok(false),
            Err(e) => {
                self.set(i, false);
                self.set(j, false);
                Err(e)
            }
        }
    }

    fn flush(&self) -> Result<(), CodecError> {
        self.inner.flush()
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn peak_state_bytes(&self) -> usize {
        self.inner.peak_state_bytes()
    }

    fn peak_resident_bytes(&self) -> usize {
        self.inner.peak_resident_bytes()
    }

    fn counters(&self) -> StoreCounters {
        self.inner.counters()
    }

    fn cumulative_stats(&self) -> CompressionStats {
        self.inner.cumulative_stats()
    }

    fn resident_chunks(&self) -> Vec<usize> {
        self.inner.resident_chunks()
    }

    fn attach_telemetry(&self, telemetry: Telemetry) {
        self.inner.attach_telemetry(telemetry)
    }

    fn detach_telemetry(&self) {
        self.inner.detach_telemetry()
    }

    fn set_error_allowance(&self, eb: Option<f64>) {
        self.inner.set_error_allowance(eb)
    }

    fn debug_corrupt_chunk(&self, i: usize) {
        self.inner.debug_corrupt_chunk(i)
    }
}

/// Runs `circuit` against `store`, streaming every stage's chunk groups
/// through `executor`. This is the one engine driver: `cpu::run` and
/// `hybrid::run` are thin constructors over it. Validates the
/// configuration, builds the plan with [`build_plan`] and hands it to
/// [`run_plan_with_executor`].
pub fn run_with_executor(
    store: &Arc<dyn ChunkStore>,
    circuit: &Circuit,
    cfg: &MemQSimConfig,
    granularity: Granularity,
    executor: &mut dyn ChunkExecutor,
) -> Result<RunReport, EngineError> {
    cfg.validate().map_err(EngineError::Config)?;
    // Every gate the scheduler accepts fits some stage: what does not fit
    // `max_high_qubits` high positions is swapped below the chunk boundary
    // first. Only a register cut into single-amplitude chunks has nowhere
    // to swap to.
    let fits = |g: &mq_circuit::Gate| g.pairing_qubits().len() <= cfg.max_high_qubits as usize;
    if cfg.chunk_bits == 0 {
        if let Some(gate) = circuit.gates().iter().find(|g| !fits(g)) {
            return Err(EngineError::Config(format!(
                "{gate} pairs more qubits than max_high_qubits {} and chunk_bits is 0",
                cfg.max_high_qubits
            )));
        }
    }
    let plan = build_plan(circuit, cfg, granularity);
    run_plan_with_executor(store, plan, cfg, executor)
}

/// Executes an already-built `plan` against `store` through `executor`:
/// everything [`run_with_executor`] does after planning. Callers that build
/// a plan by hand (the fixed-layout [`partition`](mq_circuit::partition)
/// reference the parity tests and `locality_sweep` compare against) enter
/// here.
///
/// Geometry mismatches between the plan and the store surface as typed
/// errors ([`EngineError::WidthMismatch`] / [`EngineError::ChunkMismatch`])
/// rather than panics, and so does a stage whose chunk groups are larger
/// than the `2^max_high_qubits` chunks executors size their buffers for.
pub fn run_plan_with_executor(
    store: &Arc<dyn ChunkStore>,
    plan: Plan,
    cfg: &MemQSimConfig,
    executor: &mut dyn ChunkExecutor,
) -> Result<RunReport, EngineError> {
    cfg.validate().map_err(EngineError::Config)?;
    if store.n_qubits() != plan.n_qubits {
        return Err(EngineError::WidthMismatch {
            store_qubits: store.n_qubits(),
            circuit_qubits: plan.n_qubits,
        });
    }
    if store.chunk_bits() != plan.chunk_bits {
        return Err(EngineError::ChunkMismatch {
            store_chunk_bits: store.chunk_bits(),
            config_chunk_bits: plan.chunk_bits,
        });
    }
    if let Some(stage) = plan
        .stages
        .iter()
        .find(|s| s.high_qubits.len() > cfg.max_high_qubits as usize)
    {
        return Err(EngineError::Config(format!(
            "plan stage pairs {} high qubits but max_high_qubits is {}",
            stage.high_qubits.len(),
            cfg.max_high_qubits
        )));
    }

    // One telemetry record for the whole run; the store stack's telemetry
    // tier (and any device the executor attaches) feeds counters into it.
    let telemetry = Telemetry::new();
    store.attach_telemetry(telemetry.clone());
    let _store_guard = StoreTelemetryGuard(&**store);
    // The hot-chunk residency cache, when configured, is already part of the
    // store stack (see `store::build_store`); the driver only exploits it by
    // ordering groups residency-first.
    let cache_enabled = cfg.cache_bytes > 0;

    let plan = Arc::new(plan);
    let zero = Arc::new(ZeroTracker::new(Arc::clone(store)));
    let ctx = ExecContext {
        store: Arc::clone(&zero) as Arc<dyn ChunkStore>,
        plan: Arc::clone(&plan),
        cfg: *cfg,
        telemetry: telemetry.clone(),
        zero: Arc::clone(&zero),
    };

    // Run-level fidelity budget: convert the end-state target into a total
    // per-amplitude error allowance and split it across stages. Per-stage
    // spend is attributed by diffing the store's lossy-encode counter
    // around each stage: a stage that only picked lossless backends spends
    // nothing even though it had an allowance.
    let stage_bounds = stage_error_bounds(cfg, plan.n_qubits, plan.stages.len());
    let mut error_spend: Vec<StageErrorSpend> = Vec::new();
    let mut lossy_mark = store.counters().lossy_encodes;

    let mut chunk_visits = 0usize;
    let mut chunk_visits_elided = 0usize;
    let mut run_err: Option<EngineError> = None;
    match executor.prepare(&ctx) {
        Err(e) => run_err = Some(e),
        Ok(()) => {
            'stages: for (si, stage) in plan.stages.iter().enumerate() {
                if let Some(bounds) = &stage_bounds {
                    store.set_error_allowance(Some(bounds[si]));
                }
                let mut groups = chunk_groups(plan.n_qubits, plan.chunk_bits, stage);
                // Every gate is linear, so a group known to be all zero
                // stays all zero: it is never submitted. The stage itself
                // still opens and closes.
                let planned: usize = groups.iter().map(Vec::len).sum();
                groups.retain(|g| !zero.all_flagged(g));
                let performed: usize = groups.iter().map(Vec::len).sum();
                chunk_visits += performed;
                chunk_visits_elided += planned - performed;
                if cache_enabled {
                    // Visit groups with the most cache-resident members
                    // first so a stage harvests its hits before misses
                    // evict them. An empty cache (first stage, tiny budget)
                    // skips the set build; an all-zero count vector skips
                    // the sort.
                    let resident = store.resident_chunks();
                    if !resident.is_empty() {
                        let resident: std::collections::HashSet<usize> =
                            resident.into_iter().collect();
                        let mut counted: Vec<(usize, Vec<usize>)> = groups
                            .into_iter()
                            .map(|g| (g.iter().filter(|c| resident.contains(c)).count(), g))
                            .collect();
                        if counted.iter().any(|(n, _)| *n > 0) {
                            counted.sort_by_key(|(n, _)| std::cmp::Reverse(*n));
                        }
                        groups = counted.into_iter().map(|(_, g)| g).collect();
                    }
                }
                let shards = assign_shards(cfg.devices, &groups);
                let si = si as u32;
                if let Err(e) = executor.begin_stage(&ctx, si, groups.len()) {
                    run_err = Some(e);
                    break;
                }
                for (seq, (chunks, shard)) in groups.into_iter().zip(shards).enumerate() {
                    let group = GroupWork {
                        stage: si,
                        seq,
                        chunks,
                        shard,
                    };
                    if let Err(e) = executor.submit(&ctx, group) {
                        run_err = Some(e);
                        break 'stages;
                    }
                }
                if let Err(e) = executor.end_stage(&ctx, si) {
                    run_err = Some(e);
                    break;
                }
                if let Some(bounds) = &stage_bounds {
                    let now = store.counters().lossy_encodes;
                    let allocated = bounds[si as usize];
                    error_spend.push(StageErrorSpend {
                        stage: si,
                        allocated,
                        spent: if now > lossy_mark { allocated } else { 0.0 },
                    });
                    lossy_mark = now;
                }
            }
            // Epilogue: un-permute the layout back to identity so callers
            // (measurement, to_dense, comparisons) see logical order.
            if run_err.is_none() {
                if let Some(epilogue) = &plan.epilogue {
                    match executor.remap(&ctx, epilogue) {
                        Ok(v) => {
                            chunk_visits += v;
                            telemetry.add(Counter::RemapPasses, 1);
                        }
                        Err(e) => run_err = Some(e),
                    }
                }
            }
        }
    }

    // Always give the executor its drain/release call so pipelines join and
    // buffers free even on a failed stage, then flush dirty resident chunks
    // so the base representation is coherent for callers.
    let finish_result = executor.finish(&ctx);
    if let Err(e) = store.flush() {
        run_err.get_or_insert(e.into());
    }

    // Epilogue traffic (drained pipelines, dirty cache write-backs) ran
    // under the last stage's allowance; fold any post-stage lossy encodes
    // into that stage's ledger entry, then clear the allowance.
    if stage_bounds.is_some() {
        if store.counters().lossy_encodes > lossy_mark {
            if let Some(last) = error_spend.last_mut() {
                last.spent = last.allocated;
            }
        }
        store.set_error_allowance(None);
        telemetry.set_error_spend(error_spend);
    }

    // Snapshot after the executor drained, so every span is closed and
    // every counter has landed.
    let record = telemetry.finish();
    if let Some(e) = run_err {
        return Err(e);
    }
    let stats = finish_result?;

    let decompress = record.busy(Role::Decompress);
    let compress = record.busy(Role::Recompress);
    let cpu_apply = record.busy(Role::CpuApply);
    Ok(RunReport {
        executor: executor.name(),
        kernel_isa: mq_statevec::apply::kernel_isa(),
        wall: record.wall,
        decompress,
        cpu_apply,
        compress,
        device: stats.device,
        per_device: stats.per_device,
        stages: plan.stages.len(),
        chunk_visits,
        chunk_visits_elided,
        gates_applied: stats.gates_applied,
        scalars_applied: stats.scalars_applied,
        apply_passes_saved: record.counter(Counter::ApplyPassesSaved) as usize,
        remap_passes: record.counter(Counter::RemapPasses) as usize,
        groups_device: stats.groups_device,
        groups_cpu: stats.groups_cpu,
        peak_compressed_bytes: store.peak_state_bytes(),
        peak_resident_bytes: store.peak_resident_bytes(),
        peak_buffer_bytes: stats.peak_buffer_bytes,
        pinned_bytes: stats.pinned_bytes,
        device_buffer_bytes: stats.device_buffer_bytes,
        fidelity_budget: cfg.fidelity_budget,
        error_budget: stage_bounds.map_or(0.0, |b| b.iter().sum()),
        error_spent: record.total_error_spent(),
        telemetry: record,
    })
}

/// Per-stage error allowances for a run with a fidelity budget (`None`
/// without one): the end-state infidelity `1 - target` is converted into a
/// total per-amplitude (per re/im plane) error allowance via the worst-case
/// L2 relation `1 - F <= 2 * 2^n * E^2`, then split evenly across stages
/// — per-stage errors add at worst linearly per amplitude, so bounds
/// summing to `E` keep the end-state claim.
pub fn stage_error_bounds(cfg: &MemQSimConfig, n_qubits: u32, n_stages: usize) -> Option<Vec<f64>> {
    cfg.fidelity_budget.map(|target| {
        let total = ((1.0 - target) / (2.0 * (2f64).powi(n_qubits as i32))).sqrt();
        vec![total / n_stages as f64; n_stages]
    })
}

/// Shared gate/scalar application counters for CPU-side group processing.
#[derive(Debug, Default)]
pub(crate) struct ApplyCounters {
    pub(crate) gates: AtomicUsize,
    pub(crate) scalars: AtomicUsize,
}

/// Decompresses `group`'s chunks into consecutive `chunk_amps`-sized slots
/// of `buffer` (no telemetry span — callers hold the right role span).
pub(crate) fn load_group(
    store: &dyn ChunkStore,
    group: &[usize],
    buffer: &mut [Complex64],
    chunk_amps: usize,
) -> Result<(), EngineError> {
    for (j, &chunk) in group.iter().enumerate() {
        store.load_chunk(chunk, &mut buffer[j * chunk_amps..(j + 1) * chunk_amps])?;
    }
    Ok(())
}

/// Recompresses `group`'s chunks from consecutive `chunk_amps`-sized slots
/// of `buffer` (no telemetry span — callers hold the right role span).
pub(crate) fn store_group(
    store: &dyn ChunkStore,
    group: &[usize],
    buffer: &[Complex64],
    chunk_amps: usize,
) -> Result<(), EngineError> {
    for (j, &chunk) in group.iter().enumerate() {
        store.store_chunk(chunk, &buffer[j * chunk_amps..(j + 1) * chunk_amps])?;
    }
    Ok(())
}

/// Specializes one stage's gates for the group based at `base_chunk` into
/// the ops of one sweep, and counts the gates and scalars — the one step
/// shared by the CPU apply body and the device pipeline's producer.
///
/// The list keeps what decides how folded phase products round the same
/// under every qubit layout. A scalar stays at its gate's place in the
/// list, so a diagonal run multiplies the same factors in the same order
/// whether a gate's qubits lie inside the buffer or outside it. A
/// [`SweepOp::Cut`] stands wherever the *stage's* gate list ends a
/// diagonal run although the specialized list might not: where the run
/// reaches [`DIAG_MAX_BITS`] qubits counting the ones outside the buffer,
/// and where a pairing gate vanished from this group (an outside control
/// that is 0). Stage boundaries never split a run, because diagonal gates
/// pair nothing and so never close a stage.
pub(crate) fn specialize_stage(
    stage: &Stage,
    chunk_bits: u32,
    base_chunk: usize,
    counters: &ApplyCounters,
) -> Vec<SweepOp> {
    let gctx = GroupContext {
        chunk_bits,
        high: &stage.high_qubits,
        base_chunk,
    };
    let mut ops = Vec::with_capacity(stage.gates.len());
    let (mut gates, mut scalars) = (0usize, 0usize);
    // Qubits of the open diagonal run, in the stage's own indices.
    let mut run_support = 0u64;
    for gate in &stage.gates {
        let diagonal = gate.is_diagonal();
        if diagonal {
            let support = gate.qubits().iter().fold(0u64, |s, q| s | 1 << q);
            if run_support != 0 && (run_support | support).count_ones() > DIAG_MAX_BITS {
                ops.push(SweepOp::Cut);
                run_support = 0;
            }
            run_support |= support;
        } else {
            run_support = 0;
        }
        match specialize(gate, &gctx) {
            Specialized::Skip if diagonal => {}
            Specialized::Skip => ops.push(SweepOp::Cut),
            Specialized::Scalar(s) => {
                ops.push(SweepOp::Scalar(s));
                scalars += 1;
            }
            Specialized::Apply(g) => {
                ops.push(SweepOp::Gate(g));
                gates += 1;
            }
        }
    }
    counters.gates.fetch_add(gates, Ordering::Relaxed);
    counters.scalars.fetch_add(scalars, Ordering::Relaxed);
    ops
}

/// Applies one stage's gates, specialized for the group based at
/// `base_chunk`, to a decompressed group `buffer` — the apply body of the
/// CPU chunk loop: specialize, then one cache-blocked [`apply_all_tiled`]
/// sweep on `workers` members of the team.
fn apply_stage_to_group(
    stage: &Stage,
    chunk_bits: u32,
    base_chunk: usize,
    buffer: &mut [Complex64],
    workers: usize,
    counters: &ApplyCounters,
    telemetry: &Telemetry,
) {
    let ops = specialize_stage(stage, chunk_bits, base_chunk, counters);
    let stats = apply_all_tiled(buffer, &ops, workers, DEFAULT_TILE_AMPS);
    if stats.passes_saved() > 0 {
        telemetry.add(Counter::ApplyPassesSaved, stats.passes_saved() as u64);
    }
}

/// Runs `f(chunks, slots)` for `group` split over up to `workers` members
/// of the team: each member takes a contiguous share of the chunks and
/// their `chunk_amps`-sized slots of `buffer`. The first error wins.
fn split_group<F>(
    group: &[usize],
    buffer: &mut [Complex64],
    chunk_amps: usize,
    workers: usize,
    f: F,
) -> Result<(), EngineError>
where
    F: Fn(&[usize], &mut [Complex64]) -> Result<(), EngineError> + Sync,
{
    let per = group.len().div_ceil(workers.max(1));
    let shares: Vec<_> = group
        .chunks(per)
        .zip(buffer.chunks_mut(per * chunk_amps))
        .collect();
    parallel::run(shares, |_, (chunks, slots)| f(chunks, slots))
        .into_iter()
        .collect()
}

/// Processes one stage's groups on the CPU, one group at a time with
/// `cfg.workers` members of the team inside it: all members decompress
/// their share of the chunks into `buffer`, one sweep applies the stage on
/// all of them, all recompress. A group that loads as all zero stops after
/// the load. `buffer` is the run's one group buffer, resized to each group;
/// each phase is one telemetry span however many members split it. The CPU
/// executor's stage body.
pub(crate) fn process_groups_on_cpu(
    ctx: &ExecContext,
    index: u32,
    groups: &[Vec<usize>],
    counters: &ApplyCounters,
    buffer: &mut Vec<Complex64>,
) -> Result<(), EngineError> {
    let stage = ctx.stage(index);
    let store = &*ctx.store;
    let chunk_amps = ctx.chunk_amps();
    let workers = ctx.cfg.workers;
    for group in groups {
        // The loader overwrites every slot, so only a size change writes.
        buffer.resize(group.len() * chunk_amps, Complex64::ZERO);
        {
            let _span = ctx.telemetry.stage_span(Role::Decompress, index);
            split_group(group, buffer, chunk_amps, workers, |chunks, slots| {
                load_group(store, chunks, slots, chunk_amps)
            })?;
        }
        if ctx.group_is_zero(group) {
            continue;
        }
        {
            let _span = ctx.telemetry.stage_span(Role::CpuApply, index);
            apply_stage_to_group(
                stage,
                ctx.plan.chunk_bits,
                group[0],
                buffer,
                workers,
                counters,
                &ctx.telemetry,
            );
        }
        let _span = ctx.telemetry.stage_span(Role::Recompress, index);
        split_group(group, buffer, chunk_amps, workers, |chunks, slots| {
            store_group(store, chunks, slots, chunk_amps)
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use mq_circuit::library;
    use mq_compress::CodecSpec;
    use mq_telemetry::Counter;

    /// A third, trivial executor: proves the seam is real by driving the
    /// shared core with a mock that only round-trips chunks (identity
    /// compute) while counting what the driver hands it and asserting the
    /// protocol: stages never nest, submissions arrive in order inside
    /// their stage, every barrier closes what `begin_stage` announced.
    #[derive(Default)]
    struct CountingExecutor {
        prepared: usize,
        finished: usize,
        /// Stages closed, in order.
        stages_seen: Vec<u32>,
        /// The open stage and the group count it announced.
        open: Option<(u32, usize)>,
        submitted: usize,
        groups_seen: usize,
        chunks_seen: usize,
    }

    impl ChunkExecutor for CountingExecutor {
        fn name(&self) -> String {
            "counting-mock".to_string()
        }

        fn prepare(&mut self, _ctx: &ExecContext) -> Result<(), EngineError> {
            self.prepared += 1;
            Ok(())
        }

        fn begin_stage(
            &mut self,
            _ctx: &ExecContext,
            index: u32,
            n_groups: usize,
        ) -> Result<(), EngineError> {
            assert_eq!(self.open, None, "stages must not nest");
            self.open = Some((index, n_groups));
            self.submitted = 0;
            Ok(())
        }

        fn submit(&mut self, ctx: &ExecContext, group: GroupWork) -> Result<(), EngineError> {
            assert_eq!(
                self.open.map(|o| o.0),
                Some(group.stage),
                "submit outside stage"
            );
            assert_eq!(group.seq, self.submitted, "submissions arrive in order");
            self.submitted += 1;
            self.groups_seen += 1;
            let mut buf = vec![Complex64::ZERO; ctx.chunk_amps()];
            for &chunk in &group.chunks {
                self.chunks_seen += 1;
                ctx.store.load_chunk(chunk, &mut buf)?;
                ctx.store.store_chunk(chunk, &buf)?;
            }
            Ok(())
        }

        fn end_stage(&mut self, _ctx: &ExecContext, index: u32) -> Result<(), EngineError> {
            let announced = (index, self.submitted);
            assert_eq!(
                self.open.take(),
                Some(announced),
                "begin_stage announced another stage"
            );
            self.stages_seen.push(index);
            Ok(())
        }

        fn finish(&mut self, _ctx: &ExecContext) -> Result<ExecutorStats, EngineError> {
            assert_eq!(self.open, None, "finish with a stage still open");
            self.finished += 1;
            Ok(ExecutorStats {
                groups_cpu: self.groups_seen,
                ..ExecutorStats::default()
            })
        }
    }

    #[test]
    fn counting_mock_rides_the_same_core() {
        let cfg = testkit::cfg(3, CodecSpec::Fpc);
        let circuit = library::qft(7);
        let store = testkit::zero_store(7, 3, &cfg);
        let mut mock = CountingExecutor::default();
        let report =
            run_with_executor(&store, &circuit, &cfg, Granularity::Staged, &mut mock).unwrap();

        // Lifecycle: prepare and finish exactly once, every stage opened and
        // closed in plan order.
        assert_eq!(mock.prepared, 1);
        assert_eq!(mock.finished, 1);
        assert_eq!(
            mock.stages_seen,
            (0..report.stages as u32).collect::<Vec<_>>()
        );

        // The driver's visit accounting matches what the executor was
        // handed, and matches the store's counter (the mock loads every
        // chunk exactly once per stage).
        assert_eq!(mock.chunks_seen, report.chunk_visits);
        assert_eq!(
            report.chunk_visits as u64,
            report.telemetry.counter(Counter::ChunkVisits)
        );
        assert_eq!(report.groups_cpu, mock.groups_seen);
        assert_eq!(report.executor, "counting-mock");

        // Identity compute: the state is untouched.
        let dense = store.to_dense().unwrap();
        assert!((dense[0].re - 1.0).abs() < 1e-12);
        assert!(dense[1..].iter().all(|z| z.norm() < 1e-12));

        // The report is fully assembled even for a mock executor.
        assert!(report.telemetry.balanced());
        assert_eq!(report.gates_applied, 0);
        assert!(report.peak_compressed_bytes > 0);
        assert_eq!(report.device, StreamStats::default());
    }

    #[test]
    fn failed_stage_still_finishes_the_executor() {
        /// Fails its first `submit`, or its first barrier.
        struct FailingExecutor {
            fail_in_submit: bool,
            ended: usize,
            finished: bool,
        }
        fn fail(here: bool) -> Result<(), EngineError> {
            if here {
                return Err(EngineError::Config("boom".to_string()));
            }
            Ok(())
        }
        impl ChunkExecutor for FailingExecutor {
            fn name(&self) -> String {
                "failing-mock".to_string()
            }
            fn submit(&mut self, _ctx: &ExecContext, _group: GroupWork) -> Result<(), EngineError> {
                fail(self.fail_in_submit)
            }
            fn end_stage(&mut self, _ctx: &ExecContext, _index: u32) -> Result<(), EngineError> {
                self.ended += 1;
                fail(!self.fail_in_submit)
            }
            fn finish(&mut self, _ctx: &ExecContext) -> Result<ExecutorStats, EngineError> {
                self.finished = true;
                Ok(ExecutorStats::default())
            }
        }
        let cfg = testkit::cfg(3, CodecSpec::Fpc);
        for fail_in_submit in [false, true] {
            let store = testkit::zero_store(6, 3, &cfg);
            let mut exec = FailingExecutor {
                fail_in_submit,
                ended: 0,
                finished: false,
            };
            let err = run_with_executor(
                &store,
                &library::ghz(6),
                &cfg,
                Granularity::Staged,
                &mut exec,
            )
            .unwrap_err();
            assert!(matches!(err, EngineError::Config(_)));
            // A failed submit skips its stage's barrier; either way no
            // later stage opens and `finish` still runs.
            assert_eq!(exec.ended, usize::from(!fail_in_submit));
            assert!(exec.finished, "finish must run even when a stage fails");
        }
    }

    #[test]
    fn geometry_mismatches_are_typed_errors_not_panics() {
        let cfg = testkit::cfg(3, CodecSpec::Fpc);
        let mut mock = CountingExecutor::default();

        // Store narrower than the circuit.
        let store = testkit::zero_store(6, 3, &cfg);
        match run_with_executor(
            &store,
            &library::ghz(8),
            &cfg,
            Granularity::Staged,
            &mut mock,
        ) {
            Err(EngineError::WidthMismatch {
                store_qubits: 6,
                circuit_qubits: 8,
            }) => {}
            other => panic!("expected WidthMismatch, got {other:?}"),
        }

        // Store chunked differently from the config.
        let store = testkit::zero_store(8, 5, &cfg);
        match run_with_executor(
            &store,
            &library::ghz(8),
            &cfg,
            Granularity::Staged,
            &mut mock,
        ) {
            Err(EngineError::ChunkMismatch {
                store_chunk_bits: 5,
                config_chunk_bits: 3,
            }) => {}
            other => panic!("expected ChunkMismatch, got {other:?}"),
        }

        // A hand-built plan whose groups outgrow the configured buffers.
        let store = testkit::zero_store(8, 3, &cfg);
        let wide = PartitionConfig {
            chunk_bits: 3,
            max_high_qubits: 3,
        };
        let plan = mq_circuit::partition::partition(&library::qft(8), &wide);
        match run_plan_with_executor(&store, plan, &cfg, &mut mock) {
            Err(EngineError::Config(msg)) => assert!(msg.contains("max_high_qubits"), "{msg}"),
            other => panic!("expected Config, got {other:?}"),
        }
        // No failed run reached the executor.
        assert_eq!(mock.prepared, 0);

        // A hand-built epilogue that names a position inside the chunk: only
        // a sweep could execute it, and sweeps are stages.
        let mut plan = mq_circuit::partition::partition(&library::ghz(8), &wide);
        plan.epilogue = Some(RemapTransition {
            swaps: vec![(5, 7), (1, 6)],
        });
        let wide_cfg = MemQSimConfig {
            max_high_qubits: 3,
            ..cfg
        };
        match run_plan_with_executor(&store, plan, &wide_cfg, &mut mock) {
            Err(EngineError::Config(msg)) => assert!(msg.contains("(1, 6)"), "{msg}"),
            other => panic!("expected Config, got {other:?}"),
        }
        assert_eq!((mock.prepared, mock.finished), (1, 1));
    }

    #[test]
    fn zero_scan_ignores_the_sign_of_zero_and_nothing_else() {
        let mut amps = vec![Complex64::ZERO; 200];
        assert!(all_zero(&amps));
        assert!(all_zero(&[]));
        amps[3] = Complex64::new(-0.0, 0.0);
        amps[199] = Complex64::new(0.0, -0.0);
        assert!(all_zero(&amps));
        // Any set bit below the sign, in either plane, at any position.
        for at in [0, 63, 64, 199] {
            for z in [
                Complex64::new(1e-300, 0.0),
                Complex64::new(0.0, -1e-300),
                Complex64::new(f64::MIN_POSITIVE / 8.0, 0.0),
                Complex64::new(0.0, f64::NAN),
            ] {
                let mut amps = vec![Complex64::ZERO; 200];
                amps[at] = z;
                assert!(!all_zero(&amps), "{z:?} at {at}");
            }
        }
    }

    #[test]
    fn zero_tracker_flag_follows_every_load_store_swap_and_failure() {
        // |0..0> in 4 chunks of 8: chunk 0 holds the one, chunks 1..4 zeros.
        let cfg = testkit::cfg(3, CodecSpec::Fpc);
        let tracker = ZeroTracker::new(testkit::zero_store(5, 3, &cfg));
        let flags = |t: &ZeroTracker| -> Vec<bool> {
            t.zero.iter().map(|f| f.load(Ordering::SeqCst)).collect()
        };
        let mut buf = vec![Complex64::ZERO; 8];

        // Nothing is known until a chunk has been read or written.
        assert_eq!(flags(&tracker), [false; 4]);
        assert!(tracker.all_flagged(&[]));
        for i in 0..4 {
            tracker.load_chunk(i, &mut buf).unwrap();
        }
        assert_eq!(flags(&tracker), [false, true, true, true]);
        assert!(tracker.all_flagged(&[1, 3]) && !tracker.all_flagged(&[0, 1]));

        // A store decides the flag from what it was given.
        let mut amps = vec![Complex64::ZERO; 8];
        amps[5] = Complex64::new(0.0, 1e-300);
        tracker.store_chunk(1, &amps).unwrap();
        assert_eq!(flags(&tracker), [false, false, true, true]);
        amps[5] = Complex64::new(-0.0, -0.0);
        tracker.store_chunk(1, &amps).unwrap();
        tracker.store_chunk(0, &amps).unwrap();
        assert_eq!(flags(&tracker), [true; 4]);
        amps[0] = Complex64::ONE;
        tracker.store_chunk(0, &amps).unwrap();
        assert_eq!(flags(&tracker), [false, true, true, true]);

        // A payload-level exchange moves the flags with the contents.
        assert!(tracker.swap_chunks(0, 2).unwrap());
        assert_eq!(flags(&tracker), [true, true, false, true]);
        tracker.load_chunk(2, &mut buf).unwrap();
        assert_eq!(buf, amps);
        assert!(tracker.swap_chunks(3, 3).unwrap());
        assert_eq!(flags(&tracker), [true, true, false, true]);

        // A payload store is opaque: the flag goes, whatever the payload.
        let payload = tracker.load_chunk_payload(3).unwrap().expect("codec tier");
        assert_eq!(flags(&tracker), [true, true, false, true]);
        assert!(tracker.store_chunk_payload(3, payload).unwrap());
        assert_eq!(flags(&tracker), [true, true, false, false]);
        tracker.load_chunk(3, &mut buf).unwrap();
        assert_eq!(flags(&tracker), [true, true, false, true]);

        // Failed calls leave the flag cleared: a store of the wrong length,
        // then loads (amplitudes and payload) of a corrupted chunk.
        assert!(tracker.store_chunk(1, &amps[..4]).is_err());
        assert_eq!(flags(&tracker), [true, false, false, true]);
        tracker.debug_corrupt_chunk(0);
        assert!(tracker.load_chunk_payload(0).is_err());
        assert_eq!(flags(&tracker), [false, false, false, true]);
        tracker.debug_corrupt_chunk(3);
        assert!(tracker.load_chunk(3, &mut buf).is_err());
        assert_eq!(flags(&tracker), [false; 4]);
    }

    #[test]
    fn zero_tracker_forwards_the_whole_store_interface() {
        let cfg = MemQSimConfig {
            cache_bytes: 4 * 8 * 16,
            ..testkit::cfg(3, CodecSpec::Auto { eb: None })
        };
        let inner = testkit::zero_store(6, 3, &cfg);
        let tracker = ZeroTracker::new(Arc::clone(&inner));
        assert_eq!(tracker.kind(), inner.kind());
        assert_eq!(
            (
                tracker.n_qubits(),
                tracker.chunk_bits(),
                tracker.chunk_count()
            ),
            (6, 3, 8)
        );
        let mut buf = vec![Complex64::ZERO; 8];
        tracker.load_chunk(2, &mut buf).unwrap();
        tracker.store_chunk(2, &buf).unwrap();
        assert_eq!(tracker.resident_chunks(), inner.resident_chunks());
        assert_eq!(tracker.resident_chunks(), vec![2]);
        assert_eq!(tracker.counters(), inner.counters());
        assert_eq!(tracker.counters().chunk_visits, 1);
        assert_eq!(tracker.cumulative_stats(), inner.cumulative_stats());
        tracker.flush().unwrap();
        assert_eq!(tracker.state_bytes(), inner.state_bytes());
        assert_eq!(tracker.peak_state_bytes(), inner.peak_state_bytes());
        assert_eq!(tracker.peak_resident_bytes(), inner.peak_resident_bytes());
        // The telemetry tier and the codec's bound sit below the tracker.
        let telemetry = Telemetry::new();
        tracker.attach_telemetry(telemetry.clone());
        tracker.load_chunk(5, &mut buf).unwrap();
        assert_eq!(telemetry.counter(Counter::ChunkVisits), 1);
        tracker.detach_telemetry();
        tracker.load_chunk(5, &mut buf).unwrap();
        assert_eq!(telemetry.counter(Counter::ChunkVisits), 1);
        for (k, z) in buf.iter_mut().enumerate() {
            *z = Complex64::cis(0.37 * k as f64);
        }
        tracker.store_chunk(6, &buf).unwrap();
        tracker.flush().unwrap();
        assert_eq!(inner.counters().lossy_encodes, 0);
        tracker.set_error_allowance(Some(1e-3));
        tracker.store_chunk(7, &buf).unwrap();
        tracker.flush().unwrap();
        assert!(inner.counters().lossy_encodes > 0);
    }

    #[test]
    fn specialized_ops_cut_where_the_stage_list_ends_a_diagonal_run() {
        use mq_circuit::Gate;
        // chunk_bits 2, no high qubits: qubits 2.. are outside the buffer.
        let ops = |gates: Vec<Gate>, base_chunk: usize| {
            let counters = ApplyCounters::default();
            let ops = specialize_stage(&Stage::new(gates, vec![]), 2, base_chunk, &counters);
            let count = |f: fn(&SweepOp) -> bool| ops.iter().filter(|op| f(op)).count();
            assert_eq!(
                counters.gates.load(Ordering::Relaxed),
                count(|op| matches!(op, SweepOp::Gate(_)))
            );
            assert_eq!(
                counters.scalars.load(Ordering::Relaxed),
                count(|op| matches!(op, SweepOp::Scalar(_)))
            );
            ops
        };
        let (t, z) = (Gate::T(0), Gate::Z(1));
        let (gt, gz) = (SweepOp::Gate(t.clone()), SweepOp::Gate(z.clone()));

        // A scalar keeps its gate's place in the run.
        let rz = Complex64::cis(0.25);
        let list = vec![t.clone(), Gate::Rz(3, 0.5), z.clone()];
        let want = vec![gt.clone(), SweepOp::Scalar(rz), gz.clone()];
        assert_eq!(ops(list, 0b10), want);

        // A pairing gate that vanishes from the group still ends the run; a
        // diagonal one that does (its factor is one) does not.
        let list = vec![t.clone(), Gate::Cx(2, 1), z.clone()];
        assert_eq!(ops(list, 0), vec![gt.clone(), SweepOp::Cut, gz.clone()]);
        let list = vec![t.clone(), Gate::Cz(2, 1), z.clone()];
        assert_eq!(ops(list, 0), vec![gt.clone(), gz.clone()]);

        // A run is cut at DIAG_MAX_BITS qubits, counting the outside ones.
        let chain: Vec<Gate> = (0..=DIAG_MAX_BITS).map(Gate::Z).collect();
        let got = ops(chain, usize::MAX);
        let cut = got.iter().position(|op| *op == SweepOp::Cut);
        assert_eq!(cut, Some(DIAG_MAX_BITS as usize));
        assert_eq!(got.len(), DIAG_MAX_BITS as usize + 2);
    }
}
