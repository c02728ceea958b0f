//! The hybrid CPU/GPU pipeline engine — the paper's Figure 2.
//!
//! Per stage, every chunk group flows through the same lane:
//!
//! 1. CPU decompresses the group's chunks into a pinned staging buffer;
//! 2. the buffer is copied host→device (bulk copy — the Table 1 winner);
//! 3. the device executes the stage's (specialized) gate kernels;
//! 4. results are copied device→host into the same pinned buffer;
//! 5. the host's cores run the decompressor and recompressor threads
//!    beside the device — the paper's "idle cores". (A static split that
//!    sent a share of the groups through the CPU loop instead ran before
//!    device issue, overlapped nothing and lost on the clock:
//!    EXPERIMENTS.md A10.)
//! 6. the CPU recompresses the group back into main memory.
//!
//! A group staged raw whose chunks all decompress to zeros stops after
//! step 1: the producer hands its staging slot back and moves on, exactly
//! where the CPU loop drops such a group (see [`exec`](super::exec) on zero
//! groups). Compressed transfers move payloads only, so that mode never
//! sees a zero and skips nothing.
//!
//! In pipelined mode three roles run concurrently — decompressor, device
//! issuer, recompressor — connected by bounded channels with
//! `STAGING_SLOTS` (2) in-flight staging slots per device, so step 1 of group
//! `k+1` overlaps steps 2–4 of group `k`. Each device runs one in-order
//! stream: upload, kernels and download of a group are charged back to back
//! on its modeled clock. Stage boundaries are barriers (a stage may read
//! chunks the previous stage wrote).
//!
//! With `cfg.devices > 1` the whole issuer/completer pair is instantiated
//! once **per device**: each fleet member owns its own staging slots,
//! device buffers and stream, and the producer routes every group to the
//! device the driver sharded it to (contiguous chunk ranges per device).
//! Groups within a stage touch disjoint chunk sets, so fleet runs are
//! bit-identical to single-device runs; only the modeled makespan (max
//! over devices) shrinks. `cfg.workers` is not read here: the thread count
//! is three roles plus one stream worker per device.
//!
//! The streaming skeleton (validation, plan, cache, ordering, accounting,
//! flush, report) lives in [`exec::run_with_executor`](super::exec); this
//! module contributes only the [`DevicePipelineExecutor`] compute path.

use crate::config::{MemQSimConfig, TransferMode};
use crate::engine::exec::{
    apply_remap_on_store, run_with_executor, specialize_stage, ApplyCounters, ExecContext,
    ExecutorStats, SerialAdapter, StageBatchExecutor, StageWork,
};
use crate::engine::{EngineError, Granularity, RunReport};
use crate::store::ChunkStore;
use crossbeam::channel::{bounded, RecvTimeoutError};
use mq_circuit::partition::RemapTransition;
use mq_circuit::Circuit;
use mq_compress::{decompress_complex, Codec, CodecError};
use mq_device::{Device, DeviceBuffer, PayloadCell, PinnedBuffer, Stream, StreamStats};
use mq_num::Complex64;
use mq_statevec::apply::SweepOp;
use mq_telemetry::{DeviceLane, Role};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One unit of pipeline work: a chunk group, staged and specialized.
struct Work {
    group: Vec<usize>,
    amps: usize,
    slot: usize,
    stage: u32,
    /// The stage specialized to this group: one kernel command.
    ops: Vec<SweepOp>,
    /// Compressed transfer: per-chunk codec payloads shipped to the
    /// device-side decoder in place of the staged raw copy. `None` = raw
    /// staging path (always, under [`TransferMode::Raw`]; per group, when
    /// a tier refused to hand out payloads).
    payloads: Option<Vec<Vec<u8>>>,
    /// Write-back payload cells, filled by the issuer's device-side encode
    /// commands in compressed mode; empty on the raw path.
    cells: Vec<PayloadCell>,
}

/// Tries to fetch every chunk of `group` as a compressed payload. `None`
/// when any tier refuses (e.g. a dense or spill tier with no codec): the
/// caller falls back to raw staging for the whole group, so a group's
/// transfer mode is always uniform. An active residency cache serves
/// payloads encode-through (dirty residents are written back first).
fn fetch_payloads(
    store: &Arc<dyn ChunkStore>,
    group: &[usize],
) -> Result<Option<Vec<Vec<u8>>>, CodecError> {
    let mut payloads = Vec::with_capacity(group.len());
    for &chunk in group {
        match store.load_chunk_payload(chunk)? {
            Some(p) => payloads.push(p),
            None => return Ok(None),
        }
    }
    Ok(Some(payloads))
}

/// Commits a compressed group's device-encoded payloads back to the store.
/// The payloads land verbatim; a tier that refuses a payload gets a host
/// decode + raw store instead.
fn complete_compressed(
    store: &Arc<dyn ChunkStore>,
    work: &Work,
    chunk_amps: usize,
    codec: &Arc<dyn Codec>,
) -> Result<(), EngineError> {
    let mut scratch = Vec::new();
    for (cell, &chunk) in work.cells.iter().zip(&work.group) {
        let payload = cell.take().ok_or_else(|| {
            EngineError::Codec(CodecError::Io(format!(
                "device encode produced no payload for chunk {chunk}"
            )))
        })?;
        if !store.store_chunk_payload(chunk, payload.clone())? {
            scratch.resize(chunk_amps, Complex64::ZERO);
            decompress_complex(codec.as_ref(), &payload, &mut scratch)?;
            store.store_chunk(chunk, &scratch)?;
        }
    }
    Ok(())
}

enum ToDevice {
    Work(Work),
    /// Serial-ablation barrier: drain everything issued so far.
    Drain,
}

enum ToCompleter {
    Work(Work, mq_device::Event),
    Drain,
}

/// In-flight staging slots per device — classic double buffering: one
/// group on the device while the host decodes the next. One slot serialises
/// decode against the device (1.45x the wall) and a third buys no wall for
/// half again the staging memory (EXPERIMENTS.md A10).
const STAGING_SLOTS: usize = 2;

/// One fleet member's run-scoped resources: its staging slots, device
/// buffers and in-order stream. A lane's slots are private to its device,
/// so the per-device pipelines never contend for staging memory.
struct Lane {
    pinned: Vec<PinnedBuffer>,
    dev_bufs: Vec<DeviceBuffer>,
    stream: Stream,
}

/// Folds one device's totals into the fleet aggregate: devices run
/// concurrently, so the merged end time is the makespan (`modeled = max`),
/// while category busy times, bytes and command counts add.
fn merge_stream_stats(into: &mut StreamStats, s: &StreamStats) {
    into.modeled = into.modeled.max(s.modeled);
    into.modeled_h2d += s.modeled_h2d;
    into.modeled_d2h += s.modeled_d2h;
    into.modeled_kernel += s.modeled_kernel;
    into.modeled_scatter += s.modeled_scatter;
    into.modeled_decode += s.modeled_decode;
    into.modeled_encode += s.modeled_encode;
    into.modeled_wait += s.modeled_wait;
    into.real += s.real;
    into.commands += s.commands;
    into.bytes_h2d += s.bytes_h2d;
    into.bytes_d2h += s.bytes_d2h;
    into.bytes_h2d_compressed += s.bytes_h2d_compressed;
    into.bytes_d2h_compressed += s.bytes_d2h_compressed;
}

/// [`StageBatchExecutor`] running the paper's three-role pipeline against a
/// simulated device fleet: a producer decompresses and specializes groups
/// into pinned staging slots, a per-device issuer runs H2D → kernels → D2H,
/// and a per-device completer recompresses results — overlapped across
/// `STAGING_SLOTS` (2) in-flight slots per device when `pipelined`, fully
/// drained after every group when not (the Fig. 2 ablation baseline).
/// Every group lands on the device the driver sharded it to. One executor
/// can serve any number of runs: `finish` leaves it as `new_fleet` made it.
pub struct DevicePipelineExecutor<'d> {
    devices: &'d [Device],
    pipelined: bool,
    max_group_amps: usize,
    lanes: Vec<Lane>,
    /// Groups executed per device, for the telemetry lanes.
    lane_groups: Vec<AtomicUsize>,
    /// `Some` under [`TransferMode::Compressed`]: the device-side codec,
    /// built from the same [`CodecSpec`](mq_compress::CodecSpec) as the
    /// store's — specs build stateless codecs, so payloads are
    /// byte-compatible across the two instances.
    codec: Option<Arc<dyn Codec>>,
    counters: ApplyCounters,
    groups_device: usize,
    telemetry_attached: bool,
}

impl<'d> DevicePipelineExecutor<'d> {
    /// Creates a single-device executor over `device`; `pipelined = false`
    /// drains the pipeline after every group (the serial ablation).
    pub fn new(device: &'d Device, pipelined: bool) -> DevicePipelineExecutor<'d> {
        DevicePipelineExecutor::new_fleet(std::slice::from_ref(device), pipelined)
    }

    /// Creates an executor over an N-device fleet. Every device gets its
    /// own staging slots, stream and issuer/completer pipeline; the driver
    /// routes groups by [`GroupWork::shard`](crate::engine::exec::GroupWork).
    /// An empty fleet is refused by [`prepare`](StageBatchExecutor::prepare)
    /// with [`EngineError::Config`].
    pub fn new_fleet(devices: &'d [Device], pipelined: bool) -> DevicePipelineExecutor<'d> {
        DevicePipelineExecutor {
            devices,
            pipelined,
            max_group_amps: 0,
            lanes: Vec::new(),
            lane_groups: (0..devices.len()).map(|_| AtomicUsize::new(0)).collect(),
            codec: None,
            counters: ApplyCounters::default(),
            groups_device: 0,
            telemetry_attached: false,
        }
    }
}

impl Drop for DevicePipelineExecutor<'_> {
    fn drop(&mut self) {
        if self.telemetry_attached {
            for device in self.devices {
                device.detach_telemetry();
            }
        }
    }
}

impl StageBatchExecutor for DevicePipelineExecutor<'_> {
    fn name(&self) -> String {
        let mode = if self.pipelined {
            "pipelined"
        } else {
            "serial"
        };
        if self.devices.len() == 1 {
            format!("device-pipeline[{mode}]")
        } else {
            format!("device-fleet[{mode} x{}]", self.devices.len())
        }
    }

    fn prepare(&mut self, ctx: &ExecContext) -> Result<(), EngineError> {
        if self.devices.is_empty() {
            return Err(EngineError::Config("fleet has no devices".to_string()));
        }
        // Every fleet member feeds transfer/kernel counters into the same
        // run record (lanes split them back out per device at `finish`).
        for device in self.devices {
            device.attach_telemetry(ctx.telemetry.clone());
        }
        self.telemetry_attached = true;

        self.max_group_amps = ctx.chunk_amps() << ctx.cfg.max_high_qubits;

        // Staging per device: `STAGING_SLOTS` pinned host buffers + matching
        // device buffers on that device's own arena. Allocated one by one
        // into `self` so a mid-way OOM still releases the successful
        // allocations in `finish`.
        for (di, device) in self.devices.iter().enumerate() {
            self.lanes.push(Lane {
                pinned: (0..STAGING_SLOTS)
                    .map(|_| PinnedBuffer::new(self.max_group_amps))
                    .collect(),
                dev_bufs: Vec::new(),
                stream: device.create_stream(),
            });
            for _ in 0..STAGING_SLOTS {
                let buf = device.alloc(self.max_group_amps)?;
                self.lanes[di].dev_bufs.push(buf);
            }
        }

        self.codec = if ctx.cfg.transfer_mode == TransferMode::Compressed {
            Some(Arc::from(
                ctx.cfg.codec.build_with_precision(ctx.cfg.precision),
            ))
        } else {
            None
        };
        Ok(())
    }

    fn remap(
        &mut self,
        ctx: &ExecContext,
        transition: &RemapTransition,
    ) -> Result<usize, EngineError> {
        // Tell every device lane which chunk identities are about to swap:
        // high-high transpositions relabel whole chunks, so any device-side
        // affinity (sharding by chunk index) is stale after the transition.
        // The command moves no arena data — it charges one scatter-shaped
        // pass so fleet makespans stay honest about re-sharding.
        let pairs = transition.chunk_exchange_pairs(ctx.plan.chunk_bits, ctx.store.chunk_count());
        if !pairs.is_empty() {
            for lane in &self.lanes {
                lane.stream.remap_chunks(pairs.clone());
            }
        }
        apply_remap_on_store(ctx, transition)
    }

    fn execute_stage(
        &mut self,
        ctx: &ExecContext,
        work: &StageWork<'_>,
    ) -> Result<(), EngineError> {
        let chunk_amps = ctx.chunk_amps();
        // A fidelity budget hands each stage its own error allowance; this
        // executor's private codec instance (compressed transfers) must
        // track the store codec's bound or payload parity breaks.
        if let Some(codec) = &self.codec {
            codec.set_dynamic_bound(work.error_allowance);
        }
        if work.groups.is_empty() {
            return Ok(());
        }

        let store = &ctx.store;
        let telemetry = &ctx.telemetry;
        let lanes = &self.lanes;
        let lane_groups = &self.lane_groups;
        let n_dev = self.devices.len();
        let counters = &self.counters;
        let pipelined = self.pipelined;
        let codec = self.codec.clone();
        let compressed_mode = self.codec.is_some();
        let si = work.index;
        let stage = work.stage;
        let chunk_bits = ctx.plan.chunk_bits;
        let stage_groups_device = AtomicUsize::new(0);
        let error: Mutex<Option<EngineError>> = Mutex::new(None);

        crossbeam::thread::scope(|scope| {
            // One issuer/completer pair — and one private slot pool — per
            // fleet device; the producer below routes each group to the
            // device its shard names.
            let mut to_device_txs = Vec::with_capacity(n_dev);
            let mut pool_rxs = Vec::with_capacity(n_dev);
            let mut pool_txs = Vec::with_capacity(n_dev);
            let mut drain_ack_rxs = Vec::with_capacity(n_dev);
            for di in 0..n_dev {
                let (to_device_tx, to_device_rx) = bounded::<ToDevice>(STAGING_SLOTS);
                let (to_completer_tx, to_completer_rx) = bounded::<ToCompleter>(STAGING_SLOTS);
                let (pool_tx, pool_rx) = bounded::<usize>(STAGING_SLOTS);
                let (drain_ack_tx, drain_ack_rx) = bounded::<()>(1);
                for i in 0..STAGING_SLOTS {
                    pool_tx.send(i).expect("pool has capacity");
                }
                to_device_txs.push(to_device_tx);
                pool_rxs.push(pool_rx);
                pool_txs.push(pool_tx.clone());
                drain_ack_rxs.push(drain_ack_rx);

                // --- device issuer (one per device) -------------------------
                let issuer_telemetry = telemetry.clone();
                let issuer_codec = codec.clone();
                scope.spawn(move |_| {
                    let lane = &lanes[di];
                    let stream = &lane.stream;
                    while let Ok(msg) = to_device_rx.recv() {
                        match msg {
                            ToDevice::Drain => {
                                if to_completer_tx.send(ToCompleter::Drain).is_err() {
                                    break;
                                }
                            }
                            ToDevice::Work(mut work) => {
                                let span =
                                    issuer_telemetry.stage_span(Role::DeviceIssue, work.stage);
                                let pb = &lane.pinned[work.slot];
                                let db = lane.dev_bufs[work.slot];
                                // A group's op list is one kernel command whose
                                // body is the CPU path's blocked sweep.
                                let ops = std::mem::take(&mut work.ops);
                                match work.payloads.take() {
                                    // Compressed transfer: the payloads go over
                                    // the link as-is and a device-side codec
                                    // kernel inflates them; on the way back, an
                                    // encode kernel fills the payload cells that
                                    // carry the bytes home.
                                    Some(payloads) => {
                                        let codec = issuer_codec.as_ref().expect("codec prepared");
                                        for (j, p) in payloads.into_iter().enumerate() {
                                            stream.decode_chunk(
                                                p,
                                                codec,
                                                db,
                                                j * chunk_amps,
                                                chunk_amps,
                                            );
                                        }
                                        stream.run_gates_region(db, work.amps, ops);
                                        for j in 0..work.group.len() {
                                            work.cells.push(stream.encode_chunk(
                                                db,
                                                j * chunk_amps,
                                                chunk_amps,
                                                codec,
                                            ));
                                        }
                                    }
                                    None => {
                                        stream.h2d(pb, 0, db, 0, work.amps);
                                        stream.run_gates_region(db, work.amps, ops);
                                        stream.d2h(db, 0, pb, 0, work.amps);
                                    }
                                }
                                let event = stream.record_event();
                                // Close before the send: a full channel is
                                // backpressure wait, not device-issue work.
                                drop(span);
                                if to_completer_tx
                                    .send(ToCompleter::Work(work, event))
                                    .is_err()
                                {
                                    break;
                                }
                            }
                        }
                    }
                });

                // --- completer / recompressor (one per device) --------------
                let stage_groups_device_ref = &stage_groups_device;
                let completer_telemetry = telemetry.clone();
                let completer_codec = codec.clone();
                let completer_error = &error;
                scope.spawn(move |_| {
                    let pinned = &lanes[di].pinned;
                    while let Ok(msg) = to_completer_rx.recv() {
                        match msg {
                            ToCompleter::Drain => {
                                if drain_ack_tx.send(()).is_err() {
                                    break;
                                }
                            }
                            ToCompleter::Work(work, event) => {
                                // Waiting on the device is idle time, not
                                // recompress work; the span opens only once
                                // results are back.
                                event.wait();
                                let _span =
                                    completer_telemetry.stage_span(Role::Recompress, work.stage);
                                if work.cells.is_empty() {
                                    // Raw path: recompress chunk by chunk.
                                    let mut failed = None;
                                    pinned[work.slot].write(|data| {
                                        for (j, &chunk) in work.group.iter().enumerate() {
                                            if let Err(e) = store.store_chunk(
                                                chunk,
                                                &data[j * chunk_amps..(j + 1) * chunk_amps],
                                            ) {
                                                failed = Some(e);
                                                return;
                                            }
                                        }
                                    });
                                    if let Some(e) = failed {
                                        completer_error.lock().get_or_insert(e.into());
                                    }
                                } else if let Err(e) = complete_compressed(
                                    store,
                                    &work,
                                    chunk_amps,
                                    completer_codec.as_ref().expect("codec prepared"),
                                ) {
                                    completer_error.lock().get_or_insert(e);
                                }
                                stage_groups_device_ref.fetch_add(1, Ordering::Relaxed);
                                lane_groups[di].fetch_add(1, Ordering::Relaxed);
                                let _ = pool_tx.send(work.slot);
                            }
                        }
                    }
                });
            }

            // --- producer (this thread): decompress + specialize ------------
            'groups: for (group, &shard) in work.groups.iter().zip(&work.shards) {
                if error.lock().is_some() {
                    break 'groups;
                }
                // The driver's shard policy names the device; guard against
                // a config/fleet mismatch rather than indexing out of range.
                let di = shard % n_dev;
                // Acquire a staging slot from that device's pool (poll so a
                // dead completer cannot wedge the producer).
                let slot = loop {
                    match pool_rxs[di].recv_timeout(Duration::from_millis(50)) {
                        Ok(s) => break s,
                        Err(RecvTimeoutError::Timeout) => {
                            if error.lock().is_some() {
                                break 'groups;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => break 'groups,
                    }
                };
                let amps = group.len() * chunk_amps;
                let mut payloads = None;
                let mut failed = None;
                {
                    let _span = telemetry.stage_span(Role::Decompress, si);
                    // Compressed transfer skips the host decode entirely:
                    // the stored payloads ship as-is. A refusing tier
                    // (e.g. a codec-less dense store) drops the whole
                    // group back to raw staging.
                    if compressed_mode {
                        match fetch_payloads(store, group) {
                            Ok(ps) => payloads = ps,
                            Err(e) => failed = Some(e),
                        }
                    }
                    if failed.is_none() && payloads.is_none() {
                        lanes[di].pinned[slot].write(|data| {
                            for (j, &chunk) in group.iter().enumerate() {
                                if let Err(e) = store.load_chunk(
                                    chunk,
                                    &mut data[j * chunk_amps..(j + 1) * chunk_amps],
                                ) {
                                    failed = Some(e);
                                    return;
                                }
                            }
                        });
                    }
                }
                if let Some(e) = failed {
                    *error.lock() = Some(e.into());
                    break 'groups;
                }
                // A group staged raw that loaded as all zero has nothing to
                // upload, apply or write back (the CPU loop's post-load
                // skip): its slot goes straight back to the pool. It still
                // counts as a group of this lane.
                if payloads.is_none() && ctx.group_is_zero(group) {
                    stage_groups_device.fetch_add(1, Ordering::Relaxed);
                    lane_groups[di].fetch_add(1, Ordering::Relaxed);
                    let _ = pool_txs[di].send(slot);
                    continue;
                }

                let ops = specialize_stage(stage, chunk_bits, group[0], counters);
                let work = Work {
                    group: group.clone(),
                    amps,
                    slot,
                    stage: si,
                    ops,
                    payloads,
                    cells: Vec::new(),
                };
                if to_device_txs[di].send(ToDevice::Work(work)).is_err() {
                    break 'groups;
                }
                if !pipelined {
                    // Serial ablation: drain that device's pipeline after
                    // every group (only one lane is ever in flight, so the
                    // no-role-overlap invariant survives the fleet).
                    if to_device_txs[di].send(ToDevice::Drain).is_err() {
                        break 'groups;
                    }
                    if drain_ack_rxs[di].recv().is_err() {
                        break 'groups;
                    }
                }
            }
            // Stage barrier: dropping the senders winds every lane down and
            // the scope join waits for all roles to finish.
            drop(to_device_txs);
        })
        .expect("pipeline thread panicked");

        self.groups_device += stage_groups_device.into_inner();
        match error.into_inner() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn finish(&mut self, ctx: &ExecContext) -> Result<ExecutorStats, EngineError> {
        // The run's state leaves `self`, which is again what `new_fleet` made
        // and can serve another run. Dropping `run` detaches the devices'
        // telemetry.
        let fresh = DevicePipelineExecutor::new_fleet(self.devices, self.pipelined);
        let mut run = std::mem::replace(self, fresh);
        // Drain every lane's stream first so all device counters have
        // landed, then free its buffers — every lane, even after a failure.
        // Each lane yields one StreamStats.
        let mut first_error: Option<EngineError> = None;
        let mut per_device = Vec::with_capacity(run.lanes.len());
        for (lane, device) in run.lanes.drain(..).zip(run.devices) {
            match lane.stream.synchronize() {
                Ok(stats) => per_device.push(stats),
                Err(e) => {
                    first_error.get_or_insert(e.into());
                }
            }
            for db in lane.dev_bufs {
                if let Err(e) = device.free(db) {
                    first_error.get_or_insert(e.into());
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        let mut device_stats = StreamStats::default();
        for s in &per_device {
            merge_stream_stats(&mut device_stats, s);
        }
        ctx.telemetry.set_device_lanes(
            per_device
                .iter()
                .enumerate()
                .map(|(i, s)| DeviceLane {
                    device: i,
                    groups: run.lane_groups[i].load(Ordering::Relaxed) as u64,
                    bytes_h2d: s.bytes_h2d as u64,
                    bytes_d2h: s.bytes_d2h as u64,
                    kernel_time_ns: s.modeled_kernel.as_nanos() as u64,
                    modeled_ns: s.modeled.as_nanos() as u64,
                })
                .collect(),
        );
        let staging_bytes = run.devices.len()
            * STAGING_SLOTS
            * run.max_group_amps
            * std::mem::size_of::<Complex64>();
        Ok(ExecutorStats {
            gates_applied: *run.counters.gates.get_mut(),
            scalars_applied: *run.counters.scalars.get_mut(),
            groups_device: run.groups_device,
            pinned_bytes: staging_bytes,
            device_buffer_bytes: staging_bytes,
            device: device_stats,
            per_device,
            ..ExecutorStats::default()
        })
    }
}

/// Runs `circuit` against `store` through `device`. With `pipelined =
/// false` every group completes before the next starts (the Fig. 2 ablation
/// baseline); with `true` the three roles overlap.
///
/// Geometry mismatches between the store and `cfg`/`circuit` surface as
/// [`EngineError::WidthMismatch`] / [`EngineError::ChunkMismatch`].
pub fn run(
    store: &Arc<dyn ChunkStore>,
    circuit: &Circuit,
    cfg: &MemQSimConfig,
    device: &Device,
    pipelined: bool,
) -> Result<RunReport, EngineError> {
    run_fleet(store, circuit, cfg, std::slice::from_ref(device), pipelined)
}

/// Runs `circuit` across an N-device fleet. Groups within a stage touch
/// disjoint chunk sets, so the result is bit-identical to [`run`] on one
/// device; only the modeled makespan shrinks. `cfg.devices` is overridden
/// by `devices.len()` so the driver's shard assignment always matches the
/// fleet that actually executes; an empty fleet is an
/// [`EngineError::Config`].
pub fn run_fleet(
    store: &Arc<dyn ChunkStore>,
    circuit: &Circuit,
    cfg: &MemQSimConfig,
    devices: &[Device],
    pipelined: bool,
) -> Result<RunReport, EngineError> {
    let mut cfg = *cfg;
    cfg.devices = devices.len().max(1);
    // The device path is a batch-per-stage executor: its internal
    // producer/issuer/completer threads already overlap within a stage, so
    // it rides the serial adapter for the streaming driver protocol.
    let mut executor = SerialAdapter::new(DevicePipelineExecutor::new_fleet(devices, pipelined));
    run_with_executor(store, circuit, &cfg, Granularity::Staged, &mut executor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, run_hybrid_and_compare};
    use mq_circuit::library;
    use mq_compress::CodecSpec;
    use mq_device::{DeviceSpec, DeviceTopology};
    use mq_telemetry::Counter;

    fn cfg(chunk_bits: u32) -> MemQSimConfig {
        testkit::cfg(chunk_bits, CodecSpec::Fpc)
    }

    #[test]
    fn suite_matches_dense_reference_pipelined() {
        for c in library::standard_suite(6) {
            let r = run_hybrid_and_compare(&c, &cfg(3), true, 1e-10);
            assert!(r.groups_device > 0, "{}", c.name());
            assert!(r.device.modeled_h2d > Duration::ZERO);
        }
    }

    #[test]
    fn suite_matches_dense_reference_serial() {
        for c in library::standard_suite(6) {
            run_hybrid_and_compare(&c, &cfg(3), false, 1e-10);
        }
    }

    #[test]
    fn device_oom_surfaces_as_engine_error() {
        let c = library::ghz(8);
        let config = cfg(4);
        let store = testkit::zero_store(8, 4, &config);
        // Device too small for even one staging buffer (2^(4+2) amps needed).
        let dev = Device::new(DeviceSpec::tiny_test(8));
        match run(&store, &c, &config, &dev, true) {
            Err(EngineError::Device(mq_device::DeviceError::OutOfMemory { .. })) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn modeled_overlap_never_exceeds_serial() {
        let c = library::qft(7);
        let r = run_hybrid_and_compare(&c, &cfg(3), true, 1e-10);
        assert!(r.modeled_overlapped <= r.modeled_serial);
        assert_eq!(
            r.modeled_serial,
            r.decompress + r.compress + r.cpu_apply + r.device.modeled
        );
    }

    #[test]
    fn report_durations_derive_from_telemetry() {
        let c = library::qft(7);
        let r = run_hybrid_and_compare(&c, &cfg(3), true, 1e-10);
        assert!(r.telemetry.balanced());
        assert_eq!(r.decompress, r.telemetry.busy(Role::Decompress));
        assert_eq!(r.compress, r.telemetry.busy(Role::Recompress));
        assert_eq!(r.cpu_apply, r.telemetry.busy(Role::CpuApply));
        assert!(r.telemetry.busy(Role::DeviceIssue) > Duration::ZERO);
        // Device counters agree with the stream's own accounting.
        assert_eq!(
            r.device.bytes_h2d as u64,
            r.telemetry.counter(Counter::BytesH2d)
        );
        assert_eq!(
            r.device.bytes_d2h as u64,
            r.telemetry.counter(Counter::BytesD2h)
        );
        assert!(r.telemetry.counter(Counter::KernelLaunches) > 0);
        assert!(r.telemetry.counter(Counter::BytesCompressed) > 0);
    }

    #[test]
    fn serial_run_records_no_role_overlap() {
        // The ablation drains the pipeline after every group, so no two
        // spans of different roles can ever be open at once.
        let c = library::qft(7);
        let r = run_hybrid_and_compare(&c, &cfg(3), false, 1e-10);
        assert!(r.telemetry.balanced());
        assert!(!r.telemetry.has_role_overlap());
        assert_eq!(r.telemetry.overlap(), Duration::ZERO);
        assert_eq!(r.executor, "device-pipeline[serial]");
    }

    fn run_fleet_n(
        c: &mq_circuit::Circuit,
        n: usize,
        pipelined: bool,
    ) -> (Vec<Complex64>, RunReport) {
        let config = cfg(3);
        let store = testkit::zero_store(c.n_qubits(), 3, &config);
        let fleet = DeviceTopology::homogeneous(n, DeviceSpec::tiny_test(1 << 12)).build();
        let report = run_fleet(&store, c, &config, &fleet, pipelined).unwrap();
        (store.to_dense().unwrap(), report)
    }

    #[test]
    fn fleet_is_bit_identical_to_single_device() {
        // Groups within a stage touch disjoint chunk sets, so scattering
        // them across devices cannot change a single bit of the state.
        let c = library::qft(7);
        let (one, r1) = run_fleet_n(&c, 1, true);
        for n in [2usize, 4] {
            let (state, r) = run_fleet_n(&c, n, true);
            assert_eq!(one, state, "{n} devices");
            assert_eq!(r.executor, format!("device-fleet[pipelined x{n}]"));
            assert_eq!(r.per_device.len(), n);
            assert_eq!(r.gates_applied, r1.gates_applied);
            assert_eq!(r.chunk_visits, r1.chunk_visits);
        }
        assert_eq!(r1.executor, "device-pipeline[pipelined]");
        assert_eq!(r1.per_device.len(), 1);
    }

    #[test]
    fn fleet_aggregate_is_makespan_plus_sums() {
        let c = library::qft(7);
        let (_, r) = run_fleet_n(&c, 3, true);
        let lanes = &r.per_device;
        assert_eq!(lanes.len(), 3);
        let makespan = lanes.iter().map(|s| s.modeled).max().unwrap();
        assert_eq!(r.device.modeled, makespan);
        assert_eq!(
            r.device.bytes_h2d,
            lanes.iter().map(|s| s.bytes_h2d).sum::<usize>()
        );
        assert_eq!(
            r.device.commands,
            lanes.iter().map(|s| s.commands).sum::<usize>()
        );
        assert_eq!(
            r.device.modeled_kernel,
            lanes.iter().map(|s| s.modeled_kernel).sum()
        );
        // Every lane took some work on this workload, and the per-lane
        // telemetry mirrors the stream accounting.
        let tl = r.telemetry.device_lanes();
        assert_eq!(tl.len(), 3);
        let total_groups: u64 = tl.iter().map(|l| l.groups).sum();
        assert_eq!(total_groups as usize, r.groups_device);
        for (i, lane) in tl.iter().enumerate() {
            assert_eq!(lane.device, i);
            assert!(lane.groups > 0, "lane {i} starved");
            assert_eq!(lane.bytes_h2d as usize, lanes[i].bytes_h2d);
            assert_eq!(lane.modeled_ns as u128, lanes[i].modeled.as_nanos());
        }
        assert!(r.telemetry.load_imbalance() >= 1.0);
    }

    #[test]
    fn fleet_shrinks_modeled_makespan() {
        // The same group set spread over 4 devices must finish (in modeled
        // time) well ahead of one device grinding through all of it.
        let c = library::qft(8);
        let (_, r1) = run_fleet_n(&c, 1, true);
        let (_, r4) = run_fleet_n(&c, 4, true);
        assert!(
            r4.device.modeled < r1.device.modeled,
            "4-dev {:?} !< 1-dev {:?}",
            r4.device.modeled,
            r1.device.modeled
        );
    }

    #[test]
    fn fleet_serial_ablation_keeps_role_exclusivity() {
        // The serial ablation drains the targeted lane after every group,
        // so even with multiple devices only one role is ever active.
        let c = library::qft(7);
        let (one, _) = run_fleet_n(&c, 1, false);
        let (state, r) = run_fleet_n(&c, 2, false);
        assert_eq!(one, state);
        assert_eq!(r.executor, "device-fleet[serial x2]");
        assert!(!r.telemetry.has_role_overlap());
    }

    #[test]
    fn empty_fleet_is_a_config_error_that_starts_nothing() {
        let config = cfg(3);
        let c = library::ghz(7);
        let store = testkit::zero_store(7, 3, &config);
        let no_devices = || EngineError::Config("fleet has no devices".to_string());
        assert_eq!(
            run_fleet(&store, &c, &config, &[], true).unwrap_err(),
            no_devices()
        );
        // Lanes own every stream thread and device buffer the executor
        // creates; the refusal comes before the first one.
        let mut exec = SerialAdapter::new(DevicePipelineExecutor::new_fleet(&[], true));
        let err = run_with_executor(&store, &c, &config, Granularity::Staged, &mut exec);
        assert_eq!(err.unwrap_err(), no_devices());
        assert!(exec.into_inner().lanes.is_empty());
        // The store was not touched and runs normally afterwards.
        let dev = testkit::tiny_device();
        run(&store, &c, &config, &dev, true).unwrap();
        assert_eq!(dev.used_amps(), 0);
        assert!((store.probability(0).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn one_executor_serves_run_after_run() {
        // `finish` hands back every lane and per-run counter, so the second
        // run starts from what `new_fleet` made, not behind stale lanes.
        let config = MemQSimConfig {
            devices: 2,
            ..cfg(3)
        };
        let c = library::qft(7);
        let fleet = DeviceTopology::homogeneous(2, DeviceSpec::tiny_test(1 << 12)).build();
        let mut exec = SerialAdapter::new(DevicePipelineExecutor::new_fleet(&fleet, true));
        let mut round = || {
            let store = testkit::zero_store(7, 3, &config);
            let r = run_with_executor(&store, &c, &config, Granularity::Staged, &mut exec);
            (store.to_dense().unwrap(), r.unwrap())
        };
        let (first_state, first) = round();
        let (second_state, second) = round();
        assert_eq!(first_state, second_state);
        assert!(first.groups_device > 0);
        assert_eq!(first.groups_device, second.groups_device);
        assert_eq!(first.gates_applied, second.gates_applied);
        assert_eq!(
            first.telemetry.device_lanes(),
            second.telemetry.device_lanes()
        );
        assert!(fleet.iter().all(|d| d.used_amps() == 0));
    }

    #[test]
    fn grover_through_the_full_pipeline() {
        let n = 6;
        let marked = 0b110101u64;
        let c = library::grover(n, marked, library::optimal_grover_iterations(n));
        let config = MemQSimConfig {
            codec: CodecSpec::Sz { eb: 1e-11 },
            ..cfg(3)
        };
        let store = testkit::zero_store(n, 3, &config);
        let dev = testkit::tiny_device();
        run(&store, &c, &config, &dev, true).unwrap();
        let p = store.probability(marked as usize).unwrap();
        assert!(p > 0.9, "p = {p}");
    }

    #[test]
    fn report_byte_accounting() {
        let c = library::ghz(7);
        let r = run_hybrid_and_compare(&c, &cfg(3), true, 1e-10);
        // 2 slots * 2^(3+2) amps * 16 bytes.
        assert_eq!(r.pinned_bytes, 2 * (1 << 5) * 16);
        assert_eq!(r.device_buffer_bytes, r.pinned_bytes);
        assert!(r.peak_compressed_bytes > 0);
        assert!(r.peak_resident_bytes >= r.peak_compressed_bytes);
        assert!(r.peak_working_bytes() >= r.pinned_bytes);
    }

    #[test]
    fn cached_pipeline_matches_and_cuts_codec_traffic() {
        let c = library::qft(7);
        let base = cfg(3);
        let cached = MemQSimConfig {
            // Room for half the chunks (16 chunks of 2^3 amps).
            cache_bytes: 8 * (1 << 3) * 16,
            ..base
        };
        let uncached_r = run_hybrid_and_compare(&c, &base, true, 1e-10);
        let cached_r = run_hybrid_and_compare(&c, &cached, true, 1e-10);
        let visits = cached_r.telemetry.counter(Counter::ChunkVisits);
        assert_eq!(
            cached_r.telemetry.counter(Counter::CacheHits)
                + cached_r.telemetry.counter(Counter::CacheMisses),
            visits
        );
        assert!(cached_r.telemetry.counter(Counter::CacheHits) > 0);
        assert!(
            cached_r.telemetry.counter(Counter::BytesDecompressed)
                < uncached_r.telemetry.counter(Counter::BytesDecompressed)
        );
        // Cache bytes are accounted against the resident footprint.
        assert!(cached_r.peak_resident_bytes >= cached_r.peak_compressed_bytes);
    }
}

#[cfg(test)]
mod compressed_transfer_tests {
    use super::*;
    use crate::testkit;
    use mq_circuit::library;
    use mq_circuit::unitary::run_dense;
    use mq_compress::CodecSpec;
    use mq_device::DeviceSpec;
    use mq_num::metrics::max_amp_err;
    use mq_telemetry::Counter;

    fn cfg(codec: CodecSpec, mode: TransferMode) -> MemQSimConfig {
        MemQSimConfig {
            transfer_mode: mode,
            ..testkit::cfg(3, codec)
        }
    }

    fn run_mode(
        circuit: &Circuit,
        codec: CodecSpec,
        mode: TransferMode,
        pipelined: bool,
    ) -> (Vec<Complex64>, RunReport) {
        let config = cfg(codec, mode);
        let store = testkit::zero_store(circuit.n_qubits(), 3, &config);
        let dev = Device::new(DeviceSpec::tiny_test(1 << 12));
        let report = run(&store, circuit, &config, &dev, pipelined).unwrap();
        (store.to_dense().unwrap(), report)
    }

    #[test]
    fn compressed_mode_is_bit_identical_to_raw() {
        // The group's scalars ride its kernel command in both modes, so the
        // device-side encode's payloads match the raw path byte for byte — even
        // under a lossy codec the final states are identical, not just
        // close.
        for codec in [CodecSpec::Fpc, CodecSpec::Sz { eb: 1e-9 }] {
            for circuit in library::standard_suite(7) {
                let (raw, _) = run_mode(&circuit, codec, TransferMode::Raw, true);
                let (compressed, _) = run_mode(&circuit, codec, TransferMode::Compressed, true);
                assert_eq!(raw, compressed, "{} under {codec}", circuit.name());
                assert!(max_amp_err(&compressed, &run_dense(&circuit, 0)) < 1e-8);
            }
        }
    }

    #[test]
    fn compressed_mode_matches_accounting_and_cuts_link_bytes() {
        // From a state with no zero chunk, so no group is skipped: only the
        // raw mode sees amplitudes, and only it can tell a group is zero.
        let circuit = library::qft(7);
        let start = run_dense(&library::random_circuit(7, 4, 3), 0);
        let run_from_start = |mode| {
            let config = cfg(CodecSpec::Fpc, mode);
            let store = crate::store::build_store_from_amplitudes(&start, &config).unwrap();
            let dev = Device::new(DeviceSpec::tiny_test(1 << 12));
            run(&store, &circuit, &config, &dev, true).unwrap()
        };
        let raw = run_from_start(TransferMode::Raw);
        let comp = run_from_start(TransferMode::Compressed);
        // Same work happened: gate, scalar, visit, stage and group
        // accounting are identical between the modes.
        assert_eq!((raw.chunk_visits_elided, comp.chunk_visits_elided), (0, 0));
        assert_eq!(raw.gates_applied, comp.gates_applied);
        assert_eq!(raw.scalars_applied, comp.scalars_applied);
        assert_eq!(raw.chunk_visits, comp.chunk_visits);
        assert_eq!(raw.stages, comp.stages);
        assert_eq!(raw.groups_device, comp.groups_device);
        // But only the compressed bytes crossed the link, and the codec
        // kernels were charged on-stream.
        assert!(
            comp.device.bytes_h2d < raw.device.bytes_h2d,
            "compressed {} vs raw {}",
            comp.device.bytes_h2d,
            raw.device.bytes_h2d
        );
        assert_eq!(comp.device.bytes_h2d, comp.device.bytes_h2d_compressed);
        assert_eq!(comp.device.bytes_d2h, comp.device.bytes_d2h_compressed);
        assert!(comp.device.modeled_decode > Duration::ZERO);
        assert!(comp.device.modeled_encode > Duration::ZERO);
        assert_eq!(raw.device.bytes_h2d_compressed, 0);
        assert_eq!(raw.device.modeled_decode, Duration::ZERO);
        // The run record carries the same numbers as counters.
        assert_eq!(
            comp.telemetry.counter(Counter::BytesH2dCompressed),
            comp.device.bytes_h2d_compressed as u64
        );
        assert_eq!(
            comp.telemetry.counter(Counter::DeviceDecodeTime),
            comp.device.modeled_decode.as_nanos() as u64
        );
        // No host codec traffic on the device half of the stage: the
        // compressed run decodes strictly less on the host.
        assert!(
            comp.telemetry.counter(Counter::BytesDecompressed)
                < raw.telemetry.counter(Counter::BytesDecompressed)
        );
    }

    #[test]
    fn compressed_mode_works_serial_and_pipelined() {
        let circuit = library::qft(7);
        let want = run_dense(&circuit, 0);
        for pipelined in [false, true] {
            let (state, _) = run_mode(
                &circuit,
                CodecSpec::Fpc,
                TransferMode::Compressed,
                pipelined,
            );
            let err = max_amp_err(&state, &want);
            assert!(err < 1e-10, "pipelined={pipelined}: {err}");
        }
    }

    #[test]
    fn active_cache_serves_payloads() {
        // A residency cache serves payloads encode-through (dirty residents
        // written back first), so compressed transfer survives a nonzero
        // cache budget instead of degrading to whole-group raw staging.
        let circuit = library::qft(7);
        let config = MemQSimConfig {
            cache_bytes: 8 * (1 << 3) * 16,
            ..cfg(CodecSpec::Fpc, TransferMode::Compressed)
        };
        let store = testkit::zero_store(7, 3, &config);
        let dev = Device::new(DeviceSpec::tiny_test(1 << 12));
        let report = run(&store, &circuit, &config, &dev, true).unwrap();
        assert!(report.device.bytes_h2d_compressed > 0);
        let hits = report.telemetry.counter(Counter::CacheHits);
        let misses = report.telemetry.counter(Counter::CacheMisses);
        assert_eq!(
            hits + misses,
            report.telemetry.counter(Counter::ChunkVisits)
        );
        assert!(max_amp_err(&store.to_dense().unwrap(), &run_dense(&circuit, 0)) < 1e-10);
    }
}

#[cfg(test)]
mod max_high_one_tests {
    use super::*;
    use crate::testkit;
    use mq_circuit::library;
    use mq_circuit::unitary::run_dense;
    use mq_compress::CodecSpec;
    use mq_device::DeviceSpec;
    use mq_num::metrics::max_amp_err;

    #[test]
    fn pair_only_scheduling_works_end_to_end() {
        // max_high_qubits = 1: every cross-chunk stage handles exactly one
        // pairing qubit, so groups are chunk *pairs* — the minimal working
        // set (GHZ/W/BV never need more).
        let cfg = MemQSimConfig {
            max_high_qubits: 1,
            ..testkit::cfg(3, CodecSpec::Fpc)
        };
        for circuit in [library::ghz(8), library::w_state(8)] {
            let store = testkit::zero_store(8, 3, &cfg);
            let dev = Device::new(DeviceSpec::tiny_test(1 << 10));
            run(&store, &circuit, &cfg, &dev, true).unwrap();
            let err = max_amp_err(&store.to_dense().unwrap(), &run_dense(&circuit, 0));
            assert!(err < 1e-10, "{}: {err}", circuit.name());
        }
    }
}
