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
//! step 1: `submit` hands its staging slot back and returns, exactly where
//! the CPU loop drops such a group (see [`exec`](super::exec) on zero
//! groups). Compressed transfers move payloads only, so that mode never
//! sees a zero and skips nothing.
//!
//! Three roles run concurrently, as in Fig. 2, and [`DevicePipelineExecutor`]
//! implements [`ChunkExecutor`] natively to let them:
//!
//! * **decompress** is the driver's own thread: [`submit`](ChunkExecutor::submit)
//!   takes a staging slot, decodes the group into it, specializes the stage
//!   and enqueues upload → kernels → download on the lane's stream. Those
//!   are non-blocking sends, recorded as [`Role::DeviceIssue`] on that same
//!   thread;
//! * the **device** is the stream's worker thread, which belongs to
//!   `mq-device`: one in-order stream per device, so upload, kernels and
//!   download of a group are charged back to back on its modeled clock;
//! * **recompress** is one completer thread per device, started by
//!   [`prepare`](ChunkExecutor::prepare) and joined by
//!   [`finish`](ChunkExecutor::finish): it waits for a group's event,
//!   stores the results and hands the slot back.
//!
//! A lane has `STAGING_SLOTS` (2) staging slots, so step 1 of group `k+1`
//! overlaps steps 2–4 of group `k`, and a `submit` that finds none free
//! waits: that is the backpressure. [`end_stage`](ChunkExecutor::end_stage)
//! is the barrier — every lane has every slot back (a stage may read chunks
//! the previous stage wrote). With `pipelined = false` every `submit` ends
//! in that barrier too.
//!
//! Over a fleet there is one lane — staging slots, device buffers, stream,
//! completer — **per device**, and `submit` alone picks the lane of each
//! group: device `d` takes the `d`-th contiguous range of the stage's
//! groups, in the driver's ascending-base-chunk order. Groups within a
//! stage touch disjoint chunk sets, so fleet runs are bit-identical to
//! single-device runs; only the modeled makespan (max over devices)
//! shrinks. `cfg.workers` is not read here.
//!
//! The streaming skeleton (validation, plan, accounting, report) lives in
//! [`exec::run_with_executor`](super::exec); this module contributes only
//! the [`DevicePipelineExecutor`] compute path.

use crate::config::{MemQSimConfig, TransferMode};
use crate::engine::exec::{
    load_group, run_with_executor, specialize_stage, store_group, ApplyCounters, ChunkExecutor,
    ExecContext, ExecutorStats, GroupWork,
};
use crate::engine::{EngineError, Granularity, RunReport};
use crate::store::ChunkStore;
use crossbeam::channel::{bounded, Receiver, Sender};
use mq_circuit::Circuit;
use mq_compress::{decompress_complex, Codec, CodecError};
use mq_device::{Device, DeviceBuffer, Event, PayloadCell, PinnedBuffer, Stream, StreamStats};
use mq_num::Complex64;
use mq_telemetry::{DeviceLane, Role, Telemetry};
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;

/// One group on its way through a device, as `submit` hands it to the
/// lane's completer.
struct Work {
    group: Vec<usize>,
    slot: usize,
    stage: u32,
    /// Write-back payload cells, filled by the device-side encode commands
    /// in compressed mode; empty on the raw path.
    cells: Vec<PayloadCell>,
}

/// Tries to fetch every chunk of `group` as a compressed payload. `None`
/// when any tier refuses (e.g. a dense or spill tier with no codec): the
/// caller falls back to raw staging for the whole group, so a group's
/// transfer mode is always uniform.
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

/// In-flight staging slots per device — classic double buffering: one
/// group on the device while the host decodes the next. One slot serialises
/// decode against the device (1.45x the wall) and a third buys no wall for
/// half again the staging memory (EXPERIMENTS.md A10).
const STAGING_SLOTS: usize = 2;

const COMPLETER_PANICKED: EngineError = EngineError::WorkerPanicked { role: "recompress" };

/// The run's first error from any completer, surfaced by the next `submit`
/// or barrier.
type FirstError = Arc<Mutex<Option<EngineError>>>;

/// The recompress role of one lane: owned clones of what the run shares,
/// so the thread lives from `prepare` to `finish` across every stage.
struct Completer {
    store: Arc<dyn ChunkStore>,
    telemetry: Telemetry,
    codec: Option<Arc<dyn Codec>>,
    pinned: Vec<PinnedBuffer>,
    stored: Sender<usize>,
    error: FirstError,
}

impl Completer {
    /// Takes issued groups until `finish` hangs up: wait for the device,
    /// store the results, return the slot.
    fn run(self, issued: Receiver<(Work, Event)>) {
        while let Ok((work, event)) = issued.recv() {
            // Waiting on the device is idle time, not recompress work; the
            // span opens only once results are back.
            event.wait();
            let span = self.telemetry.stage_span(Role::Recompress, work.stage);
            if let Err(e) = self.write_back(&work) {
                self.error.lock().get_or_insert(e);
            }
            // The slot goes back after the span closes: the serial
            // ablation's next decode must not start under an open span.
            drop(span);
            let _ = self.stored.send(work.slot);
        }
    }

    fn write_back(&self, work: &Work) -> Result<(), EngineError> {
        let chunk_amps = self.store.chunk_amps();
        if work.cells.is_empty() {
            // Raw path: recompress chunk by chunk.
            return self.pinned[work.slot]
                .write(|data| store_group(&*self.store, &work.group, data, chunk_amps));
        }
        // Compressed path: the device-encoded payloads land verbatim; a
        // tier that refuses a payload gets a host decode + raw store.
        let mut scratch = Vec::new();
        for (cell, &chunk) in work.cells.iter().zip(&work.group) {
            let payload = cell.take().ok_or_else(|| {
                EngineError::Codec(CodecError::Io(format!(
                    "device encode produced no payload for chunk {chunk}"
                )))
            })?;
            if !self.store.store_chunk_payload(chunk, payload.clone())? {
                let codec = self.codec.as_ref().expect("cells imply a codec");
                scratch.resize(chunk_amps, Complex64::ZERO);
                decompress_complex(codec.as_ref(), &payload, &mut scratch)?;
                self.store.store_chunk(chunk, &scratch)?;
            }
        }
        Ok(())
    }
}

/// One fleet member's run-scoped resources. A lane's slots are private to
/// its device, so the per-device pipelines never contend for staging memory.
struct Lane {
    pinned: Vec<PinnedBuffer>,
    dev_bufs: Vec<DeviceBuffer>,
    stream: Stream,
    /// Staging slots no group holds: `submit` takes one per group.
    free: Vec<usize>,
    /// Slots coming back from the completer, a failed group's too. It holds
    /// the only sender, so a completer that is gone reads as a hang-up
    /// here, never as a wait without end.
    stored: Receiver<usize>,
    /// Where issued groups go, and the thread that takes them.
    issued: Sender<(Work, Event)>,
    completer: JoinHandle<()>,
    /// Groups submitted to this lane, for its telemetry row.
    groups: u64,
}

/// The lane that takes group `seq` of a stage of `n_groups`: the driver
/// submits groups by ascending base chunk, and this splits that order into
/// `lanes` contiguous ranges as even as integer division makes them, so
/// each device holds one range of the chunk space and the makespan stays
/// balanced. Any split is bit-exact; a `seq` past `n_groups` (a caller that
/// skipped `begin_stage`) still lands on a lane.
fn lane_for(seq: usize, n_groups: usize, lanes: usize) -> usize {
    seq * lanes / n_groups.max(seq + 1)
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

/// [`ChunkExecutor`] running the paper's three-role pipeline against a
/// simulated device fleet (see the module docs for who runs which role) —
/// overlapped across `STAGING_SLOTS` (2) in-flight slots per device when
/// `pipelined`, fully drained after every group when not (the Fig. 2
/// ablation baseline). Each device takes one contiguous range of every
/// stage's groups. One executor can serve any number of runs: `finish`
/// leaves it as `new_fleet` made it.
pub struct DevicePipelineExecutor<'d> {
    devices: &'d [Device],
    pipelined: bool,
    max_group_amps: usize,
    lanes: Vec<Lane>,
    /// Groups the open stage announced in `begin_stage`, for [`lane_for`].
    n_groups: usize,
    /// `Some` under [`TransferMode::Compressed`]: the device-side codec,
    /// built from the same [`CodecSpec`](mq_compress::CodecSpec) as the
    /// store's — specs build stateless codecs, so payloads are
    /// byte-compatible across the two instances.
    codec: Option<Arc<dyn Codec>>,
    counters: ApplyCounters,
    error: FirstError,
    telemetry_attached: bool,
}

impl<'d> DevicePipelineExecutor<'d> {
    /// Creates a single-device executor over `device`; `pipelined = false`
    /// drains the pipeline after every group (the serial ablation).
    pub fn new(device: &'d Device, pipelined: bool) -> DevicePipelineExecutor<'d> {
        DevicePipelineExecutor::new_fleet(std::slice::from_ref(device), pipelined)
    }

    /// Creates an executor over an N-device fleet. Every device gets its
    /// own staging slots, stream and completer, and takes one contiguous
    /// range of every stage's groups. An empty fleet is refused by
    /// [`prepare`](ChunkExecutor::prepare) with [`EngineError::Config`].
    pub fn new_fleet(devices: &'d [Device], pipelined: bool) -> DevicePipelineExecutor<'d> {
        DevicePipelineExecutor {
            devices,
            pipelined,
            max_group_amps: 0,
            lanes: Vec::new(),
            n_groups: 0,
            codec: None,
            counters: ApplyCounters::default(),
            error: FirstError::default(),
            telemetry_attached: false,
        }
    }

    fn first_error(&self) -> Result<(), EngineError> {
        self.error.lock().take().map_or(Ok(()), Err)
    }

    /// Waits for lane `di`'s completer to hand a slot back; a completer that
    /// panicked hangs up instead.
    fn wait_stored(&self, di: usize) -> Result<usize, EngineError> {
        let lane = &self.lanes[di];
        lane.stored.recv().map_err(|_| COMPLETER_PANICKED)
    }

    /// Waits until every lane has every slot back: no group is on a device
    /// or being stored.
    fn barrier(&mut self) -> Result<(), EngineError> {
        for di in 0..self.lanes.len() {
            while self.lanes[di].free.len() < STAGING_SLOTS {
                let slot = self.wait_stored(di)?;
                self.lanes[di].free.push(slot);
            }
        }
        self.first_error()
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

impl ChunkExecutor for DevicePipelineExecutor<'_> {
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
        self.codec = if ctx.cfg.transfer_mode == TransferMode::Compressed {
            Some(Arc::from(
                ctx.cfg.codec.build_with_precision(ctx.cfg.precision),
            ))
        } else {
            None
        };

        // Staging per device: `STAGING_SLOTS` pinned host buffers + matching
        // device buffers on that device's own arena, and the one thread per
        // device this executor owns. The lane goes into `self` before its
        // device buffers are allocated, one by one, so a mid-way OOM still
        // joins the thread and releases the successful allocations in
        // `finish`.
        for device in self.devices {
            let pinned: Vec<_> = (0..STAGING_SLOTS)
                .map(|_| PinnedBuffer::new(self.max_group_amps))
                .collect();
            let (stored_tx, stored) = bounded(STAGING_SLOTS);
            let (issued, issued_rx) = bounded(STAGING_SLOTS);
            let completer = Completer {
                store: Arc::clone(&ctx.store),
                telemetry: ctx.telemetry.clone(),
                codec: self.codec.clone(),
                pinned: pinned.clone(),
                stored: stored_tx,
                error: Arc::clone(&self.error),
            };
            let completer = std::thread::Builder::new()
                .name("mq-recompress".to_string())
                .spawn(move || completer.run(issued_rx))
                .expect("failed to spawn the recompress thread");
            self.lanes.push(Lane {
                pinned,
                dev_bufs: Vec::new(),
                stream: device.create_stream(),
                free: (0..STAGING_SLOTS).collect(),
                stored,
                issued,
                completer,
                groups: 0,
            });
            let lane = self.lanes.last_mut().expect("just pushed");
            for _ in 0..STAGING_SLOTS {
                lane.dev_bufs.push(device.alloc(self.max_group_amps)?);
            }
        }
        Ok(())
    }

    fn begin_stage(
        &mut self,
        ctx: &ExecContext,
        index: u32,
        n_groups: usize,
    ) -> Result<(), EngineError> {
        self.n_groups = n_groups;
        // A fidelity budget hands each stage its own error allowance; this
        // executor's private codec instance (compressed transfers) must
        // track the store codec's bound or payload parity breaks.
        if let Some(codec) = &self.codec {
            codec.set_dynamic_bound(ctx.stage_error_allowance(index));
        }
        Ok(())
    }

    fn submit(&mut self, ctx: &ExecContext, group: GroupWork) -> Result<(), EngineError> {
        let (stage, chunks) = (group.stage, group.chunks);
        let di = lane_for(group.seq, self.n_groups, self.lanes.len());
        // No free slot is the backpressure: wait for a group to be stored.
        let slot = match self.lanes[di].free.pop() {
            Some(slot) => slot,
            None => self.wait_stored(di)?,
        };
        self.first_error()?;
        let lane = &mut self.lanes[di];
        lane.groups += 1;
        let chunk_amps = ctx.chunk_amps();

        let mut payloads = None;
        {
            let _span = ctx.telemetry.stage_span(Role::Decompress, stage);
            // Compressed transfer skips the host decode entirely: the
            // stored payloads ship as-is. A refusing tier (e.g. a
            // codec-less dense store) drops the whole group back to raw
            // staging.
            if self.codec.is_some() {
                payloads = fetch_payloads(&ctx.store, &chunks)?;
            }
            if payloads.is_none() {
                lane.pinned[slot]
                    .write(|data| load_group(&*ctx.store, &chunks, data, chunk_amps))?;
            }
        }
        // A group staged raw that loaded as all zero has nothing to upload,
        // apply or write back (the CPU loop's post-load skip): its slot
        // is free again at once.
        if payloads.is_none() && ctx.group_is_zero(&chunks) {
            lane.free.push(slot);
            return Ok(());
        }

        // A group's op list is one kernel command whose body is the CPU
        // path's blocked sweep.
        let ops = specialize_stage(
            ctx.stage(stage),
            ctx.plan.chunk_bits,
            chunks[0],
            &self.counters,
        );
        let amps = chunks.len() * chunk_amps;
        let (stream, pb, db) = (&lane.stream, &lane.pinned[slot], lane.dev_bufs[slot]);
        let mut cells = Vec::new();
        let span = ctx.telemetry.stage_span(Role::DeviceIssue, stage);
        match payloads.zip(self.codec.as_ref()) {
            // Compressed transfer: the payloads go over the link as-is and
            // a device-side codec kernel inflates them; on the way back, an
            // encode kernel fills the payload cells that carry the bytes
            // home.
            Some((payloads, codec)) => {
                for (j, p) in payloads.into_iter().enumerate() {
                    stream.decode_chunk(p, codec, db, j * chunk_amps, chunk_amps);
                }
                stream.run_gates_region(db, amps, ops);
                cells.extend(
                    (0..chunks.len())
                        .map(|j| stream.encode_chunk(db, j * chunk_amps, chunk_amps, codec)),
                );
            }
            None => {
                stream.h2d(pb, 0, db, 0, amps);
                stream.run_gates_region(db, amps, ops);
                stream.d2h(db, 0, pb, 0, amps);
            }
        }
        let event = stream.record_event();
        drop(span);

        let work = Work {
            group: chunks,
            slot,
            stage,
            cells,
        };
        lane.issued
            .send((work, event))
            .map_err(|_| COMPLETER_PANICKED)?;
        if !self.pipelined {
            // Serial ablation: the group is stored before the next one is
            // decoded, on whichever device, so no two roles ever overlap.
            self.barrier()?;
        }
        Ok(())
    }

    fn end_stage(&mut self, _ctx: &ExecContext, _index: u32) -> Result<(), EngineError> {
        self.barrier()
    }

    fn finish(&mut self, ctx: &ExecContext) -> Result<ExecutorStats, EngineError> {
        // The run's state leaves `self`, which is again what `new_fleet` made
        // and can serve another run. Dropping `run` detaches the devices'
        // telemetry.
        let fresh = DevicePipelineExecutor::new_fleet(self.devices, self.pipelined);
        let mut run = std::mem::replace(self, fresh);
        // Per lane — every lane, even after a failure: hang up on the
        // completer, which stores what a failed `submit` left in flight and
        // exits; drain the stream so all device counters have landed; free
        // the buffers. Each lane yields one StreamStats.
        let mut first_error: Option<EngineError> = None;
        let mut per_device = Vec::with_capacity(run.lanes.len());
        let mut device_lanes = Vec::with_capacity(run.lanes.len());
        for (i, (lane, device)) in run.lanes.drain(..).zip(run.devices).enumerate() {
            drop(lane.issued);
            if lane.completer.join().is_err() {
                first_error.get_or_insert(COMPLETER_PANICKED);
            }
            match lane.stream.synchronize() {
                Ok(s) => {
                    device_lanes.push(DeviceLane {
                        device: i,
                        groups: lane.groups,
                        bytes_h2d: s.bytes_h2d as u64,
                        bytes_d2h: s.bytes_d2h as u64,
                        kernel_time_ns: s.modeled_kernel.as_nanos() as u64,
                        modeled_ns: s.modeled.as_nanos() as u64,
                    });
                    per_device.push(s);
                }
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
        let groups_device = device_lanes.iter().map(|l| l.groups as usize).sum();
        ctx.telemetry.set_device_lanes(device_lanes);
        let staging_bytes = run.devices.len()
            * STAGING_SLOTS
            * run.max_group_amps
            * std::mem::size_of::<Complex64>();
        Ok(ExecutorStats {
            gates_applied: *run.counters.gates.get_mut(),
            scalars_applied: *run.counters.scalars.get_mut(),
            groups_device,
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
/// device; only the modeled makespan shrinks. An empty fleet is an
/// [`EngineError::Config`].
pub fn run_fleet(
    store: &Arc<dyn ChunkStore>,
    circuit: &Circuit,
    cfg: &MemQSimConfig,
    devices: &[Device],
    pipelined: bool,
) -> Result<RunReport, EngineError> {
    let mut executor = DevicePipelineExecutor::new_fleet(devices, pipelined);
    run_with_executor(store, circuit, cfg, Granularity::Staged, &mut executor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, run_hybrid_and_compare};
    use mq_circuit::library;
    use mq_compress::CodecSpec;
    use mq_device::{DeviceSpec, DeviceTopology};
    use mq_telemetry::Counter;
    use std::time::Duration;

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
    fn lane_split_is_even_and_always_in_range() {
        // 10 groups over 4 lanes: contiguous ranges of 3, 2, 3, 2.
        let split: Vec<usize> = (0..10).map(|seq| lane_for(seq, 10, 4)).collect();
        assert_eq!(split, [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]);
        // Past the announced count, or with none announced, still a lane.
        assert_eq!((lane_for(12, 10, 4), lane_for(5, 0, 4)), (3, 3));
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
        let mut exec = DevicePipelineExecutor::new_fleet(&[], true);
        let err = run_with_executor(&store, &c, &config, Granularity::Staged, &mut exec);
        assert_eq!(err.unwrap_err(), no_devices());
        assert!(exec.lanes.is_empty());
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
        let config = cfg(3);
        let c = library::qft(7);
        let fleet = DeviceTopology::homogeneous(2, DeviceSpec::tiny_test(1 << 12)).build();
        let mut exec = DevicePipelineExecutor::new_fleet(&fleet, true);
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
        assert!(r.peak_resident_bytes > 0);
        assert!(r.peak_working_bytes() >= r.pinned_bytes);
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
    use std::time::Duration;

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
        let staging = [false, true].map(|pipelined| {
            let (state, report) = run_mode(
                &circuit,
                CodecSpec::Fpc,
                TransferMode::Compressed,
                pipelined,
            );
            let err = max_amp_err(&state, &want);
            assert!(err < 1e-10, "pipelined={pipelined}: {err}");
            (report.pinned_bytes, report.device_buffer_bytes)
        });
        // The serial ablation holds the same staging memory.
        assert_eq!(staging[0], staging[1]);
        assert!(staging[0].0 > 0);
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
