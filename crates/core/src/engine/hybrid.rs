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
//!   `mq-device`: one in-order stream, so upload, kernels and download of
//!   a group are charged back to back on its modeled clock, and each
//!   command it executes is a [`Role::Device`] span. The stream does each
//!   command's real work on the process-wide worker team
//!   (`mq_num::parallel`), as a GPU does on its SMs: the gate sweep with
//!   `cores()` members, each copy in one contiguous share per member.
//!   Decode and encode never call the team, so it is the stream's alone;
//!   another run's stream that finds it busy runs its shares on scoped
//!   threads;
//! * **recompress** is one completer thread, started by
//!   [`prepare`](ChunkExecutor::prepare) and joined by
//!   [`finish`](ChunkExecutor::finish): it waits for a group's event,
//!   stores the results and hands the slot back.
//!
//! The lane has `STAGING_SLOTS` (2) staging slots, so step 1 of group `k+1`
//! overlaps steps 2–4 of group `k`, and a `submit` that finds none free
//! waits: that is the backpressure. [`end_stage`](ChunkExecutor::end_stage)
//! is the barrier — the lane has every slot back (a stage may read chunks
//! the previous stage wrote). With `pipelined = false` every `submit` ends
//! in that barrier too, so no decode or encode runs while the device works.
//!
//! `cfg.workers` is not read here: decode and encode run on the caller's
//! and the completer's threads, and the stream's work takes the whole team.
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
use mq_telemetry::{Role, Telemetry};
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
/// when any tier refuses (a dense tier has no codec): the
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

/// In-flight staging slots — classic double buffering: one
/// group on the device while the host decodes the next. One slot serialises
/// decode against the device (1.45x the wall) and a third buys no wall for
/// half again the staging memory (EXPERIMENTS.md A10).
const STAGING_SLOTS: usize = 2;

const COMPLETER_PANICKED: EngineError = EngineError::WorkerPanicked { role: "recompress" };

/// The run's first error from the completer, surfaced by the next `submit`
/// or barrier.
type FirstError = Arc<Mutex<Option<EngineError>>>;

fn take_error(error: &FirstError) -> Result<(), EngineError> {
    error.lock().take().map_or(Ok(()), Err)
}

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

/// The run-scoped resources of the device lane, made by
/// [`prepare`](ChunkExecutor::prepare) and torn down by
/// [`finish`](ChunkExecutor::finish).
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
    /// Groups submitted to the device.
    groups: usize,
}

impl Lane {
    /// Waits for the completer to hand a slot back; a completer that
    /// panicked hangs up instead.
    fn wait_stored(&self) -> Result<usize, EngineError> {
        self.stored.recv().map_err(|_| COMPLETER_PANICKED)
    }

    /// Waits until every slot is back: no group is on the device or being
    /// stored.
    fn drain(&mut self) -> Result<(), EngineError> {
        while self.free.len() < STAGING_SLOTS {
            let slot = self.wait_stored()?;
            self.free.push(slot);
        }
        Ok(())
    }
}

/// [`ChunkExecutor`] running the paper's three-role pipeline against one
/// simulated device (see the module docs for who runs which role) —
/// overlapped across `STAGING_SLOTS` (2) in-flight slots when `pipelined`,
/// fully drained after every group when not (the Fig. 2 ablation baseline).
/// One executor can serve any number of runs: `finish` leaves it as `new`
/// made it.
pub struct DevicePipelineExecutor<'d> {
    device: &'d Device,
    pipelined: bool,
    max_group_amps: usize,
    lane: Option<Lane>,
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
    /// Creates an executor over `device`; `pipelined = false` drains the
    /// pipeline after every group (the serial ablation).
    pub fn new(device: &'d Device, pipelined: bool) -> DevicePipelineExecutor<'d> {
        DevicePipelineExecutor {
            device,
            pipelined,
            max_group_amps: 0,
            lane: None,
            codec: None,
            counters: ApplyCounters::default(),
            error: FirstError::default(),
            telemetry_attached: false,
        }
    }

    /// Waits until the lane has every slot back: no group is on the device
    /// or being stored.
    fn barrier(&mut self) -> Result<(), EngineError> {
        if let Some(lane) = &mut self.lane {
            lane.drain()?;
        }
        take_error(&self.error)
    }
}

impl Drop for DevicePipelineExecutor<'_> {
    fn drop(&mut self) {
        if self.telemetry_attached {
            self.device.detach_telemetry();
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
        format!("device-pipeline[{mode}]")
    }

    fn prepare(&mut self, ctx: &ExecContext) -> Result<(), EngineError> {
        // The device feeds transfer/kernel counters and its command spans
        // into the run record.
        self.device.attach_telemetry(ctx.telemetry.clone());
        self.telemetry_attached = true;

        self.max_group_amps = ctx.chunk_amps() << ctx.cfg.max_high_qubits;
        self.codec = if ctx.cfg.transfer_mode == TransferMode::Compressed {
            Some(Arc::from(
                ctx.cfg.codec.build_with_precision(ctx.cfg.precision),
            ))
        } else {
            None
        };

        // Staging: `STAGING_SLOTS` pinned host buffers + matching device
        // buffers, and the one thread this executor owns. The lane goes into
        // `self` before its device buffers are allocated, one by one, so a
        // mid-way OOM still joins the thread and releases the successful
        // allocations in `finish`.
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
        let lane = self.lane.insert(Lane {
            pinned,
            dev_bufs: Vec::new(),
            stream: self.device.create_stream(),
            free: (0..STAGING_SLOTS).collect(),
            stored,
            issued,
            completer,
            groups: 0,
        });
        for _ in 0..STAGING_SLOTS {
            lane.dev_bufs.push(self.device.alloc(self.max_group_amps)?);
        }
        Ok(())
    }

    fn begin_stage(
        &mut self,
        ctx: &ExecContext,
        index: u32,
        _n_groups: usize,
    ) -> Result<(), EngineError> {
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
        let lane = self.lane.as_mut().expect("prepare makes the lane");
        // No free slot is the backpressure: wait for a group to be stored.
        let slot = match lane.free.pop() {
            Some(slot) => slot,
            None => lane.wait_stored()?,
        };
        take_error(&self.error)?;
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
            // decoded, so no two host roles ever overlap.
            self.barrier()?;
        }
        Ok(())
    }

    fn end_stage(&mut self, _ctx: &ExecContext, _index: u32) -> Result<(), EngineError> {
        self.barrier()
    }

    fn finish(&mut self, _ctx: &ExecContext) -> Result<ExecutorStats, EngineError> {
        // The run's state leaves `self`, which is again what `new` made and
        // can serve another run. Dropping `run` detaches the device's
        // telemetry.
        let fresh = DevicePipelineExecutor::new(self.device, self.pipelined);
        let mut run = std::mem::replace(self, fresh);
        let Some(lane) = run.lane.take() else {
            return Ok(ExecutorStats::default());
        };
        // Even after a failure: hang up on the completer, which stores what
        // a failed `submit` left in flight and exits; drain the stream so
        // every device counter and span has landed; free the buffers.
        drop(lane.issued);
        let mut first_error = None;
        if lane.completer.join().is_err() {
            first_error = Some(COMPLETER_PANICKED);
        }
        let device = lane.stream.synchronize().unwrap_or_else(|e| {
            first_error.get_or_insert(e.into());
            StreamStats::default()
        });
        for db in lane.dev_bufs {
            if let Err(e) = run.device.free(db) {
                first_error.get_or_insert(e.into());
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        let staging_bytes = STAGING_SLOTS * run.max_group_amps * std::mem::size_of::<Complex64>();
        Ok(ExecutorStats {
            gates_applied: *run.counters.gates.get_mut(),
            scalars_applied: *run.counters.scalars.get_mut(),
            groups_device: lane.groups,
            pinned_bytes: staging_bytes,
            device_buffer_bytes: staging_bytes,
            device,
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
    let mut executor = DevicePipelineExecutor::new(device, pipelined);
    run_with_executor(store, circuit, cfg, Granularity::Staged, &mut executor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, run_hybrid_and_compare};
    use mq_circuit::library;
    use mq_compress::CodecSpec;
    use mq_device::DeviceSpec;
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
        // spans of different host roles are ever open at once, and no
        // decode or encode runs while the device works.
        let c = library::qft(14);
        let config = testkit::cfg(8, CodecSpec::Null);
        let r = run_hybrid_and_compare(&c, &config, false, 1e-10);
        let t = &r.telemetry;
        assert!(t.balanced());
        assert!(!t.has_role_overlap());
        assert_eq!(t.overlap(), Duration::ZERO);
        for host in [Role::Decompress, Role::Recompress] {
            assert!(!t.roles_overlap(host, Role::Device), "{host:?}");
        }
        // One device span per command the stream executed.
        let device_spans = t.spans().iter().filter(|s| s.role == Role::Device);
        assert_eq!(device_spans.count(), r.device.commands);
        assert_eq!(r.executor, "device-pipeline[serial]");

        // Pipelined, the host decodes group k+1 while the device works on
        // group k: the overlap Fig. 2 draws. It is a timing event, and it
        // needs a second core: on one, the decode and the device command
        // take turns. Tests running beside this one can take the cores
        // for a whole run, so one run of several must show it.
        let mut overlapped = false;
        for _ in 0..10 {
            let r = run_hybrid_and_compare(&c, &config, true, 1e-10);
            assert!(r.telemetry.balanced());
            assert_eq!(r.executor, "device-pipeline[pipelined]");
            overlapped = r.telemetry.roles_overlap(Role::Decompress, Role::Device);
            if overlapped || mq_num::parallel::cores() == 1 {
                break;
            }
        }
        assert!(overlapped || mq_num::parallel::cores() == 1);
    }

    #[test]
    fn one_executor_serves_run_after_run() {
        // `finish` hands back the lane and every per-run counter, so the
        // second run starts from what `new` made, not behind a stale lane.
        let config = cfg(3);
        let c = library::qft(7);
        let device = Device::new(DeviceSpec::tiny_test(1 << 12));
        let mut exec = DevicePipelineExecutor::new(&device, true);
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
        assert_eq!(first.device.commands, second.device.commands);
        assert_eq!(first.device.modeled, second.device.modeled);
        assert_eq!(device.used_amps(), 0);
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

    /// 2^12-amp chunks in groups of up to 2^16 amps: the device's copies
    /// and sweeps of a group of eight chunks or more (2^15 amps) split over
    /// the team.
    fn team_cfg(workers: usize) -> MemQSimConfig {
        MemQSimConfig {
            max_high_qubits: 4,
            workers,
            ..testkit::cfg(12, CodecSpec::Fpc)
        }
    }

    fn team_circuits() -> Vec<mq_circuit::Circuit> {
        vec![library::qft(16), library::random_circuit(16, 4, 7)]
    }

    fn hybrid_state(c: &mq_circuit::Circuit, config: &MemQSimConfig) -> Vec<Complex64> {
        let store = testkit::zero_store(c.n_qubits(), 12, config);
        let dev = Device::new(DeviceSpec::tiny_test(1 << 18));
        run(&store, c, config, &dev, true).unwrap();
        assert_eq!(dev.used_amps(), 0);
        store.to_dense().unwrap()
    }

    fn cpu_state(c: &mq_circuit::Circuit, config: &MemQSimConfig) -> Vec<Complex64> {
        let store = testkit::zero_store(c.n_qubits(), 12, config);
        crate::engine::cpu::run(&store, c, config, Granularity::Staged).unwrap();
        store.to_dense().unwrap()
    }

    #[test]
    fn a_team_wide_device_matches_the_cpu_engine_bit_for_bit() {
        for c in team_circuits() {
            for workers in [1, 2] {
                let config = team_cfg(workers);
                assert!(
                    hybrid_state(&c, &config) == cpu_state(&c, &config),
                    "{} with {workers} workers",
                    c.name()
                );
            }
        }
    }

    #[test]
    fn two_hybrid_runs_at_once_share_the_team_and_agree() {
        // Two runs' streams call the team: whenever both do at once, one
        // finds it busy and runs its shares on scoped threads. The scope
        // joins both runs, each of which joins its completer and stream.
        let config = team_cfg(2);
        for c in team_circuits() {
            let want = cpu_state(&c, &config);
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(|| hybrid_state(&c, &config));
                let b = s.spawn(|| hybrid_state(&c, &config));
                (a.join().unwrap(), b.join().unwrap())
            });
            assert!(a == want && b == want, "{}", c.name());
        }
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
