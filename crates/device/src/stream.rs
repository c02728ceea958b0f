//! Command streams: the device execution engine.
//!
//! A [`Stream`] mirrors a CUDA stream: commands (copies, kernels, events)
//! are issued asynchronously from the host and executed in order by a
//! dedicated worker thread against the device arena. Each command is
//! charged a deterministic *modeled* duration from the [`DeviceSpec`]
//! alongside the real work it performs, so experiments report both a
//! reproducible simulated clock and actual wall time.
//!
//! The emulated device computes with the host's cores, as a GPU computes
//! with its SMs: a gate-list kernel sweeps on every member of the worker
//! team ([`mq_num::parallel`]), and a copy moves its bytes in one
//! contiguous share per member. Shares are disjoint, so which thread ran
//! which cannot change a bit, and the modeled charge of a command does not
//! depend on how its real work was split. A stream whose command finds the
//! team serving someone else runs the same shares on scoped threads. An
//! idle stream thread polls for its next command a little before it
//! parks, so a group's commands start as soon as they are issued.
//!
//! Errors (stale buffer handles, range violations) are detected at
//! execution time and are *sticky*: subsequent commands are skipped and the
//! first error is returned from [`Stream::synchronize`].

use crate::error::DeviceError;
use crate::memory::{Arena, DeviceBuffer, PinnedBuffer};
use crate::model::DeviceSpec;
use crossbeam::channel::{unbounded, Receiver, RecvError, RecvTimeoutError, Sender};
use mq_circuit::Gate;
use mq_compress::{compress_complex, decompress_complex, Codec};
use mq_num::{parallel, Complex64};
use mq_statevec::apply::{apply_all_tiled, SweepOp, DEFAULT_TILE_AMPS};
use mq_telemetry::{Counter, Role, Telemetry};
use parking_lot::{Condvar, Mutex, RwLock};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared device state.
#[derive(Debug)]
pub(crate) struct DeviceInner {
    pub(crate) spec: DeviceSpec,
    pub(crate) arena: Mutex<Arena>,
    /// Optional per-run instrumentation; stream workers count H2D/D2H
    /// traffic, kernel launches and scatter ops against it while attached.
    /// Read-locked on the per-command hot path; write-locked only on
    /// attach/detach.
    pub(crate) telemetry: RwLock<Option<Telemetry>>,
}

/// A simulated GPU.
#[derive(Debug, Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
}

impl Device {
    /// Creates a device with the given spec (allocates the simulated DRAM).
    pub fn new(spec: DeviceSpec) -> Device {
        let arena = Arena::new(spec.memory_amps);
        Device {
            inner: Arc::new(DeviceInner {
                spec,
                arena: Mutex::new(arena),
                telemetry: RwLock::new(None),
            }),
        }
    }

    /// The device spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.inner.spec
    }

    /// Attaches a telemetry handle: until [`Self::detach_telemetry`] is
    /// called, every command executed on any of this
    /// device's streams contributes to the run's `bytes_h2d` / `bytes_d2h` /
    /// `kernel_launches` / `scatter_ops` counters and is recorded as a
    /// [`Role::Device`] span.
    pub fn attach_telemetry(&self, telemetry: Telemetry) {
        *self.inner.telemetry.write() = Some(telemetry);
    }

    /// Detaches the telemetry handle, if any.
    pub fn detach_telemetry(&self) {
        *self.inner.telemetry.write() = None;
    }

    /// Allocates `amps` amplitudes of device memory.
    pub fn alloc(&self, amps: usize) -> Result<DeviceBuffer, DeviceError> {
        self.inner.arena.lock().alloc(amps)
    }

    /// Frees a device buffer.
    pub fn free(&self, buf: DeviceBuffer) -> Result<(), DeviceError> {
        self.inner.arena.lock().free(buf)
    }

    /// Amplitudes currently allocated.
    pub fn used_amps(&self) -> usize {
        self.inner.arena.lock().used()
    }

    /// Amplitudes free.
    pub fn available_amps(&self) -> usize {
        self.inner.arena.lock().available()
    }

    /// Total capacity in amplitudes.
    pub fn capacity_amps(&self) -> usize {
        self.inner.arena.lock().capacity()
    }

    /// Reads back a device buffer synchronously (test/debug convenience —
    /// real transfers go through a stream).
    pub fn debug_read(&self, buf: DeviceBuffer) -> Result<Vec<Complex64>, DeviceError> {
        let mut arena = self.inner.arena.lock();
        let range = arena.resolve(buf, 0, buf.len())?;
        Ok(arena.storage[range].to_vec())
    }

    /// Creates a new command stream.
    pub fn create_stream(&self) -> Stream {
        Stream::spawn(self.inner.clone())
    }
}

/// Address mapping for scatter/gather kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScatterMap {
    /// `map(i) = dst_off + i`.
    Contiguous {
        /// Base offset.
        dst_off: usize,
    },
    /// `map(i) = start + i * stride`.
    Strided {
        /// First index.
        start: usize,
        /// Index step.
        stride: usize,
    },
}

impl ScatterMap {
    #[inline]
    fn index(&self, i: usize) -> usize {
        match *self {
            ScatterMap::Contiguous { dst_off } => dst_off + i,
            ScatterMap::Strided { start, stride } => start + i * stride,
        }
    }

    /// Largest index produced over `len` elements (None for len == 0).
    fn max_index(&self, len: usize) -> Option<usize> {
        if len == 0 {
            None
        } else {
            Some(self.index(len - 1))
        }
    }
}

/// Per-stream accounting, in both modeled and real time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamStats {
    /// Total modeled busy time.
    pub modeled: Duration,
    /// Modeled time in H2D copies.
    pub modeled_h2d: Duration,
    /// Modeled time in D2H copies.
    pub modeled_d2h: Duration,
    /// Modeled time in gate kernels.
    pub modeled_kernel: Duration,
    /// Modeled time in scatter/gather kernels.
    pub modeled_scatter: Duration,
    /// Modeled time in device decode kernels (`DecodeChunk`).
    pub modeled_decode: Duration,
    /// Modeled time in device encode kernels (`EncodeChunk`).
    pub modeled_encode: Duration,
    /// Modeled idle time spent waiting on another stream. No command
    /// orders streams against each other, so this reads zero; the field
    /// stays because `perf_suite` reports it.
    pub modeled_wait: Duration,
    /// Real execution time of all commands.
    pub real: Duration,
    /// Commands executed.
    pub commands: usize,
    /// Bytes moved host-to-device.
    pub bytes_h2d: usize,
    /// Bytes moved device-to-host.
    pub bytes_d2h: usize,
    /// Subset of `bytes_h2d` that crossed the link as compressed payloads.
    pub bytes_h2d_compressed: usize,
    /// Subset of `bytes_d2h` that crossed the link as compressed payloads.
    pub bytes_d2h_compressed: usize,
}

/// A recorded event: the stream's clocks at the moment the event executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Stream modeled time at the event.
    pub modeled: Duration,
    /// Stream real busy time at the event.
    pub real: Duration,
}

/// A CUDA-event-like synchronization point.
#[derive(Clone)]
pub struct Event {
    inner: Arc<(Mutex<Option<EventRecord>>, Condvar)>,
}

impl Event {
    fn new() -> Event {
        Event {
            inner: Arc::new((Mutex::new(None), Condvar::new())),
        }
    }

    /// Blocks until the event has executed; returns the stream clocks.
    pub fn wait(&self) -> EventRecord {
        let (lock, cond) = &*self.inner;
        let mut guard = lock.lock();
        while guard.is_none() {
            cond.wait(&mut guard);
        }
        guard.expect("checked above")
    }

    /// Non-blocking query.
    pub fn query(&self) -> Option<EventRecord> {
        *self.inner.0.lock()
    }

    fn signal(&self, record: EventRecord) {
        let (lock, cond) = &*self.inner;
        *lock.lock() = Some(record);
        cond.notify_all();
    }
}

/// Handle to the payload an enqueued [`Stream::encode_chunk`] will produce.
///
/// The stream worker fills the cell when the encode command executes; pair
/// it with [`Stream::record_event`] (or `synchronize`) to know when the
/// payload is ready. Stays empty if the command was skipped by a sticky
/// error.
#[derive(Clone, Debug, Default)]
pub struct PayloadCell {
    inner: Arc<Mutex<Option<Vec<u8>>>>,
}

impl PayloadCell {
    /// Takes the payload out of the cell, leaving it empty.
    pub fn take(&self) -> Option<Vec<u8>> {
        self.inner.lock().take()
    }

    fn fill(&self, payload: Vec<u8>) {
        *self.inner.lock() = Some(payload);
    }
}

#[allow(clippy::large_enum_variant)] // commands are moved once, never stored
enum Command {
    CopyH2d {
        src: PinnedBuffer,
        src_off: usize,
        dst: DeviceBuffer,
        dst_off: usize,
        len: usize,
        per_element: bool,
    },
    CopyD2h {
        src: DeviceBuffer,
        src_off: usize,
        dst: PinnedBuffer,
        dst_off: usize,
        len: usize,
        per_element: bool,
    },
    Scatter {
        src: DeviceBuffer,
        src_off: usize,
        dst: DeviceBuffer,
        map: ScatterMap,
        len: usize,
    },
    Gather {
        src: DeviceBuffer,
        map: ScatterMap,
        dst: DeviceBuffer,
        dst_off: usize,
        len: usize,
    },
    RunGates {
        buf: DeviceBuffer,
        amps: usize,
        ops: Vec<SweepOp>,
    },
    DecodeChunk {
        payload: Vec<u8>,
        codec: Arc<dyn Codec>,
        dst: DeviceBuffer,
        dst_off: usize,
        amps: usize,
    },
    EncodeChunk {
        src: DeviceBuffer,
        src_off: usize,
        amps: usize,
        codec: Arc<dyn Codec>,
        out: PayloadCell,
    },
    RecordEvent(Event),
    Sync(Sender<Result<StreamStats, DeviceError>>),
    Shutdown,
}

/// An in-order asynchronous command queue backed by a worker thread.
pub struct Stream {
    tx: Sender<Command>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Stream {
    fn spawn(device: Arc<DeviceInner>) -> Stream {
        let (tx, rx) = unbounded::<Command>();
        let worker = std::thread::Builder::new()
            .name("mq-device-stream".to_string())
            .spawn(move || stream_worker(device, rx))
            .expect("failed to spawn stream worker");
        Stream {
            tx,
            worker: Some(worker),
        }
    }

    fn send(&self, cmd: Command) {
        // A closed channel means the worker died; surfaced on synchronize.
        let _ = self.tx.send(cmd);
    }

    /// Enqueues a bulk host-to-device copy.
    pub fn h2d(
        &self,
        src: &PinnedBuffer,
        src_off: usize,
        dst: DeviceBuffer,
        dst_off: usize,
        len: usize,
    ) {
        self.send(Command::CopyH2d {
            src: src.clone(),
            src_off,
            dst,
            dst_off,
            len,
            per_element: false,
        });
    }

    /// Enqueues `len` *individual* async element copies (the paper's slow
    /// strategy): same data movement, but charged one call overhead per
    /// amplitude.
    pub fn h2d_per_element(
        &self,
        src: &PinnedBuffer,
        src_off: usize,
        dst: DeviceBuffer,
        dst_off: usize,
        len: usize,
    ) {
        self.send(Command::CopyH2d {
            src: src.clone(),
            src_off,
            dst,
            dst_off,
            len,
            per_element: true,
        });
    }

    /// Enqueues a bulk device-to-host copy.
    pub fn d2h(
        &self,
        src: DeviceBuffer,
        src_off: usize,
        dst: &PinnedBuffer,
        dst_off: usize,
        len: usize,
    ) {
        self.send(Command::CopyD2h {
            src,
            src_off,
            dst: dst.clone(),
            dst_off,
            len,
            per_element: false,
        });
    }

    /// Per-element variant of [`Stream::d2h`].
    pub fn d2h_per_element(
        &self,
        src: DeviceBuffer,
        src_off: usize,
        dst: &PinnedBuffer,
        dst_off: usize,
        len: usize,
    ) {
        self.send(Command::CopyD2h {
            src,
            src_off,
            dst: dst.clone(),
            dst_off,
            len,
            per_element: true,
        });
    }

    /// Enqueues a scatter kernel: `dst[map(i)] = src[src_off + i]`.
    pub fn scatter(
        &self,
        src: DeviceBuffer,
        src_off: usize,
        dst: DeviceBuffer,
        map: ScatterMap,
        len: usize,
    ) {
        self.send(Command::Scatter {
            src,
            src_off,
            dst,
            map,
            len,
        });
    }

    /// Enqueues a gather kernel: `dst[dst_off + i] = src[map(i)]`.
    pub fn gather(
        &self,
        src: DeviceBuffer,
        map: ScatterMap,
        dst: DeviceBuffer,
        dst_off: usize,
        len: usize,
    ) {
        self.send(Command::Gather {
            src,
            map,
            dst,
            dst_off,
            len,
        });
    }

    /// Enqueues a gate kernel over the whole buffer (the gate's qubit
    /// indices address within the buffer).
    pub fn run_gate(&self, buf: DeviceBuffer, gate: Gate) {
        self.run_gates_region(buf, buf.len(), vec![SweepOp::Gate(gate)]);
    }

    /// Enqueues `ops`, in order, on the leading `amps` amplitudes of the
    /// buffer (`amps` must be a power of two; a working buffer may be larger
    /// than the live group staged in it). The body is the host engine's
    /// cache-blocked [`apply_all_tiled`] sweep, so device and host results
    /// are bit-identical. The *modeled* charge is one kernel launch (and
    /// `kernel_launches` tick) per gate; scalars ride a kernel for free.
    /// No-op for a list without a gate or scalar.
    pub fn run_gates_region(&self, buf: DeviceBuffer, amps: usize, ops: Vec<SweepOp>) {
        if ops.iter().all(|op| matches!(op, SweepOp::Cut)) {
            return;
        }
        self.send(Command::RunGates { buf, amps, ops });
    }

    /// Enqueues a compressed upload: ships `payload` over the H2D link and
    /// decodes it on the device into `amps` amplitudes at
    /// `dst[dst_off..dst_off + amps]`.
    ///
    /// The link is charged for the *compressed* bytes only (that is the
    /// whole point of the strategy); the decode pays the staged codec-kernel
    /// model ([`DeviceSpec::decode_kernel_time`]) on this stream's clock.
    pub fn decode_chunk(
        &self,
        payload: Vec<u8>,
        codec: &Arc<dyn Codec>,
        dst: DeviceBuffer,
        dst_off: usize,
        amps: usize,
    ) {
        self.send(Command::DecodeChunk {
            payload,
            codec: Arc::clone(codec),
            dst,
            dst_off,
            amps,
        });
    }

    /// Enqueues the write-back mirror of [`Stream::decode_chunk`]: encodes
    /// `amps` amplitudes at `src[src_off..]` with `codec` on the device
    /// ([`DeviceSpec::encode_kernel_time`]) and ships the compressed payload
    /// over the D2H link into the returned cell.
    ///
    /// The payload is byte-identical to a host-side
    /// `compress_complex(codec, amps)`, so it can go straight back into a
    /// compressed chunk store with no further codec round trip.
    pub fn encode_chunk(
        &self,
        src: DeviceBuffer,
        src_off: usize,
        amps: usize,
        codec: &Arc<dyn Codec>,
    ) -> PayloadCell {
        let out = PayloadCell::default();
        self.send(Command::EncodeChunk {
            src,
            src_off,
            amps,
            codec: Arc::clone(codec),
            out: out.clone(),
        });
        out
    }

    /// Enqueues an event; it signals when all prior commands have executed.
    pub fn record_event(&self) -> Event {
        let e = Event::new();
        self.send(Command::RecordEvent(e.clone()));
        e
    }

    /// Blocks until all enqueued commands have executed. Returns cumulative
    /// stats, or the first execution error (sticky).
    pub fn synchronize(&self) -> Result<StreamStats, DeviceError> {
        let (tx, rx) = unbounded();
        self.send(Command::Sync(tx));
        rx.recv().map_err(|_| DeviceError::StreamClosed)?
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        let _ = self.tx.send(Command::Shutdown);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

fn stream_worker(device: Arc<DeviceInner>, rx: Receiver<Command>) {
    let mut stats = StreamStats::default();
    let mut error: Option<DeviceError> = None;
    let spec = device.spec.clone();
    while let Ok(cmd) = next_command(&rx) {
        match cmd {
            Command::Sync(reply) => {
                let _ = reply.send(match &error {
                    Some(e) => Err(e.clone()),
                    None => Ok(stats),
                });
                continue;
            }
            Command::RecordEvent(e) => {
                e.signal(EventRecord {
                    modeled: stats.modeled,
                    real: stats.real,
                });
                continue;
            }
            Command::Shutdown => break,
            cmd => {
                if error.is_some() {
                    continue; // sticky error: skip the rest
                }
                // The attached run sees each command as a device span.
                let span = device
                    .telemetry
                    .read()
                    .as_ref()
                    .map(|t| t.span(Role::Device));
                let start = Instant::now();
                let result = execute(&device, &spec, cmd, &mut stats);
                stats.real += start.elapsed();
                drop(span);
                stats.commands += 1;
                if let Err(e) = result {
                    error = Some(e);
                }
            }
        }
    }
}

/// How long an idle stream thread polls for its next command before it
/// parks. Waking a parked stream thread on a 2-vCPU host took longer than
/// the host's decode of the next group, so a group's commands ran only once
/// the host blocked, and a pipelined run showed no decode beside device
/// work (F2 failed 19 of 20 runs). A GPU is ready when a command arrives;
/// polling keeps the emulated one so, and yields the core to anything
/// runnable meanwhile.
const IDLE_POLL: Duration = Duration::from_micros(100);

/// The stream's next command: polled for [`IDLE_POLL`], then waited for.
fn next_command(rx: &Receiver<Command>) -> Result<Command, RecvError> {
    let start = Instant::now();
    while start.elapsed() < IDLE_POLL {
        match rx.recv_timeout(Duration::ZERO) {
            Ok(cmd) => return Ok(cmd),
            Err(RecvTimeoutError::Disconnected) => return Err(RecvError),
            Err(RecvTimeoutError::Timeout) => std::thread::yield_now(),
        }
    }
    rx.recv()
}

fn execute(
    device: &DeviceInner,
    spec: &DeviceSpec,
    cmd: Command,
    stats: &mut StreamStats,
) -> Result<(), DeviceError> {
    match cmd {
        Command::CopyH2d {
            src,
            src_off,
            dst,
            dst_off,
            len,
            per_element,
        } => {
            let mut arena = device.arena.lock();
            let range = arena.resolve(dst, dst_off, len)?;
            let host = src.lock();
            if src_off + len > host.len() {
                return Err(DeviceError::RangeOutOfBounds {
                    offset: src_off,
                    len,
                    buffer_len: host.len(),
                });
            }
            team_copy(&mut arena.storage[range], &host[src_off..src_off + len]);
            let t = if per_element {
                spec.per_element_copy_time(len, true)
            } else {
                spec.bulk_copy_time(len, true)
            };
            stats.modeled += t;
            stats.modeled_h2d += t;
            let bytes = len * std::mem::size_of::<Complex64>();
            stats.bytes_h2d += bytes;
            if let Some(tele) = device.telemetry.read().as_ref() {
                tele.add(Counter::BytesH2d, bytes as u64);
            }
            Ok(())
        }
        Command::CopyD2h {
            src,
            src_off,
            dst,
            dst_off,
            len,
            per_element,
        } => {
            let mut arena = device.arena.lock();
            let range = arena.resolve(src, src_off, len)?;
            let mut host = dst.lock();
            if dst_off + len > host.len() {
                return Err(DeviceError::RangeOutOfBounds {
                    offset: dst_off,
                    len,
                    buffer_len: host.len(),
                });
            }
            team_copy(&mut host[dst_off..dst_off + len], &arena.storage[range]);
            let t = if per_element {
                spec.per_element_copy_time(len, false)
            } else {
                spec.bulk_copy_time(len, false)
            };
            stats.modeled += t;
            stats.modeled_d2h += t;
            let bytes = len * std::mem::size_of::<Complex64>();
            stats.bytes_d2h += bytes;
            if let Some(tele) = device.telemetry.read().as_ref() {
                tele.add(Counter::BytesD2h, bytes as u64);
            }
            Ok(())
        }
        Command::Scatter {
            src,
            src_off,
            dst,
            map,
            len,
        } => {
            let mut arena = device.arena.lock();
            let src_range = arena.resolve(src, src_off, len)?;
            if let Some(max) = map.max_index(len) {
                // Validate the farthest write.
                arena.resolve(dst, max, 1)?;
            }
            let dst_range = arena.resolve(dst, 0, dst.len())?;
            let dst_start = dst_range.start;
            // src and dst may alias only if disjoint; enforce disjointness.
            let storage = &mut arena.storage;
            if ranges_overlap(&src_range, &dst_range) && src.id == dst.id {
                // In-buffer scatter: copy out first (a real GPU kernel would
                // read-then-write through registers; emulate with a temp).
                let tmp: Vec<Complex64> = storage[src_range.clone()].to_vec();
                for (i, v) in tmp.into_iter().enumerate() {
                    storage[dst_start + map.index(i)] = v;
                }
            } else {
                for i in 0..len {
                    let v = storage[src_range.start + i];
                    storage[dst_start + map.index(i)] = v;
                }
            }
            let t = spec.scatter_time(len);
            stats.modeled += t;
            stats.modeled_scatter += t;
            if let Some(tele) = device.telemetry.read().as_ref() {
                tele.add(Counter::ScatterOps, 1);
            }
            Ok(())
        }
        Command::Gather {
            src,
            map,
            dst,
            dst_off,
            len,
        } => {
            let mut arena = device.arena.lock();
            if let Some(max) = map.max_index(len) {
                arena.resolve(src, max, 1)?;
            }
            let src_range = arena.resolve(src, 0, src.len())?;
            let dst_range = arena.resolve(dst, dst_off, len)?;
            let src_start = src_range.start;
            let dst_start = dst_range.start;
            let storage = &mut arena.storage;
            if ranges_overlap(&src_range, &dst_range) && src.id == dst.id {
                let tmp: Vec<Complex64> = (0..len)
                    .map(|i| storage[src_start + map.index(i)])
                    .collect();
                storage[dst_start..dst_start + len].copy_from_slice(&tmp);
            } else {
                for i in 0..len {
                    storage[dst_start + i] = storage[src_start + map.index(i)];
                }
            }
            let t = spec.scatter_time(len);
            stats.modeled += t;
            stats.modeled_scatter += t;
            if let Some(tele) = device.telemetry.read().as_ref() {
                tele.add(Counter::ScatterOps, 1);
            }
            Ok(())
        }
        Command::RunGates { buf, amps, ops } => {
            assert!(amps.is_power_of_two(), "kernel region must be 2^m amps");
            let mut arena = device.arena.lock();
            let range = arena.resolve(buf, 0, amps)?;
            let applied = apply_all_tiled(
                &mut arena.storage[range],
                &ops,
                parallel::cores(),
                DEFAULT_TILE_AMPS,
            );
            let t = spec.kernel_time(amps) * applied.gates as u32;
            stats.modeled += t;
            stats.modeled_kernel += t;
            if let Some(tele) = device.telemetry.read().as_ref() {
                tele.add(Counter::KernelLaunches, applied.gates as u64);
                if applied.passes_saved() > 0 {
                    tele.add(Counter::ApplyPassesSaved, applied.passes_saved() as u64);
                }
            }
            Ok(())
        }
        Command::DecodeChunk {
            payload,
            codec,
            dst,
            dst_off,
            amps,
        } => {
            let mut arena = device.arena.lock();
            let range = arena.resolve(dst, dst_off, amps)?;
            decompress_complex(codec.as_ref(), &payload, &mut arena.storage[range])
                .map_err(|e| DeviceError::Codec(e.to_string()))?;
            let raw_bytes = amps * std::mem::size_of::<Complex64>();
            let copy = spec.bulk_copy_time_bytes(payload.len(), true);
            // Self-describing payloads (the adaptive codec) name their
            // per-chunk backend; the modeled kernel time scales with the
            // family. Static codecs carry no header and keep the
            // calibrated baseline.
            let decode = match codec.payload_meta(&payload) {
                Some(meta) => spec.decode_kernel_time_for(raw_bytes, meta.codec),
                None => spec.decode_kernel_time(raw_bytes),
            };
            stats.modeled += copy + decode;
            stats.modeled_h2d += copy;
            stats.modeled_decode += decode;
            stats.bytes_h2d += payload.len();
            stats.bytes_h2d_compressed += payload.len();
            if let Some(tele) = device.telemetry.read().as_ref() {
                tele.add(Counter::BytesH2d, payload.len() as u64);
                tele.add(Counter::BytesH2dCompressed, payload.len() as u64);
                tele.add(Counter::DeviceDecodeTime, decode.as_nanos() as u64);
            }
            Ok(())
        }
        Command::EncodeChunk {
            src,
            src_off,
            amps,
            codec,
            out,
        } => {
            let mut arena = device.arena.lock();
            let range = arena.resolve(src, src_off, amps)?;
            let payload = compress_complex(codec.as_ref(), &arena.storage[range]);
            let raw_bytes = amps * std::mem::size_of::<Complex64>();
            // As with DecodeChunk: adaptive payloads charge their picked
            // backend's kernel shape, static codecs the baseline.
            let encode = match codec.payload_meta(&payload) {
                Some(meta) => spec.encode_kernel_time_for(raw_bytes, meta.codec),
                None => spec.encode_kernel_time(raw_bytes),
            };
            let copy = spec.bulk_copy_time_bytes(payload.len(), false);
            stats.modeled += encode + copy;
            stats.modeled_encode += encode;
            stats.modeled_d2h += copy;
            stats.bytes_d2h += payload.len();
            stats.bytes_d2h_compressed += payload.len();
            if let Some(tele) = device.telemetry.read().as_ref() {
                tele.add(Counter::BytesD2h, payload.len() as u64);
                tele.add(Counter::BytesD2hCompressed, payload.len() as u64);
                tele.add(Counter::DeviceEncodeTime, encode.as_nanos() as u64);
            }
            out.fill(payload);
            Ok(())
        }
        Command::Sync(_) | Command::RecordEvent(_) | Command::Shutdown => unreachable!(),
    }
}

/// Copies shorter than this (512 KiB) stay on the stream thread, as the
/// gate sweeps of a shorter region do: a team dispatch costs a wake-up.
const TEAM_COPY_AMPS: usize = 1 << 15;

/// `dst.copy_from_slice(src)`, in one contiguous share per member of the
/// worker team.
fn team_copy(dst: &mut [Complex64], src: &[Complex64]) {
    let members = parallel::cores();
    if members == 1 || dst.len() < TEAM_COPY_AMPS {
        dst.copy_from_slice(src);
        return;
    }
    let per = dst.len().div_ceil(members);
    parallel::run(
        dst.chunks_mut(per).zip(src.chunks(per)).collect(),
        |_, (d, s)| d.copy_from_slice(s),
    );
}

fn ranges_overlap(a: &std::ops::Range<usize>, b: &std::ops::Range<usize>) -> bool {
    a.start < b.end && b.start < a.end
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_num::complex::c64;

    fn tiny_device(amps: usize) -> Device {
        Device::new(DeviceSpec::tiny_test(amps))
    }

    #[test]
    fn h2d_then_d2h_round_trips() {
        // 4 KiB, and 4 MiB at an offset into every buffer: the big copies
        // split over the worker team, and each share must land where the
        // one-thread copy would have put it.
        for (len, src_off, dev_off, dst_off) in [(256, 0, 0, 0), (1usize << 18, 3, 16, 5)] {
            let dev = tiny_device(len + dev_off);
            let stream = dev.create_stream();
            let buf = dev.alloc(len + dev_off).unwrap();
            let amps: Vec<Complex64> = (0..len + src_off)
                .map(|i| c64(i as f64, -(i as f64)))
                .collect();
            let src = PinnedBuffer::from_slice(&amps);
            let dst = PinnedBuffer::new(len + dst_off);
            stream.h2d(&src, src_off, buf, dev_off, len);
            stream.d2h(buf, dev_off, &dst, dst_off, len);
            let stats = stream.synchronize().unwrap();
            assert!(dev.debug_read(buf).unwrap()[dev_off..] == amps[src_off..]);
            let back = dst.to_vec();
            assert!(back[dst_off..] == amps[src_off..], "{len} amps");
            assert!(back[..dst_off].iter().all(|z| *z == Complex64::ZERO));
            assert_eq!(stats.commands, 2);
            let bytes = len * std::mem::size_of::<Complex64>();
            assert_eq!((stats.bytes_h2d, stats.bytes_d2h), (bytes, bytes));
            assert_eq!(
                stats.modeled,
                dev.spec().bulk_copy_time(len, true) + dev.spec().bulk_copy_time(len, false)
            );
        }
    }

    #[test]
    fn per_element_copies_cost_much_more_model_time() {
        let dev = tiny_device(1 << 12);
        let buf = dev.alloc(1 << 12).unwrap();
        let src = PinnedBuffer::new(1 << 12);

        let s1 = dev.create_stream();
        s1.h2d(&src, 0, buf, 0, 1 << 12);
        let bulk = s1.synchronize().unwrap().modeled;

        let s2 = dev.create_stream();
        s2.h2d_per_element(&src, 0, buf, 0, 1 << 12);
        let per_el = s2.synchronize().unwrap().modeled;

        let ratio = per_el.as_secs_f64() / bulk.as_secs_f64();
        assert!(ratio > 50.0, "ratio {ratio}");
    }

    #[test]
    fn gate_kernel_runs_on_device_memory() {
        let dev = tiny_device(1024);
        let stream = dev.create_stream();
        let buf = dev.alloc(8).unwrap();
        // |000> on the device.
        let mut init = vec![Complex64::ZERO; 8];
        init[0] = Complex64::ONE;
        let src = PinnedBuffer::from_slice(&init);
        stream.h2d(&src, 0, buf, 0, 8);
        stream.run_gate(buf, Gate::H(0));
        stream.run_gate(buf, Gate::Cx(0, 1));
        stream.run_gate(buf, Gate::Cx(1, 2));
        let out = PinnedBuffer::new(8);
        stream.d2h(buf, 0, &out, 0, 8);
        let stats = stream.synchronize().unwrap();
        let v = out.to_vec();
        let r = std::f64::consts::FRAC_1_SQRT_2;
        assert!(v[0].approx_eq(c64(r, 0.0), 1e-12));
        assert!(v[7].approx_eq(c64(r, 0.0), 1e-12));
        assert!(stats.modeled_kernel > Duration::ZERO);
    }

    #[test]
    fn gate_list_command_charges_one_launch_per_gate() {
        let run = |one_command: bool| {
            let dev = tiny_device(1024);
            let stream = dev.create_stream();
            let buf = dev.alloc(8).unwrap();
            let mut init = vec![Complex64::ZERO; 8];
            init[0] = Complex64::ONE;
            let src = PinnedBuffer::from_slice(&init);
            stream.h2d(&src, 0, buf, 0, 8);
            let gates = vec![Gate::H(0), Gate::Cx(0, 1), Gate::Cx(1, 2)];
            if one_command {
                let ops = gates.into_iter().map(SweepOp::Gate).collect();
                stream.run_gates_region(buf, 8, ops);
            } else {
                for g in gates {
                    stream.run_gate(buf, g);
                }
            }
            let out = PinnedBuffer::new(8);
            stream.d2h(buf, 0, &out, 0, 8);
            (stream.synchronize().unwrap(), out.to_vec())
        };
        let (per_gate, want) = run(false);
        let (list, got) = run(true);
        for (a, b) in want.iter().zip(&got) {
            assert!(a.approx_eq(*b, 1e-12));
        }
        // One command replaces three, but the modeled clock still charges
        // one launch per gate.
        assert_eq!(per_gate.commands, list.commands + 2);
        assert_eq!(per_gate.modeled_kernel, list.modeled_kernel);
        assert!(list.modeled_kernel > Duration::ZERO);
    }

    #[test]
    fn empty_gate_list_is_a_no_op_and_a_lone_scalar_is_free() {
        let dev = tiny_device(64);
        let stream = dev.create_stream();
        let buf = dev.alloc(8).unwrap();
        stream.run_gates_region(buf, 8, Vec::new());
        stream.run_gates_region(buf, 8, vec![SweepOp::Cut]);
        assert_eq!(stream.synchronize().unwrap().commands, 0);

        // A scalar with no gate to ride still scales the region, at no
        // modeled kernel charge.
        let src = PinnedBuffer::from_slice(&[Complex64::ONE; 8]);
        stream.h2d(&src, 0, buf, 0, 8);
        stream.run_gates_region(buf, 8, vec![SweepOp::Scalar(c64(0.0, 1.0))]);
        let out = PinnedBuffer::new(8);
        stream.d2h(buf, 0, &out, 0, 8);
        let stats = stream.synchronize().unwrap();
        assert!(out.to_vec().iter().all(|z| *z == c64(0.0, 1.0)));
        assert_eq!(stats.modeled_kernel, Duration::ZERO);
    }

    #[test]
    fn gate_list_matches_the_host_sweep_bit_for_bit() {
        // Same body as the CPU engine, so the same bits: a folded diagonal
        // run with a scalar in it and pairing gates on a region of a larger
        // buffer. At 2^16 amps (two tiles, past the length at which the
        // device's sweep splits over the worker team) its members share the
        // region, and the top qubit pairs across tiles: the whole-buffer
        // split by halves.
        for n in [3u32, 16] {
            let top = n - 1;
            let ops = vec![
                SweepOp::Gate(Gate::H(top)),
                SweepOp::Gate(Gate::Cp(0, top, 0.3)),
                SweepOp::Scalar(Complex64::cis(0.4)),
                SweepOp::Gate(Gate::T(1)),
                SweepOp::Gate(Gate::Cx(1, 0)),
                SweepOp::Cut,
                SweepOp::Gate(Gate::Rzz(0, 1, 0.7)),
            ];
            let amps: Vec<Complex64> = (0..1usize << n)
                .map(|i| c64(0.1 * (i % 97) as f64, 0.3 - (i % 31) as f64))
                .collect();
            let mut want = amps.clone();
            apply_all_tiled(&mut want, &ops, 1, DEFAULT_TILE_AMPS);
            let dev = tiny_device(1 << (n + 1));
            let stream = dev.create_stream();
            let buf = dev.alloc(1 << (n + 1)).unwrap();
            let src = PinnedBuffer::from_slice(&amps);
            stream.h2d(&src, 0, buf, 0, 1 << n);
            stream.run_gates_region(buf, 1 << n, ops);
            let out = PinnedBuffer::new(1 << n);
            stream.d2h(buf, 0, &out, 0, 1 << n);
            stream.synchronize().unwrap();
            assert!(out.to_vec() == want, "2^{n} amps");
        }
    }

    #[test]
    fn scatter_strided_places_amplitudes() {
        let dev = tiny_device(64);
        let stream = dev.create_stream();
        let staging = dev.alloc(4).unwrap();
        let dst = dev.alloc(16).unwrap();
        let src =
            PinnedBuffer::from_slice(&[c64(1.0, 0.0), c64(2.0, 0.0), c64(3.0, 0.0), c64(4.0, 0.0)]);
        stream.h2d(&src, 0, staging, 0, 4);
        stream.scatter(
            staging,
            0,
            dst,
            ScatterMap::Strided {
                start: 1,
                stride: 4,
            },
            4,
        );
        stream.synchronize().unwrap();
        let v = dev.debug_read(dst).unwrap();
        assert_eq!(v[1], c64(1.0, 0.0));
        assert_eq!(v[5], c64(2.0, 0.0));
        assert_eq!(v[9], c64(3.0, 0.0));
        assert_eq!(v[13], c64(4.0, 0.0));
        assert_eq!(v[0], Complex64::ZERO);
    }

    #[test]
    fn gather_is_scatter_inverse() {
        let dev = tiny_device(64);
        let stream = dev.create_stream();
        let big = dev.alloc(16).unwrap();
        let staging = dev.alloc(4).unwrap();
        let src =
            PinnedBuffer::from_slice(&(0..16).map(|i| c64(i as f64, 0.0)).collect::<Vec<_>>());
        stream.h2d(&src, 0, big, 0, 16);
        stream.gather(
            big,
            ScatterMap::Strided {
                start: 2,
                stride: 3,
            },
            staging,
            0,
            4,
        );
        let out = PinnedBuffer::new(4);
        stream.d2h(staging, 0, &out, 0, 4);
        stream.synchronize().unwrap();
        let v = out.to_vec();
        assert_eq!(v[0], c64(2.0, 0.0));
        assert_eq!(v[1], c64(5.0, 0.0));
        assert_eq!(v[2], c64(8.0, 0.0));
        assert_eq!(v[3], c64(11.0, 0.0));
    }

    #[test]
    fn errors_are_sticky_and_reported() {
        let dev = tiny_device(64);
        let stream = dev.create_stream();
        let buf = dev.alloc(8).unwrap();
        let src = PinnedBuffer::new(8);
        // Out-of-range copy fails...
        stream.h2d(&src, 0, buf, 4, 8);
        // ...and this valid command is skipped.
        stream.h2d(&src, 0, buf, 0, 8);
        match stream.synchronize() {
            Err(DeviceError::RangeOutOfBounds { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stale_buffer_detected_at_execution() {
        let dev = tiny_device(64);
        let stream = dev.create_stream();
        let buf = dev.alloc(8).unwrap();
        dev.free(buf).unwrap();
        stream.run_gate(buf, Gate::H(0));
        assert_eq!(stream.synchronize(), Err(DeviceError::InvalidBuffer));
    }

    #[test]
    fn events_record_monotonic_clocks() {
        let dev = tiny_device(1024);
        let stream = dev.create_stream();
        let buf = dev.alloc(512).unwrap();
        let src = PinnedBuffer::new(512);
        let e0 = stream.record_event();
        stream.h2d(&src, 0, buf, 0, 512);
        let e1 = stream.record_event();
        stream.run_gate(buf, Gate::H(0));
        let e2 = stream.record_event();
        stream.synchronize().unwrap();
        let (r0, r1, r2) = (e0.wait(), e1.wait(), e2.wait());
        assert!(r0.modeled <= r1.modeled);
        assert!(r1.modeled < r2.modeled);
        assert!(e2.query().is_some());
    }

    #[test]
    fn two_streams_share_the_arena() {
        let dev = tiny_device(1024);
        let s1 = dev.create_stream();
        let s2 = dev.create_stream();
        let b1 = dev.alloc(128).unwrap();
        let b2 = dev.alloc(128).unwrap();
        let src1 = PinnedBuffer::from_slice(&vec![c64(1.0, 0.0); 128]);
        let src2 = PinnedBuffer::from_slice(&vec![c64(2.0, 0.0); 128]);
        s1.h2d(&src1, 0, b1, 0, 128);
        s2.h2d(&src2, 0, b2, 0, 128);
        s1.synchronize().unwrap();
        s2.synchronize().unwrap();
        assert_eq!(dev.debug_read(b1).unwrap()[0], c64(1.0, 0.0));
        assert_eq!(dev.debug_read(b2).unwrap()[0], c64(2.0, 0.0));
    }

    #[test]
    fn overlapping_streams_beat_serial_on_the_model() {
        // Two independent copies on two streams: each stream's modeled end is
        // one copy, so the device-level end (max) is half the serial sum.
        let dev = tiny_device(1 << 16);
        let a = dev.create_stream();
        let b = dev.create_stream();
        let buf_a = dev.alloc(1 << 14).unwrap();
        let buf_b = dev.alloc(1 << 14).unwrap();
        let src = PinnedBuffer::new(1 << 14);
        a.h2d(&src, 0, buf_a, 0, 1 << 14);
        b.h2d(&src, 0, buf_b, 0, 1 << 14);
        let sa = a.synchronize().unwrap();
        let sb = b.synchronize().unwrap();
        let overlapped = sa.modeled.max(sb.modeled);
        let serial = sa.modeled + sb.modeled;
        assert!(overlapped.as_secs_f64() < serial.as_secs_f64() * 0.6);
    }

    #[test]
    fn synchronize_on_empty_stream() {
        let dev = tiny_device(16);
        let stream = dev.create_stream();
        let stats = stream.synchronize().unwrap();
        assert_eq!(stats.commands, 0);
        assert_eq!(stats.modeled, Duration::ZERO);
    }
}

#[cfg(test)]
mod codec_command_tests {
    use super::*;
    use mq_compress::CodecSpec;
    use mq_num::complex::c64;

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n).map(|i| c64(i as f64, -(i as f64) * 0.5)).collect()
    }

    #[test]
    fn decode_chunk_round_trips_and_charges_compressed_bytes() {
        let dev = Device::new(DeviceSpec::tiny_test(1024));
        let stream = dev.create_stream();
        let codec: Arc<dyn Codec> = Arc::from(CodecSpec::Fpc.build());
        let amps = ramp(256);
        let payload = compress_complex(codec.as_ref(), &amps);
        let payload_len = payload.len();
        let buf = dev.alloc(256).unwrap();
        stream.decode_chunk(payload, &codec, buf, 0, 256);
        let out = PinnedBuffer::new(256);
        stream.d2h(buf, 0, &out, 0, 256);
        let stats = stream.synchronize().unwrap();
        assert_eq!(out.to_vec(), amps);
        // The H2D link carried only the compressed payload.
        assert_eq!(stats.bytes_h2d, payload_len);
        assert_eq!(stats.bytes_h2d_compressed, payload_len);
        assert!(payload_len < 256 * std::mem::size_of::<Complex64>());
        assert!(stats.modeled_decode > Duration::ZERO);
        assert_eq!(
            stats.modeled_decode,
            dev.spec()
                .decode_kernel_time(256 * std::mem::size_of::<Complex64>())
        );
    }

    #[test]
    fn encode_chunk_mirrors_host_compression() {
        let dev = Device::new(DeviceSpec::tiny_test(1024));
        let stream = dev.create_stream();
        let amps = ramp(128);
        let buf = dev.alloc(128).unwrap();
        let src = PinnedBuffer::from_slice(&amps);
        stream.h2d(&src, 0, buf, 0, 128);
        let mut shipped = 0;
        for spec in CodecSpec::sweep_set() {
            let codec: Arc<dyn Codec> = Arc::from(spec.build());
            let cell = stream.encode_chunk(buf, 0, 128, &codec);
            let stats = stream.synchronize().unwrap();
            let payload = cell.take().expect("payload produced");
            // Byte-identical to compressing the amplitudes on the host.
            assert_eq!(payload, compress_complex(codec.as_ref(), &amps), "{spec}");
            shipped += payload.len();
            assert_eq!(stats.bytes_d2h, shipped);
            assert_eq!(stats.bytes_d2h_compressed, shipped);
            assert!(stats.modeled_encode > Duration::ZERO);
            // The cell is emptied by take().
            assert!(cell.take().is_none());
        }
    }

    #[test]
    fn adaptive_payloads_charge_their_picked_backend_family() {
        // A sparse chunk under the adaptive codec self-describes as
        // zero-rle, whose fill kernel models faster than the calibrated
        // baseline; the stream must read the family from the payload
        // header rather than bill the registry name.
        let dev = Device::new(DeviceSpec::tiny_test(4096));
        let stream = dev.create_stream();
        let codec: Arc<dyn Codec> = Arc::from(CodecSpec::Auto { eb: None }.build());
        let mut amps = vec![Complex64::ZERO; 256];
        amps[0] = Complex64::ONE;
        let payload = compress_complex(codec.as_ref(), &amps);
        let family = codec
            .payload_meta(&payload)
            .expect("adaptive payloads are self-describing")
            .codec;
        assert_eq!(family, "zero-rle");
        let raw_bytes = 256 * std::mem::size_of::<Complex64>();
        let buf = dev.alloc(256).unwrap();
        stream.decode_chunk(payload, &codec, buf, 0, 256);
        let stats = stream.synchronize().unwrap();
        assert_eq!(
            stats.modeled_decode,
            dev.spec().decode_kernel_time_for(raw_bytes, family)
        );
        assert!(stats.modeled_decode < dev.spec().decode_kernel_time(raw_bytes));

        let cell = stream.encode_chunk(buf, 0, 256, &codec);
        let stats = stream.synchronize().unwrap();
        assert!(cell.take().is_some());
        assert_eq!(
            stats.modeled_encode,
            dev.spec().encode_kernel_time_for(raw_bytes, family)
        );
    }

    #[test]
    fn corrupt_payload_is_a_sticky_codec_error() {
        let dev = Device::new(DeviceSpec::tiny_test(1024));
        let stream = dev.create_stream();
        let codec: Arc<dyn Codec> = Arc::from(CodecSpec::Fpc.build());
        let mut payload = compress_complex(codec.as_ref(), &ramp(64));
        payload.truncate(payload.len() / 2);
        let buf = dev.alloc(64).unwrap();
        stream.decode_chunk(payload, &codec, buf, 0, 64);
        match stream.synchronize() {
            Err(DeviceError::Codec(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
