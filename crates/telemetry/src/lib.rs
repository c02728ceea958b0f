//! Structured pipeline instrumentation for MEMQSIM.
//!
//! The paper's quantitative claims are all *timing attributions*: Table 1
//! attributes transfer cost to strategy, Fig. 2 attributes speedup to
//! role overlap in the decompress → device → recompress pipeline. This
//! crate makes those attributions first-class instead of ad-hoc:
//!
//! - [`Telemetry`] — a cheaply clonable handle threaded through the
//!   engines, the compressed store, and the device layer. It records
//!   [`Role`]-labelled **spans** (RAII guards over wall-clock intervals)
//!   and monotonic [`Counter`]s (bytes decompressed / compressed, H2D /
//!   D2H traffic, chunk visits, kernel launches).
//! - [`RunTelemetry`] — an immutable per-run snapshot taken at the end of
//!   an engine run: the full span timeline plus counter totals, with
//!   derived views (per-role busy time, the union of busy intervals, and
//!   the measured overlap between roles) and a stable JSON rendering for
//!   machine-readable experiment artifacts.
//!
//! The design goal is that report structs like the engine's `RunReport` *derive*
//! their duration fields from this record instead of maintaining their own
//! accumulators, so every optimization claim in the repo is backed by the
//! same measured timeline the experiment bins serialize.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which pipeline role was busy during a span.
///
/// These mirror the paper's pipeline stations: the chunk decompressor,
/// the device command issuer, the recompressor, and the "idle core" CPU
/// apply path that absorbs a share of stages while the device works.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Decompressing chunks out of the compressed store.
    Decompress,
    /// Issuing device commands (H2D, kernels, D2H) and waiting on them.
    DeviceIssue,
    /// Recompressing finished chunks back into the store.
    Recompress,
    /// Applying gates on the CPU (dense baseline or idle-core share).
    CpuApply,
}

impl Role {
    /// Every role, in display order.
    pub const ALL: [Role; 4] = [
        Role::Decompress,
        Role::DeviceIssue,
        Role::Recompress,
        Role::CpuApply,
    ];

    /// Stable snake_case label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Role::Decompress => "decompress",
            Role::DeviceIssue => "device_issue",
            Role::Recompress => "recompress",
            Role::CpuApply => "cpu_apply",
        }
    }

    fn index(self) -> usize {
        match self {
            Role::Decompress => 0,
            Role::DeviceIssue => 1,
            Role::Recompress => 2,
            Role::CpuApply => 3,
        }
    }
}

/// Monotonic counters accumulated over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Compressed payload bytes expanded by codec `decompress` calls.
    BytesDecompressed,
    /// Compressed payload bytes produced by codec `compress` calls.
    BytesCompressed,
    /// Amplitude bytes copied host-to-device.
    BytesH2d,
    /// Amplitude bytes copied device-to-host.
    BytesD2h,
    /// Chunk load/store round trips through the compressed store.
    ChunkVisits,
    /// Gate kernels launched on the (simulated) device.
    KernelLaunches,
    /// Scatter/gather commands issued to the device.
    ScatterOps,
    /// Compressed chunk bytes spilled from the resident budget to disk.
    SpillBytesWritten,
    /// Compressed chunk bytes read back from spill files on disk.
    SpillBytesRead,
    /// Full amplitude-buffer passes avoided by the blocked apply sweep
    /// (gates and scalars applied minus memory sweeps actually made).
    ApplyPassesSaved,
    /// Compressed payload bytes shipped host-to-device in
    /// `TransferMode::Compressed` runs (the raw-equivalent traffic is what
    /// `BytesH2d` would have carried).
    BytesH2dCompressed,
    /// Compressed payload bytes shipped device-to-host (the encode/write-back
    /// direction of compressed transfers).
    BytesD2hCompressed,
    /// Modeled nanoseconds spent in device-side decode kernels
    /// (`Command::DecodeChunk`).
    DeviceDecodeTime,
    /// Modeled nanoseconds spent in device-side encode kernels
    /// (`Command::EncodeChunk`).
    DeviceEncodeTime,
    /// Remap transitions executed: the plan's epilogue, a batch of
    /// whole-chunk exchanges that restores the identity layout.
    RemapPasses,
    /// Adaptive-codec chunks whose payload header picked zero-RLE.
    CodecPicksZeroRle,
    /// Adaptive-codec chunks whose payload header picked FPC.
    CodecPicksFpc,
    /// Adaptive-codec chunks whose payload header picked shuffle-LZSS.
    CodecPicksShuffleLzss,
    /// Adaptive-codec chunks whose payload header picked SZ.
    CodecPicksSz,
    /// Adaptive-codec chunks stored demoted to packed f32 pairs.
    MixedPrecisionChunks,
    /// Committed chunk payloads that are not bit-exact (an SZ pick or an
    /// f32 demotion) — the events that consume a run's error budget.
    LossyEncodes,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 21] = [
        Counter::BytesDecompressed,
        Counter::BytesCompressed,
        Counter::BytesH2d,
        Counter::BytesD2h,
        Counter::ChunkVisits,
        Counter::KernelLaunches,
        Counter::ScatterOps,
        Counter::SpillBytesWritten,
        Counter::SpillBytesRead,
        Counter::ApplyPassesSaved,
        Counter::BytesH2dCompressed,
        Counter::BytesD2hCompressed,
        Counter::DeviceDecodeTime,
        Counter::DeviceEncodeTime,
        Counter::RemapPasses,
        Counter::CodecPicksZeroRle,
        Counter::CodecPicksFpc,
        Counter::CodecPicksShuffleLzss,
        Counter::CodecPicksSz,
        Counter::MixedPrecisionChunks,
        Counter::LossyEncodes,
    ];

    /// Stable snake_case label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Counter::BytesDecompressed => "bytes_decompressed",
            Counter::BytesCompressed => "bytes_compressed",
            Counter::BytesH2d => "bytes_h2d",
            Counter::BytesD2h => "bytes_d2h",
            Counter::ChunkVisits => "chunk_visits",
            Counter::KernelLaunches => "kernel_launches",
            Counter::ScatterOps => "scatter_ops",
            Counter::SpillBytesWritten => "spill_bytes_written",
            Counter::SpillBytesRead => "spill_bytes_read",
            Counter::ApplyPassesSaved => "apply_passes_saved",
            Counter::BytesH2dCompressed => "bytes_h2d_compressed",
            Counter::BytesD2hCompressed => "bytes_d2h_compressed",
            Counter::DeviceDecodeTime => "device_decode_time_ns",
            Counter::DeviceEncodeTime => "device_encode_time_ns",
            Counter::RemapPasses => "remap_passes",
            Counter::CodecPicksZeroRle => "codec_picks_zero_rle",
            Counter::CodecPicksFpc => "codec_picks_fpc",
            Counter::CodecPicksShuffleLzss => "codec_picks_shuffle_lzss",
            Counter::CodecPicksSz => "codec_picks_sz",
            Counter::MixedPrecisionChunks => "mixed_precision_chunks",
            Counter::LossyEncodes => "lossy_encodes",
        }
    }

    fn index(self) -> usize {
        match self {
            Counter::BytesDecompressed => 0,
            Counter::BytesCompressed => 1,
            Counter::BytesH2d => 2,
            Counter::BytesD2h => 3,
            Counter::ChunkVisits => 4,
            Counter::KernelLaunches => 5,
            Counter::ScatterOps => 6,
            Counter::SpillBytesWritten => 7,
            Counter::SpillBytesRead => 8,
            Counter::ApplyPassesSaved => 9,
            Counter::BytesH2dCompressed => 10,
            Counter::BytesD2hCompressed => 11,
            Counter::DeviceDecodeTime => 12,
            Counter::DeviceEncodeTime => 13,
            Counter::RemapPasses => 14,
            Counter::CodecPicksZeroRle => 15,
            Counter::CodecPicksFpc => 16,
            Counter::CodecPicksShuffleLzss => 17,
            Counter::CodecPicksSz => 18,
            Counter::MixedPrecisionChunks => 19,
            Counter::LossyEncodes => 20,
        }
    }
}

const NUM_COUNTERS: usize = Counter::ALL.len();

/// Per-device accounting lane for an N-device fleet run.
///
/// One lane per device in the fleet, recorded by the executor when it
/// gathers per-device stream stats at the end of a run. Lanes make the
/// fleet's balance observable: the makespan is the max `modeled_ns` over
/// lanes, and [`RunTelemetry::load_imbalance`] summarizes how far the
/// group split strayed from an even one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceLane {
    /// Device index within the fleet.
    pub device: usize,
    /// Chunk groups this device executed.
    pub groups: u64,
    /// Bytes copied host-to-device on this device's streams.
    pub bytes_h2d: u64,
    /// Bytes copied device-to-host on this device's streams.
    pub bytes_d2h: u64,
    /// Modeled nanoseconds in gate kernels on this device.
    pub kernel_time_ns: u64,
    /// This device's total modeled stream time (its lane of the makespan).
    pub modeled_ns: u64,
}

/// Per-stage error-budget accounting for runs under a fidelity budget.
///
/// One entry per pipeline stage, recorded by the engine driver: the
/// absolute error bound the budget policy *allocated* to the stage, and
/// what the stage actually *spent* (the allocation if any lossy encode
/// landed during the stage, zero if every committed payload was
/// bit-exact). `sum(spent) <= sum(allocated) <= total budget` makes the
/// end-state fidelity claim auditable from the run record alone.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageErrorSpend {
    /// Stage index.
    pub stage: u32,
    /// Absolute error bound the budget policy allocated to this stage.
    pub allocated: f64,
    /// Error actually spent: `allocated` when lossy encodes landed during
    /// the stage, 0.0 when the stage stayed bit-exact.
    pub spent: f64,
}

/// One closed span: a role busy on `[start_ns, end_ns)` relative to the
/// run epoch, optionally attributed to a pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub role: Role,
    /// Stage index the span belongs to, or `u32::MAX` when unattributed.
    pub stage: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    /// Stage attribution, if any.
    pub fn stage(&self) -> Option<u32> {
        (self.stage != u32::MAX).then_some(self.stage)
    }

    /// Span length.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

struct Inner {
    epoch: Instant,
    counters: [AtomicU64; NUM_COUNTERS],
    spans: Mutex<Vec<SpanRecord>>,
    device_lanes: Mutex<Vec<DeviceLane>>,
    error_spend: Mutex<Vec<StageErrorSpend>>,
    opened: AtomicU64,
    closed: AtomicU64,
}

/// Shared instrumentation handle for one engine run.
///
/// Clones share the same record; the handle is `Send + Sync` and cheap to
/// clone, so pipeline threads each carry one. Recording a span costs one
/// `Instant::now` at open and a mutex push at close; counters are single
/// relaxed atomic adds.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("spans_opened", &self.inner.opened.load(Ordering::Relaxed))
            .field("spans_closed", &self.inner.closed.load(Ordering::Relaxed))
            .finish()
    }
}

impl Telemetry {
    /// Starts a fresh record; the epoch is now.
    pub fn new() -> Telemetry {
        Telemetry {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                counters: [const { AtomicU64::new(0) }; NUM_COUNTERS],
                spans: Mutex::new(Vec::new()),
                device_lanes: Mutex::new(Vec::new()),
                error_spend: Mutex::new(Vec::new()),
                opened: AtomicU64::new(0),
                closed: AtomicU64::new(0),
            }),
        }
    }

    /// Opens an unattributed span; closing happens on guard drop.
    pub fn span(&self, role: Role) -> Span {
        self.stage_span(role, u32::MAX)
    }

    /// Opens a span attributed to pipeline stage `stage`.
    pub fn stage_span(&self, role: Role, stage: u32) -> Span {
        self.inner.opened.fetch_add(1, Ordering::Relaxed);
        Span {
            inner: Arc::clone(&self.inner),
            role,
            stage,
            start_ns: self.inner.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Times `f` under a span for `role`.
    pub fn timed<R>(&self, role: Role, f: impl FnOnce() -> R) -> R {
        let _span = self.span(role);
        f()
    }

    /// Adds `delta` to a counter.
    pub fn add(&self, counter: Counter, delta: u64) {
        self.inner.counters[counter.index()].fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.inner.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Nanoseconds since the record's epoch.
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Records the run's per-device lanes (replacing any previous set).
    /// Called by fleet executors when they gather per-device stats, before
    /// the run snapshot is taken.
    pub fn set_device_lanes(&self, lanes: Vec<DeviceLane>) {
        *self
            .inner
            .device_lanes
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = lanes;
    }

    /// Records the run's per-stage error-budget spend (replacing any
    /// previous set). Called by the engine driver after the stage loop,
    /// before the run snapshot is taken.
    pub fn set_error_spend(&self, spend: Vec<StageErrorSpend>) {
        *self
            .inner
            .error_spend
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = spend;
    }

    /// Snapshots the record into an immutable [`RunTelemetry`].
    ///
    /// Spans still open at this point stay unrecorded (and show up as an
    /// open/closed imbalance in the snapshot), so engines should finish
    /// all guards before calling this.
    pub fn finish(&self) -> RunTelemetry {
        let mut spans = self
            .inner
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        let mut counters = [0u64; NUM_COUNTERS];
        for (slot, counter) in counters.iter_mut().zip(&self.inner.counters) {
            *slot = counter.load(Ordering::Relaxed);
        }
        RunTelemetry {
            wall: Duration::from_nanos(self.now_ns()),
            counters,
            spans,
            device_lanes: self
                .inner
                .device_lanes
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            error_spend: self
                .inner
                .error_spend
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            spans_opened: self.inner.opened.load(Ordering::Relaxed),
            spans_closed: self.inner.closed.load(Ordering::Relaxed),
        }
    }
}

/// RAII guard for an open span; records the interval on drop.
pub struct Span {
    inner: Arc<Inner>,
    role: Role,
    stage: u32,
    start_ns: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        let end_ns = self.inner.epoch.elapsed().as_nanos() as u64;
        self.inner
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(SpanRecord {
                role: self.role,
                stage: self.stage,
                start_ns: self.start_ns,
                end_ns,
            });
        self.inner.closed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Immutable per-run telemetry snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTelemetry {
    /// Wall time from the record's epoch to `finish()`.
    pub wall: Duration,
    counters: [u64; NUM_COUNTERS],
    spans: Vec<SpanRecord>,
    device_lanes: Vec<DeviceLane>,
    error_spend: Vec<StageErrorSpend>,
    /// Spans opened over the run's lifetime.
    pub spans_opened: u64,
    /// Spans closed over the run's lifetime.
    pub spans_closed: u64,
}

impl RunTelemetry {
    /// All recorded spans, sorted by start time.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Final value of a counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Per-device accounting lanes (empty for runs without a device fleet).
    pub fn device_lanes(&self) -> &[DeviceLane] {
        &self.device_lanes
    }

    /// Per-stage error-budget ledger (empty for runs without a fidelity
    /// budget).
    pub fn error_spend(&self) -> &[StageErrorSpend] {
        &self.error_spend
    }

    /// Total error actually spent across all stages (sum of per-stage
    /// `spent`); 0.0 when no budget was tracked.
    pub fn total_error_spent(&self) -> f64 {
        self.error_spend.iter().map(|s| s.spent).sum()
    }

    /// Fleet load-imbalance ratio: max per-device modeled time over the
    /// mean. 1.0 is a perfectly balanced fleet; returns 1.0 for runs with
    /// at most one lane or no modeled device time at all.
    pub fn load_imbalance(&self) -> f64 {
        if self.device_lanes.len() <= 1 {
            return 1.0;
        }
        let max = self
            .device_lanes
            .iter()
            .map(|l| l.modeled_ns)
            .max()
            .unwrap_or(0);
        let sum: u64 = self.device_lanes.iter().map(|l| l.modeled_ns).sum();
        if sum == 0 {
            return 1.0;
        }
        max as f64 * self.device_lanes.len() as f64 / sum as f64
    }

    /// True when every opened span was closed before the snapshot.
    pub fn balanced(&self) -> bool {
        self.spans_opened == self.spans_closed && self.spans_opened == self.spans.len() as u64
    }

    /// Total busy time of one role (sum of its span durations).
    pub fn busy(&self, role: Role) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.role == role)
            .map(SpanRecord::duration)
            .sum()
    }

    /// Sum of per-role busy times — the cost of running every role
    /// back-to-back with no pipelining.
    pub fn serial_sum(&self) -> Duration {
        Role::ALL.iter().map(|&r| self.busy(r)).sum()
    }

    /// Length of the union of all busy intervals — wall time during which
    /// *at least one* role was busy. With pipelining this is strictly
    /// smaller than [`serial_sum`](Self::serial_sum); without it the two
    /// agree (up to span bookkeeping gaps).
    pub fn union_busy(&self) -> Duration {
        let mut total = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        // Spans are sorted by start time.
        for s in &self.spans {
            match cur {
                None => cur = Some((s.start_ns, s.end_ns)),
                Some((lo, hi)) => {
                    if s.start_ns <= hi {
                        cur = Some((lo, hi.max(s.end_ns)));
                    } else {
                        total += hi - lo;
                        cur = Some((s.start_ns, s.end_ns));
                    }
                }
            }
        }
        if let Some((lo, hi)) = cur {
            total += hi - lo;
        }
        Duration::from_nanos(total)
    }

    /// Measured pipeline overlap: serial sum minus the busy-interval
    /// union. Zero when roles never run concurrently.
    pub fn overlap(&self) -> Duration {
        self.serial_sum().saturating_sub(self.union_busy())
    }

    /// True when any two spans of *different* roles overlap in time —
    /// the direct witness of pipelined execution.
    pub fn has_role_overlap(&self) -> bool {
        // O(n·roles): track the running max end per role; spans sorted by start.
        let mut max_end = [0u64; Role::ALL.len()];
        for s in &self.spans {
            for (i, &end) in max_end.iter().enumerate() {
                if i != s.role.index() && end > s.start_ns {
                    return true;
                }
            }
            let slot = &mut max_end[s.role.index()];
            *slot = (*slot).max(s.end_ns);
        }
        false
    }

    /// Stable JSON rendering (no external serializer; schema documented in
    /// DESIGN.md). Span lists can be large, so `include_spans` gates the
    /// raw timeline.
    pub fn to_json(&self, include_spans: bool) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"wall_ns\": {},\n", self.wall.as_nanos()));
        out.push_str(&format!(
            "  \"spans_opened\": {},\n  \"spans_closed\": {},\n",
            self.spans_opened, self.spans_closed
        ));
        out.push_str("  \"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", c.label(), self.counter(*c)));
        }
        out.push_str("},\n");
        out.push_str("  \"roles\": {");
        for (i, r) in Role::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let n_spans = self.spans.iter().filter(|s| s.role == *r).count();
            out.push_str(&format!(
                "\"{}\": {{\"busy_ns\": {}, \"spans\": {}}}",
                r.label(),
                self.busy(*r).as_nanos(),
                n_spans
            ));
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"serial_sum_ns\": {},\n  \"union_busy_ns\": {},\n  \"overlap_ns\": {},\n  \"role_overlap\": {}",
            self.serial_sum().as_nanos(),
            self.union_busy().as_nanos(),
            self.overlap().as_nanos(),
            self.has_role_overlap()
        ));
        if !self.device_lanes.is_empty() {
            out.push_str(",\n  \"devices\": [");
            for (i, l) in self.device_lanes.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"device\": {}, \"groups\": {}, \"bytes_h2d\": {}, \
                     \"bytes_d2h\": {}, \"kernel_time_ns\": {}, \"modeled_ns\": {}}}",
                    l.device, l.groups, l.bytes_h2d, l.bytes_d2h, l.kernel_time_ns, l.modeled_ns
                ));
            }
            out.push_str(&format!(
                "],\n  \"load_imbalance\": {:.4}",
                self.load_imbalance()
            ));
        }
        if !self.error_spend.is_empty() {
            out.push_str(",\n  \"error_spend\": [");
            for (i, s) in self.error_spend.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"stage\": {}, \"allocated\": {:e}, \"spent\": {:e}}}",
                    s.stage, s.allocated, s.spent
                ));
            }
            out.push(']');
        }
        if include_spans {
            out.push_str(",\n  \"spans\": [");
            for (i, s) in self.spans.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    ");
                match s.stage() {
                    Some(stage) => out.push_str(&format!(
                        "{{\"role\": \"{}\", \"stage\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                        s.role.label(),
                        stage,
                        s.start_ns,
                        s.end_ns
                    )),
                    None => out.push_str(&format!(
                        "{{\"role\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                        s.role.label(),
                        s.start_ns,
                        s.end_ns
                    )),
                }
            }
            out.push_str("\n  ]");
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn spans_balance_and_accumulate() {
        let t = Telemetry::new();
        {
            let _a = t.span(Role::Decompress);
            thread::sleep(Duration::from_millis(2));
        }
        t.timed(Role::Recompress, || thread::sleep(Duration::from_millis(1)));
        let run = t.finish();
        assert!(run.balanced());
        assert_eq!(run.spans().len(), 2);
        assert!(run.busy(Role::Decompress) >= Duration::from_millis(2));
        assert!(run.busy(Role::Recompress) >= Duration::from_millis(1));
        assert_eq!(run.busy(Role::CpuApply), Duration::ZERO);
    }

    #[test]
    fn counters_are_monotonic_and_shared_across_clones() {
        let t = Telemetry::new();
        let t2 = t.clone();
        t.add(Counter::BytesCompressed, 10);
        t2.add(Counter::BytesCompressed, 5);
        assert_eq!(t.counter(Counter::BytesCompressed), 15);
        let run = t.finish();
        assert_eq!(run.counter(Counter::BytesCompressed), 15);
        assert_eq!(run.counter(Counter::BytesH2d), 0);
    }

    #[test]
    fn sequential_spans_do_not_overlap() {
        let t = Telemetry::new();
        t.timed(Role::Decompress, || thread::sleep(Duration::from_millis(1)));
        t.timed(Role::Recompress, || thread::sleep(Duration::from_millis(1)));
        let run = t.finish();
        assert!(!run.has_role_overlap());
        // Union equals serial sum when nothing overlaps.
        assert_eq!(run.overlap(), Duration::ZERO);
    }

    #[test]
    fn concurrent_spans_overlap() {
        let t = Telemetry::new();
        let t2 = t.clone();
        let worker = thread::spawn(move || {
            t2.timed(Role::DeviceIssue, || {
                thread::sleep(Duration::from_millis(20))
            });
        });
        thread::sleep(Duration::from_millis(5));
        t.timed(Role::Decompress, || thread::sleep(Duration::from_millis(5)));
        worker.join().unwrap();
        let run = t.finish();
        assert!(run.balanced());
        assert!(run.has_role_overlap());
        assert!(run.overlap() > Duration::ZERO);
        assert!(run.union_busy() < run.serial_sum());
    }

    #[test]
    fn json_has_stable_keys() {
        let t = Telemetry::new();
        t.add(Counter::ChunkVisits, 3);
        t.timed(Role::CpuApply, || ());
        let json = t.finish().to_json(true);
        for key in [
            "\"wall_ns\"",
            "\"counters\"",
            "\"chunk_visits\": 3",
            "\"spill_bytes_written\": 0",
            "\"spill_bytes_read\": 0",
            "\"roles\"",
            "\"cpu_apply\"",
            "\"serial_sum_ns\"",
            "\"union_busy_ns\"",
            "\"overlap_ns\"",
            "\"spans\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn device_lanes_round_trip_and_score_imbalance() {
        let t = Telemetry::new();
        // No lanes: neutral imbalance, no JSON section.
        assert_eq!(t.finish().load_imbalance(), 1.0);
        assert!(!t.finish().to_json(false).contains("\"devices\""));

        t.set_device_lanes(vec![
            DeviceLane {
                device: 0,
                groups: 3,
                bytes_h2d: 100,
                bytes_d2h: 50,
                kernel_time_ns: 10,
                modeled_ns: 300,
            },
            DeviceLane {
                device: 1,
                groups: 1,
                bytes_h2d: 40,
                bytes_d2h: 20,
                kernel_time_ns: 4,
                modeled_ns: 100,
            },
        ]);
        let run = t.finish();
        assert_eq!(run.device_lanes().len(), 2);
        assert_eq!(run.device_lanes()[1].bytes_h2d, 40);
        // max 300, mean 200 -> 1.5.
        assert!((run.load_imbalance() - 1.5).abs() < 1e-12);
        let json = run.to_json(false);
        assert!(json.contains("\"devices\""), "{json}");
        assert!(json.contains("\"load_imbalance\": 1.5000"), "{json}");
        assert!(json.contains("\"modeled_ns\": 300"), "{json}");

        // A single lane is balanced by definition.
        let t = Telemetry::new();
        t.set_device_lanes(vec![DeviceLane {
            modeled_ns: 42,
            ..DeviceLane::default()
        }]);
        assert_eq!(t.finish().load_imbalance(), 1.0);
    }

    #[test]
    fn stage_attribution_round_trips() {
        let t = Telemetry::new();
        drop(t.stage_span(Role::Decompress, 4));
        let run = t.finish();
        assert_eq!(run.spans()[0].stage(), Some(4));
        assert!(run.to_json(true).contains("\"stage\": 4"));
    }

    #[test]
    fn error_spend_round_trips_and_renders() {
        let t = Telemetry::new();
        // No budget tracked: empty ledger, no JSON section.
        assert!(t.finish().error_spend().is_empty());
        assert!(!t.finish().to_json(false).contains("\"error_spend\""));

        t.set_error_spend(vec![
            StageErrorSpend {
                stage: 0,
                allocated: 1e-8,
                spent: 1e-8,
            },
            StageErrorSpend {
                stage: 1,
                allocated: 1e-8,
                spent: 0.0,
            },
        ]);
        let run = t.finish();
        assert_eq!(run.error_spend().len(), 2);
        assert_eq!(run.error_spend()[1].stage, 1);
        assert!((run.total_error_spent() - 1e-8).abs() < 1e-20);
        let json = run.to_json(false);
        assert!(json.contains("\"error_spend\""), "{json}");
        assert!(json.contains("\"allocated\": 1e-8"), "{json}");
    }
}
