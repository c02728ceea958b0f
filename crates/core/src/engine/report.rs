//! The unified per-run report shared by every execution engine.
//!
//! A [`RunReport`] is produced by [`run_with_executor`] regardless of which
//! [`ChunkExecutor`] processed the chunk groups, so backends, benches and
//! tests consume one shape whether the run was CPU-only, hybrid, or a custom
//! executor.
//!
//! [`run_with_executor`]: crate::engine::exec::run_with_executor
//! [`ChunkExecutor`]: crate::engine::exec::ChunkExecutor

use mq_device::StreamStats;
use mq_telemetry::RunTelemetry;
use std::time::Duration;

/// Timing, traffic and accounting report from one engine run.
///
/// All duration fields are *derived* from the run's [`RunTelemetry`]
/// timeline (per-role busy times), so they agree with the span record by
/// construction. Device fields are zero for CPU-only executors.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Display name of the executor that processed the chunk groups.
    pub executor: String,
    /// Which compiled copy of the gate kernels ran
    /// ([`mq_statevec::apply::kernel_isa`]): `"avx2"` or `"baseline"`. The
    /// amplitudes do not depend on it; the clock does, so a wall-clock
    /// number from one host compares with another's only beside it.
    pub kernel_isa: &'static str,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Time in chunk decompression: the sum of the run's decompress spans.
    /// The CPU engine opens one per group, however many members of the
    /// worker team split it.
    pub decompress: Duration,
    /// Time applying gates on the CPU, summed the same way.
    pub cpu_apply: Duration,
    /// Time in chunk recompression, summed the same way.
    pub compress: Duration,
    /// Device-side accounting (modeled H2D/kernel/D2H and real time);
    /// all-zero for executors that never touch a device.
    pub device: StreamStats,
    /// Number of stages executed.
    pub stages: usize,
    /// Chunk visits performed: every chunk a stage or remap loaded (as
    /// amplitudes or as a payload). Equals the run's
    /// [`Counter::ChunkVisits`](mq_telemetry::Counter::ChunkVisits).
    pub chunk_visits: usize,
    /// Chunk visits the plan asked for that were never made, because every
    /// chunk of the group was known to be all zero when its stage began (a
    /// linear map leaves such a group all zero). With `chunk_visits` it
    /// adds up to [`planned_visits`](Self::planned_visits): what the same
    /// plan costs on a state with no zero chunks.
    pub chunk_visits_elided: usize,
    /// Gates applied (after specialization; skipped gates not counted).
    pub gates_applied: usize,
    /// Outside-qubit scalar factors applied (folded into the apply sweep).
    pub scalars_applied: usize,
    /// Amplitude-buffer passes the blocked apply sweep avoided against one
    /// pass per applied gate and scalar, summed over every chunk visit:
    /// `gates_applied + scalars_applied - apply_passes_saved` passes were
    /// made.
    pub apply_passes_saved: usize,
    /// Layout remap transitions executed: 1 when the plan ends in a
    /// restore-to-identity epilogue of whole-chunk exchanges, else 0. (The
    /// scheduler's other layout moves are `Swap` gates inside stages and
    /// count as gates.)
    pub remap_passes: usize,
    /// Chunk groups handed to a device lane (0 for CPU executors),
    /// including those dropped after loading as all zero.
    pub groups_device: usize,
    /// Chunk groups the CPU executor's workers took, including those
    /// dropped after loading as all zero. The device pipeline sends every
    /// group to its device and reports 0 here.
    pub groups_cpu: usize,
    /// Peak bytes the stored state occupied in CPU memory during the run
    /// ([`ChunkStore::peak_state_bytes`](crate::store::ChunkStore::peak_state_bytes)):
    /// compressed bytes on codec tiers, the footprint to hold against a
    /// memory budget.
    pub peak_resident_bytes: usize,
    /// Peak transient working-buffer bytes: the CPU engine's one group
    /// buffer, which every member of the worker team shares, at the largest
    /// group the run loaded.
    pub peak_buffer_bytes: usize,
    /// Host pinned staging bytes held by the executor (0 for CPU-only).
    pub pinned_bytes: usize,
    /// Device working-buffer bytes held by the executor (0 for CPU-only).
    pub device_buffer_bytes: usize,
    /// The run's end-state fidelity target (`None` when no budget was
    /// configured).
    pub fidelity_budget: Option<f64>,
    /// Total per-amplitude error allowance derived from the fidelity
    /// target (0.0 without a budget).
    pub error_budget: f64,
    /// Per-amplitude error actually spent across all stages — the sum of
    /// the per-stage ledger in
    /// [`telemetry.error_spend()`](RunTelemetry::error_spend). Always
    /// within [`error_budget`](Self::error_budget), so the end-state
    /// fidelity claim is auditable.
    pub error_spent: f64,
    /// The full span/counter record the durations above derive from.
    pub telemetry: RunTelemetry,
}

impl RunReport {
    /// The visits the run's plan asked for: performed plus elided. Plans
    /// (as written vs scheduled, raw vs compressed transfers) compare on
    /// this, because how many of a plan's visits find an all-zero group
    /// depends on where it leaves a sparse state.
    pub fn planned_visits(&self) -> usize {
        self.chunk_visits + self.chunk_visits_elided
    }

    /// `"N chunk visits (+M elided)"`: the performed and the skipped visits
    /// side by side, as every report line prints them.
    pub fn visits_summary(&self) -> String {
        format!(
            "{} chunk visits (+{} elided)",
            self.chunk_visits, self.chunk_visits_elided
        )
    }

    /// Total transient working bytes (group buffers + pinned staging).
    pub fn peak_working_bytes(&self) -> usize {
        self.peak_buffer_bytes + self.pinned_bytes
    }
}
