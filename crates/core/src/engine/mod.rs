//! The MEMQSIM execution engines.
//!
//! One chunk-streaming core, pluggable compute paths:
//!
//! * [`exec`] — the shared driver ([`exec::run_with_executor`]): config and
//!   geometry validation, plan building, telemetry attachment, chunk-visit
//!   accounting and [`RunReport`] assembly — written once, for every
//!   executor.
//! * [`cpu`] — [`cpu::CpuWorkerExecutor`]: decompress → apply stage →
//!   recompress, chunk groups processed by "idle core" workers. Also hosts
//!   the per-gate granularity baseline (Wu et al.\[6\]).
//! * [`hybrid`] — [`hybrid::DevicePipelineExecutor`]: the full paper
//!   pipeline (Fig. 2): CPU decompression, pinned staging buffers, H2D,
//!   device gate kernels, D2H, CPU recompression — one lane shape: two
//!   in-flight staging slots, one in-order stream and one recompressor
//!   thread per device, every group of a stage to the fleet.
//! * [`report`] — the unified [`RunReport`] every run produces.

pub mod cpu;
pub mod exec;
pub mod hybrid;
pub mod report;

pub use exec::{
    build_plan, run_plan_with_executor, run_with_executor, stage_error_bounds, ChunkExecutor,
    ExecContext, ExecutorStats, GroupWork, SerialAdapter,
};
pub use report::RunReport;

use mq_compress::CodecError;
use mq_device::DeviceError;
use std::fmt;

/// Errors surfaced by the engines.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A chunk failed to decompress (corruption or codec bug).
    Codec(CodecError),
    /// The simulated device failed (OOM, stale buffer, ...).
    Device(DeviceError),
    /// Invalid configuration.
    Config(String),
    /// The store's register width disagrees with the circuit's.
    WidthMismatch {
        /// Qubits the store was built for.
        store_qubits: u32,
        /// Qubits the circuit addresses.
        circuit_qubits: u32,
    },
    /// The store's chunk geometry disagrees with the configuration's
    /// effective chunk size (construct the store with the same config).
    ChunkMismatch {
        /// log2 amplitudes per chunk in the store.
        store_chunk_bits: u32,
        /// log2 amplitudes per chunk the config requires.
        config_chunk_bits: u32,
    },
    /// A thread the executor started for the run panicked. The run's other
    /// threads were joined and its buffers released; the state in the store
    /// is whatever the stages before the panic left.
    WorkerPanicked {
        /// The pipeline role the thread was running.
        role: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Codec(e) => write!(f, "codec error: {e}"),
            EngineError::Device(e) => write!(f, "device error: {e}"),
            EngineError::Config(m) => write!(f, "configuration error: {m}"),
            EngineError::WidthMismatch {
                store_qubits,
                circuit_qubits,
            } => write!(
                f,
                "width mismatch: the store holds {store_qubits} qubits but the circuit addresses {circuit_qubits}"
            ),
            EngineError::ChunkMismatch {
                store_chunk_bits,
                config_chunk_bits,
            } => write!(
                f,
                "chunk geometry mismatch: the store uses 2^{store_chunk_bits}-amplitude chunks but the configuration requires 2^{config_chunk_bits}"
            ),
            EngineError::WorkerPanicked { role } => {
                write!(f, "the {role} thread panicked; the run was abandoned")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CodecError> for EngineError {
    fn from(e: CodecError) -> Self {
        EngineError::Codec(e)
    }
}

impl From<DeviceError> for EngineError {
    fn from(e: DeviceError) -> Self {
        EngineError::Device(e)
    }
}

/// Attaches a telemetry handle to a store for the lifetime of the guard,
/// so engine early returns can't leave a stale handle behind.
pub(crate) struct StoreTelemetryGuard<'a>(pub(crate) &'a dyn crate::store::ChunkStore);

impl Drop for StoreTelemetryGuard<'_> {
    fn drop(&mut self) {
        self.0.detach_telemetry();
    }
}

/// Compression scheduling granularity — the paper's design challenge (2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One decompress→recompress round per *stage* (MEMQSIM).
    Staged,
    /// One round per *gate* (the Wu et al.\[6\] baseline).
    PerGate,
}
