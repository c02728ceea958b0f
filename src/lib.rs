//! Facade crate for the MEMQSIM workspace.
//!
//! Re-exports the public surface of every member crate so that the examples
//! and integration tests in this repository (and downstream quick starts)
//! can depend on a single name. Library users who want finer-grained
//! dependencies should depend on the member crates directly.
//!
//! ```
//! use memqsim_suite as mq;
//!
//! // Dense reference...
//! let dense = mq::statevec::run_circuit(
//!     &mq::circuit::library::ghz(6),
//!     &mq::statevec::CpuConfig::default(),
//! );
//! // ...and the compressed MEMQSIM engine, through one facade.
//! let sim = mq::core::MemQSim::new(mq::core::MemQSimConfig {
//!     chunk_bits: 3,
//!     ..Default::default()
//! });
//! let outcome = sim.simulate(&mq::circuit::library::ghz(6)).unwrap();
//! let err = mq::num::metrics::max_amp_err(dense.amplitudes(), &outcome.to_dense().unwrap());
//! assert!(err < 1e-6);
//! ```

pub use memqsim_core as core;
pub use mq_circuit as circuit;
pub use mq_compress as compress;
pub use mq_device as device;
pub use mq_num as num;
pub use mq_statevec as statevec;
pub use mq_telemetry as telemetry;

// The flat quick-start surface: the types nearly every caller touches,
// re-exported at the crate root so `use memqsim_suite::{MemQSim, ...}`
// works without knowing which member crate owns what.
pub use memqsim_core::{
    ChunkExecutor, ChunkStore, EngineError, MemQSim, MemQSimConfig, MemQSimConfigBuilder,
    RunReport, RunTelemetry, StoreCounters, StoreKind, TransferMode,
};
pub use mq_compress::{CodecSpec, Precision};
pub use mq_device::DeviceSpec;
