//! # memqsim-core — the MEMQSIM system
//!
//! The paper's primary contribution: highly memory-efficient, modular
//! state-vector simulation via chunked, compressed state storage with a
//! pipelined CPU/GPU execution engine.
//!
//! Architecture (paper Fig. 1 + Fig. 2):
//!
//! * [`store`] — the state vector lives as independently stored chunks
//!   behind the [`store::ChunkStore`] trait: a compressed base tier
//!   ([`store::CompressedTier`], the paper's offline stage, which can spill
//!   past a resident-byte budget to disk), an uncompressed baseline
//!   ([`store::DenseStore`]), plus the telemetry middleware
//!   ([`store::TelemetryTier`]).
//! * [`planner`] + `mq_circuit::schedule` — the offline stage: the
//!   dependency scheduler's stages with bounded cross-chunk working sets,
//!   chunk groups per stage.
//! * [`specialize`] — rewrites each circuit gate for a chunk-group buffer
//!   (remapped local/high qubits; outside qubits collapse to control
//!   decisions or global scalars).
//! * [`engine::cpu`] — compressed execution on CPU "idle cores";
//!   [`engine::hybrid`] — the full six-step pipeline against the simulated
//!   device fleet; per-gate granularity baseline for the Wu et al. ablation.
//!   Fig. 1's "independent of algorithm and backend" is two seams, the
//!   [`ChunkStore`] and the [`ChunkExecutor`]; every run returns one
//!   [`RunReport`].
//! * [`measure`] — sampling directly from the compressed store;
//!   [`fidelity`] — lossy-error accounting against the dense oracle.
//!
//! ## Quick start
//!
//! ```
//! use memqsim_core::{MemQSim, MemQSimConfig};
//! use mq_circuit::library;
//!
//! let sim = MemQSim::new(MemQSimConfig {
//!     chunk_bits: 4,
//!     ..Default::default()
//! });
//! let outcome = sim.simulate(&library::ghz(8)).unwrap();
//! assert!(outcome.probability(0).unwrap() > 0.49);
//! assert!(outcome.compression_ratio > 1.0);
//! ```

pub mod config;
pub mod engine;
pub mod fidelity;
pub mod measure;
pub mod planner;
pub mod specialize;
pub mod store;
#[cfg(test)]
mod testkit;

pub use config::{MemQSimConfig, MemQSimConfigBuilder, StoreKind, TransferMode};
pub use engine::{
    run_plan_with_executor, run_with_executor, ChunkExecutor, EngineError, ExecContext,
    ExecutorStats, Granularity, GroupWork, RunReport, SerialAdapter,
};
pub use mq_compress::Precision;
pub use mq_telemetry::{Counter, DeviceLane, Role, RunTelemetry, SpanRecord, Telemetry};
pub use store::{
    build_store, build_store_from_amplitudes, ChunkStore, CompressedTier, DenseStore,
    StoreCounters, TelemetryTier,
};

use mq_circuit::Circuit;
use mq_compress::CodecError;
use mq_device::Device;
use mq_num::Complex64;
use std::sync::Arc;

/// High-level facade: one object, one call, a simulated circuit.
#[derive(Debug, Clone)]
pub struct MemQSim {
    cfg: MemQSimConfig,
}

/// Outcome of a [`MemQSim::simulate`] or [`MemQSim::simulate_hybrid`] call.
pub struct SimOutcome {
    /// The final state, still chunked in its store stack; query it
    /// directly through the [`ChunkStore`] trait.
    pub store: Arc<dyn ChunkStore>,
    /// Engine report.
    pub report: RunReport,
    /// Dense-equivalent bytes / resident compressed bytes at the end.
    pub compression_ratio: f64,
}

impl SimOutcome {
    fn new(store: Arc<dyn ChunkStore>, report: RunReport) -> SimOutcome {
        let compression_ratio = store.current_ratio();
        SimOutcome {
            store,
            report,
            compression_ratio,
        }
    }

    /// Born probability of a basis state (decompresses one chunk). A chunk
    /// that fails its checksum is a [`CodecError::Corrupt`].
    pub fn probability(&self, basis: usize) -> Result<f64, CodecError> {
        self.store.probability(basis)
    }

    /// Decompresses the full state (exponential memory).
    pub fn to_dense(&self) -> Result<Vec<Complex64>, CodecError> {
        self.store.to_dense()
    }
}

impl MemQSim {
    /// Creates a simulator with the given configuration.
    pub fn new(cfg: MemQSimConfig) -> MemQSim {
        MemQSim { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &MemQSimConfig {
        &self.cfg
    }

    /// Simulates `circuit` from `|0...0>` on the compressed CPU engine.
    pub fn simulate(&self, circuit: &Circuit) -> Result<SimOutcome, EngineError> {
        let store = build_store(circuit.n_qubits(), &self.cfg)?;
        let report = engine::cpu::run(&store, circuit, &self.cfg, Granularity::Staged)?;
        Ok(SimOutcome::new(store, report))
    }

    /// Simulates `circuit` through the full hybrid CPU/device pipeline on
    /// `devices` (one or more; the report carries one lane per device).
    pub fn simulate_hybrid(
        &self,
        circuit: &Circuit,
        devices: &[Device],
    ) -> Result<SimOutcome, EngineError> {
        let store = build_store(circuit.n_qubits(), &self.cfg)?;
        let report = engine::hybrid::run_fleet(&store, circuit, &self.cfg, devices, true)?;
        Ok(SimOutcome::new(store, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_circuit::library;

    #[test]
    fn facade_simulates_ghz() {
        let sim = MemQSim::new(MemQSimConfig {
            chunk_bits: 4,
            ..Default::default()
        });
        let out = sim.simulate(&library::ghz(8)).unwrap();
        assert!((out.probability(0).unwrap() - 0.5).abs() < 1e-6);
        assert!((out.probability(255).unwrap() - 0.5).abs() < 1e-6);
        assert!(out.compression_ratio > 1.0);
        assert!(out.report.stages >= 1);
        assert_eq!(out.to_dense().unwrap().len(), 256);
    }

    #[test]
    fn corrupt_chunk_is_an_error_not_a_panic() {
        let sim = MemQSim::new(MemQSimConfig {
            chunk_bits: 4,
            ..Default::default()
        });
        let out = sim.simulate(&library::ghz(8)).unwrap();
        out.store.debug_corrupt_chunk(0);
        assert!(matches!(out.probability(0), Err(CodecError::Corrupt(_))));
        assert!(matches!(out.to_dense(), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn facade_exposes_config() {
        let cfg = MemQSimConfig::default();
        let sim = MemQSim::new(cfg);
        assert_eq!(sim.config(), &cfg);
    }

    #[test]
    fn facade_hybrid_path() {
        let sim = MemQSim::new(MemQSimConfig {
            chunk_bits: 3,
            ..Default::default()
        });
        let fleet: Vec<Device> = (0..2)
            .map(|_| Device::new(mq_device::DeviceSpec::tiny_test(1 << 10)))
            .collect();
        let out = sim.simulate_hybrid(&library::ghz(7), &fleet).unwrap();
        assert!((out.probability(0).unwrap() - 0.5).abs() < 1e-6);
        assert!(out.report.groups_device > 0);
        assert_eq!(out.report.per_device.len(), 2);
        assert!(out.report.device.modeled > std::time::Duration::ZERO);
    }
}
