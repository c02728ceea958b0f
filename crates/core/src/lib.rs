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
//!   ([`store::CompressedTier`], the paper's offline stage), an
//!   uncompressed baseline ([`store::DenseStore`]), a disk-spill tier
//!   ([`store::SpillStore`]), plus the telemetry middleware
//!   ([`store::TelemetryTier`]).
//! * [`planner`] + `mq_circuit::schedule` — the offline stage: the
//!   dependency scheduler's stages with bounded cross-chunk working sets,
//!   chunk groups per stage.
//! * [`specialize`] — rewrites each circuit gate for a chunk-group buffer
//!   (remapped local/high qubits; outside qubits collapse to control
//!   decisions or global scalars).
//! * [`engine::cpu`] — compressed execution on CPU "idle cores";
//!   [`engine::hybrid`] — the full six-step pipeline against the simulated
//!   device; per-gate granularity baseline for the Wu et al. ablation.
//! * [`backend`] — the modular seam: dense / compressed / hybrid backends
//!   behind one trait (Fig. 1's "independent of algorithm and backend").
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
//! assert!(outcome.probability(0) > 0.49);
//! assert!(outcome.compression_ratio > 1.0);
//! ```

pub mod backend;
pub mod config;
pub mod engine;
pub mod fidelity;
pub mod measure;
pub mod planner;
pub mod specialize;
pub mod store;
#[cfg(test)]
mod testkit;

pub use backend::{
    run_on_all, Backend, BackendRun, CompressedCpuBackend, DenseCpuBackend, HybridBackend,
};
pub use config::{MemQSimConfig, MemQSimConfigBuilder, StoreKind, TransferMode};
pub use engine::{
    run_plan_with_executor, run_with_executor, ChunkExecutor, EngineError, ExecContext,
    ExecutorStats, Granularity, GroupWork, RunReport, SerialAdapter,
};
pub use mq_compress::Precision;
pub use mq_telemetry::{Counter, DeviceLane, Role, RunTelemetry, SpanRecord, Telemetry};
pub use store::{
    build_store, build_store_from_amplitudes, ChunkStore, CompressedTier, DenseStore, SpillStore,
    StoreCounters, TelemetryTier,
};

use mq_circuit::Circuit;
use mq_num::Complex64;
use std::sync::Arc;

/// High-level facade: one object, one call, a simulated circuit.
#[derive(Debug, Clone)]
pub struct MemQSim {
    cfg: MemQSimConfig,
}

/// Outcome of a [`MemQSim::simulate`] call.
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
    /// Born probability of a basis state (decompresses one chunk).
    pub fn probability(&self, basis: usize) -> f64 {
        self.store.probability(basis).expect("store is readable")
    }

    /// Decompresses the full state (exponential memory).
    pub fn to_dense(&self) -> Vec<Complex64> {
        self.store.to_dense().expect("store is readable")
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
        let compression_ratio = store.current_ratio();
        Ok(SimOutcome {
            store,
            report,
            compression_ratio,
        })
    }

    /// Simulates `circuit` through the full hybrid CPU/device pipeline on a
    /// freshly created simulated device fleet (`cfg.devices` homogeneous
    /// copies of `device_spec`; 1 by default). Returns the final chunked
    /// state and the pipeline report (device modeled clocks, per-phase
    /// timing, per-device lanes).
    pub fn simulate_hybrid(
        &self,
        circuit: &Circuit,
        device_spec: mq_device::DeviceSpec,
    ) -> Result<(Arc<dyn ChunkStore>, RunReport), EngineError> {
        let store = build_store(circuit.n_qubits(), &self.cfg)?;
        let fleet = mq_device::DeviceTopology::homogeneous(self.cfg.devices, device_spec).build();
        let report = engine::hybrid::run_fleet(&store, circuit, &self.cfg, &fleet, true)?;
        Ok((store, report))
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
        assert!((out.probability(0) - 0.5).abs() < 1e-6);
        assert!((out.probability(255) - 0.5).abs() < 1e-6);
        assert!(out.compression_ratio > 1.0);
        assert!(out.report.stages >= 1);
        assert_eq!(out.to_dense().len(), 256);
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
        let (store, report) = sim
            .simulate_hybrid(&library::ghz(7), mq_device::DeviceSpec::tiny_test(1 << 10))
            .unwrap();
        assert!((store.probability(0).unwrap() - 0.5).abs() < 1e-6);
        assert!(report.groups_device > 0);
        assert!(report.device.modeled > std::time::Duration::ZERO);
    }
}
