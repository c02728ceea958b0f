//! The modular backend interface — the paper's Figure 1.
//!
//! MEMQSIM's pitch is that its compressed data management is "independent of
//! quantum algorithm composition and simulation computational tasks" and
//! pluggable under different simulator backends. This module is that seam:
//! one [`Backend`] trait, three interchangeable implementations (dense CPU,
//! compressed CPU, hybrid CPU+device), one result shape.

use crate::config::MemQSimConfig;
use crate::engine::{cpu, hybrid, EngineError, Granularity};
use crate::store::build_store;
use mq_circuit::Circuit;
use mq_device::{Device, DeviceSpec};
use mq_num::Complex64;
use mq_telemetry::{Role, RunTelemetry, Telemetry};
use std::time::Duration;

/// Result of running a circuit on any backend.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Final state amplitudes (dense; callers keep registers small enough).
    pub amplitudes: Vec<Complex64>,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// Peak bytes the *state representation* occupied (dense bytes, or the
    /// store's compressed peak), excluding transient working buffers.
    pub peak_state_bytes: usize,
    /// Peak transient working bytes (staging/group buffers).
    pub peak_working_bytes: usize,
    /// Modeled device busy time (zero for CPU-only backends).
    pub modeled_device: Duration,
    /// Backend-specific detail line for reports.
    pub detail: String,
    /// Per-run span/counter record (every backend produces one).
    pub telemetry: RunTelemetry,
}

impl BackendRun {
    /// Total peak footprint.
    pub fn peak_total_bytes(&self) -> usize {
        self.peak_state_bytes + self.peak_working_bytes
    }
}

/// A pluggable simulation backend.
pub trait Backend {
    /// Display name.
    fn name(&self) -> String;
    /// Runs `circuit` from `|0...0>`.
    fn run(&self, circuit: &Circuit) -> Result<BackendRun, EngineError>;
}

/// The dense CPU baseline (SV-Sim-style).
#[derive(Debug, Clone, Copy)]
pub struct DenseCpuBackend {
    /// Members of the worker team each gate kernel splits across.
    pub workers: usize,
}

impl Default for DenseCpuBackend {
    /// On every core, as [`mq_statevec::CpuConfig::default`].
    fn default() -> Self {
        DenseCpuBackend {
            workers: mq_statevec::CpuConfig::default().workers,
        }
    }
}

impl Backend for DenseCpuBackend {
    fn name(&self) -> String {
        "dense-cpu".to_string()
    }

    fn run(&self, circuit: &Circuit) -> Result<BackendRun, EngineError> {
        // The dense baseline is a single CPU-apply role on the timeline.
        let telemetry = Telemetry::new();
        let state = telemetry.timed(Role::CpuApply, || {
            mq_statevec::run_circuit(
                circuit,
                &mq_statevec::CpuConfig {
                    workers: self.workers,
                },
            )
        });
        let record = telemetry.finish();
        let bytes = state.dim() * 16;
        Ok(BackendRun {
            amplitudes: state.amplitudes().to_vec(),
            wall: record.wall,
            peak_state_bytes: bytes,
            peak_working_bytes: 0,
            modeled_device: Duration::ZERO,
            detail: format!("dense, {} amplitudes", state.dim()),
            telemetry: record,
        })
    }
}

/// The compressed CPU backend (MEMQSIM without a device).
#[derive(Debug, Clone, Copy)]
pub struct CompressedCpuBackend {
    /// Engine configuration.
    pub cfg: MemQSimConfig,
    /// Compression granularity (staged vs per-gate baseline).
    pub granularity: Granularity,
}

impl CompressedCpuBackend {
    /// Staged-granularity backend with the given config.
    pub fn new(cfg: MemQSimConfig) -> Self {
        CompressedCpuBackend {
            cfg,
            granularity: Granularity::Staged,
        }
    }
}

impl Backend for CompressedCpuBackend {
    fn name(&self) -> String {
        format!(
            "compressed-cpu[{}, 2^{} chunks{}]",
            self.cfg.codec,
            self.cfg.chunk_bits,
            if self.granularity == Granularity::PerGate {
                ", per-gate"
            } else {
                ""
            }
        )
    }

    fn run(&self, circuit: &Circuit) -> Result<BackendRun, EngineError> {
        let store = build_store(circuit.n_qubits(), &self.cfg)?;
        let report = cpu::run(&store, circuit, &self.cfg, self.granularity)?;
        let amplitudes = store.to_dense()?;
        Ok(BackendRun {
            amplitudes,
            wall: report.wall,
            // Residency-cache bytes are part of the state footprint: with
            // `cache_bytes = 0` this equals the compressed peak.
            peak_state_bytes: report.peak_resident_bytes,
            peak_working_bytes: report.peak_buffer_bytes,
            modeled_device: Duration::ZERO,
            detail: format!(
                "{} stages, {}, ratio {:.1}x",
                report.stages,
                report.visits_summary(),
                store.current_ratio()
            ),
            telemetry: report.telemetry,
        })
    }
}

/// The full MEMQSIM hybrid backend (CPU store + device kernels).
#[derive(Debug, Clone)]
pub struct HybridBackend {
    /// Engine configuration.
    pub cfg: MemQSimConfig,
    /// Device description (a device is created per run).
    pub device_spec: DeviceSpec,
    /// Overlap the pipeline roles.
    pub pipelined: bool,
}

impl HybridBackend {
    /// Pipelined hybrid backend with the given config and device.
    pub fn new(cfg: MemQSimConfig, device_spec: DeviceSpec) -> Self {
        HybridBackend {
            cfg,
            device_spec,
            pipelined: true,
        }
    }
}

impl Backend for HybridBackend {
    fn name(&self) -> String {
        format!(
            "hybrid[{}, 2^{} chunks{}]",
            self.cfg.codec,
            self.cfg.chunk_bits,
            if self.pipelined { "" } else { ", serial" }
        )
    }

    fn run(&self, circuit: &Circuit) -> Result<BackendRun, EngineError> {
        let store = build_store(circuit.n_qubits(), &self.cfg)?;
        let device = Device::new(self.device_spec.clone());
        let report = hybrid::run(&store, circuit, &self.cfg, &device, self.pipelined)?;
        let amplitudes = store.to_dense()?;
        Ok(BackendRun {
            amplitudes,
            wall: report.wall,
            peak_state_bytes: report.peak_resident_bytes,
            // The pinned staging slots.
            peak_working_bytes: report.peak_working_bytes(),
            modeled_device: report.device.modeled,
            detail: format!(
                "{} stages, {} device groups, modeled device {:?}",
                report.stages, report.groups_device, report.device.modeled
            ),
            telemetry: report.telemetry,
        })
    }
}

/// Runs the same circuit on every backend and checks mutual agreement —
/// the Figure 1 modularity demonstration. Returns the per-backend runs, or
/// [`EngineError::BackendDivergence`] naming the first backend whose result
/// differs from the reference (the first backend) by more than `tol`.
pub fn run_on_all(
    circuit: &Circuit,
    backends: &[&dyn Backend],
    tol: f64,
) -> Result<Vec<BackendRun>, EngineError> {
    let runs: Result<Vec<BackendRun>, EngineError> =
        backends.iter().map(|b| b.run(circuit)).collect();
    let runs = runs?;
    if let Some((first, rest)) = runs.split_first() {
        for (i, r) in rest.iter().enumerate() {
            let err = mq_num::metrics::max_amp_err(&first.amplitudes, &r.amplitudes);
            if err > tol {
                return Err(EngineError::BackendDivergence {
                    first: backends[0].name(),
                    other: backends[i + 1].name(),
                    max_err: err,
                    tol,
                });
            }
        }
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_circuit::library;
    use mq_compress::CodecSpec;

    fn small_cfg() -> MemQSimConfig {
        crate::testkit::cfg(3, CodecSpec::Fpc)
    }

    #[test]
    fn all_backends_agree_on_the_suite() {
        let dense = DenseCpuBackend::default();
        let compressed = CompressedCpuBackend::new(small_cfg());
        let hybrid = HybridBackend::new(small_cfg(), DeviceSpec::tiny_test(1 << 16));
        for c in library::standard_suite(6) {
            let runs = run_on_all(&c, &[&dense, &compressed, &hybrid], 1e-9).unwrap();
            assert_eq!(runs.len(), 3);
            // Compressed backends must report smaller state footprints for
            // the highly structured circuits (ghz is essentially empty).
            if c.name().starts_with("ghz") {
                assert!(runs[1].peak_state_bytes < runs[0].peak_state_bytes);
            }
        }
    }

    #[test]
    fn backend_names_are_descriptive() {
        assert_eq!(DenseCpuBackend::default().name(), "dense-cpu");
        let n = CompressedCpuBackend::new(small_cfg()).name();
        assert!(n.contains("fpc"), "{n}");
        let h = HybridBackend::new(small_cfg(), DeviceSpec::tiny_test(64)).name();
        assert_eq!(h, "hybrid[fpc, 2^3 chunks]");
    }

    #[test]
    fn per_gate_backend_also_agrees() {
        let staged = CompressedCpuBackend::new(small_cfg());
        let per_gate = CompressedCpuBackend {
            cfg: small_cfg(),
            granularity: Granularity::PerGate,
        };
        let c = library::qft(6);
        run_on_all(&c, &[&staged, &per_gate], 1e-10).unwrap();
        assert!(per_gate.name().contains("per-gate"));
    }

    #[test]
    fn hybrid_oom_propagates() {
        let hybrid = HybridBackend::new(small_cfg(), DeviceSpec::tiny_test(4));
        let c = library::ghz(6);
        assert!(matches!(
            hybrid.run(&c),
            Err(EngineError::Device(
                mq_device::DeviceError::OutOfMemory { .. }
            ))
        ));
    }

    #[test]
    fn backend_run_totals() {
        let r = DenseCpuBackend::default().run(&library::ghz(5)).unwrap();
        assert_eq!(r.peak_total_bytes(), 32 * 16);
        assert_eq!(r.modeled_device, Duration::ZERO);
        // Every backend carries a balanced telemetry record.
        assert!(r.telemetry.balanced());
        assert_eq!(r.wall, r.telemetry.wall);
        assert!(r.telemetry.busy(Role::CpuApply) > Duration::ZERO);
    }

    #[test]
    fn divergence_surfaces_as_typed_error() {
        // A very lossy compressed backend against the exact dense baseline,
        // checked at an impossible tolerance: run_on_all must return the
        // typed divergence error instead of panicking.
        let dense = DenseCpuBackend::default();
        let lossy = CompressedCpuBackend::new(MemQSimConfig {
            codec: CodecSpec::Sz { eb: 1e-2 },
            ..small_cfg()
        });
        let c = library::qft(6);
        match run_on_all(&c, &[&dense, &lossy], 1e-15) {
            Err(EngineError::BackendDivergence {
                first,
                other,
                max_err,
                tol,
            }) => {
                assert_eq!(first, "dense-cpu");
                assert!(other.contains("compressed-cpu"), "{other}");
                assert!(max_err > tol);
                assert_eq!(tol, 1e-15);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }
}
