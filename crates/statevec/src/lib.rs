//! # mq-statevec — dense CPU state-vector simulator
//!
//! The baseline simulator (an SV-Sim-style dense backend) and, at the same
//! time, the *kernel library* of the whole workspace: every gate kernel in
//! [`apply`] operates on any power-of-two `&mut [Complex64]` buffer, so the
//! MEMQSIM chunked engines apply the exact same kernels to decompressed
//! chunk buffers (with remapped local qubit indices) that this crate applies
//! to whole dense states.
//!
//! * [`state`] — the dense [`State`] plus circuit execution.
//! * [`apply`] — gate kernels (pair, 4-group, diagonal, controlled and
//!   run-exchange bodies, each compiled for the baseline target and for
//!   AVX2 and picked per call) behind two entry points: one gate, or a
//!   stage's ops in one cache-blocked sweep.
//! * [`measure`] — Born-rule sampling and collapse.
//! * [`expval`] — Pauli-string expectation values.

//!
//! ## Example
//!
//! ```
//! use mq_statevec::{run_circuit, CpuConfig};
//! use mq_circuit::library;
//!
//! let state = run_circuit(&library::ghz(4), &CpuConfig::default());
//! assert!((state.probability(0) - 0.5).abs() < 1e-12);
//! assert!((state.probability(15) - 0.5).abs() < 1e-12);
//! ```

pub mod apply;
pub mod expval;
pub mod measure;
pub mod state;

pub use state::{run_circuit, CpuConfig, State};
