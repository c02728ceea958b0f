//! # mq-circuit — circuit substrate for the MEMQSIM reproduction
//!
//! Everything about circuits, independent of any simulation backend:
//!
//! * [`gate`] / [`matrix`] — the gate set and its matrix algebra.
//! * [`circuit`] — the flat circuit IR and chainable builder.
//! * [`qasm`] — an OpenQASM 2.0 subset parser and emitter.
//! * [`partition`] — the **offline stage** of MEMQSIM: splits a circuit into
//!   stages executable against a chunked state vector with a bounded
//!   cross-chunk working set.
//! * [`reorder`] — commutation-aware gate clustering that reduces the
//!   partitioner's stage count without changing the circuit's unitary.
//! * [`layout`] — logical→physical qubit layouts and the greedy remap
//!   planning pass: relabel qubits between stages so hot cross-chunk gates
//!   become chunk-local (the lever reordering alone cannot pull).
//! * [`analysis`] — locality/access-pattern statistics (paper design
//!   challenge 3).
//! * [`library`] — generators for the workloads used throughout the
//!   evaluation: QFT, Grover, GHZ/W, QAOA, VQE ansatz, Bernstein–Vazirani,
//!   phase estimation, a ripple-carry adder, and random/supremacy-style and
//!   quantum-volume circuits.

//!
//! ## Example
//!
//! ```
//! use mq_circuit::{Circuit, library, partition};
//!
//! // Build a Bell-pair circuit with the chainable builder.
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! assert_eq!(bell.depth(), 2);
//!
//! // Or generate a library workload and plan it for 2^4-amplitude chunks.
//! let qft = library::qft(8);
//! let plan = partition::partition(
//!     &qft,
//!     &partition::PartitionConfig { chunk_bits: 4, max_high_qubits: 2 },
//! );
//! assert_eq!(plan.gate_count(), qft.len());
//! ```

pub mod analysis;
pub mod circuit;
pub mod gate;
pub mod layout;
pub mod library;
pub mod matrix;
pub mod partition;
pub mod qasm;
pub mod reorder;
pub mod unitary;

pub use circuit::Circuit;
pub use gate::{Gate, GateError};
pub use matrix::{Mat2, Mat4, MatN};
