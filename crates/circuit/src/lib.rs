//! # mq-circuit — circuit substrate for the MEMQSIM reproduction
//!
//! Everything about circuits, independent of any simulation backend:
//!
//! * [`gate`] / [`matrix`] — the gate set and its matrix algebra.
//! * [`circuit`] — the flat circuit IR and chainable builder.
//! * [`qasm`] — an OpenQASM 2.0 subset parser and emitter.
//! * [`partition`] — the plan types of MEMQSIM's **offline stage** (stages
//!   executable against a chunked state vector with a bounded cross-chunk
//!   working set) and the as-written reference partitioners.
//! * [`schedule`] — the scheduler behind every plan: list scheduling over
//!   the circuit's dependency DAG, with qubit swaps inside the stages.
//! * [`reorder`] — the commutation rules the DAG is built from.
//! * [`layout`] — logical→physical qubit layouts, which the scheduler moves
//!   so hot cross-chunk gates become chunk-local.
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
pub mod schedule;
pub mod unitary;

pub use circuit::Circuit;
pub use gate::{Gate, GateError};
pub use matrix::{Mat2, Mat4, MatN};
