//! # mq-device — a software-simulated GPU for the MEMQSIM reproduction
//!
//! The paper's system runs state-vector updates on a CUDA GPU; this host has
//! none, so per the reproduction's substitution rule the device is simulated
//! in software with the same *architecture* and a calibrated *cost model*:
//!
//! * [`model::DeviceSpec`] — bandwidths, per-call overheads, kernel
//!   throughputs; the default calibration reproduces the paper's Table 1.
//! * [`memory`] — a capacity-limited device DRAM arena with a first-fit
//!   allocator and typed OOM errors, plus pinned host staging buffers.
//! * [`stream`] — CUDA-style in-order command streams on worker threads:
//!   async H2D/D2H copies (bulk or per-element), scatter/gather kernels,
//!   gate kernels, staged codec kernels (`decode_chunk` / `encode_chunk`:
//!   chunks cross the link *compressed*), events, synchronize. Every
//!   command does its real data movement *and* is charged a deterministic
//!   modeled duration, so experiments report a reproducible simulated
//!   clock alongside wall time. A stream's clock is its own: the engine
//!   runs one in-order stream per device, and nothing orders commands
//!   across streams.
//! * [`transfer`] — the Table 1 transfer strategies (plus the compressed
//!   variant the paper left open) as reusable experiments.
//!
//! What this deliberately does not model: SM-level parallelism, caches,
//! warp scheduling. MEMQSIM's claims live at the data-management layer —
//! call overheads, bandwidths, capacity — which is exactly what is modeled.

//!
//! ## Example
//!
//! ```
//! use mq_device::{Device, DeviceSpec, PinnedBuffer};
//! use mq_circuit::Gate;
//! use mq_num::Complex64;
//!
//! let device = Device::new(DeviceSpec::tiny_test(1024));
//! let stream = device.create_stream();
//! let buf = device.alloc(4).unwrap();
//!
//! // Upload |00>, run H(0); CX(0,1) "on the device", read back.
//! let mut init = vec![Complex64::ZERO; 4];
//! init[0] = Complex64::ONE;
//! let host = PinnedBuffer::from_slice(&init);
//! let out = PinnedBuffer::new(4);
//! stream.h2d(&host, 0, buf, 0, 4);
//! stream.run_gate(buf, Gate::H(0));
//! stream.run_gate(buf, Gate::Cx(0, 1));
//! stream.d2h(buf, 0, &out, 0, 4);
//! let stats = stream.synchronize().unwrap();
//! assert!(stats.modeled_kernel.as_nanos() > 0);
//! let bell = out.to_vec();
//! assert!((bell[0].norm_sqr() - 0.5).abs() < 1e-12);
//! assert!((bell[3].norm_sqr() - 0.5).abs() < 1e-12);
//! ```

pub mod error;
pub mod memory;
pub mod model;
pub mod stream;
pub mod transfer;

pub use error::DeviceError;
pub use memory::{DeviceBuffer, PinnedBuffer};
pub use model::DeviceSpec;
pub use stream::{Device, Event, EventRecord, PayloadCell, ScatterMap, Stream, StreamStats};
pub use transfer::{
    run_compressed_transfer_experiment, run_transfer_experiment, CompressedTransferReport,
    TransferReport, TransferStrategy,
};
