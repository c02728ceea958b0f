//! # mq-num — numeric substrate for the MEMQSIM reproduction
//!
//! This crate provides the low-level numeric machinery every other crate in
//! the workspace builds on:
//!
//! * [`Complex64`] — a from-scratch double-precision complex number (the
//!   workspace intentionally avoids `num-complex`; amplitudes are the hottest
//!   data type in a state-vector simulator and we want full control over its
//!   layout and inlining).
//! * [`bits`] — the bit-manipulation kernel used for amplitude indexing
//!   (pair addressing for single-qubit gates, bit insertion, bit reversal for
//!   the QFT, chunk/offset splitting for the chunked store).
//! * [`aligned`] — cache-line-aligned heap buffers for state-vector storage.
//! * [`metrics`] — error and fidelity metrics used by the compression stack
//!   and the experiment harness (max abs error, RMSE, PSNR, state fidelity).
//! * [`stats`] — small summary-statistics helpers for benchmark reporting.
//! * [`parallel`] — the process-wide worker team, one helper thread per
//!   extra core: every core on one piece of work, the engines' "idle core"
//!   CPU-side updates (paper Fig. 2, step 5).

//!
//! ## Example
//!
//! ```
//! use mq_num::{Complex64, bits, metrics};
//!
//! let amp = Complex64::cis(std::f64::consts::FRAC_PI_4);
//! assert!((amp.norm() - 1.0).abs() < 1e-15);
//!
//! // Pair addressing for a gate on qubit 2 of a 4-qubit register:
//! let lo = bits::insert_zero_bit(3, 2);
//! let hi = bits::set_bit(lo, 2);
//! assert_eq!((lo, hi), (0b0011, 0b0111));
//!
//! let state = [Complex64::ONE, Complex64::ZERO];
//! assert!(metrics::is_normalized(&state, 1e-12));
//! ```

pub mod aligned;
pub mod bits;
pub mod complex;
pub mod metrics;
pub mod parallel;
pub mod stats;

pub use aligned::AlignedVec;
pub use complex::Complex64;

/// The amplitude type used throughout the workspace.
pub type Amplitude = Complex64;

/// Number of bytes occupied by one amplitude (two `f64`s).
pub const AMP_BYTES: usize = std::mem::size_of::<Complex64>();

/// Returns the number of amplitudes in an `n`-qubit state vector (`2^n`).
///
/// # Panics
/// Panics if `n` is large enough to overflow `usize` (n >= 64 on 64-bit).
#[inline]
pub fn dim(n_qubits: usize) -> usize {
    assert!(
        n_qubits < usize::BITS as usize,
        "qubit count {n_qubits} overflows the address space"
    );
    1usize << n_qubits
}

/// Returns the memory footprint in bytes of a dense `n`-qubit state vector.
#[inline]
pub fn dense_bytes(n_qubits: usize) -> usize {
    dim(n_qubits) * AMP_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_is_power_of_two() {
        assert_eq!(dim(0), 1);
        assert_eq!(dim(1), 2);
        assert_eq!(dim(10), 1024);
        assert_eq!(dim(20), 1 << 20);
    }

    #[test]
    fn dense_bytes_counts_sixteen_per_amp() {
        assert_eq!(AMP_BYTES, 16);
        assert_eq!(dense_bytes(20), (1 << 20) * 16);
    }

    #[test]
    #[should_panic]
    fn dim_panics_on_overflow() {
        let _ = dim(64);
    }
}
