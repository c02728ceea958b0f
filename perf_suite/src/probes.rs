//! Isolated layer probes: each calls one layer's public functions on its
//! own, away from the run, for long enough (three batches of at least
//! 0.2 s) that the number is stable. They say what a layer costs per unit
//! of work; the traced run says how much of that work a workload asks for.

use crate::workload::Workload;
use memqsim_core::engine::{build_plan, Granularity};
use memqsim_core::MemQSimConfig;
use mq_circuit::{Circuit, Gate};
use mq_compress::{compress_complex, decompress_complex, Codec};
use mq_num::Complex64;
use mq_statevec::apply::{apply_all, apply_gate};
use mq_telemetry::{Role, Telemetry};
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCHES: usize = 3;
const BATCH_MIN: Duration = Duration::from_millis(200);
const AMP_BYTES: usize = std::mem::size_of::<Complex64>();

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Median seconds per call of `f` over [`BATCHES`] batches, each repeating
/// `f` until [`BATCH_MIN`] has passed.
fn secs_per_call(mut f: impl FnMut()) -> f64 {
    let mut per_call = [0.0; BATCHES];
    for slot in &mut per_call {
        let start = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || start.elapsed() < BATCH_MIN {
            f();
            calls += 1;
        }
        *slot = start.elapsed().as_secs_f64() / calls as f64;
    }
    median(&mut per_call)
}

/// A normalised buffer with no zero and no repeated amplitude, so no kernel
/// can take a shortcut a real state would not offer.
fn probe_state(amps: usize) -> Vec<Complex64> {
    let scale = 1.0 / (amps as f64).sqrt();
    (0..amps)
        .map(|i| {
            let phase = i as f64 * 0.618_033_988_749_895;
            Complex64::new(scale * phase.cos(), scale * phase.sin())
        })
        .collect()
}

/// The low, middle and top qubit of an `n`-qubit buffer: unit, mid and
/// half-buffer stride.
fn sweep(n: u32) -> [u32; 3] {
    [0, n / 2, n - 1]
}

fn ns_per_amp_gate(state: &mut [Complex64], gates: &[Gate]) -> f64 {
    let secs = secs_per_call(|| {
        for g in gates {
            apply_gate(black_box(state), g, 1);
        }
    });
    secs * 1e9 / (state.len() * gates.len()) as f64
}

pub struct StatevecProbe {
    pub h_ns_per_amp: f64,
    pub cx_ns_per_amp: f64,
    pub cphase_ns_per_amp: f64,
    pub h_group_ns_per_amp: f64,
    pub apply_all_group_ns_per_amp_gate: f64,
    pub copy_gb_s: f64,
    pub h_gb_s_computed: f64,
    pub copy_array_bytes: usize,
    pub llc_bytes: usize,
}

/// Gate kernels on the dense `2^n` buffer and on a group-sized
/// `2^(chunk_bits + 2)` buffer (four chunks: what one visit of a two-high-
/// qubit stage holds), plus the copy bandwidth they are held against, taken
/// on arrays sized from `llc_bytes`.
pub fn statevec(n: u32, chunk_bits: u32, llc_bytes: usize) -> StatevecProbe {
    let mut dense = probe_state(1 << n);
    let h: Vec<Gate> = sweep(n).iter().map(|&q| Gate::H(q)).collect();
    let cx: Vec<Gate> = sweep(n).iter().map(|&q| Gate::Cx((q + 1) % n, q)).collect();
    let cp: Vec<Gate> = sweep(n)
        .iter()
        .map(|&q| Gate::Cp((q + 1) % n, q, 0.4))
        .collect();
    let h_ns_per_amp = ns_per_amp_gate(&mut dense, &h);
    let cx_ns_per_amp = ns_per_amp_gate(&mut dense, &cx);
    let cphase_ns_per_amp = ns_per_amp_gate(&mut dense, &cp);
    drop(dense);

    let gn = (chunk_bits + 2).min(n);
    let mut group = probe_state(1 << gn);
    let h_group: Vec<Gate> = sweep(gn).iter().map(|&q| Gate::H(q)).collect();
    let h_group_ns_per_amp = ns_per_amp_gate(&mut group, &h_group);
    // A QFT-like stage: H then a controlled phase on every qubit.
    let stage: Vec<Gate> = (0..gn)
        .flat_map(|q| [Gate::H(q), Gate::Cp((q + 1) % gn, q, 0.4)])
        .collect();
    let secs = secs_per_call(|| {
        black_box(apply_all(black_box(&mut group), &stage, 1));
    });
    let apply_all_group_ns_per_amp_gate = secs * 1e9 / (group.len() * stage.len()) as f64;
    drop(group);

    let (copy_gb_s, copy_array_bytes) = copy_bandwidth(llc_bytes);
    StatevecProbe {
        h_ns_per_amp,
        cx_ns_per_amp,
        cphase_ns_per_amp,
        h_group_ns_per_amp,
        apply_all_group_ns_per_amp_gate,
        copy_gb_s,
        // One H pass reads and writes every amplitude once: bytes computed
        // from the array size, cache misses ignored.
        h_gb_s_computed: (2 * AMP_BYTES) as f64 / h_ns_per_amp,
        copy_array_bytes,
        llc_bytes,
    }
}

/// Size of the largest cache `cpu0` reports, or 32 MiB when sysfs is
/// unreadable.
pub fn llc_bytes() -> usize {
    let mut best = 0usize;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, unit) = match text.strip_suffix('K') {
            Some(d) => (d, 1usize << 10),
            None => match text.strip_suffix('M') {
                Some(d) => (d, 1 << 20),
                None => (text, 1),
            },
        };
        if let Ok(v) = digits.parse::<usize>() {
            best = best.max(v * unit);
        }
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// `memcpy` bandwidth in GB/s (bytes read plus bytes written) between two
/// arrays of four times the last-level cache each, and that array size. The
/// arrays shrink to an eighth of the available memory when that is less;
/// the size actually used is reported beside the cache size.
fn copy_bandwidth(llc_bytes: usize) -> (f64, usize) {
    let available = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            m.lines()
                .find_map(|l| l.strip_prefix("MemAvailable:"))
                .and_then(|v| v.trim().strip_suffix("kB"))
                .and_then(|v| v.trim().parse::<usize>().ok())
        })
        .map_or(usize::MAX, |kb| kb << 10);
    let bytes = (4 * llc_bytes).min(available / 8).max(1 << 20);
    let words = bytes / 8;
    // Filled, not zeroed, so both arrays are backed by real pages.
    let src: Vec<u64> = (0..words as u64).collect();
    let mut dst: Vec<u64> = vec![1; words];
    let mut secs = [0.0; BATCHES];
    for slot in &mut secs {
        let start = Instant::now();
        black_box(&mut dst).copy_from_slice(black_box(&src));
        *slot = start.elapsed().as_secs_f64();
    }
    black_box(&dst);
    ((2 * words * 8) as f64 / median(&mut secs) / 1e9, words * 8)
}

/// Encode and decode cost of `codec` over chunks taken from the workload's
/// own states, in ns per amplitude, through the same
/// `compress_complex` / `decompress_complex` entry points the store uses.
pub fn codec_replay(codec: &dyn Codec, chunks: &[Vec<Complex64>]) -> (f64, f64) {
    let amps: usize = chunks.iter().map(Vec::len).sum();
    if amps == 0 {
        return (0.0, 0.0);
    }
    let encode = secs_per_call(|| {
        for c in chunks {
            black_box(compress_complex(codec, black_box(c)));
        }
    });
    let payloads: Vec<Vec<u8>> = chunks.iter().map(|c| compress_complex(codec, c)).collect();
    let mut out = vec![Complex64::ZERO; chunks[0].len()];
    let decode = secs_per_call(|| {
        for (p, c) in payloads.iter().zip(chunks) {
            decompress_complex(codec, black_box(p), &mut out[..c.len()])
                .expect("a payload this codec just wrote decodes");
        }
        black_box(&out);
    });
    (encode * 1e9 / amps as f64, decode * 1e9 / amps as f64)
}

pub struct CircuitProbe {
    pub build_s: f64,
    pub plan_s: f64,
    pub plan_stages: usize,
    pub plan_chunk_visits: usize,
    pub plan_gates: usize,
}

/// Circuit generation and `build_plan`, timed on their own.
pub fn circuit(
    workload: &Workload,
    seed: u64,
    smoke: bool,
    circuit: &Circuit,
    cfg: &MemQSimConfig,
) -> CircuitProbe {
    let build_s = secs_per_call(|| {
        black_box(workload.instance(black_box(seed), smoke));
    });
    let plan_s = secs_per_call(|| {
        black_box(build_plan(black_box(circuit), cfg, Granularity::Staged));
    });
    let plan = build_plan(circuit, cfg, Granularity::Staged);
    CircuitProbe {
        build_s,
        plan_s,
        plan_stages: plan.stages.len(),
        plan_chunk_visits: plan.chunk_visits(),
        plan_gates: plan.gate_count(),
    }
}

/// Cost of opening and closing one `Telemetry` span, in ns, with the sink
/// growing as it does in a run.
pub fn telemetry_span_ns() -> f64 {
    const SPANS: usize = 50_000;
    secs_per_call(|| {
        let t = Telemetry::new();
        for stage in 0..SPANS as u32 {
            drop(t.stage_span(Role::Decompress, black_box(stage)));
        }
        black_box(t.finish().spans().len());
    }) * 1e9
        / SPANS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn probe_state_is_normalised_and_has_no_zero() {
        let s = probe_state(1 << 10);
        let norm: f64 = s.iter().map(|z| z.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-12);
        assert!(s.iter().all(|z| z.re != 0.0 || z.im != 0.0));
    }

    #[test]
    fn llc_is_at_least_a_megabyte() {
        assert!(llc_bytes() >= 1 << 20);
    }
}
