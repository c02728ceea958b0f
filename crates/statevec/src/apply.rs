//! Gate kernels.
//!
//! Every kernel takes a `&mut [Complex64]` whose length is a power of two
//! and *local* qubit indices into that buffer. Running a gate on a full
//! dense state and running it on a decompressed MEMQSIM chunk are the same
//! call — only the buffer and the index mapping differ. This is the code
//! the paper would run inside its GPU kernels; here it doubles as the CPU
//! path and the simulated-device kernel body.
//!
//! Each kernel's serial body is written once, as an `#[inline(always)]`
//! function, and compiled twice: into `kernels_baseline` for the build's
//! target, and on x86-64 into `kernels_avx2`, a `#[target_feature]` function
//! that only calls the same body, so LLVM vectorises the same source at 256
//! bits — no intrinsics, no second spelling of any kernel. [`apply_gate`]
//! and [`apply_all_tiled`] pick the copy once per call ([`kernel_isa`] names
//! it) and hand it to the members of the worker team
//! ([`mq_num::parallel`]), each with its own piece of the buffer; the
//! dispatch around it is baseline code either way. The two
//! copies produce the same bits: Rust never contracts `a * b + c` into a
//! fused multiply-add, so the wide code does the narrow code's multiplies
//! and adds in the narrow code's order. `fma` stays off the feature list
//! for that reason — nothing would use it, and an explicit `f64::mul_add`
//! would make the state depend on the CPU. Whatever a body calls must be
//! inlined into it (`Mat2::apply`, `Mat4::apply` are `#[inline(always)]`):
//! a closure or function left out of line is compiled without the feature.

use mq_circuit::gate::{Diagonal, Gate};
use mq_circuit::matrix::{Mat2, Mat4};
use mq_num::bits;
use mq_num::parallel;
use mq_num::Complex64;

/// Minimum buffer length before kernels split work across the worker team.
const PAR_THRESHOLD: usize = 1 << 15;

#[inline]
fn local_qubits(len: usize) -> u32 {
    debug_assert!(len.is_power_of_two(), "buffer length must be 2^m");
    len.trailing_zeros()
}

/// Splits `state` into up to `workers` contiguous pieces, each a whole
/// number of `block`-amplitude blocks, and runs `f(base, piece)` on each
/// (`base` = the piece's first index in `state`) — on the members of the
/// worker team when the buffer is large enough to pay for them. `block`
/// must divide `state.len()`. This is the one dispatch a gate or a fused
/// super-run pays; it is baseline code whichever kernel copy `f` calls.
fn par_pieces<F>(state: &mut [Complex64], block: usize, workers: usize, f: F)
where
    F: Fn(usize, &mut [Complex64]) + Sync,
{
    debug_assert_eq!(state.len() % block, 0);
    let nblocks = state.len() / block;
    let workers = workers.max(1).min(nblocks);
    if workers == 1 || state.len() < PAR_THRESHOLD {
        f(0, state);
        return;
    }
    let per = nblocks.div_ceil(workers) * block;
    parallel::run(state.chunks_mut(per).collect(), |w, piece| {
        f(w * per, piece)
    });
}

/// One block of a kernel cut in two at the kernel's top bit — `lo` where
/// the bit is clear, `hi` where it is set, or matching sub-ranges of the
/// two — with the buffer index of `lo[0]`.
type Halves<'a> = (usize, &'a mut [Complex64], &'a mut [Complex64]);

/// The blocks of `2 * half` amplitudes of a piece whose first amplitude is
/// buffer index `base`, each cut into its [`Halves`]. Built from `half`, not
/// from the block length: the compiler must see that the two halves are
/// equally long, or the pair loops lose their vector form (`H` on qubit 14
/// of a tile ran 1.25x slower when `half` was `block / 2`).
struct Blocks<'a> {
    chunks: std::slice::ChunksExactMut<'a, Complex64>,
    half: usize,
    base: usize,
}

impl<'a> Blocks<'a> {
    #[inline(always)]
    fn new(piece: &'a mut [Complex64], half: usize, base: usize) -> Blocks<'a> {
        Blocks {
            chunks: piece.chunks_exact_mut(2 * half),
            half,
            base,
        }
    }
}

impl<'a> Iterator for Blocks<'a> {
    type Item = Halves<'a>;

    #[inline(always)]
    fn next(&mut self) -> Option<Halves<'a>> {
        let (lo, hi) = self.chunks.next()?.split_at_mut(self.half);
        let base = self.base;
        self.base += 2 * self.half;
        Some((base, lo, hi))
    }
}

/// One gate as the kernel that runs it, qubit positions turned into index
/// strides. Every kernel works on the two halves of its blocks, so a gate
/// whose one block is the whole buffer still splits across members: each
/// takes matching sub-ranges of both halves.
#[allow(clippy::large_enum_variant)] // built once per gate and sweep
enum Kernel {
    /// A general single-qubit matrix on the amplitude pairs `half` apart.
    Pair { half: usize, m: Mat2 },
    /// `diag(d0, d1)` on the amplitude pairs `half` apart.
    Diag1 {
        half: usize,
        d0: Complex64,
        d1: Complex64,
    },
    /// A general two-qubit matrix on qubits `lo < hi` (matrix basis index
    /// `(bit_b << 1) | bit_a`, matching [`Gate::mat4`]; `a_low` when qubit
    /// `a` is `lo`).
    Group4 {
        lo: u32,
        hi: u32,
        a_low: bool,
        m: Mat4,
    },
    /// A two-qubit diagonal on qubits `lo < hi`, `d[bit_hi][bit_lo]`;
    /// `low` is `1 << lo`.
    Diag2 {
        low: usize,
        hi: u32,
        d: [[Complex64; 2]; 2],
    },
    /// CX and SWAP. Index bits `hi` and `lo` cut a block into four runs of
    /// `2^lo` amplitudes, `l0 l1 | h0 h1`: `h{to}` trades places with `l1`
    /// when `from_lo`, else with `h0`.
    Exchange {
        lo: u32,
        hi: u32,
        from_lo: bool,
        to: usize,
    },
    /// `u` on the pairs `half` apart wherever every bit of `mask` is set.
    Controlled { mask: usize, half: usize, u: Mat2 },
}

impl Kernel {
    /// The fastest kernel for the gate's structure.
    ///
    /// # Panics
    /// Panics if two of the gate's qubits coincide.
    fn of(gate: &Gate) -> Kernel {
        use Gate::*;
        let pair = |a: u32, b: u32| {
            assert!(a != b, "bad qubit pair ({a},{b})");
            (a.min(b), a.max(b))
        };
        let controlled = |mask: usize, target: u32, u: Mat2| {
            let half = 1usize << target;
            assert_eq!(mask & half, 0, "control mask overlaps target");
            Kernel::Controlled { mask, half, u }
        };
        match (gate, gate.diagonal()) {
            (_, Some(Diagonal::One { q, d: [d0, d1] })) => Kernel::Diag1 {
                half: 1 << q,
                d0,
                d1,
            },
            (_, Some(Diagonal::Two { a, b, d })) => {
                let (lo, hi) = pair(a, b);
                let at = |h: usize, l: usize| if a < b { d[h << 1 | l] } else { d[l << 1 | h] };
                Kernel::Diag2 {
                    low: 1 << lo,
                    hi,
                    d: [[at(0, 0), at(0, 1)], [at(1, 0), at(1, 1)]],
                }
            }
            (Swap(a, b), _) => {
                let (lo, hi) = pair(*a, *b);
                Kernel::Exchange {
                    lo,
                    hi,
                    from_lo: true,
                    to: 0,
                }
            }
            (Cx(c, t), _) => {
                let (lo, hi) = pair(*c, *t);
                Kernel::Exchange {
                    lo,
                    hi,
                    from_lo: c < t,
                    to: 1,
                }
            }
            (Cy(c, t), _) => controlled(1 << c, *t, mq_circuit::gate::mat2_y()),
            (
                Mcu {
                    controls,
                    target,
                    u,
                },
                _,
            ) => {
                let mask = controls.iter().fold(0, |m, &c| m | 1usize << c);
                controlled(mask, *target, *u)
            }
            (U2q(a, b, m), _) => {
                let (lo, hi) = pair(*a, *b);
                Kernel::Group4 {
                    lo,
                    hi,
                    a_low: a < b,
                    m: *m,
                }
            }
            (g, _) => Kernel::Pair {
                half: 1 << g.qubits()[0],
                m: g.mat2()
                    .expect("all remaining gates are single-qubit with a mat2"),
            },
        }
    }

    /// The stride of the kernel's top index bit: half of
    /// [`block`](Self::block).
    fn half(&self) -> usize {
        match *self {
            Kernel::Pair { half, .. }
            | Kernel::Diag1 { half, .. }
            | Kernel::Controlled { half, .. } => half,
            Kernel::Group4 { hi, .. } | Kernel::Diag2 { hi, .. } | Kernel::Exchange { hi, .. } => {
                1 << hi
            }
        }
    }

    /// The smallest aligned block the kernel is closed on: a parallel split
    /// at any multiple of it keeps every group of amplitudes the kernel
    /// combines inside one piece.
    fn block(&self) -> usize {
        2 * self.half()
    }

    /// The alignment a sub-range of one half must keep for the kernel to be
    /// closed on it: the runs of `2^lo` amplitudes the two-qubit kernels
    /// pair up stay whole.
    fn grain(&self) -> usize {
        match *self {
            Kernel::Group4 { lo, .. } | Kernel::Exchange { lo, .. } => 2 << lo,
            _ => 1,
        }
    }

    /// Runs the kernel over `piece`: whole [`block`](Self::block)s, the
    /// first at buffer index `base`.
    #[inline(always)]
    fn apply(&self, base: usize, piece: &mut [Complex64]) {
        self.run(Blocks::new(piece, self.half(), base))
    }

    /// Runs the kernel over each of `blocks`.
    #[inline(always)]
    fn run<'a>(&self, blocks: impl Iterator<Item = Halves<'a>>) {
        match *self {
            Kernel::Pair { m, .. } => pair_kernel(blocks, m),
            Kernel::Diag1 { d0, d1, .. } => diag1_kernel(blocks, d0, d1),
            Kernel::Group4 { lo, a_low, m, .. } => group4_kernel(blocks, 1 << lo, a_low, m),
            Kernel::Diag2 { low, d, .. } => diag2_kernel(blocks, low, d),
            Kernel::Exchange {
                lo, from_lo, to, ..
            } => exchange_kernel(blocks, 1 << lo, from_lo, to),
            Kernel::Controlled { mask, u, .. } => controlled_kernel(blocks, mask, u),
        }
    }
}

#[inline(always)]
fn pair_kernel<'a>(blocks: impl Iterator<Item = Halves<'a>>, m: Mat2) {
    for (_, lo, hi) in blocks {
        for (a, b) in lo.iter_mut().zip(hi) {
            let (x, y) = m.apply(*a, *b);
            *a = x;
            *b = y;
        }
    }
}

#[inline(always)]
fn diag1_kernel<'a>(blocks: impl Iterator<Item = Halves<'a>>, d0: Complex64, d1: Complex64) {
    for (_, lo, hi) in blocks {
        if d0 != Complex64::ONE {
            for a in lo {
                *a *= d0;
            }
        }
        for b in hi {
            *b *= d1;
        }
    }
}

/// The four amplitudes of a group sit in the runs `l0 l1 | h0 h1` of
/// `run` amplitudes each (see [`Kernel::Exchange`]).
#[inline(always)]
fn group4_kernel<'a>(blocks: impl Iterator<Item = Halves<'a>>, run: usize, a_low: bool, m: Mat4) {
    for (_, lo, hi) in blocks {
        for (l, h) in lo
            .chunks_exact_mut(2 * run)
            .zip(hi.chunks_exact_mut(2 * run))
        {
            let (l0, l1) = l.split_at_mut(run);
            let (h0, h1) = h.split_at_mut(run);
            let (z01, z10) = if a_low { (l1, h0) } else { (h0, l1) };
            for (((p00, p01), p10), p11) in l0.iter_mut().zip(z01).zip(z10).zip(h1) {
                let out = m.apply([*p00, *p01, *p10, *p11]);
                *p00 = out[0];
                *p01 = out[1];
                *p10 = out[2];
                *p11 = out[3];
            }
        }
    }
}

#[inline(always)]
fn diag2_kernel<'a>(blocks: impl Iterator<Item = Halves<'a>>, low: usize, d: [[Complex64; 2]; 2]) {
    for (base, lo, hi) in blocks {
        for (off, (a, b)) in lo.iter_mut().zip(hi).enumerate() {
            let l = usize::from((base + off) & low != 0);
            *a *= d[0][l];
            *b *= d[1][l];
        }
    }
}

/// Exact — a permutation, no arithmetic: an infinite or NaN amplitude moves
/// like any other, where a multiply by the X matrix would smear it over its
/// partner.
#[inline(always)]
fn exchange_kernel<'a>(
    blocks: impl Iterator<Item = Halves<'a>>,
    run: usize,
    from_lo: bool,
    to: usize,
) {
    for (_, lo, hi) in blocks {
        if from_lo {
            for (l, h) in lo
                .chunks_exact_mut(2 * run)
                .zip(hi.chunks_exact_mut(2 * run))
            {
                swap_runs(&mut l[run..], &mut h[to * run..][..run]);
            }
        } else {
            for h in hi.chunks_exact_mut(2 * run) {
                let (h0, h1) = h.split_at_mut(run);
                swap_runs(h0, h1);
            }
        }
    }
}

/// Trades two runs of amplitudes: one slice swap, or element swaps where
/// slices of one or two amplitudes would lose to them.
#[inline(always)]
fn swap_runs(a: &mut [Complex64], b: &mut [Complex64]) {
    if a.len() < 4 {
        for (x, y) in a.iter_mut().zip(b) {
            std::mem::swap(x, y);
        }
    } else {
        a.swap_with_slice(b);
    }
}

#[inline(always)]
fn controlled_kernel<'a>(blocks: impl Iterator<Item = Halves<'a>>, mask: usize, u: Mat2) {
    for (base, lo, hi) in blocks {
        for (off, (a, b)) in lo.iter_mut().zip(hi).enumerate() {
            if (base + off) & mask == mask {
                let (x, y) = u.apply(*a, *b);
                *a = x;
                *b = y;
            }
        }
    }
}

/// What one call of a kernel copy runs on the amplitudes it is handed.
enum Work<'r> {
    /// A super-run's segments in order on each `tile`-amplitude tile. A
    /// single gate is a run of one segment on one tile, the whole piece.
    Tiles { run: &'r [Seg<'r>], tile: usize },
    /// One kernel on matching sub-ranges of the two halves of its one block.
    Halves(&'r Kernel),
}

/// The serial body of every kernel call, written once: `work` on `amps`
/// (and, for [`Work::Halves`], `hi`), whose first amplitude is buffer index
/// `base`. The amplitudes arrive as arguments of their own, not inside
/// `work`, so the compiler knows no store to them changes a matrix or a
/// table the kernel reads.
#[inline(always)]
fn kernel_body(work: &Work<'_>, base: usize, amps: &mut [Complex64], hi: &mut [Complex64]) {
    let (run, tile) = match *work {
        Work::Halves(kernel) => return kernel.run(std::iter::once((base, amps, hi))),
        Work::Tiles { run, tile } => (run, tile),
    };
    let needs_scratch = run
        .iter()
        .any(|s| matches!(s, Seg::Perm(p) if !p.is_xor_only()));
    let mut scratch = vec![Complex64::ZERO; if needs_scratch { tile } else { 0 }];
    for (t, amps) in amps.chunks_exact_mut(tile).enumerate() {
        let base = base + t * tile;
        for seg in run {
            match seg {
                Seg::Diag(d) => d.apply(base, amps),
                Seg::Perm(p) => p.apply(amps, &mut scratch),
                Seg::Local(kernel) => kernel.apply(base, amps),
                Seg::Global(_) => unreachable!("global segments never reach a tile"),
            }
        }
    }
}

/// A compiled copy of [`kernel_body`].
type KernelFn = fn(&Work<'_>, usize, &mut [Complex64], &mut [Complex64]);

/// [`kernel_body`] compiled for the build's target.
fn kernels_baseline(work: &Work<'_>, base: usize, amps: &mut [Complex64], hi: &mut [Complex64]) {
    kernel_body(work, base, amps, hi)
}

/// [`kernel_body`] compiled with 256-bit vectors: the same source, so the
/// same multiplies and adds in the same order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn kernels_avx2(work: &Work<'_>, base: usize, amps: &mut [Complex64], hi: &mut [Complex64]) {
    kernel_body(work, base, amps, hi)
}

/// The copy of the kernels this CPU runs, and its name.
#[cfg(target_arch = "x86_64")]
fn instantiation() -> (&'static str, KernelFn) {
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the line above found AVX2 on the CPU this runs on.
        ("avx2", |work, base, amps, hi| unsafe {
            kernels_avx2(work, base, amps, hi)
        })
    } else {
        ("baseline", kernels_baseline)
    }
}

/// The copy of the kernels this CPU runs, and its name.
#[cfg(not(target_arch = "x86_64"))]
fn instantiation() -> (&'static str, KernelFn) {
    ("baseline", kernels_baseline)
}

/// Which compiled copy of the kernels [`apply_gate`] and
/// [`apply_all_tiled`] run on this CPU: `"avx2"` or `"baseline"`. Both give
/// the same amplitudes; a wall-clock number means little without it.
pub fn kernel_isa() -> &'static str {
    instantiation().0
}

/// Applies any gate from the circuit IR, with the gate's qubit indices
/// interpreted as local indices into `state`, through the fastest kernel
/// for the gate's structure: a gate that [`Gate::is_diagonal`] — including
/// a diagonal `U1q`/`U2q` — never reaches the dense matrix kernels, and CX
/// and SWAP are exchanges of amplitude runs, no arithmetic.
///
/// # Panics
/// Panics if a qubit lies outside the buffer or two of them coincide.
pub fn apply_gate(state: &mut [Complex64], gate: &Gate, workers: usize) {
    gate_with(instantiation().1, state, gate, workers)
}

/// [`apply_gate`] through a given copy of the kernels. A gate whose one
/// block is the whole buffer (its top qubit is the buffer's) splits by
/// halves: member `w` takes sub-range `w` of both.
fn gate_with(body: KernelFn, state: &mut [Complex64], gate: &Gate, workers: usize) {
    let n = local_qubits(state.len());
    let q = gate.max_qubit();
    assert!(q < n, "qubit {q} out of range for 2^{n} buffer");
    let kernel = Kernel::of(gate);
    let block = kernel.block();
    if block == state.len() && workers > 1 && state.len() >= PAR_THRESHOLD {
        let (lo, hi) = state.split_at_mut(block / 2);
        let grain = kernel.grain();
        let per = (lo.len() / grain).div_ceil(workers) * grain;
        let shares: Vec<_> = lo.chunks_mut(per).zip(hi.chunks_mut(per)).collect();
        let work = Work::Halves(&kernel);
        parallel::run(shares, |w, (lo, hi)| body(&work, w * per, lo, hi));
        return;
    }
    let run = [Seg::Local(kernel)];
    par_pieces(state, block, workers, |base, amps| {
        let work = Work::Tiles {
            run: &run,
            tile: amps.len(),
        };
        body(&work, base, amps, &mut [])
    });
}

/// Applies SWAP between local qubits `a` and `b`: exchanges index bits `a`
/// and `b` of the buffer, i.e. moves the amplitude at each index `i` to the
/// index with bits `a` and `b` transposed. The scheduler's layout moves are
/// this gate, inside a stage's group buffer.
pub fn apply_swap(state: &mut [Complex64], a: u32, b: u32, workers: usize) {
    apply_gate(state, &Gate::Swap(a, b), workers)
}

/// Default tile width for [`apply_all`]: 2^15 amplitudes = 512 KiB of
/// `Complex64` — sized so one tile plus scratch stays L2-resident.
pub const DEFAULT_TILE_AMPS: usize = 1 << 15;

/// Maximum distinct qubits one folded diagonal run may span; bounds the
/// phase-table size at `2^DIAG_MAX_BITS` entries (16 KiB). The engines cut
/// a stage's diagonal runs at this many qubits *before* they specialize the
/// gates to a chunk group (see [`SweepOp::Cut`]).
pub const DIAG_MAX_BITS: u32 = 10;

/// log2 of the amplitude block inside which the diagonal and permutation
/// tile kernels index by a precomputed low-bit table (a tile narrower than
/// this is one block).
const BLOCK_BITS: u32 = 8;

/// One step of a sweep: what a stage's gates become once they are
/// specialized to one chunk-group buffer.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // a short-lived list, built per group
pub enum SweepOp {
    /// A gate on buffer-local qubits.
    Gate(Gate),
    /// A factor on the whole buffer: a diagonal gate whose qubits all lie
    /// outside it. It folds into the phase table of the diagonal run it
    /// stands in, at its own place in the product.
    Scalar(Complex64),
    /// Fold barrier: the diagonal runs on either side keep separate phase
    /// tables. Which factors share a table decides how their product
    /// rounds, so an engine that promises the same bits under every qubit
    /// layout cuts where the *unspecialized* gate list does — where a gate
    /// that vanished from this group separated two runs, and where a run
    /// outgrows [`DIAG_MAX_BITS`] counting the qubits outside the buffer.
    Cut,
}

/// Accounting from one [`apply_all_tiled`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyAllStats {
    /// Gates applied.
    pub gates: usize,
    /// Scalars applied.
    pub scalars: usize,
    /// Full passes over the amplitude buffer actually made (one per
    /// tiled super-run plus one per global-fallback gate).
    pub passes: usize,
}

impl ApplyAllStats {
    /// Buffer passes avoided relative to one pass per gate and scalar.
    pub fn passes_saved(&self) -> usize {
        (self.gates + self.scalars).saturating_sub(self.passes)
    }
}

/// One factor of a folded diagonal run.
enum Factor<'a> {
    Gate(Diagonal<'a>),
    Scalar(Complex64),
}

impl Factor<'_> {
    /// What the factor multiplies the amplitude at buffer index `idx` by.
    fn at(&self, idx: usize) -> Complex64 {
        match self {
            Factor::Gate(d) => d.factor(idx),
            Factor::Scalar(s) => *s,
        }
    }
}

/// `bits` of every index below `2^width`, gathered into a dense number:
/// entry `k` has bit `j` equal to bit `bits[j]` of `k`. Built by doubling,
/// one index bit at a time.
fn gather_table(bits: &[u32], width: u32) -> Vec<u16> {
    let mut out = Vec::with_capacity(1 << width);
    out.push(0u16);
    for q in 0..width {
        let set = bits.iter().position(|&b| b == q).map_or(0, |j| 1u16 << j);
        out.extend_from_within(..);
        let half = out.len() / 2;
        for o in &mut out[half..] {
            *o |= set;
        }
    }
    out
}

/// A run of consecutive diagonal factors folded into one phase table over
/// their union support (any qubit height — diagonals are elementwise).
struct DiagSeg {
    /// Sorted union of the run's qubits; table index bit `j` is the value
    /// of qubit `support[j]`.
    support: Vec<u32>,
    /// Product of the run's factors in order, `2^support.len()` entries.
    table: Vec<Complex64>,
    /// How many support qubits lie inside a block. They are the low table
    /// index bits, so one block reads one `2^low_bits`-entry sub-table.
    low_bits: usize,
    /// Sub-table index of each amplitude of a block.
    low_off: Vec<u16>,
    /// Per high index: the whole sub-table is exactly one (skip the block).
    unit: Vec<bool>,
}

impl DiagSeg {
    /// Folds `run` into a table for blocks of `2^block_bits` amplitudes.
    /// Every entry is the product `((1 * f0) * f1) * ...` in run order, so
    /// it does not depend on which of the factors are scalars.
    fn new(run: &[Factor<'_>], support: u64, block_bits: u32) -> DiagSeg {
        let support: Vec<u32> = (0..u64::BITS).filter(|q| support >> q & 1 == 1).collect();
        let table: Vec<Complex64> = (0..1usize << support.len())
            .map(|c| {
                // Scatter the entry's bits onto the support qubits.
                let idx = support
                    .iter()
                    .enumerate()
                    .fold(0usize, |idx, (j, &q)| idx | (c >> j & 1) << q);
                run.iter().fold(Complex64::ONE, |f, d| f * d.at(idx))
            })
            .collect();
        let low_bits = support.partition_point(|&q| q < block_bits);
        let low_off = gather_table(&support[..low_bits], block_bits);
        let unit = table
            .chunks_exact(1 << low_bits)
            .map(|sub| sub.iter().all(|f| *f == Complex64::ONE))
            .collect();
        DiagSeg {
            support,
            table,
            low_bits,
            low_off,
            unit,
        }
    }

    /// Multiplies one tile (`base` = its first global amplitude index) by
    /// the table: the high support bits are gathered once per block, then
    /// the block either takes one broadcast factor (no support bit inside
    /// it) or indexes its sub-table through `low_off`.
    #[inline(always)]
    fn apply(&self, base: usize, tile: &mut [Complex64]) {
        let high = &self.support[self.low_bits..];
        let block = self.low_off.len();
        for (b, amps) in tile.chunks_exact_mut(block).enumerate() {
            let idx = base + b * block;
            let hi = high
                .iter()
                .enumerate()
                .fold(0usize, |hi, (j, &q)| hi | (idx >> q & 1) << j);
            if self.unit[hi] {
                continue;
            }
            let sub = &self.table[hi << self.low_bits..(hi + 1) << self.low_bits];
            // `a * f + 0`: the added zero turns the -0.0 a zero amplitude
            // picks up from a factor outside the first quadrant back into
            // +0.0, the only zero the sparse codecs run-length encode.
            if let [f] = sub {
                for a in amps.iter_mut() {
                    *a = a.mul_add(*f, Complex64::ZERO);
                }
            } else {
                // `sub.len()` is a power of two above every offset; the
                // mask lets the compiler drop the bounds check.
                let mask = sub.len() - 1;
                for (a, &o) in amps.iter_mut().zip(&self.low_off) {
                    *a = a.mul_add(sub[o as usize & mask], Complex64::ZERO);
                }
            }
        }
    }
}

/// A run of consecutive X/SWAP gates with all qubits inside the tile,
/// composed into one index permutation `i -> pi(i) ^ xor_mask`, where bit
/// `b` of `pi(i)` is bit `source_of[b]` of `i`.
struct PermSeg {
    source_of: Vec<u32>,
    xor_mask: usize,
    /// `pi(k)` for every offset `k` inside a block. `pi` is linear in the
    /// index bits, so `pi(base | k) == pi(base) ^ low_src[k]`.
    low_src: Vec<u32>,
}

impl PermSeg {
    fn identity(tile_bits: u32) -> PermSeg {
        PermSeg {
            source_of: (0..tile_bits).collect(),
            xor_mask: 0,
            low_src: Vec::new(),
        }
    }

    /// Appends gate `sigma`: the composite map becomes `i -> prev(sigma(i))`.
    fn push(&mut self, gate: &Gate) {
        match gate {
            Gate::X(q) => {
                // pi(i ^ x) = pi(i) ^ pi(x): fold pi(x) into the mask.
                for (b, &src) in self.source_of.iter().enumerate() {
                    if src == *q {
                        self.xor_mask ^= 1usize << b;
                    }
                }
            }
            Gate::Swap(a, b) => {
                for src in self.source_of.iter_mut() {
                    if *src == *a {
                        *src = *b;
                    } else if *src == *b {
                        *src = *a;
                    }
                }
            }
            _ => unreachable!("permutation runs hold X and SWAP only"),
        }
    }

    fn pi(&self, i: usize) -> usize {
        self.source_of
            .iter()
            .enumerate()
            .fold(0usize, |src, (b, &s)| src | (i >> s & 1) << b)
    }

    /// True for a pure X run, which swaps pairs in place without scratch.
    fn is_xor_only(&self) -> bool {
        self.source_of
            .iter()
            .enumerate()
            .all(|(b, &s)| s == b as u32)
    }

    fn finish(&mut self, block_bits: u32) {
        // By doubling: `pi` is linear, so `pi(k | bit) == pi(k) ^ pi(bit)`.
        let mut low_src = Vec::with_capacity(1 << block_bits);
        low_src.push(0u32);
        for q in 0..block_bits {
            let image = self.pi(1 << q) as u32;
            low_src.extend_from_within(..);
            let half = low_src.len() / 2;
            for src in &mut low_src[half..] {
                *src ^= image;
            }
        }
        self.low_src = low_src;
    }

    #[inline(always)]
    fn apply(&self, tile: &mut [Complex64], scratch: &mut [Complex64]) {
        if self.is_xor_only() {
            if self.xor_mask != 0 {
                // `i < i ^ mask` exactly where the mask's top bit is clear
                // in `i`, and the index bits below its lowest bit stay: as
                // in the exchange kernel, whole runs trade places.
                let (mask, top) = (self.xor_mask, self.xor_mask.ilog2());
                let low = mask.trailing_zeros();
                if low < 2 {
                    for g in 0..tile.len() >> 1 {
                        let i = bits::insert_zero_bit(g, top);
                        tile.swap(i, i ^ mask);
                    }
                } else {
                    for g in 0..tile.len() >> 1 >> low {
                        let i = bits::insert_zero_bit(g << low, top);
                        let (head, tail) = tile.split_at_mut(i ^ mask);
                        head[i..][..1 << low].swap_with_slice(&mut tail[..1 << low]);
                    }
                }
            }
            return;
        }
        let block = self.low_src.len();
        // Every source index is below the (power of two) tile length; the
        // mask lets the compiler drop the bounds check.
        let mask = tile.len() - 1;
        for (b, out) in scratch.chunks_exact_mut(block).enumerate() {
            let hi = self.pi(b * block) ^ self.xor_mask;
            for (slot, &lo) in out.iter_mut().zip(&self.low_src) {
                *slot = tile[(hi ^ lo as usize) & mask];
            }
        }
        tile.copy_from_slice(scratch);
    }
}

/// One fusable slice of the op list, classified by how it touches a tile.
enum Seg<'a> {
    Diag(DiagSeg),
    Perm(PermSeg),
    /// Any other gate whose qubits all fit inside the tile; applied
    /// tile-by-tile.
    Local(Kernel),
    /// A gate pairing amplitudes across tiles (or a single diagonal gate
    /// too wide for a phase table); falls back to the global per-gate
    /// kernel.
    Global(&'a Gate),
}

/// Bit mask of the gate's qubits.
fn qubit_mask(gate: &Gate) -> u64 {
    gate.qubits().iter().fold(0, |s, q| s | 1u64 << q)
}

/// Splits the op list into fusable segments for a tile of `2^tile_bits`
/// amplitudes. A diagonal run ends at a non-diagonal gate, at a
/// [`SweepOp::Cut`], and where its support would outgrow one table.
fn segment_ops(ops: &[SweepOp], tile_bits: u32) -> Vec<Seg<'_>> {
    /// A segment before its tables are built.
    enum Raw<'a> {
        /// The run and the bit mask of its union support.
        Diag(Vec<Factor<'a>>, u64),
        Perm(PermSeg),
        Local(&'a Gate),
        Global(&'a Gate),
    }
    let mut raw: Vec<Raw<'_>> = Vec::new();
    // A cut since the last factor: the next one opens a new run.
    let mut cut = false;
    for op in ops {
        let (factor, support) = match op {
            SweepOp::Cut => {
                cut = true;
                continue;
            }
            SweepOp::Scalar(s) => (Factor::Scalar(*s), 0),
            SweepOp::Gate(g) => match g.diagonal() {
                Some(d) if qubit_mask(g).count_ones() <= DIAG_MAX_BITS => {
                    (Factor::Gate(d), qubit_mask(g))
                }
                // A single diagonal gate too wide for a table runs alone.
                Some(_) => {
                    raw.push(Raw::Global(g));
                    continue;
                }
                None => {
                    let is_perm = matches!(g, Gate::X(_) | Gate::Swap(_, _));
                    match raw.last_mut() {
                        _ if g.max_qubit() >= tile_bits => raw.push(Raw::Global(g)),
                        Some(Raw::Perm(perm)) if is_perm => perm.push(g),
                        _ if is_perm => {
                            let mut perm = PermSeg::identity(tile_bits);
                            perm.push(g);
                            raw.push(Raw::Perm(perm));
                        }
                        _ => raw.push(Raw::Local(g)),
                    }
                    continue;
                }
            },
        };
        match raw.last_mut() {
            Some(Raw::Diag(run, merged))
                if !cut && (*merged | support).count_ones() <= DIAG_MAX_BITS =>
            {
                *merged |= support;
                run.push(factor);
            }
            _ => raw.push(Raw::Diag(vec![factor], support)),
        }
        cut = false;
    }

    let block_bits = BLOCK_BITS.min(tile_bits);
    raw.into_iter()
        .map(|r| match r {
            Raw::Diag(run, support) => Seg::Diag(DiagSeg::new(&run, support, block_bits)),
            Raw::Perm(mut perm) => {
                perm.finish(block_bits);
                Seg::Perm(perm)
            }
            Raw::Local(g) => Seg::Local(Kernel::of(g)),
            Raw::Global(g) => Seg::Global(g),
        })
        .collect()
}

/// [`apply_all_tiled`] over plain gates at the default tile width.
pub fn apply_all(state: &mut [Complex64], gates: &[Gate], workers: usize) -> ApplyAllStats {
    let ops: Vec<SweepOp> = gates.iter().cloned().map(SweepOp::Gate).collect();
    apply_all_tiled(state, &ops, workers, DEFAULT_TILE_AMPS)
}

/// Applies every op of a stage in order with cache blocking: the buffer is
/// tiled into blocks of `tile_amps` amplitudes (clamped to the buffer;
/// [`DEFAULT_TILE_AMPS`] is L2-sized) and each maximal run of
/// tile-compatible segments (folded diagonal tables, X/SWAP permutations,
/// tile-local gates) is applied tile-by-tile in **one** parallel sweep, so
/// the run costs one pass over the amplitudes instead of one per gate.
/// Gates pairing amplitudes across tiles fall back to the global per-gate
/// kernels. A scalar costs no pass of its own unless it stands between two
/// such gates.
pub fn apply_all_tiled(
    state: &mut [Complex64],
    ops: &[SweepOp],
    workers: usize,
    tile_amps: usize,
) -> ApplyAllStats {
    sweep_with(instantiation().1, state, ops, workers, tile_amps)
}

/// [`apply_all_tiled`] through a given copy of the kernels.
fn sweep_with(
    body: KernelFn,
    state: &mut [Complex64],
    ops: &[SweepOp],
    workers: usize,
    tile_amps: usize,
) -> ApplyAllStats {
    let count = |f: fn(&SweepOp) -> bool| ops.iter().filter(|op| f(op)).count();
    let mut stats = ApplyAllStats {
        gates: count(|op| matches!(op, SweepOp::Gate(_))),
        scalars: count(|op| matches!(op, SweepOp::Scalar(_))),
        passes: 0,
    };
    if state.is_empty() {
        return stats;
    }
    let tile = tile_amps.max(1).next_power_of_two().min(state.len());
    let segs = segment_ops(ops, tile.trailing_zeros());

    // Group maximal runs of tile-compatible segments into super-runs: one
    // dispatch and one buffer pass each.
    let mut i = 0;
    while i < segs.len() {
        if let Seg::Global(g) = &segs[i] {
            gate_with(body, state, g, workers);
            stats.passes += 1;
            i += 1;
            continue;
        }
        let len = segs[i..]
            .iter()
            .position(|s| matches!(s, Seg::Global(_)))
            .unwrap_or(segs.len() - i);
        let run = &segs[i..i + len];
        let work = Work::Tiles { run, tile };
        par_pieces(state, tile, workers, |base, amps| {
            body(&work, base, amps, &mut [])
        });
        stats.passes += 1;
        i += len;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_circuit::gate::{mat2_h, mat2_x};
    use mq_circuit::library;
    use mq_circuit::unitary::run_dense;
    use mq_num::complex::c64;
    use mq_num::metrics::max_amp_err;

    fn basis(n: u32, idx: usize) -> Vec<Complex64> {
        let mut v = vec![Complex64::ZERO; 1 << n];
        v[idx] = Complex64::ONE;
        v
    }

    /// Oracle check: every kernel result must match the naive reference.
    fn check_gate_against_oracle(n: u32, gate: &Gate, workers: usize) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut state: Vec<Complex64> = (0..1usize << n)
            .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut reference = state.clone();
        apply_gate(&mut state, gate, workers);
        mq_circuit::unitary::apply_gate_dense(n, &mut reference, gate);
        assert!(
            max_amp_err(&state, &reference) < 1e-12,
            "kernel disagrees with oracle for {gate} (workers={workers})"
        );
    }

    /// One gate of every kind the kernels tell apart, on four qubits placed
    /// by `q`.
    fn gate_kinds(q: impl Fn(u32) -> u32) -> Vec<Gate> {
        vec![
            Gate::H(q(0)),
            Gate::H(q(3)),
            Gate::X(q(2)),
            Gate::Y(q(1)),
            Gate::Z(q(3)),
            Gate::S(q(0)),
            Gate::T(q(2)),
            Gate::Sx(q(1)),
            Gate::Rx(q(0), 0.37),
            Gate::Ry(q(3), -1.2),
            Gate::Rz(q(2), 2.2),
            Gate::P(q(1), 0.9),
            Gate::U3(q(0), 0.3, 0.5, 0.7),
            Gate::Cx(q(0), q(3)),
            Gate::Cx(q(3), q(0)),
            Gate::Cy(q(1), q(2)),
            Gate::Cz(q(0), q(2)),
            Gate::Cp(q(2), q(3), 0.4),
            Gate::Swap(q(0), q(3)),
            Gate::Swap(q(2), q(1)),
            Gate::Rzz(q(1), q(3), 0.8),
            Gate::ccx(q(0), q(1), q(2)),
            Gate::ccx(q(2), q(3), q(0)),
            Gate::mcz(&[q(0), q(1), q(2)], q(3)),
            Gate::mcx(&[q(3)], q(1)),
            Gate::U2q(q(1), q(3), Mat4::kron(&mat2_h(), &mat2_x())),
            Gate::U2q(q(3), q(1), Mat4::kron(&mat2_h(), &mat2_x())),
            Gate::U1q(q(2), mat2_h()),
        ]
    }

    #[test]
    fn every_gate_kind_matches_oracle() {
        for g in &gate_kinds(|q| q) {
            for workers in [1usize, 3] {
                check_gate_against_oracle(4, g, workers);
            }
        }
    }

    #[test]
    fn parallel_kernels_match_serial_on_large_buffers() {
        // Large enough to cross PAR_THRESHOLD.
        let n = 16u32;
        let mut a: Vec<Complex64> = (0..1usize << n)
            .map(|i| c64((i as f64 * 0.001).sin(), (i as f64 * 0.002).cos()))
            .collect();
        let mut b = a.clone();
        for g in [
            Gate::H(15),
            Gate::Cx(0, 15),
            Gate::Swap(3, 14),
            Gate::Rzz(7, 12, 0.3),
            Gate::ccx(1, 14, 8),
        ] {
            apply_gate(&mut a, &g, 1);
            apply_gate(&mut b, &g, 4);
        }
        assert!(max_amp_err(&a, &b) < 1e-12);
    }

    #[test]
    fn h_on_basis_state() {
        let mut s = basis(1, 0);
        apply_gate(&mut s, &Gate::H(0), 1);
        let r = std::f64::consts::FRAC_1_SQRT_2;
        assert!(s[0].approx_eq(c64(r, 0.0), 1e-12));
        assert!(s[1].approx_eq(c64(r, 0.0), 1e-12));
    }

    #[test]
    fn kernels_work_on_chunk_sized_buffers() {
        // The chunked engine applies kernels to small buffers; local qubit
        // indices address within the buffer regardless of global position.
        let mut chunk = basis(3, 0b010);
        apply_gate(&mut chunk, &Gate::X(0), 1);
        assert!(chunk[0b011].approx_eq(Complex64::ONE, 1e-12));
        apply_gate(&mut chunk, &Gate::Cx(0, 2), 1);
        assert!(chunk[0b111].approx_eq(Complex64::ONE, 1e-12));
    }

    #[test]
    fn whole_circuits_match_oracle() {
        for c in library::standard_suite(6) {
            let mut s = basis(6, 0);
            for g in c.gates() {
                apply_gate(&mut s, g, 2);
            }
            let want = run_dense(&c, 0);
            assert!(
                max_amp_err(&s, &want) < 1e-10,
                "{} diverged from oracle",
                c.name()
            );
        }
    }

    fn random_state(n: u32, seed: u64) -> Vec<Complex64> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..1usize << n)
            .map(|_| c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    fn ops_of(gates: &[Gate]) -> Vec<SweepOp> {
        gates.iter().cloned().map(SweepOp::Gate).collect()
    }

    /// The op list one op at a time: per-gate kernels, a plain multiply per
    /// scalar.
    fn apply_ops_one_by_one(state: &mut [Complex64], ops: &[SweepOp]) {
        for op in ops {
            match op {
                SweepOp::Gate(g) => apply_gate(state, g, 1),
                SweepOp::Scalar(s) => state.iter_mut().for_each(|z| *z *= *s),
                SweepOp::Cut => {}
            }
        }
    }

    /// The sweep must match the sequential per-op reference for any op
    /// list, tile width and worker count.
    fn check_sweep(n: u32, ops: &[SweepOp], tile_amps: usize, workers: usize) {
        let mut blocked = random_state(n, 7);
        let mut reference = blocked.clone();
        let stats = apply_all_tiled(&mut blocked, ops, workers, tile_amps);
        apply_ops_one_by_one(&mut reference, ops);
        assert!(
            max_amp_err(&blocked, &reference) < 1e-12,
            "blocked apply diverged (tile={tile_amps}, workers={workers})"
        );
        assert!(stats.passes <= stats.gates + stats.scalars);
    }

    /// [`check_sweep`] on a gate list, bare and with a scalar and a cut in
    /// the middle.
    fn check_apply_all(n: u32, gates: &[Gate], tile_amps: usize, workers: usize) {
        let mut ops = ops_of(gates);
        check_sweep(n, &ops, tile_amps, workers);
        ops.insert(gates.len() / 2, SweepOp::Scalar(Complex64::cis(0.3)));
        ops.insert(gates.len() / 2, SweepOp::Cut);
        check_sweep(n, &ops, tile_amps, workers);
    }

    #[test]
    fn apply_all_matches_per_gate_reference() {
        let gates = vec![
            Gate::H(0),
            Gate::T(0),
            Gate::Cp(1, 2, 0.3),
            Gate::Rz(5, 0.9), // diagonal above small tiles
            Gate::X(1),
            Gate::Swap(0, 2),
            Gate::X(0),
            Gate::Cx(3, 1),
            Gate::H(5), // above 2^4 tiles: global fallback
            Gate::Rzz(0, 5, 0.4),
            Gate::ccx(0, 1, 2),
        ];
        for tile in [2usize, 16, 64, 1 << 15] {
            for workers in [1usize, 3] {
                check_apply_all(6, &gates, tile, workers);
            }
        }
    }

    #[test]
    fn apply_all_matches_on_library_circuits() {
        for c in library::standard_suite(6) {
            for tile in [8usize, 64, 1 << 15] {
                check_apply_all(6, c.gates(), tile, 2);
            }
        }
        let c = library::random_circuit(7, 12, 9);
        for tile in [16usize, 128] {
            check_apply_all(7, c.gates(), tile, 3);
        }
    }

    #[test]
    fn apply_all_permutation_runs_compose() {
        // Long X/SWAP-only runs exercise both the xor fast path and the
        // scratch bit-permutation path.
        let xs = vec![Gate::X(0), Gate::X(3), Gate::X(0), Gate::X(1)];
        check_apply_all(5, &xs, 8, 1);
        let mixed = vec![
            Gate::Swap(0, 2),
            Gate::X(1),
            Gate::Swap(1, 3),
            Gate::X(3),
            Gate::Swap(0, 1),
        ];
        for tile in [16usize, 32] {
            check_apply_all(5, &mixed, tile, 2);
        }
    }

    #[test]
    fn apply_all_counts_passes_saved() {
        // Five tile-local gates fuse into one sweep: 1 pass, 4 saved.
        let gates = vec![
            Gate::H(0),
            Gate::T(1),
            Gate::Cz(0, 1),
            Gate::X(2),
            Gate::H(1),
        ];
        let mut s = random_state(4, 3);
        let stats = apply_all(&mut s, &gates, 1);
        assert_eq!(stats.passes, 1);
        assert_eq!(stats.passes_saved(), 4);

        // A cross-tile gate splits the sweep and costs its own pass.
        let gates = vec![Gate::H(0), Gate::H(3), Gate::T(0)];
        let mut s = random_state(4, 3);
        let stats = apply_all_tiled(&mut s, &ops_of(&gates), 1, 4);
        assert_eq!(stats.passes, 3, "H(3) pairs across 2^2 tiles");
        assert_eq!(stats.passes_saved(), 0);

        // Diagonal gates above the tile width still fuse (elementwise).
        let gates = vec![Gate::Rz(3, 0.2), Gate::Cp(0, 3, 0.5), Gate::T(1)];
        let mut s = random_state(4, 3);
        let stats = apply_all_tiled(&mut s, &ops_of(&gates), 1, 4);
        assert_eq!(stats.passes, 1);
        assert_eq!(stats.passes_saved(), 2);
    }

    #[test]
    fn a_scalar_folds_into_the_pass_it_stands_in() {
        let s = SweepOp::Scalar(Complex64::cis(1.1));
        let g = SweepOp::Gate;
        let passes = |ops: &[SweepOp], tile: usize| {
            let mut state = random_state(4, 3);
            let stats = apply_all_tiled(&mut state, ops, 1, tile);
            assert_eq!(stats.scalars, 1);
            assert_eq!(stats.passes_saved(), stats.gates + 1 - stats.passes);
            stats.passes
        };
        // Into the phase table of its own diagonal run.
        let ops = [g(Gate::H(3)), g(Gate::T(0)), s.clone(), g(Gate::H(3))];
        assert_eq!(passes(&ops, 4), 3);
        // Without one: a table of its own inside the tiled pass.
        let ops = [g(Gate::H(3)), g(Gate::H(0)), s.clone(), g(Gate::X(1))];
        assert_eq!(passes(&ops, 4), 2);
        // Only between two cross-tile gates (or alone) does it cost a pass.
        let ops = [g(Gate::H(3)), s.clone(), g(Gate::Cx(0, 3))];
        assert_eq!(passes(&ops, 4), 3);
        assert_eq!(passes(&[s], 4), 1);
    }

    /// The phase tables a sweep of `ops` folds, in order.
    fn tables(ops: &[SweepOp]) -> Vec<Vec<Complex64>> {
        segment_ops(ops, 4)
            .into_iter()
            .filter_map(|seg| match seg {
                Seg::Diag(d) => Some(d.table),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_table_is_the_ordered_product_whichever_factors_are_scalars() {
        // Rz on a buffer qubit, or the same gate on a qubit outside the
        // buffer (a scalar): the entries it reaches hold the same bits.
        let (a, b, c) = (0.3, 1.7, -2.2);
        let inside = tables(&ops_of(&[Gate::Rz(0, a), Gate::Rz(1, b), Gate::P(0, c)]));
        for bit in [0usize, 1] {
            let Some(Diagonal::One { d, .. }) = Gate::Rz(1, b).diagonal() else {
                unreachable!()
            };
            let outside = tables(&[
                SweepOp::Gate(Gate::Rz(0, a)),
                SweepOp::Scalar(d[bit]),
                SweepOp::Gate(Gate::P(0, c)),
            ]);
            assert_eq!(outside[0], inside[0][2 * bit..2 * bit + 2]);
        }
    }

    #[test]
    fn a_cut_keeps_the_runs_on_either_side_in_separate_tables() {
        let (t, z) = (SweepOp::Gate(Gate::T(0)), SweepOp::Gate(Gate::Rz(1, 0.4)));
        assert_eq!(tables(&[t.clone(), z.clone()]).len(), 1);
        let cut = tables(&[t.clone(), SweepOp::Cut, z.clone()]);
        assert_eq!(cut.len(), 2);
        assert_eq!(cut[0], tables(&[t])[0]);
        assert_eq!(cut[1], tables(&[z])[0]);
        // A cut beside a gate that ends the run anyway changes nothing.
        let h = SweepOp::Gate(Gate::H(0));
        let ops = [SweepOp::Cut, h.clone(), SweepOp::Cut];
        assert!(tables(&ops).is_empty());
        check_sweep(4, &ops, 4, 1);
    }

    #[test]
    fn diagonal_forms_never_reach_the_dense_kernels() {
        // A dense kernel mixes each amplitude with its partner, so an
        // infinite partner turns `0 * inf` into NaN; a diagonal kernel
        // leaves the finite amplitudes finite.
        let rzz = Gate::Rzz(0, 1, 0.4).mat4().unwrap();
        for g in [
            Gate::U1q(1, mq_circuit::gate::mat2_p(0.7)),
            Gate::U2q(2, 0, rzz),
            Gate::Cp(0, 2, 0.3),
        ] {
            assert!(g.is_diagonal());
            let poisoned = || {
                let mut s = random_state(3, 5);
                s[7] = c64(f64::INFINITY, 0.0);
                s
            };
            for (name, body) in instantiations() {
                let mut direct = poisoned();
                gate_with(body, &mut direct, &g, 1);
                let mut swept = poisoned();
                sweep_with(body, &mut swept, &ops_of(std::slice::from_ref(&g)), 1, 2);
                for s in [&direct, &swept] {
                    let finite = |z: &Complex64| z.re.is_finite() && z.im.is_finite();
                    assert!(s[..7].iter().all(finite), "{g} ({name})");
                }
            }
        }
    }

    #[test]
    fn folded_tables_keep_zero_amplitudes_positive_zero() {
        // Two first-quadrant phases fold into a second-quadrant factor;
        // `0 * f` alone would leave -0.0, which zero-RLE stores as a
        // literal.
        let gates = vec![Gate::P(0, 2.0), Gate::Cp(0, 1, 1.0), Gate::Rz(3, -2.5)];
        let mut sparse = vec![Complex64::ZERO; 16];
        sparse[5] = Complex64::ONE;
        let mut ops = ops_of(&gates);
        ops.push(SweepOp::Scalar(Complex64::cis(3.0)));
        for (name, body) in instantiations() {
            for tile in [2usize, 16] {
                let mut s = sparse.clone();
                sweep_with(body, &mut s, &ops, 1, tile);
                for (i, z) in s.iter().enumerate().filter(|(i, _)| *i != 5) {
                    assert_eq!(bits_of(z), (0, 0), "amplitude {i} ({name})");
                }
            }
        }
    }

    #[test]
    fn a_diagonal_gate_too_wide_for_a_table_falls_back_to_its_kernel() {
        // 13 qubits of support would need a 2^13-entry table (and 2^n for
        // an n-control Grover oracle): it runs through the controlled kernel
        // instead.
        let controls: Vec<u32> = (0..12).collect();
        let gates = vec![Gate::T(3), Gate::mcz(&controls, 12), Gate::Cz(0, 12)];
        let ops = ops_of(&gates);
        let segs = segment_ops(&ops, 6);
        assert!(matches!(
            segs.as_slice(),
            [Seg::Diag(_), Seg::Global(_), Seg::Diag(_)]
        ));
        check_apply_all(13, &gates, 64, 2);
    }

    #[test]
    fn apply_all_empty_and_degenerate() {
        let mut s = random_state(3, 1);
        let before = s.clone();
        let stats = apply_all(&mut s, &[], 2);
        assert_eq!(stats, ApplyAllStats::default());
        assert!(max_amp_err(&s, &before) < 1e-15);
        // Single-amplitude buffer (0 local qubits): only scalars possible,
        // and an empty gate list must be a no-op.
        let mut one = vec![Complex64::ONE];
        assert_eq!(apply_all(&mut one, &[], 1).passes, 0);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_qubit() {
        let mut s = basis(2, 0);
        apply_gate(&mut s, &Gate::H(5), 1);
    }

    #[test]
    #[should_panic]
    fn rejects_control_overlapping_target() {
        let mut s = basis(2, 0);
        let overlapping = Gate::Mcu {
            controls: vec![0],
            target: 0,
            u: mat2_x(),
        };
        apply_gate(&mut s, &overlapping, 1);
    }

    /// A random state sprinkled with the values arithmetic treats
    /// specially: both zeros, both infinities and NaN.
    fn hostile_state(n: u32, seed: u64) -> Vec<Complex64> {
        let special = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let mut state = random_state(n, seed);
        for (i, z) in state.iter_mut().enumerate() {
            match i % 7 {
                0 => z.re = special[i / 7 % 5],
                3 => z.im = special[i / 7 % 5],
                _ => {}
            }
        }
        state
    }

    fn bits_of(z: &Complex64) -> (u64, u64) {
        (z.re.to_bits(), z.im.to_bits())
    }

    #[test]
    fn cx_and_swap_move_amplitudes_exactly() {
        // The permutation semantics the layout moves rely on: SWAP lands
        // the amplitude at index i on i with bits (a, b) transposed, CX on
        // i with the target bit flipped where the control is set. Every
        // (lo, hi) shape, both orders; a multiply-by-X path would turn the
        // `0 * inf` it meets here into NaN.
        let n = 6u32;
        let s0 = hostile_state(n, 9);
        let transposed = |i: usize, a: u32, b: u32| {
            let (ba, bb) = ((i >> a) & 1, (i >> b) & 1);
            (i & !((1 << a) | (1 << b))) | (bb << a) | (ba << b)
        };
        for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
            if a == b {
                continue;
            }
            let mut swapped = s0.clone();
            apply_swap(&mut swapped, a, b, 1);
            let mut cx = s0.clone();
            apply_gate(&mut cx, &Gate::Cx(a, b), 1);
            for (i, amp) in s0.iter().enumerate() {
                let j = transposed(i, a, b);
                assert_eq!(bits_of(&swapped[j]), bits_of(amp), "swap({a},{b}) {i}");
                let j = i ^ (i >> a & 1) << b;
                assert_eq!(bits_of(&cx[j]), bits_of(amp), "cx({a},{b}) {i}");
            }
        }
        // Across the thread split too.
        let big = hostile_state(16, 4);
        for g in [Gate::Cx(15, 0), Gate::Cx(1, 14), Gate::Swap(3, 15)] {
            let (mut serial, mut split) = (big.clone(), big.clone());
            apply_gate(&mut serial, &g, 1);
            apply_gate(&mut split, &g, 3);
            assert!(serial.iter().map(bits_of).eq(split.iter().map(bits_of)));
        }
    }

    /// Every compiled copy of the kernels this CPU can run, baseline first.
    fn instantiations() -> Vec<(&'static str, KernelFn)> {
        let mut all: Vec<(&'static str, KernelFn)> = vec![("baseline", kernels_baseline)];
        if kernel_isa() != "baseline" {
            all.push(instantiation());
        }
        all
    }

    /// Bit patterns of a state, with every NaN folded onto one: Rust leaves
    /// the sign and payload of a *computed* NaN unspecified, and the two
    /// copies may order the operands of a commutative instruction
    /// differently.
    fn bit_key(state: &[Complex64]) -> Vec<u64> {
        let key = |x: f64| if x.is_nan() { u64::MAX } else { x.to_bits() };
        state.iter().flat_map(|z| [key(z.re), key(z.im)]).collect()
    }

    #[test]
    fn every_instantiation_gives_the_same_bits() {
        let all = instantiations();
        let names: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
        println!("kernel copies compared: {names:?}");
        let (_, baseline) = all[0];
        let n = 9u32;
        // Pairs inside one vector, across two, and in different blocks:
        // every gate kind at every position, qubits adjacent and spread.
        let mut lists: Vec<Vec<Gate>> = Vec::new();
        for shift in 0..n {
            for stride in [1, 2] {
                lists.push(gate_kinds(|q| (q * stride + shift) % n));
            }
        }
        // A folded diagonal run with and without support below the 2^8
        // block, and an X/SWAP run.
        lists.push(vec![
            Gate::T(0),
            Gate::Cp(1, 8, 0.3),
            Gate::Rzz(3, 5, 1.1),
            Gate::Rz(2, -0.7),
        ]);
        lists.push(vec![Gate::Rz(8, 0.9), Gate::P(8, -2.0)]);
        lists.push(vec![
            Gate::X(0),
            Gate::Swap(1, 5),
            Gate::X(7),
            Gate::Swap(0, 8),
        ]);
        for &(name, wide) in &all[1..] {
            for (state, what) in [
                (random_state(n, 3), "random"),
                (hostile_state(n, 3), "hostile"),
            ] {
                for gates in &lists {
                    for g in gates {
                        let (mut a, mut b) = (state.clone(), state.clone());
                        gate_with(baseline, &mut a, g, 1);
                        gate_with(wide, &mut b, g, 1);
                        assert_eq!(bit_key(&a), bit_key(&b), "{name}, {what} state, {g}");
                    }
                    let ops = ops_of(gates);
                    for tile in [1usize << 1, 1 << 4, 1 << 8, DEFAULT_TILE_AMPS] {
                        let (mut a, mut b) = (state.clone(), state.clone());
                        sweep_with(baseline, &mut a, &ops, 1, tile);
                        sweep_with(wide, &mut b, &ops, 1, tile);
                        assert_eq!(
                            bit_key(&a),
                            bit_key(&b),
                            "{name}, {what} state, tile {tile}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_split_across_members_gives_the_same_bits() {
        // Every gate kind on the top qubit (and the top two) of a buffer
        // above PAR_THRESHOLD, so its one whole-buffer block splits by
        // halves; every copy of the kernels, every member count, and a
        // sweep whose cross-tile gates take the same path.
        let n = 16u32;
        let state = random_state(n, 11);
        let (_, baseline) = instantiations()[0];
        let gates: Vec<Gate> = (0..4)
            .flat_map(|shift| gate_kinds(move |q| n - 4 + (q + shift) % 4))
            .filter(|g| g.max_qubit() == n - 1)
            .collect();
        let run = |body, workers, apply: &dyn Fn(KernelFn, &mut [Complex64], usize)| {
            let mut s = state.clone();
            apply(body, &mut s, workers);
            bit_key(&s)
        };
        let sweep = |body, s: &mut [Complex64], workers| {
            sweep_with(body, s, &ops_of(&gates), workers, 1 << 12);
        };
        let want = run(baseline, 1, &sweep);
        for g in &gates {
            let gate = |body, s: &mut [Complex64], workers| gate_with(body, s, g, workers);
            let want = run(baseline, 1, &gate);
            for (name, body) in instantiations() {
                for workers in [1usize, 2, 3] {
                    assert_eq!(run(body, workers, &gate), want, "{name}, {g}, {workers}");
                }
            }
        }
        for (name, body) in instantiations() {
            for workers in [2usize, 3] {
                assert_eq!(run(body, workers, &sweep), want, "{name}, sweep, {workers}");
            }
        }
    }

    #[test]
    fn swap_matches_the_swap_gate_oracle() {
        check_gate_against_oracle(5, &Gate::Swap(0, 4), 1);
        check_gate_against_oracle(5, &Gate::Swap(2, 3), 2);
        // Self-inverse: applying twice is the identity.
        let mut s = random_state(5, 7);
        let before = s.clone();
        apply_swap(&mut s, 0, 3, 1);
        apply_swap(&mut s, 0, 3, 1);
        assert!(max_amp_err(&s, &before) < 1e-15);
    }

    use mq_circuit::matrix::Mat4;
}
