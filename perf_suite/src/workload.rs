//! The four workloads: what each generates from `--seed`, how the program
//! is configured for it, and how its answer is checked.
//!
//! Configurations set only `chunk_bits`, `codec` and `workers`; every other
//! knob stays at the program's default, so a later change of a default
//! shows up here as a measured gain or loss.

use memqsim_core::store::ChunkStore;
use memqsim_core::MemQSimConfig;
use mq_circuit::{library, Circuit, Gate};
use mq_compress::{CodecError, CodecSpec};
use mq_num::Complex64;

/// Which engine entry point runs the circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `engine::cpu::run`.
    Cpu,
    /// `engine::hybrid::run` on one `DeviceSpec::pcie_gen3()` device,
    /// pipelined.
    Hybrid,
}

/// How the final state is held against the dense oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Lossy codec: fidelity >= 1 - 1e-9 and |norm - 1| <= 1e-9.
    Fidelity,
    /// Lossless codec: every amplitude within 1e-12.
    Exact,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Qft,
    Random,
    Bv,
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layer the workload loads.
    pub why: &'static str,
    shape: Shape,
    engine: Engine,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "qft22_default",
        why: "structured compressible state, 6 stages x 64 chunks: the apply path (specialise + kernels + buffers) is ~70% of the run, the SZ codec ~27%",
        shape: Shape::Qft,
        engine: Engine::Cpu,
    },
    Workload {
        name: "random20_default",
        why: "incompressible state, 41 stages x 64 chunks: SZ ~50% of the run, the store around it (checksum, plane split) ~37%, apply ~10%; a kernel speed-up must not move it",
        shape: Shape::Random,
        engine: Engine::Cpu,
    },
    Workload {
        name: "bv24_auto_w2",
        why: "sparse state, lossless Auto codec (probe + zero-RLE/FPC), two workers contending on store slots and the telemetry lock; 75% of encodes are of all-zero chunks",
        shape: Shape::Bv,
        engine: Engine::Cpu,
    },
    Workload {
        name: "qft22_hybrid",
        why: "same circuit and store work as qft22_default through the device pipeline: isolates mq-device and the hybrid executor threads",
        shape: Shape::Qft,
        engine: Engine::Hybrid,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated problem: the only thing the program receives is `circuit`
/// (and the configuration).
pub struct Instance {
    pub circuit: Circuit,
    pub cfg: MemQSimConfig,
    pub engine: Engine,
    pub check: Check,
}

/// Seed of the part of the random workload that `--seed` leaves alone: the
/// CX pairing pattern, every rotation angle theta, and the whole first half
/// of the circuit. The pattern decides the plan (stages, visits); theta and
/// the early layers decide how fast the state fills in, and with it how much
/// of each chunk SZ can quantise instead of storing verbatim, which moved
/// the run time by 20 % from seed to seed when everything was redrawn.
/// `--seed` redraws the two phase angles of every U3 in the second half.
const RANDOM_STRUCTURE_SEED: u64 = 11;

impl Workload {
    /// Generates the problem for `seed`. `smoke` shrinks it to 12 qubits for
    /// the unit tests; reported numbers never use it.
    pub fn instance(&self, seed: u64, smoke: bool) -> Instance {
        let (circuit, cfg, check) = match self.shape {
            Shape::Qft => {
                let (n, chunk_bits) = if smoke { (12, 8) } else { (22, 16) };
                let cfg = MemQSimConfig {
                    chunk_bits,
                    ..MemQSimConfig::default()
                };
                (library::qft(n), cfg, Check::Fidelity)
            }
            Shape::Random => {
                let (n, depth, chunk_bits) = if smoke { (12, 4, 6) } else { (20, 10, 14) };
                let cfg = MemQSimConfig {
                    chunk_bits,
                    ..MemQSimConfig::default()
                };
                (random_circuit(n, depth, seed), cfg, Check::Fidelity)
            }
            Shape::Bv => {
                let (data, chunk_bits) = if smoke { (11, 8) } else { (23, 16) };
                let cfg = MemQSimConfig {
                    chunk_bits,
                    codec: CodecSpec::Auto { eb: None },
                    workers: 2,
                    ..MemQSimConfig::default()
                };
                let secret = bv_secret(data, chunk_bits, seed);
                (library::bernstein_vazirani(data, secret), cfg, Check::Exact)
            }
        };
        Instance {
            circuit,
            cfg,
            engine: self.engine,
            check,
        }
    }
}

/// `library::random_circuit(n, depth, RANDOM_STRUCTURE_SEED)` with the phase
/// angles (phi, lambda) of the U3 gates in its second half taken from
/// `library::random_circuit(n, depth, seed)`. Both circuits have the same
/// layout (a U3 on every qubit, then n/2 CX, per layer), so gates pair up by
/// index; for the structure seed itself the library circuit comes back
/// unchanged.
fn random_circuit(n: u32, depth: u32, seed: u64) -> Circuit {
    let phases = library::random_circuit(n, depth, seed);
    let structure = library::random_circuit(n, depth, RANDOM_STRUCTURE_SEED);
    let mut c = Circuit::named(n, structure.name());
    let half = structure.len() / 2;
    for (i, (p, s)) in phases.gates().iter().zip(structure.gates()).enumerate() {
        c.push(match (p, s) {
            (Gate::U3(_, _, phi, lambda), Gate::U3(q, theta, ..)) if i >= half => {
                Gate::U3(*q, *theta, *phi, *lambda)
            }
            _ => s.clone(),
        });
    }
    c
}

/// SplitMix64: the benchmark's own generator, so its inputs depend on no
/// crate the program may change.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A BV secret over `data` bits with a fixed number of set bits below and
/// at-or-above `chunk_bits`: half of each range. The secret's weight is the
/// oracle's CX count and its split decides how many of those cross chunks,
/// so fixing both keeps the work the same for every seed while the seed
/// still picks which bits are set.
fn bv_secret(data: u32, chunk_bits: u32, seed: u64) -> u64 {
    let mut rng = SplitMix64(seed);
    let split = chunk_bits.min(data);
    let mut secret = 0u64;
    for (lo, hi) in [(0, split), (split, data)] {
        let mut positions: Vec<u32> = (lo..hi).collect();
        let take = positions.len().div_ceil(2);
        for k in 0..take {
            let j = k + (rng.next_u64() % (positions.len() - k) as u64) as usize;
            positions.swap(k, j);
            secret |= 1 << positions[k];
        }
    }
    secret
}

/// How one run's final state compares with the dense oracle.
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
    pub fidelity: f64,
    pub norm: f64,
    pub max_amp_err: f64,
    pub ok: bool,
}

/// Reads the store back chunk by chunk (never inside a timed region) and
/// holds it against `oracle` under `check`: the figures of
/// `mq_num::metrics::{fidelity, max_amp_err}` in one streaming pass, so a
/// 24-qubit check does not build a second 256 MiB dense state.
pub fn verify(
    store: &dyn ChunkStore,
    oracle: &[Complex64],
    check: Check,
) -> Result<Verdict, CodecError> {
    let ca = store.chunk_amps();
    let mut buf = vec![Complex64::ZERO; ca];
    let (mut dot, mut got_sq, mut want_sq, mut max_err) = (Complex64::ZERO, 0.0f64, 0.0f64, 0.0f64);
    for i in 0..store.chunk_count() {
        store.load_chunk(i, &mut buf)?;
        for (g, w) in buf.iter().zip(&oracle[i * ca..(i + 1) * ca]) {
            dot = g.conj().mul_add(*w, dot);
            got_sq += g.norm_sqr();
            want_sq += w.norm_sqr();
            max_err = max_err.max((*g - *w).norm());
        }
    }
    let norm = got_sq.sqrt();
    let fidelity = if got_sq > 0.0 && want_sq > 0.0 {
        (dot.norm_sqr() / (got_sq * want_sq)).min(1.0)
    } else {
        0.0
    };
    let ok = match check {
        Check::Fidelity => fidelity >= 1.0 - 1e-9 && (norm - 1.0).abs() <= 1e-9,
        Check::Exact => max_err <= 1e-12,
    };
    Ok(Verdict {
        fidelity,
        norm,
        max_amp_err: max_err,
        ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
        for w in &WORKLOADS {
            let a = w.instance(3, true);
            let b = w.instance(3, true);
            let c = w.instance(4, true);
            assert_eq!(a.circuit.gates(), b.circuit.gates(), "{}", w.name);
            assert_eq!(a.cfg, b.cfg);
            if w.shape == Shape::Qft {
                // The QFT has nothing to draw.
                assert_eq!(a.circuit.gates(), c.circuit.gates());
            } else {
                assert_ne!(a.circuit.gates(), c.circuit.gates(), "{}", w.name);
                assert_eq!(a.circuit.len(), c.circuit.len(), "{}", w.name);
            }
        }
    }

    #[test]
    fn random_workload_redraws_only_the_phases_of_its_second_half() {
        let structure = library::random_circuit(12, 4, RANDOM_STRUCTURE_SEED);
        let c = random_circuit(12, 4, 5);
        let half = structure.len() / 2;
        let mut redrawn = 0;
        for (i, (g, s)) in c.gates().iter().zip(structure.gates()).enumerate() {
            match (g, s) {
                (Gate::U3(q, theta, ..), Gate::U3(sq, stheta, ..)) if i >= half => {
                    assert_eq!((q, theta), (sq, stheta));
                    redrawn += usize::from(g != s);
                }
                _ => assert_eq!(g, s, "gate {i}"),
            }
        }
        assert_eq!(redrawn, 24, "every U3 of the last two layers");
        // The structure seed itself gives the library circuit unchanged.
        assert_eq!(
            random_circuit(12, 4, RANDOM_STRUCTURE_SEED).gates(),
            structure.gates()
        );
    }

    #[test]
    fn bv_secret_has_the_same_weight_on_each_side_for_every_seed() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..32 {
            let s = bv_secret(23, 16, seed);
            assert_eq!((s & 0xffff).count_ones(), 8, "{s:x}");
            assert_eq!((s >> 16).count_ones(), 4, "{s:x}");
            assert!(s < 1 << 23);
            seen.insert(s);
        }
        assert!(seen.len() > 28, "seeds should give different secrets");
    }

    #[test]
    fn full_scale_shapes_match_the_issue() {
        let q = find("qft22_default").unwrap().instance(1, false);
        assert_eq!((q.circuit.n_qubits(), q.cfg.chunk_bits), (22, 16));
        let r = find("random20_default").unwrap().instance(1, false);
        assert_eq!((r.circuit.n_qubits(), r.cfg.chunk_bits), (20, 14));
        let b = find("bv24_auto_w2").unwrap().instance(1, false);
        assert_eq!((b.circuit.n_qubits(), b.cfg.workers), (24, 2));
        assert_eq!(b.cfg.codec, CodecSpec::Auto { eb: None });
        assert_eq!(find("qft22_hybrid").unwrap().engine, Engine::Hybrid);
    }
}
