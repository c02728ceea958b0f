//! Measurement on the compressed store.
//!
//! Sampling never materializes the dense state: chunk probabilities are
//! accumulated streaming (one decompressed chunk at a time), shots are
//! assigned to chunks by inverse-CDF, and each needed chunk is decompressed
//! exactly once to resolve its shots' offsets.

use crate::planner::chunk_groups;
use crate::store::ChunkStore;
use mq_circuit::layout::QubitLayout;
use mq_circuit::partition::Stage;
use mq_compress::CodecError;
use mq_num::Complex64;
use mq_statevec::expval::{expectation, Pauli, PauliString};
use mq_statevec::State;
use rand::Rng;

/// Per-chunk total probabilities (streaming; one chunk resident at a time).
pub fn chunk_probabilities(store: &dyn ChunkStore) -> Result<Vec<f64>, CodecError> {
    let mut buf = vec![Complex64::ZERO; store.chunk_amps()];
    let mut probs = Vec::with_capacity(store.chunk_count());
    for i in 0..store.chunk_count() {
        store.load_chunk(i, &mut buf)?;
        probs.push(buf.iter().map(|z| z.norm_sqr()).sum());
    }
    Ok(probs)
}

/// Draws `shots` full-register samples, returning `(basis_state, count)`
/// pairs sorted by descending count (ties by state index).
pub fn sample_counts<R: Rng>(
    store: &dyn ChunkStore,
    shots: usize,
    rng: &mut R,
) -> Result<Vec<(usize, usize)>, CodecError> {
    let chunk_probs = chunk_probabilities(store)?;
    let total: f64 = chunk_probs.iter().sum();
    // Lossy compression can leave the norm slightly off 1; normalize here.
    assert!(total > 0.0, "state has zero norm");

    // Assign shots to chunks.
    let mut shots_per_chunk = vec![0usize; chunk_probs.len()];
    for _ in 0..shots {
        let mut r = rng.gen_range(0.0..total);
        let mut chosen = chunk_probs.len() - 1;
        for (i, &p) in chunk_probs.iter().enumerate() {
            if r < p {
                chosen = i;
                break;
            }
            r -= p;
        }
        shots_per_chunk[chosen] += 1;
    }

    // Resolve offsets chunk by chunk.
    let mut counts: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut buf = vec![Complex64::ZERO; store.chunk_amps()];
    for (chunk, &k) in shots_per_chunk.iter().enumerate() {
        if k == 0 {
            continue;
        }
        store.load_chunk(chunk, &mut buf)?;
        let chunk_total: f64 = buf.iter().map(|z| z.norm_sqr()).sum();
        for _ in 0..k {
            let mut r = rng.gen_range(0.0..chunk_total.max(f64::MIN_POSITIVE));
            let mut offset = buf.len() - 1;
            for (o, z) in buf.iter().enumerate() {
                let p = z.norm_sqr();
                if r < p {
                    offset = o;
                    break;
                }
                r -= p;
            }
            let basis = (chunk << store.chunk_bits()) | offset;
            *counts.entry(basis).or_insert(0) += 1;
        }
    }
    let mut v: Vec<(usize, usize)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    Ok(v)
}

/// Expectation of a product of Pauli-Z operators, computed streaming from
/// the compressed store (Z-strings are diagonal, so no pairing is needed):
/// `<Z_{q0} Z_{q1} ...> = sum_i p(i) * (-1)^(popcount of selected bits)`.
pub fn expect_z_product(store: &dyn ChunkStore, qubits: &[u32]) -> Result<f64, CodecError> {
    for &q in qubits {
        assert!(q < store.n_qubits(), "qubit {q} out of range");
    }
    let mask: usize = qubits.iter().map(|&q| 1usize << q).sum();
    let mut buf = vec![Complex64::ZERO; store.chunk_amps()];
    let mut acc = 0.0f64;
    let mut norm = 0.0f64;
    for chunk in 0..store.chunk_count() {
        store.load_chunk(chunk, &mut buf)?;
        let base = chunk << store.chunk_bits();
        for (off, z) in buf.iter().enumerate() {
            let p = z.norm_sqr();
            norm += p;
            let sign = if ((base | off) & mask).count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            acc += sign * p;
        }
    }
    // Normalize: lossy compression can leave the norm slightly off 1.
    Ok(acc / norm.max(f64::MIN_POSITIVE))
}

/// [`expect_z_product`] against a store whose amplitudes are held under a
/// non-identity logical→physical [`QubitLayout`] — the mid-run view of a
/// scheduled plan, before the engine's restore-to-identity epilogue.
///
/// Logical qubit `q` lives at physical position `layout.phys(q)`, so the
/// diagonal Z mask is built from the physical positions. After a completed
/// run the store is always back in identity layout and plain
/// [`expect_z_product`] is the right call; this variant exists for
/// inspection between stages (custom executors, debugging hooks).
pub fn expect_z_product_in_layout(
    store: &dyn ChunkStore,
    qubits: &[u32],
    layout: &QubitLayout,
) -> Result<f64, CodecError> {
    if layout.is_identity() {
        return expect_z_product(store, qubits);
    }
    let physical: Vec<u32> = qubits.iter().map(|&q| layout.phys(q)).collect();
    expect_z_product(store, &physical)
}

/// Expectation of an arbitrary Pauli string on the compressed store.
///
/// X/Y factors *pair* basis states: pairs within a chunk are local, pairs
/// across chunks are handled exactly like a cross-chunk gate — the string's
/// high X/Y qubits become the group set, and each chunk group is staged
/// into one buffer (the same machinery the engines use). Z factors are
/// diagonal: inside the buffer they evaluate locally; on qubits outside the
/// buffer their bit is fixed per group, contributing a constant sign.
///
/// # Panics
/// Panics if more than 8 X/Y factors sit at or above the chunk boundary
/// (the group working set is `2^k` chunks for `k` such factors).
pub fn expect_pauli(store: &dyn ChunkStore, p: &PauliString) -> Result<f64, CodecError> {
    let n = store.n_qubits();
    let c = store.chunk_bits();
    for &(q, _) in &p.0 {
        assert!(q < n, "Pauli qubit {q} out of range");
    }
    // Split the string: X/Y factors >= c define the group set H.
    let mut high: Vec<u32> =
        p.0.iter()
            .filter(|&&(q, op)| q >= c && op != Pauli::Z)
            .map(|&(q, _)| q)
            .collect();
    high.sort_unstable();
    high.dedup();
    assert!(
        high.len() <= 8,
        "{} cross-chunk X/Y factors exceed the 2^8-chunk group cap",
        high.len()
    );
    let stage = Stage::new(vec![], high.clone());
    let chunk_amps = store.chunk_amps();

    let mut acc = 0.0f64;
    let mut norm = 0.0f64;
    let mut buffer = vec![Complex64::ZERO; chunk_amps << high.len()];
    for group in chunk_groups(n, c, &stage) {
        for (j, &chunk) in group.iter().enumerate() {
            store.load_chunk(chunk, &mut buffer[j * chunk_amps..(j + 1) * chunk_amps])?;
        }
        // Remap the string into the buffer: local and in-H qubits keep a
        // buffer position; outside qubits must be Z and contribute a sign.
        let mut local = Vec::new();
        let mut sign = 1.0f64;
        for &(q, op) in &p.0 {
            if q < c {
                local.push((q, op));
            } else if let Some(rank) = high.iter().position(|&h| h == q) {
                local.push((c + rank as u32, op));
            } else {
                debug_assert_eq!(op, Pauli::Z, "outside factor must be Z");
                if (group[0] >> (q - c)) & 1 == 1 {
                    sign = -sign;
                }
            }
        }
        let state = State::from_amplitudes(&buffer);
        // expectation() is normalization-free numerator <b|P|b>; weight by
        // the group's squared norm contribution implicitly (amplitudes are
        // raw, not normalized).
        acc += sign * expectation(&state, &PauliString(local));
        norm += buffer.iter().map(|z| z.norm_sqr()).sum::<f64>();
    }
    Ok(acc / norm.max(f64::MIN_POSITIVE))
}

/// Expected MaxCut value over `edges`, streaming from the compressed store.
pub fn expected_cut(store: &dyn ChunkStore, edges: &[(u32, u32)]) -> Result<f64, CodecError> {
    let mut total = 0.0;
    for &(a, b) in edges {
        let zz = expect_z_product(store, &[a, b])?;
        total += (1.0 - zz) / 2.0;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemQSimConfig;
    use crate::engine::{cpu, Granularity};
    use crate::store::{ChunkStore, CompressedTier};
    use mq_circuit::library;
    use mq_compress::CodecSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn run_to_store(circuit: &mq_circuit::Circuit, chunk_bits: u32) -> Arc<dyn ChunkStore> {
        let cfg = MemQSimConfig {
            chunk_bits,
            max_high_qubits: 2,
            codec: CodecSpec::Sz { eb: 1e-12 },
            ..Default::default()
        };
        let store: Arc<dyn ChunkStore> = Arc::new(CompressedTier::zero_state(
            circuit.n_qubits(),
            chunk_bits,
            Arc::from(cfg.codec.build()),
        ));
        cpu::run(&store, circuit, &cfg, Granularity::Staged).unwrap();
        store
    }

    #[test]
    fn chunk_probabilities_sum_to_one() {
        let store = run_to_store(&library::qft(8), 4);
        let probs = chunk_probabilities(&store).unwrap();
        assert_eq!(probs.len(), 16);
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn ghz_samples_only_the_two_extremes() {
        let store = run_to_store(&library::ghz(8), 4);
        let mut rng = StdRng::seed_from_u64(3);
        let counts = sample_counts(&store, 1000, &mut rng).unwrap();
        assert_eq!(counts.len(), 2);
        let states: Vec<usize> = counts.iter().map(|&(s, _)| s).collect();
        assert!(states.contains(&0) && states.contains(&255));
    }

    #[test]
    fn basis_state_always_samples_itself() {
        let mut c = mq_circuit::Circuit::new(6);
        c.x(1).x(4);
        let store = run_to_store(&c, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let counts = sample_counts(&store, 64, &mut rng).unwrap();
        assert_eq!(counts, vec![(0b010010, 64)]);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let store = run_to_store(&library::w_state(6), 3);
        let a = sample_counts(&store, 200, &mut StdRng::seed_from_u64(1)).unwrap();
        let b = sample_counts(&store, 200, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn w_state_samples_single_excitations_only() {
        let store = run_to_store(&library::w_state(6), 3);
        let mut rng = StdRng::seed_from_u64(4);
        let counts = sample_counts(&store, 600, &mut rng).unwrap();
        for &(state, _) in &counts {
            assert_eq!(state.count_ones(), 1, "state {state:b}");
        }
        // All six excitations should appear with ~100 shots each.
        assert_eq!(counts.len(), 6);
        for &(_, c) in &counts {
            assert!((c as f64 - 100.0).abs() < 60.0, "count {c}");
        }
    }

    #[test]
    fn streaming_z_expectations_match_dense() {
        use mq_statevec::expval::{expectation, Pauli, PauliString};
        let circuit = library::hardware_efficient_ansatz(7, 2, 13);
        let store = run_to_store(&circuit, 3);
        let dense = mq_statevec::run_circuit(&circuit, &mq_statevec::CpuConfig::default());
        for qs in [vec![0u32], vec![2, 5], vec![0, 3, 6]] {
            let streaming = expect_z_product(&store, &qs).unwrap();
            let pauli = PauliString(qs.iter().map(|&q| (q, Pauli::Z)).collect());
            let reference = expectation(&dense, &pauli);
            assert!(
                (streaming - reference).abs() < 1e-6,
                "qs={qs:?}: {streaming} vs {reference}"
            );
        }
    }

    #[test]
    fn streaming_cut_matches_dense_path() {
        let n = 8;
        let edges = library::ring_graph(n);
        let circuit = library::qaoa_maxcut(n, &edges, &[0.5], &[0.4]);
        let store = run_to_store(&circuit, 4);
        let dense = mq_statevec::run_circuit(&circuit, &mq_statevec::CpuConfig::default());
        let streaming = expected_cut(&store, &edges).unwrap();
        let reference = mq_statevec::expval::expected_cut(&dense, &edges);
        assert!((streaming - reference).abs() < 1e-6);
    }

    #[test]
    fn z_expectation_on_basis_state() {
        let mut c = mq_circuit::Circuit::new(6);
        c.x(2);
        let store = run_to_store(&c, 3);
        assert!((expect_z_product(&store, &[2]).unwrap() + 1.0).abs() < 1e-9);
        assert!((expect_z_product(&store, &[0]).unwrap() - 1.0).abs() < 1e-9);
        assert!((expect_z_product(&store, &[0, 2]).unwrap() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn layout_aware_z_expectation_sees_through_a_permutation() {
        use crate::store::build_store_from_amplitudes;
        use mq_circuit::layout::QubitLayout;

        let circuit = library::hardware_efficient_ansatz(7, 2, 13);
        let dense = mq_statevec::run_circuit(&circuit, &mq_statevec::CpuConfig::default());
        let cfg = MemQSimConfig {
            chunk_bits: 3,
            codec: CodecSpec::Sz { eb: 1e-12 },
            ..Default::default()
        };
        let identity_store = build_store_from_amplitudes(dense.amplitudes(), &cfg).unwrap();

        // Physically permute the state: logical qubits 1 and 5 trade places.
        let mut permuted = dense.amplitudes().to_vec();
        mq_statevec::apply::apply_swap(&mut permuted, 1, 5, 1);
        let permuted_store = build_store_from_amplitudes(&permuted, &cfg).unwrap();
        let mut layout = QubitLayout::identity(7);
        layout.swap_physical(1, 5);

        for qs in [vec![1u32], vec![5], vec![1, 5], vec![0, 1, 6]] {
            let want = expect_z_product(&identity_store, &qs).unwrap();
            let got = expect_z_product_in_layout(&permuted_store, &qs, &layout).unwrap();
            assert!((got - want).abs() < 1e-9, "qs={qs:?}: {got} vs {want}");
            // The plain call on the permuted store would read the wrong
            // positions — identity layout short-circuits to it.
            let ident = QubitLayout::identity(7);
            let same = expect_z_product_in_layout(&identity_store, &qs, &ident).unwrap();
            assert!((same - want).abs() < 1e-12);
        }
    }

    #[test]
    fn general_pauli_expectations_match_dense() {
        use mq_statevec::expval::{expectation as dense_expectation, PauliString};
        let circuit = library::hardware_efficient_ansatz(8, 2, 21);
        let store = run_to_store(&circuit, 3);
        let dense = mq_statevec::run_circuit(&circuit, &mq_statevec::CpuConfig::default());
        // Strings spanning local, cross-chunk X/Y, and outside-Z factors.
        for text in [
            "XIIIIIII", // local X
            "IIIIIIIX", // cross-chunk X (qubit 7 >= chunk_bits 3)
            "ZIIIIIIZ", // Z local + Z outside
            "XYIIIZIX", // mixed everything
            "IYIIYIII", // Y local + Y cross-chunk
            "ZZZZZZZZ",
        ] {
            let p = PauliString::parse(text);
            let got = expect_pauli(&store, &p).unwrap();
            let want = dense_expectation(&dense, &p);
            assert!(
                (got - want).abs() < 1e-6,
                "{text}: compressed {got} vs dense {want}"
            );
        }
    }

    #[test]
    fn ghz_stabilizers_on_the_compressed_store() {
        use mq_statevec::expval::PauliString;
        let store = run_to_store(&library::ghz(8), 3);
        // X^8 and Z_i Z_j are GHZ stabilizers (+1); single Z is 0.
        let xxxx = expect_pauli(&store, &PauliString::parse("XXXXXXXX")).unwrap();
        assert!((xxxx - 1.0).abs() < 1e-6, "X^8 = {xxxx}");
        let zz = expect_pauli(&store, &PauliString::parse("ZIIIIIIZ")).unwrap();
        assert!((zz - 1.0).abs() < 1e-6, "ZZ = {zz}");
        let z = expect_pauli(&store, &PauliString::parse("IIIZIIII")).unwrap();
        assert!(z.abs() < 1e-6, "Z = {z}");
    }
}
