//! Execution planning: stages (delegated to `mq_circuit::schedule`) plus
//! chunk-group enumeration.
//!
//! For a stage with high pairing qubits `H`, the chunks of the state vector
//! split into disjoint *groups* of `2^|H|` chunks that must be co-resident:
//! group members differ exactly in the chunk-index bits `h - chunk_bits`
//! for `h` in `H`. Member order follows the rank combination, matching the
//! buffer layout [`specialize`](crate::specialize) assumes: member `j`
//! occupies buffer slots `[j * 2^c, (j+1) * 2^c)`.

use mq_circuit::partition::Stage;

/// Enumerates the chunk groups of a stage. Each group is the ordered list
/// of chunk indices co-resident in one buffer.
pub fn chunk_groups(n_qubits: u32, chunk_bits: u32, stage: &Stage) -> Vec<Vec<usize>> {
    let chunk_count = 1usize << n_qubits.saturating_sub(chunk_bits);
    let high_chunk_bits: Vec<u32> = stage
        .high_qubits
        .iter()
        .map(|&h| {
            debug_assert!(h >= chunk_bits, "high qubit below chunk boundary");
            h - chunk_bits
        })
        .collect();
    let high_mask: usize = high_chunk_bits.iter().map(|&b| 1usize << b).sum();
    let combos = 1usize << high_chunk_bits.len();

    let mut groups = Vec::with_capacity(chunk_count / combos);
    for base in 0..chunk_count {
        if base & high_mask != 0 {
            continue; // not a group base
        }
        let mut members = Vec::with_capacity(combos);
        for j in 0..combos {
            let mut m = base;
            for (r, &b) in high_chunk_bits.iter().enumerate() {
                if (j >> r) & 1 == 1 {
                    m |= 1usize << b;
                }
            }
            members.push(m);
        }
        groups.push(members);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use mq_circuit::partition::{partition, PartitionConfig};
    use mq_circuit::{library, Circuit};

    fn stage_with_high(high: Vec<u32>) -> Stage {
        Stage::new(vec![], high)
    }

    #[test]
    fn local_stage_gives_singleton_groups() {
        let groups = chunk_groups(8, 4, &stage_with_high(vec![]));
        assert_eq!(groups.len(), 16);
        for (i, g) in groups.iter().enumerate() {
            assert_eq!(g, &vec![i]);
        }
    }

    #[test]
    fn single_high_qubit_pairs_chunks() {
        // n=8, c=4: chunks indexed by 4 bits; high qubit 6 -> chunk bit 2.
        let groups = chunk_groups(8, 4, &stage_with_high(vec![6]));
        assert_eq!(groups.len(), 8);
        for g in &groups {
            assert_eq!(g.len(), 2);
            assert_eq!(g[1], g[0] | 0b0100);
            assert_eq!(g[0] & 0b0100, 0);
        }
        // Every chunk appears exactly once.
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn two_high_qubits_quad_groups() {
        let groups = chunk_groups(8, 4, &stage_with_high(vec![5, 7]));
        assert_eq!(groups.len(), 4);
        for g in &groups {
            assert_eq!(g.len(), 4);
            // Member order: j=0 -> base, j=1 -> +bit(5-4)=2, j=2 -> +bit(7-4)=8,
            // j=3 -> both.
            assert_eq!(g[1], g[0] | 0b0010);
            assert_eq!(g[2], g[0] | 0b1000);
            assert_eq!(g[3], g[0] | 0b1010);
        }
    }

    #[test]
    fn groups_partition_all_chunks() {
        for high in [vec![], vec![8], vec![6, 9], vec![5, 7, 9]] {
            let groups = chunk_groups(10, 5, &stage_with_high(high.clone()));
            let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..32).collect::<Vec<_>>(), "high={high:?}");
        }
    }

    #[test]
    fn single_chunk_register() {
        let groups = chunk_groups(4, 4, &stage_with_high(vec![]));
        assert_eq!(groups, vec![vec![0]]);
    }

    #[test]
    fn plan_end_to_end_group_accounting() {
        let c: Circuit = library::qft(8);
        let plan = partition(
            &c,
            &PartitionConfig {
                chunk_bits: 4,
                max_high_qubits: 2,
            },
        );
        let mut visits = 0usize;
        for stage in &plan.stages {
            for g in chunk_groups(plan.n_qubits, plan.chunk_bits, stage) {
                visits += g.len();
            }
        }
        assert_eq!(visits, plan.chunk_visits());
    }
}
