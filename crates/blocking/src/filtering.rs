//! Block Filtering (Papadakis et al., the standard companion of Block
//! Purging in the Meta-blocking literature \[27, 28\]): each entity keeps
//! only a ratio `r` of its *smallest* blocks — the most discriminative
//! ones — removing it from its larger, noisier blocks.
//!
//! Where Block Purging drops whole blocks, Block Filtering thins the
//! remaining ones per entity, shrinking the β pass further at a small
//! recall cost. MinoanER's paper applies purging only; filtering is
//! provided here as an optional extra step and measured in the `ablations`
//! bench.

use minoaner_kb::{EntityId, Rows, Side};

use crate::block::TokenBlocks;

/// Fraction of each entity's (smallest-first) blocks to keep. The
/// literature's default is 0.8.
pub const DEFAULT_FILTER_RATIO: f64 = 0.8;

/// Report of a filtering pass.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterReport {
    /// Entity-in-block assignments before / after.
    pub assignments_before: u64,
    pub assignments_after: u64,
    /// Aggregate comparisons before / after.
    pub comparisons_before: u64,
    pub comparisons_after: u64,
}

/// Applies Block Filtering in place: for every entity (on each side), keep
/// it only in the `⌈ratio · n⌉` smallest of its `n` blocks. Blocks that
/// lose all entities on either side are dropped.
pub fn filter_blocks(blocks: &mut TokenBlocks, ratio: f64) -> FilterReport {
    let ratio = ratio.clamp(0.0, 1.0);
    let assignments_before = blocks.total_assignments();
    let comparisons_before = blocks.total_comparisons();

    // Each block's rank in ascending size order (ties in key order).
    let mut order: Vec<(u64, u32)> = (0u32..).zip(blocks.iter()).map(|(bi, (_, b))| (b.comparisons(), bi)).collect();
    order.sort_unstable();
    let mut rank = vec![0u32; order.len()];
    for (r, &(_, bi)) in (0u32..).zip(&order) {
        rank[bi as usize] = r;
    }

    for side in [Side::Left, Side::Right] {
        // The member table transposed: entity → the ranks of its blocks.
        let members = blocks.members(side);
        let n_entities = members.data().map(|&EntityId(e)| e as usize + 1).max().unwrap_or(0);
        let ranks_of = Rows::build(
            n_entities,
            members.iter().zip(&rank).flat_map(|(row, &r)| row.iter().map(move |&EntityId(e)| (e as usize, r))),
        );
        // The largest rank an entity stays under: the k-th smallest of its n.
        let mut sorted: Vec<u32> = Vec::new();
        let cut: Vec<u32> = ranks_of
            .iter()
            .map(|ranks| {
                sorted.clear();
                sorted.extend_from_slice(ranks);
                sorted.sort_unstable();
                let k = ((ratio * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
                sorted.get(k - 1).copied().unwrap_or(0)
            })
            .collect();
        blocks.retain_members(side, |bi, EntityId(e)| rank[bi] <= cut[e as usize]);
    }
    blocks.retain(|b| !b.left.is_empty() && !b.right.is_empty());

    FilterReport {
        assignments_before,
        assignments_after: blocks.total_assignments(),
        comparisons_before,
        comparisons_after: blocks.total_comparisons(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoaner_kb::TokenId;

    type Members<'a> = (&'a [u32], &'a [u32]);

    fn collection(blocks: &[Members<'_>]) -> TokenBlocks {
        let ids = |ids: &[u32]| ids.iter().map(|&i| EntityId(i)).collect::<Vec<_>>();
        (0u32..).zip(blocks).map(|(i, &(l, r))| (TokenId(i), ids(l), ids(r))).collect()
    }

    #[test]
    fn keeps_smallest_blocks_per_entity() {
        // Entity 0 appears in a tiny block and a huge one; ratio 0.5 keeps
        // only the tiny one.
        let mut blocks = collection(&[
            (&[0], &[0]),                   // 1 comparison
            (&[0, 1, 2, 3], &[0, 1, 2, 3]), // 16 comparisons
        ]);
        let report = filter_blocks(&mut blocks, 0.5);
        let big = blocks.iter().find(|(t, _)| t.0 == 1);
        if let Some((_, b)) = big {
            assert!(!b.left.contains(&EntityId(0)), "entity 0 must leave its big block");
        }
        assert!(report.comparisons_after < report.comparisons_before);
    }

    #[test]
    fn ratio_one_is_identity() {
        let original = collection(&[(&[0, 1], &[0]), (&[1], &[0, 1])]);
        let mut blocks = original.clone();
        let report = filter_blocks(&mut blocks, 1.0);
        assert_eq!(blocks, original);
        assert_eq!(report.comparisons_before, report.comparisons_after);
    }

    #[test]
    fn every_entity_keeps_at_least_one_block() {
        let mut blocks = collection(&[(&[0, 1, 2], &[0, 1, 2])]);
        filter_blocks(&mut blocks, 0.1);
        // One block only: everyone keeps it (k >= 1).
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks.members(Side::Left).row_len(0), 3);
    }

    #[test]
    fn emptied_blocks_are_dropped() {
        // Entity 0 is the big block's only left member; filtering it out
        // at a strict ratio empties the block's left side entirely.
        let mut blocks = collection(&[(&[0], &[0]), (&[0], &[0, 1, 2, 3, 4, 5, 6, 7])]);
        filter_blocks(&mut blocks, 0.5);
        assert_eq!(blocks.len(), 1, "the thinned-out block disappears");
    }

    #[test]
    fn empty_collection_is_fine() {
        let mut blocks = TokenBlocks::default();
        let report = filter_blocks(&mut blocks, 0.8);
        assert_eq!(report.comparisons_before, 0);
        assert_eq!(report.comparisons_after, 0);
    }
}
