//! Block Purging (Papadakis et al. \[26\], used by MinoanER in §3.3):
//! discards the largest token blocks — those built from highly frequent,
//! stopword-like tokens — which account for the bulk of the suggested
//! comparisons while carrying almost no matching evidence (their per-token
//! weight `1/log2(EF1·EF2+1)` is tiny).
//!
//! The criterion is self-tuning, [`purge_limit_budget`]: keep blocks in
//! ascending cardinality order until the cumulative comparisons exceed a
//! budget linear in the number of input entities. This directly enforces
//! the paper's complexity claim — after purging, the value-evidence pass
//! costs `O(|E1| + |E2|)` comparisons rather than `O(|E1| · |E2|)` (§3.3),
//! two-plus orders of magnitude below the brute-force cross product on the
//! evaluation datasets.

use minoaner_det::spillable_struct;

use crate::block::TokenBlocks;

/// Comparison budget per input entity for [`purge_limit_budget`].
pub const DEFAULT_BUDGET_PER_ENTITY: u64 = 64;

/// Outcome of a purging pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PurgeReport {
    /// The cardinality (comparisons per block) limit applied; blocks with
    /// more comparisons were dropped.
    pub max_comparisons: u64,
    /// Blocks before / after.
    pub blocks_before: usize,
    pub blocks_after: usize,
    /// Aggregate comparisons before / after.
    pub comparisons_before: u64,
    pub comparisons_after: u64,
}

spillable_struct!(PurgeReport {
    max_comparisons,
    blocks_before,
    blocks_after,
    comparisons_before,
    comparisons_after,
});

/// Purges `blocks` in place with the default budget criterion
/// (`DEFAULT_BUDGET_PER_ENTITY × total_entities` comparisons).
pub fn purge_blocks(blocks: &mut TokenBlocks, total_entities: usize) -> PurgeReport {
    let limit = purge_limit_budget(blocks, DEFAULT_BUDGET_PER_ENTITY * total_entities.max(1) as u64);
    purge_with_cap(blocks, limit)
}

/// Purges all blocks suggesting more than `max_comparisons` comparisons —
/// a row filter over the collection's columns.
pub fn purge_with_cap(blocks: &mut TokenBlocks, max_comparisons: u64) -> PurgeReport {
    let blocks_before = blocks.len();
    let comparisons_before = blocks.total_comparisons();
    blocks.retain(|b| b.comparisons() <= max_comparisons);
    PurgeReport {
        max_comparisons,
        blocks_before,
        blocks_after: blocks.len(),
        comparisons_before,
        comparisons_after: blocks.total_comparisons(),
    }
}

/// Sorted `(cardinality, cumulative comparisons)` levels, one per distinct
/// block cardinality, ascending.
fn cumulative_levels(blocks: &TokenBlocks) -> Vec<(u64, u64)> {
    let mut per_block: Vec<u64> = blocks.iter().map(|(_, b)| b.comparisons()).collect();
    per_block.sort_unstable();

    let mut levels: Vec<(u64, u64)> = Vec::new();
    let mut cum_c = 0u64;
    for card in per_block {
        cum_c += card;
        match levels.last_mut() {
            Some(last) if last.0 == card => last.1 = cum_c,
            _ => levels.push((card, cum_c)),
        }
    }
    levels
}

/// The largest cardinality limit whose retained blocks stay within
/// `budget` total comparisons (always admitting cardinality-1 blocks).
pub fn purge_limit_budget(blocks: &TokenBlocks, budget: u64) -> u64 {
    let levels = cumulative_levels(blocks);
    if levels.is_empty() {
        return u64::MAX;
    }
    let mut limit = 1;
    for &(card, cum_c) in &levels {
        if cum_c <= budget {
            limit = card;
        } else {
            break;
        }
    }
    // If even the full collection fits the budget, keep everything.
    if levels.last().map(|&(_, c)| c <= budget).unwrap_or(false) {
        return u64::MAX;
    }
    limit
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoaner_kb::{EntityId, TokenId};

    fn collection(sizes: &[(usize, usize)]) -> TokenBlocks {
        (0u32..)
            .zip(sizes)
            .map(|(i, &(l, r))| (TokenId(i), (0..l as u32).map(EntityId), (0..r as u32).map(EntityId)))
            .collect()
    }

    #[test]
    fn budget_keeps_small_blocks_first() {
        let mut blocks = collection(&[(1, 1), (1, 1), (2, 2), (10, 10)]);
        let limit = purge_limit_budget(&blocks, 6);
        // 1+1+4 = 6 fits; adding 100 does not.
        assert_eq!(limit, 4);
        let report = purge_with_cap(&mut blocks, limit);
        assert_eq!(report.blocks_after, 3);
        assert_eq!(report.comparisons_after, 6);
    }

    #[test]
    fn budget_always_admits_singleton_blocks() {
        let blocks = collection(&[(1, 1); 100]);
        // Budget smaller than even the singletons: limit stays 1 (keep them).
        assert_eq!(purge_limit_budget(&blocks, 10), 1);
    }

    #[test]
    fn budget_keeps_everything_when_it_fits() {
        let blocks = collection(&[(2, 2), (3, 3)]);
        assert_eq!(purge_limit_budget(&blocks, 1000), u64::MAX);
    }

    #[test]
    fn default_purge_removes_stopword_block() {
        // 50 tiny evidence blocks + one enormous stopword block over a
        // 100-entity input (budget 6400).
        let mut sizes = vec![(1, 1); 50];
        sizes.push((200, 200));
        let mut blocks = collection(&sizes);
        let report = purge_blocks(&mut blocks, 100);
        assert_eq!(report.blocks_after, 50);
        assert_eq!(report.comparisons_after, 50);
    }

    #[test]
    fn purged_is_subset_and_respects_cap() {
        let mut blocks = collection(&[(1, 1), (2, 3), (5, 5), (30, 40)]);
        let before = blocks.keys().to_vec();
        let report = purge_blocks(&mut blocks, 20);
        assert!(blocks.keys().iter().all(|t| before.contains(t)));
        assert!(blocks.iter().all(|(_, b)| b.comparisons() <= report.max_comparisons));
    }

    #[test]
    fn empty_collection() {
        let mut blocks = TokenBlocks::default();
        let report = purge_blocks(&mut blocks, 10);
        assert_eq!(report.blocks_before, 0);
        assert_eq!(report.max_comparisons, u64::MAX);
    }

    #[test]
    fn explicit_cap() {
        let mut blocks = collection(&[(1, 1), (2, 2), (3, 3)]);
        let report = purge_with_cap(&mut blocks, 4);
        assert_eq!(report.blocks_after, 2);
        assert_eq!(report.comparisons_after, 5);
    }
}
