//! Property tests for the blocking layer: purging invariants on arbitrary
//! block collections.

use minoaner_blocking::block::TokenBlocks;
use minoaner_blocking::purge::{purge_limit_budget, purge_with_cap};
use minoaner_det::rng::{for_each_seed, Rng};
use minoaner_kb::{EntityId, TokenId};

/// Up to 29 blocks of 1–11 entities a side.
fn arbitrary_blocks(rng: &mut Rng) -> TokenBlocks {
    (0..rng.gen_range(0..30u32))
        .map(|i| {
            let (l, r) = (rng.gen_range(1..12u32), rng.gen_range(1..12u32));
            (TokenId(i), (0..l).map(EntityId), (0..r).map(EntityId))
        })
        .collect()
}

#[test]
fn purge_cap_is_respected_and_monotone() {
    for_each_seed(96, |rng| {
        let (blocks, cap) = (arbitrary_blocks(rng), rng.gen_range(1..200u64));
        let mut purged = blocks.clone();
        let report = purge_with_cap(&mut purged, cap);
        assert!(purged.iter().all(|(_, b)| b.comparisons() <= cap));
        assert!(report.comparisons_after <= report.comparisons_before);
        assert!(report.blocks_after <= report.blocks_before);
        // Purging with a larger cap keeps at least as many blocks.
        let mut looser = blocks.clone();
        purge_with_cap(&mut looser, cap * 2);
        assert!(looser.len() >= purged.len());
    });
}

#[test]
fn budget_limit_respects_the_budget() {
    for_each_seed(96, |rng| {
        let (blocks, budget) = (arbitrary_blocks(rng), rng.gen_range(1..2000u64));
        let limit = purge_limit_budget(&blocks, budget);
        let mut purged = blocks.clone();
        purge_with_cap(&mut purged, limit);
        // Either everything ≤ budget, or only cardinality-1 blocks remain
        // (they are always admitted).
        let total = purged.total_comparisons();
        let only_singletons = purged.iter().all(|(_, b)| b.comparisons() <= 1);
        assert!(
            total <= budget || only_singletons,
            "total {total} exceeds budget {budget} with non-singleton blocks"
        );
    });
}
