//! Property tests for the blocking layer: purging/filtering invariants on
//! arbitrary block collections and LSH determinism/monotonicity.

use minoaner_blocking::block::TokenBlocks;
use minoaner_blocking::filtering::filter_blocks;
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

#[test]
fn filtering_never_increases_work() {
    for_each_seed(96, |rng| {
        let blocks = arbitrary_blocks(rng);
        let ratio = 0.1 + 0.9 * rng.next_f64();
        let mut filtered = blocks.clone();
        let report = filter_blocks(&mut filtered, ratio);
        assert!(report.comparisons_after <= report.comparisons_before);
        assert!(report.assignments_after <= report.assignments_before);
        // All kept blocks are still active.
        assert!(filtered.iter().all(|(_, b)| b.comparisons() > 0));
    });
}

#[test]
fn filtering_keeps_every_entity_somewhere() {
    for_each_seed(96, |rng| {
        let blocks = arbitrary_blocks(rng);
        // Entities present before filtering remain in at least one block
        // (each keeps ⌈r·n⌉ ≥ 1 of its blocks) — unless every block they
        // kept lost its other side entirely.
        let left_entities = |blocks: &TokenBlocks| {
            let mut ids: Vec<u32> =
                blocks.iter().flat_map(|(_, b)| b.left.iter().map(|e| e.0)).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let entities_before = left_entities(&blocks);
        let mut filtered = blocks.clone();
        filter_blocks(&mut filtered, 0.8);
        // After-set is a subset of before-set.
        assert!(left_entities(&filtered).iter().all(|e| entities_before.contains(e)));
    });
}
