//! Block-collection statistics reproducing Table 2 of the paper: block
//! counts, aggregate comparison cardinalities, and the precision / recall /
//! F1 of blocking relative to the ground truth.

use minoaner_det::DetHashSet;

use minoaner_kb::stats::NameStats;
use minoaner_kb::{EntityId, KbPair, Side, TokenId};

use crate::block::{NameBlocks, TokenBlocks};

/// One column of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCollectionStats {
    /// `|B_N|`: number of name blocks.
    pub name_blocks: usize,
    /// `|B_T|`: number of token blocks (after purging).
    pub token_blocks: usize,
    /// `‖B_N‖`: aggregate comparisons in name blocks.
    pub name_comparisons: u64,
    /// `‖B_T‖`: aggregate comparisons in token blocks.
    pub token_comparisons: u64,
    /// `|E1| · |E2|`: the brute-force comparison count.
    pub cartesian: u64,
    /// Share of ground-truth pairs co-occurring in at least one block (%).
    pub recall: f64,
    /// Found matches over aggregate comparisons `‖B_N‖ + ‖B_T‖` (%), the
    /// paper's convention for Table 2.
    pub precision: f64,
    /// Harmonic mean of precision and recall (%).
    pub f1: f64,
}

/// Computes the Table 2 statistics.
///
/// A ground-truth pair is *found* if the two entities share a purged-token
/// block or a name block. Since a name block indexes exactly the entities
/// carrying that name, sharing a name block is equivalent to sharing a
/// name literal with an active block.
pub fn block_stats(
    pair: &KbPair,
    names: &NameStats,
    token_blocks: &TokenBlocks,
    name_blocks: &NameBlocks,
    ground_truth: &[(EntityId, EntityId)],
) -> BlockCollectionStats {
    let kept_tokens: DetHashSet<TokenId> = token_blocks.keys().iter().copied().collect();
    let block_names: DetHashSet<u32> = name_blocks.keys().iter().map(|l| l.0).collect();

    let mut found = 0usize;
    for &(l, r) in ground_truth {
        if co_occur(pair, names, &kept_tokens, &block_names, l, r) {
            found += 1;
        }
    }

    let name_comparisons = name_blocks.total_comparisons();
    let token_comparisons = token_blocks.total_comparisons();
    let total = name_comparisons + token_comparisons;
    let recall = if ground_truth.is_empty() { 0.0 } else { 100.0 * found as f64 / ground_truth.len() as f64 };
    let precision = if total == 0 { 0.0 } else { 100.0 * found as f64 / total as f64 };
    let f1 = if precision + recall == 0.0 { 0.0 } else { 2.0 * precision * recall / (precision + recall) };

    BlockCollectionStats {
        name_blocks: name_blocks.len(),
        token_blocks: token_blocks.len(),
        name_comparisons,
        token_comparisons,
        cartesian: pair.kb(Side::Left).len() as u64 * pair.kb(Side::Right).len() as u64,
        recall,
        precision,
        f1,
    }
}

fn co_occur(
    pair: &KbPair,
    names: &NameStats,
    kept_tokens: &DetHashSet<TokenId>,
    block_names: &DetHashSet<u32>,
    l: EntityId,
    r: EntityId,
) -> bool {
    // Shared kept token?
    let a = pair.kb(Side::Left).tokens_of(l);
    let b = pair.kb(Side::Right).tokens_of(r);
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if kept_tokens.contains(&a[i]) {
                    return true;
                }
                i += 1;
                j += 1;
            }
        }
    }
    // Shared name literal with an active block?
    let ln = names.names_of(pair, Side::Left, l);
    let rn = names.names_of(pair, Side::Right, r);
    ln.iter().any(|n| block_names.contains(&n.0) && rn.contains(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::build_name_blocks;
    use crate::token::build_token_blocks;
    use minoaner_kb::{KbPairBuilder, Term};

    #[test]
    fn stats_count_blocks_and_recall() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l1", "label", Term::Literal("fat duck"));
        b.add_triple(Side::Left, "l2", "label", Term::Literal("nothing shared"));
        b.add_triple(Side::Right, "r1", "name", Term::Literal("fat duck bray"));
        b.add_triple(Side::Right, "r2", "name", Term::Literal("disjoint tokens"));
        let pair = b.finish();
        let names = NameStats::compute(&pair, 2);
        let tb = build_token_blocks(&pair);
        let nb = build_name_blocks(&pair, &names);
        let l1 = pair.kb(Side::Left).entity_by_uri(pair.uris().get("l1").unwrap()).unwrap();
        let l2 = pair.kb(Side::Left).entity_by_uri(pair.uris().get("l2").unwrap()).unwrap();
        let r1 = pair.kb(Side::Right).entity_by_uri(pair.uris().get("r1").unwrap()).unwrap();
        let r2 = pair.kb(Side::Right).entity_by_uri(pair.uris().get("r2").unwrap()).unwrap();

        let gt = vec![(l1, r1), (l2, r2)];
        let stats = block_stats(&pair, &names, &tb, &nb, &gt);
        // l1–r1 share "fat" and "duck"; l2–r2 share nothing.
        assert!((stats.recall - 50.0).abs() < 1e-9);
        assert_eq!(stats.cartesian, 4);
        assert_eq!(stats.token_blocks, 2);
        assert!(stats.precision > 0.0);
        assert!(stats.f1 > 0.0);
    }

    #[test]
    fn name_block_counts_toward_recall() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l1", "label", Term::Literal("Unique-Name"));
        b.add_triple(Side::Right, "r1", "name", Term::Literal("unique name"));
        let pair = b.finish();
        let names = NameStats::compute(&pair, 1);
        let mut tb = build_token_blocks(&pair);
        // Purge everything to isolate the name path.
        tb.retain(|_| false);
        let nb = build_name_blocks(&pair, &names);
        let l1 = EntityId(0);
        let r1 = EntityId(0);
        let stats = block_stats(&pair, &names, &tb, &nb, &[(l1, r1)]);
        assert!((stats.recall - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_ground_truth() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l", "p", Term::Literal("x"));
        b.add_triple(Side::Right, "r", "p", Term::Literal("x"));
        let pair = b.finish();
        let names = NameStats::compute(&pair, 1);
        let tb = build_token_blocks(&pair);
        let nb = build_name_blocks(&pair, &names);
        let stats = block_stats(&pair, &names, &tb, &nb, &[]);
        assert_eq!(stats.recall, 0.0);
        assert_eq!(stats.f1, 0.0);
    }
}
