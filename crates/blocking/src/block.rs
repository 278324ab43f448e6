//! Block representations for clean-clean ER.
//!
//! A block groups entity descriptions that share a blocking key. In the
//! clean-clean setting each block is bipartite: the sub-block `b1 ⊆ E1` and
//! `b2 ⊆ E2` (§3 of the paper), and the comparisons it suggests are
//! `|b1| · |b2|`.

use minoaner_det::spillable_struct;
use minoaner_kb::{EntityId, LiteralId, Side, TokenId};

/// A bipartite block: the entities of each KB indexed under one key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Block {
    /// Entities from `E1` (sorted, deduplicated).
    pub left: Vec<EntityId>,
    /// Entities from `E2` (sorted, deduplicated).
    pub right: Vec<EntityId>,
}

impl Block {
    /// Number of comparisons the block suggests: `|b1| · |b2|`.
    pub fn comparisons(&self) -> u64 {
        self.left.len() as u64 * self.right.len() as u64
    }

    /// Whether the block suggests at least one comparison.
    pub fn is_active(&self) -> bool {
        !self.left.is_empty() && !self.right.is_empty()
    }

    /// The block's members on one side (sorted, deduplicated).
    #[inline]
    pub fn members(&self, side: Side) -> &[EntityId] {
        match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }
}

spillable_struct!(Block { left, right });

/// The token blocks `B_T`: one block per token shared by both KBs.
///
/// Only *active* blocks (non-empty on both sides) are kept — a one-sided
/// block suggests no comparisons and carries no matching evidence.
#[derive(Debug, Clone, Default)]
pub struct TokenBlocks {
    /// `(token, block)` pairs, sorted by token id.
    pub blocks: Vec<(TokenId, Block)>,
}

impl TokenBlocks {
    /// Number of blocks `|B_T|`.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Aggregate comparisons `‖B_T‖ = Σ_b |b1|·|b2|`.
    pub fn total_comparisons(&self) -> u64 {
        self.blocks.iter().map(|(_, b)| b.comparisons()).sum()
    }
}

/// The name blocks `B_N`: one block per normalized name literal shared by
/// both KBs (there is one block for every name in `N_1 ∩ N_2`, §3.3).
#[derive(Debug, Clone, Default)]
pub struct NameBlocks {
    /// `(name literal, block)` pairs, sorted by literal id.
    pub blocks: Vec<(LiteralId, Block)>,
}

impl NameBlocks {
    /// Number of blocks `|B_N|`.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Aggregate comparisons `‖B_N‖`.
    pub fn total_comparisons(&self) -> u64 {
        self.blocks.iter().map(|(_, b)| b.comparisons()).sum()
    }
}

spillable_struct!(TokenBlocks { blocks });
spillable_struct!(NameBlocks { blocks });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons_is_cross_product() {
        let b = Block { left: vec![EntityId(0), EntityId(1)], right: vec![EntityId(0), EntityId(1), EntityId(2)] };
        assert_eq!(b.comparisons(), 6);
        assert!(b.is_active());
        assert_eq!(b.members(Side::Left), &b.left[..]);
        assert_eq!(b.members(Side::Right), &b.right[..]);
    }

    #[test]
    fn one_sided_block_is_inactive() {
        let b = Block { left: vec![EntityId(0)], right: vec![] };
        assert_eq!(b.comparisons(), 0);
        assert!(!b.is_active());
    }

    #[test]
    fn totals_sum_over_blocks() {
        let blocks = TokenBlocks {
            blocks: vec![
                (TokenId(0), Block { left: vec![EntityId(0)], right: vec![EntityId(0)] }),
                (TokenId(1), Block { left: vec![EntityId(0), EntityId(1)], right: vec![EntityId(1)] }),
            ],
        };
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks.total_comparisons(), 3);
    }
}
