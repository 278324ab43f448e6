//! Block collections for clean-clean ER.
//!
//! A block groups entity descriptions that share a blocking key. In the
//! clean-clean setting each block is bipartite: the sub-block `b1 ⊆ E1` and
//! `b2 ⊆ E2` (§3 of the paper), and the comparisons it suggests are
//! `|b1| · |b2|`.
//!
//! A collection is three columns, not a `Vec` per block: the keys, and per
//! side one [`Rows`] table whose row `i` holds block `i`'s members. The
//! member tables are what the β pass walks ([`crate::graph`] borrows them),
//! and they are built the way every other table here is — as the counting
//! inversion ([`Rows::build`]) of a column the KB already holds.

use minoaner_det::codec::Spillable;
use minoaner_kb::{EntityId, LiteralId, Rows, Side, TokenId};

/// One bipartite block of a collection: the entities of each KB indexed
/// under its key, ascending and duplicate-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block<'a> {
    /// Entities from `E1`.
    pub left: &'a [EntityId],
    /// Entities from `E2`.
    pub right: &'a [EntityId],
}

impl Block<'_> {
    /// Number of comparisons the block suggests: `|b1| · |b2|`.
    pub fn comparisons(self) -> u64 {
        self.left.len() as u64 * self.right.len() as u64
    }

    /// Number of entity-in-block assignments: `|b1| + |b2|`.
    pub fn assignments(self) -> u64 {
        (self.left.len() + self.right.len()) as u64
    }
}

/// The blocks under keys of type `K`, ascending by key. Only *active*
/// blocks (non-empty on both sides) are kept — a one-sided block suggests
/// no comparisons and carries no matching evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Blocks<K> {
    /// Block `i`'s key.
    keys: Vec<K>,
    /// Per side: row `i` holds block `i`'s members.
    members: [Rows<EntityId>; 2],
}

/// The token blocks `B_T`: one block per token shared by both KBs.
pub type TokenBlocks = Blocks<TokenId>;

/// The name blocks `B_N`: one block per normalized name literal shared by
/// both KBs (there is one block for every name in `N_1 ∩ N_2`, §3.3).
pub type NameBlocks = Blocks<LiteralId>;

impl<K> Default for Blocks<K> {
    fn default() -> Self {
        Self { keys: Vec::new(), members: [Rows::default(), Rows::default()] }
    }
}

impl<K: Copy> Blocks<K> {
    /// The active blocks of two inversions over one dense key space: row
    /// `k` of `left` / `right` holds the entities of that side indexed under
    /// the `k`-th key, ascending and duplicate-free. The inversions become
    /// the member tables, cut down in place to the keys both sides hold.
    pub(crate) fn active(left: Rows<EntityId>, right: Rows<EntityId>, key: impl Fn(u32) -> K) -> Self {
        let both: Vec<bool> = left.iter().zip(right.iter()).map(|(l, r)| !l.is_empty() && !r.is_empty()).collect();
        let mut members = [left, right];
        retain_marked(&mut members, &both);
        let mut keys = Vec::with_capacity(both.iter().filter(|&&both| both).count());
        keys.extend((0u32..).zip(&both).filter(|&(_, &both)| both).map(|(k, _)| key(k)));
        Self { keys, members }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Each block's key, ascending.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// One side's members: row `i` holds block `i`'s.
    pub fn members(&self, side: Side) -> &Rows<EntityId> {
        let [left, right] = &self.members;
        match side {
            Side::Left => left,
            Side::Right => right,
        }
    }

    /// Every block with its key, ascending by key.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (K, Block<'_>)> + Clone {
        let [left, right] = &self.members;
        let blocks = left.iter().zip(right.iter()).map(|(left, right)| Block { left, right });
        self.keys.iter().copied().zip(blocks)
    }

    /// Aggregate comparisons `Σ_b |b1|·|b2|`.
    pub fn total_comparisons(&self) -> u64 {
        self.iter().map(|(_, b)| b.comparisons()).sum()
    }

    /// Aggregate entity-in-block assignments `Σ_b |b1| + |b2|`.
    pub fn total_assignments(&self) -> u64 {
        self.members.iter().map(|table| table.data().len() as u64).sum()
    }

    /// Keeps the blocks `keep` accepts, in place and in order.
    pub fn retain(&mut self, mut keep: impl FnMut(Block<'_>) -> bool) {
        let kept: Vec<bool> = self.iter().map(|(_, b)| keep(b)).collect();
        let mut marks = kept.iter();
        self.keys.retain(|_| marks.next().is_some_and(|&kept| kept));
        retain_marked(&mut self.members, &kept);
    }

    /// Keeps, on `side`, the members `keep(block, member)` accepts. A block
    /// may come out empty on that side: follow with [`Self::retain`].
    pub(crate) fn retain_members(&mut self, side: Side, mut keep: impl FnMut(usize, EntityId) -> bool) {
        let [left, right] = &mut self.members;
        let table = match side {
            Side::Left => left,
            Side::Right => right,
        };
        let mut thinned = Rows::with_capacity(table.n_rows(), table.data().len());
        for (block, row) in table.iter().enumerate() {
            thinned.push_row(row.iter().copied().filter(|&e| keep(block, e)));
        }
        *table = thinned;
    }
}

/// Cuts both member tables down to the rows marked in `kept`, in place.
fn retain_marked(members: &mut [Rows<EntityId>; 2], kept: &[bool]) {
    for table in members {
        table.retain_rows(|row| kept.get(row).is_some_and(|&kept| kept));
    }
}

/// Collects blocks given as `(key, left members, right members)`, in the
/// order given — for callers that hold explicit blocks (tests, mostly).
/// Keys ascending, members ascending and both sides non-empty are the
/// caller's to uphold.
impl<K, L, R> FromIterator<(K, L, R)> for Blocks<K>
where
    L: IntoIterator<Item = EntityId>,
    R: IntoIterator<Item = EntityId>,
{
    fn from_iter<I: IntoIterator<Item = (K, L, R)>>(blocks: I) -> Self {
        let mut all = Self::default();
        for (key, left, right) in blocks {
            all.keys.push(key);
            let [l, r] = &mut all.members;
            l.push_row(left);
            r.push_row(right);
        }
        all
    }
}

/// The three columns; a decoded collection has one member row a side for
/// every key.
impl<K: Spillable> Spillable for Blocks<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        Vec::encode(&self.keys, out);
        <[Rows<EntityId>; 2]>::encode(&self.members, out);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let keys = Vec::decode(buf, pos)?;
        let members = <[Rows<EntityId>; 2]>::decode(buf, pos)?;
        members.iter().all(|table| table.n_rows() == keys.len()).then_some(Self { keys, members })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoaner_det::codec::{decode_exact, encode_to_vec};

    fn ids(ids: &[u32]) -> Vec<EntityId> {
        ids.iter().map(|&id| EntityId(id)).collect()
    }

    /// Every block's members, left and right.
    fn members_of<K: Copy>(blocks: &Blocks<K>) -> Vec<(Vec<EntityId>, Vec<EntityId>)> {
        blocks.iter().map(|(_, b)| (b.left.to_vec(), b.right.to_vec())).collect()
    }

    #[test]
    fn comparisons_is_cross_product() {
        let (left, right) = (ids(&[0, 1]), ids(&[0, 1, 2]));
        let b = Block { left: &left, right: &right };
        assert_eq!(b.comparisons(), 6);
        assert_eq!(b.assignments(), 5);
    }

    #[test]
    fn only_blocks_with_both_sides_are_kept() {
        let left: Rows<EntityId> = [ids(&[0]), ids(&[]), ids(&[1, 2]), ids(&[3])].into_iter().collect();
        let right: Rows<EntityId> = [ids(&[]), ids(&[5]), ids(&[4]), ids(&[0, 6])].into_iter().collect();
        let blocks = TokenBlocks::active(left, right, TokenId);
        assert_eq!(blocks.keys(), &[TokenId(2), TokenId(3)]);
        assert_eq!(members_of(&blocks), vec![(ids(&[1, 2]), ids(&[4])), (ids(&[3]), ids(&[0, 6]))]);
        assert_eq!(blocks.total_comparisons(), 2 + 2);
        assert_eq!(blocks.total_assignments(), 3 + 3);
    }

    #[test]
    fn retain_filters_all_three_columns_alike() {
        let mut blocks: TokenBlocks = [
            (TokenId(0), ids(&[0]), ids(&[0])),
            (TokenId(4), ids(&[0, 1]), ids(&[1])),
            (TokenId(7), ids(&[2]), ids(&[2, 3, 4])),
        ]
        .into_iter()
        .collect();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks.total_comparisons(), 1 + 2 + 3);
        blocks.retain(|b| b.comparisons() != 2);
        assert_eq!(blocks.keys(), &[TokenId(0), TokenId(7)]);
        assert_eq!(members_of(&blocks), vec![(ids(&[0]), ids(&[0])), (ids(&[2]), ids(&[2, 3, 4]))]);
        blocks.retain_members(Side::Right, |block, e| block == 0 || e.0 != 3);
        assert_eq!(members_of(&blocks), vec![(ids(&[0]), ids(&[0])), (ids(&[2]), ids(&[2, 4]))]);
    }

    #[test]
    fn a_decoded_collection_has_a_member_row_for_every_key() {
        let blocks: NameBlocks =
            [(LiteralId(3), ids(&[0]), ids(&[1])), (LiteralId(9), ids(&[2]), ids(&[0, 3]))].into_iter().collect();
        let bytes = encode_to_vec(&blocks);
        assert_eq!(decode_exact::<NameBlocks>(&bytes), Some(blocks.clone()));

        let mut short = blocks;
        short.keys.pop();
        assert_eq!(decode_exact::<NameBlocks>(&encode_to_vec(&short)), None);
    }
}
