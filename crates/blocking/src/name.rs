//! Name blocking (§3.1): one block per normalized name literal shared by
//! both KBs. Names are the values of each KB's global top-k name attributes
//! ([`minoaner_kb::stats::NameStats`]); a name block of size 1×1 — a name
//! used by exactly one entity per KB — is the α evidence behind matching
//! rule R1.

use minoaner_kb::stats::NameStats;
use minoaner_kb::{EntityId, KbPair, LiteralId, Rows, Side, Value};

use crate::block::NameBlocks;

/// Builds the name blocks: per side, the inversion of the name-attribute
/// literal pairs — literal → the entities carrying it as a name, ascending
/// because entities are walked in id order. The pairs are walked once: the
/// few that are names (one or two an entity) are set aside as `(literal,
/// entity)`, and it is that short column [`Rows::build`] counts and
/// scatters. An entity carrying one name twice, under two attributes or in
/// a repeated triple, counts once.
pub fn build_name_blocks(pair: &KbPair, names: &NameStats) -> NameBlocks {
    let invert = |side: Side| -> Rows<EntityId> {
        let (kb, attrs) = (pair.kb(side), names.name_attrs(side));
        let mut named: Vec<(usize, EntityId)> = Vec::with_capacity(kb.len());
        for (id, e) in kb.iter() {
            let first = named.len();
            named.extend(e.pairs().filter_map(|(p, v)| match v {
                Value::Literal(LiteralId(name)) if attrs.contains(&p) => Some((name as usize, id)),
                Value::Literal(_) | Value::Ref(_) => None,
            }));
            // Brings an entity's repeats together; the `dedup` below, which
            // never joins two entities' entries, then drops them.
            if let Some(own) = named.get_mut(first..) {
                own.sort_unstable();
            }
        }
        named.dedup();
        Rows::build(pair.literal_space(), named.iter().copied())
    };
    NameBlocks::active(invert(Side::Left), invert(Side::Right), LiteralId)
}

/// Extracts the α evidence (Def. 3.3): the pairs co-occurring in a name
/// block of size exactly 1×1, i.e. "they, and only they, have the same
/// name" (rule R1's precondition).
pub fn alpha_pairs(blocks: &NameBlocks) -> Vec<(EntityId, EntityId)> {
    let mut out: Vec<(EntityId, EntityId)> = blocks
        .iter()
        .filter_map(|(_, b)| match (b.left, b.right) {
            (&[l], &[r]) => Some((l, r)),
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The dirty-ER variant of [`alpha_pairs`]: both sides mirror the same
/// KB, so "they, and only they, have the same name" means a name block
/// holding exactly **two distinct** entities (each appears on both sides).
/// Returns canonical `(min, max)` pairs.
pub fn alpha_pairs_dirty(blocks: &NameBlocks) -> Vec<(EntityId, EntityId)> {
    let mut out: Vec<(EntityId, EntityId)> = blocks
        .iter()
        .filter_map(|(_, b)| match (b.left, b.right) {
            (&[a, z], right) if right == b.left => Some((a.min(z), a.max(z))),
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoaner_kb::{KbPairBuilder, Term};

    fn build() -> (KbPair, NameStats) {
        let mut b = KbPairBuilder::new();
        // "label" is the only literal attribute on each side → top name attr.
        b.add_triple(Side::Left, "l1", "label", Term::Literal("J. Lake"));
        b.add_triple(Side::Left, "l2", "label", Term::Literal("Bray"));
        b.add_triple(Side::Left, "l3", "label", Term::Literal("Dup Name"));
        b.add_triple(Side::Left, "l4", "label", Term::Literal("Dup Name"));
        b.add_triple(Side::Right, "r1", "name", Term::Literal("j lake"));
        b.add_triple(Side::Right, "r2", "name", Term::Literal("Dup Name"));
        b.add_triple(Side::Right, "r3", "name", Term::Literal("Elsewhere"));
        let pair = b.finish();
        let names = NameStats::compute(&pair, 2);
        (pair, names)
    }

    #[test]
    fn blocks_form_on_shared_normalized_names() {
        let (pair, names) = build();
        let blocks = build_name_blocks(&pair, &names);
        // Shared names: "j lake" (normalized) and "dup name".
        assert_eq!(blocks.len(), 2);
    }

    #[test]
    fn alpha_requires_exactly_one_per_side() {
        let (pair, names) = build();
        let blocks = build_name_blocks(&pair, &names);
        let alpha = alpha_pairs(&blocks);
        // "j lake": 1×1 → α pair. "dup name": 2×1 → not α.
        assert_eq!(alpha.len(), 1);
        let (l, r) = alpha[0];
        assert_eq!(pair.uri_of(Side::Left, l), "l1");
        assert_eq!(pair.uri_of(Side::Right, r), "r1");
    }

    #[test]
    fn no_blocks_without_shared_names() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l", "label", Term::Literal("unique left"));
        b.add_triple(Side::Right, "r", "name", Term::Literal("unique right"));
        let pair = b.finish();
        let names = NameStats::compute(&pair, 2);
        let blocks = build_name_blocks(&pair, &names);
        assert!(blocks.is_empty());
        assert!(alpha_pairs(&blocks).is_empty());
    }

    #[test]
    fn dirty_alpha_pairs_require_exactly_two_entities() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "d1", "label", Term::Literal("The Fat Duck"));
        b.add_triple(Side::Left, "d2", "label", Term::Literal("the fat duck"));
        b.add_triple(Side::Left, "d3", "label", Term::Literal("unique name"));
        b.add_triple(Side::Left, "c1", "label", Term::Literal("common"));
        b.add_triple(Side::Left, "c2", "label", Term::Literal("common"));
        b.add_triple(Side::Left, "c3", "label", Term::Literal("common"));
        let pair = b.finish_dirty();
        let names = NameStats::compute(&pair, 1);
        let blocks = build_name_blocks(&pair, &names);
        let alpha = alpha_pairs_dirty(&blocks);
        // d1/d2 share a name uniquely; d3 is alone (block size 1); the
        // three "common" entities form a 3×3 block (not alpha).
        assert_eq!(alpha.len(), 1);
        let (a, z) = alpha[0];
        assert_eq!(pair.uri_of(Side::Left, a), "d1");
        assert_eq!(pair.uri_of(Side::Left, z), "d2");
    }

    #[test]
    fn entity_with_same_name_via_two_attrs_not_duplicated() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l", "label", Term::Literal("x"));
        b.add_triple(Side::Left, "l", "alias", Term::Literal("x"));
        b.add_triple(Side::Right, "r", "name", Term::Literal("x"));
        let pair = b.finish();
        let names = NameStats::compute(&pair, 2);
        let blocks = build_name_blocks(&pair, &names);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks.iter().next().map(|(_, b)| b.left), Some(&[EntityId(0)][..]));
        assert_eq!(alpha_pairs(&blocks).len(), 1);
    }
}
