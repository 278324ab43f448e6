//! What the propagating baselines — PARIS, SiGMa, LINDA and RiMOM — share:
//! the in-edges of a KB's entity graph, a one-to-one match set grown round
//! by round, and the relation alignment learned from it.

use std::collections::BTreeMap;

use minoaner_kb::{AttrId, EntityId, KbPair, Rows, Side};

/// Each entity's in-edges on `side`, `(relation, subject)` for every triple
/// naming it as object, in subject order and then in the subject's own
/// triple order — so that link evidence can flow from a child up to its
/// parents.
pub(crate) fn in_edges(pair: &KbPair, side: Side) -> Rows<(AttrId, EntityId)> {
    let kb = pair.kb(side);
    let edges = kb.iter().flat_map(|(x, e)| e.relation_pairs().map(move |(r, t)| (t.index(), (r, x))));
    Rows::build(kb.len(), edges)
}

/// A one-to-one match set over a pair's entities: each entity's partner on
/// the other side, or none, in a dense slot per entity.
pub(crate) struct Matching {
    /// Per side: entity → its partner.
    partner: [Vec<Option<EntityId>>; 2],
}

impl Matching {
    /// No entity matched yet.
    pub(crate) fn new(pair: &KbPair) -> Self {
        Self { partner: [Side::Left, Side::Right].map(|side| vec![None; pair.kb(side).len()]) }
    }

    /// The partner of `e` on `side`, if it is matched.
    pub(crate) fn partner(&self, side: Side, e: EntityId) -> Option<EntityId> {
        self.partner.get(side.index()).and_then(|slots| slots.get(e.index())).copied().flatten()
    }

    /// Whether `e` on `side` is matched.
    pub(crate) fn is_matched(&self, side: Side, e: EntityId) -> bool {
        self.partner(side, e).is_some()
    }

    /// Matches `l` and `r` if both are still free; whether it did.
    pub(crate) fn insert(&mut self, l: EntityId, r: EntityId) -> bool {
        if self.is_matched(Side::Left, l) || self.is_matched(Side::Right, r) {
            return false;
        }
        let [left, right] = &mut self.partner;
        match (left.get_mut(l.index()), right.get_mut(r.index())) {
            (Some(to_r), Some(to_l)) => {
                (*to_r, *to_l) = (Some(r), Some(l));
                true
            }
            _ => false,
        }
    }

    /// The matches, ascending by left entity.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (EntityId, EntityId)> + '_ {
        let [left, _] = &self.partner;
        (0u32..).zip(left).filter_map(|(l, r)| r.map(|r| (EntityId(l), r)))
    }
}

/// The relation alignment learned from `matches` (SiGMa, RiMOM): for each
/// relation pair `(rl, rr)`, how many times a matched pair `(l, r)` reaches
/// a matched pair of neighbours through `rl` on the left and `rr` on the
/// right.
pub(crate) fn relation_alignment(pair: &KbPair, matches: &Matching) -> BTreeMap<(AttrId, AttrId), u64> {
    let mut align = BTreeMap::new();
    for (l, r) in matches.pairs() {
        for (rl, nl) in pair.kb(Side::Left).entity(l).relation_pairs() {
            let Some(mr) = matches.partner(Side::Left, nl) else { continue };
            for (rr, _) in pair.kb(Side::Right).entity(r).relation_pairs().filter(|&(_, nr)| nr == mr) {
                *align.entry((rl, rr)).or_insert(0) += 1;
            }
        }
    }
    align
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoaner_kb::{KbPairBuilder, Term};

    fn eid(pair: &KbPair, side: Side, uri: &str) -> EntityId {
        pair.kb(side).entity_by_uri(pair.uris().get(uri).unwrap()).unwrap()
    }

    #[test]
    fn in_edges_invert_the_relation_triples_in_subject_order() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "a", "p", Term::Uri("c"));
        b.add_triple(Side::Left, "b", "q", Term::Uri("c"));
        b.add_triple(Side::Left, "b", "p", Term::Uri("a"));
        b.add_triple(Side::Left, "c", "label", Term::Literal("leaf"));
        let pair = b.finish();
        let (a, bb, c) = (eid(&pair, Side::Left, "a"), eid(&pair, Side::Left, "b"), eid(&pair, Side::Left, "c"));
        let attr = |name: &str| AttrId(pair.attrs().get(name).unwrap().0);
        let rows = in_edges(&pair, Side::Left);
        assert_eq!(rows.n_rows(), pair.kb(Side::Left).len());
        assert_eq!(rows.row(c.index()), [(attr("p"), a), (attr("q"), bb)]);
        assert_eq!(rows.row(a.index()), [(attr("p"), bb)]);
        assert!(rows.row(bb.index()).is_empty());
    }

    #[test]
    fn matching_is_one_to_one_and_reads_in_left_order() {
        let mut b = KbPairBuilder::new();
        for i in 0..3 {
            b.add_triple(Side::Left, &format!("l{i}"), "p", Term::Literal("x"));
            b.add_triple(Side::Right, &format!("r{i}"), "p", Term::Literal("x"));
        }
        let pair = b.finish();
        let mut m = Matching::new(&pair);
        assert!(m.insert(EntityId(2), EntityId(0)));
        assert!(!m.insert(EntityId(2), EntityId(1)), "left 2 is taken");
        assert!(!m.insert(EntityId(1), EntityId(0)), "right 0 is taken");
        assert!(m.insert(EntityId(0), EntityId(2)));
        assert_eq!(m.partner(Side::Right, EntityId(0)), Some(EntityId(2)));
        assert!(!m.is_matched(Side::Left, EntityId(1)));
        assert_eq!(m.pairs().collect::<Vec<_>>(), [(EntityId(0), EntityId(2)), (EntityId(2), EntityId(0))]);
    }

    #[test]
    fn alignment_counts_relation_pairs_between_matched_neighbours() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l:p", "l:child", Term::Uri("l:c"));
        b.add_triple(Side::Left, "l:p", "l:other", Term::Uri("l:c"));
        b.add_triple(Side::Right, "r:p", "r:kid", Term::Uri("r:c"));
        b.add_triple(Side::Left, "l:c", "l:label", Term::Literal("c"));
        b.add_triple(Side::Right, "r:c", "r:label", Term::Literal("c"));
        let pair = b.finish();
        let mut m = Matching::new(&pair);
        m.insert(eid(&pair, Side::Left, "l:p"), eid(&pair, Side::Right, "r:p"));
        assert!(relation_alignment(&pair, &m).is_empty(), "no matched neighbours yet");
        m.insert(eid(&pair, Side::Left, "l:c"), eid(&pair, Side::Right, "r:c"));
        let attr = |name: &str| AttrId(pair.attrs().get(name).unwrap().0);
        let want = BTreeMap::from([((attr("l:child"), attr("r:kid")), 1), ((attr("l:other"), attr("r:kid")), 1)]);
        assert_eq!(relation_alignment(&pair, &m), want);
    }
}
