//! Dirty ER: resolving duplicates *within* a single KB.
//!
//! §2 of the paper focuses on clean-clean ER but notes that "the proposed
//! techniques can be easily generalized to more than two clean KBs or a
//! single dirty KB". This is that generalization: a dirty KB is loaded
//! into the left side of a [`KbPairBuilder`], and
//! [`KbPairBuilder::finish_dirty`] puts it on both sides of a [`KbPair`]
//! (equal [`EntityId`]s denote the same description); blocking and
//! matching skip identity pairs, and every match `(l, r)` of the self-pair
//! is a duplicate pair of the original KB, which
//! [`canonicalize_dirty_matches`] reports once each.
//!
//! [`KbPair`]: crate::store::KbPair
//! [`KbPairBuilder`]: crate::store::KbPairBuilder
//! [`KbPairBuilder::finish_dirty`]: crate::store::KbPairBuilder::finish_dirty

use crate::model::EntityId;

/// Canonicalizes dirty-ER matches: drops identity pairs, orients each pair
/// `(min, max)` and deduplicates — `(a, b)` and `(b, a)` are the same
/// duplicate assertion.
pub fn canonicalize_dirty_matches(matches: &[(EntityId, EntityId)]) -> Vec<(EntityId, EntityId)> {
    let mut out: Vec<(EntityId, EntityId)> = matches
        .iter()
        .filter(|&&(l, r)| l != r)
        .map(|&(l, r)| if l.0 <= r.0 { (l, r) } else { (r, l) })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Side;
    use crate::parser::{load_ntriples_with_mode, ParseMode};
    use crate::store::{Kb, KbPair, KbPairBuilder, Term};

    #[test]
    fn mirrored_sides_align() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "e1", "p", Term::Literal("alpha beta"));
        b.add_triple(Side::Left, "e2", "p", Term::Literal("gamma"));
        let pair = b.finish_dirty();
        assert!(pair.is_dirty());
        assert_eq!(pair.kb(Side::Left).len(), 2);
        assert_eq!(pair.kb(Side::Right).len(), 2);
        for i in 0..2 {
            let id = EntityId(i);
            assert_eq!(pair.uri_of(Side::Left, id), pair.uri_of(Side::Right, id));
            assert_eq!(pair.kb(Side::Left).tokens_of(id), pair.kb(Side::Right).tokens_of(id));
        }
    }

    #[test]
    fn references_resolve_on_both_sides() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "e1", "knows", Term::Uri("e2"));
        b.add_triple(Side::Left, "e2", "p", Term::Literal("x"));
        let pair = b.finish_dirty();
        for side in [Side::Left, Side::Right] {
            let e1 = pair.kb(side).entity_by_uri(pair.uris().get("e1").unwrap()).unwrap();
            assert_eq!(pair.kb(side).neighbors_of(e1).count(), 1);
        }
    }

    /// A loaded document and its triples added to both sides one by one
    /// make the same tables; a strict load stops at the bad line.
    #[test]
    fn loading_mirrors_what_adding_each_triple_to_both_sides_does() {
        let doc = "<e1> <p> \"Alpha  Beta\" .\n<e1> <knows> <e2> .\nbroken\n\
                   <e2> <p> \"caf\\u00E9 \\\"x\\\"\"@fr .\n<e2> <see> <http://x/Out_There> .\n";
        let mut loader = KbPairBuilder::new();
        let report = load_ntriples_with_mode(&mut loader, Side::Left, doc, ParseMode::Lenient).unwrap();
        assert_eq!((report.parsed, report.skipped, report.first_errors[0].line), (4, 1, 3));
        let loaded: KbPair = loader.finish_dirty();

        let mut adder = KbPairBuilder::new();
        for (s, p, o) in [
            ("e1", "p", Term::Literal("Alpha  Beta")),
            ("e1", "knows", Term::Uri("e2")),
            ("e2", "p", Term::Literal("café \"x\"")),
            ("e2", "see", Term::Uri("http://x/Out_There")),
        ] {
            adder.add_triple(Side::Left, s, p, o);
            adder.add_triple(Side::Right, s, p, o);
        }
        let both: KbPair = adder.finish();
        assert!(loaded.is_dirty() && !both.is_dirty());
        for side in [Side::Left, Side::Right] {
            assert_eq!(crate::parser::write_ntriples(&loaded, side), crate::parser::write_ntriples(&both, side));
            for (id, _) in both.kb(side).iter() {
                assert_eq!(loaded.kb(side).tokens_of(id), both.kb(side).tokens_of(id));
            }
        }
        assert!(loaded.literals().iter().eq(both.literals().iter()));
        assert!(loaded.tokens().iter().eq(both.tokens().iter()));

        let mut stopped = KbPairBuilder::new();
        assert_eq!(load_ntriples_with_mode(&mut stopped, Side::Left, doc, ParseMode::Strict).unwrap_err().line, 3);
        let strict: KbPair = stopped.finish_dirty();
        let right: &Kb = strict.kb(Side::Right);
        assert_eq!(right.triple_count(), 2, "the lines before the bad one");
    }

    #[test]
    #[should_panic(expected = "from the left side alone")]
    fn a_dirty_pair_refuses_right_side_entities() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "e1", "p", Term::Literal("x"));
        b.add_triple(Side::Right, "e2", "p", Term::Literal("x"));
        b.finish_dirty();
    }

    #[test]
    fn canonicalize_removes_identity_and_mirror_duplicates() {
        let e = EntityId;
        let raw = vec![(e(0), e(0)), (e(1), e(2)), (e(2), e(1)), (e(3), e(4))];
        let canon = canonicalize_dirty_matches(&raw);
        assert_eq!(canon, vec![(e(1), e(2)), (e(3), e(4))]);
    }
}
