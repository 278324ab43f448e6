//! Dirty ER: resolving duplicates *within* a single KB.
//!
//! §2 of the paper focuses on clean-clean ER but notes that "the proposed
//! techniques can be easily generalized to more than two clean KBs or a
//! single dirty KB". This module is that generalization: a dirty KB is
//! mirrored onto both sides of a [`KbPair`] (equal [`EntityId`]s denote
//! the same description), blocking and matching skip identity pairs, and
//! every match `(l, r)` of the self-pair is a duplicate pair of the
//! original KB.

use crate::model::{EntityId, Side};
use crate::parser::{load_ntriples_with_mode, ParseError, ParseMode, ParseReport};
use crate::store::{KbPair, KbPairBuilder, Term};

/// Builds a dirty-ER self-pair: every triple is added to the left side,
/// and [`Self::finish`] copies it onto the right.
#[derive(Debug, Default)]
pub struct DirtyKbBuilder {
    inner: KbPairBuilder,
}

impl DirtyKbBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) the entity with the given URI.
    pub fn entity(&mut self, uri: &str) -> EntityId {
        self.inner.entity(Side::Left, uri)
    }

    /// Adds one attribute–value pair to an existing entity (on both
    /// mirrored sides).
    pub fn add_pair(&mut self, entity: EntityId, attr: &str, object: Term<'_>) {
        self.inner.add_pair(Side::Left, entity, attr, object);
    }

    /// Convenience: registers the subject if needed and adds the triple.
    pub fn add_triple(&mut self, subject: &str, predicate: &str, object: Term<'_>) {
        let e = self.entity(subject);
        self.add_pair(e, predicate, object);
    }

    /// Loads an N-Triples document: [`load_ntriples_with_mode`] into the
    /// mirrored KB.
    pub fn load_ntriples_with_mode(&mut self, input: &str, mode: ParseMode) -> Result<ParseReport, ParseError> {
        load_ntriples_with_mode(&mut self.inner, Side::Left, input, mode)
    }

    /// Produces the mirrored, dirty-marked [`KbPair`].
    pub fn finish(mut self) -> KbPair {
        self.inner.mirror_left();
        let mut pair = self.inner.finish();
        pair.mark_dirty();
        pair
    }
}

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
    use crate::store::Kb;

    #[test]
    fn mirrored_sides_align() {
        let mut b = DirtyKbBuilder::new();
        b.add_triple("e1", "p", Term::Literal("alpha beta"));
        b.add_triple("e2", "p", Term::Literal("gamma"));
        let pair = b.finish();
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
        let mut b = DirtyKbBuilder::new();
        b.add_triple("e1", "knows", Term::Uri("e2"));
        b.add_triple("e2", "p", Term::Literal("x"));
        let pair = b.finish();
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
        let mut loader = DirtyKbBuilder::new();
        let report = loader.load_ntriples_with_mode(doc, ParseMode::Lenient).unwrap();
        assert_eq!((report.parsed, report.skipped, report.first_errors[0].line), (4, 1, 3));
        let loaded: KbPair = loader.finish();

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

        let mut stopped = DirtyKbBuilder::new();
        assert_eq!(stopped.load_ntriples_with_mode(doc, ParseMode::Strict).unwrap_err().line, 3);
        let strict: KbPair = stopped.finish();
        let right: &Kb = strict.kb(Side::Right);
        assert_eq!(right.triple_count(), 2, "the lines before the bad one");
    }

    #[test]
    fn canonicalize_removes_identity_and_mirror_duplicates() {
        let e = EntityId;
        let raw = vec![(e(0), e(0)), (e(1), e(2)), (e(2), e(1)), (e(3), e(4))];
        let canon = canonicalize_dirty_matches(&raw);
        assert_eq!(canon, vec![(e(1), e(2)), (e(3), e(4))]);
    }
}
