//! Dirty-ER resolution: duplicate detection within a single KB, the
//! generalization the paper sketches in §2 ("the proposed techniques can
//! be easily generalized to … a single dirty KB").
//!
//! The dirty KB is mirrored onto both sides of a self-[`minoaner_kb::KbPair`]
//! ([`minoaner_kb::dirty::DirtyKbBuilder`]); identity pairs are excluded
//! from every evidence kind during graph construction; R1's "they and only
//! they share a name" becomes "exactly two entities share a name"; and the
//! resulting matches are canonicalized into unordered duplicate pairs.

use minoaner_kb::EntityId;

use crate::pipeline::Resolution;

/// The result of dirty-ER resolution.
#[derive(Debug, Clone)]
pub struct DirtyResolution {
    /// Canonical duplicate pairs `(a, b)` with `a < b`, deduplicated.
    /// Chains of pairs sharing an entity denote larger duplicate clusters.
    pub duplicates: Vec<(EntityId, EntityId)>,
    /// The underlying self-pair resolution (timings, rule counts, …).
    pub inner: Resolution,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Minoaner;
    use crate::request::ResolveRequest;
    use minoaner_kb::dirty::DirtyKbBuilder;
    use minoaner_kb::{KbPair, Side, Term};

    fn dirty_kb() -> KbPair {
        let mut b = DirtyKbBuilder::new();
        // Two descriptions of the Fat Duck (duplicates) …
        b.add_triple("db:fat_duck", "name", Term::Literal("The Fat Duck"));
        b.add_triple("db:fat_duck", "desc", Term::Literal("michelin molecular bray berkshire"));
        b.add_triple("crawl:fatduck1995", "label", Term::Literal("Fat Duck, The"));
        b.add_triple("crawl:fatduck1995", "about", Term::Literal("bray berkshire michelin tasting"));
        // … two of Noma …
        b.add_triple("db:noma", "name", Term::Literal("Noma"));
        b.add_triple("db:noma", "desc", Term::Literal("copenhagen nordic foraging redzepi"));
        b.add_triple("crawl:noma_dk", "label", Term::Literal("Noma"));
        b.add_triple("crawl:noma_dk", "about", Term::Literal("nordic foraging copenhagen denmark"));
        // … and a singleton.
        b.add_triple("db:elbulli", "name", Term::Literal("El Bulli"));
        b.add_triple("db:elbulli", "desc", Term::Literal("roses catalonia avantgarde adria"));
        b.finish()
    }

    fn uri_pairs(pair: &KbPair, dups: &[(EntityId, EntityId)]) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = dups
            .iter()
            .map(|&(a, b)| {
                (pair.uri_of(Side::Left, a).to_owned(), pair.uri_of(Side::Left, b).to_owned())
            })
            .collect();
        v.sort();
        v
    }

    fn resolve_dirty(pair: &KbPair, workers: usize) -> DirtyResolution {
        Minoaner::new()
            .run(ResolveRequest::pair(pair).dirty().workers(workers))
            .expect("healthy run succeeds")
            .into_dirty()
    }

    #[test]
    fn finds_duplicates_within_one_kb() {
        let pair = dirty_kb();
        let res = resolve_dirty(&pair, 2);
        let found = uri_pairs(&pair, &res.duplicates);
        assert!(
            found.contains(&("crawl:fatduck1995".into(), "db:fat_duck".into()))
                || found.contains(&("db:fat_duck".into(), "crawl:fatduck1995".into())),
            "fat duck duplicates not found: {found:?}"
        );
        assert!(
            found.iter().any(|(a, b)| a.contains("noma") && b.contains("noma")),
            "noma duplicates not found: {found:?}"
        );
        // The singleton is never paired.
        assert!(found.iter().all(|(a, b)| !a.contains("elbulli") && !b.contains("elbulli")));
    }

    #[test]
    fn no_identity_pairs_in_output() {
        let pair = dirty_kb();
        let res = resolve_dirty(&pair, 1);
        for &(a, b) in &res.duplicates {
            assert_ne!(a, b);
            assert!(a < b, "pairs must be canonical");
        }
    }

    #[test]
    #[should_panic(expected = "ResolveRequest::dirty requires")]
    fn clean_pair_is_rejected() {
        let mut b = minoaner_kb::KbPairBuilder::new();
        b.add_triple(Side::Left, "a", "p", Term::Literal("x"));
        b.add_triple(Side::Right, "b", "p", Term::Literal("x"));
        let pair = b.finish();
        resolve_dirty(&pair, 1);
    }
}
