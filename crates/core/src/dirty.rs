//! Dirty-ER resolution: duplicate detection within a single KB, the
//! generalization the paper sketches in §2 ("the proposed techniques can
//! be easily generalized to … a single dirty KB").
//!
//! The dirty KB is mirrored onto both sides of a self-[`minoaner_kb::KbPair`]
//! ([`minoaner_kb::dirty::DirtyKbBuilder`]); identity pairs are excluded
//! from every evidence kind during graph construction; R1's "they and only
//! they share a name" becomes "exactly two entities share a name"; and the
//! resulting matches are canonicalized into unordered duplicate pairs by
//! [`minoaner_kb::dirty::canonicalize_dirty_matches`].
//!
//! No flag asks for any of this: [`crate::Minoaner::run`] reads
//! [`minoaner_kb::KbPair::is_dirty`] from the pair, and the
//! [`crate::ResolveOutcome`] of a dirty pair has the clean pair's shape.

#[cfg(test)]
mod tests {
    use crate::pipeline::Minoaner;
    use crate::request::ResolveRequest;
    use minoaner_kb::dirty::{canonicalize_dirty_matches, DirtyKbBuilder};
    use minoaner_kb::{EntityId, KbPair, Side, Term};

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

    /// The canonical duplicate pairs `(a, b)`, `a < b`, of `pair`.
    fn resolve_dirty(pair: &KbPair, workers: usize) -> Vec<(EntityId, EntityId)> {
        let resolution = Minoaner::new()
            .run(ResolveRequest::pair(pair).workers(workers))
            .expect("healthy run succeeds")
            .into_resolution();
        canonicalize_dirty_matches(&resolution.matches)
    }

    #[test]
    fn finds_duplicates_within_one_kb() {
        let pair = dirty_kb();
        let found = uri_pairs(&pair, &resolve_dirty(&pair, 2));
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
        for (a, b) in resolve_dirty(&pair, 1) {
            assert_ne!(a, b);
            assert!(a < b, "pairs must be canonical");
        }
    }
}
