//! A pair read out of an `.mkb` file is the file's mapping, not a copy of
//! it: these checks hold it to the pair it was compiled from, accessor by
//! accessor, and to the same resolution — for both benchmark profiles,
//! clean-clean and dirty.

use std::path::{Path, PathBuf};

use minoaner_core::{Minoaner, ResolveRequest};
use minoaner_datagen::{generate, profiles};
use minoaner_kb::dirty::canonicalize_dirty_matches;
use minoaner_kb::parser::{load_ntriples, write_ntriples};
use minoaner_kb::{write_mkb, EntityId, Interner, KbPair, KbPairBuilder, LiteralId, MkbFile, Side};

/// A scratch directory of this test process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minoaner-mapped-kb-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Compiles `pair` to `path` and reads it back; the `MkbFile` is gone
/// before the pair is used, so the pair must hold the mapping itself.
fn through_mkb(pair: &KbPair, path: &Path) -> KbPair {
    write_mkb(pair, path).expect("compile");
    let mapped: KbPair = MkbFile::open(path).and_then(|file| file.to_pair()).expect("read back");
    mapped
}

fn assert_same_strings(built: &Interner, mapped: &Interner, what: &str) {
    assert_eq!(built.len(), mapped.len(), "{what}: count");
    for (sym, s) in built.iter() {
        assert_eq!(mapped.resolve(sym), s, "{what}: resolve {sym}");
        assert_eq!(mapped.get(s), Some(sym), "{what}: get {s:?}");
        assert_eq!(built.get(s), Some(sym), "{what}: the builder's get {s:?}");
    }
    assert!(built.iter().eq(mapped.iter()), "{what}: iter");
}

/// Every accessor of `mapped` answers what `built`'s does.
fn assert_same_pair(built: &KbPair, mapped: &KbPair, what: &str) {
    assert_eq!(built.is_dirty(), mapped.is_dirty(), "{what}: dirty");
    assert_eq!(
        (built.token_space(), built.literal_space(), built.attr_space(), built.smaller_side()),
        (mapped.token_space(), mapped.literal_space(), mapped.attr_space(), mapped.smaller_side()),
        "{what}: spaces"
    );
    assert_same_strings(built.tokens(), mapped.tokens(), &format!("{what}: tokens"));
    assert_same_strings(built.literals(), mapped.literals(), &format!("{what}: literals"));
    assert_same_strings(built.attrs(), mapped.attrs(), &format!("{what}: attrs"));
    assert_same_strings(built.uris(), mapped.uris(), &format!("{what}: uris"));
    for l in 0..built.literal_space() {
        let lit = LiteralId(u32::try_from(l).expect("test KBs are small"));
        assert_eq!(built.literal_token_seq(lit), mapped.literal_token_seq(lit), "{what}: literal {l}");
    }
    for side in [Side::Left, Side::Right] {
        let (b, m) = (built.kb(side), mapped.kb(side));
        assert_eq!((b.len(), b.triple_count()), (m.len(), m.triple_count()), "{what}: {side:?} sizes");
        assert!(b.iter().eq(m.iter()), "{what}: {side:?} entities");
        assert_eq!(b.token_sets(), m.token_sets(), "{what}: {side:?} token sets");
        for (id, e) in b.iter() {
            let got = m.entity(id);
            assert_eq!(e, got, "{what}: {side:?} {id:?}");
            assert!(e.pairs().eq(got.pairs()), "{what}: {side:?} {id:?} pairs");
            assert_eq!(b.tokens_of(id), m.tokens_of(id), "{what}: {side:?} {id:?} tokens");
            assert_eq!(b.token_occurrences_of(id), m.token_occurrences_of(id), "{what}: {side:?} {id:?}");
            assert_eq!(m.entity_by_uri(e.uri), Some(id), "{what}: {side:?} {id:?} by uri");
            assert!(b.neighbors_of(id).eq(m.neighbors_of(id)), "{what}: {side:?} {id:?} neighbours");
            assert_eq!(built.uri_of(side, id), mapped.uri_of(side, id), "{what}: {side:?} {id:?} uri");
        }
    }
}

/// The sorted `left-uri \t right-uri` lines of `matches`.
fn tsv(pair: &KbPair, matches: &[(EntityId, EntityId)]) -> String {
    let mut rows: Vec<String> =
        matches.iter().map(|&(l, r)| format!("{}\t{}\n", pair.uri_of(Side::Left, l), pair.uri_of(Side::Right, r))).collect();
    rows.sort_unstable();
    rows.concat()
}

#[test]
fn a_mapped_pair_is_the_pair_it_was_compiled_from_and_resolves_alike() {
    // Scales a debug build resolves in well under a second.
    for (name, profile) in [("bbc", profiles::bbc_dbpedia().scaled(0.05)), ("yago", profiles::yago_imdb().scaled(0.1))] {
        let dir = scratch(name);
        let dataset = generate(&profile);
        let (left, right) = (write_ntriples(&dataset.pair, Side::Left), write_ntriples(&dataset.pair, Side::Right));

        // Clean-clean, built from the documents as `kb compile` builds it.
        let mut b = KbPairBuilder::new();
        load_ntriples(&mut b, Side::Left, &left).expect("left parses");
        load_ntriples(&mut b, Side::Right, &right).expect("right parses");
        let built = b.finish();
        let mapped = through_mkb(&built, &dir.join("clean.mkb"));
        assert_same_pair(&built, &mapped, name);
        for workers in [1, 2] {
            let run = |pair: &KbPair| {
                let req = ResolveRequest::pair(pair).workers(workers);
                Minoaner::new().run(req).expect("resolves").into_resolution()
            };
            let (want, got) = (run(&built), run(&mapped));
            assert_eq!(want.graph_digest, got.graph_digest, "{name}: {workers} workers, digest");
            assert_eq!(want.rule_counts, got.rule_counts, "{name}: {workers} workers, rule counts");
            assert!(!want.matches.is_empty(), "{name}: the pair has matches");
            assert_eq!(tsv(&built, &want.matches), tsv(&mapped, &got.matches), "{name}: {workers} workers, TSV");
        }

        // Dirty: the left document as one KB with duplicates.
        let mut d = KbPairBuilder::new();
        load_ntriples(&mut d, Side::Left, &left).expect("left parses");
        let built = d.finish_dirty();
        let mapped = through_mkb(&built, &dir.join("dirty.mkb"));
        assert_same_pair(&built, &mapped, &format!("{name} dirty"));
        assert!(mapped.is_dirty(), "{name}: the container keeps the pair dirty");
        let run = |pair: &KbPair| Minoaner::new().run(ResolveRequest::pair(pair)).expect("resolves").into_resolution();
        let (want, got) = (run(&built), run(&mapped));
        let duplicates = |matches: &[(EntityId, EntityId)]| canonicalize_dirty_matches(matches);
        assert_eq!(duplicates(&want.matches), duplicates(&got.matches), "{name} dirty: duplicates");
        assert_eq!(want.graph_digest, got.graph_digest, "{name} dirty: digest");

        std::fs::remove_dir_all(&dir).ok();
    }
}
