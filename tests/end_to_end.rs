//! Cross-crate integration tests: the full MinoanER pipeline over the
//! generated benchmark analogues, format round-trips, and determinism.

use minoaner::datagen::{generate, profiles};
use minoaner::eval::Quality;
use minoaner::kb::parser::{load_ntriples, write_ntriples};
use minoaner::{KbPair, KbPairBuilder, Minoaner, Resolution, ResolveRequest, Side};

/// Resolves on the engine-default worker count.
fn resolve(pair: &KbPair) -> Resolution {
    Minoaner::new()
        .run(ResolveRequest::pair(pair))
        .expect("healthy run succeeds")
        .into_resolution()
}

/// Resolves with an explicit worker count.
fn resolve_with(pair: &KbPair, workers: usize) -> Resolution {
    Minoaner::new()
        .run(ResolveRequest::pair(pair).workers(workers))
        .expect("healthy run succeeds")
        .into_resolution()
}

/// Quality floors at test scale — lower than the full-scale numbers (the
/// generator's rates bite harder on small populations) but high enough to
/// catch real regressions.
#[test]
fn pipeline_quality_floors_per_profile() {
    let floors = [("Restaurant", 0.6, 85.0), ("Rexa-DBLP", 0.15, 85.0), ("BBCmusic-DBpedia", 0.2, 80.0), ("YAGO-IMDb", 0.2, 80.0)];
    for (profile, scale, floor) in floors {
        let p = profiles::all_profiles().into_iter().find(|p| p.name == profile).expect("profile");
        let d = generate(&p.scaled(scale));
        let res = resolve(&d.pair);
        let q = Quality::evaluate(&res.matches, &d.ground_truth);
        assert!(q.f1 >= floor, "{profile} @ {scale}: F1 {} below floor {floor}", q.f1);
    }
}

#[test]
fn resolution_is_deterministic_across_runs_and_workers() {
    let d = generate(&profiles::yago_imdb().scaled(0.15));
    let resolve = |workers| {
        let mut m = resolve_with(&d.pair, workers).matches;
        m.sort_unstable();
        m
    };
    let once = resolve(1);
    assert_eq!(once, resolve(1), "same worker count, same result");
    assert_eq!(once, resolve(4), "worker count must not change matches");
    assert_eq!(once, resolve(7), "odd worker counts too");
}

#[test]
fn ntriples_round_trip_preserves_resolution() {
    // Serialize a generated dataset to N-Triples, parse it back, and check
    // the pipeline finds the same number of matches on the reloaded pair.
    let d = generate(&profiles::restaurant().scaled(0.4));
    let left_nt = write_ntriples(&d.pair, Side::Left);
    let right_nt = write_ntriples(&d.pair, Side::Right);

    let mut b = KbPairBuilder::new();
    load_ntriples(&mut b, Side::Left, &left_nt).expect("left parses");
    load_ntriples(&mut b, Side::Right, &right_nt).expect("right parses");
    let reloaded = b.finish();

    assert_eq!(reloaded.kb(Side::Left).len(), d.pair.kb(Side::Left).len());
    assert_eq!(reloaded.kb(Side::Right).len(), d.pair.kb(Side::Right).len());
    assert_eq!(reloaded.kb(Side::Left).triple_count(), d.pair.kb(Side::Left).triple_count());

    let original = resolve_with(&d.pair, 2);
    let round_tripped = resolve_with(&reloaded, 2);
    assert_eq!(
        original.matches.len(),
        round_tripped.matches.len(),
        "resolution must survive the N-Triples round trip"
    );
    // And the matched URI pairs are identical.
    let to_uris = |pair: &minoaner::KbPair, matches: &[(minoaner::EntityId, minoaner::EntityId)]| {
        let mut v: Vec<(String, String)> = matches
            .iter()
            .map(|&(l, r)| (pair.uri_of(Side::Left, l).to_owned(), pair.uri_of(Side::Right, r).to_owned()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(to_uris(&d.pair, &original.matches), to_uris(&reloaded, &round_tripped.matches));
}

#[test]
fn matching_is_one_to_one_on_every_profile() {
    for p in profiles::all_profiles() {
        let d = generate(&p.scaled(0.15));
        let res = resolve_with(&d.pair, 2);
        let mut lefts: Vec<_> = res.matches.iter().map(|&(l, _)| l).collect();
        let mut rights: Vec<_> = res.matches.iter().map(|&(_, r)| r).collect();
        lefts.sort_unstable();
        rights.sort_unstable();
        let (nl, nr) = (lefts.len(), rights.len());
        lefts.dedup();
        rights.dedup();
        assert_eq!(nl, lefts.len(), "{}: duplicate left endpoint", p.name);
        assert_eq!(nr, rights.len(), "{}: duplicate right endpoint", p.name);
    }
}

#[test]
fn stage_log_covers_blocking_and_matching() {
    let d = generate(&profiles::restaurant().scaled(0.3));
    let trace = Minoaner::new().run(ResolveRequest::pair(&d.pair).workers(2)).expect("healthy run succeeds").trace;
    let names: Vec<String> = trace.stages.iter().map(|s| s.name.clone()).collect();
    for expected in
        ["token-blocking", "graph/index", "graph/beta", "graph/gamma", "matching/r1", "matching/r3"]
    {
        assert!(
            names.iter().any(|n| n.contains(expected)),
            "stage log missing {expected}: {names:?}"
        );
    }
    assert!(trace.total_wall >= trace.stage_wall("matching/"));
}
