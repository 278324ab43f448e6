//! Dirty ER: finding duplicates *within* one knowledge base — the
//! single-KB generalization the paper sketches in §2.
//!
//! ```sh
//! cargo run --release --example deduplicate
//! ```

use minoaner::core::clusters::cluster_matches;
use minoaner::kb::dirty::canonicalize_dirty_matches;
use minoaner::{KbPairBuilder, Minoaner, ResolveRequest, Side, Term};

fn main() {
    // One crawled KB with several descriptions of the same restaurants
    // under different URIs and schemas.
    let mut b = KbPairBuilder::new();
    let triples: &[(&str, &str, &str)] = &[
        // Three descriptions of the Fat Duck.
        ("db:fat_duck", "name", "The Fat Duck"),
        ("db:fat_duck", "desc", "michelin molecular gastronomy bray berkshire"),
        ("crawl:fatduck", "label", "Fat Duck, The"),
        ("crawl:fatduck", "about", "bray berkshire michelin tasting menu"),
        ("feed:fd-2019", "label", "the fat duck"),
        ("feed:fd-2019", "body", "molecular tasting menu bray heston michelin"),
        // Two of Noma.
        ("db:noma", "name", "Noma"),
        ("db:noma", "summary", "copenhagen nordic foraging redzepi"),
        ("crawl:noma", "label", "Noma"),
        ("crawl:noma", "about", "nordic foraging copenhagen denmark"),
        // A singleton.
        ("db:elbulli", "name", "El Bulli"),
        ("db:elbulli", "blurb", "roses catalonia avantgarde adria"),
    ];
    for (s, p, o) in triples {
        b.add_triple(Side::Left, s, p, Term::Literal(o));
    }
    let pair = b.finish_dirty();

    // The pair is dirty, so identity pairs never match; the matches come
    // back as ordered pairs, canonicalized here into `(a, b)` with `a < b`.
    let resolution = Minoaner::new()
        .run(ResolveRequest::pair(&pair).workers(2))
        .expect("healthy run succeeds")
        .into_resolution();
    let duplicates = canonicalize_dirty_matches(&resolution.matches);

    println!("Duplicate pairs:");
    for &(a, z) in &duplicates {
        println!("  {}  ==  {}", pair.uri_of(Side::Left, a), pair.uri_of(Side::Left, z));
    }

    // Chains of pairs form clusters (all descriptions of one real entity).
    let clusters = cluster_matches(&duplicates);
    println!("\nEntity clusters:");
    for cluster in &clusters {
        let uris: Vec<&str> = cluster.iter().map(|&e| pair.uri_of(Side::Left, e)).collect();
        println!("  {{ {} }}", uris.join(", "));
    }
    println!(
        "\n{} descriptions → {} duplicate pairs → {} clusters (singletons stay out).",
        pair.kb(Side::Left).len(),
        duplicates.len(),
        clusters.len()
    );
}
