//! Quickstart: resolve two tiny, schema-incompatible KBs.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The two KBs below describe the same restaurants with completely
//! different attribute names (no schema alignment is ever provided), and
//! one pair is only resolvable through its *neighbors* — exactly the
//! scenario in Figure 1 of the paper.

use minoaner::{KbPairBuilder, Minoaner, ResolveOutcome, ResolveRequest, Side, Term};

fn main() {
    let mut b = KbPairBuilder::new();

    // KB 1 — Wikidata-style.
    b.add_triple(Side::Left, "w:Restaurant1", "w:label", Term::Literal("Fat Duck"));
    b.add_triple(Side::Left, "w:Restaurant1", "w:hasChef", Term::Uri("w:JohnLakeA"));
    b.add_triple(Side::Left, "w:Restaurant1", "w:territorial", Term::Uri("w:Bray"));
    b.add_triple(Side::Left, "w:JohnLakeA", "w:label", Term::Literal("J. Lake"));
    b.add_triple(Side::Left, "w:JohnLakeA", "w:alias", Term::Literal("John Lake A chef"));
    b.add_triple(Side::Left, "w:Bray", "w:label", Term::Literal("Bray Berkshire village"));

    // KB 2 — DBpedia-style: different attributes, different verbosity.
    b.add_triple(Side::Right, "d:Restaurant2", "d:name", Term::Literal("The Fat Duck"));
    b.add_triple(Side::Right, "d:Restaurant2", "d:headChef", Term::Uri("d:JonnyLake"));
    b.add_triple(Side::Right, "d:Restaurant2", "d:county", Term::Uri("d:Berkshire"));
    b.add_triple(Side::Right, "d:JonnyLake", "d:name", Term::Literal("J. Lake"));
    b.add_triple(Side::Right, "d:JonnyLake", "d:bio", Term::Literal("Jonny Lake chef"));
    b.add_triple(Side::Right, "d:Berkshire", "d:name", Term::Literal("Berkshire county Bray"));

    let pair = b.finish();
    let ResolveOutcome { resolution, trace } =
        Minoaner::new().run(ResolveRequest::pair(&pair).workers(4)).expect("healthy run succeeds");

    println!("Resolved {} matches:", resolution.matches.len());
    for &(l, r) in &resolution.matches {
        println!("  {}  <=>  {}", pair.uri_of(Side::Left, l), pair.uri_of(Side::Right, r));
    }
    let c = resolution.rule_counts;
    println!(
        "\nRule contributions: R1 (names) = {}, R2 (values) = {}, R3 (rank aggregation) = {}; \
         R4 removed {} non-reciprocal pairs.",
        c.r1, c.r2, c.r3, c.removed_by_r4
    );
    let total = trace.total_wall.as_secs_f64();
    println!(
        "Total {:.1} ms, matching phase {:.1}% of it.",
        total * 1000.0,
        100.0 * trace.stage_wall("matching/").as_secs_f64() / total.max(f64::EPSILON)
    );
}
