//! The high-Variety scenario that motivates the paper: two KBs describing
//! musicians with wildly different schemas (15 vs ~300 attributes), 4×
//! verbosity asymmetry, and a decoy identifier attribute — the
//! BBCmusic-DBpedia regime where schema-based tools and value-only
//! baselines break down.
//!
//! ```sh
//! cargo run --release --example heterogeneous_kbs
//! ```
//!
//! The example resolves the generated pair with MinoanER and with the
//! value-only BSL baseline (grid-searched to its best configuration, as
//! the paper does) and prints both, reproducing the paper's headline: on
//! high-Variety KBs, MinoanER wins by a wide margin.

use minoaner::datagen::{generate, profiles};
use minoaner::eval::{run_system, Quality, SystemId};
use minoaner::{Executor, Minoaner, ResolveRequest, Side};

fn main() {
    // A smaller cut of the BBCmusic-DBpedia analogue for a fast demo.
    let profile = profiles::bbc_dbpedia().scaled(0.5);
    let dataset = generate(&profile);
    let pair = &dataset.pair;

    let left = minoaner::kb::dataset_stats::kb_stats(pair, Side::Left, &profile.type_attr(Side::Left));
    let right = minoaner::kb::dataset_stats::kb_stats(pair, Side::Right, &profile.type_attr(Side::Right));
    println!("KB variety:");
    println!("  E1: {} entities, {} attributes, {:.1} tokens/entity", left.entities, left.attributes, left.avg_tokens);
    println!("  E2: {} entities, {} attributes, {:.1} tokens/entity", right.entities, right.attributes, right.avg_tokens);
    println!("  (no attribute is shared between the KBs — fully schema-agnostic resolution)\n");

    let exec = Executor::default();

    let res = Minoaner::new()
        .run(ResolveRequest::pair(pair))
        .expect("healthy run succeeds")
        .into_resolution();
    let q = Quality::evaluate(&res.matches, &dataset.ground_truth);
    println!("MinoanER: {q}");
    let c = res.rule_counts;
    println!("  rules: R1={} R2={} R3={} (−{} by R4)", c.r1, c.r2, c.r3, c.removed_by_r4);

    let bsl = run_system(&exec, &dataset, SystemId::Bsl).expect("healthy run succeeds");
    println!("BSL (best of 420 configurations): {}", bsl.quality);
    println!("  {}", bsl.detail);

    println!(
        "\nMinoanER leads by {:.1} F1 points on this high-Variety pair — neighbor and name \
         evidence recover the matches whose values alone are inconclusive.",
        q.f1 - bsl.quality.f1
    );
}
