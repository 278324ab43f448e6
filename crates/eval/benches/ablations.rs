//! Design-choice ablations beyond the paper's Table 4 (see DESIGN.md §3,
//! experiment E8+): β weighting schemes, pruning strategies, Block
//! Purging criteria, the conclusion's rule ensemble, and LSH vs token
//! blocking candidate recall.

// Benchmarks measure wall-clock by definition; the deny wall
// (clippy::disallowed_methods) applies to library targets.
#![allow(clippy::disallowed_methods)]

use minoaner_dataflow::Executor;
use minoaner_eval::ablation::{
    beta_weighting_ablation, ensemble_ablation, extras_ablation, lsh_ablation, pruning_ablation,
    purging_ablation, render,
};
use minoaner_eval::scale_from_env;
use minoaner_eval::variance::seed_variance;

fn main() {
    let scale = (scale_from_env() * 0.5).min(1.0); // ablations sweep many variants
    let exec = Executor::default();
    let start = std::time::Instant::now();
    let mut rows = Vec::new();
    rows.extend(beta_weighting_ablation(&exec, scale));
    rows.extend(pruning_ablation(&exec, scale));
    rows.extend(purging_ablation(&exec, scale));
    rows.extend(extras_ablation(&exec, scale));
    rows.extend(ensemble_ablation(&exec, scale));
    println!("{}", render(&rows, "F1"));
    let lsh = lsh_ablation(scale);
    println!("{}", render(&lsh, "candidate recall"));

    // Repeatability: the headline workflow across three generator seeds.
    let (_, variance_table) = seed_variance(
        &exec,
        &minoaner_datagen::profiles::all_profiles(),
        scale,
        &[0x5EED_0001, 0xD1CE, 0xFEED],
    );
    println!("{}", variance_table.render());
    println!("(all ablations at scale {scale} in {:?})", start.elapsed());
}
