//! Movie-domain linkage in the YAGO-IMDb regime: short, low-value-overlap
//! descriptions where *neighbor evidence* (shared cast/director structure)
//! is what makes resolution possible.
//!
//! ```sh
//! cargo run --release --example movie_linkage
//! ```
//!
//! The example compares the full MinoanER workflow with the
//! neighbor-blind ablation (Algorithm 2 without rule R3) and prints the
//! Figure-2-style regime breakdown of the ground truth.

use minoaner::datagen::{generate, profiles};
use minoaner::eval::figures::{fig2_points, render_fig2};
use minoaner::eval::harness::run_ablation;
use minoaner::eval::Quality;
use minoaner::{Executor, Minoaner, MinoanerConfig, ResolveRequest, RuleSet};

fn main() {
    let profile = profiles::yago_imdb().scaled(0.25);
    let dataset = generate(&profile);

    // Where do the matches live on the value/neighbor similarity plane?
    let points = fig2_points(&dataset, 3);
    println!("{}", render_fig2(&points, "Ground-truth similarity regimes (cf. Figure 2)"));

    let full = Minoaner::new()
        .run(ResolveRequest::pair(&dataset.pair))
        .expect("healthy run succeeds")
        .into_resolution();
    let q_full = Quality::evaluate(&full.matches, &dataset.ground_truth);

    // A Table 4 ablation: the product's stages, then Algorithm 2 without R3.
    let (q_blind, _) = run_ablation(&Executor::default(), &dataset, RuleSet::NO_NEIGHBORS, MinoanerConfig::default());

    println!("Full MinoanER (R1+R2+R3+R4): {q_full}");
    println!("Without neighbor evidence  : {q_blind}");
    println!(
        "\nNeighbor evidence recovers {:.1} recall points here — the paper's finding that it \
         \"has a big impact in KBs with nearly similar entities\" (§6.1).",
        q_full.recall - q_blind.recall
    );
}
