//! Developer tool: prints MinoanER's quality and per-rule ablation
//! breakdown on every benchmark profile — the fast feedback loop used to
//! calibrate the synthetic generator against the paper's Tables 3 and 4.
//!
//! ```sh
//! SCALE=0.5 cargo run --release -p minoaner-eval --example calibrate
//! ```
// Benchmarks measure wall-clock by definition; the deny wall
// (clippy::disallowed_methods) applies to library targets.
#![allow(clippy::disallowed_methods)]

use minoaner_core::matcher::run_matching;
use minoaner_core::{Executor, Minoaner, ResolveRequest, RuleSet};
use minoaner_datagen::{generate, profiles};
use minoaner_eval::Quality;

fn main() {
    let scale: f64 = std::env::var("SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0);
    for p in profiles::all_profiles() {
        let p = p.scaled(scale);
        let t0 = std::time::Instant::now();
        let d = generate(&p);
        let gen_t = t0.elapsed();
        let t0 = std::time::Instant::now();
        let res = Minoaner::new()
            .run(ResolveRequest::pair(&d.pair))
            .expect("healthy run succeeds")
            .into_resolution();
        let solve_t = t0.elapsed();
        let q = Quality::evaluate(&res.matches, &d.ground_truth);
        println!("{:<18} E1={} E2={} GT={} | {} | r1={} r2={} r3={} -r4={} | gen {:?} solve {:?}",
            p.name, d.pair.kb(minoaner_kb::Side::Left).len(), d.pair.kb(minoaner_kb::Side::Right).len(),
            d.ground_truth.len(), q, res.rule_counts.r1, res.rule_counts.r2, res.rule_counts.r3,
            res.rule_counts.removed_by_r4, gen_t, solve_t);
        // A rule-set ablation composes the public stages: the blocks and
        // the graph once, then Algorithm 2 per rule set.
        let (m, exec) = (Minoaner::new(), Executor::default());
        let graph = m.build_graph_from_blocks(&exec, &d.pair, &m.prepare_blocks(&exec, &d.pair));
        for (name, rs) in [("R1", RuleSet::R1_ONLY), ("R2", RuleSet::R2_ONLY), ("R3", RuleSet::R3_ONLY), ("noR4", RuleSet::NO_R4), ("noNbr", RuleSet::NO_NEIGHBORS)] {
            let r = run_matching(&exec, &d.pair, &graph, m.config(), rs);
            let q = Quality::evaluate(&r.matches, &d.ground_truth);
            println!("    {:<6} {}", name, q);
        }
    }
}
