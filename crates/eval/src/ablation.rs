//! Design-choice ablations beyond the paper's Table 4: β weighting
//! schemes, pruning strategies, Block Purging criteria, the rule-ensemble
//! extension, and LSH vs token blocking. These justify the defaults the
//! pipeline ships with (see DESIGN.md).

use minoaner_blocking::graph::{build_blocking_graph, BetaWeighting, GraphConfig};
use minoaner_blocking::lsh::{candidate_recall, lsh_candidate_pairs, LshConfig};
use minoaner_blocking::sorted_neighborhood::{
    sorted_neighborhood_candidates, SortedNeighborhoodConfig,
};
use minoaner_blocking::name::build_name_blocks;
use minoaner_blocking::purge::{purge_limit_density, purge_with_cap, DEFAULT_SMOOTHING};
use minoaner_blocking::token::build_token_blocks;
use minoaner_core::extensions::{default_ensemble, ensemble_resolve};
use minoaner_core::matcher::run_matching;
use minoaner_core::{Minoaner, MinoanerConfig, ResolveRequest, RuleSet};
use minoaner_dataflow::Executor;
use minoaner_datagen::profiles::all_profiles;
use minoaner_datagen::GeneratedDataset;
use minoaner_kb::stats::{NameStats, RelationStats};
use minoaner_kb::Side;

use crate::harness::dataset_at_scale;
use crate::metrics::Quality;
use crate::report::TextTable;

/// One ablation measurement.
#[derive(Debug, Clone)]
pub struct AblationRow {
    pub experiment: String,
    pub variant: String,
    pub dataset: String,
    pub f1: f64,
    pub detail: String,
}

fn run_with_graph_config(
    executor: &Executor,
    dataset: &GeneratedDataset,
    graph_cfg: GraphConfig,
) -> Quality {
    let pair = &dataset.pair;
    let cfg = MinoanerConfig::default();
    let rels = RelationStats::compute(pair);
    let names = NameStats::compute(pair, cfg.name_attrs_k);
    let mut tb = build_token_blocks(pair);
    minoaner_blocking::purge::purge_blocks(&mut tb, pair.kb(Side::Left).len() + pair.kb(Side::Right).len());
    let nb = build_name_blocks(pair, &names);
    let graph = build_blocking_graph(executor, pair, &rels, &tb, &nb, &graph_cfg);
    let outcome = run_matching(executor, pair, &graph, &cfg, RuleSet::FULL);
    Quality::evaluate(&outcome.matches, &dataset.ground_truth)
}

/// β weighting scheme ablation: the paper's ARCS-style valueSim against
/// the classic Meta-blocking schemes.
pub fn beta_weighting_ablation(executor: &Executor, scale: f64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let d = dataset_at_scale(&profile, scale);
        for scheme in [BetaWeighting::Arcs, BetaWeighting::Cbs, BetaWeighting::Ecbs, BetaWeighting::Js] {
            let cfg = GraphConfig { beta_weighting: scheme, ..GraphConfig::default() };
            let q = run_with_graph_config(executor, &d, cfg);
            rows.push(AblationRow {
                experiment: "beta-weighting".into(),
                variant: format!("{scheme:?}"),
                dataset: profile.name.clone(),
                f1: q.f1,
                detail: format!("{q}"),
            });
        }
    }
    rows
}

/// Pruning ablation: fixed top-K (the paper) vs the conclusion's adaptive
/// per-node cut.
pub fn pruning_ablation(executor: &Executor, scale: f64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let d = dataset_at_scale(&profile, scale);
        let fixed = Minoaner::new()
            .run(ResolveRequest::pair(&d.pair).workers(executor.workers()))
            .unwrap_or_else(|e| std::panic::panic_any(e))
            .into_resolution();
        let qf = Quality::evaluate(&fixed.matches, &d.ground_truth);
        rows.push(AblationRow {
            experiment: "pruning".into(),
            variant: "top-K (paper)".into(),
            dataset: profile.name.clone(),
            f1: qf.f1,
            detail: format!("{qf}"),
        });
        let adaptive = Minoaner::new()
            .run(ResolveRequest::pair(&d.pair).adaptive().workers(executor.workers()))
            .unwrap_or_else(|e| std::panic::panic_any(e))
            .into_resolution();
        let qa = Quality::evaluate(&adaptive.matches, &d.ground_truth);
        rows.push(AblationRow {
            experiment: "pruning".into(),
            variant: "adaptive (conclusion)".into(),
            dataset: profile.name.clone(),
            f1: qa.f1,
            detail: format!("{qa}"),
        });
    }
    rows
}

/// Block Purging criterion ablation: linear comparison budget (default)
/// vs the TKDE-style density knee vs no purging, measured as blocking F1
/// drivers (retained comparisons) plus end-to-end F1.
pub fn purging_ablation(executor: &Executor, scale: f64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let d = dataset_at_scale(&profile, scale);
        let pair = &d.pair;
        let total = pair.kb(Side::Left).len() + pair.kb(Side::Right).len();
        let raw = build_token_blocks(pair);
        let variants: Vec<(&str, u64)> = vec![
            (
                "budget (default)",
                minoaner_blocking::purge::purge_limit_budget(
                    &raw,
                    minoaner_blocking::purge::DEFAULT_BUDGET_PER_ENTITY * total as u64,
                ),
            ),
            ("density knee", purge_limit_density(&raw, DEFAULT_SMOOTHING)),
            ("no purging", u64::MAX),
        ];
        for (name, cap) in variants {
            let mut tb = raw.clone();
            let report = purge_with_cap(&mut tb, cap);
            let cfg = MinoanerConfig::default();
            let rels = RelationStats::compute(pair);
            let names = NameStats::compute(pair, cfg.name_attrs_k);
            let nb = build_name_blocks(pair, &names);
            let graph = build_blocking_graph(executor, pair, &rels, &tb, &nb, &GraphConfig::default());
            let outcome = run_matching(executor, pair, &graph, &cfg, RuleSet::FULL);
            let q = Quality::evaluate(&outcome.matches, &d.ground_truth);
            rows.push(AblationRow {
                experiment: "purging".into(),
                variant: name.into(),
                dataset: profile.name.clone(),
                f1: q.f1,
                detail: format!("{} comparisons kept, {q}", report.comparisons_after),
            });
        }
    }
    rows
}

/// Blocking-pipeline extras ablation: Block Filtering after purging, and
/// reciprocal (mutual top-K) pruning instead of deferring reciprocity to
/// rule R4.
pub fn extras_ablation(executor: &Executor, scale: f64) -> Vec<AblationRow> {
    use minoaner_blocking::filtering::{filter_blocks, DEFAULT_FILTER_RATIO};
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let d = dataset_at_scale(&profile, scale);
        let pair = &d.pair;
        let cfg = MinoanerConfig::default();
        let total = pair.kb(Side::Left).len() + pair.kb(Side::Right).len();
        let rels = RelationStats::compute(pair);
        let names = NameStats::compute(pair, cfg.name_attrs_k);
        let nb = build_name_blocks(pair, &names);

        // Variant 1: purge only (the paper's pipeline).
        let mut purged = build_token_blocks(pair);
        minoaner_blocking::purge::purge_blocks(&mut purged, total);

        // Variant 2: purge + Block Filtering.
        let mut filtered = purged.clone();
        let freport = filter_blocks(&mut filtered, DEFAULT_FILTER_RATIO);

        for (name, tb, detail) in [
            ("purge only (paper)", &purged, String::new()),
            (
                "purge + block filtering (r=0.8)",
                &filtered,
                format!("comparisons {} -> {}", freport.comparisons_before, freport.comparisons_after),
            ),
        ] {
            let graph = build_blocking_graph(executor, pair, &rels, tb, &nb, &GraphConfig::default());
            let outcome = run_matching(executor, pair, &graph, &cfg, RuleSet::FULL);
            let q = Quality::evaluate(&outcome.matches, &d.ground_truth);
            rows.push(AblationRow {
                experiment: "blocking-extras".into(),
                variant: name.into(),
                dataset: profile.name.clone(),
                f1: q.f1,
                detail: if detail.is_empty() { format!("{q}") } else { format!("{detail}; {q}") },
            });
        }

        // Variant 3: reciprocal pruning in the graph.
        let gcfg = GraphConfig { reciprocal_pruning: true, ..GraphConfig::default() };
        let graph = build_blocking_graph(executor, pair, &rels, &purged, &nb, &gcfg);
        let outcome = run_matching(executor, pair, &graph, &cfg, RuleSet::FULL);
        let q = Quality::evaluate(&outcome.matches, &d.ground_truth);
        rows.push(AblationRow {
            experiment: "blocking-extras".into(),
            variant: "reciprocal pruning".into(),
            dataset: profile.name.clone(),
            f1: q.f1,
            detail: format!("{q}"),
        });
    }
    rows
}

/// Ensemble ablation: the single default configuration vs the
/// conclusion's majority-vote ensemble.
pub fn ensemble_ablation(executor: &Executor, scale: f64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let d = dataset_at_scale(&profile, scale);
        let single = Minoaner::new()
            .run(ResolveRequest::pair(&d.pair).workers(executor.workers()))
            .unwrap_or_else(|e| std::panic::panic_any(e))
            .into_resolution();
        let qs = Quality::evaluate(&single.matches, &d.ground_truth);
        rows.push(AblationRow {
            experiment: "ensemble".into(),
            variant: "single (2,15,3,0.6)".into(),
            dataset: profile.name.clone(),
            f1: qs.f1,
            detail: format!("{qs}"),
        });
        let ens = ensemble_resolve(executor, &d.pair, &default_ensemble(), 3);
        let qe = Quality::evaluate(&ens.matches, &d.ground_truth);
        rows.push(AblationRow {
            experiment: "ensemble".into(),
            variant: "5-config vote>=3".into(),
            dataset: profile.name.clone(),
            f1: qe.f1,
            detail: format!("{qe}"),
        });
    }
    rows
}

/// Candidate-generation ablation: token blocking (parameter-free, the
/// paper's choice) vs MinHash-LSH at two thresholds — measured as
/// ground-truth recall of the candidate pairs (§5's critique of LSH).
pub fn lsh_ablation(scale: f64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let d = dataset_at_scale(&profile, scale);
        let pair = &d.pair;
        let mut tb = build_token_blocks(pair);
        minoaner_blocking::purge::purge_blocks(&mut tb, pair.kb(Side::Left).len() + pair.kb(Side::Right).len());
        let token_cands = minoaner_baselines::bsl::candidate_pairs(&tb, &Default::default());
        let token_recall = candidate_recall(&token_cands, &d.ground_truth);
        rows.push(AblationRow {
            experiment: "candidates".into(),
            variant: "token blocking".into(),
            dataset: profile.name.clone(),
            f1: token_recall,
            detail: format!("{} candidate pairs", token_cands.len()),
        });
        for (name, cfg) in [
            ("LSH ~0.5 threshold", LshConfig { bands: 16, rows: 4, seed: 0x1511 }),
            ("LSH ~0.8 threshold", LshConfig { bands: 4, rows: 8, seed: 0x1511 }),
        ] {
            let cands = lsh_candidate_pairs(pair, &cfg);
            let recall = candidate_recall(&cands, &d.ground_truth);
            rows.push(AblationRow {
                experiment: "candidates".into(),
                variant: name.into(),
                dataset: profile.name.clone(),
                f1: recall,
                detail: format!("{} candidate pairs (implied t={:.2})", cands.len(), cfg.implied_threshold()),
            });
        }
        let sn_cfg = SortedNeighborhoodConfig::default();
        let sn = sorted_neighborhood_candidates(pair, &sn_cfg);
        let recall = candidate_recall(&sn, &d.ground_truth);
        rows.push(AblationRow {
            experiment: "candidates".into(),
            variant: format!("sorted neighborhood (w={})", sn_cfg.window),
            dataset: profile.name.clone(),
            f1: recall,
            detail: format!("{} candidate pairs", sn.len()),
        });
    }
    rows
}

/// Renders ablation rows grouped by experiment.
pub fn render(rows: &[AblationRow], metric_label: &str) -> String {
    let mut out = String::new();
    let mut experiments: Vec<&str> = rows.iter().map(|r| r.experiment.as_str()).collect();
    experiments.dedup();
    for exp in experiments {
        let subset: Vec<&AblationRow> = rows.iter().filter(|r| r.experiment == exp).collect();
        let mut t = TextTable::new(
            format!("Ablation: {exp}"),
            &["dataset", "variant", metric_label, "detail"],
        );
        for r in subset {
            t.row(vec![r.dataset.clone(), r.variant.clone(), format!("{:.2}", r.f1), r.detail.clone()]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_weighting_ablation_prefers_arcs_on_value_rich_data() {
        let exec = Executor::new(2);
        let rows = beta_weighting_ablation(&exec, 0.15);
        let f1_of = |dataset: &str, variant: &str| {
            rows.iter()
                .find(|r| r.dataset == dataset && r.variant == variant)
                .map(|r| r.f1)
                .expect("row")
        };
        // ARCS must be at least competitive with the count-based schemes
        // on the strongly-similar dataset.
        let arcs = f1_of("Restaurant", "Arcs");
        let cbs = f1_of("Restaurant", "Cbs");
        assert!(arcs + 10.0 >= cbs, "ARCS {arcs} vs CBS {cbs}");
        assert_eq!(rows.len(), 4 * 4);
    }

    #[test]
    fn lsh_ablation_shows_token_blocking_recall_advantage() {
        let rows = lsh_ablation(0.15);
        for profile in ["BBCmusic-DBpedia", "YAGO-IMDb"] {
            let token = rows
                .iter()
                .find(|r| r.dataset == profile && r.variant == "token blocking")
                .expect("token row")
                .f1;
            let strict_lsh = rows
                .iter()
                .find(|r| r.dataset == profile && r.variant.contains("0.8"))
                .expect("lsh row")
                .f1;
            assert!(
                token > strict_lsh,
                "{profile}: token blocking ({token:.1}) must beat strict LSH ({strict_lsh:.1}) on recall"
            );
        }
    }

    #[test]
    fn render_groups_by_experiment() {
        let rows = vec![
            AblationRow { experiment: "a".into(), variant: "x".into(), dataset: "D".into(), f1: 1.0, detail: String::new() },
            AblationRow { experiment: "b".into(), variant: "y".into(), dataset: "D".into(), f1: 2.0, detail: String::new() },
        ];
        let s = render(&rows, "F1");
        assert!(s.contains("Ablation: a"));
        assert!(s.contains("Ablation: b"));
    }
}
