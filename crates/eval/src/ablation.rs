//! Design-choice ablations beyond the paper's Table 4: fixed top-K vs
//! adaptive pruning, and Block Purging vs none. The default row of each is
//! the product itself ([`Minoaner::run`]); the other variant composes the
//! product's public stages with the one step it varies:
//! [`resolve_adaptive`] swaps the top-K cut for the adaptive one, and the
//! no-purging row runs [`Minoaner::build_graph_from_blocks`] and
//! [`run_matching`] on [`unpurged_blocks`]. So the rows measure the
//! pipeline the product ships with (see DESIGN.md).

use minoaner_blocking::graph::{build_blocking_graph, GraphConfig};
use minoaner_blocking::name::build_name_blocks;
use minoaner_blocking::purge::purge_with_cap;
use minoaner_blocking::token::build_token_blocks_parallel;
use minoaner_core::matcher::run_matching;
use minoaner_core::{Minoaner, MinoanerConfig, PreparedBlocks, Resolution, ResolveRequest, RuleSet};
use minoaner_dataflow::{DataflowError, Executor};
use minoaner_datagen::profiles::all_profiles;
use minoaner_datagen::GeneratedDataset;
use minoaner_kb::stats::{NameStats, RelationStats};
use minoaner_kb::{EntityId, KbPair};

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

impl AblationRow {
    /// The row of `variant` scored `q`, its detail prefixed by `note`.
    fn scored(experiment: &str, variant: &str, dataset: &str, q: Quality, note: Option<String>) -> Self {
        Self {
            experiment: experiment.into(),
            variant: variant.into(),
            dataset: dataset.into(),
            f1: q.f1,
            detail: note.map_or_else(|| format!("{q}"), |note| format!("{note}, {q}")),
        }
    }
}

/// One resolution of `d` by the product, on the executor's worker count.
fn default_run(executor: &Executor, d: &GeneratedDataset) -> Result<Resolution, DataflowError> {
    let req = ResolveRequest::pair(&d.pair).workers(executor.workers());
    Ok(Minoaner::new().run(req)?.into_resolution())
}

/// The blocks [`Minoaner::prepare_blocks`] builds under the default
/// configuration, without Block Purging: the report's cap is `u64::MAX`
/// and it keeps every block.
pub fn unpurged_blocks(executor: &Executor, pair: &KbPair) -> PreparedBlocks {
    let name_stats = NameStats::compute(pair, MinoanerConfig::default().name_attrs_k);
    let mut token_blocks = build_token_blocks_parallel(executor, pair);
    let purge = purge_with_cap(&mut token_blocks, u64::MAX);
    PreparedBlocks {
        relation_stats: RelationStats::compute(pair),
        token_blocks,
        name_blocks: build_name_blocks(pair, &name_stats),
        name_stats,
        purge,
    }
}

/// The product's stages after `blocks` under the default configuration,
/// with each node's candidates cut at its own weight distribution (§7) in
/// place of the top-K: the graph, then R1–R4. Returns the matches.
pub fn resolve_adaptive(executor: &Executor, pair: &KbPair, blocks: &PreparedBlocks) -> Vec<(EntityId, EntityId)> {
    let config = MinoanerConfig::default();
    let graph_cfg = GraphConfig { top_k: config.top_k, n_relations: config.n_relations, adaptive_pruning: true };
    let graph = build_blocking_graph(
        executor,
        pair,
        &blocks.relation_stats,
        &blocks.token_blocks,
        &blocks.name_blocks,
        &graph_cfg,
    );
    run_matching(executor, pair, &graph, &config, RuleSet::FULL).matches
}

/// Pruning ablation: fixed top-K (the paper) vs the conclusion's adaptive
/// per-node cut.
pub fn pruning_ablation(executor: &Executor, scale: f64) -> Result<Vec<AblationRow>, DataflowError> {
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let d = dataset_at_scale(&profile, scale);
        let top_k = default_run(executor, &d)?.matches;
        let blocks = Minoaner::new().prepare_blocks(executor, &d.pair);
        let adaptive = resolve_adaptive(executor, &d.pair, &blocks);
        for (variant, matches) in [("top-K (paper)", top_k), ("adaptive (conclusion)", adaptive)] {
            let q = Quality::evaluate(&matches, &d.ground_truth);
            rows.push(AblationRow::scored("pruning", variant, &profile.name, q, None));
        }
    }
    Ok(rows)
}

/// Block Purging ablation: the linear comparison budget (the default) vs
/// no purging, as end-to-end F1 plus the token-block comparisons each run
/// keeps, from each run's purge report.
pub fn purging_ablation(executor: &Executor, scale: f64) -> Result<Vec<AblationRow>, DataflowError> {
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let d = dataset_at_scale(&profile, scale);
        let purged = default_run(executor, &d)?;
        let resolver = Minoaner::new();
        let blocks = unpurged_blocks(executor, &d.pair);
        let graph = resolver.build_graph_from_blocks(executor, &d.pair, &blocks);
        let unpurged = run_matching(executor, &d.pair, &graph, resolver.config(), RuleSet::FULL).matches;
        for (variant, matches, report) in
            [("budget (default)", purged.matches, &purged.purge), ("no purging", unpurged, &blocks.purge)]
        {
            let q = Quality::evaluate(&matches, &d.ground_truth);
            let note = format!("{} comparisons kept", report.comparisons_after);
            rows.push(AblationRow::scored("purging", variant, &profile.name, q, Some(note)));
        }
    }
    Ok(rows)
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
    use minoaner_kb::{Side, Term};

    /// Every row at scale 0.15, F1 to the bit, as the product computed it
    /// while adaptive pruning and purging-off were switches of
    /// `Minoaner::run`: composing the stages reproduces the switches.
    const ROWS_AT_0_15: [(&str, &str, u64, &str); 16] = [
        ("Restaurant", "top-K (paper)", 4636476666376200496, "P=92.86 R=100.00 F1=96.30"),
        ("Restaurant", "adaptive (conclusion)", 4636476666376200496, "P=92.86 R=100.00 F1=96.30"),
        ("Rexa-DBLP", "top-K (paper)", 4636209525773303807, "P=87.06 R=98.67 F1=92.50"),
        ("Rexa-DBLP", "adaptive (conclusion)", 4636209525773303807, "P=87.06 R=98.67 F1=92.50"),
        ("BBCmusic-DBpedia", "top-K (paper)", 4635663869833282092, "P=78.80 R=91.67 F1=84.75"),
        ("BBCmusic-DBpedia", "adaptive (conclusion)", 4635613573424357311, "P=78.55 R=90.33 F1=84.03"),
        ("YAGO-IMDb", "top-K (paper)", 4636151535992447077, "P=91.57 R=91.78 F1=91.68"),
        ("YAGO-IMDb", "adaptive (conclusion)", 4636141742962932227, "P=91.74 R=91.33 F1=91.54"),
        ("Restaurant", "budget (default)", 4636476666376200496, "20536 comparisons kept, P=92.86 R=100.00 F1=96.30"),
        ("Restaurant", "no purging", 4636234657467652974, "38135 comparisons kept, P=86.67 R=100.00 F1=92.86"),
        ("Rexa-DBLP", "budget (default)", 4636209525773303807, "246078 comparisons kept, P=87.06 R=98.67 F1=92.50"),
        ("Rexa-DBLP", "no purging", 4636169096525872542, "3382448 comparisons kept, P=86.05 R=98.67 F1=91.93"),
        ("BBCmusic-DBpedia", "budget (default)", 4635663869833282092, "142668 comparisons kept, P=78.80 R=91.67 F1=84.75"),
        ("BBCmusic-DBpedia", "no purging", 4635423176252523285, "4448106 comparisons kept, P=74.18 R=90.00 F1=81.33"),
        ("YAGO-IMDb", "budget (default)", 4636151535992447077, "72841 comparisons kept, P=91.57 R=91.78 F1=91.68"),
        ("YAGO-IMDb", "no purging", 4636165887758977837, "702114 comparisons kept, P=91.98 R=91.78 F1=91.88"),
    ];

    #[test]
    fn every_ablation_has_a_row_per_profile_and_variant_and_the_default_run_agrees() {
        let exec = Executor::new(2);
        let pruning = pruning_ablation(&exec, 0.15).expect("resolves");
        let purging = purging_ablation(&exec, 0.15).expect("resolves");
        let got: Vec<(&str, &str, u64, &str)> = pruning
            .iter()
            .chain(&purging)
            .map(|r| (r.dataset.as_str(), r.variant.as_str(), r.f1.to_bits(), r.detail.as_str()))
            .collect();
        assert_eq!(got, ROWS_AT_0_15);
        // The paper's top-K row and the budget-purged row are one and the
        // same default run.
        for (top_k, budget) in pruning.iter().step_by(2).zip(purging.iter().step_by(2)) {
            assert_eq!(top_k.f1.to_bits(), budget.f1.to_bits(), "{}", top_k.dataset);
        }
    }

    /// Three restaurants a side whose names agree word for word.
    fn three_restaurants() -> KbPair {
        let mut b = minoaner_kb::KbPairBuilder::new();
        for (i, name) in ["fat duck bray", "noma copenhagen nordic", "el bulli roses"].iter().enumerate() {
            b.add_triple(Side::Left, &format!("l{i}"), "label", Term::Literal(name));
            b.add_triple(Side::Right, &format!("r{i}"), "name", Term::Literal(name));
        }
        b.finish()
    }

    /// [`resolve_adaptive`] on the product's prepared blocks, on its own
    /// executor of `workers`: the matches and the stages that ran.
    fn adaptive_run(pair: &KbPair, workers: usize) -> (Vec<(EntityId, EntityId)>, Vec<String>) {
        let exec = Executor::new(workers);
        let matches = resolve_adaptive(&exec, pair, &Minoaner::new().prepare_blocks(&exec, pair));
        (matches, exec.stage_log().iter().map(|s| s.name.clone()).collect())
    }

    #[test]
    fn adaptive_pruning_composes_from_the_pipeline_stages() {
        let p = three_restaurants();
        let plain = Minoaner::new().run(ResolveRequest::pair(&p).workers(2)).expect("plain run").trace;
        let (adaptive, stages) = adaptive_run(&p, 2);
        assert_eq!(adaptive.len(), 3, "every clear pair");
        let plain_stages: Vec<String> = plain.stages.iter().map(|s| s.name.clone()).collect();
        assert_eq!(stages, plain_stages, "same stages, purge and stats included");
    }

    #[test]
    fn adaptive_pruning_on_a_dirty_pair_matches_no_entity_to_itself() {
        let mut b = minoaner_kb::KbPairBuilder::new();
        b.add_triple(Side::Left, "e0", "label", Term::Literal("fat duck bray"));
        b.add_triple(Side::Left, "e1", "label", Term::Literal("fat duck bray"));
        let p = b.finish_dirty();
        let (matches, _) = adaptive_run(&p, 2);
        assert!(matches.iter().all(|&(l, r)| l != r), "no identity pairs");
        let duplicates = minoaner_kb::dirty::canonicalize_dirty_matches(&matches);
        assert_eq!(duplicates, [(EntityId(0), EntityId(1))]);
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
