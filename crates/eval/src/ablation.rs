//! Design-choice ablations beyond the paper's Table 4: pruning strategies,
//! Block Purging, and the rule-ensemble extension. Every variant is a run of
//! the product itself ([`Minoaner::run`], or the ensemble over it), so the
//! rows measure the defaults the pipeline ships with (see DESIGN.md).

use minoaner_core::extensions::{default_ensemble, ensemble_resolve};
use minoaner_core::{Minoaner, MinoanerConfig, Resolution, ResolveRequest};
use minoaner_dataflow::Executor;
use minoaner_datagen::profiles::all_profiles;
use minoaner_datagen::GeneratedDataset;

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

/// One resolution of `d` by `minoaner` on the executor's worker count —
/// with `adaptive`, under the conclusion's per-node pruning.
fn run_variant(minoaner: &Minoaner, executor: &Executor, d: &GeneratedDataset, adaptive: bool) -> Resolution {
    let req = ResolveRequest::pair(&d.pair).workers(executor.workers());
    let req = if adaptive { req.adaptive() } else { req };
    minoaner.run(req).unwrap_or_else(|e| std::panic::panic_any(e)).into_resolution()
}

/// Pruning ablation: fixed top-K (the paper) vs the conclusion's adaptive
/// per-node cut.
pub fn pruning_ablation(executor: &Executor, scale: f64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let d = dataset_at_scale(&profile, scale);
        for (variant, adaptive) in [("top-K (paper)", false), ("adaptive (conclusion)", true)] {
            let run = run_variant(&Minoaner::new(), executor, &d, adaptive);
            let q = Quality::evaluate(&run.matches, &d.ground_truth);
            rows.push(AblationRow::scored("pruning", variant, &profile.name, q, None));
        }
    }
    rows
}

/// Block Purging ablation: the linear comparison budget (the default) vs
/// no purging, as end-to-end F1 plus the token-block comparisons each run
/// keeps — both counts from the default run's purge report.
pub fn purging_ablation(executor: &Executor, scale: f64) -> Vec<AblationRow> {
    let unpurged = Minoaner::with_config(MinoanerConfig { purge_blocks: false, ..MinoanerConfig::default() });
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let d = dataset_at_scale(&profile, scale);
        let purged = run_variant(&Minoaner::new(), executor, &d, false);
        let (before, after) = purged.purge.as_ref().map_or((0, 0), |r| (r.comparisons_before, r.comparisons_after));
        let variants =
            [("budget (default)", purged, after), ("no purging", run_variant(&unpurged, executor, &d, false), before)];
        for (variant, run, kept) in variants {
            let q = Quality::evaluate(&run.matches, &d.ground_truth);
            let note = format!("{kept} comparisons kept");
            rows.push(AblationRow::scored("purging", variant, &profile.name, q, Some(note)));
        }
    }
    rows
}

/// Ensemble ablation: the single default configuration vs the
/// conclusion's majority-vote ensemble.
pub fn ensemble_ablation(executor: &Executor, scale: f64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for profile in all_profiles() {
        let d = dataset_at_scale(&profile, scale);
        let single = run_variant(&Minoaner::new(), executor, &d, false);
        let qs = Quality::evaluate(&single.matches, &d.ground_truth);
        rows.push(AblationRow::scored("ensemble", "single (2,15,3,0.6)", &profile.name, qs, None));
        let ens = ensemble_resolve(executor, &d.pair, &default_ensemble(), 3).unwrap_or_else(|e| std::panic::panic_any(e));
        let qe = Quality::evaluate(&ens.matches, &d.ground_truth);
        rows.push(AblationRow::scored("ensemble", "5-config vote>=3", &profile.name, qe, None));
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
    fn every_ablation_has_a_row_per_profile_and_variant_and_the_default_run_agrees() {
        let exec = Executor::new(2);
        let pruning = pruning_ablation(&exec, 0.15);
        let purging = purging_ablation(&exec, 0.15);
        let ensemble = ensemble_ablation(&exec, 0.15);
        let profiles: Vec<String> = all_profiles().into_iter().map(|p| p.name).collect();
        for (rows, variants) in [
            (&pruning, ["top-K (paper)", "adaptive (conclusion)"]),
            (&purging, ["budget (default)", "no purging"]),
            (&ensemble, ["single (2,15,3,0.6)", "5-config vote>=3"]),
        ] {
            let got: Vec<(&str, &str)> = rows.iter().map(|r| (r.dataset.as_str(), r.variant.as_str())).collect();
            let want: Vec<(&str, &str)> =
                profiles.iter().flat_map(|p| variants.map(|v| (p.as_str(), v))).collect();
            assert_eq!(got, want);
        }
        // The paper's top-K row, the budget-purged row and the single
        // configuration are one and the same default run.
        let f1_of = |rows: &[AblationRow], dataset: &str, variant: &str| {
            rows.iter().find(|r| r.dataset == dataset && r.variant == variant).map(|r| r.f1.to_bits())
        };
        for p in &profiles {
            let default_run = f1_of(&pruning, p, "top-K (paper)");
            assert!(default_run.is_some(), "{p}");
            assert_eq!(f1_of(&purging, p, "budget (default)"), default_run, "{p}: purging");
            assert_eq!(f1_of(&ensemble, p, "single (2,15,3,0.6)"), default_run, "{p}: ensemble");
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
