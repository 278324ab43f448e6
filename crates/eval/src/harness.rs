//! The experiment harness: generate (or load) a dataset, run any of the
//! six systems of Table 3 on it, and score the result.

use std::time::{Duration, Instant};

use minoaner_baselines::{grid_search, run_linda, run_paris, run_rimom, run_sigma};
use minoaner_blocking::name::build_name_blocks;
use minoaner_blocking::purge::purge_blocks;
use minoaner_blocking::token::build_token_blocks;
use minoaner_core::matcher::run_matching;
use minoaner_core::{Minoaner, MinoanerConfig, ResolveRequest, RuleSet};
use minoaner_dataflow::{DataflowError, Executor};
use minoaner_datagen::{generate, DatasetProfile, GeneratedDataset};
use minoaner_kb::stats::NameStats;
use minoaner_kb::{EntityId, Side};

use crate::metrics::Quality;

/// The systems compared in Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemId {
    Minoaner,
    Paris,
    Sigma,
    Linda,
    Rimom,
    Bsl,
}

impl SystemId {
    /// All runnable systems, in Table 3 row order.
    pub const ALL: [SystemId; 6] = [
        SystemId::Sigma,
        SystemId::Linda,
        SystemId::Rimom,
        SystemId::Paris,
        SystemId::Bsl,
        SystemId::Minoaner,
    ];

    /// Display name matching the paper's row labels.
    pub fn name(&self) -> &'static str {
        match self {
            SystemId::Minoaner => "MinoanER",
            SystemId::Paris => "PARIS",
            SystemId::Sigma => "SiGMa",
            SystemId::Linda => "LINDA",
            SystemId::Rimom => "RiMOM",
            SystemId::Bsl => "BSL",
        }
    }
}

/// Result of one system run.
#[derive(Debug, Clone)]
pub struct SystemRun {
    pub system: SystemId,
    pub matches: Vec<(EntityId, EntityId)>,
    pub quality: Quality,
    pub runtime: Duration,
    /// Extra descriptive detail (e.g. BSL's best configuration).
    pub detail: String,
}

/// Runs one system on a generated dataset. The BSL grid search needs the
/// ground truth (it is tuned against it, as in the paper); the others
/// ignore it.
// Harness timing feeds the runtime columns of the paper tables; the
// quality numbers are clock-independent.
#[allow(clippy::disallowed_methods)]
pub fn run_system(
    executor: &Executor,
    dataset: &GeneratedDataset,
    system: SystemId,
) -> Result<SystemRun, DataflowError> {
    let pair = &dataset.pair;
    let start = Instant::now();
    let (matches, detail) = match system {
        SystemId::Minoaner => {
            let res = Minoaner::new()
                .run(ResolveRequest::pair(pair).workers(executor.workers()))?
                .into_resolution();
            let c = res.rule_counts;
            (res.matches, format!("r1={} r2={} r3={} removed-by-r4={}", c.r1, c.r2, c.r3, c.removed_by_r4))
        }
        SystemId::Paris => (run_paris(executor, pair), String::new()),
        SystemId::Sigma => (run_sigma(executor, pair), String::new()),
        SystemId::Linda => (run_linda(executor, pair), String::new()),
        SystemId::Rimom => (run_rimom(executor, pair), String::new()),
        SystemId::Bsl => {
            let mut tb = build_token_blocks(pair);
            purge_blocks(&mut tb, pair.kb(Side::Left).len() + pair.kb(Side::Right).len());
            let names = NameStats::compute(pair, 2);
            let nb = build_name_blocks(pair, &names);
            let report = grid_search(executor, pair, &tb, &nb, &dataset.ground_truth);
            (
                report.matches,
                format!(
                    "best: {}-grams, {:?}, {:?}, t={:.2} ({} configs)",
                    report.best.ngram,
                    report.best.weighting,
                    report.best.measure,
                    report.best.threshold,
                    report.evaluated
                ),
            )
        }
    };
    let runtime = start.elapsed();
    let quality = Quality::evaluate(&matches, &dataset.ground_truth);
    Ok(SystemRun { system, matches, quality, runtime, detail })
}

/// Runs a MinoanER rule-set ablation (Table 4 rows) on a dataset: the
/// product's public stages on `executor` (`prepare_blocks` →
/// `build_graph_from_blocks`), then Algorithm 2 with `rules`.
// Harness timing feeds the runtime columns of the paper tables; the
// quality numbers are clock-independent.
#[allow(clippy::disallowed_methods)]
pub fn run_ablation(
    executor: &Executor,
    dataset: &GeneratedDataset,
    rules: RuleSet,
    config: MinoanerConfig,
) -> (Quality, Duration) {
    let start = Instant::now();
    let (resolver, pair) = (Minoaner::with_config(config), &dataset.pair);
    let graph = resolver.build_graph_from_blocks(executor, pair, &resolver.prepare_blocks(executor, pair));
    let outcome = run_matching(executor, pair, &graph, resolver.config(), rules);
    (Quality::evaluate(&outcome.matches, &dataset.ground_truth), start.elapsed())
}

/// Generates a dataset from a profile at the harness scale.
pub fn dataset_at_scale(profile: &DatasetProfile, scale: f64) -> GeneratedDataset {
    if (scale - 1.0).abs() < f64::EPSILON {
        generate(profile)
    } else {
        generate(&profile.scaled(scale))
    }
}

/// The experiment scale factor: `MINOANER_SCALE` env var, default 1.0.
/// Benches honor it so the full suite can be shrunk on small machines.
pub fn scale_from_env() -> f64 {
    std::env::var("MINOANER_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoaner_datagen::profiles;

    #[test]
    fn every_system_runs_on_a_small_dataset() {
        let d = dataset_at_scale(&profiles::restaurant(), 0.3);
        let exec = Executor::new(2);
        for system in SystemId::ALL {
            let run = run_system(&exec, &d, system).expect("resolves");
            assert_eq!(run.system, system);
            assert!(run.quality.recall >= 0.0);
        }
    }

    #[test]
    fn minoaner_beats_a_trivial_floor_on_restaurant() {
        let d = dataset_at_scale(&profiles::restaurant(), 0.5);
        let exec = Executor::new(2);
        let run = run_system(&exec, &d, SystemId::Minoaner).expect("resolves");
        assert!(run.quality.f1 > 80.0, "got {}", run.quality);
        assert!(run.detail.contains("r1="));
    }

    #[test]
    fn ablation_r1_only_reports() {
        let d = dataset_at_scale(&profiles::restaurant(), 0.5);
        let exec = Executor::new(2);
        let (q, _) = run_ablation(&exec, &d, RuleSet::R1_ONLY, MinoanerConfig::default());
        assert!(q.precision > 50.0);
    }

    #[test]
    fn system_names_match_table3() {
        let names: Vec<&str> = SystemId::ALL.iter().map(|s| s.name()).collect();
        assert!(names.contains(&"MinoanER"));
        assert!(names.contains(&"BSL"));
    }

    #[test]
    fn scale_default_is_one() {
        // Env var not set in tests.
        if std::env::var("MINOANER_SCALE").is_err() {
            assert_eq!(scale_from_env(), 1.0);
        }
    }
}
