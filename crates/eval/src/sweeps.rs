//! Parameter sweeps: the Figure 5 sensitivity analysis and the Figure 6
//! scalability experiment.

use std::time::Duration;

use minoaner_core::{Minoaner, MinoanerConfig, ResolveRequest, RuleSet};
use minoaner_dataflow::Executor;
use minoaner_datagen::GeneratedDataset;

use crate::metrics::Quality;

/// The four swept parameters of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parameter {
    /// `k` — global name attributes per KB.
    K,
    /// `K` — candidates per entity per evidence kind.
    TopK,
    /// `N` — most important relations per entity.
    N,
    /// `θ` — value/neighbor rank-aggregation trade-off.
    Theta,
}

impl Parameter {
    /// The paper's sweep values for this parameter (Figure 5).
    pub fn sweep_values(&self) -> Vec<f64> {
        match self {
            Parameter::K | Parameter::N => vec![1.0, 2.0, 3.0, 4.0, 5.0],
            Parameter::TopK => vec![5.0, 10.0, 15.0, 20.0, 25.0],
            Parameter::Theta => vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
        }
    }

    /// Axis label.
    pub fn label(&self) -> &'static str {
        match self {
            Parameter::K => "k",
            Parameter::TopK => "K",
            Parameter::N => "N",
            Parameter::Theta => "theta",
        }
    }

    /// Applies a sweep value on top of the default configuration
    /// `(k, K, N, θ) = (2, 15, 3, 0.6)`.
    pub fn apply(&self, value: f64) -> MinoanerConfig {
        let default = MinoanerConfig::default();
        match self {
            Parameter::K => MinoanerConfig { name_attrs_k: value as usize, ..default },
            Parameter::TopK => MinoanerConfig { top_k: value as usize, ..default },
            Parameter::N => MinoanerConfig { n_relations: value as usize, ..default },
            Parameter::Theta => MinoanerConfig { theta: value, ..default },
        }
    }
}

/// One sensitivity measurement.
#[derive(Debug, Clone)]
pub struct SensitivityPoint {
    pub parameter: &'static str,
    pub value: f64,
    pub dataset: String,
    pub f1: f64,
}

/// Runs the Figure 5 sensitivity analysis on one dataset: each parameter
/// varied over its sweep values with the other three at their defaults.
pub fn sensitivity(executor: &Executor, dataset: &GeneratedDataset) -> Vec<SensitivityPoint> {
    let mut out = Vec::new();
    for param in [Parameter::K, Parameter::TopK, Parameter::N, Parameter::Theta] {
        for value in param.sweep_values() {
            let cfg = param.apply(value);
            let res = Minoaner::with_config(cfg)
                .run(
                    ResolveRequest::pair(&dataset.pair)
                        .rules(RuleSet::FULL)
                        .workers(executor.workers()),
                )
                .unwrap_or_else(|e| std::panic::panic_any(e))
                .into_resolution();
            let q = Quality::evaluate(&res.matches, &dataset.ground_truth);
            out.push(SensitivityPoint {
                parameter: param.label(),
                value,
                dataset: dataset.profile.name.clone(),
                f1: q.f1,
            });
        }
    }
    out
}

/// One scalability measurement (Figure 6).
#[derive(Debug, Clone)]
pub struct ScalabilityPoint {
    pub dataset: String,
    pub workers: usize,
    pub total: Duration,
    pub matching: Duration,
    /// Speedup relative to the 1-worker run of the same dataset.
    pub speedup: f64,
    /// Matching phase share of total runtime (%), reported in §6.2.
    pub matching_share: f64,
}

/// The worker counts to sweep: powers of two up to the machine's cores
/// (the paper sweeps 1 → 72 on its cluster). On very small hosts the sweep
/// still covers 1–4 workers so the knob itself is exercised — speedup
/// above the core count is of course not expected.
pub fn worker_sweep() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get()).max(4);
    let mut out = vec![1];
    let mut w = 2;
    while w < cores {
        out.push(w);
        w *= 2;
    }
    if out.last() != Some(&cores) {
        out.push(cores);
    }
    out
}

/// One input-size scaling measurement: the paper's complexity claim (§4)
/// is that matching cost is linear in `|E1| + |E2|`; this sweep measures
/// end-to-end and matching-phase time as the dataset grows.
#[derive(Debug, Clone)]
pub struct SizeScalingPoint {
    pub dataset: String,
    pub scale: f64,
    pub entities: usize,
    pub total: Duration,
    pub matching: Duration,
}

/// Runs the resolver on one profile at several scales with a fixed
/// executor configuration.
pub fn size_scaling(
    profile: &minoaner_datagen::DatasetProfile,
    scales: &[f64],
    repetitions: usize,
) -> Vec<SizeScalingPoint> {
    let mut out = Vec::new();
    for &scale in scales {
        let d = minoaner_datagen::generate(&profile.scaled(scale));
        let entities = d.pair.kb(minoaner_kb::Side::Left).len() + d.pair.kb(minoaner_kb::Side::Right).len();
        let mut total = Duration::ZERO;
        let mut matching = Duration::ZERO;
        for _ in 0..repetitions.max(1) {
            let res = Minoaner::new()
                .run(ResolveRequest::pair(&d.pair))
                .unwrap_or_else(|e| std::panic::panic_any(e))
                .into_resolution();
            total += res.timings.total;
            matching += res.timings.matching;
        }
        let reps = repetitions.max(1) as u32;
        out.push(SizeScalingPoint {
            dataset: profile.name.clone(),
            scale,
            entities,
            total: total / reps,
            matching: matching / reps,
        });
    }
    out
}

/// Runs the Figure 6 scalability experiment on one dataset: resolve with
/// 1, 2, 4, … workers (constant partition count, as in the paper's fixed
/// task count), reporting runtime, speedup and the matching share.
/// `repetitions` runs are averaged per point.
pub fn scalability(dataset: &GeneratedDataset, repetitions: usize) -> Vec<ScalabilityPoint> {
    let mut out: Vec<ScalabilityPoint> = Vec::new();
    let mut baseline: Option<f64> = None;
    for workers in worker_sweep() {
        let mut total = Duration::ZERO;
        let mut matching = Duration::ZERO;
        for _ in 0..repetitions.max(1) {
            let res = Minoaner::new()
                .run(ResolveRequest::pair(&dataset.pair).workers(workers))
                .unwrap_or_else(|e| std::panic::panic_any(e))
                .into_resolution();
            total += res.timings.total;
            matching += res.timings.matching;
        }
        let reps = repetitions.max(1) as u32;
        let total = total / reps;
        let matching = matching / reps;
        let secs = total.as_secs_f64();
        let base = *baseline.get_or_insert(secs);
        out.push(ScalabilityPoint {
            dataset: dataset.profile.name.clone(),
            workers,
            total,
            matching,
            speedup: base / secs.max(f64::EPSILON),
            matching_share: if secs > 0.0 { 100.0 * matching.as_secs_f64() / secs } else { 0.0 },
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::dataset_at_scale;
    use minoaner_datagen::profiles;

    #[test]
    fn sweep_values_match_figure5() {
        assert_eq!(Parameter::K.sweep_values().len(), 5);
        assert_eq!(Parameter::TopK.sweep_values(), vec![5.0, 10.0, 15.0, 20.0, 25.0]);
        assert_eq!(Parameter::Theta.sweep_values().len(), 6);
    }

    #[test]
    fn apply_changes_exactly_one_parameter() {
        let cfg = Parameter::Theta.apply(0.3);
        let d = MinoanerConfig::default();
        assert!((cfg.theta - 0.3).abs() < 1e-12);
        assert_eq!(cfg.top_k, d.top_k);
        assert_eq!(cfg.name_attrs_k, d.name_attrs_k);
        let cfg = Parameter::TopK.apply(25.0);
        assert_eq!(cfg.top_k, 25);
        assert!((cfg.theta - d.theta).abs() < 1e-12);
    }

    #[test]
    fn sensitivity_produces_21_points_per_dataset() {
        let d = dataset_at_scale(&profiles::restaurant(), 0.15);
        let exec = Executor::new(2);
        let points = sensitivity(&exec, &d);
        assert_eq!(points.len(), 5 + 5 + 5 + 6);
        assert!(points.iter().all(|p| (0.0..=100.0).contains(&p.f1)));
    }

    #[test]
    fn worker_sweep_starts_at_one_and_covers_at_least_four() {
        let ws = worker_sweep();
        assert_eq!(ws[0], 1);
        assert!(ws.windows(2).all(|w| w[0] < w[1]));
        assert!(*ws.last().unwrap() >= 4);
    }

    #[test]
    fn size_scaling_grows_with_scale() {
        let points = size_scaling(&profiles::restaurant(), &[0.2, 0.4], 1);
        assert_eq!(points.len(), 2);
        assert!(points[1].entities > points[0].entities);
    }

    #[test]
    fn scalability_reports_speedups() {
        let d = dataset_at_scale(&profiles::restaurant(), 0.3);
        let points = scalability(&d, 1);
        assert!(!points.is_empty());
        assert!((points[0].speedup - 1.0).abs() < 1e-9, "baseline speedup is 1");
        for p in &points {
            assert!((0.0..=100.0).contains(&p.matching_share));
        }
    }
}
