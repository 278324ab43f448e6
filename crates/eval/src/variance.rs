//! Repeatability: re-runs experiments over several generator seeds and
//! reports mean ± standard deviation, so single-seed numbers in
//! EXPERIMENTS.md can be judged against their natural variation.

use minoaner_core::{Minoaner, ResolveRequest};
use minoaner_dataflow::Executor;
use minoaner_datagen::{generate, DatasetProfile};

use crate::metrics::Quality;
use crate::report::TextTable;

/// Mean and standard deviation of a metric across seeds.
#[derive(Debug, Clone, Copy)]
pub struct MeanStd {
    pub mean: f64,
    pub std: f64,
    pub runs: usize,
}

/// Computes mean ± std of a sample.
pub fn mean_std(samples: &[f64]) -> MeanStd {
    let n = samples.len().max(1) as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    MeanStd { mean, std: var.sqrt(), runs: samples.len() }
}

/// Per-dataset seed-variance measurement of the full MinoanER workflow.
#[derive(Debug, Clone)]
pub struct VarianceRow {
    pub dataset: String,
    pub precision: MeanStd,
    pub recall: MeanStd,
    pub f1: MeanStd,
}

/// Runs MinoanER on `seeds` re-seedings of each profile at `scale`.
pub fn seed_variance(
    executor: &Executor,
    profiles: &[DatasetProfile],
    scale: f64,
    seeds: &[u64],
) -> (Vec<VarianceRow>, TextTable) {
    assert!(!seeds.is_empty(), "at least one seed required");
    let mut rows = Vec::new();
    for profile in profiles {
        let (mut ps, mut rs, mut f1s) = (Vec::new(), Vec::new(), Vec::new());
        for &seed in seeds {
            let mut p = profile.scaled(scale);
            p.seed = seed;
            let d = generate(&p);
            let res = Minoaner::new()
                .run(ResolveRequest::pair(&d.pair).workers(executor.workers()))
                .unwrap_or_else(|e| std::panic::panic_any(e))
                .into_resolution();
            let q = Quality::evaluate(&res.matches, &d.ground_truth);
            ps.push(q.precision);
            rs.push(q.recall);
            f1s.push(q.f1);
        }
        rows.push(VarianceRow {
            dataset: profile.name.clone(),
            precision: mean_std(&ps),
            recall: mean_std(&rs),
            f1: mean_std(&f1s),
        });
    }
    let mut t = TextTable::new(
        format!("Seed variance — MinoanER over {} generator seeds (scale {scale})", seeds.len()),
        &["dataset", "P mean±std", "R mean±std", "F1 mean±std"],
    );
    for r in &rows {
        let fmt = |m: MeanStd| format!("{:.2} ± {:.2}", m.mean, m.std);
        t.row(vec![r.dataset.clone(), fmt(r.precision), fmt(r.recall), fmt(r.f1)]);
    }
    (rows, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoaner_datagen::profiles;

    #[test]
    fn mean_std_arithmetic() {
        let m = mean_std(&[2.0, 4.0, 6.0]);
        assert!((m.mean - 4.0).abs() < 1e-12);
        assert!((m.std - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(m.runs, 3);
        let single = mean_std(&[5.0]);
        assert_eq!(single.std, 0.0);
    }

    #[test]
    fn variance_is_small_across_seeds() {
        let exec = Executor::new(2);
        let (rows, table) = seed_variance(
            &exec,
            &[profiles::restaurant()],
            0.5,
            &[1, 2, 3],
        );
        assert_eq!(rows.len(), 1);
        let f1 = rows[0].f1;
        assert!(f1.mean > 80.0, "mean F1 {}", f1.mean);
        assert!(f1.std < 10.0, "F1 std {} too high — generator unstable", f1.std);
        assert!(table.render().contains("±"));
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_rejected() {
        let exec = Executor::new(1);
        let _ = seed_variance(&exec, &[profiles::restaurant()], 0.2, &[]);
    }
}
