//! A stage's output depends on its tasks, never on the schedule: results
//! come back in task order and bit-identical at 1, 2 and 8 workers, however
//! skewed the task sizes.
//!
//! Seeded loops over `minoaner_det::rng::Rng`: the same cases on every run.

use minoaner_det::rng::Rng;
use minoaner_dataflow::Executor;

/// One task: an `f64` sum whose rounding depends on the order of its
/// `weight` terms (so "bit-identical" is a real claim) plus a result whose
/// length varies per task.
fn task(i: usize, weight: u64) -> (usize, u64, Vec<u32>) {
    let sum: f64 = (0..weight).map(|k| 1.0 / (k + 1 + i as u64) as f64).sum();
    (i, sum.to_bits(), (0..(weight % 7) as u32).collect())
}

#[test]
fn results_are_in_task_order_and_identical_at_every_worker_count() {
    for seed in 0..24u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.gen_range(0..65usize); // 0 tasks included
        // Skew: most tasks are tiny, about one in eight is ~1000× heavier.
        let weights: Vec<u64> = (0..n)
            .map(|_| {
                let draw = rng.next_u64();
                if draw % 8 == 0 { 20_000 + draw % 20_000 } else { draw % 40 }
            })
            .collect();

        let run = |workers: usize| {
            let exec = Executor::new(workers);
            let out = exec.try_run_stage("work", n, |i| task(i, weights[i])).expect("no task fails");
            let log = exec.stage_log();
            let stage = log.find("work").expect("the stage is logged");
            assert_eq!(
                (stage.tasks, stage.attempts, stage.retries, stage.skipped),
                (n, n, 0, 0),
                "seed {seed}, {workers} workers: every task runs exactly once"
            );
            out
        };

        let w1 = run(1);
        assert!(w1.iter().enumerate().all(|(i, r)| r.0 == i), "seed {seed}: task order");
        assert_eq!(w1, run(2), "seed {seed}: 2 workers diverged from 1");
        assert_eq!(w1, run(8), "seed {seed}: 8 workers diverged from 1");
    }
}
