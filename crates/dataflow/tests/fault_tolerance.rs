//! Integration tests for the engine's failure handling: panic isolation,
//! typed errors, fail-fast with a deterministic culprit, and cooperative
//! cancellation by token, deadline included.
//!
//! Seeded loops over `minoaner_det::rng::Rng`: the same cases on every run.

use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use minoaner_det::rng::Rng;
use minoaner_dataflow::{CancelReason, CancelToken, DataflowError, Executor};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn disk_full(task: usize) -> DataflowError {
    DataflowError::DiskFull {
        stage: "spill".into(),
        path: format!("/scratch/run-{task}.spill"),
        detail: "No space left on device (os error 28)".into(),
    }
}

#[test]
fn a_panicking_task_fails_the_stage_naming_the_lowest_failing_index() {
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let n = 1 + rng.gen_range(0..48usize);
        let failing: Vec<usize> = (0..1 + rng.gen_range(0..3usize)).map(|_| rng.gen_range(0..n)).collect();
        let lowest = *failing.iter().min().expect("at least one failing task");

        for workers in WORKER_COUNTS {
            let exec = Executor::new(workers);
            let err = exec
                .try_run_stage("explode", n, |i| {
                    assert!(!failing.contains(&i), "boom at {i}");
                    i * 2
                })
                .unwrap_err();
            assert_eq!(
                err,
                DataflowError::TaskPanicked {
                    stage: "explode".into(),
                    task: lowest,
                    payload: format!("boom at {lowest}"),
                },
                "seed {seed}, {workers} workers"
            );

            // The executor and its stage log remain usable after the failure.
            assert_eq!(exec.try_run_stage("after", 4, |i| i), Ok(vec![0, 1, 2, 3]));
            let log = exec.stage_log();
            let names: Vec<&str> = log.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(names, ["explode", "after"]);
            let failed = log.find("explode").expect("failed stages are logged too");
            assert_eq!(failed.tasks, n);
            assert!((1..=n).contains(&failed.attempts), "ran {} of {n}", failed.attempts);
            assert_eq!(log.find("after").map(|s| s.attempts), Some(4));
        }
    }
}

#[test]
fn an_engine_error_raised_inside_a_task_comes_back_typed() {
    for workers in WORKER_COUNTS {
        let exec = Executor::new(workers);
        // Task 3 raises a structured error; the later plain panic in task 7
        // must not displace it, nor may it be stringified.
        let err = exec
            .try_run_stage("spill", 12, |i| {
                if i == 3 {
                    panic_any(disk_full(i));
                }
                assert!(i != 7, "plain panic");
                i
            })
            .unwrap_err();
        assert_eq!(err, disk_full(3), "{workers} workers");
    }
}

#[test]
fn run_stage_re_raises_a_payload_from_panic_round_trips() {
    for workers in WORKER_COUNTS {
        let exec = Executor::new(workers);
        for typed in [false, true] {
            let task = |i: usize| {
                if i == 5 && typed {
                    panic_any(disk_full(i));
                }
                assert!(i != 5, "bad element");
                i
            };
            let returned = exec.try_run_stage("boom", 8, task).unwrap_err();
            let caught = catch_unwind(AssertUnwindSafe(|| exec.run_stage("boom", 8, task)))
                .expect_err("run_stage re-raises the failure");
            assert_eq!(DataflowError::from_panic(caught), returned, "{workers} workers");
        }
    }
}

#[test]
fn an_expired_job_deadline_cancels_before_any_task_runs() {
    for workers in WORKER_COUNTS {
        let mut exec = Executor::new(workers);
        exec.set_cancel_token(CancelToken::new().expiring_after(Duration::ZERO));
        let ran = AtomicUsize::new(0);
        let err = exec
            .try_run_stage("late", 8, |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                i
            })
            .unwrap_err();
        assert_eq!(
            err,
            DataflowError::Cancelled {
                stage: "late".into(),
                reason: CancelReason::Deadline,
                completed: 0,
                tasks: 8,
            },
            "{workers} workers"
        );
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(exec.cancel_token().reason(), Some(CancelReason::Deadline), "expiry latches");
    }
}

#[test]
fn a_mid_stage_cancel_stops_claims_and_reports_progress() {
    for (workers, reason) in
        WORKER_COUNTS.into_iter().zip([CancelReason::User, CancelReason::Deadline, CancelReason::User])
    {
        let mut exec = Executor::new(workers);
        let token = CancelToken::new();
        exec.set_cancel_token(token.clone());
        let ran = AtomicUsize::new(0);
        let err = exec
            .try_run_stage("halfway", 64, |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                if i == 2 {
                    token.cancel(reason);
                }
                i
            })
            .unwrap_err();
        let ran = ran.load(Ordering::SeqCst);
        match err {
            DataflowError::Cancelled { stage, reason: seen, completed, tasks } => {
                assert_eq!((stage.as_str(), seen, tasks), ("halfway", reason, 64));
                assert_eq!(completed, ran, "every claimed task finished and was counted");
                assert!((3..=tasks).contains(&completed), "{completed} of {tasks}");
            }
            other => panic!("unexpected error: {other}"),
        }
        assert_eq!(exec.stage_log().find("halfway").map(|s| s.attempts), Some(ran));
        if workers == 1 {
            assert_eq!(ran, 3, "sequential claims stop right after the cancelling task");
        }
    }
}
