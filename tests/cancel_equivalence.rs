//! Cancellation-equivalence harness (seeded loop): cancelling a checkpointed
//! run at an arbitrary stage barrier must be indistinguishable from a
//! clean stop at that barrier — the cancelled run leaves only complete,
//! resumable barriers behind, and resuming it yields output byte-identical
//! to an uninterrupted run. This is the guarantee behind `minoaner jobs
//! cancel`: a job batch's `CANCEL` marker watcher latches the same token.
//!
//! The harness mirrors `crash_recovery.rs`, swapping the crash for a
//! cooperative cancel: the run's checkpoints go through
//! `support::CancelAfterBarrier`, a `Vfs` that latches the run's own
//! `CancelToken` right after barrier `k` commits — the worst-case timing
//! for the cancellation safety invariant — and the pipeline's next barrier
//! poll surfaces it as a structured `DataflowError::Cancelled`. Runs are
//! compared with `support::canonical_with_counters`.

mod support;

use std::path::Path;

use minoaner::dataflow::{CancelReason, CancelToken, RunTrace};
use minoaner::datagen::{generate, profiles, GeneratedDataset};
use minoaner::det::rng::for_each_seed;
use minoaner::{
    CheckpointSpec, DataflowError, Minoaner, Resolution, ResolveRequest,
};
use support::{assert_only_complete_barriers, canonical_with_counters, scratch_dir, CancelAfterBarrier};

/// Number of pipeline barriers (`blocks`, `graph`, `matches`).
const BARRIERS: usize = 3;

fn dataset(scale: f64) -> GeneratedDataset {
    generate(&profiles::restaurant().scaled(scale))
}

/// Runs the checkpointed pipeline once over the scaled restaurant
/// dataset, cancelling it right after barrier `cancel_after` commits if
/// one is given.
fn run(
    dir: &Path,
    workers: usize,
    scale: f64,
    resume: bool,
    cancel_after: Option<usize>,
) -> Result<(Resolution, RunTrace), DataflowError> {
    let d = dataset(scale);
    let token = CancelToken::new();
    let mut spec = CheckpointSpec { resume, ..CheckpointSpec::new(dir) };
    if let Some(barrier) = cancel_after {
        spec.vfs = CancelAfterBarrier::new(dir, barrier, token.clone());
    }
    let req = ResolveRequest::pair(&d.pair).checkpoint(&spec).workers(workers).cancel(token);
    Minoaner::new().run(req).map(support::split_outcome)
}

/// The core exchange shared by the seeded property and the exhaustive
/// sweep: cancel at `barrier`, check the on-disk invariant, resume,
/// compare against the uninterrupted baseline.
fn cancel_resume_roundtrip(barrier: usize, workers: usize, scale: f64, tag: &str) {
    let base_dir = scratch_dir(&format!("{tag}-base"));
    let (base_res, base_trace) =
        run(&base_dir, workers, scale, false, None).expect("uninterrupted run succeeds");
    let base = canonical_with_counters(&base_res, &base_trace);

    let dir = scratch_dir(tag);
    let cancelled = run(&dir, workers, scale, false, Some(barrier));

    match cancelled {
        Err(e) => {
            // Cancellation observed at the next barrier poll, surfaced as
            // the structured error with the injected reason.
            assert!(
                barrier < BARRIERS - 1,
                "cancel after the final barrier cannot interrupt anything"
            );
            assert_eq!(e.cancel_reason(), Some(CancelReason::User), "wrong reason: {e}");
            assert_only_complete_barriers(&dir);

            // Resume: picks up exactly past the cancelled-at barrier and
            // reproduces the uninterrupted outcome byte-for-byte.
            let (res, trace) = run(&dir, workers, scale, true, None).expect("resumed run succeeds");
            assert_eq!(
                trace.counter("ckpt/resumed_from"),
                barrier as u64 + 1,
                "resume must restart right past the cancelled barrier"
            );
            assert_eq!(canonical_with_counters(&res, &trace), base, "resumed run diverged from baseline");
        }
        Ok((res, trace)) => {
            // A cancel landing after the final barrier commits is a clean
            // shutdown of an already-complete run: nothing left to cut.
            assert_eq!(
                barrier,
                BARRIERS - 1,
                "run completed despite a cancel at interruptible barrier {barrier}"
            );
            assert_eq!(canonical_with_counters(&res, &trace), base, "cancelled-at-end run diverged");
        }
    }
}

/// Cancellation at an arbitrary barrier, worker count and dataset scale
/// is equivalent to a clean shutdown: only complete barriers remain, and
/// resume reproduces the uninterrupted run exactly. Each case is
/// two-to-three full pipeline runs, so the budget is small and the
/// exhaustive sweep below covers the barriers.
#[test]
fn cancel_at_arbitrary_stage_is_a_clean_shutdown() {
    for_each_seed(8, |rng| {
        let barrier = rng.gen_range(0..BARRIERS);
        let workers = [1usize, 2, 4][rng.gen_range(0..3usize)];
        let scale = [0.15f64, 0.2, 0.25][rng.gen_range(0..3usize)];
        cancel_resume_roundtrip(barrier, workers, scale, "prop");
    });
}

/// Deterministic complement to the property: every barrier is exercised
/// regardless of what the seeded cases happen to draw.
#[test]
fn every_barrier_cancel_resumes_to_the_uninterrupted_outcome() {
    for barrier in 0..BARRIERS {
        cancel_resume_roundtrip(barrier, 2, 0.2, &format!("sweep-{barrier}"));
    }
}
