//! Cancellation-equivalence harness (seeded loop): cancelling a checkpointed
//! run at an arbitrary stage barrier must be indistinguishable from a
//! clean shutdown — the cancelled run leaves only complete, resumable
//! barriers behind, and resuming it yields output byte-identical to an
//! uninterrupted run.
//!
//! The harness mirrors `crash_recovery.rs`, swapping the SIGKILL-style
//! `MINOANER_CRASH_POINT` for the cooperative `MINOANER_CANCEL_POINT`
//! (same `after:<k>` grammar): instead of aborting the process, the
//! fault-injection hook latches the run's own `CancelToken` right after
//! barrier `k` commits — the worst-case timing for the cancellation
//! safety invariant — and the pipeline's next barrier poll surfaces it
//! as a structured `DataflowError::Cancelled`.
//!
//! Only compiled with the `fault-inject` feature; CI's jobs-stress job
//! runs `cargo test --features fault-inject --test cancel_equivalence`.

#![cfg(feature = "fault-inject")]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use minoaner::dataflow::{CancelReason, RunTrace};
use minoaner::datagen::{generate, profiles, GeneratedDataset};
use minoaner::det::rng::for_each_seed;
use minoaner::{
    CheckpointSpec, DataflowError, Executor, Minoaner, Resolution, ResolveRequest, RuleSet,
};

/// Number of pipeline barriers (`blocks`, `graph`, `matches`).
const BARRIERS: usize = 3;

/// `MINOANER_CANCEL_POINT` is process-global: every test that arms it
/// holds this lock so concurrent test threads never see each other's
/// armed cancellation point.
static CANCEL_POINT: Mutex<()> = Mutex::new(());

fn dataset(scale: f64) -> GeneratedDataset {
    generate(&profiles::restaurant().scaled(scale))
}

/// A scratch directory that is unique per test without consulting any
/// entropy source (pid + a process-local counter).
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "minoaner-cancel-equivalence-{}-{tag}-{n}",
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Renders the observable outcome of a run as a canonical text blob.
/// `ckpt/*` counters are excluded: they are the only counters allowed
/// to differ between an uninterrupted and a resumed run.
fn canonical(res: &Resolution, trace: &RunTrace) -> String {
    let mut out = String::new();
    out.push_str(&format!("digest {:016x}\n", res.graph_digest));
    let mut pairs: Vec<_> = res.matches.clone();
    pairs.sort_unstable();
    for (l, r) in pairs {
        out.push_str(&format!("match {} {}\n", l.index(), r.index()));
    }
    let c = &res.rule_counts;
    out.push_str(&format!(
        "rules {} {} {} {}\n",
        c.r1, c.r2, c.r3, c.removed_by_r4
    ));
    for (name, value) in &trace.counters {
        if !name.starts_with("ckpt/") {
            out.push_str(&format!("counter {name} {value}\n"));
        }
    }
    out
}

/// Runs the job-scoped checkpointed pipeline once over the scaled
/// restaurant dataset.
fn run(
    dir: &Path,
    workers: usize,
    scale: f64,
    resume: bool,
) -> Result<(Resolution, RunTrace), DataflowError> {
    let d = dataset(scale);
    let mut exec = Executor::new(workers);
    let mut spec = CheckpointSpec::new(dir);
    spec.resume = resume;
    Minoaner::new()
        .run_on(&mut exec, ResolveRequest::pair(&d.pair).rules(RuleSet::FULL).checkpoint(&spec))
        .map(|o| o.into_traced())
}

/// The cancellation safety invariant on disk: every `stage-*` directory
/// under the checkpoint root carries a committed MANIFEST, and no
/// `.tmp-` staging leftovers exist — a cancelled run never tears a
/// barrier.
fn assert_only_complete_barriers(ckpt_dir: &Path) {
    for entry in std::fs::read_dir(ckpt_dir).expect("read checkpoint root") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_owned();
        assert!(!name.starts_with(".tmp-"), "cancelled run left a torn staging dir: {name}");
        if name.starts_with("stage-") {
            assert!(path.join("MANIFEST").is_file(), "stage dir {name} has no committed manifest");
        }
    }
}

/// The core exchange shared by the seeded property and the exhaustive
/// sweep: cancel at `barrier`, check the on-disk invariant, resume,
/// compare against the uninterrupted baseline.
fn cancel_resume_roundtrip(barrier: usize, workers: usize, scale: f64, tag: &str) {
    let _guard = CANCEL_POINT.lock().unwrap_or_else(|p| p.into_inner());

    std::env::remove_var("MINOANER_CANCEL_POINT");
    let base_dir = scratch_dir(&format!("{tag}-base"));
    let (base_res, base_trace) =
        run(&base_dir, workers, scale, false).expect("uninterrupted run succeeds");
    let base = canonical(&base_res, &base_trace);

    let dir = scratch_dir(tag);
    std::env::set_var("MINOANER_CANCEL_POINT", format!("after:{barrier}"));
    let cancelled = run(&dir, workers, scale, false);
    std::env::remove_var("MINOANER_CANCEL_POINT");

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
            let (res, trace) = run(&dir, workers, scale, true).expect("resumed run succeeds");
            assert_eq!(
                trace.counter("ckpt/resumed_from"),
                barrier as u64 + 1,
                "resume must restart right past the cancelled barrier"
            );
            assert_eq!(canonical(&res, &trace), base, "resumed run diverged from baseline");
        }
        Ok((res, trace)) => {
            // A cancel landing after the final barrier commits is a clean
            // shutdown of an already-complete run: nothing left to cut.
            assert_eq!(
                barrier,
                BARRIERS - 1,
                "run completed despite a cancel at interruptible barrier {barrier}"
            );
            assert_eq!(canonical(&res, &trace), base, "cancelled-at-end run diverged");
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
