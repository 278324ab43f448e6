//! Crash-recovery harness: kill a checkpointed run at every stage
//! boundary, resume it, and assert the resumed run is indistinguishable
//! from an uninterrupted one.
//!
//! The harness is subprocess-driven. [`child_checkpointed_run`] is a
//! normal `#[test]` that does nothing unless `MINOANER_CRASH_CHILD=1`;
//! parent tests re-invoke the current test binary filtered to exactly
//! that test, arming a process-level crash point via
//! `MINOANER_CRASH_POINT` (`after:<k>` aborts right after barrier `k`
//! commits, `during:<stage>` aborts mid-write with parts staged but no
//! manifest committed). The child writes its result — graph digest,
//! match set, rule counts and domain counters — as a canonical text
//! blob the parent compares byte-for-byte.
//!
//! Only compiled with the `fault-inject` feature; CI's crash-recovery
//! job runs `cargo test --features fault-inject --test crash_recovery`.

#![cfg(feature = "fault-inject")]

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use minoaner::dataflow::RunTrace;
use minoaner::datagen::{generate, profiles, GeneratedDataset};
use minoaner::{CheckpointSpec, Executor, Minoaner, Resolution, ResolveRequest, RuleSet};

/// Number of pipeline barriers (`blocks`, `graph`, `matches`).
const BARRIERS: usize = 3;

fn dataset() -> GeneratedDataset {
    generate(&profiles::restaurant().scaled(0.3))
}

/// A scratch directory that is unique per test without consulting any
/// entropy source (pid + a process-local counter).
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "minoaner-crash-recovery-{}-{tag}-{n}",
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

/// The child half of the harness. Inert unless spawned by a parent test
/// below with `MINOANER_CRASH_CHILD=1`.
#[test]
fn child_checkpointed_run() {
    if std::env::var("MINOANER_CRASH_CHILD").as_deref() != Ok("1") {
        return;
    }
    let ckpt_dir = std::env::var("MINOANER_CKPT_DIR").expect("MINOANER_CKPT_DIR set");
    let workers: usize = std::env::var("MINOANER_WORKERS")
        .expect("MINOANER_WORKERS set")
        .parse()
        .expect("MINOANER_WORKERS is a number");
    let result_path = std::env::var("MINOANER_RESULT_PATH").expect("MINOANER_RESULT_PATH set");

    let d = dataset();
    let mut exec = Executor::new(workers);
    let mut spec = CheckpointSpec::new(ckpt_dir);
    spec.resume = true; // resuming an empty dir is a fresh run
    let (res, trace) = Minoaner::new()
        .run_on(
            &mut exec,
            ResolveRequest::pair(&d.pair).rules(RuleSet::FULL).checkpoint(&spec),
        )
        .expect("checkpointed run succeeds")
        .into_traced();

    // First line reports where the run resumed from (0 = fresh); the
    // rest is the canonical comparison blob.
    let body = format!(
        "resumed_from {}\n{}",
        trace.counter("ckpt/resumed_from"),
        canonical(&res, &trace)
    );
    std::fs::write(&result_path, body).expect("write child result");
}

struct ChildOutcome {
    status: std::process::ExitStatus,
    result: Option<String>,
}

/// Spawns the current test binary filtered to [`child_checkpointed_run`],
/// optionally arming a crash point. Returns the exit status and the
/// child's result blob (if it lived long enough to write one).
fn run_child(ckpt_dir: &Path, workers: usize, crash: Option<&str>, tag: &str) -> ChildOutcome {
    let result_path = scratch_dir(tag).join("result.txt");
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.args([
        "child_checkpointed_run",
        "--exact",
        "--nocapture",
        "--test-threads",
        "1",
    ])
    .env("MINOANER_CRASH_CHILD", "1")
    .env("MINOANER_CKPT_DIR", ckpt_dir)
    .env("MINOANER_WORKERS", workers.to_string())
    .env("MINOANER_RESULT_PATH", &result_path);
    match crash {
        Some(point) => cmd.env("MINOANER_CRASH_POINT", point),
        None => cmd.env_remove("MINOANER_CRASH_POINT"),
    };
    let status = cmd.status().expect("spawn child test binary");
    let result = std::fs::read_to_string(&result_path).ok();
    ChildOutcome { status, result }
}

/// Splits a child result blob into (resumed_from, canonical body).
fn split_result(blob: &str) -> (u64, &str) {
    let (first, rest) = blob.split_once('\n').expect("result has a header line");
    let resumed_from = first
        .strip_prefix("resumed_from ")
        .expect("header is resumed_from")
        .parse()
        .expect("resumed_from is a number");
    (resumed_from, rest)
}

/// Runs an uninterrupted checkpointed child and returns its canonical body.
fn baseline(workers: usize, tag: &str) -> String {
    let dir = scratch_dir(tag);
    let out = run_child(&dir, workers, None, tag);
    assert!(out.status.success(), "baseline child run failed");
    let blob = out.result.expect("baseline wrote a result");
    let (resumed_from, body) = split_result(&blob);
    assert_eq!(resumed_from, 0, "baseline must not resume from anything");
    body.to_string()
}

/// The tentpole assertion: for every barrier `k` and several worker
/// counts, a run killed right after barrier `k` commits and then resumed
/// produces exactly the digest, match set, rule counts and domain
/// counters of an uninterrupted run — and really did resume from `k+1`.
#[test]
fn kill_after_every_barrier_then_resume_matches_uninterrupted() {
    for &workers in &[1usize, 2, 8] {
        let base = baseline(workers, &format!("base-w{workers}"));
        for barrier in 0..BARRIERS {
            let tag = format!("after-{barrier}-w{workers}");
            let dir = scratch_dir(&tag);

            let crashed = run_child(&dir, workers, Some(&format!("after:{barrier}")), &tag);
            assert!(
                !crashed.status.success(),
                "crash point after:{barrier} must abort the child"
            );
            assert!(
                crashed.result.is_none(),
                "aborted child must not have produced a result"
            );

            let resumed = run_child(&dir, workers, None, &format!("{tag}-resume"));
            assert!(resumed.status.success(), "resumed child run failed");
            let blob = resumed.result.expect("resumed child wrote a result");
            let (resumed_from, body) = split_result(&blob);
            assert_eq!(
                resumed_from,
                barrier as u64 + 1,
                "resume after crash at barrier {barrier} must restart past it"
            );
            assert_eq!(
                body, base,
                "resumed run (workers={workers}, crash after:{barrier}) diverged"
            );
        }
    }
}

/// Deterministic across worker counts: the canonical outcome must be
/// byte-identical whether the pipeline ran on 1, 2 or 8 workers.
#[test]
fn baseline_is_identical_across_worker_counts() {
    let w1 = baseline(1, "xw-1");
    let w2 = baseline(2, "xw-2");
    let w8 = baseline(8, "xw-8");
    assert_eq!(w1, w2, "workers 1 vs 2 diverged");
    assert_eq!(w1, w8, "workers 1 vs 8 diverged");
}

/// A crash in the middle of writing a checkpoint (parts staged, manifest
/// never committed) must leave the previous barrier recoverable: the
/// torn stage directory is ignored, not mistaken for a checkpoint.
#[test]
fn torn_write_resumes_from_previous_barrier() {
    let workers = 2;
    let base = baseline(workers, "torn-base");
    let dir = scratch_dir("torn");

    let crashed = run_child(&dir, workers, Some("during:graph"), "torn-crash");
    assert!(
        !crashed.status.success(),
        "during:graph crash point must abort the child"
    );

    let resumed = run_child(&dir, workers, None, "torn-resume");
    assert!(resumed.status.success(), "resumed child run failed");
    let blob = resumed.result.expect("resumed child wrote a result");
    let (resumed_from, body) = split_result(&blob);
    assert_eq!(
        resumed_from, 1,
        "torn graph write must fall back to the blocks barrier"
    );
    assert_eq!(body, base, "recovery from torn write diverged");
}

/// Runs a checkpointed resolution in-process and returns its outcome.
fn run_in_process(dir: &Path, workers: usize, resume: bool) -> (Resolution, RunTrace) {
    assert!(
        std::env::var("MINOANER_CRASH_POINT").is_err(),
        "in-process runs must not have a crash point armed"
    );
    let d = dataset();
    let mut exec = Executor::new(workers);
    let mut spec = CheckpointSpec::new(dir);
    spec.resume = resume;
    Minoaner::new()
        .run_on(
            &mut exec,
            ResolveRequest::pair(&d.pair).rules(RuleSet::FULL).checkpoint(&spec),
        )
        .expect("checkpointed run succeeds")
        .into_traced()
}

/// Newest `stage-*` checkpoint directory under `root`.
fn newest_stage_dir(root: &Path) -> PathBuf {
    let mut stages: Vec<_> = std::fs::read_dir(root)
        .expect("read checkpoint root")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("stage-"))
        })
        .collect();
    stages.sort();
    stages.pop().expect("at least one committed stage")
}

/// Flips one bit in the first part file of the given stage directory.
fn corrupt_one_part(stage_dir: &Path) {
    let mut parts: Vec<_> = std::fs::read_dir(stage_dir)
        .expect("read stage dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("part-"))
        })
        .collect();
    parts.sort();
    let victim = parts.first().expect("stage has at least one part");
    let mut bytes = std::fs::read(victim).expect("read part");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(victim, bytes).expect("write corrupted part");
}

/// Bit-flip corruption in the newest checkpoint is detected by the
/// content hash; recovery falls back to an earlier good barrier (or a
/// fresh run) and still produces the uninterrupted outcome.
#[test]
fn bit_flip_corruption_is_detected_and_survived() {
    let workers = 2;
    let clean_dir = scratch_dir("bitflip-clean");
    let (clean_res, clean_trace) = run_in_process(&clean_dir, workers, false);
    let clean = canonical(&clean_res, &clean_trace);

    let dir = scratch_dir("bitflip");
    run_in_process(&dir, workers, false);
    let newest = newest_stage_dir(&dir);
    corrupt_one_part(&newest);

    let (res, trace) = run_in_process(&dir, workers, true);
    assert!(
        trace.counter("ckpt/rejected") >= 1,
        "corrupted checkpoint must be counted as rejected"
    );
    assert_eq!(
        canonical(&res, &trace),
        clean,
        "recovery after bit-flip corruption diverged"
    );
}

/// Truncating a part file (simulated torn disk write) is likewise
/// detected and survived.
#[test]
fn truncated_part_is_detected_and_survived() {
    let workers = 2;
    let clean_dir = scratch_dir("trunc-clean");
    let (clean_res, clean_trace) = run_in_process(&clean_dir, workers, false);
    let clean = canonical(&clean_res, &clean_trace);

    let dir = scratch_dir("trunc");
    run_in_process(&dir, workers, false);
    let newest = newest_stage_dir(&dir);
    let mut parts: Vec<_> = std::fs::read_dir(&newest)
        .expect("read stage dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("part-"))
        })
        .collect();
    parts.sort();
    let victim = parts.first().expect("stage has at least one part");
    let bytes = std::fs::read(victim).expect("read part");
    let keep = bytes.len() / 2;
    std::fs::write(victim, &bytes[..keep]).expect("truncate part");

    let (res, trace) = run_in_process(&dir, workers, true);
    assert!(
        trace.counter("ckpt/rejected") >= 1,
        "truncated checkpoint must be counted as rejected"
    );
    assert_eq!(
        canonical(&res, &trace),
        clean,
        "recovery after truncation diverged"
    );
}

/// A checkpointed run and a plain traced run agree on everything the
/// user can observe: checkpointing must never change the answer.
#[test]
fn checkpointed_run_matches_plain_run() {
    let workers = 2;
    let d = dataset();
    let mut exec = Executor::new(workers);
    let (plain_res, plain_trace) = Minoaner::new()
        .run_on(&mut exec, ResolveRequest::pair(&d.pair).rules(RuleSet::FULL).trace())
        .expect("plain run succeeds")
        .into_traced();

    let dir = scratch_dir("plain-vs-ckpt");
    let (ckpt_res, ckpt_trace) = run_in_process(&dir, workers, false);

    assert_eq!(
        canonical(&plain_res, &plain_trace),
        canonical(&ckpt_res, &ckpt_trace),
        "checkpointing changed the observable outcome"
    );
}

/// Produces the CI artifact: crash a run, resume it, and persist the
/// recovered run's trace JSON under `target/` for upload.
#[test]
fn recovered_trace_artifact_is_written() {
    let workers = 2;
    let dir = scratch_dir("artifact");
    let crashed = run_child(&dir, workers, Some("after:1"), "artifact-crash");
    assert!(!crashed.status.success(), "crash point must abort the child");

    let (res, trace) = run_in_process(&dir, workers, true);
    assert_eq!(trace.counter("ckpt/resumed_from"), 2);
    assert!(!res.matches.is_empty(), "recovered run found no matches");

    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let path = PathBuf::from(target).join("crash_recovery_trace.json");
    let json = trace.to_json();
    std::fs::write(&path, json).expect("write trace artifact");
}
