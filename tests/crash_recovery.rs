//! Crash-recovery harness: crash a checkpointed run before every durable
//! operation it makes, resume it, and assert the resumed run is
//! indistinguishable from an uninterrupted one.
//!
//! A crash is a disk that stops. The crashed run writes through
//! `support::crashing_disk(k, kind)`, a `FaultFs` on the real filesystem
//! whose op `k` fails and every op after it too, cleanup included, so the
//! disk keeps exactly what a SIGKILL before op `k` would leave. The resume
//! then runs on the real filesystem. A fault-free probe run's op trace
//! enumerates the ops and tells, for each `k`, where the resume must
//! restart: past one barrier per rename into the checkpoint root before
//! op `k`.
//!
//! Runs are compared with `support::canonical_with_counters`: graph
//! digest, sorted match set, rule counts and every non-`ckpt/` counter.

mod support;

use std::ops::Range;
use std::path::{Path, PathBuf};

use minoaner::dataflow::vfs::{self, FaultFs, FaultKind, FaultPlan, OpClass, OpRecord, VfsRef};
use minoaner::dataflow::{RunTrace, CHECKPOINT_SCHEMA_VERSION};
use minoaner::det::segment::{Kind, Segment};
use minoaner::datagen::{generate, profiles, GeneratedDataset};
use minoaner::{
    CheckpointSpec, DataflowError, KbPair, Minoaner, Resolution, ResolveRequest,
};
use support::{canonical_with_counters, crashing_disk, renames_before, scratch_dir, tmp_leaks};

fn dataset() -> GeneratedDataset {
    generate(&profiles::restaurant().scaled(0.3))
}

/// One checkpointed run of the full rule set over `pair` through `vfs`.
fn run(
    pair: &KbPair,
    dir: &Path,
    workers: usize,
    vfs: VfsRef,
    resume: bool,
) -> Result<(Resolution, RunTrace), DataflowError> {
    let spec = CheckpointSpec { resume, vfs, ..CheckpointSpec::new(dir) };
    Minoaner::new()
        .run(ResolveRequest::pair(pair).checkpoint(&spec).workers(workers))
        .map(support::split_outcome)
}

/// A healthy run on the real filesystem, resuming from whatever `dir`
/// holds (an empty directory is a fresh run).
fn resume(pair: &KbPair, dir: &Path, workers: usize) -> (Resolution, RunTrace) {
    run(pair, dir, workers, vfs::default_vfs(), true).expect("resumed run succeeds")
}

/// A fresh, fault-free run into a new directory: its canonical outcome
/// and its durable op trace.
fn probe(pair: &KbPair, workers: usize, tag: &str) -> (String, Vec<OpRecord>) {
    let dir = scratch_dir(tag);
    let probe = FaultFs::new(FaultPlan::none());
    let (res, trace) =
        run(pair, &dir, workers, probe.clone(), false).expect("fault-free probe run succeeds");
    (canonical_with_counters(&res, &trace), probe.ops())
}

/// The index of the first op of `class` on a path ending in `suffix`.
fn op_index(ops: &[OpRecord], class: OpClass, suffix: &str) -> u64 {
    ops.iter()
        .find(|op| op.class == class && op.path.ends_with(suffix))
        .unwrap_or_else(|| panic!("the probe has no {} on …/{suffix}", class.as_str()))
        .index
}

/// The tentpole sweep: a crash before every durable op `k` of the run,
/// `Eio` at workers 1, 2 and 8 and a torn write (`ShortWrite`) at 2, then
/// a resume. The resume restarts past exactly the barriers whose rename
/// landed, leaves no staging behind, and reproduces the uninterrupted run
/// bit for bit.
#[test]
fn crash_before_every_durable_op_then_resume_matches_uninterrupted() {
    let d = dataset();
    let sweeps = [(1, FaultKind::Eio), (2, FaultKind::Eio), (8, FaultKind::Eio), (2, FaultKind::ShortWrite)];
    for (workers, kind) in sweeps {
        let (base, ops) = probe(&d.pair, workers, &format!("probe-w{workers}"));
        let n_ops = ops.len() as u64;
        // The store's open, then per barrier the root's listing (the probe
        // for a schema-1 directory of the same name) and one `commit_file`:
        // write, fsync, rename, root fsync.
        assert_eq!(n_ops, 1 + 3 * (1 + 4), "a barrier is one listing and one committed file");
        for k in 0..=n_ops {
            let case = format!("crash before op {k} ({}, workers {workers})", kind.as_str());
            let dir = scratch_dir(&format!("sweep-w{workers}-{}-k{k}", kind.as_str()));
            let disk = crashing_disk(k, kind);
            let crashed = run(&d.pair, &dir, workers, disk.clone(), false);
            if k < n_ops {
                assert!(
                    matches!(crashed, Err(DataflowError::Checkpoint(_))),
                    "{case}: the run must stop with a checkpoint error, got {:?}",
                    crashed.map(|_| ())
                );
                assert_eq!(disk.fired().first().map(|op| op.index), Some(k), "{case}");
            } else {
                assert!(crashed.is_ok(), "{case}: a crash after the last op is a finished run");
            }

            let (res, trace) = resume(&d.pair, &dir, workers);
            assert_eq!(
                trace.counter("ckpt/resumed_from"),
                renames_before(&ops, k),
                "{case}: the resume must restart past every barrier whose rename landed"
            );
            assert_eq!(canonical_with_counters(&res, &trace), base, "{case}: the resumed run diverged");
            let leaks = tmp_leaks(&dir);
            assert!(leaks.is_empty(), "{case}: the resume left staging behind: {leaks:?}");
        }
    }
}

/// Deterministic across worker counts: the canonical outcome must be
/// byte-identical whether the pipeline ran on 1, 2 or 8 workers.
#[test]
fn baseline_is_identical_across_worker_counts() {
    let d = dataset();
    let outcome = |workers: usize| {
        let (res, trace) = resume(&d.pair, &scratch_dir(&format!("xw-{workers}")), workers);
        assert_eq!(trace.counter("ckpt/resumed_from"), 0, "a fresh directory resumes nothing");
        canonical_with_counters(&res, &trace)
    };
    let w1 = outcome(1);
    assert_eq!(w1, outcome(2), "workers 1 vs 2 diverged");
    assert_eq!(w1, outcome(8), "workers 1 vs 8 diverged");
}

/// A crash that tears the `graph` barrier's write (half its file staged
/// under the `.tmp-` name, no rename) leaves the `blocks` barrier
/// recoverable: the torn staging file is ignored, not mistaken for a
/// checkpoint.
#[test]
fn torn_write_resumes_from_previous_barrier() {
    let d = dataset();
    let workers = 2;
    let (base, ops) = probe(&d.pair, workers, "torn-probe");
    let k = op_index(&ops, OpClass::Write, ".tmp-stage-001-graph");

    let dir = scratch_dir("torn");
    let crashed = run(&d.pair, &dir, workers, crashing_disk(k, FaultKind::ShortWrite), false);
    assert!(crashed.is_err(), "a crash mid-commit must stop the run");
    assert!(dir.join(".tmp-stage-001-graph").is_file(), "the torn barrier stays staged");

    let (res, trace) = resume(&d.pair, &dir, workers);
    assert_eq!(trace.counter("ckpt/resumed_from"), 1, "a torn graph write falls back to the blocks barrier");
    assert_eq!(canonical_with_counters(&res, &trace), base, "recovery from torn write diverged");
}

/// The newest committed barrier file under `root`, and where its first
/// part lies in it.
fn newest_barrier_first_part(root: &Path) -> (PathBuf, Range<usize>) {
    let mut barriers: Vec<PathBuf> = std::fs::read_dir(root)
        .expect("read dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("stage-")))
        .collect();
    barriers.sort();
    let newest = barriers.pop().expect("at least one committed barrier");
    let bytes = std::fs::read(&newest).expect("read barrier");
    let segment = Segment::parse(&bytes, Kind::CHECKPOINT, CHECKPOINT_SCHEMA_VERSION).expect("an intact barrier");
    // Section 0 is the barrier's meta record; its parts follow.
    let part = segment.section(1).expect("the barrier has a part").range();
    (newest, part)
}

/// Checkpoints a fresh run, damages the first part of its newest barrier
/// with `damage` (given the file's bytes and the part's range), resumes,
/// and checks the damage is counted as rejected and survived with the
/// clean outcome.
fn damaged_part_is_detected_and_survived(tag: &str, damage: impl FnOnce(&mut Vec<u8>, Range<usize>)) {
    let d = dataset();
    let workers = 2;
    let (clean_res, clean_trace) = resume(&d.pair, &scratch_dir(&format!("{tag}-clean")), workers);
    let clean = canonical_with_counters(&clean_res, &clean_trace);

    let dir = scratch_dir(tag);
    resume(&d.pair, &dir, workers);
    let (victim, part) = newest_barrier_first_part(&dir);
    let mut bytes = std::fs::read(&victim).expect("read barrier");
    damage(&mut bytes, part);
    std::fs::write(&victim, bytes).expect("write damaged barrier");

    let (res, trace) = resume(&d.pair, &dir, workers);
    assert!(trace.counter("ckpt/rejected") >= 1, "{tag}: the damaged checkpoint must be counted as rejected");
    assert_eq!(canonical_with_counters(&res, &trace), clean, "{tag}: recovery diverged");
}

/// Bit-flip corruption in the newest checkpoint is detected by the
/// content hash; recovery falls back to an earlier good barrier (or a
/// fresh run) and still produces the uninterrupted outcome.
#[test]
fn bit_flip_corruption_is_detected_and_survived() {
    damaged_part_is_detected_and_survived("bitflip", |bytes, part| {
        let mid = part.start + part.len() / 2;
        bytes[mid] ^= 0x40;
    });
}

/// Truncating a barrier file inside a part (simulated torn disk write) is
/// likewise detected and survived.
#[test]
fn truncated_part_is_detected_and_survived() {
    damaged_part_is_detected_and_survived("trunc", |bytes, part| bytes.truncate(part.start + part.len() / 2));
}

/// A checkpointed run and a plain run agree on everything the
/// user can observe: checkpointing must never change the answer.
#[test]
fn checkpointed_run_matches_plain_run() {
    let workers = 2;
    let d = dataset();
    let (plain_res, plain_trace) = support::split_outcome(
        Minoaner::new().run(ResolveRequest::pair(&d.pair).workers(workers)).expect("plain run succeeds"),
    );
    let (ckpt_res, ckpt_trace) = resume(&d.pair, &scratch_dir("plain-vs-ckpt"), workers);
    assert_eq!(
        canonical_with_counters(&plain_res, &plain_trace),
        canonical_with_counters(&ckpt_res, &ckpt_trace),
        "checkpointing changed the observable outcome"
    );
}

/// Produces the CI artifact: crash a run right after barrier 1 commits,
/// resume it, and persist the recovered run's trace JSON under `target/`
/// for upload.
#[test]
fn recovered_trace_artifact_is_written() {
    let d = dataset();
    let workers = 2;
    let (_, ops) = probe(&d.pair, workers, "artifact-probe");
    let k = op_index(&ops, OpClass::Write, ".tmp-stage-002-matches");

    let dir = scratch_dir("artifact");
    let crashed = run(&d.pair, &dir, workers, crashing_disk(k, FaultKind::Eio), false);
    assert!(crashed.is_err(), "the crash must stop the run");

    let (res, trace) = resume(&d.pair, &dir, workers);
    assert_eq!(trace.counter("ckpt/resumed_from"), 2);
    assert!(!res.matches.is_empty(), "recovered run found no matches");

    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let path = PathBuf::from(target).join("crash_recovery_trace.json");
    std::fs::write(&path, trace.to_json()).expect("write trace artifact");
}
