//! Job-batch chaos harness: batches of jobs through [`minoaner::jobs::Batch`]
//! with seed-driven injected faults and cancellations, asserting the
//! batch layer's core promises:
//!
//! * each completed job's canonical outcome (weight digest, match set,
//!   rule counts, domain counters) is **bit-identical** to a solo run of
//!   the same dataset;
//! * a task fault fails its own job and never bleeds into a sibling job;
//! * a job cancelled mid-run leaves only complete, resumable barriers
//!   and resumes to the uninterrupted outcome, and so does one whose disk
//!   stops under it;
//! * no worker or watcher threads and no checkpoint directories leak.
//!
//! Cancels come from `support::CancelAfterBarrier` or `CANCEL` markers,
//! the crash from `support::crashing_disk`; outcomes are compared with
//! `support::canonical_with_counters`.

mod support;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use minoaner::dataflow::vfs::{FaultFs, FaultKind, FaultPlan, OpClass, RealFs, VfsRef};
use minoaner::dataflow::{CancelReason, RunTrace};
use minoaner::datagen::{generate, profiles, GeneratedDataset};
use minoaner::jobs::{control, Batch, JobContext, JobId, JobResult, JobSpec, JobState, JobStatus};
use minoaner::{
    CheckpointSpec, DataflowError, Executor, KbPair, Minoaner, Resolution, ResolveRequest,
};
use support::{
    assert_only_complete_barriers, canonical_with_counters, crashing_disk, renames_before,
    scratch_dir, uncommitted_barriers, CancelAfterBarrier,
};

/// Serializes the tests in this binary: two of them count the process's
/// threads, which only means something while no other test runs.
static SERIAL: Mutex<()> = Mutex::new(());

fn dataset(scale: f64) -> GeneratedDataset {
    generate(&profiles::restaurant().scaled(scale))
}

/// A checkpointed run of `req`, split into its resolution and trace.
fn checkpointed(req: ResolveRequest<'_>) -> Result<(Resolution, RunTrace), DataflowError> {
    Minoaner::new().run(req).map(support::split_outcome)
}

/// A job's checkpointed run, built the way `minoaner jobs run` builds it:
/// the job's workers and cancellation token on the request, its
/// checkpoints under `spec`.
fn resolve_job(ctx: &JobContext, pair: &KbPair, spec: &CheckpointSpec) -> Result<(Resolution, RunTrace), DataflowError> {
    checkpointed(
        ResolveRequest::pair(pair).checkpoint(spec).workers(ctx.workers()).cancel(ctx.cancel_token().clone()),
    )
}

/// A job's checkpoint directory: `job-<id>/ckpt` under the control root.
fn ckpt_dir(root: &Path, id: JobId) -> PathBuf {
    control::job_dir(root, id).join("ckpt")
}

/// A solo (un-batched) checkpointed run: the reference every batched job
/// of the same scale must match byte-for-byte.
fn solo_baseline(scale: f64, workers: usize, tag: &str) -> String {
    let dir = scratch_dir(tag);
    let d = dataset(scale);
    let spec = CheckpointSpec::new(&dir);
    let (res, trace) = checkpointed(ResolveRequest::pair(&d.pair).checkpoint(&spec).workers(workers))
        .expect("solo baseline run succeeds");
    canonical_with_counters(&res, &trace)
}

/// Per-job result sink: job ordinal → canonical blob.
type Results = RefCell<BTreeMap<u64, String>>;

/// Work closure for a full-pipeline job: resolves the scaled restaurant
/// dataset on the job's workers with per-job checkpoints under
/// `job-<id>/ckpt`, and records its canonical outcome in `results`.
/// With `cancel_after`, the job's own token is latched right after that
/// barrier commits.
fn pipeline_work(
    scale: f64,
    cancel_after: Option<usize>,
    results: &Results,
) -> impl FnOnce(&JobContext) -> JobResult + '_ {
    move |ctx| {
        let d = dataset(scale);
        let mut spec = CheckpointSpec::new(ctx.job_dir().join("ckpt"));
        if let Some(barrier) = cancel_after {
            spec.vfs = CancelAfterBarrier::new(&spec.dir, barrier, ctx.cancel_token().clone());
        }
        let (res, trace) = resolve_job(ctx, &d.pair, &spec)?;
        results.borrow_mut().insert(ctx.id().ordinal(), canonical_with_counters(&res, &trace));
        Ok(format!("{} matches", res.matches.len()))
    }
}

/// The status of `id` among a batch's final statuses.
fn status_of(statuses: &[JobStatus], id: JobId) -> &JobStatus {
    statuses.iter().find(|s| s.id == id).expect("every added job has a final status")
}

/// Tasks in a [`faulty_work`] stage.
const FAULTY_TASKS: usize = 24;

/// The task of a [`faulty_work`] job that panics, chosen by `seed`.
fn poisoned_task(seed: u64) -> usize {
    (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % FAULTY_TASKS
}

/// The error a [`faulty_work`] job must end with, as its status shows it.
fn faulty_error(seed: u64) -> String {
    let task = poisoned_task(seed);
    DataflowError::TaskPanicked {
        stage: "stress".into(),
        task,
        payload: format!("injected fault: task {task}"),
    }
    .to_string()
}

/// Work closure for a job that genuinely fails: one seed-chosen task of
/// its only stage panics, the stage fails fast, and the error propagates
/// out of the job.
fn faulty_work(seed: u64) -> impl FnOnce(&JobContext) -> JobResult {
    move |ctx| {
        let poisoned = poisoned_task(seed);
        let mut exec = Executor::new(ctx.workers());
        exec.set_cancel_token(ctx.cancel_token().clone());
        let out = exec.try_run_stage("stress", FAULTY_TASKS, |i| {
            assert!(i != poisoned, "injected fault: task {i}");
            (i as u64) * 7 + 1
        })?;
        Ok(format!("sum {}", out.iter().sum::<u64>()))
    }
}

/// Linux thread count for the current process (0 where unavailable, in
/// which case the leak assertions degrade to vacuous).
fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_owned))
        })
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Waits (bounded) for transient worker threads to finish exiting after
/// their handles were joined, then returns the settled count.
fn settled_thread_count(at_most: usize) -> usize {
    for _ in 0..200 {
        let now = live_threads();
        if now <= at_most {
            return now;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    live_threads()
}

/// Jobs run in a batch produce outcomes bit-identical to solo runs of
/// the same dataset.
#[test]
fn batched_jobs_match_solo_runs_bit_for_bit() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());

    let scales = [0.15f64, 0.2, 0.25];
    let baselines: Vec<String> = scales
        .iter()
        .enumerate()
        .map(|(i, &s)| solo_baseline(s, 2, &format!("solo-{i}")))
        .collect();

    let root = scratch_dir("batch-root");
    let results = Results::default();
    let mut batch = Batch::new(&root);

    // Two jobs per scale, on one and two workers.
    let mut expected: BTreeMap<JobId, usize> = BTreeMap::new();
    for workers in [1, 2] {
        for (i, &scale) in scales.iter().enumerate() {
            let spec = JobSpec { name: format!("pipeline-{scale}-{workers}"), workers, memory_bytes: 0 };
            let id = batch.add_job(spec, pipeline_work(scale, None, &results));
            expected.insert(id, i);
        }
    }

    let final_statuses = batch.run_jobs();
    assert_eq!(final_statuses.len(), expected.len());
    for status in &final_statuses {
        assert_eq!(status.state, JobState::Completed, "job {} failed: {:?}", status.id, status.error);
    }

    let results = results.borrow();
    for (id, scale_idx) in &expected {
        let blob = results.get(&id.ordinal()).expect("completed job recorded its outcome");
        assert_eq!(blob, &baselines[*scale_idx], "job {id} diverged from the solo run of its dataset");
    }
}

/// A task fault fails the job that owns it — with the precise
/// `TaskPanicked` error — and never corrupts the jobs after it or leaks
/// threads or scratch.
#[test]
fn injected_faults_stay_contained_to_their_job() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());

    let baseline = solo_baseline(0.2, 2, "faulty-solo");
    let threads_before = live_threads();
    let root = scratch_dir("faulty-root");
    let results = Results::default();
    let mut batch = Batch::new(&root);

    // Faulty and clean jobs interleaved.
    let mut faulty = Vec::new();
    let mut pipelines = Vec::new();
    for j in 0..4u64 {
        let seed = 0xA5A5 + j;
        let spec = JobSpec { name: format!("faulty-{j}"), workers: 1 + j as usize % 2, memory_bytes: 0 };
        faulty.push((batch.add_job(spec, faulty_work(seed)), seed));
        if j % 2 == 0 {
            let spec = JobSpec { name: format!("clean-pipeline-{j}"), workers: 2, memory_bytes: 0 };
            pipelines.push(batch.add_job(spec, pipeline_work(0.2, None, &results)));
        }
    }

    let statuses = batch.run_jobs();

    for &(id, seed) in &faulty {
        let status = status_of(&statuses, id);
        assert_eq!(status.state, JobState::Failed, "faulty job {id} must fail, not be absorbed");
        assert_eq!(status.error, Some(faulty_error(seed)), "faulty job {id}");
        assert_eq!(status.summary, None, "a failed job reports no result");
    }

    let results = results.borrow();
    for id in &pipelines {
        assert_eq!(status_of(&statuses, *id).state, JobState::Completed);
        let blob = results.get(&id.ordinal()).expect("pipeline job completed");
        assert_eq!(blob, &baseline, "sibling faults bled into clean pipeline job {id}");
    }

    // No directory leaks: one `job-<id>` dir per job, and a failed job
    // leaves nothing behind but its status snapshot.
    for (id, _) in &faulty {
        let mut left: Vec<String> = std::fs::read_dir(control::job_dir(&root, *id))
            .expect("read faulty job dir")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, ["status.json"], "faulty job {id} left scratch behind");
    }
    for id in &pipelines {
        assert_only_complete_barriers(&ckpt_dir(&root, *id));
    }

    // No worker or watcher leaks, failed stages included.
    let threads_after = settled_thread_count(threads_before);
    assert!(
        threads_after <= threads_before,
        "threads leaked: {threads_before} before, {threads_after} after"
    );
}

/// A deterministic mid-run cancel (latched right after barrier 0 commits)
/// surfaces as a cancelled job whose checkpoint dir holds only complete
/// barriers, and rerunning the job with `resume` — a fresh batch over the
/// same root, as `minoaner jobs run --resume` does — reproduces the
/// uninterrupted outcome bit-for-bit.
#[test]
fn cancelled_job_resumes_cleanly() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());

    let baseline = solo_baseline(0.2, 2, "cancel-solo");
    let root = scratch_dir("cancel-root");
    let results = Results::default();
    let mut batch = Batch::new(&root);

    let doomed = JobSpec { name: "doomed".into(), workers: 2, memory_bytes: 0 };
    let victim = batch.add_job(doomed, pipeline_work(0.2, Some(0), &results));
    let status = batch.run_jobs().remove(0);

    assert_eq!(status.state, JobState::Cancelled, "a cancel after barrier 0 must cancel the job");
    assert_eq!(status.cancel_reason, Some(CancelReason::User));
    assert!(results.borrow().is_empty(), "a cancelled job must not have recorded a completed outcome");

    assert_only_complete_barriers(&ckpt_dir(&root, victim));
    let persisted = control::read_status(&RealFs, &control::job_dir(&root, victim))
        .expect("cancelled status persisted to the control plane");
    assert_eq!(persisted.state, JobState::Cancelled);

    // The rerun is j0000 again, so it resumes from the victim's
    // checkpoints: past barrier 0, to the solo run's outcome.
    let mut rerun = Batch::new(&root);
    let resumed = rerun.add_job(JobSpec { name: "doomed".into(), workers: 2, memory_bytes: 0 }, |ctx| {
        let d = dataset(0.2);
        let spec = CheckpointSpec { resume: true, ..CheckpointSpec::new(ctx.job_dir().join("ckpt")) };
        let (res, trace) = resolve_job(ctx, &d.pair, &spec)?;
        assert_eq!(trace.counter("ckpt/resumed_from"), 1, "resume must restart right past the cancelled barrier");
        results.borrow_mut().insert(ctx.id().ordinal(), canonical_with_counters(&res, &trace));
        Ok(format!("{} matches", res.matches.len()))
    });
    assert_eq!(resumed, victim);
    let status = rerun.run_jobs().remove(0);
    assert_eq!(status.state, JobState::Completed, "resume failed: {:?}", status.error);
    let blob = results.borrow().get(&resumed.ordinal()).cloned().expect("resume recorded its outcome");
    assert_eq!(blob, baseline, "resumed job diverged from the uninterrupted solo run");
}

/// One checkpointed pipeline job in a batch whose control plane and
/// checkpoints share the disk `disk`: its final status and the batch's
/// count of failed status writes.
fn disk_bound_job(root: &Path, disk: VfsRef) -> (JobStatus, u64) {
    let mut batch = Batch::with_vfs(root, disk.clone());
    batch.add_job(JobSpec { name: "crash-victim".into(), workers: 2, memory_bytes: 0 }, |ctx| {
        let d = dataset(0.2);
        let spec = CheckpointSpec { vfs: disk, ..CheckpointSpec::new(ctx.job_dir().join("ckpt")) };
        let (res, _) = resolve_job(ctx, &d.pair, &spec)?;
        Ok(format!("{} matches", res.matches.len()))
    });
    let status = batch.run_jobs().remove(0);
    (status, batch.status_write_failures())
}

/// A hard crash (not a cooperative cancel) mid-job: the disk the batch's
/// control plane and the job's checkpoints share stops as barrier 2's
/// commit begins. The job dir keeps only committed barriers, its
/// `status.json` still says `running` — what a killed process leaves —
/// and resuming over it lands on the uninterrupted outcome.
#[test]
fn process_crash_mid_job_leaves_resumable_job_dir() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());

    let baseline = solo_baseline(0.2, 2, "crash-solo");

    // The same job on a recording disk says where barrier 2's commit
    // starts.
    let probe = FaultFs::new(FaultPlan::none());
    let (status, _) = disk_bound_job(&scratch_dir("crash-probe"), probe.clone());
    assert_eq!(status.state, JobState::Completed, "probe failed: {:?}", status.error);
    let k = probe
        .ops()
        .iter()
        .find(|op| op.class == OpClass::Write && op.path.ends_with(".tmp-stage-002-matches"))
        .expect("the probe commits barrier 2")
        .index;

    let root = scratch_dir("crash-root");
    let disk = crashing_disk(k, FaultKind::Eio);
    let (status, write_failures) = disk_bound_job(&root, disk.clone());
    assert_eq!(status.state, JobState::Failed, "the crash stops the job");
    assert!(write_failures >= 1, "the control plane stops with the disk");
    let job_dir = control::job_dir(&root, status.id);
    let on_disk = control::read_status(&RealFs, &job_dir).expect("the running status reached the disk");
    assert_eq!(on_disk.state, JobState::Running, "no status written after the crash reaches the disk");

    // The batch's `CANCEL` watcher reads through the same disk every poll,
    // so how many checkpoint ops precede op `k` depends on timing: the
    // barriers the crash left are read off this run's own op trace.
    let committed = renames_before(&disk.ops(), k);
    assert!(committed >= 1, "the job committed a barrier before its disk stopped");
    let job_dirs: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("read control root")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("job-")))
        .collect();
    assert_eq!(job_dirs, std::slice::from_ref(&job_dir), "the batch added exactly one job");
    let ckpt_dir = job_dir.join("ckpt");
    let torn = uncommitted_barriers(&ckpt_dir);
    assert!(torn.is_empty(), "the crash left barrier files that are not whole: {torn:?}");

    let d = dataset(0.2);
    let spec = CheckpointSpec { resume: true, ..CheckpointSpec::new(&ckpt_dir) };
    let (res, trace) = checkpointed(ResolveRequest::pair(&d.pair).checkpoint(&spec).workers(2))
        .expect("resume over the crashed job dir succeeds");
    assert_eq!(trace.counter("ckpt/resumed_from"), committed, "resume must pick up past the last committed barrier");
    assert_eq!(
        canonical_with_counters(&res, &trace),
        baseline,
        "crashed-then-resumed job diverged from the uninterrupted solo run"
    );
    assert_only_complete_barriers(&ckpt_dir);
}

/// A full chaos mix — pipelines, fault-riddled jobs, a user cancel racing
/// a running job, a marker dropped before its job starts — converges with
/// every survivor correct, every cancelled job resumable, and neither
/// threads nor checkpoint directories leaked.
#[test]
fn chaos_mix_converges_without_leaks() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());

    let baseline = solo_baseline(0.2, 2, "chaos-solo");
    let threads_before = live_threads();

    let root = scratch_dir("chaos-root");
    let results = Results::default();
    let mut batch = Batch::new(&root);

    let mut added = Vec::new();
    let mut pipeline_ids = Vec::new();
    let mut faulty = BTreeMap::new();
    for j in 0..3 {
        let spec = JobSpec { name: format!("chaos-pipeline-{j}"), workers: 2, memory_bytes: 0 };
        let id = batch.add_job(spec, pipeline_work(0.2, None, &results));
        added.push(id);
        pipeline_ids.push(id);
    }
    for j in 0..2u64 {
        let spec = JobSpec { name: format!("chaos-faulty-{j}"), workers: 1, memory_bytes: 0 };
        let id = batch.add_job(spec, faulty_work(77 + j));
        added.push(id);
        faulty.insert(id, 77 + j);
    }
    // A job whose marker lands before the batch runs: it never starts.
    let queued_victim = batch.add_job(
        JobSpec { name: "chaos-queued-victim".into(), workers: 2, memory_bytes: 0 },
        pipeline_work(0.2, None, &results),
    );
    added.push(queued_victim);
    assert!(control::request_cancel(&RealFs, &root, queued_victim, CancelReason::User).expect("marker"));

    // A cancel racing a pipeline job, dropped by another thread as soon as
    // the job is seen running: both outcomes are legal, and a cancelled
    // job must be resumable.
    let race_victim = pipeline_ids[2];
    let final_statuses = std::thread::scope(|s| {
        s.spawn(|| {
            let dir = control::job_dir(&root, race_victim);
            for _ in 0..10_000 {
                match control::read_status(&RealFs, &dir).map(|status| status.state) {
                    Ok(JobState::Queued) | Err(_) => std::thread::sleep(Duration::from_millis(1)),
                    Ok(_) => break,
                }
            }
            control::request_cancel(&RealFs, &root, race_victim, CancelReason::User).expect("race marker");
        });
        batch.run_jobs()
    });
    assert_eq!(final_statuses.len(), added.len());
    assert_eq!(status_of(&final_statuses, queued_victim).state, JobState::Cancelled);

    let results_now = results.borrow().clone();
    for status in &final_statuses {
        match status.state {
            JobState::Completed => {
                assert!(pipeline_ids.contains(&status.id), "job {} cannot complete", status.id);
                let blob = results_now.get(&status.id.ordinal()).expect("completed pipeline recorded");
                assert_eq!(blob, &baseline, "job {} diverged under chaos", status.id);
            }
            JobState::Cancelled => {
                assert_eq!(status.cancel_reason, Some(CancelReason::User));
                // Whatever barriers it reached are complete and resumable:
                // a direct resume must land on the uninterrupted outcome.
                let ckpt = ckpt_dir(&root, status.id);
                assert_only_complete_barriers(&ckpt);
                let d = dataset(0.2);
                let spec = CheckpointSpec { resume: true, ..CheckpointSpec::new(&ckpt) };
                let (res, trace) = checkpointed(ResolveRequest::pair(&d.pair).checkpoint(&spec).workers(2))
                    .expect("resume of cancelled chaos job succeeds");
                assert_eq!(
                    canonical_with_counters(&res, &trace),
                    baseline,
                    "cancelled job {} did not resume to the solo outcome",
                    status.id
                );
            }
            JobState::Failed => {
                let seed = faulty.get(&status.id).expect("only the faulty jobs may fail");
                assert_eq!(status.error, Some(faulty_error(*seed)), "job {}", status.id);
            }
            other => panic!("job {} ended in unexpected state {other}", status.id),
        }
    }

    // No checkpoint-dir leaks: the control root holds exactly one
    // `job-<id>` dir per job (plus nothing else), and no torn barrier
    // staging dirs anywhere beneath it.
    let mut top: Vec<String> = std::fs::read_dir(&root)
        .expect("read control root")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    top.sort();
    let mut want: Vec<String> = added.iter().map(|id| format!("job-{id}")).collect();
    want.sort();
    assert_eq!(top, want, "control root grew stray directories");
    for id in &added {
        assert_only_complete_barriers(&ckpt_dir(&root, *id));
    }

    // No leaks: executor workers are joined by their executors' drops and
    // the marker watchers by their scopes; the process settles back to its
    // pre-batch thread count.
    let threads_after = settled_thread_count(threads_before);
    assert!(
        threads_after <= threads_before,
        "threads leaked: {threads_before} before, {threads_after} after"
    );
}
