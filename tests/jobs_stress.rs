//! Multi-job chaos harness: N concurrent jobs through the
//! [`minoaner::jobs`] scheduler with seed-driven injected faults and
//! mid-run cancellations, asserting the orchestration layer's core
//! promises:
//!
//! * surviving jobs' canonical outcomes (weight digest, match set, rule
//!   counts, domain counters) are **bit-identical** to solo runs of the
//!   same dataset;
//! * a task fault fails its own job and never bleeds into a sibling job;
//! * a job cancelled mid-run leaves only complete, resumable barriers
//!   and resumes to the uninterrupted outcome;
//! * no worker threads and no checkpoint directories leak.
//!
//! Tests serialize on a process-wide lock: `MINOANER_CANCEL_POINT` is a
//! process-global environment variable, and thread-leak accounting needs
//! a quiet process. Only compiled with the `fault-inject` feature; CI's
//! jobs-stress job runs `cargo test --features fault-inject --test
//! jobs_stress`.

#![cfg(feature = "fault-inject")]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use minoaner::dataflow::{CancelReason, RunTrace};
use minoaner::datagen::{generate, profiles, GeneratedDataset};
use minoaner::jobs::{JobId, JobOutput, JobScheduler, JobSpec, JobState, Priority, ResourceBudget};
use minoaner::{
    CheckpointSpec, DataflowError, Executor, KbPair, Minoaner, Resolution, ResolveRequest, RuleSet,
};

/// Serializes the tests in this binary: one arms the process-global
/// `MINOANER_CANCEL_POINT`, and the leak test counts process threads.
static SERIAL: Mutex<()> = Mutex::new(());

fn dataset(scale: f64) -> GeneratedDataset {
    generate(&profiles::restaurant().scaled(scale))
}

/// A scratch directory that is unique per test without consulting any
/// entropy source (pid + a process-local counter).
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("minoaner-jobs-stress-{}-{tag}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Renders the observable outcome of a run as a canonical text blob.
/// `ckpt/*` counters are excluded: they are the only counters allowed to
/// differ between a solo and an orchestrated (or resumed) run.
fn canonical(res: &Resolution, trace: &RunTrace) -> String {
    let mut out = String::new();
    out.push_str(&format!("digest {:016x}\n", res.graph_digest));
    let mut pairs: Vec<_> = res.matches.clone();
    pairs.sort_unstable();
    for (l, r) in pairs {
        out.push_str(&format!("match {} {}\n", l.index(), r.index()));
    }
    let c = &res.rule_counts;
    out.push_str(&format!("rules {} {} {} {}\n", c.r1, c.r2, c.r3, c.removed_by_r4));
    for (name, value) in &trace.counters {
        if !name.starts_with("ckpt/") {
            out.push_str(&format!("counter {name} {value}\n"));
        }
    }
    out
}

/// The checkpointed-job spelling on the request API: cancellation and
/// deadline ride on the executor, the checkpoint spec on the request.
fn resolve_job(
    exec: &mut Executor,
    pair: &KbPair,
    spec: &CheckpointSpec,
) -> Result<(Resolution, RunTrace), DataflowError> {
    Minoaner::new()
        .run_on(exec, ResolveRequest::pair(pair).rules(RuleSet::FULL).checkpoint(spec))
        .map(|o| o.into_traced())
}

/// A solo (un-orchestrated) checkpointed run: the reference every
/// scheduler-driven job of the same scale must match byte-for-byte.
fn solo_baseline(scale: f64, workers: usize, tag: &str) -> String {
    let dir = scratch_dir(tag);
    let d = dataset(scale);
    let mut exec = Executor::new(workers);
    let spec = CheckpointSpec::new(&dir);
    let (res, trace) =
        resolve_job(&mut exec, &d.pair, &spec).expect("solo baseline run succeeds");
    canonical(&res, &trace)
}

/// Shared per-job result sink: job ordinal → canonical blob.
type Results = Arc<Mutex<BTreeMap<u64, String>>>;

/// Work closure for a full-pipeline job: resolves the scaled restaurant
/// dataset on the job's own executor with per-job checkpoints under
/// `root/job-<id>/ckpt`, and records its canonical outcome in `results`.
fn pipeline_work(
    scale: f64,
    root: PathBuf,
    resume: bool,
    results: Results,
) -> impl FnOnce(&minoaner::jobs::JobContext) -> Result<JobOutput, DataflowError> {
    move |ctx| {
        let d = dataset(scale);
        let mut exec = ctx.executor();
        let mut spec = CheckpointSpec::for_job(&root, &ctx.id().to_string());
        spec.resume = resume;
        let (res, trace) = resolve_job(&mut exec, &d.pair, &spec)?;
        let blob = canonical(&res, &trace);
        results.lock().expect("results lock").insert(ctx.id().ordinal(), blob);
        Ok(JobOutput::summary(format!("{} matches", res.matches.len())).with_trace(trace))
    }
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
fn faulty_work(
    seed: u64,
) -> impl FnOnce(&minoaner::jobs::JobContext) -> Result<JobOutput, DataflowError> {
    move |ctx| {
        let poisoned = poisoned_task(seed);
        let out = ctx.executor().try_run_stage("stress", FAULTY_TASKS, |i| {
            assert!(i != poisoned, "injected fault: task {i}");
            (i as u64) * 7 + 1
        })?;
        Ok(JobOutput::summary(format!("sum {}", out.iter().sum::<u64>())))
    }
}

/// Asserts a job checkpoint dir holds only fully committed barriers: no
/// `.tmp-` staging leftovers, every `stage-*` dir carries a MANIFEST.
fn assert_only_complete_barriers(ckpt_dir: &Path) {
    let Ok(entries) = std::fs::read_dir(ckpt_dir) else {
        return; // job never reached its first barrier — nothing to tear
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_owned();
        assert!(!name.starts_with(".tmp-"), "torn staging dir leaked: {name}");
        if name.starts_with("stage-") {
            assert!(path.join("MANIFEST").is_file(), "stage dir {name} missing its manifest");
        }
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

/// Tentpole assertion 1: jobs racing through the scheduler produce
/// outcomes bit-identical to solo runs of the same dataset.
#[test]
fn concurrent_jobs_match_solo_runs_bit_for_bit() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    std::env::remove_var("MINOANER_CANCEL_POINT");

    let scales = [0.15f64, 0.2, 0.25];
    let baselines: Vec<String> = scales
        .iter()
        .enumerate()
        .map(|(i, &s)| solo_baseline(s, 2, &format!("solo-{i}")))
        .collect();

    let root = scratch_dir("concurrent-root");
    let results: Results = Arc::new(Mutex::new(BTreeMap::new()));
    let sched = JobScheduler::with_control_root(
        ResourceBudget::new(6, u64::MAX).with_max_running(3),
        &root,
    );

    // Two jobs per scale, mixed priorities, all racing under the budget.
    let mut expected: BTreeMap<JobId, usize> = BTreeMap::new();
    for round in 0..2 {
        for (i, &scale) in scales.iter().enumerate() {
            let prio = [Priority::Low, Priority::Normal, Priority::High][(round + i) % 3];
            let spec = JobSpec::new(format!("pipeline-{scale}-{round}"))
                .with_priority(prio)
                .with_workers(2);
            let id = sched
                .submit(spec, pipeline_work(scale, root.clone(), false, results.clone()))
                .expect("submission admitted");
            expected.insert(id, i);
        }
    }

    let final_statuses = sched.wait_all();
    assert_eq!(final_statuses.len(), expected.len());
    for status in &final_statuses {
        assert_eq!(status.state, JobState::Completed, "job {} failed: {:?}", status.id, status.error);
    }

    let results = results.lock().expect("results lock");
    for (id, scale_idx) in &expected {
        let blob = results.get(&id.ordinal()).expect("completed job recorded its outcome");
        assert_eq!(
            blob, &baselines[*scale_idx],
            "job {id} diverged from the solo run of its dataset"
        );
    }
}

/// Tentpole assertion 2: a task fault fails the job that owns it — with
/// the precise `TaskPanicked` error — and never corrupts its siblings or
/// leaks threads or scratch.
#[test]
fn injected_faults_stay_contained_to_their_job() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    std::env::remove_var("MINOANER_CANCEL_POINT");

    let baseline = solo_baseline(0.2, 2, "faulty-solo");
    let threads_before = live_threads();
    let root = scratch_dir("faulty-root");
    let results: Results = Arc::new(Mutex::new(BTreeMap::new()));
    let sched =
        JobScheduler::with_control_root(ResourceBudget::new(6, u64::MAX).with_max_running(3), &root);

    // Faulty and clean jobs interleaved, all racing under the budget.
    let mut faulty = Vec::new();
    let mut pipelines = Vec::new();
    for j in 0..4u64 {
        let seed = 0xA5A5 + j;
        let id = sched
            .submit(JobSpec::new(format!("faulty-{j}")).with_workers(1 + j as usize % 2), faulty_work(seed))
            .expect("faulty job admitted");
        faulty.push((id, seed));
        if j % 2 == 0 {
            let id = sched
                .submit(
                    JobSpec::new(format!("clean-pipeline-{j}")).with_workers(2).with_priority(Priority::High),
                    pipeline_work(0.2, root.clone(), false, results.clone()),
                )
                .expect("pipeline job admitted");
            pipelines.push(id);
        }
    }

    sched.wait_all();

    for &(id, seed) in &faulty {
        let status = sched.status(id).expect("faulty job status");
        assert_eq!(status.state, JobState::Failed, "faulty job {id} must fail, not be absorbed");
        assert_eq!(status.error, Some(faulty_error(seed)), "faulty job {id}");
        assert_eq!(status.summary, None, "a failed job reports no result");
    }

    let results = results.lock().expect("results lock");
    for id in &pipelines {
        assert_eq!(sched.status(*id).expect("pipeline status").state, JobState::Completed);
        let blob = results.get(&id.ordinal()).expect("pipeline job completed");
        assert_eq!(blob, &baseline, "sibling faults bled into clean pipeline job {id}");
    }

    // No directory leaks: one `job-<id>` dir per submission, and a failed
    // job leaves nothing behind but its status snapshot.
    for (id, _) in &faulty {
        let mut left: Vec<String> = std::fs::read_dir(minoaner::jobs::control::job_dir(&root, *id))
            .expect("read faulty job dir")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, ["status.json"], "faulty job {id} left scratch behind");
    }
    for id in &pipelines {
        assert_only_complete_barriers(CheckpointSpec::for_job(&root, &id.to_string()).dir());
    }

    // No worker leaks, failed stages included.
    drop(sched);
    let threads_after = settled_thread_count(threads_before);
    assert!(
        threads_after <= threads_before,
        "worker threads leaked: {threads_before} before, {threads_after} after"
    );
}

/// Tentpole assertion 3: a deterministic mid-run cancel (latched right
/// after barrier 0 commits) surfaces as a cancelled job whose checkpoint
/// dir holds only complete barriers, and a resume submitted afterwards
/// reproduces the uninterrupted outcome bit-for-bit.
#[test]
fn cancelled_job_resumes_cleanly() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());

    let baseline = solo_baseline(0.2, 2, "cancel-solo");
    let root = scratch_dir("cancel-root");
    let results: Results = Arc::new(Mutex::new(BTreeMap::new()));
    let sched =
        JobScheduler::with_control_root(ResourceBudget::new(4, u64::MAX).with_max_running(1), &root);

    std::env::set_var("MINOANER_CANCEL_POINT", "after:0");
    let victim = sched
        .submit(
            JobSpec::new("doomed").with_workers(2),
            pipeline_work(0.2, root.clone(), false, results.clone()),
        )
        .expect("victim admitted");
    let status = sched.wait(victim).expect("victim reaches a terminal state");
    std::env::remove_var("MINOANER_CANCEL_POINT");

    assert_eq!(status.state, JobState::Cancelled, "armed cancel point must cancel the job");
    assert_eq!(status.cancel_reason, Some(CancelReason::User));
    assert!(
        results.lock().expect("results lock").is_empty(),
        "a cancelled job must not have recorded a completed outcome"
    );

    let ckpt = CheckpointSpec::for_job(&root, &victim.to_string());
    assert_only_complete_barriers(ckpt.dir());
    let persisted =
        minoaner::jobs::control::read_status(&minoaner::jobs::control::job_dir(&root, victim))
            .expect("cancelled status persisted to the control plane");
    assert_eq!(persisted.state, JobState::Cancelled);

    // Resume through the scheduler: a fresh job pointed at the victim's
    // checkpoint dir picks up past barrier 0 and matches the solo run.
    let resumed_results: Results = Arc::new(Mutex::new(BTreeMap::new()));
    let results_clone = resumed_results.clone();
    let ckpt_dir = ckpt.dir().to_path_buf();
    let resumed = sched
        .submit(JobSpec::new("resume-of-doomed").with_workers(2), move |ctx| {
            let d = dataset(0.2);
            let mut exec = ctx.executor();
            let mut spec = CheckpointSpec::new(&ckpt_dir);
            spec.resume = true;
            let (res, trace) = resolve_job(&mut exec, &d.pair, &spec)?;
            assert_eq!(
                trace.counter("ckpt/resumed_from"),
                1,
                "resume must restart right past the cancelled barrier"
            );
            let blob = canonical(&res, &trace);
            results_clone.lock().expect("results lock").insert(ctx.id().ordinal(), blob);
            Ok(JobOutput::summary(format!("{} matches", res.matches.len())))
        })
        .expect("resume job admitted");
    let status = sched.wait(resumed).expect("resume reaches a terminal state");
    assert_eq!(status.state, JobState::Completed, "resume failed: {:?}", status.error);

    let resumed_results = resumed_results.lock().expect("results lock");
    let blob = resumed_results.get(&resumed.ordinal()).expect("resume recorded its outcome");
    assert_eq!(blob, &baseline, "resumed job diverged from the uninterrupted solo run");
}

/// The child half of the process-crash harness below. Inert unless
/// spawned with `MINOANER_JOBS_CRASH_CHILD=1`: runs one checkpointed
/// pipeline job through the scheduler while the parent has armed
/// `MINOANER_CRASH_POINT`, which aborts this whole process right after
/// the chosen barrier commits.
#[test]
fn child_scheduler_run() {
    if std::env::var("MINOANER_JOBS_CRASH_CHILD").as_deref() != Ok("1") {
        return;
    }
    let root = PathBuf::from(std::env::var("MINOANER_JOBS_ROOT").expect("MINOANER_JOBS_ROOT set"));
    let results: Results = Arc::new(Mutex::new(BTreeMap::new()));
    let sched =
        JobScheduler::with_control_root(ResourceBudget::new(4, u64::MAX).with_max_running(1), &root);
    let id = sched
        .submit(
            JobSpec::new("crash-victim").with_workers(2),
            pipeline_work(0.2, root.clone(), false, results),
        )
        .expect("crash victim admitted");
    // Never returns when the crash point is armed: the abort happens on
    // the job's worker thread and takes the process with it.
    sched.wait(id);
}

/// Tentpole assertion: a hard process crash (not a cooperative cancel)
/// mid-job — the `MINOANER_CRASH_POINT` abort from the crash-recovery
/// harness, fired inside a scheduler-owned job — still leaves the
/// per-job checkpoint dir fully committed, and resuming over it lands
/// on the uninterrupted outcome.
#[test]
fn process_crash_mid_job_leaves_resumable_job_dir() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    std::env::remove_var("MINOANER_CANCEL_POINT");

    let baseline = solo_baseline(0.2, 2, "crash-solo");
    let root = scratch_dir("crash-root");

    let exe = std::env::current_exe().expect("current_exe");
    let status = Command::new(exe)
        .args(["child_scheduler_run", "--exact", "--nocapture", "--test-threads", "1"])
        .env("MINOANER_JOBS_CRASH_CHILD", "1")
        .env("MINOANER_JOBS_ROOT", &root)
        .env("MINOANER_CRASH_POINT", "after:1")
        .env_remove("MINOANER_CANCEL_POINT")
        .status()
        .expect("spawn child test binary");
    assert!(!status.success(), "armed crash point must abort the child process");

    // The first job a fresh scheduler mints is ordinal 0; its dir must
    // hold exactly barriers 0 and 1, both fully committed.
    let job_dirs: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("read control root")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("job-")))
        .collect();
    assert_eq!(job_dirs.len(), 1, "child submitted exactly one job");
    let ckpt_dir = job_dirs[0].join("ckpt");
    assert_only_complete_barriers(&ckpt_dir);

    let d = dataset(0.2);
    let mut exec = Executor::new(2);
    let mut spec = CheckpointSpec::new(&ckpt_dir);
    spec.resume = true;
    let (res, trace) =
        resolve_job(&mut exec, &d.pair, &spec).expect("resume over the crashed job dir succeeds");
    assert_eq!(trace.counter("ckpt/resumed_from"), 2, "resume must pick up past barrier 1");
    assert_eq!(
        canonical(&res, &trace),
        baseline,
        "crashed-then-resumed job diverged from the uninterrupted solo run"
    );
}

/// Tentpole assertion 4: a full chaos mix — pipelines, fault-riddled
/// jobs, racing user cancels, a queued cancel — converges with every
/// survivor correct, every cancelled job resumable, and neither worker
/// threads nor checkpoint directories leaked.
#[test]
fn chaos_mix_converges_without_leaks() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    std::env::remove_var("MINOANER_CANCEL_POINT");

    let baseline = solo_baseline(0.2, 2, "chaos-solo");
    let threads_before = live_threads();

    let root = scratch_dir("chaos-root");
    let results: Results = Arc::new(Mutex::new(BTreeMap::new()));
    let sched =
        JobScheduler::with_control_root(ResourceBudget::new(4, u64::MAX).with_max_running(2), &root);

    let mut submitted = Vec::new();
    let mut pipeline_ids = Vec::new();
    let mut faulty = BTreeMap::new();
    for j in 0..3 {
        let id = sched
            .submit(
                JobSpec::new(format!("chaos-pipeline-{j}")).with_workers(2),
                pipeline_work(0.2, root.clone(), false, results.clone()),
            )
            .expect("pipeline admitted");
        submitted.push(id);
        pipeline_ids.push(id);
    }
    for j in 0..2u64 {
        let id = sched
            .submit(JobSpec::new(format!("chaos-faulty-{j}")).with_workers(1), faulty_work(77 + j))
            .expect("faulty admitted");
        submitted.push(id);
        faulty.insert(id, 77 + j);
    }
    // A job cancelled while (most likely) still queued: max_running=2
    // and five submissions ahead of it keep the queue busy.
    let queued_victim = sched
        .submit(
            JobSpec::new("chaos-queued-victim").with_workers(2).with_priority(Priority::Low),
            pipeline_work(0.2, root.clone(), false, results.clone()),
        )
        .expect("queued victim admitted");
    submitted.push(queued_victim);
    sched.cancel(queued_victim, CancelReason::User);

    // Racing cancel against a (possibly already finished) pipeline job:
    // both outcomes are legal; a cancelled one must be resumable.
    let race_victim = pipeline_ids[2];
    sched.cancel(race_victim, CancelReason::User);

    let final_statuses = sched.wait_all();
    assert_eq!(final_statuses.len(), submitted.len());

    let results_now: BTreeMap<u64, String> = results.lock().expect("results lock").clone();
    for status in &final_statuses {
        match status.state {
            JobState::Completed => {
                if pipeline_ids.contains(&status.id) || status.id == queued_victim {
                    let blob =
                        results_now.get(&status.id.ordinal()).expect("completed pipeline recorded");
                    assert_eq!(blob, &baseline, "job {} diverged under chaos", status.id);
                }
            }
            JobState::Cancelled => {
                assert_eq!(status.cancel_reason, Some(CancelReason::User));
                // Whatever barriers it reached are complete and resumable:
                // a direct resume must land on the uninterrupted outcome.
                let ckpt = CheckpointSpec::for_job(&root, &status.id.to_string());
                assert_only_complete_barriers(ckpt.dir());
                let d = dataset(0.2);
                let mut exec = Executor::new(2);
                let mut spec = CheckpointSpec::new(ckpt.dir());
                spec.resume = true;
                let (res, trace) = resolve_job(&mut exec, &d.pair, &spec)
                    .expect("resume of cancelled chaos job succeeds");
                assert_eq!(
                    canonical(&res, &trace),
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
    // `job-<id>` dir per submission (plus nothing else), and no torn
    // barrier staging dirs anywhere beneath it.
    let mut top: Vec<String> = std::fs::read_dir(&root)
        .expect("read control root")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    top.sort();
    let mut want: Vec<String> = submitted.iter().map(|id| format!("job-{id}")).collect();
    want.sort();
    assert_eq!(top, want, "control root grew stray directories");
    for id in &submitted {
        assert_only_complete_barriers(CheckpointSpec::for_job(&root, &id.to_string()).dir());
    }

    // No worker leaks: job threads are joined by wait_all, executor
    // workers by their executors' drops; the process settles back to its
    // pre-scheduler thread count.
    drop(sched);
    let threads_after = settled_thread_count(threads_before);
    assert!(
        threads_after <= threads_before,
        "worker threads leaked: {threads_before} before, {threads_after} after"
    );
}
