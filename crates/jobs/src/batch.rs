//! The batch runner behind `minoaner jobs run`: jobs run one at a time,
//! in the order they were added, on the caller's thread.
//!
//! Each job gets its own [`JobContext`] — worker count, memory grant and
//! [`CancelToken`] — and its own directory under the control root, where
//! every transition is mirrored as `status.json`. While a job runs, a
//! scoped watcher thread polls the job's `CANCEL` marker and latches the
//! token; the job observes it at its next safe point (stage barrier,
//! partition loop, checkpoint barrier) and unwinds with
//! [`DataflowError::Cancelled`], which maps to [`JobState::Cancelled`].
//! Any other error, or a panic in job work, maps to [`JobState::Failed`];
//! it never takes the batch down.

use std::error::Error;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use minoaner_dataflow::vfs::{self, VfsRef};
use minoaner_dataflow::{CancelToken, DataflowError};

use crate::control;
use crate::job::{JobContext, JobId, JobSpec, JobState, JobStatus};

/// What a job's work ends with: its one-line summary, or why it stopped.
pub type JobResult = Result<String, Box<dyn Error>>;

type JobWork<'a> = Box<dyn FnOnce(&JobContext) -> JobResult + 'a>;

/// How often a running job's `CANCEL` marker is polled.
const MARKER_POLL: Duration = Duration::from_millis(25);

/// Jobs waiting for [`Batch::run_jobs`], in the order they were added,
/// plus the control root their statuses are mirrored under.
pub struct Batch<'a> {
    root: PathBuf,
    /// The filesystem the control plane goes through — `RealFs` in
    /// production, a `FaultFs` under the chaos tests.
    vfs: VfsRef,
    next_ordinal: u64,
    queued: Vec<(JobId, JobSpec, JobWork<'a>)>,
    /// Status writes that failed. A control-plane write never fails its
    /// job; it is counted here instead, so a silent control plane can be
    /// told from a healthy one.
    status_write_failures: u64,
}

impl<'a> Batch<'a> {
    /// An empty batch mirroring its jobs under `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self::with_vfs(root, vfs::default_vfs())
    }

    /// [`new`](Self::new) over an explicit [`Vfs`](minoaner_dataflow::vfs::Vfs).
    pub fn with_vfs(root: impl Into<PathBuf>, vfs: VfsRef) -> Self {
        Self { root: root.into(), vfs, next_ordinal: 0, queued: Vec::new(), status_write_failures: 0 }
    }

    /// Queues a job and writes its `Queued` status. Ids are j0000, j0001, …
    /// in call order. A `CANCEL` marker left in the job's directory by an
    /// earlier run of the same id is removed: it was meant for that run.
    ///
    /// `work` runs with the job's [`JobContext`] and returns its one-line
    /// summary. A [`DataflowError::Cancelled`] finishes the job as
    /// [`JobState::Cancelled`]; any other error, or a panic, as
    /// [`JobState::Failed`] with the error's text. A spec asking for no
    /// workers runs on one.
    pub fn add_job(&mut self, spec: JobSpec, work: impl FnOnce(&JobContext) -> JobResult + 'a) -> JobId {
        let spec = JobSpec { workers: spec.workers.max(1), ..spec };
        let id = JobId::from_ordinal(self.next_ordinal);
        self.next_ordinal += 1;
        let _ = self.vfs.remove_file(&control::job_dir(&self.root, id).join("CANCEL"));
        let status = JobStatus {
            id,
            name: spec.name.clone(),
            workers: spec.workers,
            memory_bytes: spec.memory_bytes,
            state: JobState::Queued,
            cancel_reason: None,
            error: None,
            summary: None,
        };
        self.persist(&status);
        self.queued.push((id, spec, Box::new(work)));
        id
    }

    /// How many status writes have failed so far.
    pub fn status_write_failures(&self) -> u64 {
        self.status_write_failures
    }

    /// Runs every queued job to a terminal state, one at a time in the
    /// order they were added, and returns their final statuses in that
    /// order.
    pub fn run_jobs(&mut self) -> Vec<JobStatus> {
        std::mem::take(&mut self.queued)
            .into_iter()
            .map(|(id, spec, work)| self.run_one(id, spec, work))
            .collect()
    }

    fn run_one(&mut self, id: JobId, spec: JobSpec, work: JobWork<'a>) -> JobStatus {
        let ctx = JobContext {
            id,
            workers: spec.workers,
            cancel: CancelToken::new(),
            job_dir: control::job_dir(&self.root, id),
            memory_bytes: spec.memory_bytes,
        };
        let mut status = JobStatus {
            id,
            name: spec.name,
            workers: ctx.workers,
            memory_bytes: ctx.memory_bytes,
            state: JobState::Running,
            cancel_reason: None,
            error: None,
            summary: None,
        };
        if let Some(reason) = control::cancel_request(&*self.vfs, &ctx.job_dir) {
            CancelToken::cancel(&ctx.cancel, reason);
            status.state = JobState::Cancelled;
            status.error = Some(format!("cancelled ({reason}) before start"));
        } else {
            self.persist(&status);
            match self.watched(&ctx, work) {
                Ok(summary) => {
                    status.state = JobState::Completed;
                    status.summary = Some(summary);
                }
                Err(e) => {
                    let cancelled = e.downcast_ref::<DataflowError>().and_then(DataflowError::cancel_reason);
                    status.state = match cancelled {
                        // Latch the token too, in case the work cancelled
                        // itself without going through it.
                        Some(reason) => {
                            CancelToken::cancel(&ctx.cancel, reason);
                            JobState::Cancelled
                        }
                        None => JobState::Failed,
                    };
                    status.error = Some(e.to_string());
                }
            }
        }
        status.cancel_reason = ctx.cancel.reason();
        self.persist(&status);
        status
    }

    /// Runs `work` on this thread while a scoped watcher polls the job's
    /// `CANCEL` marker and latches its token when one appears.
    fn watched(&self, ctx: &JobContext, work: JobWork<'a>) -> JobResult {
        let (done, finished) = mpsc::channel::<()>();
        let vfs = &*self.vfs;
        thread::scope(|s| {
            s.spawn(move || {
                while let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(MARKER_POLL) {
                    if let Some(reason) = control::cancel_request(vfs, &ctx.job_dir) {
                        CancelToken::cancel(&ctx.cancel, reason);
                        return;
                    }
                }
            });
            let result = catch_unwind(AssertUnwindSafe(|| work(ctx)))
                .unwrap_or_else(|payload| Err(DataflowError::from_panic(payload).into()));
            drop(done);
            result
        })
    }

    /// Best-effort status persistence: a failed write is counted, never
    /// propagated.
    fn persist(&mut self, status: &JobStatus) {
        if control::write_status(&*self.vfs, &self.root, status).is_err() {
            self.status_write_failures += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::path::Path;

    use minoaner_dataflow::vfs::{FaultFs, FaultKind, FaultPlan, RealFs};
    use minoaner_dataflow::CancelReason;

    fn scratch(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("minoaner-batch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn spec(name: &str, workers: usize) -> JobSpec {
        JobSpec { name: name.into(), workers, memory_bytes: 0 }
    }

    fn on_disk(root: &Path, id: JobId) -> JobStatus {
        control::read_status(&RealFs, &control::job_dir(root, id)).expect("status file")
    }

    /// Work that spins until its token is latched, then unwinds the way a
    /// pipeline does at a barrier.
    fn until_cancelled(ctx: &JobContext) -> JobResult {
        for _ in 0..100_000 {
            if let Some(reason) = ctx.cancel_token().reason() {
                let stage = "barrier:graph".to_owned();
                return Err(DataflowError::Cancelled { stage, reason, completed: 2, tasks: 2 }.into());
            }
            thread::sleep(Duration::from_millis(1));
        }
        Ok("uncancelled".into())
    }

    #[test]
    fn single_job_completes() {
        let root = scratch("single");
        let mut batch = Batch::new(&root);
        let id = batch.add_job(spec("unit", 2), |ctx: &JobContext| {
            assert_eq!(ctx.workers(), 2);
            Ok("41 matches".into())
        });
        let statuses = batch.run_jobs();
        assert_eq!(statuses.len(), 1);
        let status = &statuses[0];
        assert_eq!((status.id, status.state), (id, JobState::Completed));
        assert_eq!(status.summary.as_deref(), Some("41 matches"));
        assert_eq!((status.error.as_deref(), status.cancel_reason), (None, None));
        assert_eq!(batch.status_write_failures(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_job_asking_for_no_workers_runs_on_one() {
        let root = scratch("no-workers");
        let mut batch = Batch::new(&root);
        let id = batch.add_job(spec("idle", 0), |ctx| {
            assert_eq!(ctx.workers(), 1);
            Ok("ok".into())
        });
        assert_eq!(on_disk(&root, id).workers, 1, "queued status");
        let status = batch.run_jobs().remove(0);
        assert_eq!((status.state, status.workers), (JobState::Completed, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn jobs_run_in_add_order() {
        let root = scratch("order");
        let log = RefCell::new(Vec::new());
        let mut batch = Batch::new(&root);
        for name in ["c", "a", "b"] {
            let log = &log;
            batch.add_job(spec(name, 1), move |ctx| {
                log.borrow_mut().push((name, ctx.id().ordinal()));
                Ok(name.into())
            });
        }
        let statuses = batch.run_jobs();
        assert_eq!(*log.borrow(), [("c", 0), ("a", 1), ("b", 2)]);
        let ids: Vec<u64> = statuses.iter().map(|s| s.id.ordinal()).collect();
        assert_eq!(ids, [0, 1, 2]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_marker_written_before_run_means_the_job_never_runs() {
        let root = scratch("marker-before");
        let ran = RefCell::new(false);
        let mut batch = Batch::new(&root);
        // A marker from an earlier run of j0000 is removed by `add_job` …
        let dir = control::job_dir(&root, JobId::from_ordinal(0));
        std::fs::create_dir_all(&dir).expect("job dir");
        std::fs::write(dir.join("CANCEL"), "user").expect("stale marker");
        let kept = batch.add_job(spec("kept", 1), |_| Ok("ok".into()));
        // … one written after it is honoured at the job's start.
        let victim = batch.add_job(spec("victim", 1), |_| {
            *ran.borrow_mut() = true;
            Ok("should not happen".into())
        });
        assert!(control::request_cancel(&RealFs, &root, victim, CancelReason::User).expect("marker"));
        let statuses = batch.run_jobs();
        assert_eq!(statuses[0].state, JobState::Completed, "{:?}", statuses[0]);
        assert_eq!(statuses[1].state, JobState::Cancelled);
        assert_eq!(statuses[1].cancel_reason, Some(CancelReason::User));
        assert!(!*ran.borrow(), "a cancelled job must not run");
        assert_eq!(on_disk(&root, kept).state, JobState::Completed);
        assert_eq!(on_disk(&root, victim), statuses[1]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_marker_during_the_run_is_a_cooperative_user_cancel() {
        let root = scratch("marker-during");
        let mut batch = Batch::new(&root);
        let id = batch.add_job(spec("watched", 1), |ctx| {
            let root = ctx.job_dir().parent().expect("control root");
            assert!(control::request_cancel(&RealFs, root, ctx.id(), CancelReason::User).expect("marker"));
            until_cancelled(ctx)
        });
        let status = batch.run_jobs().remove(0);
        assert_eq!(status.state, JobState::Cancelled);
        assert_eq!(status.cancel_reason, Some(CancelReason::User));
        assert!(status.error.expect("message").contains("barrier:graph"));
        assert_eq!(on_disk(&root, id).state, JobState::Cancelled);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_panic_or_an_error_fails_only_its_own_job() {
        let root = scratch("panic");
        let mut batch = Batch::new(&root);
        batch.add_job(spec("panics", 1), |_| panic!("partition exploded"));
        batch.add_job(spec("errs", 1), |_| Err("cannot read left.nt".into()));
        batch.add_job(spec("fine", 1), |_| Ok("ok".into()));
        let statuses = batch.run_jobs();
        assert_eq!(statuses[0].state, JobState::Failed);
        assert!(statuses[0].error.as_deref().expect("message").contains("partition exploded"));
        assert_eq!((statuses[1].state, statuses[1].error.as_deref()), (JobState::Failed, Some("cannot read left.nt")));
        assert_eq!(statuses[2].state, JobState::Completed);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn the_control_root_mirrors_every_transition() {
        let root = scratch("mirror");
        let mut batch = Batch::new(&root);
        let first = batch.add_job(spec("first", 1), |ctx| {
            assert_eq!(control::read_status(&RealFs, ctx.job_dir()).expect("own status").state, JobState::Running);
            let root = ctx.job_dir().parent().expect("control root");
            let next = on_disk(root, JobId::from_ordinal(1));
            assert_eq!(next.state, JobState::Queued, "later jobs wait");
            Ok("done".into())
        });
        let second = batch.add_job(JobSpec { memory_bytes: 64, ..spec("second", 1) }, |_| Ok("done".into()));
        assert_eq!(on_disk(&root, first).state, JobState::Queued);
        let statuses = batch.run_jobs();
        assert_eq!(control::list_statuses(&RealFs, &root).expect("list"), statuses);
        assert_eq!(on_disk(&root, second).memory_bytes, 64);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn status_write_failures_never_kill_a_job() {
        let root = scratch("degraded");
        // Every control-plane operation fails: the disk under the control
        // root is gone for the whole run.
        let faulty = FaultFs::new(FaultPlan::fail_from(0, FaultKind::Eio));
        let mut batch = Batch::with_vfs(&root, faulty.clone());
        batch.add_job(spec("healthy", 1), |_| Ok("12 matches".into()));
        let status = batch.run_jobs().remove(0);
        assert_eq!(status.state, JobState::Completed, "job survives: {status:?}");
        assert_eq!(status.summary.as_deref(), Some("12 matches"));
        assert_eq!(batch.status_write_failures(), 3, "queued, running and completed all failed");
        assert!(!faulty.fired().is_empty(), "the fault plan actually fired");
        let _ = std::fs::remove_dir_all(&root);
    }
}
