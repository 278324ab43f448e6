//! The multi-job scheduler: bounded concurrency, priority dispatch,
//! admission control and cooperative cancellation over a shared
//! [`ResourceBudget`].
//!
//! One scheduler owns one budget. Submissions pass three admission gates
//! in order — shutting-down shed, static budget check (could this job
//! *ever* run?), and the bounded wait queue (run now, or queue if there
//! is room, or shed with [`ShedReason::QueueFull`]) — so overload always
//! surfaces as a structured rejection at submit time, never as an
//! unbounded backlog.
//!
//! Dispatch is strict head-of-line over `(priority, submission order)`
//! (see `queue.rs`); each dispatched job runs its work closure on a
//! dedicated runner thread with a [`JobContext`] carrying the job's
//! [`CancelToken`] and wall-clock [`Deadline`]. Cancellation is
//! cooperative end to end: the scheduler only ever latches the token —
//! the job observes it at its next safe point (stage barrier, partition
//! loop, checkpoint barrier) and unwinds with
//! [`DataflowError::Cancelled`], which the runner maps to
//! [`JobState::Cancelled`]. Panics in job work are caught and mapped to
//! [`JobState::Failed`]; they never take the scheduler down.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

use minoaner_dataflow::vfs::{self, VfsRef};
use minoaner_dataflow::{CancelReason, CancelToken, DataflowError, Deadline};
use minoaner_det::lock;

use crate::budget::ResourceBudget;
use crate::control;
use crate::error::ShedReason;
use crate::job::{JobContext, JobId, JobOutput, JobSpec, JobState, JobStatus};
use crate::queue::PendingQueue;

/// A job's work: runs on a runner thread with the job's [`JobContext`].
/// Return `Err(DataflowError::Cancelled { .. })` to finish as
/// [`JobState::Cancelled`]; any other error (or a panic) finishes as
/// [`JobState::Failed`].
pub type JobWork = Box<dyn FnOnce(&JobContext) -> Result<JobOutput, DataflowError> + Send + 'static>;

/// Everything the scheduler tracks about one admitted job.
#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    cancel: CancelToken,
    deadline: Option<Deadline>,
    error: Option<String>,
    output: Option<JobOutput>,
}

#[derive(Default)]
struct SchedState {
    next_ordinal: u64,
    next_seq: u64,
    shutting_down: bool,
    queue: PendingQueue,
    /// Work for jobs that have not been dispatched yet.
    work: std::collections::BTreeMap<JobId, JobWork>,
    records: std::collections::BTreeMap<JobId, JobRecord>,
    workers_in_use: usize,
    memory_in_use: u64,
    running: usize,
    handles: Vec<JoinHandle<()>>,
}

struct SchedInner {
    budget: ResourceBudget,
    root: Option<PathBuf>,
    /// The filesystem the control plane writes through — [`RealFs`]
    /// (via [`vfs::default_vfs`]) in production, a
    /// [`FaultFs`](minoaner_dataflow::vfs::FaultFs) under the chaos sweep.
    vfs: VfsRef,
    /// How many status-file writes have failed. This is the graceful
    /// degradation policy for the control plane made observable: a
    /// status-write failure must never kill a healthy job, so failures
    /// are counted here (and the job carries on) instead of propagating.
    status_write_failures: AtomicU64,
    state: Mutex<SchedState>,
    /// Signalled on every terminal transition (and on dispatch), so
    /// `wait`/`wait_all` can block instead of polling.
    terminal: Condvar,
}

impl SchedInner {
    /// Best-effort status persistence: control-plane visibility must not
    /// fail the job, so I/O errors are swallowed here — but counted, so
    /// operators (and the chaos harness) can tell a silent control plane
    /// from a healthy one.
    fn persist(&self, status: &JobStatus) {
        if let Some(root) = &self.root {
            if control::write_status_with(&*self.vfs, root, status).is_err() {
                self.status_write_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The scheduler handle. Cheap to clone; all clones share one state.
#[derive(Clone)]
pub struct JobScheduler {
    inner: Arc<SchedInner>,
}

impl JobScheduler {
    /// A scheduler over `budget` with no control root: pure in-process
    /// orchestration, no status files.
    pub fn new(budget: ResourceBudget) -> Self {
        Self::build(budget, None, vfs::default_vfs())
    }

    /// A scheduler that mirrors every job-state transition into
    /// `root/job-<id>/status.json` and honours `CANCEL` markers on
    /// [`poll_control`](Self::poll_control).
    pub fn with_control_root(budget: ResourceBudget, root: impl Into<PathBuf>) -> Self {
        Self::build(budget, Some(root.into()), vfs::default_vfs())
    }

    /// [`with_control_root`](Self::with_control_root) over an explicit
    /// [`Vfs`](minoaner_dataflow::vfs::Vfs) — the chaos harness's
    /// injection point for control-plane writes.
    pub fn with_control_root_vfs(
        budget: ResourceBudget,
        root: impl Into<PathBuf>,
        vfs: VfsRef,
    ) -> Self {
        Self::build(budget, Some(root.into()), vfs)
    }

    fn build(budget: ResourceBudget, root: Option<PathBuf>, vfs: VfsRef) -> Self {
        Self {
            inner: Arc::new(SchedInner {
                budget,
                root,
                vfs,
                status_write_failures: AtomicU64::new(0),
                state: Mutex::new(SchedState::default()),
                terminal: Condvar::new(),
            }),
        }
    }

    /// How many control-plane status writes have failed so far. Always
    /// zero without a control root; under a faulted filesystem this counts
    /// the transitions that went unrecorded while the jobs themselves
    /// carried on.
    pub fn status_write_failures(&self) -> u64 {
        self.inner.status_write_failures.load(Ordering::Relaxed)
    }

    /// The budget this scheduler admits against.
    pub fn budget(&self) -> ResourceBudget {
        self.inner.budget
    }

    /// The control root, if one is configured.
    pub fn control_root(&self) -> Option<&PathBuf> {
        self.inner.root.as_ref()
    }

    /// Submits a job. On admission the job is `Queued` (and dispatched
    /// immediately if it is next in line and fits the free budget); on
    /// rejection nothing is retained — no id, no queue slot, no record.
    ///
    /// The job's wall-clock deadline (if any) starts at submission, so
    /// time spent waiting in the queue counts against it.
    pub fn submit(
        &self,
        spec: JobSpec,
        work: impl FnOnce(&JobContext) -> Result<JobOutput, DataflowError> + Send + 'static,
    ) -> Result<JobId, ShedReason> {
        let mut st = lock(&self.inner.state);
        if st.shutting_down {
            return Err(ShedReason::ShuttingDown);
        }
        self.inner.budget.admit(&spec)?;
        // Would this job dispatch immediately? Only if it would be the
        // queue head (strictly higher priority than the current head, or
        // an empty queue), a running slot is free, and the resources fit.
        let would_be_head = match st.queue.peek() {
            None => true,
            Some(head) => {
                st.records.get(&head).is_some_and(|rec| spec.priority > rec.spec.priority)
            }
        };
        let can_start_now = would_be_head
            && st.running < self.inner.budget.max_running
            && self.inner.budget.fits(&spec, st.workers_in_use, st.memory_in_use);
        if !can_start_now && st.queue.len() >= self.inner.budget.max_queued {
            return Err(ShedReason::QueueFull {
                queued: st.queue.len(),
                max_queued: self.inner.budget.max_queued,
            });
        }
        let id = JobId::from_ordinal(st.next_ordinal);
        st.next_ordinal += 1;
        let seq = st.next_seq;
        st.next_seq += 1;
        let priority = spec.priority;
        let record = JobRecord {
            deadline: spec.deadline.map(Deadline::after),
            spec,
            state: JobState::Queued,
            cancel: CancelToken::new(),
            error: None,
            output: None,
        };
        self.inner.persist(&Self::status_of(id, &record));
        st.records.insert(id, record);
        st.work.insert(id, Box::new(work));
        st.queue.push(priority, seq, id);
        self.dispatch_locked(&mut st);
        Ok(id)
    }

    /// Requests cancellation. A `Queued` job is finalized immediately (it
    /// never runs); a `Running` job has its token latched and finishes as
    /// `Cancelled` when its work observes the token and unwinds. Returns
    /// `false` for unknown or already-terminal jobs.
    pub fn cancel(&self, id: JobId, reason: CancelReason) -> bool {
        let mut st = lock(&self.inner.state);
        let Some(record) = st.records.get_mut(&id) else { return false };
        match record.state {
            JobState::Queued => {
                let _ = record.cancel.cancel(reason);
                record.state = JobState::Cancelled;
                record.error = Some(format!("cancelled ({reason}) before dispatch"));
                let status = Self::status_of(id, record);
                st.queue.remove(id);
                st.work.remove(&id);
                self.inner.persist(&status);
                self.inner.terminal.notify_all();
                // Removing a queue entry can unblock the new head.
                self.dispatch_locked(&mut st);
                true
            }
            JobState::Running => record.cancel.cancel(reason) || record.cancel.reason().is_some(),
            _ => false,
        }
    }

    /// A point-in-time status snapshot, or `None` for unknown ids.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let st = lock(&self.inner.state);
        st.records.get(&id).map(|record| Self::status_of(id, record))
    }

    /// Status snapshots of every job this scheduler has admitted,
    /// ascending by id.
    pub fn list(&self) -> Vec<JobStatus> {
        let st = lock(&self.inner.state);
        st.records.iter().map(|(&id, record)| Self::status_of(id, record)).collect()
    }

    /// Blocks until `id` reaches a terminal state and returns its final
    /// status (`None` for unknown ids).
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        let mut st = lock(&self.inner.state);
        loop {
            let record = st.records.get(&id)?;
            if record.state.is_terminal() {
                return Some(Self::status_of(id, record));
            }
            st = self.inner.terminal.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until every admitted job is terminal, joins all runner
    /// threads, and returns the final statuses ascending by id.
    pub fn wait_all(&self) -> Vec<JobStatus> {
        let mut st = lock(&self.inner.state);
        loop {
            if st.records.values().all(|record| record.state.is_terminal()) {
                let handles = std::mem::take(&mut st.handles);
                let statuses: Vec<JobStatus> =
                    st.records.iter().map(|(&id, record)| Self::status_of(id, record)).collect();
                drop(st);
                for handle in handles {
                    let _ = handle.join();
                }
                return statuses;
            }
            st = self.inner.terminal.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Shuts down: refuses new submissions, cancels every queued job and
    /// latches every running job's token with
    /// [`CancelReason::Shutdown`], then waits for all jobs to reach a
    /// terminal state. Returns the final statuses.
    pub fn shutdown(&self) -> Vec<JobStatus> {
        {
            let mut st = lock(&self.inner.state);
            st.shutting_down = true;
            while let Some(id) = st.queue.pop() {
                st.work.remove(&id);
                if let Some(record) = st.records.get_mut(&id) {
                    let _ = record.cancel.cancel(CancelReason::Shutdown);
                    record.state = JobState::Cancelled;
                    record.error = Some("cancelled (shutdown) before dispatch".to_owned());
                    self.inner.persist(&Self::status_of(id, record));
                }
            }
            for record in st.records.values_mut() {
                if record.state == JobState::Running {
                    let _ = record.cancel.cancel(CancelReason::Shutdown);
                }
            }
            self.inner.terminal.notify_all();
        }
        self.wait_all()
    }

    /// Applies pending control-plane cancel requests (`CANCEL` markers
    /// dropped by `minoaner jobs cancel`) to live jobs. Returns how many
    /// cancellations were applied. No-op without a control root; callers
    /// (e.g. the CLI wait loop) invoke this periodically — the scheduler
    /// runs no background poller of its own.
    pub fn poll_control(&self) -> usize {
        let Some(root) = self.inner.root.clone() else { return 0 };
        let live: Vec<JobId> = {
            let st = lock(&self.inner.state);
            st.records
                .iter()
                .filter(|(_, record)| !record.state.is_terminal())
                .map(|(&id, _)| id)
                .collect()
        };
        let mut applied = 0;
        for id in live {
            if let Some(reason) =
                control::cancel_request_with(&*self.inner.vfs, &control::job_dir(&root, id))
            {
                if self.cancel(id, reason) {
                    applied += 1;
                }
            }
        }
        applied
    }

    /// Dispatches from the queue head while a running slot and the
    /// budget allow. Strict order: if the head does not fit, nothing
    /// behind it is considered. Queued jobs whose token is already
    /// latched (or whose deadline expired while waiting) are finalized
    /// here without ever running.
    fn dispatch_locked(&self, st: &mut SchedState) {
        while st.running < self.inner.budget.max_running {
            let Some(head) = st.queue.peek() else { break };
            let Some(record) = st.records.get(&head) else {
                // Defensive: a queue entry without a record cannot run.
                st.queue.pop();
                st.work.remove(&head);
                continue;
            };
            let doomed = record
                .cancel
                .reason()
                .or_else(|| record.deadline.filter(|d| d.expired()).map(|_| CancelReason::Deadline));
            if let Some(reason) = doomed {
                st.queue.pop();
                st.work.remove(&head);
                if let Some(record) = st.records.get_mut(&head) {
                    let _ = record.cancel.cancel(reason);
                    record.state = JobState::Cancelled;
                    record.error = Some(format!("cancelled ({reason}) before dispatch"));
                    self.inner.persist(&Self::status_of(head, record));
                }
                self.inner.terminal.notify_all();
                continue;
            }
            if !self.inner.budget.fits(&record.spec, st.workers_in_use, st.memory_in_use) {
                break;
            }
            st.queue.pop();
            let Some(work) = st.work.remove(&head) else {
                // Defensive: dispatched twice — finalize as failed rather
                // than wedging the queue.
                if let Some(record) = st.records.get_mut(&head) {
                    record.state = JobState::Failed;
                    record.error = Some("internal: job work missing at dispatch".to_owned());
                    self.inner.persist(&Self::status_of(head, record));
                }
                self.inner.terminal.notify_all();
                continue;
            };
            let Some(record) = st.records.get_mut(&head) else { continue };
            record.state = JobState::Running;
            let workers = record.spec.workers.max(1);
            let ctx = JobContext {
                id: head,
                name: record.spec.name.clone(),
                workers,
                cancel: record.cancel.clone(),
                deadline: record.deadline,
                job_dir: self.inner.root.as_ref().map(|root| control::job_dir(root, head)),
                memory_bytes: record.spec.memory_bytes,
            };
            let status = Self::status_of(head, record);
            let memory = record.spec.memory_bytes;
            st.workers_in_use += workers;
            st.memory_in_use += memory;
            st.running += 1;
            self.inner.persist(&status);
            let sched = self.clone();
            let spawned = thread::Builder::new()
                .name(format!("minoaner-{head}"))
                .spawn(move || sched.run_job(head, ctx, work));
            match spawned {
                Ok(handle) => st.handles.push(handle),
                Err(e) => {
                    // Could not spawn: refund the grant and fail the job.
                    st.workers_in_use -= workers;
                    st.memory_in_use -= memory;
                    st.running -= 1;
                    if let Some(record) = st.records.get_mut(&head) {
                        record.state = JobState::Failed;
                        record.error = Some(format!("failed to spawn runner thread: {e}"));
                        self.inner.persist(&Self::status_of(head, record));
                    }
                    self.inner.terminal.notify_all();
                }
            }
        }
    }

    /// Runner-thread body: run the work, map the result onto the state
    /// machine, refund the grant, and dispatch whatever the freed
    /// resources now admit.
    fn run_job(&self, id: JobId, ctx: JobContext, work: JobWork) {
        let result = catch_unwind(AssertUnwindSafe(|| work(&ctx)))
            .unwrap_or_else(|payload| Err(DataflowError::from_panic(payload)));
        let mut st = lock(&self.inner.state);
        if let Some(record) = st.records.get_mut(&id) {
            match result {
                Ok(output) => {
                    record.state = JobState::Completed;
                    record.output = Some(output);
                }
                Err(e) => {
                    if let Some(reason) = e.cancel_reason() {
                        // Latch the token too, in case the work decided to
                        // cancel itself without going through it.
                        let _ = record.cancel.cancel(reason);
                        record.state = JobState::Cancelled;
                    } else {
                        record.state = JobState::Failed;
                    }
                    record.error = Some(e.to_string());
                }
            }
            let workers = record.spec.workers.max(1);
            let memory = record.spec.memory_bytes;
            let status = Self::status_of(id, record);
            st.workers_in_use -= workers;
            st.memory_in_use -= memory;
            st.running -= 1;
            self.inner.persist(&status);
        }
        self.inner.terminal.notify_all();
        self.dispatch_locked(&mut st);
    }

    fn status_of(id: JobId, record: &JobRecord) -> JobStatus {
        JobStatus {
            id,
            name: record.spec.name.clone(),
            priority: record.spec.priority,
            workers: record.spec.workers.max(1),
            memory_bytes: record.spec.memory_bytes,
            state: record.state,
            cancel_reason: record.cancel.reason(),
            error: record.error.clone(),
            summary: record.output.as_ref().map(|output| output.summary.clone()),
        }
    }
}

impl std::fmt::Debug for JobScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.inner.state);
        f.debug_struct("JobScheduler")
            .field("budget", &self.inner.budget)
            .field("root", &self.inner.root)
            .field("queued", &st.queue.len())
            .field("running", &st.running)
            .field("jobs", &st.records.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    use crate::job::Priority;

    /// A job that blocks until released, so tests control occupancy
    /// deterministically.
    fn gated_work(
        started: mpsc::Sender<JobId>,
        release: mpsc::Receiver<()>,
    ) -> impl FnOnce(&JobContext) -> Result<JobOutput, DataflowError> + Send + 'static {
        move |ctx| {
            started.send(ctx.id()).expect("report start");
            release.recv().expect("await release");
            Ok(JobOutput::summary(format!("{} done", ctx.id())))
        }
    }

    #[test]
    fn single_job_runs_to_completion() {
        let sched = JobScheduler::new(ResourceBudget::new(2, 0));
        let id = sched
            .submit(JobSpec::new("unit"), |ctx| {
                assert_eq!(ctx.workers(), 1);
                Ok(JobOutput::summary("41 matches"))
            })
            .expect("admit");
        let status = sched.wait(id).expect("known job");
        assert_eq!(status.state, JobState::Completed);
        assert_eq!(status.summary.as_deref(), Some("41 matches"));
        assert_eq!(status.error, None);
        assert_eq!(status.cancel_reason, None);
        sched.wait_all();
    }

    #[test]
    fn queue_full_sheds_instead_of_backlogging() {
        let sched = JobScheduler::new(ResourceBudget::new(1, 0).with_max_queued(1));
        let (started, on_start) = mpsc::channel();
        let (release, gate) = mpsc::channel();
        let first = sched.submit(JobSpec::new("occupant"), gated_work(started, gate)).expect("a");
        on_start.recv_timeout(Duration::from_secs(10)).expect("first starts");
        // One queue slot: the second job queues, the third is shed.
        let second =
            sched.submit(JobSpec::new("waits"), |_| Ok(JobOutput::summary("ok"))).expect("queues");
        let shed = sched.submit(JobSpec::new("shed"), |_| Ok(JobOutput::summary("never")));
        assert_eq!(shed, Err(ShedReason::QueueFull { queued: 1, max_queued: 1 }));
        release.send(()).expect("release");
        let statuses = sched.wait_all();
        assert_eq!(statuses.len(), 2, "the shed submission left no record");
        assert!(statuses.iter().all(|s| s.state == JobState::Completed));
        assert_eq!(sched.status(first).expect("first").state, JobState::Completed);
        assert_eq!(sched.status(second).expect("second").state, JobState::Completed);
    }

    #[test]
    fn dispatch_follows_priority_then_submission_order() {
        let sched = JobScheduler::new(ResourceBudget::new(1, 0));
        let (started, on_start) = mpsc::channel();
        let (release, gate) = mpsc::channel();
        sched
            .submit(JobSpec::new("occupant"), gated_work(started.clone(), gate))
            .expect("occupant");
        on_start.recv_timeout(Duration::from_secs(10)).expect("occupant starts");
        let log = Arc::new(Mutex::new(Vec::new()));
        let submit = |name: &str, priority: Priority| {
            let log = Arc::clone(&log);
            let name = name.to_owned();
            sched
                .submit(JobSpec::new(&name).with_priority(priority), move |_| {
                    lock(&log).push(name);
                    Ok(JobOutput::summary("ok"))
                })
                .expect("queued")
        };
        submit("low", Priority::Low);
        submit("normal-1", Priority::Normal);
        submit("high", Priority::High);
        submit("normal-2", Priority::Normal);
        release.send(()).expect("release occupant");
        sched.wait_all();
        assert_eq!(*lock(&log), vec!["high", "normal-1", "normal-2", "low"]);
    }

    #[test]
    fn cancelling_a_queued_job_means_it_never_runs() {
        let sched = JobScheduler::new(ResourceBudget::new(1, 0));
        let (started, on_start) = mpsc::channel();
        let (release, gate) = mpsc::channel();
        sched.submit(JobSpec::new("occupant"), gated_work(started, gate)).expect("occupant");
        on_start.recv_timeout(Duration::from_secs(10)).expect("occupant starts");
        let ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let ran_clone = Arc::clone(&ran);
        let queued = sched
            .submit(JobSpec::new("victim"), move |_| {
                ran_clone.store(true, std::sync::atomic::Ordering::SeqCst);
                Ok(JobOutput::summary("should not happen"))
            })
            .expect("queued");
        assert!(sched.cancel(queued, CancelReason::User));
        let status = sched.status(queued).expect("victim");
        assert_eq!(status.state, JobState::Cancelled);
        assert_eq!(status.cancel_reason, Some(CancelReason::User));
        assert!(!sched.cancel(queued, CancelReason::User), "already terminal");
        release.send(()).expect("release");
        sched.wait_all();
        assert!(!ran.load(std::sync::atomic::Ordering::SeqCst), "cancelled job must not run");
    }

    #[test]
    fn cancelling_a_running_job_is_cooperative() {
        let sched = JobScheduler::new(ResourceBudget::new(1, 0));
        let (started, on_start) = mpsc::channel();
        let id = sched
            .submit(JobSpec::new("loop"), move |ctx| {
                started.send(()).expect("report start");
                for _ in 0..100_000 {
                    if ctx.cancel_token().is_cancelled() {
                        return Err(DataflowError::Cancelled {
                            stage: "partition-loop".to_owned(),
                            reason: ctx.cancel_token().reason().unwrap_or(CancelReason::User),
                            completed: 3,
                            tasks: 8,
                        });
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                Ok(JobOutput::summary("ran to completion"))
            })
            .expect("admit");
        on_start.recv_timeout(Duration::from_secs(10)).expect("job starts");
        assert!(sched.cancel(id, CancelReason::User));
        let status = sched.wait(id).expect("known");
        assert_eq!(status.state, JobState::Cancelled);
        assert_eq!(status.cancel_reason, Some(CancelReason::User));
        let error = status.error.expect("cancellation message");
        assert!(error.contains("cancelled"), "got: {error}");
        sched.wait_all();
    }

    #[test]
    fn panic_in_job_work_fails_only_that_job() {
        let sched = JobScheduler::new(ResourceBudget::new(2, 0));
        let bad = sched
            .submit(JobSpec::new("panics"), |_| -> Result<JobOutput, DataflowError> {
                panic!("partition exploded")
            })
            .expect("admit bad");
        let good =
            sched.submit(JobSpec::new("fine"), |_| Ok(JobOutput::summary("ok"))).expect("admit ok");
        let bad_status = sched.wait(bad).expect("bad");
        assert_eq!(bad_status.state, JobState::Failed);
        assert!(bad_status.error.expect("message").contains("partition exploded"));
        let good_status = sched.wait(good).expect("good");
        assert_eq!(good_status.state, JobState::Completed);
        sched.wait_all();
    }

    #[test]
    fn oversized_submissions_are_shed_statically() {
        let sched = JobScheduler::new(ResourceBudget::new(2, 100));
        let too_wide = sched
            .submit(JobSpec::new("wide").with_workers(3), |_| Ok(JobOutput::summary("never")));
        assert_eq!(too_wide, Err(ShedReason::WorkersExceedBudget { requested: 3, budget: 2 }));
        let too_fat = sched
            .submit(JobSpec::new("fat").with_memory_bytes(101), |_| Ok(JobOutput::summary("never")));
        assert_eq!(too_fat, Err(ShedReason::MemoryExceedsBudget { requested: 101, budget: 100 }));
        assert!(sched.list().is_empty(), "shed submissions leave no record");
    }

    #[test]
    fn memory_budget_serializes_hungry_jobs() {
        let sched = JobScheduler::new(ResourceBudget::new(4, 100));
        let (started, on_start) = mpsc::channel();
        let (release, gate) = mpsc::channel();
        sched
            .submit(JobSpec::new("hog").with_memory_bytes(80), gated_work(started, gate))
            .expect("hog");
        on_start.recv_timeout(Duration::from_secs(10)).expect("hog starts");
        let ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let ran_clone = Arc::clone(&ran);
        sched
            .submit(JobSpec::new("also-hungry").with_memory_bytes(40), move |_| {
                ran_clone.store(true, std::sync::atomic::Ordering::SeqCst);
                Ok(JobOutput::summary("ok"))
            })
            .expect("queues behind the hog");
        // Workers are free (4 total, 1 used) but memory is not: the
        // second job must wait for the hog.
        thread::sleep(Duration::from_millis(50));
        assert!(!ran.load(std::sync::atomic::Ordering::SeqCst), "must wait for memory");
        release.send(()).expect("release hog");
        let statuses = sched.wait_all();
        assert!(statuses.iter().all(|s| s.state == JobState::Completed));
        assert!(ran.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn shutdown_cancels_queued_and_running_then_refuses_work() {
        let sched = JobScheduler::new(ResourceBudget::new(1, 0));
        let (started, on_start) = mpsc::channel();
        let running = sched
            .submit(JobSpec::new("running"), move |ctx| {
                started.send(()).expect("report start");
                for _ in 0..100_000 {
                    if ctx.cancel_token().is_cancelled() {
                        return Err(DataflowError::Cancelled {
                            stage: "barrier:blocks".to_owned(),
                            reason: ctx.cancel_token().reason().unwrap_or(CancelReason::User),
                            completed: 0,
                            tasks: 0,
                        });
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                Ok(JobOutput::summary("outlived shutdown"))
            })
            .expect("running");
        on_start.recv_timeout(Duration::from_secs(10)).expect("starts");
        let queued =
            sched.submit(JobSpec::new("queued"), |_| Ok(JobOutput::summary("never"))).expect("q");
        let statuses = sched.shutdown();
        assert_eq!(statuses.len(), 2);
        for status in &statuses {
            assert_eq!(status.state, JobState::Cancelled, "{status:?}");
            assert_eq!(status.cancel_reason, Some(CancelReason::Shutdown), "{status:?}");
        }
        let _ = (running, queued);
        let refused = sched.submit(JobSpec::new("late"), |_| Ok(JobOutput::summary("no")));
        assert_eq!(refused, Err(ShedReason::ShuttingDown));
    }

    #[test]
    fn queued_job_with_expired_deadline_is_cancelled_at_dispatch() {
        let sched = JobScheduler::new(ResourceBudget::new(1, 0));
        let (started, on_start) = mpsc::channel();
        let (release, gate) = mpsc::channel();
        sched.submit(JobSpec::new("occupant"), gated_work(started, gate)).expect("occupant");
        on_start.recv_timeout(Duration::from_secs(10)).expect("occupant starts");
        let doomed = sched
            .submit(JobSpec::new("doomed").with_deadline(Duration::from_millis(1)), |_| {
                Ok(JobOutput::summary("never"))
            })
            .expect("queued");
        thread::sleep(Duration::from_millis(20));
        release.send(()).expect("release");
        let status = sched.wait(doomed).expect("doomed");
        assert_eq!(status.state, JobState::Cancelled);
        assert_eq!(status.cancel_reason, Some(CancelReason::Deadline));
        sched.wait_all();
    }

    #[test]
    fn control_root_mirrors_transitions_and_honours_cancel_markers() {
        let root =
            std::env::temp_dir().join(format!("minoaner-jobs-sched-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let sched = JobScheduler::with_control_root(ResourceBudget::new(1, 0), &root);
        let (started, on_start) = mpsc::channel();
        let id = sched
            .submit(JobSpec::new("watched"), move |ctx| {
                started.send(()).expect("report start");
                for _ in 0..100_000 {
                    if ctx.cancel_token().is_cancelled() {
                        return Err(DataflowError::Cancelled {
                            stage: "barrier:graph".to_owned(),
                            reason: ctx.cancel_token().reason().unwrap_or(CancelReason::User),
                            completed: 2,
                            tasks: 2,
                        });
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                Ok(JobOutput::summary("uncancelled"))
            })
            .expect("admit");
        on_start.recv_timeout(Duration::from_secs(10)).expect("starts");
        let on_disk = control::read_status(&control::job_dir(&root, id)).expect("status file");
        assert_eq!(on_disk.state, JobState::Running);
        // Another process drops a CANCEL marker; the owner polls it up.
        assert!(control::request_cancel(&root, id, CancelReason::User).expect("marker"));
        assert_eq!(sched.poll_control(), 1);
        let status = sched.wait(id).expect("known");
        assert_eq!(status.state, JobState::Cancelled);
        let on_disk = control::read_status(&control::job_dir(&root, id)).expect("final file");
        assert_eq!(on_disk.state, JobState::Cancelled);
        assert_eq!(on_disk.cancel_reason, Some(CancelReason::User));
        sched.wait_all();
        assert_eq!(sched.poll_control(), 0, "terminal jobs ignore markers");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn status_write_failures_never_kill_a_healthy_job() {
        use minoaner_dataflow::vfs::{FaultFs, FaultKind, FaultPlan};
        let root =
            std::env::temp_dir().join(format!("minoaner-jobs-degraded-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // Every control-plane operation fails: the disk under the control
        // root is gone for the whole run.
        let faulty = FaultFs::new(FaultPlan::fail_from(0, FaultKind::Eio));
        let sched =
            JobScheduler::with_control_root_vfs(ResourceBudget::new(2, 0), &root, faulty.clone());
        let id = sched
            .submit(JobSpec::new("healthy"), |_| Ok(JobOutput::summary("12 matches")))
            .expect("admit despite dead control plane");
        let status = sched.wait(id).expect("known job");
        assert_eq!(status.state, JobState::Completed, "job survives: {status:?}");
        assert_eq!(status.summary.as_deref(), Some("12 matches"));
        sched.wait_all();
        // The degradation is observable, not silent.
        assert!(
            sched.status_write_failures() >= 2,
            "queued + running + completed transitions all failed, got {}",
            sched.status_write_failures()
        );
        assert!(!faulty.fired().is_empty(), "the fault plan actually fired");
        let _ = std::fs::remove_dir_all(&root);
    }
}
