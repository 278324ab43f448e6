//! Job identity, specification and lifecycle state.
//!
//! The lifecycle is a small state machine (DESIGN.md §14):
//!
//! ```text
//! add_job ──► Queued ──► Running ──► Completed
//!                │           │
//!                │           ├──► Failed      (task fault / panic / I/O)
//!                └───────────┴──► Cancelled   (user marker / deadline)
//! ```
//!
//! `Completed`, `Failed` and `Cancelled` are terminal. A job whose cancel
//! marker or expired deadline is found at its start goes straight from
//! `Queued` to `Cancelled` without running.

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

use minoaner_dataflow::{CancelToken, Deadline, Executor};

/// Identity of a job, unique within its batch (and, through the control
/// plane's per-job directories, within a control root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl JobId {
    /// Constructs an id from its ordinal. Exposed so the control plane can
    /// rebuild ids from directory names.
    pub fn from_ordinal(n: u64) -> Self {
        Self(n)
    }

    /// The ordinal behind the id.
    pub fn ordinal(self) -> u64 {
        self.0
    }

    /// Parses the display form (`j0042`), with or without the `j` prefix.
    pub fn parse(s: &str) -> Option<Self> {
        let digits = s.strip_prefix('j').unwrap_or(s);
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse::<u64>().ok().map(Self)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{:04}", self.0)
    }
}

/// What a job asks for: a human-readable name and the resources its run
/// gets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Human-readable job name (shown by `minoaner jobs list`).
    pub name: String,
    /// Worker threads the job's executor will use (≥ 1).
    pub workers: usize,
    /// Memory grant in bytes (`0` = unmetered); the work closure turns it
    /// into the run's [`MemoryBudget`](minoaner_dataflow::MemoryBudget).
    pub memory_bytes: u64,
    /// Wall-clock budget from the job's start. When it expires the job is
    /// cancelled with
    /// [`CancelReason::Deadline`](minoaner_dataflow::CancelReason::Deadline)
    /// — cooperatively: the job's executor polls the deadline at task and
    /// barrier boundaries.
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// A spec with defaults: one worker, no memory grant, no deadline.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), workers: 1, memory_bytes: 0, deadline: None }
    }

    /// Returns `self` asking for `workers` workers (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Returns `self` with a memory grant in bytes.
    pub fn with_memory_bytes(mut self, bytes: u64) -> Self {
        self.memory_bytes = bytes;
        self
    }

    /// Returns `self` with a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Lifecycle state of a job (see the module docs for the state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Added to the batch, waiting for the jobs before it.
    Queued,
    /// Its work is executing.
    Running,
    /// The work returned `Ok` (terminal).
    Completed,
    /// The work returned a non-cancellation error or panicked (terminal).
    Failed,
    /// The work was cancelled — by a marker or its deadline (terminal).
    Cancelled,
}

impl JobState {
    /// Whether the state is terminal.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Completed | JobState::Failed | JobState::Cancelled)
    }

    /// Stable lowercase name, used in status files.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses the stable name produced by [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "completed" => Some(JobState::Completed),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            _ => None,
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A point-in-time snapshot of one job, as returned by
/// [`Batch::run_jobs`](crate::Batch::run_jobs) and persisted by the
/// control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    pub id: JobId,
    pub name: String,
    pub workers: usize,
    pub memory_bytes: u64,
    pub state: JobState,
    /// Why the job was (or is being) cancelled, if it was.
    pub cancel_reason: Option<minoaner_dataflow::CancelReason>,
    /// The failure or cancellation message, for terminal non-success
    /// states.
    pub error: Option<String>,
    /// The completed job's one-line summary.
    pub summary: Option<String>,
}

/// Everything a job's work closure receives from the batch: its
/// identity, its grant, its cancellation token and deadline, and its
/// private directory under the control root.
#[derive(Debug, Clone)]
pub struct JobContext {
    pub(crate) id: JobId,
    pub(crate) workers: usize,
    pub(crate) cancel: CancelToken,
    pub(crate) deadline: Option<Deadline>,
    pub(crate) job_dir: PathBuf,
    pub(crate) memory_bytes: u64,
}

impl JobContext {
    /// The job's id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The job's worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The job's cancellation token. Long-running work outside executor
    /// stages should poll [`CancelToken::is_cancelled`] at its own safe
    /// points.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The job's wall-clock deadline, if one was set.
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// The job's private directory under the control root (status file,
    /// checkpoints, spill runs, trace artifacts).
    pub fn job_dir(&self) -> &Path {
        &self.job_dir
    }

    /// The job's memory grant in bytes (`0` = unmetered).
    pub fn memory_bytes(&self) -> u64 {
        self.memory_bytes
    }

    /// An executor sized to the job's grant, wired to its cancellation
    /// token and deadline: stages run on `workers()` workers, and
    /// cancellation or deadline expiry surfaces as
    /// [`DataflowError::Cancelled`](minoaner_dataflow::DataflowError).
    pub fn executor(&self) -> Executor {
        let mut exec = Executor::new(self.workers);
        exec.set_cancel_token(self.cancel.clone());
        exec.set_deadline(self.deadline);
        exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_displays_and_parses() {
        let id = JobId::from_ordinal(42);
        assert_eq!(id.to_string(), "j0042");
        assert_eq!(JobId::parse("j0042"), Some(id));
        assert_eq!(JobId::parse("42"), Some(id));
        assert_eq!(JobId::parse("j"), None);
        assert_eq!(JobId::parse("jx1"), None);
        assert_eq!(JobId::parse(""), None);
    }

    #[test]
    fn state_terminality_and_names() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        for s in [JobState::Completed, JobState::Failed, JobState::Cancelled] {
            assert!(s.is_terminal());
        }
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::parse(s.as_str()), Some(s));
        }
    }

    #[test]
    fn spec_builder_clamps_workers() {
        let spec = JobSpec::new("x").with_workers(0);
        assert_eq!(spec.workers, 1);
        let spec = JobSpec::new("x")
            .with_workers(4)
            .with_memory_bytes(1 << 20)
            .with_deadline(Duration::from_secs(5));
        assert_eq!(spec.workers, 4);
        assert_eq!(spec.memory_bytes, 1 << 20);
        assert_eq!(spec.deadline, Some(Duration::from_secs(5)));
    }

    #[test]
    fn context_executor_carries_the_grant() {
        let ctx = JobContext {
            id: JobId::from_ordinal(1),
            workers: 3,
            cancel: CancelToken::new(),
            deadline: None,
            job_dir: PathBuf::from("job-j0001"),
            memory_bytes: 1 << 20,
        };
        let exec = ctx.executor();
        assert_eq!(exec.workers(), 3);
        assert_eq!(ctx.memory_bytes(), 1 << 20);
        assert!(!exec.cancel_token().is_cancelled());
        ctx.cancel_token().cancel(minoaner_dataflow::CancelReason::User);
        assert!(exec.cancel_token().is_cancelled(), "executor shares the job token");
    }
}
