//! Job identity, specification and lifecycle state.
//!
//! The lifecycle is a small state machine (DESIGN.md §14):
//!
//! ```text
//! submit ──► Queued ──► Running ──► Completed
//!               │           │
//!               │           ├──► Failed      (task fault / panic / I/O)
//!               └───────────┴──► Cancelled   (user / deadline / shutdown)
//! ```
//!
//! `Completed`, `Failed` and `Cancelled` are terminal. A shed submission
//! never enters the machine at all — admission control rejects it with a
//! structured [`ShedReason`](crate::ShedReason) before a [`JobId`] is
//! allocated.

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use minoaner_dataflow::{CancelToken, Deadline, Executor, RunTrace};

/// Identity of a submitted job, unique within its scheduler (and, through
/// the control plane's per-job directories, within a checkpoint root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl JobId {
    /// Constructs an id from its ordinal. Scheduler-internal; exposed so
    /// the control plane can rebuild ids from directory names.
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

/// Scheduling priority. Higher priorities dispatch strictly first;
/// within a priority, submission order wins (no reordering, no starvation
/// of earlier submissions by later equal-priority ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    Low,
    #[default]
    Normal,
    High,
}

impl Priority {
    /// Stable lowercase name, used in status files and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// Parses the stable name produced by [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "low" => Some(Priority::Low),
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a job asks for at submission: a human-readable name, a priority,
/// and the resources admission control charges against the global budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Human-readable job name (shown by `minoaner jobs list`).
    pub name: String,
    /// Scheduling priority.
    pub priority: Priority,
    /// Worker threads the job's executor will use (≥ 1; charged against
    /// [`ResourceBudget::workers`](crate::ResourceBudget::workers)).
    pub workers: usize,
    /// Declared memory need in bytes (charged against
    /// [`ResourceBudget::memory_bytes`](crate::ResourceBudget::memory_bytes);
    /// `0` = charges nothing).
    pub memory_bytes: u64,
    /// Wall-clock budget from submission. When it expires, the watchdog
    /// cancels the job with
    /// [`CancelReason::Deadline`](minoaner_dataflow::CancelReason::Deadline)
    /// — cooperatively: the job's executor polls the deadline at task and
    /// barrier boundaries.
    pub deadline: Option<Duration>,
}

impl JobSpec {
    /// A spec with defaults: normal priority, one worker, no declared
    /// memory, no deadline.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            priority: Priority::Normal,
            workers: 1,
            memory_bytes: 0,
            deadline: None,
        }
    }

    /// Returns `self` with the priority set.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Returns `self` asking for `workers` workers (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Returns `self` declaring a memory need in bytes.
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
    /// Admitted, waiting for resources.
    Queued,
    /// Dispatched; its runner thread is executing the work.
    Running,
    /// The work returned `Ok` (terminal).
    Completed,
    /// The work returned a non-cancellation error or panicked (terminal).
    Failed,
    /// The work was cancelled — by request, deadline or shutdown
    /// (terminal).
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

/// A point-in-time snapshot of one job, as reported by
/// [`JobScheduler::status`](crate::JobScheduler::status) and persisted by
/// the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    pub id: JobId,
    pub name: String,
    pub priority: Priority,
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

/// What a job's work closure returns on success.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// One-line human-readable result (e.g. `"41 matches, digest 0x…"`).
    pub summary: String,
    /// The run's trace, if the work captured one.
    pub trace: Option<RunTrace>,
}

impl JobOutput {
    /// An output with a summary and no trace.
    pub fn summary(text: impl Into<String>) -> Self {
        Self { summary: text.into(), trace: None }
    }

    /// Returns `self` carrying a [`RunTrace`].
    pub fn with_trace(mut self, trace: RunTrace) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// Everything a job's work closure receives from the scheduler: its
/// identity, its admission grant, its cancellation token and deadline,
/// and (when the scheduler has a control root) its private directory.
#[derive(Debug, Clone)]
pub struct JobContext {
    pub(crate) id: JobId,
    pub(crate) name: String,
    pub(crate) workers: usize,
    pub(crate) cancel: CancelToken,
    pub(crate) deadline: Option<Deadline>,
    pub(crate) job_dir: Option<PathBuf>,
    pub(crate) memory_bytes: u64,
}

impl JobContext {
    /// The job's id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The job's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The worker count granted at admission.
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

    /// The job's private directory under the scheduler's control root
    /// (status file, checkpoints, trace artifacts), if a root is
    /// configured.
    pub fn job_dir(&self) -> Option<&PathBuf> {
        self.job_dir.as_ref()
    }

    /// The memory grant from the job's [`ResourceBudget`](crate::budget::ResourceBudget)
    /// admission, in bytes (`0` = unmetered). Work closures that resolve
    /// under this grant can hand it to the dataflow layer as a
    /// [`MemoryBudget`](minoaner_dataflow::MemoryBudget) so shuffle stages
    /// spill instead of exceeding what admission reserved.
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
    fn priority_orders_high_above_normal_above_low() {
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        for p in [Priority::Low, Priority::Normal, Priority::High] {
            assert_eq!(Priority::parse(p.as_str()), Some(p));
        }
        assert_eq!(Priority::parse("urgent"), None);
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
            .with_priority(Priority::High)
            .with_workers(4)
            .with_memory_bytes(1 << 20)
            .with_deadline(Duration::from_secs(5));
        assert_eq!(spec.priority, Priority::High);
        assert_eq!(spec.workers, 4);
        assert_eq!(spec.memory_bytes, 1 << 20);
        assert_eq!(spec.deadline, Some(Duration::from_secs(5)));
    }

    #[test]
    fn context_executor_carries_the_grant() {
        let ctx = JobContext {
            id: JobId::from_ordinal(1),
            name: "t".into(),
            workers: 3,
            cancel: CancelToken::new(),
            deadline: None,
            job_dir: None,
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
