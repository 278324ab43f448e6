//! Structured dataflow failures.
//!
//! Instead of letting a worker panic unwind through the worker scope and
//! abort the whole process, every task failure is captured and surfaced as
//! a [`DataflowError`] carrying the stage name, the task index and the
//! panic payload. Unlike Spark (§4.1) the engine does not retry a failed
//! task: tasks are deterministic closures over resident input, so the
//! stage fails fast with the precise cause.

use std::any::Any;
use std::fmt;

use crate::cancel::CancelReason;
use crate::checkpoint::CheckpointError;

/// A failure of a dataflow stage or barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataflowError {
    /// A task panicked. When several tasks of one stage fail, the
    /// lowest-indexed one is reported.
    TaskPanicked {
        /// Name of the stage the task belonged to.
        stage: String,
        /// Task index within the stage.
        task: usize,
        /// The captured panic payload, rendered as a string.
        payload: String,
    },
    /// The checkpoint subsystem failed (I/O error, corrupt snapshot,
    /// schema drift). Carries the structured [`CheckpointError`] so
    /// callers (e.g. the CLI's exit-code mapping) can distinguish
    /// checkpoint failures from execution failures.
    Checkpoint(CheckpointError),
    /// A durable-path write ran out of disk space (ENOSPC / quota).
    ///
    /// Raised by the spill-to-disk shuffle when a run file cannot land,
    /// with the guarantee that the shuffle's scratch directory has been
    /// removed (its `Drop` guard sweeps the run files even on unwind), so
    /// the operator can free space and retry without hunting for leaks.
    DiskFull {
        /// The stage whose spill hit the full disk (e.g. `graph-gamma`).
        stage: String,
        /// The path that could not be written.
        path: String,
        /// The rendered OS error.
        detail: String,
    },
    /// The run was cancelled cooperatively via a
    /// [`CancelToken`](crate::cancel::CancelToken) — by an explicit
    /// request or a job deadline.
    ///
    /// Cancellation is observed at task boundaries (the engine cannot
    /// preempt a running task, just as Spark cannot preempt a task thread)
    /// and pipeline barriers, never inside a checkpoint write, so a cancelled
    /// checkpointed run leaves only complete, resumable barriers behind.
    /// `stage` names the stage (or barrier) where the flag was observed;
    /// `completed`/`tasks` count that stage's progress (`0/0` when the
    /// cancellation was caught between stages).
    Cancelled {
        /// The stage or barrier at which cancellation was observed.
        stage: String,
        /// Why the run was cancelled.
        reason: CancelReason,
        /// Tasks of that stage that completed before the flag was seen.
        completed: usize,
        /// Total tasks in that stage (`0` at a between-stage barrier).
        tasks: usize,
    },
}

impl DataflowError {
    /// The stage the error originated in. Checkpoint failures happen at
    /// barriers rather than inside a stage and report `"<checkpoint>"`.
    pub fn stage(&self) -> &str {
        match self {
            DataflowError::TaskPanicked { stage, .. } => stage,
            DataflowError::Checkpoint(_) => "<checkpoint>",
            DataflowError::DiskFull { stage, .. } => stage,
            DataflowError::Cancelled { stage, .. } => stage,
        }
    }

    /// The cancellation reason, if this error is [`Self::Cancelled`].
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        match self {
            DataflowError::Cancelled { reason, .. } => Some(*reason),
            _ => None,
        }
    }

    /// Renders a panic payload as a human-readable string. Panics carry
    /// `&str` or `String` payloads in practice; anything else is opaque.
    pub fn panic_message(payload: &(dyn Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        }
    }

    /// Recovers a structured error from a caught panic payload.
    ///
    /// The engine's infallible entry point ([`crate::Executor::run_stage`])
    /// reports failures by panicking with a `DataflowError` payload;
    /// catching that unwind at a pipeline boundary and calling `from_panic`
    /// restores the structured error. Foreign payloads are wrapped as a
    /// [`Self::TaskPanicked`] in the synthetic stage `"<unwound>"`.
    pub fn from_panic(payload: Box<dyn Any + Send>) -> DataflowError {
        match payload.downcast::<DataflowError>() {
            Ok(e) => *e,
            Err(other) => DataflowError::TaskPanicked {
                stage: "<unwound>".to_owned(),
                task: 0,
                payload: Self::panic_message(other.as_ref()),
            },
        }
    }
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::TaskPanicked { stage, task, payload } => {
                write!(f, "stage {stage:?}: task {task} panicked: {payload}")
            }
            DataflowError::Checkpoint(e) => write!(f, "{e}"),
            DataflowError::DiskFull { stage, path, detail } => {
                write!(f, "stage {stage:?}: disk full writing {path}: {detail}")
            }
            DataflowError::Cancelled { stage, reason, completed, tasks } => write!(
                f,
                "stage {stage:?}: cancelled ({reason}) with {completed}/{tasks} tasks complete"
            ),
        }
    }
}

impl From<CheckpointError> for DataflowError {
    fn from(e: CheckpointError) -> Self {
        DataflowError::Checkpoint(e)
    }
}

impl std::error::Error for DataflowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e =
            DataflowError::TaskPanicked { stage: "shuffle".into(), task: 3, payload: "boom".into() };
        let s = e.to_string();
        assert!(s.contains("shuffle") && s.contains("task 3") && s.contains("boom"));
        assert_eq!(e.stage(), "shuffle");

        let c = DataflowError::Cancelled {
            stage: "match".into(),
            reason: CancelReason::Deadline,
            completed: 2,
            tasks: 8,
        };
        assert!(c.to_string().contains("cancelled (deadline)"));
        assert!(c.to_string().contains("2/8"));
        assert_eq!(c.stage(), "match");
        assert_eq!(c.cancel_reason(), Some(CancelReason::Deadline));
        assert_eq!(e.cancel_reason(), None);
    }

    #[test]
    fn from_panic_round_trips_structured_errors() {
        let original =
            DataflowError::TaskPanicked { stage: "s".into(), task: 1, payload: "p".into() };
        let boxed: Box<dyn Any + Send> = Box::new(original.clone());
        assert_eq!(DataflowError::from_panic(boxed), original);
    }

    #[test]
    fn from_panic_wraps_foreign_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("plain panic")).unwrap_err();
        let e = DataflowError::from_panic(caught);
        match e {
            DataflowError::TaskPanicked { stage, payload, .. } => {
                assert_eq!(stage, "<unwound>");
                assert!(payload.contains("plain panic"));
            }
            other => panic!("unexpected: {other}"),
        }
    }
}
