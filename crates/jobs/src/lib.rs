//! Job batches for MinoanER pipelines: jobs run one at a time in the
//! order they were added, each with its own workers, memory grant,
//! cancellation token and directory, under a file-based control plane for
//! cross-process `list`/`status`/`cancel`.
//!
//! # Shape
//!
//! - [`JobSpec`] / [`JobId`] / [`JobState`] / [`JobStatus`] — what a job
//!   asks for, and its lifecycle (DESIGN.md §14).
//! - [`Batch`] — `add_job` jobs, then `run_jobs` them in order on the
//!   caller's thread.
//! - [`JobContext`] — handed to each job's work closure: the job's id,
//!   grant, [`CancelToken`](minoaner_dataflow::CancelToken) and directory.
//! - [`control`] — the `job-<id>/status.json` + `CANCEL` marker
//!   protocol behind `minoaner jobs list|status|cancel`.
//!
//! # Invariants
//!
//! Cancellation is cooperative and checkpoint-safe: the batch only
//! latches a token; the pipeline polls it at stage barriers *after* each
//! checkpoint barrier commits, so a cancelled job's checkpoint directory
//! only ever holds complete, resumable barriers. Job order is the order
//! of [`Batch::add_job`] calls.

// `unwrap`/`expect` are denied outside tests; each audited exception is
// an item- or statement-level `#[expect(…, reason = "bound: …")]`,
// counted per file by tests/manifests.rs (DESIGN.md §12).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod control;
pub mod job;

pub use batch::{Batch, JobResult};
pub use control::{ControlError, STATUS_SCHEMA_VERSION};
pub use job::{JobContext, JobId, JobSpec, JobState, JobStatus};
