//! # minoaner-dataflow
//!
//! A hand-rolled, shared-memory parallel dataflow engine standing in for
//! Apache Spark, which the original MinoanER implementation runs on (§4.1,
//! Figure 4 of the paper).
//!
//! The engine is what the pipeline runs and nothing else — the execution
//! model that matters to the paper's efficiency evaluation:
//!
//! * **Stages of independent tasks** ([`Executor::run_stage`] /
//!   [`Executor::try_run_stage`]): one task per partition, results in task
//!   order, and a **barrier** after every stage (the dashed
//!   synchronization edges of Figure 4).
//! * **A bounded worker pool** ([`Executor`]): the worker count is the
//!   experimental knob behind the Figure 6 speedup curves, with the paper's
//!   convention of 3 tasks per machine core held constant across runs.
//!   Workers claim a stage's tasks from one shared counter, as Spark's
//!   executors take them from one driver-side queue.
//! * **One data exchange** ([`SpillShuffle`]): map tasks bucket records by
//!   reduce partition; under a [`MemoryBudget`] the buckets spill to
//!   checksummed run files and are read back in map-task order, so the
//!   result is bit-identical wherever the data lived.
//! * **Per-stage metrics** ([`StageLog`]) so the harness can report the
//!   matching phase's share of total runtime (§6.2).
//! * **Fail-fast failure handling**: every task is panic-isolated; the
//!   first failure stops the stage, which returns a structured
//!   [`DataflowError`] (typed when a task raised one) instead of unwinding
//!   through the worker pool. Cancellation ([`CancelToken`], a wall-clock
//!   deadline included) is polled at task and barrier boundaries. There is no
//!   task retry — tasks are deterministic closures over resident input;
//!   recovery is the checkpoint barriers' job.
//! * **Observability**: an [`Observer`] installed on the executor receives
//!   stage completions and named domain counters (one enum-discriminant
//!   check when off); a [`TraceCollector`] plus the annotated [`StageLog`]
//!   assemble into a versioned JSON [`RunTrace`] run report.
//! * **Crash-safe checkpointing**: a [`CheckpointStore`] materializes
//!   pipeline state at stage barriers, one checksummed segment file a
//!   barrier committed by temp-file + fsync + rename (`checkpoint`
//!   module); the pipeline snapshots every barrier, and the recovery
//!   scanner resumes from the newest *complete* barrier, falling back past
//!   torn or bit-flipped files instead of trusting them.
//!
//! ```
//! use minoaner_dataflow::{DataflowError, Executor};
//!
//! let exec = Executor::new(4);
//! let docs = ["a b", "b c", "a"];
//! let lengths = exec.run_stage("tokenize", docs.len(), |i| docs[i].split(' ').count());
//! assert_eq!(lengths, vec![2, 2, 1]);
//!
//! let err = exec.try_run_stage("poison", 4, |i| assert!(i != 2, "bad task")).unwrap_err();
//! assert!(matches!(err, DataflowError::TaskPanicked { task: 2, .. }));
//! assert_eq!(exec.stage_log().stages().len(), 2);
//! ```

// Panics are denied in library code outside tests; each audited exception
// is an item- or statement-level `#[expect(…, reason = "bound: …")]`,
// counted per file by tests/manifests.rs (DESIGN.md §12).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)
)]

pub mod budget;
pub mod cancel;
pub mod checkpoint;
pub mod error;
pub mod metrics;
pub mod observer;
pub mod pool;
pub mod spill;
pub mod trace;

/// The virtual-filesystem seam every durable path writes through —
/// re-exported from `minoaner-det` so `kb` (det-only deps) and `jobs`
/// (dataflow deps) reach the same types without a dependency cycle.
pub use minoaner_det::vfs;

pub use budget::MemoryBudget;
pub use cancel::{CancelReason, CancelToken};
pub use checkpoint::{
    CheckpointError, CheckpointStore, DegradeOnCkptError, RecoveredStage, Recovery,
    CHECKPOINT_SCHEMA_VERSION,
};
pub use minoaner_det::vfs::{FaultFs, FaultKind, FaultPlan, RealFs, Vfs, VfsRef};
pub use error::DataflowError;
pub use metrics::{StageIo, StageLog, StageMetric};
pub use observer::{Observer, TraceCollector};
pub use pool::Executor;
pub use spill::{
    SpillShuffle, Spillable, SPILL_BYTES_COUNTER, SPILL_RECORDS_COUNTER, SPILL_RUNS_COUNTER,
};
pub use trace::{RunTrace, TRACE_SCHEMA_VERSION};
