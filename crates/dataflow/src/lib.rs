//! # minoaner-dataflow
//!
//! A hand-rolled, shared-memory parallel dataflow engine standing in for
//! Apache Spark, which the original MinoanER implementation runs on (§4.1,
//! Figure 4 of the paper).
//!
//! The engine reproduces the execution model that matters to the paper's
//! efficiency evaluation:
//!
//! * **Partitioned collections** ([`Pdc`]) transformed by whole-stage
//!   operators — map, flat-map, filter, group-by-key, reduce-by-key, join —
//!   each running one task per partition.
//! * **Stage barriers**: a stage completes only when all of its tasks have
//!   (the dashed synchronization edges of Figure 4).
//! * **A bounded worker pool** ([`Executor`]): the worker count is the
//!   experimental knob behind the Figure 6 speedup curves, with the paper's
//!   convention of 3 tasks per machine core held constant across runs.
//!   Workers claim a stage's tasks from one shared counter, as Spark's
//!   executors take them from one driver-side queue.
//! * **Broadcast variables** ([`Broadcast`]) for the R1-match exclusion set.
//! * **Per-stage metrics** ([`StageLog`]) so the harness can report the
//!   matching phase's share of total runtime (§6.2).
//! * **Task-level fault tolerance**: every task is panic-isolated, and the
//!   fallible operators (`try_run_stage`, `try_map_partitions`,
//!   `try_shuffle`) apply a [`FaultPolicy`] — bounded retries, stage
//!   deadlines, and fail-fast vs. skip-partition semantics — returning a
//!   structured [`DataflowError`] instead of unwinding through the worker
//!   pool. A deterministic fault-injection harness lives behind the
//!   `fault-inject` feature (`faultinject` module).
//! * **Observability**: an [`Observer`] installed on the executor receives
//!   stage completions and named domain counters (one enum-discriminant
//!   check when off); a [`TraceCollector`] plus the annotated [`StageLog`]
//!   assemble into a versioned JSON [`RunTrace`] run report.
//! * **Crash-safe checkpointing**: a [`CheckpointStore`] materializes
//!   pipeline state at stage barriers with an atomic temp-file + rename +
//!   fsync protocol, per-file content hashes and a versioned manifest
//!   (`checkpoint` module); a [`CheckpointPolicy`] on the executor decides
//!   which barriers to snapshot, and the recovery scanner resumes from the
//!   newest *complete* barrier, falling back past torn or bit-flipped
//!   files instead of trusting them.
//!
//! ```
//! use minoaner_dataflow::{Executor, Pdc};
//!
//! let exec = Executor::new(4);
//! let counts = Pdc::from_vec(&exec, vec!["a b", "b c", "a"])
//!     .flat_map(&exec, "tokenize", |s: &str| s.split(' ').collect::<Vec<_>>())
//!     .map(&exec, "pair", |t| (t, 1u32))
//!     .reduce_by_key(&exec, "count", |a, b| a + b)
//!     .collect();
//! assert_eq!(counts.len(), 3);
//! ```

pub mod broadcast;
pub mod budget;
pub mod cancel;
pub mod checkpoint;
pub mod error;
#[cfg(feature = "fault-inject")]
pub mod faultinject;
pub mod metrics;
pub mod observer;
pub mod ops;
pub mod pdc;
pub mod pool;
pub mod spill;
pub mod trace;

/// The virtual-filesystem seam every durable path writes through —
/// re-exported from `minoaner-det` so `kb` (det-only deps) and `jobs`
/// (dataflow deps) reach the same types without a dependency cycle.
pub use minoaner_det::vfs;

pub use broadcast::Broadcast;
pub use budget::MemoryBudget;
pub use cancel::{CancelReason, CancelToken};
pub use checkpoint::{
    CheckpointError, CheckpointPolicy, CheckpointStore, DegradeOnCkptError, RecoveredStage,
    Recovery, CHECKPOINT_SCHEMA_VERSION,
};
pub use minoaner_det::vfs::{FaultFs, FaultKind, FaultPlan, RealFs, Vfs, VfsRef};
pub use error::DataflowError;
pub use metrics::{StageIo, StageLog, StageMetric};
pub use observer::{Observer, ObserverSlot, TraceCollector};
pub use pdc::{DetHashMap, DetHashSet, Pdc};
pub use pool::{Deadline, Executor, ExecutorConfig, FailureAction, FaultPolicy, StageOutput};
pub use spill::{
    SpillShuffle, Spillable, SPILL_BYTES_COUNTER, SPILL_RECORDS_COUNTER, SPILL_RUNS_COUNTER,
};
pub use trace::{RunTrace, TRACE_SCHEMA_VERSION};
