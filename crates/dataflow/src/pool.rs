//! The executor: a bounded pool of workers running stages of independent
//! tasks with a barrier after every stage.
//!
//! This mirrors the execution model the paper gets from Spark (§4.1,
//! Figure 4): each stage is split into tasks (one per partition), however
//! many workers are available each claim the next task from one shared
//! counter, and the stage completes only when every task has finished (the
//! dashed synchronization edges of Figure 4).
//! The worker count is the knob behind the Figure 6 scalability experiment.
//!
//! Failure handling is fail-fast: every task runs under `catch_unwind`, so
//! a panicking task does not unwind through the worker scope and kill the
//! run — it stops the stage, which reports the lowest-indexed failure as a
//! precise [`DataflowError`]. There is no task retry: tasks are
//! deterministic closures over resident input, so a second attempt can
//! only fail the same way, and I/O failures are terminal by design
//! (recovery is the checkpoint barriers' job, DESIGN.md §13).

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use minoaner_det::lock;

use crate::budget::MemoryBudget;
use crate::cancel::{CancelReason, CancelToken};
use crate::error::DataflowError;
use crate::metrics::{StageIo, StageLog, StageMetric};
use crate::observer::{Observer, ObserverSlot};

/// An absolute wall-clock deadline, used as the per-job watchdog by
/// `minoaner-jobs`.
///
/// The type lives in `pool.rs` — not in the jobs crate — because this file
/// carries the repo's sanctioned wall-clock allowance (the R3 entry in
/// `lint-allow.toml`); job-level code only ever consumes the clock through
/// [`Self::remaining`]/[`Self::expired`], keeping `minoaner-jobs` free of
/// raw `Instant::now` calls and of lint-allow entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    // Sanctioned wall-clock use; see the R3 entry for this file in
    // lint-allow.toml.
    #[allow(clippy::disallowed_methods)]
    pub fn after(budget: Duration) -> Self {
        Self { at: Instant::now() + budget }
    }

    /// Time left before the deadline, zero once expired.
    // Sanctioned wall-clock use; see the R3 entry for this file in
    // lint-allow.toml.
    #[allow(clippy::disallowed_methods)]
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.remaining().is_zero()
    }
}

/// Configuration of an [`Executor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Number of worker threads running tasks concurrently.
    pub workers: usize,
    /// Number of partitions (= tasks per stage). The paper uses a
    /// parallelism factor of 3 tasks per core so that task sizes stay
    /// constant as cores vary (§6.2); [`ExecutorConfig::for_workers`]
    /// follows that convention.
    pub partitions: usize,
}

impl ExecutorConfig {
    /// The paper's setup: `partitions = 3 × total machine cores`, held
    /// constant while `workers` varies.
    pub fn for_workers(workers: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        Self { workers: workers.max(1), partitions: 3 * cores }
    }
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        Self { workers: cores, partitions: 3 * cores }
    }
}

/// Runs dataflow stages on a fixed number of workers, recording per-stage
/// metrics.
#[derive(Debug)]
pub struct Executor {
    config: ExecutorConfig,
    log: Mutex<StageLog>,
    observer: ObserverSlot,
    /// Cooperative cancellation flag, polled at worker claim boundaries
    /// and (via [`Self::check_cancelled`]) at pipeline barriers. A fresh,
    /// never-cancelled token by default.
    cancel: CancelToken,
    /// Optional job-level wall-clock deadline, polled where the token is.
    /// Expiry latches the token with [`CancelReason::Deadline`] and
    /// surfaces as [`DataflowError::Cancelled`].
    deadline: Option<Deadline>,
    /// Optional heap ceiling for data-exchange stages. When set, shuffle
    /// producers reserve against it and degrade to spill-to-disk runs
    /// ([`crate::spill`]) instead of buffering without bound. `None`
    /// (the default) means fully in-memory execution.
    memory: Option<MemoryBudget>,
}

impl Default for Executor {
    fn default() -> Self {
        Self::with_config(ExecutorConfig::default())
    }
}

impl Executor {
    /// An executor with `workers` workers and the default partition count.
    pub fn new(workers: usize) -> Self {
        Self::with_config(ExecutorConfig::for_workers(workers))
    }

    /// An executor with an explicit configuration.
    pub fn with_config(config: ExecutorConfig) -> Self {
        assert!(config.workers >= 1, "at least one worker required");
        assert!(config.partitions >= 1, "at least one partition required");
        crate::budget::pin_mmap_threshold();
        Self {
            config,
            log: Mutex::new(StageLog::default()),
            observer: ObserverSlot::Off,
            cancel: CancelToken::new(),
            deadline: None,
            memory: None,
        }
    }

    /// Installs a memory budget; shuffle stages reserve their buffered
    /// bytes against it and spill to its directory when over. Budgeted
    /// and unbudgeted runs produce bit-identical results — the budget
    /// changes *where* intermediate data lives, never its merge order.
    pub fn set_memory_budget(&mut self, budget: Option<MemoryBudget>) {
        self.memory = budget;
    }

    /// The installed memory budget, if any.
    pub fn memory_budget(&self) -> Option<&MemoryBudget> {
        self.memory.as_ref()
    }

    /// Installs a shared [`CancelToken`]; the party holding another clone
    /// can cancel this executor's stages cooperatively.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// The executor's cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Sets (or clears) the job-level wall-clock deadline. See the field
    /// docs: expiry surfaces as a [`CancelReason::Deadline`] cancellation.
    pub fn set_deadline(&mut self, deadline: Option<Deadline>) {
        self.deadline = deadline;
    }

    /// The active job-level deadline, if any.
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// The reason this run must stop, if any: latches the token with
    /// [`CancelReason::Deadline`] once the job deadline has passed, then
    /// reads the token.
    fn stop_reason(&self) -> Option<CancelReason> {
        if self.deadline.is_some_and(|d| d.expired()) {
            self.cancel.cancel(CancelReason::Deadline);
        }
        self.cancel.reason()
    }

    /// Polls cancellation (and the job deadline) between stages. Pipeline
    /// drivers call this at barrier boundaries — after a checkpoint write
    /// completes and before the next stage starts — so a cancelled
    /// checkpointed run stops with only complete barriers on disk.
    pub fn check_cancelled(&self, at: &str) -> Result<(), DataflowError> {
        match self.stop_reason() {
            Some(reason) => Err(DataflowError::Cancelled {
                stage: at.to_owned(),
                reason,
                completed: 0,
                tasks: 0,
            }),
            None => Ok(()),
        }
    }

    /// Installs an [`Observer`] that receives stage completions and
    /// counter emissions. Takes `&mut self` so the hot path can read the
    /// slot without synchronization: with no observer installed, every
    /// [`Self::emit_counter`] call is one enum-discriminant check.
    pub fn set_observer(&mut self, observer: Arc<dyn Observer>) {
        self.observer = ObserverSlot::On(observer);
    }

    /// Removes the installed observer, returning emission to the free
    /// [`ObserverSlot::Off`] path.
    pub fn clear_observer(&mut self) {
        self.observer = ObserverSlot::Off;
    }

    /// The current observer slot.
    pub fn observer(&self) -> &ObserverSlot {
        &self.observer
    }

    /// Emits a named domain counter to the installed observer, if any.
    /// Repeated emissions under one name are summed by collectors.
    #[inline]
    pub fn emit_counter(&self, name: &str, value: u64) {
        self.observer.counter(name, value);
    }

    /// Merges data-volume facts into the most recent log record for stage
    /// `name`. Operators call this after the stage barrier, once output
    /// sizes are known. Unknown names are ignored (the annotation is
    /// advisory, never load-bearing).
    pub fn annotate_last_stage(&self, name: &str, io: StageIo) {
        lock(&self.log).annotate_last(name, io);
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Number of partitions a collection is split into by default.
    pub fn partitions(&self) -> usize {
        self.config.partitions
    }

    /// [`Self::try_run_stage`] for the pipeline's infallible signatures: a
    /// stage failure is re-raised in the calling thread as a panic whose
    /// payload is the structured [`DataflowError`], so a pipeline boundary
    /// can recover it with [`DataflowError::from_panic`].
    pub fn run_stage<T, F>(&self, name: &str, n: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.try_run_stage(name, n, task) {
            Ok(results) => results,
            Err(e) => std::panic::panic_any(e),
        }
    }

    /// Runs `n` independent tasks, returning their results in task order,
    /// and records the stage under `name` whether it succeeds or fails.
    /// Up to [`Self::workers`] worker threads claim the next task index
    /// from one shared counter, the way Spark hands `3 × cores` tasks out
    /// of one driver-side queue (§4.1), so skewed task sizes balance:
    /// whoever finishes first takes more.
    ///
    /// Each task runs once, under its own `catch_unwind`. The first
    /// failure stops further claims and fails the stage with the
    /// lowest-indexed failed task: [`DataflowError::TaskPanicked`] for an
    /// ordinary panic, or — kept typed — the [`DataflowError`] a task
    /// raised with `panic_any` (the spill I/O helpers do, for a full
    /// disk). Cancellation and the job deadline are polled before every
    /// claim and end the stage with [`DataflowError::Cancelled`].
    // Stage timing is the sanctioned wall-clock use; see the R3 entry
    // for this file in lint-allow.toml.
    #[allow(clippy::disallowed_methods)]
    pub fn try_run_stage<T, F>(&self, name: &str, n: usize, task: F) -> Result<Vec<T>, DataflowError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let start = Instant::now();
        let slots: Vec<Mutex<Option<Result<T, DataflowError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        // The one claim protocol: `fetch_add` hands every index out
        // exactly once, in ascending order. Relaxed is enough — the
        // counter publishes no data; results travel through the slot
        // mutexes and the scope join.
        let next = AtomicUsize::new(0);
        let fatal = AtomicBool::new(false);
        let cancelled = AtomicBool::new(false);

        // Invariant relied on below: a worker never exits between claiming
        // an index and writing its slot, so when `cancelled` is not set,
        // every index 0..n has a populated slot after the join.
        // Claim-exactly-once and the cancel races are modeled in
        // tools/loom-models/tests/loom_models.rs.
        let worker_loop = || {
            while !fatal.load(Ordering::SeqCst) && !cancelled.load(Ordering::SeqCst) {
                if self.stop_reason().is_some() {
                    cancelled.store(true, Ordering::SeqCst);
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| task(i))).map_err(
                    // A `panic_any(DataflowError)` payload is a structured
                    // engine failure (full disk, torn spill run): it is
                    // carried through typed instead of stringified.
                    |payload| match payload.downcast::<DataflowError>() {
                        Ok(error) => *error,
                        Err(other) => DataflowError::TaskPanicked {
                            stage: name.to_owned(),
                            task: i,
                            payload: DataflowError::panic_message(other.as_ref()),
                        },
                    },
                );
                let failed = outcome.is_err();
                *lock(&slots[i]) = Some(outcome);
                if failed {
                    fatal.store(true, Ordering::SeqCst);
                    break;
                }
            }
        };

        match self.config.workers.min(n) {
            0 => {}
            1 => worker_loop(),
            workers => {
                // Tasks are panic-isolated, so a worker unwinding is itself
                // a bug; the scope re-raises it once every worker has joined.
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(worker_loop);
                    }
                });
            }
        }

        let outcomes: Vec<Result<T, DataflowError>> = slots
            .into_iter()
            .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        self.record(StageMetric {
            name: name.to_owned(),
            wall: start.elapsed(),
            tasks: n,
            attempts: outcomes.len(),
            retries: 0,
            skipped: 0,
            io: StageIo::default(),
        });

        // Slots are in task order, so the first error is the lowest-indexed
        // failed task whichever worker hit it first.
        let done = outcomes.into_iter().collect::<Result<Vec<T>, DataflowError>>()?;
        if cancelled.load(Ordering::SeqCst) {
            return Err(DataflowError::Cancelled {
                stage: name.to_owned(),
                reason: self.cancel.reason().unwrap_or(CancelReason::User),
                completed: done.len(),
                tasks: n,
            });
        }
        assert_eq!(done.len(), n, "no abort flag set, so every task must have run");
        Ok(done)
    }

    /// Times an arbitrary closure as a named stage (for sequential steps
    /// that should still show up in the stage log).
    // Stage timing is the sanctioned wall-clock use; see the R3 entry
    // for this file in lint-allow.toml.
    #[allow(clippy::disallowed_methods)]
    pub fn time_stage<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(StageMetric::clean(name, start.elapsed(), 1));
        out
    }

    /// Hands a finished stage to the observer and the stage log.
    fn record(&self, metric: StageMetric) {
        self.observer.stage(&metric);
        lock(&self.log).push(metric);
    }

    /// Snapshot of the stage log.
    pub fn stage_log(&self) -> StageLog {
        lock(&self.log).clone()
    }

    /// Clears the stage log (e.g. between experiment repetitions).
    pub fn reset_metrics(&self) {
        lock(&self.log).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_stage_returns_results_in_task_order() {
        let exec = Executor::new(4);
        let out = exec.run_stage("square", 100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn run_stage_with_zero_tasks() {
        let exec = Executor::new(2);
        let out: Vec<usize> = exec.run_stage("empty", 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_is_sequential() {
        let exec = Executor::new(1);
        let order = Mutex::new(Vec::new());
        exec.run_stage("seq", 10, |i| lock(&order).push(i));
        assert_eq!(*lock(&order), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let exec = Executor::new(8);
        let counter = AtomicU64::new(0);
        exec.run_stage("count", 1000, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn metrics_record_stages_in_order() {
        let exec = Executor::new(2);
        exec.run_stage("first", 4, |i| i);
        exec.time_stage("second", || ());
        let log = exec.stage_log();
        let names: Vec<_> = log.stages().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["first", "second"]);
        assert_eq!(log.stages()[0].tasks, 4);
        assert_eq!(log.stages()[0].attempts, 4);
        assert_eq!(log.stages()[0].retries, 0);
        exec.reset_metrics();
        assert!(exec.stage_log().stages().is_empty());
    }

    #[test]
    fn config_for_workers_uses_parallelism_factor_three() {
        let cfg = ExecutorConfig::for_workers(2);
        assert_eq!(cfg.workers, 2);
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        assert_eq!(cfg.partitions, 3 * cores);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        Executor::with_config(ExecutorConfig { workers: 0, partitions: 1 });
    }

    #[test]
    fn heavy_skew_still_completes() {
        // One huge task plus many small ones: dynamic pulling must not
        // deadlock or drop tasks.
        let exec = Executor::new(4);
        let out = exec.run_stage("skew", 16, |i| {
            if i == 0 {
                (0..100_000u64).sum::<u64>()
            } else {
                i as u64
            }
        });
        assert_eq!(out[0], 4_999_950_000);
        assert_eq!(out[5], 5);
    }

    #[test]
    // The wait limit below is a test timeout, not a measurement.
    #[allow(clippy::disallowed_methods)]
    fn stuck_task_does_not_hold_back_unclaimed_tasks() {
        // Task 0 returns only once the other 15 have finished, so the
        // stage completes only if the second worker keeps claiming while
        // the first is stuck. Any static task-to-worker assignment leaves
        // some of the 15 behind task 0 and trips the wait limit.
        let exec = Executor::new(2);
        let done = AtomicUsize::new(0);
        let values = exec
            .try_run_stage("skew-claim", 16, |i| {
                if i == 0 {
                    let start = Instant::now();
                    while done.load(Ordering::SeqCst) < 15 {
                        assert!(
                            start.elapsed() < Duration::from_secs(20),
                            "tasks were left waiting behind the stuck task 0"
                        );
                        std::thread::yield_now();
                    }
                } else {
                    done.fetch_add(1, Ordering::SeqCst);
                }
                i * 2
            })
            .unwrap();
        assert_eq!(values, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn try_run_stage_isolates_a_panicking_task() {
        let exec = Executor::new(4);
        let err = exec
            .try_run_stage("poison", 8, |i| {
                if i == 3 {
                    panic!("task 3 is poisoned");
                }
                i
            })
            .unwrap_err();
        match err {
            DataflowError::TaskPanicked { stage, task, payload } => {
                assert_eq!(stage, "poison");
                assert_eq!(task, 3);
                assert!(payload.contains("poisoned"));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn run_stage_panics_with_structured_payload() {
        let exec = Executor::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec.run_stage("boom", 4, |i| {
                if i == 2 {
                    panic!("kaboom");
                }
                i
            })
        }))
        .unwrap_err();
        let err = DataflowError::from_panic(caught);
        match err {
            DataflowError::TaskPanicked { stage, task, .. } => {
                assert_eq!(stage, "boom");
                assert_eq!(task, 2);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn observer_sees_stages_and_counters() {
        let mut exec = Executor::new(2);
        let collector = crate::observer::TraceCollector::new();
        exec.set_observer(collector.clone());
        assert!(exec.observer().is_on());
        exec.run_stage("obs", 4, |i| i);
        exec.emit_counter("domain/things", 7);
        exec.emit_counter("domain/things", 3);
        assert_eq!(collector.stages_seen(), 1);
        assert_eq!(collector.counters()["domain/things"], 10);
        exec.clear_observer();
        exec.emit_counter("domain/things", 99);
        assert_eq!(collector.counters()["domain/things"], 10, "cleared observer gets nothing");
        assert!(!exec.observer().is_on());
    }

    #[test]
    fn annotate_last_stage_merges_io() {
        let exec = Executor::new(2);
        exec.run_stage("annotated", 4, |i| i);
        exec.annotate_last_stage("annotated", StageIo::items(40, 20));
        exec.annotate_last_stage("absent", StageIo::items(1, 1)); // ignored
        let log = exec.stage_log();
        assert_eq!(log.find("annotated").unwrap().io.items_in, 40);
        assert_eq!(log.find("annotated").unwrap().io.items_out, 20);
    }

    #[test]
    fn cancel_before_stage_stops_before_any_task() {
        let mut exec = Executor::new(2);
        let token = CancelToken::new();
        exec.set_cancel_token(token.clone());
        token.cancel(CancelReason::User);
        let ran = AtomicU64::new(0);
        let err = exec
            .try_run_stage("never", 8, |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                i
            })
            .unwrap_err();
        match err {
            DataflowError::Cancelled { stage, reason, completed, tasks } => {
                assert_eq!(stage, "never");
                assert_eq!(reason, CancelReason::User);
                assert_eq!(completed, 0);
                assert_eq!(tasks, 8);
            }
            other => panic!("unexpected error: {other}"),
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0, "no task runs after cancellation");
    }

    #[test]
    fn cancel_mid_stage_keeps_completed_tasks_and_stops() {
        // Single worker => sequential claims: task 2 cancels the token,
        // so tasks 0..=2 complete and 3.. are never claimed.
        let mut exec = Executor::new(1);
        let token = CancelToken::new();
        exec.set_cancel_token(token.clone());
        let ran = AtomicU64::new(0);
        let err = exec
            .try_run_stage("halfway", 16, |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                if i == 2 {
                    token.cancel(CancelReason::Shutdown);
                }
                i
            })
            .unwrap_err();
        match err {
            DataflowError::Cancelled { reason, completed, tasks, .. } => {
                assert_eq!(reason, CancelReason::Shutdown);
                assert_eq!(completed, 3, "tasks 0..=2 completed before the flag was seen");
                assert_eq!(tasks, 16);
            }
            other => panic!("unexpected error: {other}"),
        }
        assert_eq!(ran.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn job_deadline_surfaces_as_deadline_cancellation() {
        let mut exec = Executor::new(2);
        exec.set_deadline(Some(Deadline::after(Duration::from_millis(20))));
        let err = exec
            .try_run_stage("slow", 4, |i| {
                std::thread::sleep(Duration::from_millis(60));
                i
            })
            .unwrap_err();
        match err {
            DataflowError::Cancelled { reason, .. } => {
                assert_eq!(reason, CancelReason::Deadline);
            }
            other => panic!("unexpected error: {other}"),
        }
        assert!(exec.cancel_token().is_cancelled(), "deadline expiry latches the token");
        assert_eq!(exec.cancel_token().reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn check_cancelled_reports_barriers() {
        let mut exec = Executor::new(1);
        assert!(exec.check_cancelled("barrier:blocks").is_ok());
        let token = CancelToken::new();
        exec.set_cancel_token(token.clone());
        token.cancel(CancelReason::User);
        let err = exec.check_cancelled("barrier:blocks").unwrap_err();
        match err {
            DataflowError::Cancelled { stage, reason, completed, tasks } => {
                assert_eq!(stage, "barrier:blocks");
                assert_eq!(reason, CancelReason::User);
                assert_eq!((completed, tasks), (0, 0));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn expired_deadline_trips_check_cancelled() {
        let mut exec = Executor::new(1);
        exec.set_deadline(Some(Deadline::after(Duration::ZERO)));
        let err = exec.check_cancelled("barrier:graph").unwrap_err();
        assert_eq!(err.cancel_reason(), Some(CancelReason::Deadline));
    }
}
