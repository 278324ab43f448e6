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
//! Fault tolerance: every task runs under `catch_unwind`, so a panicking
//! task no longer unwinds through the worker scope and kills the run.
//! A [`FaultPolicy`] decides what happens next — bounded retries with an
//! optional backoff, a cooperative per-stage deadline, and a choice between
//! failing the stage with a precise [`DataflowError`] or skipping the
//! poisoned partition with the loss recorded in the [`StageLog`].

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::budget::MemoryBudget;
use crate::cancel::{CancelReason, CancelToken};
use crate::checkpoint::CheckpointPolicy;
use crate::error::DataflowError;
use crate::metrics::{StageIo, StageLog, StageMetric};
use crate::observer::{Observer, ObserverSlot};

/// What to do with a task that keeps panicking after its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureAction {
    /// Fail the whole stage with [`DataflowError::TaskPanicked`] (default).
    #[default]
    Fail,
    /// Drop the task's partition, complete the stage, and record the loss
    /// in the stage metrics. The matching analogue of Spark jobs that
    /// blacklist bad input splits rather than failing the job.
    SkipPartition,
}

/// Fault-handling policy for a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Additional attempts allowed per task after the first one panics.
    pub max_retries: u32,
    /// Sleep between attempts of the same task.
    pub retry_backoff: Duration,
    /// Wall-clock budget for the whole stage, checked cooperatively at
    /// task boundaries. `None` disables the deadline.
    pub stage_deadline: Option<Duration>,
    /// What to do once a task exhausts its retries.
    pub on_task_failure: FailureAction,
}

impl FaultPolicy {
    /// No retries, no deadline, fail fast: the policy of the infallible
    /// operators and the default for new executors.
    pub const fn none() -> Self {
        Self {
            max_retries: 0,
            retry_backoff: Duration::ZERO,
            stage_deadline: None,
            on_task_failure: FailureAction::Fail,
        }
    }

    /// A fail-fast policy allowing `max_retries` retries per task.
    pub const fn retries(max_retries: u32) -> Self {
        Self {
            max_retries,
            retry_backoff: Duration::ZERO,
            stage_deadline: None,
            on_task_failure: FailureAction::Fail,
        }
    }

    /// A policy that skips poisoned partitions after `max_retries` retries.
    pub const fn skip_after(max_retries: u32) -> Self {
        Self {
            max_retries,
            retry_backoff: Duration::ZERO,
            stage_deadline: None,
            on_task_failure: FailureAction::SkipPartition,
        }
    }

    /// Returns `self` with a stage deadline set.
    pub const fn with_deadline(mut self, deadline: Duration) -> Self {
        self.stage_deadline = Some(deadline);
        self
    }

    /// Returns `self` with a retry backoff set.
    pub const fn with_backoff(mut self, backoff: Duration) -> Self {
        self.retry_backoff = backoff;
        self
    }
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self::none()
    }
}

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
    /// Fault policy applied by the fallible (`try_*`) stage runners.
    /// Infallible operators always run under [`FaultPolicy::none`] because
    /// their consuming closures cannot be safely re-attempted.
    pub fault_policy: FaultPolicy,
}

impl ExecutorConfig {
    /// The paper's setup: `partitions = 3 × total machine cores`, held
    /// constant while `workers` varies.
    pub fn for_workers(workers: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        Self { workers: workers.max(1), partitions: 3 * cores, fault_policy: FaultPolicy::none() }
    }
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        Self { workers: cores, partitions: 3 * cores, fault_policy: FaultPolicy::none() }
    }
}

/// The result of a fault-tolerant stage that completed (possibly with
/// skipped partitions, if the policy allows them).
#[derive(Debug)]
pub struct StageOutput<T> {
    /// Per-task results in task order. `None` marks a task that exhausted
    /// its retries under [`FailureAction::SkipPartition`].
    pub results: Vec<Option<T>>,
    /// Indices of the skipped tasks, ascending.
    pub skipped: Vec<usize>,
    /// Total task attempts, including retries.
    pub attempts: usize,
    /// Attempts beyond the first per task (`attempts - tasks run`).
    pub retries: usize,
    /// Shallow per-task result footprint in bytes (`size_of::<T>()` per
    /// filled slot; skipped slots count 0). Heap payloads behind the
    /// result (`Vec` contents, boxed slices) are *not* traversed — stages
    /// that exchange bulk data account those against the run's
    /// [`crate::budget::MemoryBudget`] with their own estimates.
    pub partition_bytes: Vec<u64>,
}

impl<T> StageOutput<T> {
    /// Unwraps a stage that skipped nothing into plain per-task results.
    ///
    /// # Panics
    /// Panics if any task was skipped.
    pub fn expect_complete(self) -> Vec<T> {
        assert!(self.skipped.is_empty(), "stage skipped {} task(s)", self.skipped.len());
        let n = self.results.len();
        let out: Vec<T> = self.results.into_iter().flatten().collect();
        assert_eq!(out.len(), n, "every result slot is filled when nothing was skipped");
        out
    }

    /// Total shallow bytes across all task results.
    pub fn total_bytes(&self) -> u64 {
        self.partition_bytes.iter().sum()
    }
}

/// Attempt accounting for one stage run, recorded in the [`StageLog`]
/// whether the stage succeeded or failed.
#[derive(Debug, Default, Clone, Copy)]
struct TaskCounters {
    attempts: usize,
    retries: usize,
    skipped: usize,
}

/// A task's terminal state, written into its result slot.
enum TaskOutcome<T> {
    Ok(T),
    Failed { payload: String, attempts: u32 },
    /// The task raised a structured engine error via
    /// `panic_any(DataflowError)` (spill/checkpoint IO helpers inside
    /// infallible operator closures). Carried through typed so the
    /// stage surfaces it as-is instead of a stringified TaskPanicked.
    Raised { error: DataflowError },
}

/// Runs dataflow stages on a fixed number of workers, recording per-stage
/// metrics.
#[derive(Debug)]
pub struct Executor {
    config: ExecutorConfig,
    log: Mutex<StageLog>,
    observer: ObserverSlot,
    /// When pipelines should materialize crash-safe checkpoints at their
    /// stage barriers (consulted by checkpoint-aware pipeline drivers;
    /// [`CheckpointPolicy::Off`] by default).
    checkpoint: CheckpointPolicy,
    /// Cooperative cancellation flag, polled at worker claim boundaries,
    /// inside retry loops, and (via [`Self::check_cancelled`]) at pipeline
    /// barriers. A fresh, never-cancelled token by default.
    cancel: CancelToken,
    /// Optional job-level wall-clock deadline. When set, every stage's
    /// [`FaultPolicy::stage_deadline`] is clamped to the time remaining,
    /// and expiry surfaces as [`DataflowError::Cancelled`] with
    /// [`CancelReason::Deadline`] rather than a per-stage timeout.
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
        Self {
            config,
            log: Mutex::new(StageLog::default()),
            observer: ObserverSlot::Off,
            checkpoint: CheckpointPolicy::Off,
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
    /// docs: the deadline clamps every stage's `stage_deadline` and
    /// surfaces expiry as a [`CancelReason::Deadline`] cancellation.
    pub fn set_deadline(&mut self, deadline: Option<Deadline>) {
        self.deadline = deadline;
    }

    /// The active job-level deadline, if any.
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// Polls cancellation (and the job deadline) between stages. Pipeline
    /// drivers call this at barrier boundaries — after a checkpoint write
    /// completes and before the next stage starts — so a cancelled
    /// checkpointed run stops with only complete barriers on disk.
    pub fn check_cancelled(&self, at: &str) -> Result<(), DataflowError> {
        if let Some(deadline) = self.deadline {
            if deadline.expired() {
                self.cancel.cancel(CancelReason::Deadline);
            }
        }
        match self.cancel.reason() {
            Some(reason) => Err(DataflowError::Cancelled {
                stage: at.to_owned(),
                reason,
                completed: 0,
                tasks: 0,
            }),
            None => Ok(()),
        }
    }

    /// Clamps a stage policy to the job deadline: the effective stage
    /// deadline is the smaller of the policy's own and the time remaining
    /// on the job, so retry backoffs can never sleep a stage past the
    /// watchdog.
    fn clamp_to_deadline(&self, policy: FaultPolicy) -> FaultPolicy {
        let Some(deadline) = self.deadline else { return policy };
        let remaining = deadline.remaining();
        FaultPolicy {
            stage_deadline: Some(policy.stage_deadline.map_or(remaining, |d| d.min(remaining))),
            ..policy
        }
    }

    /// Sets the checkpoint policy consulted at stage barriers by
    /// checkpoint-aware pipeline drivers (e.g. `Minoaner::run_on` with a
    /// `ResolveRequest::checkpoint` spec).
    pub fn set_checkpoint_policy(&mut self, policy: CheckpointPolicy) {
        self.checkpoint = policy;
    }

    /// The active checkpoint policy.
    pub fn checkpoint_policy(&self) -> &CheckpointPolicy {
        &self.checkpoint
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
        self.log.lock().annotate_last(name, io);
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Number of partitions a collection is split into by default.
    pub fn partitions(&self) -> usize {
        self.config.partitions
    }

    /// The fault policy applied by the `try_*` stage runners.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.config.fault_policy
    }

    /// Runs `n` independent tasks, returning their results in task order,
    /// and records the stage under `name`. Up to [`Self::workers`] worker
    /// threads claim the next task index from one shared counter, the way
    /// Spark hands `3 × cores` tasks out of one driver-side queue (§4.1),
    /// so skewed task sizes balance: whoever finishes first takes more.
    ///
    /// Runs under [`FaultPolicy::none`]: a panicking task fails the stage
    /// immediately. The failure is re-raised in the calling thread as a
    /// panic whose payload is the structured [`DataflowError`], so a
    /// pipeline boundary can recover it with [`DataflowError::from_panic`].
    /// Use [`Self::try_run_stage`] for `Result`-based handling, retries,
    /// deadlines and partition skipping.
    pub fn run_stage<T, F>(&self, name: &str, n: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.try_run_stage_with_policy(name, n, task, FaultPolicy::none()) {
            Ok(out) => {
                let results: Vec<T> = out.results.into_iter().flatten().collect();
                assert_eq!(results.len(), n, "no skips under FaultPolicy::none");
                results
            }
            Err(e) => std::panic::panic_any(e),
        }
    }

    /// Fault-tolerant stage runner using the executor's configured
    /// [`FaultPolicy`]. Tasks may be attempted more than once, so `task`
    /// must be safe to re-run for the same index (idempotent and not
    /// consuming its input).
    pub fn try_run_stage<T, F>(
        &self,
        name: &str,
        n: usize,
        task: F,
    ) -> Result<StageOutput<T>, DataflowError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.try_run_stage_with_policy(name, n, task, self.config.fault_policy)
    }

    /// Like [`Self::try_run_stage`] with an explicit per-stage policy.
    // Stage timing is the sanctioned wall-clock use; see the R3 entry
    // for this file in lint-allow.toml.
    #[allow(clippy::disallowed_methods)]
    pub fn try_run_stage_with_policy<T, F>(
        &self,
        name: &str,
        n: usize,
        task: F,
        policy: FaultPolicy,
    ) -> Result<StageOutput<T>, DataflowError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let start = Instant::now();
        let policy = self.clamp_to_deadline(policy);
        let (result, counters) = self.try_run_tasks(name, n, &task, &policy);
        let metric = StageMetric {
            name: name.to_owned(),
            wall: start.elapsed(),
            tasks: n,
            attempts: counters.attempts,
            retries: counters.retries,
            skipped: counters.skipped,
            io: StageIo::default(),
        };
        self.observer.stage(&metric);
        self.log.lock().push(metric);
        result.map(|results| {
            let skipped: Vec<usize> =
                results.iter().enumerate().filter_map(|(i, r)| r.is_none().then_some(i)).collect();
            let slot = std::mem::size_of::<T>() as u64;
            let partition_bytes: Vec<u64> =
                results.iter().map(|r| if r.is_some() { slot } else { 0 }).collect();
            StageOutput {
                results,
                skipped,
                attempts: counters.attempts,
                retries: counters.retries,
                partition_bytes,
            }
        })
    }

    /// The stage engine: dynamic task pulling with per-task panic
    /// isolation, bounded retries, a cooperative deadline, and either
    /// fail-fast or skip semantics. Returns per-task results plus attempt
    /// accounting (recorded in the log even when the stage fails).
    // Stage timing is the sanctioned wall-clock use; see the R3 entry
    // for this file in lint-allow.toml.
    #[allow(clippy::disallowed_methods)]
    fn try_run_tasks<T, F>(
        &self,
        stage: &str,
        n: usize,
        task: &F,
        policy: &FaultPolicy,
    ) -> (Result<Vec<Option<T>>, DataflowError>, TaskCounters)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut counters = TaskCounters::default();
        if n == 0 {
            return (Ok(Vec::new()), counters);
        }
        let workers = self.config.workers.min(n);
        let start = Instant::now();

        // One attempt loop for one task: catch the unwind, retry within
        // budget (sleeping the backoff between attempts), and report the
        // terminal outcome plus the number of attempts used. The stage
        // deadline is also observed *mid-retry*: a task that keeps failing
        // under a long backoff must not sleep the stage past its deadline —
        // it returns `None` and the worker raises the timeout instead.
        // Cancellation is polled at the same point: a cancelled run must
        // not keep retrying a failing task, so the loop gives up with
        // `None` and the worker raises the cancelled flag instead.
        let run_one = |i: usize| -> (Option<TaskOutcome<T>>, u32) {
            let mut attempt: u32 = 0;
            loop {
                attempt += 1;
                match std::panic::catch_unwind(AssertUnwindSafe(|| task(i))) {
                    Ok(value) => return (Some(TaskOutcome::Ok(value)), attempt),
                    Err(payload) => {
                        // A `panic_any(DataflowError)` payload is a
                        // structured engine failure (full disk, torn
                        // checkpoint), not a flaky task: retrying cannot
                        // help and would re-run side-effecting IO, so it
                        // is terminal on the first attempt and kept typed.
                        let payload = match payload.downcast::<DataflowError>() {
                            Ok(error) => {
                                return (Some(TaskOutcome::Raised { error: *error }), attempt);
                            }
                            Err(other) => other,
                        };
                        if attempt > policy.max_retries {
                            let payload = DataflowError::panic_message(payload.as_ref());
                            return (
                                Some(TaskOutcome::Failed { payload, attempts: attempt }),
                                attempt,
                            );
                        }
                        if self.cancel.is_cancelled() {
                            return (None, attempt);
                        }
                        let mut backoff = policy.retry_backoff;
                        if let Some(deadline) = policy.stage_deadline {
                            let remaining = deadline.saturating_sub(start.elapsed());
                            if remaining.is_zero() {
                                return (None, attempt);
                            }
                            // Never sleep past the deadline: the retry
                            // after a capped sleep re-checks and raises
                            // the timeout promptly.
                            backoff = backoff.min(remaining);
                        }
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                    }
                }
            }
        };

        let slots: Vec<Mutex<Option<TaskOutcome<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // The one claim protocol: `fetch_add` hands every index out
        // exactly once, in ascending order. Relaxed is enough — the
        // counter publishes no data; results travel through the slot
        // mutexes and the scope join.
        let next = AtomicUsize::new(0);
        let fatal = AtomicBool::new(false);
        let timed_out = AtomicBool::new(false);
        let cancelled = AtomicBool::new(false);
        let attempts_total = AtomicUsize::new(0);

        // Invariant relied on below: a worker only exits between claiming
        // an index and writing its slot when it sets `timed_out` or
        // `cancelled`, so when no abort flag is set, every index 0..n has
        // a populated slot after the join. Claim-exactly-once and the
        // cancel races are modeled in dataflow/tests/loom_models.rs.
        let worker_loop = || {
            loop {
                if fatal.load(Ordering::SeqCst)
                    || timed_out.load(Ordering::SeqCst)
                    || cancelled.load(Ordering::SeqCst)
                {
                    break;
                }
                if self.cancel.is_cancelled() {
                    cancelled.store(true, Ordering::SeqCst);
                    break;
                }
                if let Some(deadline) = policy.stage_deadline {
                    if start.elapsed() >= deadline {
                        timed_out.store(true, Ordering::SeqCst);
                        break;
                    }
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let (outcome, used) = run_one(i);
                attempts_total.fetch_add(used as usize, Ordering::Relaxed);
                let Some(outcome) = outcome else {
                    // Deadline expired or cancellation observed mid-retry:
                    // the slot stays empty, which is fine — the abort
                    // result paths only count completed slots and never
                    // read unfinished ones.
                    if self.cancel.is_cancelled() {
                        cancelled.store(true, Ordering::SeqCst);
                    } else {
                        timed_out.store(true, Ordering::SeqCst);
                    }
                    break;
                };
                let failed =
                    matches!(outcome, TaskOutcome::Failed { .. } | TaskOutcome::Raised { .. });
                *slots[i].lock() = Some(outcome);
                if failed && policy.on_task_failure == FailureAction::Fail {
                    fatal.store(true, Ordering::SeqCst);
                    break;
                }
            }
        };

        if workers <= 1 {
            worker_loop();
        } else {
            let worker_loop = &worker_loop;
            // Tasks are panic-isolated, so a worker unwinding is itself a
            // bug; re-raise the original payload rather than wrapping it.
            if let Err(payload) = crossbeam::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(move |_| worker_loop());
                }
            }) {
                std::panic::panic_any(payload);
            }
        }

        counters.attempts = attempts_total.load(Ordering::Relaxed);
        let ran = slots.iter().filter(|s| s.lock().is_some()).count();
        counters.retries = counters.attempts.saturating_sub(ran);

        if fatal.load(Ordering::SeqCst) {
            // Report the lowest-indexed failed task for determinism.
            for (i, slot) in slots.iter().enumerate() {
                let guard = slot.lock();
                match guard.as_ref() {
                    Some(TaskOutcome::Failed { payload, attempts }) => {
                        let err = DataflowError::TaskPanicked {
                            stage: stage.to_owned(),
                            task: i,
                            attempts: *attempts,
                            payload: payload.clone(),
                        };
                        return (Err(err), counters);
                    }
                    Some(TaskOutcome::Raised { error }) => {
                        return (Err(error.clone()), counters);
                    }
                    _ => {}
                }
            }
            unreachable!("fatal flag set without a failed slot");
        }

        let completed_ok = || {
            slots.iter().filter(|s| matches!(s.lock().as_ref(), Some(TaskOutcome::Ok(_)))).count()
        };

        if cancelled.load(Ordering::SeqCst) {
            let reason = self.cancel.reason().unwrap_or(CancelReason::User);
            let err = DataflowError::Cancelled {
                stage: stage.to_owned(),
                reason,
                completed: completed_ok(),
                tasks: n,
            };
            return (Err(err), counters);
        }

        if timed_out.load(Ordering::SeqCst) {
            // A stage timeout caused by the *job* deadline (which clamps
            // every stage deadline) is a watchdog firing, not a stage
            // fault: latch the token so the rest of the run stops too, and
            // surface it as a cancellation.
            if self.deadline.map_or(false, |d| d.expired()) {
                self.cancel.cancel(CancelReason::Deadline);
                let reason = self.cancel.reason().unwrap_or(CancelReason::Deadline);
                let err = DataflowError::Cancelled {
                    stage: stage.to_owned(),
                    reason,
                    completed: completed_ok(),
                    tasks: n,
                };
                return (Err(err), counters);
            }
            let err = DataflowError::StageTimeout {
                stage: stage.to_owned(),
                deadline: policy.stage_deadline.unwrap_or_default(),
                completed: completed_ok(),
                tasks: n,
            };
            return (Err(err), counters);
        }

        let mut results: Vec<Option<T>> = Vec::with_capacity(n);
        for slot in slots {
            match slot.into_inner() {
                Some(TaskOutcome::Ok(value)) => results.push(Some(value)),
                Some(TaskOutcome::Failed { .. }) | Some(TaskOutcome::Raised { .. }) => {
                    counters.skipped += 1;
                    results.push(None);
                }
                None => unreachable!("no abort flag set, so every task must have run"),
            }
        }
        (Ok(results), counters)
    }

    /// Times an arbitrary closure as a named stage (for sequential steps
    /// that should still show up in the stage log).
    // Stage timing is the sanctioned wall-clock use; see the R3 entry
    // for this file in lint-allow.toml.
    #[allow(clippy::disallowed_methods)]
    pub fn time_stage<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let metric = StageMetric {
            name: name.to_owned(),
            wall: start.elapsed(),
            tasks: 1,
            attempts: 1,
            retries: 0,
            skipped: 0,
            io: StageIo::default(),
        };
        self.observer.stage(&metric);
        self.log.lock().push(metric);
        out
    }

    /// Snapshot of the stage log.
    pub fn stage_log(&self) -> StageLog {
        self.log.lock().clone()
    }

    /// Clears the stage log (e.g. between experiment repetitions).
    pub fn reset_metrics(&self) {
        self.log.lock().clear();
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
        exec.run_stage("seq", 10, |i| order.lock().push(i));
        assert_eq!(*order.lock(), (0..10).collect::<Vec<_>>());
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
        assert_eq!(cfg.fault_policy, FaultPolicy::none());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        Executor::with_config(ExecutorConfig { workers: 0, partitions: 1, ..Default::default() });
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
    fn stuck_task_does_not_hold_back_unclaimed_tasks() {
        // Task 0 returns only once the other 15 have finished, so the
        // stage completes only if the second worker keeps claiming while
        // the first is stuck. Any static task-to-worker assignment leaves
        // some of the 15 behind task 0 and trips the wait limit.
        let exec = Executor::new(2);
        let done = AtomicUsize::new(0);
        let out = exec
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
        let values = out.expect_complete();
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
            DataflowError::TaskPanicked { stage, task, attempts, payload } => {
                assert_eq!(stage, "poison");
                assert_eq!(task, 3);
                assert_eq!(attempts, 1);
                assert!(payload.contains("poisoned"));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn retry_recovers_a_flaky_task() {
        let exec = Executor::with_config(ExecutorConfig {
            workers: 2,
            partitions: 4,
            fault_policy: FaultPolicy::retries(2),
        });
        let failures = AtomicU64::new(0);
        let out = exec
            .try_run_stage("flaky", 4, |i| {
                if i == 1 && failures.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("first attempt fails");
                }
                i * 10
            })
            .unwrap();
        let values = out.expect_complete();
        assert_eq!(values, vec![0, 10, 20, 30]);
        let log = exec.stage_log();
        assert_eq!(log.stages()[0].attempts, 5, "4 tasks + 1 retry");
        assert_eq!(log.stages()[0].retries, 1);
        assert_eq!(log.stages()[0].skipped, 0);
    }

    #[test]
    fn skip_partition_records_the_loss() {
        let exec = Executor::with_config(ExecutorConfig {
            workers: 3,
            partitions: 6,
            fault_policy: FaultPolicy::skip_after(0),
        });
        let out = exec
            .try_run_stage("lossy", 6, |i| {
                if i % 3 == 0 {
                    panic!("bad partition {i}");
                }
                i
            })
            .unwrap();
        assert_eq!(out.skipped, vec![0, 3]);
        assert_eq!(out.results[0], None);
        assert_eq!(out.results[1], Some(1));
        let log = exec.stage_log();
        assert_eq!(log.stages()[0].skipped, 2);
        assert_eq!(log.total_skipped(), 2);
    }

    #[test]
    fn deadline_fires_instead_of_hanging() {
        let exec = Executor::with_config(ExecutorConfig {
            workers: 2,
            partitions: 4,
            fault_policy: FaultPolicy::none().with_deadline(Duration::from_millis(30)),
        });
        let err = exec
            .try_run_stage("stall", 4, |i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(200));
                }
                i
            })
            .unwrap_err();
        match err {
            DataflowError::StageTimeout { stage, tasks, .. } => {
                assert_eq!(stage, "stall");
                assert_eq!(tasks, 4);
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
    fn cancel_interrupts_a_retry_loop() {
        // A task that always fails under a generous retry budget: cancelling
        // mid-retries must stop the loop instead of burning the budget.
        let mut exec = Executor::with_config(ExecutorConfig {
            workers: 1,
            partitions: 2,
            fault_policy: FaultPolicy::retries(1_000_000),
        });
        let token = CancelToken::new();
        exec.set_cancel_token(token.clone());
        let tries = AtomicU64::new(0);
        let err = exec
            .try_run_stage("hopeless", 1, |_| {
                if tries.fetch_add(1, Ordering::SeqCst) >= 2 {
                    token.cancel(CancelReason::User);
                }
                panic!("always fails");
            })
            .unwrap_err();
        assert!(matches!(err, DataflowError::Cancelled { .. }), "got {err}");
        assert!(tries.load(Ordering::SeqCst) < 10, "retry loop kept spinning after cancel");
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
    fn job_deadline_clamps_stage_policy_deadline() {
        let exec = {
            let mut e = Executor::new(1);
            e.set_deadline(Some(Deadline::after(Duration::from_millis(10))));
            e
        };
        // The stage's own generous deadline would allow a long sleep; the
        // job deadline must clamp it.
        let policy = FaultPolicy::none().with_deadline(Duration::from_secs(3600));
        let clamped = exec.clamp_to_deadline(policy);
        let stage_deadline = clamped.stage_deadline.unwrap_or_default();
        assert!(stage_deadline <= Duration::from_millis(10), "got {stage_deadline:?}");
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

    #[test]
    fn single_worker_honors_fault_policy() {
        let exec = Executor::with_config(ExecutorConfig {
            workers: 1,
            partitions: 3,
            fault_policy: FaultPolicy::skip_after(1),
        });
        let tries = AtomicU64::new(0);
        let out = exec
            .try_run_stage("seq-faults", 3, |i| {
                if i == 1 {
                    tries.fetch_add(1, Ordering::SeqCst);
                    panic!("always fails");
                }
                i
            })
            .unwrap();
        assert_eq!(out.skipped, vec![1]);
        assert_eq!(tries.load(Ordering::SeqCst), 2, "1 attempt + 1 retry");
        let log = exec.stage_log();
        assert_eq!(log.stages()[0].attempts, 4, "2 clean tasks + 2 attempts on task 1");
        assert_eq!(log.stages()[0].retries, 1);
    }
}
