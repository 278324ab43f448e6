//! The resolution-request API: one builder, one entry point, one result
//! shape.
//!
//! A [`ResolveRequest`] names the KB pair ([`ResolveRequest::pair`]) and
//! chains the orthogonal run options (rules, tracing, checkpointing,
//! cancellation, worker count, memory budget), so options compose — a
//! traced, checkpointed, budgeted run is one chain, not one more method.
//! [`Minoaner::run`] executes it and returns a [`ResolveOutcome`]: the
//! [`Resolution`], plus a [`RunTrace`] when the request traced or
//! checkpointed.
//!
//! A dirty KB is a self-pair ([`minoaner_kb::dirty::DirtyKbBuilder`]) and
//! goes through the same request; more than two KBs go through
//! [`Minoaner::resolve_multi`].
//!
//! ```
//! use minoaner_core::{Minoaner, ResolveOutcome, ResolveRequest};
//! use minoaner_kb::{KbPairBuilder, Side, Term};
//!
//! let mut b = KbPairBuilder::new();
//! b.add_triple(Side::Left, "l0", "label", Term::Literal("fat duck bray"));
//! b.add_triple(Side::Right, "r0", "name", Term::Literal("fat duck bray"));
//! let pair = b.finish();
//!
//! let ResolveOutcome { resolution, trace } = Minoaner::new()
//!     .run(ResolveRequest::pair(&pair).trace())
//!     .expect("healthy run succeeds");
//! assert_eq!(resolution.matches.len(), 1);
//! assert!(trace.expect("the request traced").workers >= 1);
//! ```

use minoaner_dataflow::{CancelToken, DataflowError, Executor, MemoryBudget, RunTrace, TraceCollector};
use minoaner_kb::KbPair;

use crate::config::RuleSet;
use crate::pipeline::{Minoaner, Resolution};
use crate::resume::CheckpointSpec;

/// A declarative description of one resolution run, executed by
/// [`Minoaner::run`].
///
/// Construct with [`ResolveRequest::pair`] and chain options. Unset
/// options keep the engine defaults: the full rule set, no trace, no
/// checkpointing, no cancellation wiring, one worker per core.
#[derive(Debug, Clone)]
pub struct ResolveRequest<'a> {
    pair: &'a KbPair,
    rules: RuleSet,
    trace: bool,
    checkpoint: Option<&'a CheckpointSpec>,
    cancel: CancelToken,
    workers: Option<usize>,
    mem_budget: Option<MemoryBudget>,
}

impl<'a> ResolveRequest<'a> {
    /// A request to resolve one KB pair end to end: two clean KBs, or the
    /// self-pair of one dirty KB built with
    /// [`minoaner_kb::dirty::DirtyKbBuilder`] (the pipeline reads
    /// [`KbPair::is_dirty`] and excludes identity pairs).
    pub fn pair(pair: &'a KbPair) -> Self {
        Self {
            pair,
            rules: RuleSet::FULL,
            trace: false,
            checkpoint: None,
            cancel: CancelToken::new(),
            workers: None,
            mem_budget: None,
        }
    }

    /// Selects the matching rules to run (Table 4 ablations). Defaults to
    /// [`RuleSet::FULL`].
    pub fn rules(mut self, rules: RuleSet) -> Self {
        self.rules = rules;
        self
    }

    /// Captures a [`RunTrace`] in [`ResolveOutcome::trace`]: a trace
    /// collector is installed on the executor for the duration of the run.
    /// Implied by [`Self::checkpoint`].
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Materializes pipeline state at stage barriers per `spec` and — when
    /// `spec.resume` is set — restores the newest valid checkpoint instead
    /// of recomputing the barriers it covers. A checkpointed run's
    /// [`ResolveOutcome::trace`] is always `Some`: its barriers snapshot
    /// the trace's counters.
    ///
    /// The spec also carries the run's graceful-degradation policy: with
    /// [`CheckpointSpec::on_error`] set to
    /// [`DegradeOnCkptError::Continue`](minoaner_dataflow::DegradeOnCkptError::Continue),
    /// a checkpoint I/O failure
    /// latches checkpointing off for the rest of the run (observable as
    /// the `ckpt/degraded` counter in the trace) instead of failing it —
    /// the output stays bit-identical, the run is merely not resumable.
    pub fn checkpoint(mut self, spec: &'a CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Installs a cancellation token on the run's executor, polled at task
    /// and barrier boundaries: a cancel through any handle on its state,
    /// or the expiry of a deadline it carries
    /// ([`CancelToken::expiring_after`]), surfaces as
    /// [`DataflowError::Cancelled`].
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The worker count of the executor [`Minoaner::run`] builds (the
    /// Figure 6 parallelism knob; one worker per core when unset). Results
    /// are bit-identical across worker counts.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Caps the run's shuffle heap at `budget` bytes; data-exchange stages
    /// that would exceed it degrade to spill-to-disk runs in the budget's
    /// directory instead of OOMing. Results are bit-identical to an
    /// unbudgeted run ([`BlockingGraph::weight_digest`] equality is pinned
    /// by the out-of-core test suite); the budget only moves intermediate
    /// data between heap and disk.
    ///
    /// [`BlockingGraph::weight_digest`]: minoaner_blocking::graph::BlockingGraph::weight_digest
    pub fn mem_budget(mut self, budget: MemoryBudget) -> Self {
        self.mem_budget = Some(budget);
        self
    }
}

/// What a [`ResolveRequest`] produced: the pair's resolution, and the
/// run's trace when the request asked for one ([`ResolveRequest::trace`]
/// or [`ResolveRequest::checkpoint`]).
#[derive(Debug)]
pub struct ResolveOutcome {
    /// The resolution of the request's pair. For a dirty self-pair,
    /// [`minoaner_kb::dirty::canonicalize_dirty_matches`] turns its matches
    /// into unordered duplicate pairs.
    pub resolution: Resolution,
    /// `Some` iff the request traced or checkpointed.
    pub trace: Option<RunTrace>,
}

impl ResolveOutcome {
    /// The resolution, without the trace.
    pub fn into_resolution(self) -> Resolution {
        self.resolution
    }
}

impl Minoaner {
    /// Executes a [`ResolveRequest`] on an executor of its own, dropped
    /// with the run.
    ///
    /// The executor has [`ResolveRequest::workers`] workers, or one per
    /// core ([`Executor::default`]), and carries the request's
    /// cancellation token and memory budget. A traced or checkpointed run
    /// installs a [`TraceCollector`] on it; the trace combines the
    /// collector's counters with the executor's stage log. A run restored
    /// from a checkpoint re-emits the checkpoint's counter snapshot, so
    /// its domain counters match an uninterrupted run's (only the `ckpt/*`
    /// accounting differs).
    pub fn run(&self, req: ResolveRequest<'_>) -> Result<ResolveOutcome, DataflowError> {
        let mut executor = req.workers.map_or_else(Executor::default, Executor::new);
        executor.set_cancel_token(req.cancel);
        executor.set_memory_budget(req.mem_budget);
        let collector = (req.trace || req.checkpoint.is_some()).then(TraceCollector::new);
        if let Some(collector) = &collector {
            executor.set_observer(collector.clone());
        }
        let checkpoint = req.checkpoint.zip(collector.as_deref());
        let resolution = self.resolve_impl(&executor, req.pair, req.rules, checkpoint)?;
        let trace = collector.map(|collector| {
            RunTrace::capture(
                executor.workers(),
                executor.partitions(),
                resolution.timings.total,
                &resolution.timings.stages,
                collector.counters(),
            )
        });
        Ok(ResolveOutcome { resolution, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoaner_kb::dirty::canonicalize_dirty_matches;
    use minoaner_kb::{EntityId, KbPairBuilder, Side, Term};

    /// Runs `req` traced and splits the outcome.
    fn traced(m: &Minoaner, req: ResolveRequest<'_>) -> (Resolution, RunTrace) {
        let ResolveOutcome { resolution, trace } = m.run(req.trace()).unwrap();
        (resolution, trace.expect("a traced run carries a trace"))
    }

    fn pair() -> KbPair {
        let mut b = KbPairBuilder::new();
        for (i, name) in
            ["fat duck bray", "noma copenhagen nordic", "el bulli roses"].iter().enumerate()
        {
            b.add_triple(Side::Left, &format!("l{i}"), "label", Term::Literal(name));
            b.add_triple(Side::Right, &format!("r{i}"), "name", Term::Literal(name));
        }
        b.finish()
    }

    #[test]
    fn plain_request_resolves() {
        let p = pair();
        let outcome = Minoaner::new().run(ResolveRequest::pair(&p)).unwrap();
        let resolution = outcome.into_resolution();
        assert_eq!(resolution.matches.len(), 3);
    }

    #[test]
    fn trace_request_carries_a_trace() {
        let p = pair();
        let (resolution, trace) = traced(&Minoaner::new(), ResolveRequest::pair(&p));
        assert_eq!(resolution.matches.len(), 3);
        assert!(!trace.stages.is_empty());
    }

    #[test]
    fn untraced_request_has_no_trace() {
        let p = pair();
        assert!(Minoaner::new().run(ResolveRequest::pair(&p)).unwrap().trace.is_none());
    }

    #[test]
    fn request_workers_size_the_executor() {
        let p = pair();
        let m = Minoaner::new();
        let (_, trace) = traced(&m, ResolveRequest::pair(&p).workers(3));
        assert_eq!(trace.workers, 3);
        let (_, trace) = traced(&m, ResolveRequest::pair(&p));
        assert_eq!(trace.workers, minoaner_dataflow::pool::available_cores(), "one worker per core");
    }

    #[test]
    fn rules_flow_through_the_request() {
        let p = pair();
        let resolution = Minoaner::new()
            .run(ResolveRequest::pair(&p).rules(RuleSet::R1_ONLY))
            .unwrap()
            .into_resolution();
        assert_eq!(resolution.rule_counts.r2, 0);
        assert_eq!(resolution.rule_counts.r3, 0);
    }

    #[test]
    fn cancelled_token_surfaces_structurally() {
        use minoaner_dataflow::CancelReason;
        let p = pair();
        let token = CancelToken::new();
        token.cancel(CancelReason::User);
        let err = Minoaner::new().run(ResolveRequest::pair(&p).cancel(token)).unwrap_err();
        match err {
            DataflowError::Cancelled { reason, .. } => assert_eq!(reason, CancelReason::User),
            other => panic!("unexpected error: {other}"),
        }
    }

    /// A token whose deadline has passed stops the run at its first
    /// barrier poll, before any stage.
    #[test]
    fn an_expired_token_cancels_at_the_start_barrier() {
        use minoaner_dataflow::CancelReason;
        let p = pair();
        let expired = CancelToken::new().expiring_after(std::time::Duration::ZERO);
        let err = Minoaner::new().run(ResolveRequest::pair(&p).cancel(expired)).unwrap_err();
        assert_eq!(
            err,
            DataflowError::Cancelled {
                stage: "barrier:start".into(),
                reason: CancelReason::Deadline,
                completed: 0,
                tasks: 0,
            }
        );
    }

    /// A dirty self-pair goes through the same request; its outcome has
    /// the same shape as a clean pair's.
    #[test]
    fn dirty_pair_is_read_from_the_pair() {
        let mut b = minoaner_kb::dirty::DirtyKbBuilder::new();
        b.add_triple("e0", "label", Term::Literal("fat duck bray"));
        b.add_triple("e1", "label", Term::Literal("fat duck bray"));
        let p = b.finish();
        let (resolution, _) = traced(&Minoaner::new(), ResolveRequest::pair(&p));
        assert!(resolution.matches.iter().all(|&(l, r)| l != r), "no identity pairs");
        let duplicates = canonicalize_dirty_matches(&resolution.matches);
        assert_eq!(duplicates, [(EntityId(0), EntityId(1))]);
    }
}
