//! The unified resolution-request API: one builder, one entry point.
//!
//! A [`ResolveRequest`] names the input ([`ResolveRequest::pair`] or
//! [`ResolveRequest::multi`]) and chains the orthogonal run options
//! (rules, tracing, checkpointing, cancellation, deadline, worker count,
//! memory budget, dirty/adaptive mode), so options compose — a traced
//! dirty run is one chain, not one more method; [`Minoaner::run`] executes
//! it and a [`ResolveOutcome`] carries whichever result shape the request
//! implies.
//!
//! ```
//! use minoaner_core::{Minoaner, ResolveRequest};
//! use minoaner_kb::{KbPairBuilder, Side, Term};
//!
//! let mut b = KbPairBuilder::new();
//! b.add_triple(Side::Left, "l0", "label", Term::Literal("fat duck bray"));
//! b.add_triple(Side::Right, "r0", "name", Term::Literal("fat duck bray"));
//! let pair = b.finish();
//!
//! let outcome = Minoaner::new()
//!     .run(ResolveRequest::pair(&pair).trace())
//!     .expect("healthy run succeeds");
//! let (resolution, trace) = outcome.into_traced();
//! assert_eq!(resolution.matches.len(), 1);
//! assert!(trace.workers >= 1);
//! ```

use minoaner_dataflow::{CancelToken, DataflowError, Deadline, Executor, MemoryBudget, RunTrace};
use minoaner_kb::dirty::canonicalize_dirty_matches;
use minoaner_kb::KbPair;

use crate::config::RuleSet;
use crate::dirty::DirtyResolution;
use crate::multi::{MultiKb, MultiResolution};
use crate::pipeline::{Minoaner, Resolution};
use crate::resume::CheckpointSpec;

/// What a [`ResolveRequest`] resolves: one clean KB pair (possibly marked
/// dirty) or `k ≥ 2` clean KBs.
#[derive(Debug, Clone, Copy)]
pub enum ResolveInput<'a> {
    /// A two-KB input (or a self-pair built by
    /// [`minoaner_kb::dirty::DirtyKbBuilder`] when combined with
    /// [`ResolveRequest::dirty`]).
    Pair(&'a KbPair),
    /// A k-partite input, resolved pairwise and clustered.
    Multi(&'a MultiKb),
}

/// A declarative description of one resolution run, executed by
/// [`Minoaner::run`] (or [`Minoaner::run_on`] against a caller-owned
/// executor).
///
/// Construct with [`ResolveRequest::pair`] / [`ResolveRequest::multi`] and
/// chain options. Unset options keep the engine defaults: the full rule
/// set, no trace, no checkpointing, no cancellation wiring, the
/// configuration's worker count.
#[derive(Debug, Clone)]
pub struct ResolveRequest<'a> {
    input: ResolveInput<'a>,
    rules: RuleSet,
    trace: bool,
    checkpoint: Option<&'a CheckpointSpec>,
    cancel: Option<CancelToken>,
    deadline: Option<Deadline>,
    adaptive: bool,
    dirty: bool,
    workers: Option<usize>,
    mem_budget: Option<MemoryBudget>,
}

impl<'a> ResolveRequest<'a> {
    fn new(input: ResolveInput<'a>) -> Self {
        Self {
            input,
            rules: RuleSet::FULL,
            trace: false,
            checkpoint: None,
            cancel: None,
            deadline: None,
            adaptive: false,
            dirty: false,
            workers: None,
            mem_budget: None,
        }
    }

    /// A request to resolve one clean KB pair end to end.
    pub fn pair(pair: &'a KbPair) -> Self {
        Self::new(ResolveInput::Pair(pair))
    }

    /// A request to resolve `k ≥ 2` clean KBs pairwise into k-partite
    /// clusters. Tracing, checkpointing, dirty and adaptive modes do not
    /// (yet) compose with multi-KB inputs.
    pub fn multi(input: &'a MultiKb) -> Self {
        Self::new(ResolveInput::Multi(input))
    }

    /// Selects the matching rules to run (Table 4 ablations). Defaults to
    /// [`RuleSet::FULL`].
    pub fn rules(mut self, rules: RuleSet) -> Self {
        self.rules = rules;
        self
    }

    /// Captures a [`RunTrace`] alongside the result: a trace collector is
    /// installed on the executor for the duration of the run. Implied by
    /// [`Self::checkpoint`].
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Materializes pipeline state at stage barriers per `spec` and — when
    /// `spec.resume` is set — restores the newest valid checkpoint instead
    /// of recomputing the barriers it covers. Checkpointed runs always
    /// carry a trace.
    ///
    /// The spec also carries the run's graceful-degradation policy: with
    /// [`CheckpointSpec::degrade_on_error`], a checkpoint I/O failure
    /// latches checkpointing off for the rest of the run (observable as
    /// the `ckpt/degraded` counter in the trace) instead of failing it —
    /// the output stays bit-identical, the run is merely not resumable.
    pub fn checkpoint(mut self, spec: &'a CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Installs a cancellation token on the run's executor; cancellation
    /// surfaces as [`DataflowError::Cancelled`].
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Bounds the run by a wall-clock deadline, polled at task and barrier
    /// boundaries; expiry surfaces as [`DataflowError::Cancelled`].
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Adaptive pruning (§7): per-node candidate lists cut at mean +
    /// ½·stddev of the node's own weight distribution instead of a fixed
    /// top-K ([`minoaner_blocking::GraphConfig::adaptive_pruning`]). The
    /// same pipeline otherwise, so it composes with every other option.
    pub fn adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// Dirty-ER mode: the pair must be a self-pair built with
    /// [`minoaner_kb::dirty::DirtyKbBuilder`]; matches are canonicalized
    /// into unordered duplicate pairs ([`DirtyResolution`]).
    pub fn dirty(mut self) -> Self {
        self.dirty = true;
        self
    }

    /// Overrides the worker count for the executor [`Minoaner::run`]
    /// builds. Wins over [`crate::MinoanerConfig::workers`]; ignored by
    /// [`Minoaner::run_on`], which reuses the caller's executor.
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

    /// Asserts the request's option combination is coherent. Misuse is a
    /// caller bug, so this panics rather than returning a runtime error.
    fn check_preconditions(&self) {
        match self.input {
            ResolveInput::Pair(pair) => {
                assert!(!self.dirty || pair.is_dirty(), "ResolveRequest::dirty requires a DirtyKbBuilder-built pair")
            }
            ResolveInput::Multi(input) => {
                assert!(input.len() >= 2, "multi-KB resolution needs at least two KBs");
                assert!(
                    !self.dirty && !self.adaptive,
                    "dirty/adaptive modes do not apply to multi-KB inputs"
                );
                assert!(
                    !self.trace && self.checkpoint.is_none(),
                    "multi-KB resolution does not support tracing or checkpoints yet"
                );
            }
        }
    }
}

/// The result shape a [`ResolveRequest`] implies: a plain pair resolution
/// (with its trace when one was requested), a dirty-ER deduplication, or a
/// multi-KB clustering.
#[derive(Debug)]
pub enum ResolveOutcome {
    /// A clean-clean pair resolution; `trace` is `Some` iff the request
    /// asked for tracing or checkpointing.
    Single {
        resolution: Resolution,
        trace: Option<RunTrace>,
    },
    /// A dirty-ER resolution; `trace` as for [`ResolveOutcome::Single`].
    Dirty {
        resolution: DirtyResolution,
        trace: Option<RunTrace>,
    },
    /// A multi-KB clustering.
    Multi(MultiResolution),
}

impl ResolveOutcome {
    /// The run's trace, when one was captured.
    pub fn trace(&self) -> Option<&RunTrace> {
        match self {
            ResolveOutcome::Single { trace, .. } | ResolveOutcome::Dirty { trace, .. } => {
                trace.as_ref()
            }
            _ => None,
        }
    }

    /// Unwraps a pair resolution.
    ///
    /// # Panics
    /// Panics if the outcome is not [`ResolveOutcome::Single`].
    pub fn into_resolution(self) -> Resolution {
        match self {
            ResolveOutcome::Single { resolution, .. } => resolution,
            other => panic!("expected a pair resolution, got {}", other.variant_name()),
        }
    }

    /// Unwraps a pair resolution plus its optional trace.
    ///
    /// # Panics
    /// Panics if the outcome is not [`ResolveOutcome::Single`].
    pub fn into_single(self) -> (Resolution, Option<RunTrace>) {
        match self {
            ResolveOutcome::Single { resolution, trace } => (resolution, trace),
            other => panic!("expected a pair resolution, got {}", other.variant_name()),
        }
    }

    /// Unwraps a traced pair resolution.
    ///
    /// # Panics
    /// Panics if the outcome is not [`ResolveOutcome::Single`] or carries
    /// no trace (the request did not ask for one).
    pub fn into_traced(self) -> (Resolution, RunTrace) {
        match self {
            ResolveOutcome::Single { resolution, trace: Some(trace) } => (resolution, trace),
            ResolveOutcome::Single { trace: None, .. } => {
                panic!("the request did not ask for a trace")
            }
            other => panic!("expected a pair resolution, got {}", other.variant_name()),
        }
    }

    /// Unwraps a dirty-ER resolution.
    ///
    /// # Panics
    /// Panics if the outcome is not [`ResolveOutcome::Dirty`].
    pub fn into_dirty(self) -> DirtyResolution {
        match self {
            ResolveOutcome::Dirty { resolution, .. } => resolution,
            other => panic!("expected a dirty resolution, got {}", other.variant_name()),
        }
    }

    /// Unwraps a multi-KB resolution.
    ///
    /// # Panics
    /// Panics if the outcome is not [`ResolveOutcome::Multi`].
    pub fn into_multi(self) -> MultiResolution {
        match self {
            ResolveOutcome::Multi(resolution) => resolution,
            other => panic!("expected a multi-KB resolution, got {}", other.variant_name()),
        }
    }

    fn variant_name(&self) -> &'static str {
        match self {
            ResolveOutcome::Single { .. } => "Single",
            ResolveOutcome::Dirty { .. } => "Dirty",
            ResolveOutcome::Multi(_) => "Multi",
        }
    }
}

impl Minoaner {
    /// Executes a [`ResolveRequest`] on an internally built executor.
    ///
    /// Worker sizing: the request's [`ResolveRequest::workers`] override
    /// wins, then [`crate::MinoanerConfig::workers`], then the engine
    /// default ([`Executor::default`]). The request's cancellation token
    /// and deadline, if any, are installed on the new executor.
    pub fn run(&self, req: ResolveRequest<'_>) -> Result<ResolveOutcome, DataflowError> {
        let mut executor = match req.workers.or(self.config().workers) {
            Some(workers) => Executor::new(workers),
            None => Executor::default(),
        };
        self.run_on(&mut executor, req)
    }

    /// Executes a [`ResolveRequest`] on a caller-owned executor (reusing
    /// its worker pool, stage log and observer slot across runs).
    ///
    /// The request's cancellation token and deadline, if set, are
    /// installed on `executor`; its [`ResolveRequest::workers`] override
    /// is ignored — the executor's own sizing wins.
    pub fn run_on(
        &self,
        executor: &mut Executor,
        mut req: ResolveRequest<'_>,
    ) -> Result<ResolveOutcome, DataflowError> {
        req.check_preconditions();
        if let Some(token) = req.cancel.take() {
            executor.set_cancel_token(token);
        }
        if let Some(deadline) = req.deadline.take() {
            executor.set_deadline(Some(deadline));
        }
        if let Some(budget) = req.mem_budget.take() {
            executor.set_memory_budget(Some(budget));
        }
        match req.input {
            ResolveInput::Multi(input) => Ok(ResolveOutcome::Multi(self.multi_impl(executor, input)?)),
            ResolveInput::Pair(pair) => {
                let (resolution, trace) = if req.trace || req.checkpoint.is_some() {
                    let (resolution, trace) =
                        self.traced_impl(executor, pair, req.rules, req.adaptive, req.checkpoint)?;
                    (resolution, Some(trace))
                } else {
                    (self.resolve_impl(executor, pair, req.rules, req.adaptive, None)?, None)
                };
                Ok(Self::finish_single(req.dirty, resolution, trace))
            }
        }
    }

    /// Wraps a finished pair resolution into the outcome the request's
    /// dirty flag implies.
    fn finish_single(dirty: bool, resolution: Resolution, trace: Option<RunTrace>) -> ResolveOutcome {
        if dirty {
            let duplicates = canonicalize_dirty_matches(&resolution.matches);
            ResolveOutcome::Dirty {
                resolution: DirtyResolution { duplicates, inner: resolution },
                trace,
            }
        } else {
            ResolveOutcome::Single { resolution, trace }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MinoanerConfig;
    use minoaner_kb::{KbPairBuilder, Side, Term};

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
        let outcome = Minoaner::new().run(ResolveRequest::pair(&p).trace()).unwrap();
        assert!(outcome.trace().is_some());
        let (resolution, trace) = outcome.into_traced();
        assert_eq!(resolution.matches.len(), 3);
        assert!(!trace.stages.is_empty());
    }

    #[test]
    fn untraced_request_has_no_trace() {
        let p = pair();
        let (_, trace) = Minoaner::new().run(ResolveRequest::pair(&p)).unwrap().into_single();
        assert!(trace.is_none());
    }

    #[test]
    fn config_workers_size_the_executor_and_request_overrides() {
        let p = pair();
        let cfg = MinoanerConfig::builder().workers(3).build().unwrap();
        let m = Minoaner::with_config(cfg);
        let (_, trace) = m.run(ResolveRequest::pair(&p).trace()).unwrap().into_traced();
        assert_eq!(trace.workers, 3, "config workers size the built executor");
        let (_, trace) =
            m.run(ResolveRequest::pair(&p).trace().workers(2)).unwrap().into_traced();
        assert_eq!(trace.workers, 2, "request workers override the config");
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
    fn adaptive_request_runs_the_one_pipeline() {
        let p = pair();
        let run = |req: ResolveRequest<'_>| Minoaner::new().run(req.trace()).unwrap().into_traced();
        let (_, plain_trace) = run(ResolveRequest::pair(&p));
        let (adaptive, trace) = run(ResolveRequest::pair(&p).adaptive());
        assert_eq!(adaptive.matches.len(), 3);
        let names = |t: &RunTrace| t.stages.iter().map(|s| s.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&trace), names(&plain_trace), "same stages, purge and stats included");

        let (r1, _) = run(ResolveRequest::pair(&p).adaptive().rules(RuleSet::R1_ONLY));
        assert_eq!((r1.rule_counts.r2, r1.rule_counts.r3), (0, 0), "rules flow through");
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

    #[test]
    #[should_panic(expected = "ResolveRequest::dirty requires")]
    fn dirty_request_rejects_clean_pairs() {
        let p = pair();
        let _ = Minoaner::new().run(ResolveRequest::pair(&p).dirty());
    }

    #[test]
    #[should_panic(expected = "expected a pair resolution")]
    fn outcome_unwrap_names_the_actual_variant() {
        let mut b = minoaner_kb::dirty::DirtyKbBuilder::new();
        b.add_triple("e0", "label", Term::Literal("fat duck bray"));
        b.add_triple("e1", "label", Term::Literal("fat duck bray"));
        let p = b.finish();
        let outcome = Minoaner::new().run(ResolveRequest::pair(&p).dirty().adaptive()).unwrap();
        let _ = outcome.into_resolution();
    }
}
