//! The resolution-request API: one builder, one entry point, one result
//! shape.
//!
//! A [`ResolveRequest`] names the KB pair ([`ResolveRequest::pair`]) and
//! chains the orthogonal run options (checkpointing, cancellation, worker
//! count, memory budget), so options compose — a checkpointed, budgeted
//! run is one chain, not one more method. [`Minoaner::run`] executes it
//! and returns a [`ResolveOutcome`]: the [`Resolution`] and the run's
//! [`RunTrace`], the one record of how the run went (stage wall times,
//! counters, worker and partition counts).
//!
//! A dirty KB — duplicate detection within a single KB, the
//! generalization the paper sketches in §2 ("the proposed techniques can
//! be easily generalized to … a single dirty KB") — is loaded into the
//! left side of a builder whose
//! [`finish_dirty`](minoaner_kb::KbPairBuilder::finish_dirty) puts it on
//! both sides of a self-pair, and goes through the same request. Identity pairs are excluded from every
//! evidence kind during graph construction; R1's "they and only they share
//! a name" becomes "exactly two entities share a name"; and
//! [`minoaner_kb::dirty::canonicalize_dirty_matches`] turns the matches
//! into unordered duplicate pairs. No flag asks for any of this:
//! [`Minoaner::run`] reads [`KbPair::is_dirty`] from the pair, and the
//! outcome of a dirty pair has the clean pair's shape. More than two KBs,
//! each a one-KB pair, go through [`Minoaner::resolve_multi`].
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
//!     .run(ResolveRequest::pair(&pair))
//!     .expect("healthy run succeeds");
//! assert_eq!(resolution.matches.len(), 1);
//! assert!(trace.workers >= 1);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use minoaner_dataflow::{CancelToken, DataflowError, Executor, MemoryBudget, RunTrace, TraceCollector};
use minoaner_kb::KbPair;

use crate::pipeline::{Minoaner, Resolution};
use crate::resume::CheckpointSpec;

/// A declarative description of one resolution run, executed by
/// [`Minoaner::run`].
///
/// Construct with [`ResolveRequest::pair`] and chain options. Unset
/// options keep the engine defaults: no checkpointing, no cancellation
/// wiring, one worker per core, no memory budget.
#[derive(Debug, Clone)]
pub struct ResolveRequest<'a> {
    pair: &'a KbPair,
    checkpoint: Option<&'a CheckpointSpec>,
    cancel: CancelToken,
    workers: Option<usize>,
    mem_budget: Option<MemoryBudget>,
}

impl<'a> ResolveRequest<'a> {
    /// A request to resolve one KB pair end to end: two clean KBs, or the
    /// self-pair of one dirty KB built with
    /// [`minoaner_kb::KbPairBuilder::finish_dirty`] (the pipeline reads
    /// [`KbPair::is_dirty`] and excludes identity pairs).
    pub fn pair(pair: &'a KbPair) -> Self {
        Self {
            pair,
            checkpoint: None,
            cancel: CancelToken::new(),
            workers: None,
            mem_budget: None,
        }
    }

    /// Materializes pipeline state at stage barriers per `spec` and — when
    /// `spec.resume` is set — restores the newest valid checkpoint instead
    /// of recomputing the barriers it covers. Each barrier stores a
    /// snapshot of the run's counters, which a resumed run re-emits.
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

/// What a [`ResolveRequest`] produced: the pair's resolution and the
/// run's trace.
#[derive(Debug)]
pub struct ResolveOutcome {
    /// The resolution of the request's pair. For a dirty self-pair,
    /// [`minoaner_kb::dirty::canonicalize_dirty_matches`] turns its matches
    /// into unordered duplicate pairs.
    pub resolution: Resolution,
    /// How the run went: every stage with its wall time, the run's total
    /// wall time, its counters, workers and partitions.
    pub trace: RunTrace,
}

impl ResolveOutcome {
    /// The resolution, without the trace.
    pub fn into_resolution(self) -> Resolution {
        self.resolution
    }
}

impl Minoaner {
    /// Executes a [`ResolveRequest`] on an executor of its own, dropped
    /// with the run — **the** way a resolve is executed.
    ///
    /// The executor has [`ResolveRequest::workers`] workers, or one per
    /// core ([`Executor::default`]), carries the request's cancellation
    /// token and memory budget, and has a [`TraceCollector`] installed; the
    /// trace combines the collector's counters with the executor's stage
    /// log. A run restored from a checkpoint re-emits the checkpoint's
    /// counter snapshot, so its domain counters match an uninterrupted
    /// run's (only the `ckpt/*` accounting differs).
    ///
    /// The pipeline's internal stages run on the executor's infallible
    /// `run_stage`, which re-raises task failures as a structured panic
    /// payload; this boundary catches that payload and converts it back
    /// into the [`DataflowError`] it carries (a genuine user-code panic in
    /// a stage closure arrives as [`DataflowError::TaskPanicked`] too, via
    /// the executor's panic isolation).
    // The run's total wall time is the sanctioned wall-clock use: it is
    // reported in the trace, never used in a matching decision.
    #[allow(clippy::disallowed_methods)]
    pub fn run(&self, req: ResolveRequest<'_>) -> Result<ResolveOutcome, DataflowError> {
        let mut executor = req.workers.map_or_else(Executor::default, Executor::new);
        executor.set_cancel_token(req.cancel);
        executor.set_memory_budget(req.mem_budget);
        let collector = TraceCollector::new();
        executor.set_observer(collector.clone());
        let start = Instant::now();
        let resolution =
            catch_unwind(AssertUnwindSafe(|| self.run_pipeline(&executor, req.pair, req.checkpoint, &collector)))
                .map_err(DataflowError::from_panic)
                .and_then(|result| result)?;
        let trace = RunTrace::capture(
            executor.workers(),
            executor.partitions(),
            start.elapsed(),
            &executor.stage_log(),
            collector.counters(),
        );
        Ok(ResolveOutcome { resolution, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoaner_kb::dirty::canonicalize_dirty_matches;
    use minoaner_kb::{EntityId, KbPairBuilder, Side, Term};

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
    fn every_run_carries_its_trace() {
        let p = pair();
        let ResolveOutcome { resolution, trace } = Minoaner::new().run(ResolveRequest::pair(&p)).unwrap();
        assert_eq!(resolution.matches.len(), 3);
        assert!(!trace.stages.is_empty());
        assert!(trace.counter("matching/r1_matches") > 0, "the collector saw the run's counters");
        assert!(trace.stage_wall("") <= trace.total_wall, "the stages ran inside the run");
    }

    #[test]
    fn request_workers_size_the_executor() {
        let p = pair();
        let m = Minoaner::new();
        let trace = m.run(ResolveRequest::pair(&p).workers(3)).unwrap().trace;
        assert_eq!(trace.workers, 3);
        let trace = m.run(ResolveRequest::pair(&p)).unwrap().trace;
        assert_eq!(trace.workers, minoaner_dataflow::pool::available_cores(), "one worker per core");
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
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "e0", "label", Term::Literal("fat duck bray"));
        b.add_triple(Side::Left, "e1", "label", Term::Literal("fat duck bray"));
        let p = b.finish_dirty();
        let resolution = Minoaner::new().run(ResolveRequest::pair(&p)).unwrap().into_resolution();
        assert!(resolution.matches.iter().all(|&(l, r)| l != r), "no identity pairs");
        let duplicates = canonicalize_dirty_matches(&resolution.matches);
        assert_eq!(duplicates, [(EntityId(0), EntityId(1))]);
    }

    fn dirty_kb() -> KbPair {
        let mut b = KbPairBuilder::new();
        // Two descriptions of the Fat Duck (duplicates) …
        b.add_triple(Side::Left, "db:fat_duck", "name", Term::Literal("The Fat Duck"));
        b.add_triple(Side::Left, "db:fat_duck", "desc", Term::Literal("michelin molecular bray berkshire"));
        b.add_triple(Side::Left, "crawl:fatduck1995", "label", Term::Literal("Fat Duck, The"));
        b.add_triple(Side::Left, "crawl:fatduck1995", "about", Term::Literal("bray berkshire michelin tasting"));
        // … two of Noma …
        b.add_triple(Side::Left, "db:noma", "name", Term::Literal("Noma"));
        b.add_triple(Side::Left, "db:noma", "desc", Term::Literal("copenhagen nordic foraging redzepi"));
        b.add_triple(Side::Left, "crawl:noma_dk", "label", Term::Literal("Noma"));
        b.add_triple(Side::Left, "crawl:noma_dk", "about", Term::Literal("nordic foraging copenhagen denmark"));
        // … and a singleton.
        b.add_triple(Side::Left, "db:elbulli", "name", Term::Literal("El Bulli"));
        b.add_triple(Side::Left, "db:elbulli", "desc", Term::Literal("roses catalonia avantgarde adria"));
        b.finish_dirty()
    }

    fn uri_pairs(pair: &KbPair, dups: &[(EntityId, EntityId)]) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = dups
            .iter()
            .map(|&(a, b)| {
                (pair.uri_of(Side::Left, a).to_owned(), pair.uri_of(Side::Left, b).to_owned())
            })
            .collect();
        v.sort();
        v
    }

    /// The canonical duplicate pairs `(a, b)`, `a < b`, of `pair`.
    fn resolve_dirty(pair: &KbPair, workers: usize) -> Vec<(EntityId, EntityId)> {
        let resolution = Minoaner::new()
            .run(ResolveRequest::pair(pair).workers(workers))
            .expect("healthy run succeeds")
            .into_resolution();
        canonicalize_dirty_matches(&resolution.matches)
    }

    #[test]
    fn finds_duplicates_within_one_kb() {
        let pair = dirty_kb();
        let found = uri_pairs(&pair, &resolve_dirty(&pair, 2));
        assert!(
            found.contains(&("crawl:fatduck1995".into(), "db:fat_duck".into()))
                || found.contains(&("db:fat_duck".into(), "crawl:fatduck1995".into())),
            "fat duck duplicates not found: {found:?}"
        );
        assert!(
            found.iter().any(|(a, b)| a.contains("noma") && b.contains("noma")),
            "noma duplicates not found: {found:?}"
        );
        // The singleton is never paired.
        assert!(found.iter().all(|(a, b)| !a.contains("elbulli") && !b.contains("elbulli")));
    }

    #[test]
    fn no_identity_pairs_in_output() {
        let pair = dirty_kb();
        for (a, b) in resolve_dirty(&pair, 1) {
            assert_ne!(a, b);
            assert!(a < b, "pairs must be canonical");
        }
    }
}
