//! The end-to-end MinoanER pipeline, mirroring the Spark architecture of
//! Figure 4: statistics and blocking run first (name blocking, token
//! blocking and top-neighbor extraction conceptually in parallel), the
//! disjunctive blocking graph is weighted and pruned (Algorithm 1), and the
//! four matching rules run with synchronization only at rule boundaries
//! (Algorithm 2).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use minoaner_blocking::graph::{build_blocking_graph, BlockingGraph, GraphConfig};
use minoaner_blocking::name::build_name_blocks;
use minoaner_blocking::purge::{purge_blocks, PurgeReport};
use minoaner_blocking::token::build_token_blocks_parallel;
use minoaner_blocking::{NameBlocks, TokenBlocks};
use minoaner_dataflow::{DataflowError, Executor, StageIo, StageLog, TraceCollector};
use minoaner_kb::stats::{NameStats, RelationStats};
use minoaner_kb::{EntityId, KbPair};

use crate::config::{MinoanerConfig, RuleSet};
use crate::matcher::{run_matching, RuleCounts};
use crate::resume::{self, Barriers, CheckpointSpec};

/// Wall-clock breakdown of a pipeline run. §6.2 of the paper reports both
/// total time and the matching phase's share of it.
#[derive(Debug, Clone, Default)]
pub struct PipelineTimings {
    /// End-to-end wall time.
    pub total: Duration,
    /// Time spent in Algorithm 2 (the `matching/*` stages).
    pub matching: Duration,
    /// Time spent constructing the blocking graph (the `graph/*` stages of
    /// Algorithm 1: α, CSR index build, β passes, γ union/row/transpose).
    pub graph: Duration,
    /// Full per-stage log from the executor.
    pub stages: StageLog,
}

impl PipelineTimings {
    /// The matching phase's share of total time, in percent.
    pub fn matching_share(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            100.0 * self.matching.as_secs_f64() / self.total.as_secs_f64()
        }
    }
}

/// Result of resolving a KB pair.
#[derive(Debug, Clone)]
pub struct Resolution {
    /// Matched pairs `(left, right)`.
    pub matches: Vec<(EntityId, EntityId)>,
    /// Per-rule match counts.
    pub rule_counts: RuleCounts,
    /// What Block Purging did to the token blocks.
    pub purge: PurgeReport,
    /// [`BlockingGraph::weight_digest`] of the run's pruned graph — the
    /// determinism witness: bit-identical across worker counts, across
    /// repeated runs, and across crash/resume boundaries.
    pub graph_digest: u64,
    /// Wall-clock breakdown.
    pub timings: PipelineTimings,
}

/// Everything produced by the pipeline's first barrier (`blocks`):
/// statistics plus the purged composite blocks, i.e. the full input of
/// graph construction. This is the unit the checkpoint subsystem snapshots
/// and restores, part by part (`resume::blocks_parts`).
#[derive(Debug, Clone)]
pub struct PreparedBlocks {
    pub relation_stats: RelationStats,
    pub name_stats: NameStats,
    pub token_blocks: TokenBlocks,
    pub name_blocks: NameBlocks,
    /// What Block Purging did to `token_blocks`.
    pub purge: PurgeReport,
}

/// The MinoanER resolver.
#[derive(Debug, Clone, Default)]
pub struct Minoaner {
    config: MinoanerConfig,
}

impl Minoaner {
    /// A resolver with the paper's default configuration `(2, 15, 3, 0.6)`.
    pub fn new() -> Self {
        Self::default()
    }

    /// A resolver with an explicit configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid ([`MinoanerConfig::validate`]).
    // bound: documented: an invalid configuration is the caller's bug
    // (`# Panics`); `MinoanerConfig::validate` is the fallible check, and
    // the CLI validates its configuration before it gets here.
    #[allow(clippy::panic)]
    pub fn with_config(config: MinoanerConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid MinoanER configuration: {e}");
        }
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &MinoanerConfig {
        &self.config
    }

    /// The pipeline's first barrier: statistics plus composite-block
    /// construction and purging — everything up to (but excluding) graph
    /// construction.
    pub fn prepare_blocks(&self, executor: &Executor, pair: &KbPair) -> PreparedBlocks {
        let relation_stats = executor.time_stage("stats/relations", || RelationStats::compute(pair));
        let name_stats =
            executor.time_stage("stats/names", || NameStats::compute(pair, self.config.name_attrs_k));

        let mut token_blocks = build_token_blocks_parallel(executor, pair);
        let total_entities = pair.kb(minoaner_kb::Side::Left).len() + pair.kb(minoaner_kb::Side::Right).len();
        let report = executor.time_stage("blocking/purge", || purge_blocks(&mut token_blocks, total_entities));
        executor.annotate_last_stage(
            "blocking/purge",
            StageIo::items(report.blocks_before as u64, report.blocks_after as u64),
        );
        executor.emit_counter("blocking/blocks_purged", (report.blocks_before - report.blocks_after) as u64);
        executor.emit_counter(
            "blocking/comparisons_purged",
            report.comparisons_before.saturating_sub(report.comparisons_after),
        );
        executor.emit_counter("blocking/comparisons_after_purge", report.comparisons_after);
        let name_blocks =
            executor.time_stage("blocking/names", || build_name_blocks(pair, &name_stats));
        executor.emit_counter("blocking/name_blocks_built", name_blocks.len() as u64);

        PreparedBlocks { relation_stats, name_stats, token_blocks, name_blocks, purge: report }
    }

    /// The pipeline's second barrier: weights and prunes the disjunctive
    /// blocking graph from prepared blocks (Algorithm 1), keeping each
    /// node's top-K candidates.
    pub fn build_graph_from_blocks(&self, executor: &Executor, pair: &KbPair, blocks: &PreparedBlocks) -> BlockingGraph {
        let graph_cfg =
            GraphConfig { top_k: self.config.top_k, n_relations: self.config.n_relations, adaptive_pruning: false };
        build_blocking_graph(
            executor,
            pair,
            &blocks.relation_stats,
            &blocks.token_blocks,
            &blocks.name_blocks,
            &graph_cfg,
        )
    }

    /// End-to-end resolution with an explicit rule set — **the** resolver
    /// implementation; every request path delegates here.
    ///
    /// The pipeline's internal stages run on the executor's infallible
    /// `run_stage`, which re-raises task failures as a structured panic
    /// payload; this boundary catches that payload and converts it back
    /// into the [`DataflowError`] it carries (a genuine user-code panic in
    /// a stage closure arrives as [`DataflowError::TaskPanicked`] too, via
    /// the executor's panic isolation). The executor and its stage log
    /// remain usable after a failure — workers are joined at the stage
    /// barrier before the error propagates.
    ///
    /// `checkpoint` pairs the request's [`CheckpointSpec`] with the
    /// collector whose counters its barriers snapshot; `None` runs the
    /// same stages with no store, nothing restored and no commits.
    pub(crate) fn resolve_impl(
        &self,
        executor: &Executor,
        pair: &KbPair,
        rules: RuleSet,
        checkpoint: Option<(&CheckpointSpec, &TraceCollector)>,
    ) -> Result<Resolution, DataflowError> {
        catch_unwind(AssertUnwindSafe(|| self.run_pipeline(executor, pair, rules, checkpoint)))
            .map_err(DataflowError::from_panic)
            .and_then(|result| result)
    }

    /// The pipeline body shared by every resolver entry point: prepare
    /// (Algorithm 1), match (Algorithm 2), assemble timings. Each barrier
    /// is either restored from the newest valid checkpoint or computed and
    /// committed; without a spec `barriers` restores and commits nothing.
    // Stage timing is the sanctioned wall-clock use: the total wall time
    // reported in `Resolution` timings, never used in a matching decision.
    #[allow(clippy::disallowed_methods)]
    fn run_pipeline(
        &self,
        executor: &Executor,
        pair: &KbPair,
        rules: RuleSet,
        checkpoint: Option<(&CheckpointSpec, &TraceCollector)>,
    ) -> Result<Resolution, DataflowError> {
        executor.reset_metrics();
        let start = Instant::now();
        executor.check_cancelled("barrier:start")?;
        let mut barriers = Barriers::open(checkpoint, executor, || {
            resume::run_fingerprint(&self.config, rules, pair)
        })?;
        let restored = barriers.restore(executor)?;

        // Final barrier restored: the run is already complete on disk.
        if let Some(stage) = restored.as_ref().filter(|s| s.barrier == resume::BARRIER_MATCHES) {
            let (matches, counts, digest, purge) = resume::matches_from_stage(stage)?;
            return Ok(Self::assemble(executor, start, matches, counts, purge, digest));
        }

        let (graph, purge) = match &restored {
            Some(stage) if stage.barrier == resume::BARRIER_GRAPH => resume::graph_from_stage(stage)?,
            _ => {
                let blocks = match &restored {
                    Some(stage) if stage.barrier == resume::BARRIER_BLOCKS => {
                        resume::blocks_from_stage(stage)?
                    }
                    _ => {
                        let blocks = self.prepare_blocks(executor, pair);
                        let stored_purge = Some(blocks.purge.clone());
                        let parts = resume::blocks_parts(&blocks, &stored_purge);
                        barriers.commit(executor, resume::BARRIER_BLOCKS, "blocks", &parts)?;
                        blocks
                    }
                };
                // Cancellation is polled *after* the barrier committed (or
                // was skipped), never between a stage and its checkpoint
                // write: a cancelled run leaves only complete, resumable
                // barriers behind.
                executor.check_cancelled("barrier:blocks")?;
                let graph = self.build_graph_from_blocks(executor, pair, &blocks);
                let stored_purge = Some(blocks.purge.clone());
                barriers.commit(executor, resume::BARRIER_GRAPH, "graph", &resume::graph_parts(&graph, &stored_purge))?;
                (graph, blocks.purge)
            }
        };

        executor.check_cancelled("barrier:graph")?;
        let graph_digest = graph.weight_digest();
        let outcome = run_matching(executor, pair, &graph, &self.config, rules);
        let stored_purge = Some(purge.clone());
        let parts = resume::matches_parts(&outcome.matches, &outcome.counts, &graph_digest, &stored_purge);
        barriers.commit(executor, resume::BARRIER_MATCHES, "matches", &parts)?;
        Ok(Self::assemble(executor, start, outcome.matches, outcome.counts, purge, graph_digest))
    }

    /// Assembles a [`Resolution`] from the run's outputs and the
    /// executor's stage log.
    fn assemble(
        executor: &Executor,
        start: Instant,
        matches: Vec<(EntityId, EntityId)>,
        rule_counts: RuleCounts,
        purge: PurgeReport,
        graph_digest: u64,
    ) -> Resolution {
        let total = start.elapsed();
        let stages = executor.stage_log();
        let matching = stages.total_matching(&|n: &str| n.starts_with("matching/"));
        let graph = stages.total_matching(&|n: &str| n.starts_with("graph/"));
        Resolution {
            matches,
            rule_counts,
            purge,
            graph_digest,
            timings: PipelineTimings { total, matching, graph, stages },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ResolveRequest;
    use minoaner_kb::{KbPairBuilder, Side, Term};

    /// A small but complete scenario: restaurants with chefs and places,
    /// heterogeneous schemas, some matchable by name, some only via values
    /// or neighbors.
    fn scenario() -> (KbPair, Vec<(EntityId, EntityId)>) {
        let mut b = KbPairBuilder::new();
        let data: &[(&str, &str, &str, &str)] = &[
            // (id, name, tokens, chef-name)
            ("fatduck", "The Fat Duck", "michelin molecular bray berkshire", "heston blumenthal"),
            ("frenchlaundry", "French Laundry", "yountville california napa", "thomas keller"),
            ("noma", "Noma", "copenhagen nordic foraging rene", "rene redzepi"),
            ("elbulli", "El Bulli", "roses catalonia spain avantgarde", "ferran adria"),
        ];
        for (id, name, toks, chef) in data {
            let l_uri = format!("w:{id}");
            let r_uri = format!("d:{id}");
            let l_chef = format!("w:chef_{id}");
            let r_chef = format!("d:chef_{id}");
            b.add_triple(Side::Left, &l_uri, "w:label", Term::Literal(name));
            b.add_triple(Side::Left, &l_uri, "w:desc", Term::Literal(toks));
            b.add_triple(Side::Left, &l_uri, "w:hasChef", Term::Uri(&l_chef));
            b.add_triple(Side::Left, &l_chef, "w:label", Term::Literal(chef));
            b.add_triple(Side::Right, &r_uri, "d:name", Term::Literal(name));
            b.add_triple(Side::Right, &r_uri, "d:about", Term::Literal(toks));
            b.add_triple(Side::Right, &r_uri, "d:headChef", Term::Uri(&r_chef));
            b.add_triple(Side::Right, &r_chef, "d:name", Term::Literal(chef));
        }
        let pair = b.finish();
        let mut gt = Vec::new();
        for (id, ..) in data {
            for (l, r) in [(format!("w:{id}"), format!("d:{id}")), (format!("w:chef_{id}"), format!("d:chef_{id}"))] {
                let le = pair.kb(Side::Left).entity_by_uri(pair.uris().get(&l).unwrap()).unwrap();
                let re = pair.kb(Side::Right).entity_by_uri(pair.uris().get(&r).unwrap()).unwrap();
                gt.push((le, re));
            }
        }
        (pair, gt)
    }

    fn resolve(pair: &KbPair, workers: usize) -> Resolution {
        Minoaner::new()
            .run(ResolveRequest::pair(pair).workers(workers))
            .expect("healthy run succeeds")
            .into_resolution()
    }

    #[test]
    fn resolves_clean_scenario_perfectly() {
        let (pair, gt) = scenario();
        let res = resolve(&pair, 2);
        let mut found = res.matches.clone();
        found.sort_unstable();
        let mut expected = gt.clone();
        expected.sort_unstable();
        assert_eq!(found, expected, "all ground-truth pairs should be found");
    }

    #[test]
    fn rule_counts_sum_to_matches() {
        let (pair, _) = scenario();
        let res = resolve(&pair, 2);
        let c = res.rule_counts;
        assert_eq!(c.r1 + c.r2 + c.r3, res.matches.len() + c.removed_by_r4);
    }

    #[test]
    fn timings_break_out_the_graph_kernel() {
        let (pair, _) = scenario();
        let res = resolve(&pair, 2);
        let t = &res.timings;
        assert!(t.graph > Duration::ZERO, "graph/* stages must be timed");
        assert!(t.graph <= t.total);
        // The breakdown agrees with the raw stage log.
        let from_log = t.stages.total_matching(&|n: &str| n.starts_with("graph/"));
        assert_eq!(t.graph, from_log);
    }

    #[test]
    fn name_rule_fires_on_distinct_names() {
        let (pair, _) = scenario();
        let res = resolve(&pair, 1);
        assert!(res.rule_counts.r1 > 0, "distinct shared names must be matched by R1");
    }

    #[test]
    fn ablation_r1_only_finds_fewer_or_equal_matches() {
        let (pair, _) = scenario();
        let m = Minoaner::new();
        let full = resolve(&pair, 2);
        let r1 = m
            .run(ResolveRequest::pair(&pair).rules(RuleSet::R1_ONLY).workers(2))
            .expect("healthy run succeeds")
            .into_resolution();
        assert!(r1.matches.len() <= full.matches.len());
        assert_eq!(r1.rule_counts.r2, 0);
        assert_eq!(r1.rule_counts.r3, 0);
    }

    #[test]
    fn timings_cover_matching_share() {
        let (pair, _) = scenario();
        let res = resolve(&pair, 2);
        assert!(res.timings.total >= res.timings.matching);
        let share = res.timings.matching_share();
        assert!((0.0..=100.0).contains(&share));
        assert!(!res.timings.stages.stages().is_empty());
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let (pair, _) = scenario();
        let r1 = resolve(&pair, 1);
        let r4 = resolve(&pair, 4);
        let mut a = r1.matches;
        let mut b = r4.matches;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn plain_traced_and_checkpointed_runs_take_the_same_path() {
        let (pair, _) = scenario();
        let dir = std::env::temp_dir()
            .join(format!("minoaner-core-one-pipeline-body-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = CheckpointSpec::new(&dir);
        let run = |req: ResolveRequest<'_>| {
            Minoaner::new().run(req.workers(2)).expect("healthy run succeeds").into_resolution()
        };
        let plain = run(ResolveRequest::pair(&pair));
        let traced = run(ResolveRequest::pair(&pair).trace());
        let checkpointed = run(ResolveRequest::pair(&pair).checkpoint(&spec));
        std::fs::remove_dir_all(&dir).expect("the checkpointed run wrote its barriers");

        // Same stages in the same order; only the checkpointed run adds
        // `ckpt/*` stages (one write per barrier) between them.
        let split = |res: &Resolution| -> (Vec<String>, Vec<String>) {
            res.timings.stages.iter().map(|s| s.name.clone()).partition(|n| !n.starts_with("ckpt/"))
        };
        let (stages, ckpt) = split(&plain);
        assert!(stages.len() > 10, "a full pipeline run: {stages:?}");
        assert!(ckpt.is_empty());
        assert_eq!(split(&traced), (stages.clone(), Vec::new()));
        let writes = ["blocks", "graph", "matches"].map(|b| format!("ckpt/write/{b}")).to_vec();
        assert_eq!(split(&checkpointed), (stages, writes));

        for other in [&traced, &checkpointed] {
            assert_eq!(other.graph_digest, plain.graph_digest);
            assert_eq!(other.rule_counts, plain.rule_counts);
            assert_eq!(other.matches, plain.matches);
        }
    }

    #[test]
    fn cancelled_executor_fails_fast_with_structured_error() {
        use minoaner_dataflow::{CancelReason, CancelToken};
        let (pair, _) = scenario();
        let token = CancelToken::new();
        token.cancel(CancelReason::User);
        let err = Minoaner::new()
            .run(ResolveRequest::pair(&pair).workers(2).cancel(token))
            .unwrap_err();
        match err {
            DataflowError::Cancelled { reason, .. } => assert_eq!(reason, CancelReason::User),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid MinoanER configuration")]
    fn invalid_config_panics() {
        Minoaner::with_config(MinoanerConfig { theta: 2.0, ..MinoanerConfig::default() });
    }

    #[test]
    fn unique_mapping_produces_partial_matching() {
        let (pair, _) = scenario();
        let res = resolve(&pair, 2);
        let mut lefts: Vec<_> = res.matches.iter().map(|&(l, _)| l).collect();
        let mut rights: Vec<_> = res.matches.iter().map(|&(_, r)| r).collect();
        lefts.sort_unstable();
        rights.sort_unstable();
        let l_len = lefts.len();
        let r_len = rights.len();
        lefts.dedup();
        rights.dedup();
        assert_eq!(lefts.len(), l_len, "each left entity matched at most once");
        assert_eq!(rights.len(), r_len, "each right entity matched at most once");
    }
}
