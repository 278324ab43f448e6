//! The end-to-end MinoanER pipeline, mirroring the Spark architecture of
//! Figure 4: statistics and blocking run first (name blocking, token
//! blocking and top-neighbor extraction conceptually in parallel), the
//! disjunctive blocking graph is weighted and pruned (Algorithm 1), and the
//! four matching rules run with synchronization only at rule boundaries
//! (Algorithm 2).

use minoaner_blocking::graph::{build_blocking_graph, BlockingGraph, GraphConfig};
use minoaner_blocking::name::build_name_blocks;
use minoaner_blocking::purge::{purge_blocks, PurgeReport};
use minoaner_blocking::token::build_token_blocks_parallel;
use minoaner_blocking::{NameBlocks, TokenBlocks};
use minoaner_dataflow::{DataflowError, Executor, StageIo, TraceCollector};
use minoaner_kb::stats::{NameStats, RelationStats};
use minoaner_kb::{EntityId, KbPair};

use crate::config::{MinoanerConfig, RuleSet};
use crate::matcher::{run_matching, RuleCounts};
use crate::resume::{self, Barriers, CheckpointSpec};

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
    #[expect(clippy::panic, reason = "bound: documented: an invalid configuration is the caller's \
              bug (`# Panics`); `MinoanerConfig::validate` is the fallible check, and the CLI \
              validates its configuration before it gets here.")]
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

    /// The pipeline body [`Minoaner::run`] executes: prepare (Algorithm
    /// 1), then match (Algorithm 2) with the full rule set. Each barrier is
    /// either restored from the newest valid checkpoint or computed and
    /// committed; without a spec `barriers` restores and commits nothing.
    /// `collector` is the run's trace collector, whose counters each
    /// committed barrier snapshots.
    pub(crate) fn run_pipeline(
        &self,
        executor: &Executor,
        pair: &KbPair,
        checkpoint: Option<&CheckpointSpec>,
        collector: &TraceCollector,
    ) -> Result<Resolution, DataflowError> {
        executor.check_cancelled("barrier:start")?;
        let mut barriers =
            Barriers::open(checkpoint, collector, executor, || resume::run_fingerprint(&self.config, pair))?;
        let restored = barriers.restore(executor)?;

        // Final barrier restored: the run is already complete on disk.
        if let Some(stage) = restored.as_ref().filter(|s| s.barrier == resume::BARRIER_MATCHES) {
            let (matches, rule_counts, graph_digest, purge) = resume::matches_from_stage(stage)?;
            return Ok(Resolution { matches, rule_counts, purge, graph_digest });
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
                        barriers.commit(executor, resume::BARRIER_BLOCKS, "blocks", &resume::blocks_parts(&blocks))?;
                        blocks
                    }
                };
                // Cancellation is polled *after* the barrier committed (or
                // was skipped), never between a stage and its checkpoint
                // write: a cancelled run leaves only complete, resumable
                // barriers behind.
                executor.check_cancelled("barrier:blocks")?;
                let graph = self.build_graph_from_blocks(executor, pair, &blocks);
                barriers.commit(executor, resume::BARRIER_GRAPH, "graph", &resume::graph_parts(&graph, &blocks.purge))?;
                (graph, blocks.purge)
            }
        };

        executor.check_cancelled("barrier:graph")?;
        let graph_digest = graph.weight_digest();
        let outcome = run_matching(executor, pair, &graph, &self.config, RuleSet::FULL);
        let parts = resume::matches_parts(&outcome.matches, &outcome.counts, &graph_digest, &purge);
        barriers.commit(executor, resume::BARRIER_MATCHES, "matches", &parts)?;
        Ok(Resolution { matches: outcome.matches, rule_counts: outcome.counts, purge, graph_digest })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ResolveRequest;
    use minoaner_kb::{KbPairBuilder, Side, Term};
    use std::time::Duration;

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

    /// The trace breaks a run's wall time down the way §6.2 reports it:
    /// the graph kernel and the matching phase each take a part of it.
    #[test]
    fn trace_breaks_out_graph_and_matching_time() {
        let (pair, _) = scenario();
        let trace = Minoaner::new().run(ResolveRequest::pair(&pair).workers(2)).expect("healthy run succeeds").trace;
        let (graph, matching) = (trace.stage_wall("graph/"), trace.stage_wall("matching/"));
        assert!(graph > Duration::ZERO, "graph/* stages must be timed");
        assert!(matching > Duration::ZERO, "matching/* stages must be timed");
        assert!(graph + matching <= trace.total_wall);
    }

    #[test]
    fn name_rule_fires_on_distinct_names() {
        let (pair, _) = scenario();
        let res = resolve(&pair, 1);
        assert!(res.rule_counts.r1 > 0, "distinct shared names must be matched by R1");
    }

    /// A rule-set ablation composes the public stages with its
    /// [`RuleSet`]; the product always runs the full set.
    #[test]
    fn ablation_r1_only_finds_fewer_or_equal_matches() {
        let (pair, _) = scenario();
        let m = Minoaner::new();
        let full = resolve(&pair, 2);
        let exec = Executor::new(2);
        let graph = m.build_graph_from_blocks(&exec, &pair, &m.prepare_blocks(&exec, &pair));
        let r1 = run_matching(&exec, &pair, &graph, m.config(), RuleSet::R1_ONLY);
        assert!(r1.matches.len() <= full.matches.len());
        assert_eq!(r1.counts.r2, 0);
        assert_eq!(r1.counts.r3, 0);
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
    fn plain_and_checkpointed_runs_take_the_same_path() {
        let (pair, _) = scenario();
        let dir = std::env::temp_dir()
            .join(format!("minoaner-core-one-pipeline-body-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = CheckpointSpec::new(&dir);
        let run = |req: ResolveRequest<'_>| Minoaner::new().run(req.workers(2)).expect("healthy run succeeds");
        let plain = run(ResolveRequest::pair(&pair));
        let checkpointed = run(ResolveRequest::pair(&pair).checkpoint(&spec));
        std::fs::remove_dir_all(&dir).expect("the checkpointed run wrote its barriers");

        // Same stages in the same order; only the checkpointed run adds
        // `ckpt/*` stages (one write per barrier) between them.
        let split = |outcome: &crate::ResolveOutcome| -> (Vec<String>, Vec<String>) {
            outcome.trace.stages.iter().map(|s| s.name.clone()).partition(|n| !n.starts_with("ckpt/"))
        };
        let (stages, ckpt) = split(&plain);
        assert!(stages.len() > 10, "a full pipeline run: {stages:?}");
        assert!(ckpt.is_empty());
        let writes = ["blocks", "graph", "matches"].map(|b| format!("ckpt/write/{b}")).to_vec();
        assert_eq!(split(&checkpointed), (stages, writes));

        let (plain, checkpointed) = (plain.resolution, checkpointed.resolution);
        assert_eq!(checkpointed.graph_digest, plain.graph_digest);
        assert_eq!(checkpointed.rule_counts, plain.rule_counts);
        assert_eq!(checkpointed.matches, plain.matches);
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
