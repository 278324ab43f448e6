//! The pre-rewrite graph-construction kernel, kept as the executable
//! specification the fast kernel in [`crate::graph`] is pinned against.
//!
//! This is the original per-entity-map implementation of Algorithm 1 with
//! one change: every container whose iteration order feeds an `f64` sum is
//! a `BTreeMap` instead of a randomly-seeded `HashMap`. For the β pass
//! that changes nothing (per-key sums are order-independent there); for
//! the γ pass it *defines* the summation order the original left to hash
//! randomness — β edges ascending by `(left, right)` — which is exactly
//! the order the row-sharded parallel kernel reproduces per cell. The
//! equivalence loops below require exact `f64` equality between the
//! two kernels across worker counts, weighting schemes, adaptive pruning,
//! and dirty-ER mode.
//!
//! Compiled only for tests: nothing ships it.

use std::collections::BTreeMap;

use minoaner_kb::stats::RelationStats;
use minoaner_kb::{EntityId, KbPair, Rows, Side};

use crate::block::{NameBlocks, TokenBlocks};
use crate::graph::{
    apply_reciprocal_pruning, BetaWeighting, BlockingGraph, Candidate, GraphConfig,
};
use crate::name::{alpha_pairs, alpha_pairs_dirty};

/// Sequential reference build of the pruned disjunctive blocking graph.
pub fn build_blocking_graph_reference(
    pair: &KbPair,
    rels: &RelationStats,
    token_blocks: &TokenBlocks,
    name_blocks: &NameBlocks,
    cfg: &GraphConfig,
) -> BlockingGraph {
    let alpha = if pair.is_dirty() {
        alpha_pairs_dirty(name_blocks)
    } else {
        alpha_pairs(name_blocks)
    };

    let block_weight: Vec<f64> = match cfg.beta_weighting {
        BetaWeighting::Arcs => token_blocks
            .blocks
            .iter()
            .map(|(_, b)| 1.0 / (b.comparisons() as f64 + 1.0).log2())
            .collect(),
        BetaWeighting::Cbs | BetaWeighting::Ecbs | BetaWeighting::Js => {
            vec![1.0; token_blocks.blocks.len()]
        }
    };

    let value_left = beta_pass_reference(
        pair, Side::Left, token_blocks, &block_weight, cfg.top_k,
        cfg.beta_weighting, cfg.adaptive_pruning,
    );
    let value_right = beta_pass_reference(
        pair, Side::Right, token_blocks, &block_weight, cfg.top_k,
        cfg.beta_weighting, cfg.adaptive_pruning,
    );

    let in_left = top_in_neighbors(pair, rels, Side::Left, cfg.n_relations);
    let in_right = top_in_neighbors(pair, rels, Side::Right, cfg.n_relations);

    let (neighbor_left, neighbor_right) = gamma_pass_reference(
        pair, &value_left, &value_right, &in_left, &in_right, cfg.top_k, cfg.adaptive_pruning,
    );

    // The kernel below is the original's, per-entity `Vec`s and all; only
    // the finished lists are packed into the graph's row tables.
    let mut graph = BlockingGraph::from_parts(
        [value_left, value_right].map(Rows::from_iter),
        [neighbor_left, neighbor_right].map(Rows::from_iter),
        alpha,
    );
    if cfg.reciprocal_pruning {
        apply_reciprocal_pruning(&mut graph);
    }
    graph
}

#[allow(clippy::too_many_arguments)]
fn beta_pass_reference(
    pair: &KbPair,
    side: Side,
    token_blocks: &TokenBlocks,
    block_weight: &[f64],
    top_k: usize,
    weighting: BetaWeighting,
    adaptive: bool,
) -> Vec<Vec<Candidate>> {
    let kb = pair.kb(side);
    let n = kb.len();

    let needs_counts = matches!(weighting, BetaWeighting::Ecbs | BetaWeighting::Js);
    let total_blocks = token_blocks.blocks.len() as f64;
    let mut counts_self = vec![0u32; n];
    let mut counts_other = vec![0u32; pair.kb(side.other()).len()];
    if needs_counts {
        for (_, b) in &token_blocks.blocks {
            for &e in b.members(side) {
                counts_self[e.index()] += 1;
            }
            for &e in b.members(side.other()) {
                counts_other[e.index()] += 1;
            }
        }
    }

    // Block ids share the entity-id capacity bound: one up-front check
    // covers every cast in the loop (mirrors `GraphIndex::build`).
    assert!(
        u32::try_from(token_blocks.blocks.len()).is_ok(),
        "block count exceeds u32 capacity"
    );
    let mut entity_blocks: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (bi, (_, b)) in token_blocks.blocks.iter().enumerate() {
        for &e in b.members(side) {
            entity_blocks[e.index()].push(bi as u32);
        }
    }

    let dirty = pair.is_dirty();
    let mut out: Vec<Vec<Candidate>> = Vec::with_capacity(n);
    let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
    for (this, blocks_of_entity) in entity_blocks.iter().enumerate() {
        let this = this as u32;
        acc.clear();
        for &bi in blocks_of_entity {
            let (_, b) = &token_blocks.blocks[bi as usize];
            let w = block_weight[bi as usize];
            for &o in b.members(side.other()) {
                if dirty && o.0 == this {
                    continue;
                }
                *acc.entry(o.0).or_insert(0.0) += w;
            }
        }
        match weighting {
            BetaWeighting::Arcs | BetaWeighting::Cbs => {}
            BetaWeighting::Ecbs => {
                let self_factor =
                    (total_blocks / f64::from(counts_self[this as usize].max(1))).ln().max(1e-9);
                for (o, cbs) in acc.iter_mut() {
                    let other_factor =
                        (total_blocks / f64::from(counts_other[*o as usize].max(1))).ln().max(1e-9);
                    *cbs *= self_factor * other_factor;
                }
            }
            BetaWeighting::Js => {
                let bi = f64::from(counts_self[this as usize].max(1));
                for (o, cbs) in acc.iter_mut() {
                    let bj = f64::from(counts_other[*o as usize].max(1));
                    let denom = bi + bj - *cbs;
                    *cbs = if denom > 0.0 { *cbs / denom } else { 0.0 };
                }
            }
        }
        out.push(top_candidates_reference(&acc, top_k, adaptive));
    }
    out
}

/// The original full-sort top-K: filter positives, sort by the total
/// order (weight descending, id ascending), optional adaptive floor,
/// truncate.
fn top_candidates_reference(acc: &BTreeMap<u32, f64>, top_k: usize, adaptive: bool) -> Vec<Candidate> {
    let mut cands: Vec<Candidate> = acc
        .iter()
        .filter(|&(_, &w)| w > 0.0)
        .map(|(&e, &w)| (EntityId(e), w))
        .collect();
    cands.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    if adaptive && cands.len() > 1 {
        let n = cands.len() as f64;
        let mean = cands.iter().map(|&(_, w)| w).sum::<f64>() / n;
        let var = cands.iter().map(|&(_, w)| (w - mean).powi(2)).sum::<f64>() / n;
        let floor = mean + 0.5 * var.sqrt();
        let keep = cands.iter().take_while(|&&(_, w)| w >= floor).count();
        cands.truncate(keep.max(1));
    }
    cands.truncate(top_k);
    cands
}

/// `getTopInNeighbors` (lines 35-48) as the original wrote it: for every
/// entity of `side`, the entities that list it among their top-N neighbors.
fn top_in_neighbors(
    pair: &KbPair,
    rels: &RelationStats,
    side: Side,
    n_relations: usize,
) -> Vec<Vec<EntityId>> {
    let kb = pair.kb(side);
    let mut reverse: Vec<Vec<EntityId>> = vec![Vec::new(); kb.len()];
    for (e, _) in kb.iter() {
        for nb in rels.top_n_neighbors(pair, side, e, n_relations) {
            reverse[nb.index()].push(e);
        }
    }
    reverse
}

/// The original γ aggregation, with the β edge set and the γ cells held in
/// `BTreeMap`s: edges are consumed ascending by `(left, right)`, defining
/// the per-cell `f64` summation order.
#[allow(clippy::too_many_arguments)]
fn gamma_pass_reference(
    pair: &KbPair,
    value_left: &[Vec<Candidate>],
    value_right: &[Vec<Candidate>],
    in_left: &[Vec<EntityId>],
    in_right: &[Vec<EntityId>],
    top_k: usize,
    adaptive: bool,
) -> (Vec<Vec<Candidate>>, Vec<Vec<Candidate>>) {
    let mut beta_edges: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for (i, cands) in value_left.iter().enumerate() {
        for &(j, w) in cands {
            beta_edges.insert((i as u32, j.0), w);
        }
    }
    for (j, cands) in value_right.iter().enumerate() {
        for &(i, w) in cands {
            beta_edges.entry((i.0, j as u32)).or_insert(w);
        }
    }

    let dirty = pair.is_dirty();
    let mut gamma: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for (&(i, j), &beta) in &beta_edges {
        for &a in &in_left[i as usize] {
            for &b in &in_right[j as usize] {
                if dirty && a == b {
                    continue;
                }
                *gamma.entry((a.0, b.0)).or_insert(0.0) += beta;
            }
        }
    }

    let mut per_left: Vec<BTreeMap<u32, f64>> = vec![BTreeMap::new(); pair.kb(Side::Left).len()];
    let mut per_right: Vec<BTreeMap<u32, f64>> = vec![BTreeMap::new(); pair.kb(Side::Right).len()];
    for (&(a, b), &g) in &gamma {
        per_left[a as usize].insert(b, g);
        per_right[b as usize].insert(a, g);
    }
    let left = per_left.iter().map(|acc| top_candidates_reference(acc, top_k, adaptive)).collect();
    let right = per_right.iter().map(|acc| top_candidates_reference(acc, top_k, adaptive)).collect();
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_blocking_graph;
    use crate::name::build_name_blocks;
    use crate::purge::purge_blocks;
    use crate::token::build_token_blocks;
    use minoaner_dataflow::Executor;
    use minoaner_kb::dirty::DirtyKbBuilder;
    use minoaner_kb::stats::NameStats;
    use minoaner_det::rng::{for_each_seed, Rng};
    use minoaner_kb::{KbPairBuilder, Term};

    /// One generated entity: literal attributes (token indices into a
    /// small shared vocabulary) plus intra-KB relations (target entity
    /// indices).
    #[derive(Debug, Clone)]
    struct EntitySpec {
        literals: Vec<Vec<usize>>,
        rels: Vec<usize>,
    }

    const VOCAB: &[&str] = &[
        "fat", "duck", "bray", "lake", "chef", "celebrity", "village", "county", "kingdom",
        "restaurant", "berkshire", "john",
    ];

    /// Three to eight entities of one or two literals (one to three
    /// vocabulary words each) and up to two relations.
    fn random_side(rng: &mut Rng) -> Vec<EntitySpec> {
        let n = rng.gen_range(3..9usize);
        (0..n)
            .map(|_| EntitySpec {
                literals: (0..rng.gen_range(1..3usize))
                    .map(|_| (0..rng.gen_range(1..4usize)).map(|_| rng.gen_range(0..VOCAB.len())).collect())
                    .collect(),
                rels: (0..rng.gen_range(0..3usize)).map(|_| rng.gen_range(0..n)).collect(),
            })
            .collect()
    }

    fn literal_text(tokens: &[usize]) -> String {
        tokens.iter().map(|&t| VOCAB[t]).collect::<Vec<_>>().join(" ")
    }

    fn build_pair(left: &[EntitySpec], right: &[EntitySpec]) -> KbPair {
        let mut b = KbPairBuilder::new();
        for (side, specs, prefix) in
            [(Side::Left, left, "l"), (Side::Right, right, "r")]
        {
            for (i, spec) in specs.iter().enumerate() {
                let uri = format!("{prefix}{i}");
                for (k, lit) in spec.literals.iter().enumerate() {
                    b.add_triple(side, &uri, &format!("p{k}"), Term::Literal(&literal_text(lit)));
                }
                for &target in &spec.rels {
                    let target = target % specs.len();
                    b.add_triple(side, &uri, "rel", Term::Uri(&format!("{prefix}{target}")));
                }
            }
        }
        b.finish()
    }

    fn build_dirty_pair(specs: &[EntitySpec]) -> KbPair {
        let mut b = DirtyKbBuilder::new();
        for (i, spec) in specs.iter().enumerate() {
            let uri = format!("e{i}");
            for (k, lit) in spec.literals.iter().enumerate() {
                b.add_triple(&uri, &format!("p{k}"), Term::Literal(&literal_text(lit)));
            }
            for &target in &spec.rels {
                let target = target % specs.len();
                b.add_triple(&uri, "rel", Term::Uri(&format!("e{target}")));
            }
        }
        b.finish()
    }

    fn assert_bit_equal(new: &BlockingGraph, reference: &BlockingGraph, pair: &KbPair, ctx: &str) {
        assert_eq!(new.alpha_pairs(), reference.alpha_pairs(), "{ctx}: α pairs");
        for side in [Side::Left, Side::Right] {
            for (e, _) in pair.kb(side).iter() {
                let bits = |cands: &[Candidate]| -> Vec<(u32, u64)> {
                    cands.iter().map(|&(c, w)| (c.0, w.to_bits())).collect()
                };
                assert_eq!(
                    bits(new.value_candidates(side, e)),
                    bits(reference.value_candidates(side, e)),
                    "{ctx}: value candidates of {side:?} entity {e:?}"
                );
                assert_eq!(
                    bits(new.neighbor_candidates(side, e)),
                    bits(reference.neighbor_candidates(side, e)),
                    "{ctx}: neighbor candidates of {side:?} entity {e:?}"
                );
            }
        }
        assert_eq!(new.weight_digest(), reference.weight_digest(), "{ctx}: digest");
    }

    /// Builds both kernels over every (weighting, adaptive, top_k, worker)
    /// combination and requires exact equality.
    fn check_equivalence(pair: &KbPair) {
        let rels = RelationStats::compute(pair);
        let names = NameStats::compute(pair, 2);
        let mut tb = build_token_blocks(pair);
        purge_blocks(&mut tb, pair.kb(Side::Left).len() + pair.kb(Side::Right).len());
        let nb = build_name_blocks(pair, &names);
        let executors: Vec<Executor> = [1usize, 2, 8].into_iter().map(Executor::new).collect();
        for weighting in
            [BetaWeighting::Arcs, BetaWeighting::Cbs, BetaWeighting::Ecbs, BetaWeighting::Js]
        {
            for adaptive in [false, true] {
                // top_k 2 exercises the partial-selection path on dense
                // nodes; 15 is the paper default.
                for top_k in [2usize, 15] {
                    let cfg = GraphConfig {
                        top_k,
                        beta_weighting: weighting,
                        adaptive_pruning: adaptive,
                        ..GraphConfig::default()
                    };
                    let reference = build_blocking_graph_reference(pair, &rels, &tb, &nb, &cfg);
                    for exec in &executors {
                        let new = build_blocking_graph(exec, pair, &rels, &tb, &nb, &cfg);
                        let ctx = format!(
                            "{weighting:?} adaptive={adaptive} top_k={top_k} workers={}",
                            exec.workers()
                        );
                        assert_bit_equal(&new, &reference, pair, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_matches_reference_on_random_clean_pairs() {
        for_each_seed(6, |rng| {
            let (left, right) = (random_side(rng), random_side(rng));
            check_equivalence(&build_pair(&left, &right));
        });
    }

    #[test]
    fn kernel_matches_reference_on_random_dirty_kbs() {
        for_each_seed(6, |rng| check_equivalence(&build_dirty_pair(&random_side(rng))));
    }

    #[test]
    fn kernel_matches_reference_with_reciprocal_pruning() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l0", "p", Term::Literal("fat duck restaurant bray"));
        b.add_triple(Side::Left, "l0", "rel", Term::Uri("l1"));
        b.add_triple(Side::Left, "l1", "p", Term::Literal("john lake chef"));
        b.add_triple(Side::Left, "l2", "p", Term::Literal("berkshire county village"));
        b.add_triple(Side::Right, "r0", "p", Term::Literal("the fat duck"));
        b.add_triple(Side::Right, "r0", "rel", Term::Uri("r1"));
        b.add_triple(Side::Right, "r1", "p", Term::Literal("lake chef celebrity"));
        b.add_triple(Side::Right, "r2", "p", Term::Literal("bray berkshire"));
        let pair = b.finish();
        let rels = RelationStats::compute(&pair);
        let names = NameStats::compute(&pair, 2);
        let tb = build_token_blocks(&pair);
        let nb = build_name_blocks(&pair, &names);
        let cfg = GraphConfig { reciprocal_pruning: true, top_k: 2, ..GraphConfig::default() };
        let reference = build_blocking_graph_reference(&pair, &rels, &tb, &nb, &cfg);
        for workers in [1usize, 4] {
            let new =
                build_blocking_graph(&Executor::new(workers), &pair, &rels, &tb, &nb, &cfg);
            assert_bit_equal(&new, &reference, &pair, &format!("reciprocal workers={workers}"));
        }
    }
}
