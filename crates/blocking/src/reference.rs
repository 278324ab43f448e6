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
//! The block builders' predecessor is kept the same way: token and name
//! blocking as a `Vec` per key and side filled entity by entity, and purging
//! as a `retain` over `(key, left, right)` triples. The loops below hold the
//! column-inversion builders, the row filters and [`crate::graph::GraphIndex`]
//! to it on random pairs.
//!
//! Compiled only for tests: nothing ships it.

use std::collections::BTreeMap;

use minoaner_kb::stats::{NameStats, RelationStats};
use minoaner_kb::{EntityId, KbPair, LiteralId, Rows, Side, TokenId};

use crate::block::{NameBlocks, TokenBlocks};
use crate::graph::{
    apply_reciprocal_pruning, BetaWeighting, BlockingGraph, Candidate, GraphConfig,
};
use crate::name::{alpha_pairs, alpha_pairs_dirty};
use crate::purge::PurgeReport;

/// One block the way the collections held it before they were columns.
pub type BlockReference<K> = (K, Vec<EntityId>, Vec<EntityId>);

/// The blocks of two `Vec`-per-key inversions: the keys present on both
/// sides, ascending.
fn assemble_reference<K>(
    [left, right]: [Vec<Vec<EntityId>>; 2],
    key: impl Fn(u32) -> K,
) -> Vec<BlockReference<K>> {
    let both = (0u32..).zip(left.into_iter().zip(right));
    both.filter(|(_, (l, r))| !l.is_empty() && !r.is_empty()).map(|(k, (l, r))| (key(k), l, r)).collect()
}

/// Token blocking as it was built: one posting `Vec` per token and side,
/// each entity pushed onto the list of every token of its set.
pub fn token_blocks_reference(pair: &KbPair) -> Vec<BlockReference<TokenId>> {
    let inverted = [Side::Left, Side::Right].map(|side| {
        let kb = pair.kb(side);
        let mut inv: Vec<Vec<EntityId>> = vec![Vec::new(); pair.token_space()];
        for (id, _) in kb.iter() {
            for &TokenId(tok) in kb.tokens_of(id) {
                inv[tok as usize].push(id);
            }
        }
        inv
    });
    assemble_reference(inverted, TokenId)
}

/// Name blocking as it was built: one `Vec` per literal and side, filled
/// from each entity's sorted, deduplicated [`NameStats::names_of`].
pub fn name_blocks_reference(pair: &KbPair, names: &NameStats) -> Vec<BlockReference<LiteralId>> {
    let inverted = [Side::Left, Side::Right].map(|side| {
        let mut inv: Vec<Vec<EntityId>> = vec![Vec::new(); pair.literal_space()];
        for (id, _) in pair.kb(side).iter() {
            for LiteralId(lit) in names.names_of(pair, side, id) {
                inv[lit as usize].push(id);
            }
        }
        inv
    });
    assemble_reference(inverted, LiteralId)
}

/// The budget criterion and the cap, from the definition: cardinality
/// levels are admitted whole, smallest first, while the running total stays
/// within `budget` (level 1 always is); everything above the last admitted
/// level goes, unless the whole collection fits.
pub fn purge_reference(blocks: &mut Vec<BlockReference<TokenId>>, budget: u64) -> PurgeReport {
    let comparisons = |(_, l, r): &BlockReference<TokenId>| l.len() as u64 * r.len() as u64;
    let mut per_level: BTreeMap<u64, u64> = BTreeMap::new();
    for block in blocks.iter() {
        *per_level.entry(comparisons(block)).or_insert(0) += comparisons(block);
    }
    let comparisons_before: u64 = per_level.values().sum();
    let mut max_comparisons = if comparisons_before <= budget { u64::MAX } else { 1 };
    let mut running = 0u64;
    for (&level, &total) in &per_level {
        running += total;
        if running > budget {
            break;
        }
        max_comparisons = max_comparisons.max(level);
    }
    let blocks_before = blocks.len();
    blocks.retain(|block| comparisons(block) <= max_comparisons);
    PurgeReport {
        max_comparisons,
        blocks_before,
        blocks_after: blocks.len(),
        comparisons_before,
        comparisons_after: blocks.iter().map(comparisons).sum(),
    }
}

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
            .iter()
            .map(|(_, b)| 1.0 / (b.comparisons() as f64 + 1.0).log2())
            .collect(),
        BetaWeighting::Cbs | BetaWeighting::Ecbs | BetaWeighting::Js => {
            vec![1.0; token_blocks.len()]
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
    let total_blocks = token_blocks.len() as f64;
    let mut counts_self = vec![0u32; n];
    let mut counts_other = vec![0u32; pair.kb(side.other()).len()];
    if needs_counts {
        for (counts, side) in [(&mut counts_self, side), (&mut counts_other, side.other())] {
            for e in token_blocks.members(side).data() {
                counts[e.index()] += 1;
            }
        }
    }

    let mut entity_blocks: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (bi, members) in token_blocks.members(side).iter().enumerate() {
        for &e in members {
            entity_blocks[e.index()].push(bi as u32);
        }
    }

    let dirty = pair.is_dirty();
    let members_other: &Rows<EntityId> = token_blocks.members(side.other());
    let mut out: Vec<Vec<Candidate>> = Vec::with_capacity(n);
    let mut acc: BTreeMap<u32, f64> = BTreeMap::new();
    for (this, blocks_of_entity) in entity_blocks.iter().enumerate() {
        let this = this as u32;
        acc.clear();
        for &bi in blocks_of_entity {
            let w = block_weight[bi as usize];
            for &o in members_other.row(bi as usize) {
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

    /// A side for the block builders: like [`random_side`] but possibly
    /// empty, with a word no other side uses, optionally one word every
    /// entity carries, and entities whose second literal repeats the first —
    /// one name under two attributes.
    fn blocking_side(rng: &mut Rng, own_word: usize, everywhere: Option<usize>) -> Vec<EntitySpec> {
        let n = rng.gen_range(0..9usize);
        (0..n)
            .map(|_| {
                let mut first: Vec<usize> =
                    (0..rng.gen_range(1..4usize)).map(|_| rng.gen_range(0..VOCAB.len() - 2)).collect();
                first.extend(everywhere);
                if rng.gen_range(0..3usize) == 0 {
                    first.push(own_word);
                }
                let second = match rng.gen_range(0..3usize) {
                    0 => first.clone(),
                    _ => vec![rng.gen_range(0..VOCAB.len() - 2)],
                };
                EntitySpec {
                    literals: vec![first, second],
                    rels: (0..rng.gen_range(0..3usize)).map(|_| rng.gen_range(0..n)).collect(),
                }
            })
            .collect()
    }

    /// A random pair for the block builders; every fourth is a dirty KB.
    fn blocking_pair(rng: &mut Rng) -> KbPair {
        let everywhere = (rng.gen_range(0..2usize) == 0).then_some(0);
        let (berkshire, john) = (VOCAB.len() - 2, VOCAB.len() - 1);
        if rng.gen_range(0..4usize) == 0 {
            build_dirty_pair(&blocking_side(rng, berkshire, everywhere))
        } else {
            build_pair(&blocking_side(rng, berkshire, everywhere), &blocking_side(rng, john, everywhere))
        }
    }

    fn as_reference<K: Copy>(blocks: &crate::block::Blocks<K>) -> Vec<BlockReference<K>> {
        blocks.iter().map(|(key, b)| (key, b.left.to_vec(), b.right.to_vec())).collect()
    }

    #[test]
    fn token_blocks_and_the_graph_index_equal_the_vec_per_token_construction() {
        for_each_seed(120, |rng| {
            let pair = blocking_pair(rng);
            let want = token_blocks_reference(&pair);
            let blocks = build_token_blocks(&pair);
            assert_eq!(as_reference(&blocks), want);
            for workers in [1usize, 2, 8] {
                let exec = Executor::new(workers);
                let staged = crate::token::build_token_blocks_parallel(&exec, &pair);
                assert_eq!(staged, blocks, "{workers} workers");
            }

            // The index borrows the member tables and transposes them:
            // an entity's row lists the blocks holding it, ascending.
            let index = crate::graph::GraphIndex::build(&pair, &blocks);
            for (side, members, entity_blocks) in [
                (Side::Left, index.members[0], &index.entity_blocks[0]),
                (Side::Right, index.members[1], &index.entity_blocks[1]),
            ] {
                let want_members: Vec<&[EntityId]> = want
                    .iter()
                    .map(|(_, l, r)| if side == Side::Left { &l[..] } else { &r[..] })
                    .collect();
                assert_eq!(members.iter().collect::<Vec<_>>(), want_members, "{side:?} members");
                let holding = pair.kb(side).iter().map(|(e, _)| -> Vec<u32> {
                    (0u32..).zip(&want_members).filter(|(_, row)| row.contains(&e)).map(|(bi, _)| bi).collect()
                });
                assert!(entity_blocks.iter().eq(holding), "{side:?} entity blocks");
            }
        });
    }

    #[test]
    fn purging_equals_the_retain_over_block_triples_also_at_the_cap() {
        use crate::purge::{purge_limit_budget, purge_with_cap};
        for_each_seed(120, |rng| {
            let pair = blocking_pair(rng);
            let blocks = build_token_blocks(&pair);
            let reference = token_blocks_reference(&pair);
            // Budgets on, one under and one over every running total of the
            // ascending block sizes: the cap ties with a level at each.
            let mut sizes: Vec<u64> = blocks.iter().map(|(_, b)| b.comparisons()).collect();
            sizes.sort_unstable();
            let mut budgets = vec![0u64, 1, u64::MAX];
            let mut running = 0u64;
            for size in sizes {
                running += size;
                budgets.extend([running - 1, running, running + 1]);
            }
            for budget in budgets {
                let (mut got, mut want) = (blocks.clone(), reference.clone());
                let limit = purge_limit_budget(&got, budget);
                let report = purge_with_cap(&mut got, limit);
                assert_eq!(report, purge_reference(&mut want, budget), "budget {budget}");
                assert_eq!(as_reference(&got), want, "budget {budget}");
            }
            let entities = pair.kb(Side::Left).len() + pair.kb(Side::Right).len();
            let (mut got, mut want) = (blocks, reference);
            let budget = crate::purge::DEFAULT_BUDGET_PER_ENTITY * entities.max(1) as u64;
            assert_eq!(purge_blocks(&mut got, entities), purge_reference(&mut want, budget));
            assert_eq!(as_reference(&got), want);
        });
    }

    #[test]
    fn name_blocks_and_alpha_pairs_equal_the_vec_per_literal_construction() {
        for_each_seed(120, |rng| {
            let pair = blocking_pair(rng);
            for k in [1usize, 2] {
                let names = NameStats::compute(&pair, k);
                let want = name_blocks_reference(&pair, &names);
                let blocks = build_name_blocks(&pair, &names);
                assert_eq!(as_reference(&blocks), want, "k={k}");

                let mut clean: Vec<(EntityId, EntityId)> = want
                    .iter()
                    .filter(|(_, l, r)| l.len() == 1 && r.len() == 1)
                    .map(|(_, l, r)| (l[0], r[0]))
                    .collect();
                clean.sort_unstable();
                clean.dedup();
                assert_eq!(alpha_pairs(&blocks), clean, "k={k}");
                let mut dirty: Vec<(EntityId, EntityId)> = want
                    .iter()
                    .filter(|(_, l, r)| l.len() == 2 && l == r)
                    .map(|(_, l, _)| (l[0].min(l[1]), l[0].max(l[1])))
                    .collect();
                dirty.sort_unstable();
                dirty.dedup();
                assert_eq!(alpha_pairs_dirty(&blocks), dirty, "k={k}");
            }
        });
    }

    #[test]
    fn neighbor_views_equal_top_n_neighbors_entity_by_entity() {
        use crate::graph::NeighborViews;
        for_each_seed(120, |rng| {
            // Up to five relations of unequal support and discriminability,
            // some entities using one twice or pointing at one target under
            // two of them; an empty side now and then.
            let mut b = KbPairBuilder::new();
            for (side, prefix) in [(Side::Left, "l"), (Side::Right, "r")] {
                let n = rng.gen_range(0..10usize);
                for i in 0..n {
                    let uri = format!("{prefix}{i}");
                    b.add_triple(side, &uri, "label", Term::Literal(VOCAB[i % VOCAB.len()]));
                    for _ in 0..rng.gen_range(0..6usize) {
                        let relation = format!("rel{}", rng.gen_range(0..5usize).min(rng.gen_range(0..5usize)));
                        let target = format!("{prefix}{}", rng.gen_range(0..n));
                        b.add_triple(side, &uri, &relation, Term::Uri(&target));
                    }
                }
            }
            let pair = b.finish();
            let rels = RelationStats::compute(&pair);
            for n_relations in 0..5 {
                for side in [Side::Left, Side::Right] {
                    let views = NeighborViews::compute(&pair, &rels, side, n_relations);
                    let mut listed_by: Vec<Vec<u32>> = vec![Vec::new(); pair.kb(side).len()];
                    let mut want: Vec<Vec<u32>> = Vec::new();
                    for (EntityId(e), _) in pair.kb(side).iter() {
                        let top = rels.top_n_neighbors(&pair, side, EntityId(e), n_relations);
                        top.iter().for_each(|&EntityId(nb)| listed_by[nb as usize].push(e));
                        want.push(top.into_iter().map(|nb| nb.0).collect());
                    }
                    assert!(views.top.iter().eq(want), "N={n_relations} {side:?} top");
                    assert!(views.incoming.iter().eq(listed_by), "N={n_relations} {side:?} incoming");
                }
            }
        });
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
