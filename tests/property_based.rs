//! Property-based integration tests (seeded loops): invariants of the value
//! similarity metric (Proposition 1 of the paper), the blocking layer, the
//! pruned graph, the matcher, and unique mapping clustering — on randomly
//! generated KB pairs.

use minoaner::baselines::umc::unique_mapping_clustering;
use minoaner::blocking::graph::{build_blocking_graph, GraphConfig};
use minoaner::blocking::name::build_name_blocks;
use minoaner::blocking::token::build_token_blocks;
use minoaner::core::matcher::run_matching;
use minoaner::kb::stats::{value_sim, NameStats, RelationStats, TokenEf};
use minoaner::det::rng::{for_each_seed, Rng};
use minoaner::{EntityId, Executor, KbPairBuilder, Minoaner, Side, Term};

/// A random literal made of tokens from a tiny vocabulary, so overlaps are
/// common and the interesting code paths fire.
fn random_literal(rng: &mut Rng) -> String {
    let tokens: Vec<String> =
        (0..rng.gen_range(1..6usize)).map(|_| format!("w{}", rng.gen_range(0..25u8))).collect();
    tokens.join(" ")
}

/// A random clean-clean KB pair: per side, a handful of entities with
/// random literals and random intra-KB relation edges.
fn random_pair(rng: &mut Rng) -> (minoaner::KbPair, usize, usize) {
    let side = |rng: &mut Rng| -> Vec<Vec<String>> {
        (0..rng.gen_range(1..8usize))
            .map(|_| (0..rng.gen_range(1..4usize)).map(|_| random_literal(rng)).collect())
            .collect()
    };
    let (left, right) = (side(rng), side(rng));
    let edges: Vec<(usize, usize)> =
        (0..rng.gen_range(0..6usize)).map(|_| (rng.gen_range(0..8usize), rng.gen_range(0..8usize))).collect();
    let mut b = KbPairBuilder::new();
    for (side_tag, entities) in [(Side::Left, &left), (Side::Right, &right)] {
        let prefix = if side_tag == Side::Left { "l" } else { "r" };
        for (i, lits) in entities.iter().enumerate() {
            let uri = format!("{prefix}:{i}");
            let e = b.entity(side_tag, &uri);
            for (j, lit) in lits.iter().enumerate() {
                b.add_pair(side_tag, e, &format!("{prefix}:attr{j}"), Term::Literal(lit));
            }
        }
        for &(from, to) in &edges {
            let (from, to) = (from % entities.len(), to % entities.len());
            if from != to {
                let f = format!("{prefix}:{from}");
                let t = format!("{prefix}:{to}");
                let e = b.entity(side_tag, &f);
                b.add_pair(side_tag, e, &format!("{prefix}:rel"), Term::Uri(&t));
            }
        }
    }
    (b.finish(), left.len(), right.len())
}

/// Proposition 1: valueSim is non-negative and bounded by the
/// self-similarity of either argument.
#[test]
fn value_sim_metric_properties() {
    for_each_seed(64, |rng| {
        let (pair, nl, nr) = random_pair(rng);
        let ef = TokenEf::compute(&pair);
        let self_weight = |side: Side, e: EntityId| -> f64 {
            pair.kb(side).tokens_of(e).iter().map(|&t| ef.token_weight(t)).sum()
        };
        for l in 0..nl.min(4) {
            for r in 0..nr.min(4) {
                let (le, re) = (EntityId(l as u32), EntityId(r as u32));
                let s = value_sim(&pair, &ef, le, re);
                assert!(s >= 0.0);
                assert!(s <= self_weight(Side::Left, le) + 1e-9,
                    "sim exceeds left self-similarity");
                assert!(s <= self_weight(Side::Right, re) + 1e-9,
                    "sim exceeds right self-similarity");
            }
        }
    });
}

/// Blocking completeness: any cross-KB pair sharing a token co-occurs
/// in the (unpurged) token blocks.
#[test]
fn token_blocking_is_complete() {
    for_each_seed(64, |rng| {
        let (pair, nl, nr) = random_pair(rng);
        let blocks = build_token_blocks(&pair);
        for l in 0..nl {
            for r in 0..nr {
                let (le, re) = (EntityId(l as u32), EntityId(r as u32));
                let tl = pair.kb(Side::Left).tokens_of(le);
                let tr = pair.kb(Side::Right).tokens_of(re);
                let shares = tl.iter().any(|t| tr.contains(t));
                if shares {
                    let co_occurs = blocks.iter().any(|(_, b)| {
                        b.left.contains(&le) && b.right.contains(&re)
                    });
                    assert!(co_occurs, "pair sharing a token must share a block");
                }
            }
        }
    });
}

/// Graph pruning invariants: candidate lists are bounded by K, sorted
/// by weight, and every β weight is positive.
#[test]
fn graph_pruning_invariants() {
    for_each_seed(64, |rng| {
        let (pair, nl, nr) = random_pair(rng);
        let k = rng.gen_range(1..6usize);
        let exec = Executor::new(1);
        let rels = RelationStats::compute(&pair);
        let names = NameStats::compute(&pair, 2);
        let tb = build_token_blocks(&pair);
        let nb = build_name_blocks(&pair, &names);
        let cfg = GraphConfig { top_k: k, n_relations: 2, ..GraphConfig::default() };
        let g = build_blocking_graph(&exec, &pair, &rels, &tb, &nb, &cfg);
        for (side, n) in [(Side::Left, nl), (Side::Right, nr)] {
            for i in 0..n {
                let e = EntityId(i as u32);
                for list in [g.value_candidates(side, e), g.neighbor_candidates(side, e)] {
                    assert!(list.len() <= k, "candidate list exceeds K");
                    assert!(list.windows(2).all(|w| w[0].weight() >= w[1].weight()), "not sorted");
                    assert!(list.iter().all(|c| c.weight() > 0.0), "trivial edge kept");
                }
            }
        }
    });
}

/// The matcher always yields a partial one-to-one mapping, and every
/// match is connected in the pruned graph in both directions (R4).
#[test]
fn matcher_produces_reciprocal_partial_matching() {
    for_each_seed(64, |rng| {
        let (pair, _nl, _nr) = random_pair(rng);
        let exec = Executor::new(1);
        let m = Minoaner::new();
        let blocks = m.prepare_blocks(&exec, &pair);
        let graph = m.build_graph_from_blocks(&exec, &pair, &blocks, false);
        let outcome = run_matching(&exec, &pair, &graph, m.config(), minoaner::RuleSet::FULL);
        let mut lefts: Vec<_> = outcome.matches.iter().map(|&(l, _)| l).collect();
        lefts.sort_unstable();
        let n = lefts.len();
        lefts.dedup();
        assert_eq!(lefts.len(), n, "left endpoint reused");
        for &(l, r) in &outcome.matches {
            assert!(graph.has_directed_edge(Side::Left, l, r));
            assert!(graph.has_directed_edge(Side::Right, r, l));
        }
    });
}

/// UMC invariants: output is a partial matching; scores of accepted
/// pairs respect the threshold; accepting order never assigns a worse
/// pair when a better one was available for the same entities.
#[test]
fn umc_invariants() {
    for_each_seed(64, |rng| {
        let scored: Vec<(EntityId, EntityId, f64)> = (0..rng.gen_range(0..40usize))
            .map(|_| (EntityId(rng.gen_range(0..10u32)), EntityId(rng.gen_range(0..10u32)), rng.next_f64()))
            .collect();
        let threshold = rng.next_f64();
        let result = unique_mapping_clustering(scored.clone(), threshold);
        let mut seen_l = minoaner::DetHashSet::default();
        let mut seen_r = minoaner::DetHashSet::default();
        for &(l, r) in &result {
            assert!(seen_l.insert(l), "left endpoint reused");
            assert!(seen_r.insert(r), "right endpoint reused");
            let best = scored
                .iter()
                .filter(|&&(pl, pr, _)| pl == l && pr == r)
                .map(|&(_, _, s)| s)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(best >= threshold, "accepted pair below threshold");
        }
    });
}
