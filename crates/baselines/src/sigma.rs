//! A SiGMa-style greedy matcher (Lacoste-Julien et al., KDD 2013): seed
//! matches with identical names, then greedily propagate along *aligned
//! relations* — every accepted match boosts the score of its compatible
//! neighbor pairs, which enter a priority queue resolved with unique
//! mapping and a score threshold.
//!
//! Faithful points: identical-name seeds, candidates restricted to pairs
//! with at least two common tokens (§5 of the MinoanER paper notes this
//! about SiGMa), value similarity as normalized weighted Jaccard,
//! data-driven iteration until the queue drains. Simplification: relation
//! alignment is recomputed per round from the current match set instead
//! of incrementally, and scores update per round rather than per
//! acceptance. As in the original, the *alignment of relations is
//! assumed learnable from matched pairs* — an assumption MinoanER
//! deliberately avoids.

use std::collections::BTreeSet;

use minoaner_dataflow::Executor;
use minoaner_kb::stats::{NameStats, TokenEf};
use minoaner_kb::{merge_join, EntityId, KbPair, Merged, Side};

use crate::matching::{in_edges, relation_alignment, Matching};
use crate::umc::unique_mapping_clustering;

/// Acceptance threshold on the combined score.
const THRESHOLD: f64 = 0.2;
/// Weight of neighbor evidence relative to value similarity.
const NEIGHBOR_WEIGHT: f64 = 0.5;
/// Candidate pairs must share at least this many tokens.
const MIN_SHARED_TOKENS: usize = 2;
/// Maximum propagation rounds (the queue usually drains earlier).
const MAX_ROUNDS: usize = 10;
/// Name attributes per KB used for seeding.
const NAME_ATTRS: usize = 2;

/// Normalized weighted Jaccard over token sets with inverse-EF weights —
/// the value similarity of the SiGMa and LINDA analogues both.
pub(crate) fn value_similarity(pair: &KbPair, ef: &TokenEf, l: EntityId, r: EntityId) -> f64 {
    let a = pair.kb(Side::Left).tokens_of(l);
    let b = pair.kb(Side::Right).tokens_of(r);
    let (mut inter, mut union) = (0.0, 0.0);
    for step in merge_join(a, b, |&t| t) {
        match step {
            Merged::Left(t) | Merged::Right(t) => union += ef.token_weight_clamped(t),
            Merged::Both(t, _) => {
                let w = ef.token_weight(t);
                inter += w;
                union += w;
            }
        }
    }
    if union == 0.0 {
        0.0
    } else {
        inter / union
    }
}

fn shared_token_count(pair: &KbPair, l: EntityId, r: EntityId) -> usize {
    let a = pair.kb(Side::Left).tokens_of(l);
    let b = pair.kb(Side::Right).tokens_of(r);
    merge_join(a, b, |&t| t).shared().count()
}

/// Runs SiGMa-style matching.
pub fn run_sigma(executor: &Executor, pair: &KbPair) -> Vec<(EntityId, EntityId)> {
    let ef = executor.time_stage("sigma/ef", || TokenEf::compute(pair));

    // --- Seeds: unique identical names ---
    let names = NameStats::compute(pair, NAME_ATTRS);
    let name_blocks = minoaner_blocking::name::build_name_blocks(pair, &names);
    let seeds = minoaner_blocking::name::alpha_pairs(&name_blocks);

    let mut matches = Matching::new(pair);
    for &(l, r) in &seeds {
        matches.insert(l, r);
    }

    // In-edges so propagation works in both directions: a matched child
    // promotes its parents too.
    let in_l = in_edges(pair, Side::Left);
    let in_r = in_edges(pair, Side::Right);

    // --- Greedy propagation rounds ---
    for round in 0..MAX_ROUNDS {
        let added = executor.time_stage(&format!("sigma/round-{round}"), || {
            let align = relation_alignment(pair, &matches);

            // Frontier: unmatched neighbor pairs of current matches, in
            // both edge directions.
            let mut frontier: BTreeSet<(EntityId, EntityId)> = BTreeSet::new();
            for (l, r) in matches.pairs() {
                for (rl, nl) in pair.kb(Side::Left).entity(l).relation_pairs() {
                    if matches.is_matched(Side::Left, nl) {
                        continue;
                    }
                    for (rr, nr) in pair.kb(Side::Right).entity(r).relation_pairs() {
                        if matches.is_matched(Side::Right, nr) {
                            continue;
                        }
                        if round == 0 || align.contains_key(&(rl, rr)) {
                            frontier.insert((nl, nr));
                        }
                    }
                }
                for &(rl, pl) in in_l.row(l.index()) {
                    if matches.is_matched(Side::Left, pl) {
                        continue;
                    }
                    for &(rr, pr) in in_r.row(r.index()) {
                        if matches.is_matched(Side::Right, pr) {
                            continue;
                        }
                        if round == 0 || align.contains_key(&(rl, rr)) {
                            frontier.insert((pl, pr));
                        }
                    }
                }
            }

            // Score the frontier: value similarity + matched-neighbor bonus.
            let mut scored: Vec<(EntityId, EntityId, f64)> = Vec::new();
            for &(l, r) in &frontier {
                if shared_token_count(pair, l, r) < MIN_SHARED_TOKENS {
                    continue;
                }
                let v = value_similarity(pair, &ef, l, r);
                let mut matched_nbrs = 0usize;
                let mut total_nbrs = 0usize;
                for (_, nl) in pair.kb(Side::Left).entity(l).relation_pairs() {
                    total_nbrs += 1;
                    if let Some(mr) = matches.partner(Side::Left, nl) {
                        if pair.kb(Side::Right).entity(r).relation_pairs().any(|(_, nr)| nr == mr) {
                            matched_nbrs += 1;
                        }
                    }
                }
                let nbr = if total_nbrs == 0 { 0.0 } else { matched_nbrs as f64 / total_nbrs as f64 };
                let score = v + NEIGHBOR_WEIGHT * nbr;
                if score >= THRESHOLD {
                    scored.push((l, r, score));
                }
            }

            let accepted = unique_mapping_clustering(scored, THRESHOLD);
            accepted.into_iter().filter(|&(l, r)| matches.insert(l, r)).count()
        });
        if added == 0 {
            break;
        }
    }
    matches.pairs().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoaner_kb::{KbPairBuilder, Term};

    fn eid(pair: &KbPair, side: Side, uri: &str) -> EntityId {
        pair.kb(side).entity_by_uri(pair.uris().get(uri).unwrap()).unwrap()
    }

    /// Seeded chef propagates to the restaurant via the aligned relation.
    #[test]
    fn propagates_from_name_seeds_to_neighbors() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l:rest", "l:label", Term::Literal("fancy eatery bray berkshire"));
        b.add_triple(Side::Left, "l:rest", "l:hasChef", Term::Uri("l:chef"));
        b.add_triple(Side::Left, "l:chef", "l:label", Term::Literal("jonny lake"));
        b.add_triple(Side::Right, "r:rest", "r:name", Term::Literal("fancy eatery in bray"));
        b.add_triple(Side::Right, "r:rest", "r:headChef", Term::Uri("r:chef"));
        b.add_triple(Side::Right, "r:chef", "r:name", Term::Literal("jonny lake"));
        let pair = b.finish();
        let exec = Executor::new(1);
        let matches = run_sigma(&exec, &pair);
        let chef = (eid(&pair, Side::Left, "l:chef"), eid(&pair, Side::Right, "r:chef"));
        let rest = (eid(&pair, Side::Left, "l:rest"), eid(&pair, Side::Right, "r:rest"));
        assert!(matches.contains(&chef), "seed by identical name");
        assert!(matches.contains(&rest), "propagated via aligned relation");
    }

    #[test]
    fn min_shared_tokens_gates_candidates() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l:a", "l:label", Term::Literal("anchor name"));
        b.add_triple(Side::Left, "l:a", "l:rel", Term::Uri("l:b"));
        b.add_triple(Side::Left, "l:b", "l:label", Term::Literal("solitary"));
        b.add_triple(Side::Right, "r:a", "r:name", Term::Literal("anchor name"));
        b.add_triple(Side::Right, "r:a", "r:rel", Term::Uri("r:b"));
        b.add_triple(Side::Right, "r:b", "r:name", Term::Literal("solitary"));
        let pair = b.finish();
        let exec = Executor::new(1);
        // l:b / r:b share only one token → below the 2-token gate.
        let matches = run_sigma(&exec, &pair);
        let b_pair = (eid(&pair, Side::Left, "l:b"), eid(&pair, Side::Right, "r:b"));
        // They are still matched — but only because the *name seed* covers
        // them (identical unique name), not via the value path.
        assert!(matches.contains(&b_pair));
        // With seeds disabled via distinct names, the gate applies.
        let mut b2 = KbPairBuilder::new();
        b2.add_triple(Side::Left, "l:x", "l:label", Term::Literal("left only"));
        b2.add_triple(Side::Right, "r:x", "r:name", Term::Literal("right unrelated"));
        let pair2 = b2.finish();
        let matches2 = run_sigma(&exec, &pair2);
        assert!(matches2.is_empty());
    }

    #[test]
    fn value_similarity_is_normalized() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l", "p", Term::Literal("a b"));
        b.add_triple(Side::Right, "r", "q", Term::Literal("a b"));
        let pair = b.finish();
        let ef = TokenEf::compute(&pair);
        let l = eid(&pair, Side::Left, "l");
        let r = eid(&pair, Side::Right, "r");
        let v = value_similarity(&pair, &ef, l, r);
        assert!((v - 1.0).abs() < 1e-12, "identical token sets → 1.0, got {v}");
    }

    #[test]
    fn terminates_when_nothing_new() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l", "p", Term::Literal("isolated left"));
        b.add_triple(Side::Right, "r", "q", Term::Literal("other right"));
        let pair = b.finish();
        let exec = Executor::new(1);
        let matches = run_sigma(&exec, &pair);
        assert!(matches.is_empty());
        // Round 0 adds nothing, so the loop stops there, well short of
        // MAX_ROUNDS.
        let log = exec.stage_log();
        assert!(log.find("sigma/round-0").is_some());
        assert!(log.find("sigma/round-1").is_none());
    }
}
