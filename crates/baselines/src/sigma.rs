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

use minoaner_det::{DetHashMap, DetHashSet};

use minoaner_dataflow::Executor;
use minoaner_kb::stats::{NameStats, TokenEf};
use minoaner_kb::{AttrId, EntityId, KbPair, Side};

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
    let (mut i, mut j) = (0, 0);
    let (mut inter, mut union) = (0.0, 0.0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                union += ef.token_weight_clamped(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                union += ef.token_weight_clamped(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let w = ef.token_weight(a[i]);
                inter += w;
                union += w;
                i += 1;
                j += 1;
            }
        }
    }
    for &t in &a[i..] {
        union += ef.token_weight_clamped(t);
    }
    for &t in &b[j..] {
        union += ef.token_weight_clamped(t);
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
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Runs SiGMa-style matching.
pub fn run_sigma(executor: &Executor, pair: &KbPair) -> Vec<(EntityId, EntityId)> {
    let ef = executor.time_stage("sigma/ef", || TokenEf::compute(pair));

    // --- Seeds: unique identical names ---
    let names = NameStats::compute(pair, NAME_ATTRS);
    let name_blocks = minoaner_blocking::name::build_name_blocks(pair, &names);
    let seeds = minoaner_blocking::name::alpha_pairs(&name_blocks);

    let mut matched_l: DetHashMap<EntityId, EntityId> = DetHashMap::default();
    let mut matched_r: DetHashMap<EntityId, EntityId> = DetHashMap::default();
    for &(l, r) in &seeds {
        if !matched_l.contains_key(&l) && !matched_r.contains_key(&r) {
            matched_l.insert(l, r);
            matched_r.insert(r, l);
        }
    }

    // In-edge lists (child → [(relation, parent)]) so propagation works in
    // both directions: a matched child promotes its parents too.
    let in_edges = |side: Side| -> Vec<Vec<(AttrId, EntityId)>> {
        let kb = pair.kb(side);
        let mut rev: Vec<Vec<(AttrId, EntityId)>> = vec![Vec::new(); kb.len()];
        for (x, e) in kb.iter() {
            for (r, t) in e.relation_pairs() {
                rev[t.index()].push((r, x));
            }
        }
        rev
    };
    let in_l = in_edges(Side::Left);
    let in_r = in_edges(Side::Right);

    // --- Greedy propagation rounds ---
    for round in 0..MAX_ROUNDS {
        let added = executor.time_stage(&format!("sigma/round-{round}"), || {
            // Relation alignment from the current match set.
            let mut align: DetHashMap<(AttrId, AttrId), u64> = DetHashMap::default();
            #[expect(clippy::iter_over_hash_type, reason = "integer counts: a sum of them does not \
                      depend on the order")]
            for (&l, &r) in &matched_l {
                for (rl, nl) in pair.kb(Side::Left).entity(l).relation_pairs() {
                    if let Some(&mr) = matched_l.get(&nl) {
                        for (rr, nr) in pair.kb(Side::Right).entity(r).relation_pairs() {
                            if nr == mr {
                                *align.entry((rl, rr)).or_insert(0) += 1;
                            }
                        }
                    }
                }
            }

            // Frontier: unmatched neighbor pairs of current matches, in
            // both edge directions.
            let mut frontier: DetHashSet<(EntityId, EntityId)> = DetHashSet::default();
            #[expect(clippy::iter_over_hash_type, reason = "builds a set: its members do not \
                      depend on the order they arrive in")]
            for (&l, &r) in &matched_l {
                for (rl, nl) in pair.kb(Side::Left).entity(l).relation_pairs() {
                    if matched_l.contains_key(&nl) {
                        continue;
                    }
                    for (rr, nr) in pair.kb(Side::Right).entity(r).relation_pairs() {
                        if matched_r.contains_key(&nr) {
                            continue;
                        }
                        if align.get(&(rl, rr)).copied().unwrap_or(0) > 0 || round == 0 {
                            frontier.insert((nl, nr));
                        }
                    }
                }
                for &(rl, pl) in &in_l[l.index()] {
                    if matched_l.contains_key(&pl) {
                        continue;
                    }
                    for &(rr, pr) in &in_r[r.index()] {
                        if matched_r.contains_key(&pr) {
                            continue;
                        }
                        if align.get(&(rl, rr)).copied().unwrap_or(0) > 0 || round == 0 {
                            frontier.insert((pl, pr));
                        }
                    }
                }
            }

            // Score the frontier: value similarity + matched-neighbor bonus.
            let mut scored: Vec<(EntityId, EntityId, f64)> = Vec::new();
            #[expect(clippy::iter_over_hash_type, reason = "each pair is scored alone, and unique \
                      mapping sorts the scores by a total order")]
            for &(l, r) in &frontier {
                if shared_token_count(pair, l, r) < MIN_SHARED_TOKENS {
                    continue;
                }
                let v = value_similarity(pair, &ef, l, r);
                let mut matched_nbrs = 0usize;
                let mut total_nbrs = 0usize;
                for (_, nl) in pair.kb(Side::Left).entity(l).relation_pairs() {
                    total_nbrs += 1;
                    if let Some(&mr) = matched_l.get(&nl) {
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
            let mut added = 0;
            for (l, r) in accepted {
                if !matched_l.contains_key(&l) && !matched_r.contains_key(&r) {
                    matched_l.insert(l, r);
                    matched_r.insert(r, l);
                    added += 1;
                }
            }
            added
        });
        if added == 0 {
            break;
        }
    }

    let mut out: Vec<(EntityId, EntityId)> = matched_l.into_iter().collect();
    out.sort_unstable();
    out
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
