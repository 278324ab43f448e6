//! A RiMOM-IM-style iterative matcher (Shao et al., JCST 2016): blocking
//! on each entity's top-5 TF-IDF tokens, cosine TF-IDF similarity with
//! unique-mapping selection, and the *one-left-object* propagation
//! heuristic — if a matched pair is connected via aligned relations and
//! exactly one neighbor on each side is still unmatched, those two
//! neighbors are matched — iterated to fixpoint.
//!
//! Simplification vs the original: RiMOM-IM blocks on (attribute, token)
//! pairs and therefore needs attribute alignment (§5 of the MinoanER
//! paper); this analogue blocks on tokens alone, which is *more* lenient
//! on schema-heterogeneous data. Relation alignment is learned from the
//! current match set.

use minoaner_det::{DetHashMap, DetHashSet};

use minoaner_dataflow::Executor;
use minoaner_kb::stats::TokenEf;
use minoaner_kb::{merge_join, EntityId, KbPair, Side, TokenId};

use crate::matching::{relation_alignment, Matching};
use crate::umc::unique_mapping_clustering;

/// Number of top TF-IDF tokens per entity used as blocking keys.
const TOP_TOKENS: usize = 5;
/// Acceptance threshold on cosine similarity.
const THRESHOLD: f64 = 0.5;
/// Maximum one-left-object propagation sweeps.
const MAX_SWEEPS: usize = 10;

/// Per-entity TF-IDF-ranked top tokens.
fn top_tokens(pair: &KbPair, ef: &TokenEf, side: Side, k: usize) -> Vec<Vec<TokenId>> {
    let kb = pair.kb(side);
    let mut out = Vec::with_capacity(kb.len());
    for (id, _) in kb.iter() {
        let mut toks: Vec<(TokenId, f64)> = kb
            .tokens_of(id)
            .iter()
            .map(|&t| {
                let df = (ef.ef(Side::Left, t) + ef.ef(Side::Right, t)).max(1) as f64;
                (t, 1.0 / df)
            })
            .collect();
        toks.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        toks.truncate(k);
        out.push(toks.into_iter().map(|(t, _)| t).collect());
    }
    out
}

/// Cosine similarity over inverse-EF-weighted token sets.
fn cosine(pair: &KbPair, ef: &TokenEf, l: EntityId, r: EntityId) -> f64 {
    let a = pair.kb(Side::Left).tokens_of(l);
    let b = pair.kb(Side::Right).tokens_of(r);
    let dot = merge_join(a, b, |&t| t).shared().fold(0.0, |dot, (t, _)| {
        let w = ef.token_weight(t);
        dot + w * w
    });
    let norm = |ts: &[TokenId]| -> f64 {
        ts.iter().map(|&t| ef.token_weight_clamped(t).powi(2)).sum::<f64>().sqrt()
    };
    let (na, nb) = (norm(a), norm(b));
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Runs RiMOM-IM-style matching.
pub fn run_rimom(executor: &Executor, pair: &KbPair) -> Vec<(EntityId, EntityId)> {
    let ef = executor.time_stage("rimom/ef", || TokenEf::compute(pair));

    // --- Blocking on top-k TF-IDF tokens ---
    let top_l = top_tokens(pair, &ef, Side::Left, TOP_TOKENS);
    let top_r = top_tokens(pair, &ef, Side::Right, TOP_TOKENS);
    let mut by_token: DetHashMap<TokenId, (Vec<EntityId>, Vec<EntityId>)> = DetHashMap::default();
    for (i, toks) in top_l.iter().enumerate() {
        for &t in toks {
            by_token.entry(t).or_default().0.push(EntityId(i as u32));
        }
    }
    for (i, toks) in top_r.iter().enumerate() {
        for &t in toks {
            by_token.entry(t).or_default().1.push(EntityId(i as u32));
        }
    }
    let mut candidates: DetHashSet<(EntityId, EntityId)> = DetHashSet::default();
    #[expect(clippy::iter_over_hash_type, reason = "builds a set: its members do not depend on the \
              order they arrive in")]
    for (_, (ls, rs)) in by_token {
        // Over-frequent keys carry no discriminative power (and would make
        // blocking quadratic); skip them like the original's block purging.
        if ls.len() * rs.len() > 10_000 {
            continue;
        }
        for &l in &ls {
            for &r in &rs {
                candidates.insert((l, r));
            }
        }
    }

    // --- Initial similarity pass + UMC ---
    #[expect(clippy::disallowed_methods, reason = "each candidate is scored alone, and unique \
              mapping sorts the scores by a total order")]
    let scored: Vec<(EntityId, EntityId, f64)> = executor.time_stage("rimom/similarity", || {
        candidates
            .iter()
            .map(|&(l, r)| (l, r, cosine(pair, &ef, l, r)))
            .filter(|&(_, _, s)| s >= THRESHOLD)
            .collect()
    });
    let mut matches = Matching::new(pair);
    for (l, r) in unique_mapping_clustering(scored, THRESHOLD) {
        matches.insert(l, r);
    }

    // --- One-left-object sweeps ---
    for sweep in 0..MAX_SWEEPS {
        let added = executor.time_stage(&format!("rimom/sweep-{sweep}"), || {
            let align = relation_alignment(pair, &matches);
            let mut new_pairs: Vec<(EntityId, EntityId)> = Vec::new();
            for (l, r) in matches.pairs() {
                for &(rl, rr) in align.keys() {
                    let open_l: Vec<EntityId> = pair
                        .kb(Side::Left)
                        .entity(l)
                        .relation_pairs()
                        .filter(|&(a, n)| a == rl && !matches.is_matched(Side::Left, n))
                        .map(|(_, n)| n)
                        .collect();
                    let open_r: Vec<EntityId> = pair
                        .kb(Side::Right)
                        .entity(r)
                        .relation_pairs()
                        .filter(|&(a, n)| a == rr && !matches.is_matched(Side::Right, n))
                        .map(|(_, n)| n)
                        .collect();
                    // The one-left-object heuristic.
                    if let ([nl], [nr]) = (open_l.as_slice(), open_r.as_slice()) {
                        new_pairs.push((*nl, *nr));
                    }
                }
            }
            new_pairs.sort_unstable();
            new_pairs.dedup();
            new_pairs.into_iter().filter(|&(l, r)| matches.insert(l, r)).count()
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

    #[test]
    fn matches_high_cosine_pairs() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l:a", "p", Term::Literal("alpha beta gamma"));
        b.add_triple(Side::Right, "r:a", "q", Term::Literal("alpha beta gamma"));
        b.add_triple(Side::Left, "l:b", "p", Term::Literal("totally different words"));
        b.add_triple(Side::Right, "r:b", "q", Term::Literal("unrelated other stuff"));
        let pair = b.finish();
        let exec = Executor::new(1);
        let matches = run_rimom(&exec, &pair);
        assert_eq!(matches, vec![(eid(&pair, Side::Left, "l:a"), eid(&pair, Side::Right, "r:a"))]);
    }

    #[test]
    fn one_left_object_propagates() {
        let mut b = KbPairBuilder::new();
        // Two parents match by value; each has exactly one (value-less)
        // child; the first pair's children seed the relation alignment is
        // bootstrapped via a second matched pair of children.
        for i in 0..2 {
            b.add_triple(Side::Left, &format!("l:p{i}"), "l:label", Term::Literal(&format!("parent number {i} shared tokens")));
            b.add_triple(Side::Left, &format!("l:p{i}"), "l:child", Term::Uri(&format!("l:c{i}")));
            b.add_triple(Side::Right, &format!("r:p{i}"), "r:name", Term::Literal(&format!("parent number {i} shared tokens")));
            b.add_triple(Side::Right, &format!("r:p{i}"), "r:kid", Term::Uri(&format!("r:c{i}")));
        }
        // c0 matches by value (bootstraps l:child ↔ r:kid alignment);
        // c1 has no value overlap and is reachable only via one-left-object.
        b.add_triple(Side::Left, "l:c0", "l:label", Term::Literal("identical child zero"));
        b.add_triple(Side::Right, "r:c0", "r:name", Term::Literal("identical child zero"));
        b.add_triple(Side::Left, "l:c1", "l:label", Term::Literal("opaque"));
        b.add_triple(Side::Right, "r:c1", "r:name", Term::Literal("different"));
        let pair = b.finish();
        let exec = Executor::new(1);
        let matches = run_rimom(&exec, &pair);
        let c1 = (eid(&pair, Side::Left, "l:c1"), eid(&pair, Side::Right, "r:c1"));
        assert!(matches.contains(&c1), "one-left-object must recover the opaque child: {matches:?}");
    }

    #[test]
    fn top_tokens_prefers_rare() {
        let mut b = KbPairBuilder::new();
        for i in 0..5 {
            b.add_triple(Side::Left, &format!("l{i}"), "p", Term::Literal("common filler"));
        }
        b.add_triple(Side::Left, "l9", "p", Term::Literal("common filler rareword"));
        b.add_triple(Side::Right, "r", "q", Term::Literal("x"));
        let pair = b.finish();
        let ef = TokenEf::compute(&pair);
        let tops = top_tokens(&pair, &ef, Side::Left, 1);
        let l9_top = tops[5][0];
        assert_eq!(pair.tokens().resolve(minoaner_kb::Symbol(l9_top.0)), "rareword");
    }

    #[test]
    fn empty_kb_is_fine() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l", "p", Term::Literal("x"));
        let pair = b.finish();
        let exec = Executor::new(1);
        assert!(run_rimom(&exec, &pair).is_empty());
    }
}
