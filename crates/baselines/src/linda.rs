//! A LINDA-style matcher (Böhm et al., CIKM 2012) — the remaining system
//! of Table 3, which neither the paper's authors nor we could run as a
//! binary; this analogue implements its published core ideas so the row
//! can be measured rather than only quoted.
//!
//! LINDA's distinctive traits, per its paper and the MinoanER §5 summary:
//!
//! * joint, data-driven iteration with a priority queue resolved by
//!   unique mapping and a similarity threshold;
//! * *compatible neighbors* are those connected via relations with
//!   **similar names** (small edit distance) — unlike SiGMa's pre-aligned
//!   relations and unlike MinoanER's statistics, LINDA trusts labels;
//! * matched neighbor pairs boost their parents' scores (link-based
//!   feedback).
//!
//! As the MinoanER paper notes, the relation-name-similarity requirement
//! "rarely holds in the extreme schema heterogeneity of Web data" — which
//! is exactly how this analogue degrades on the BBCmusic-DBpedia-like
//! profile (KB-specific relation names share no edit-distance signal).

use minoaner_det::DetHashMap;

use minoaner_dataflow::Executor;
use minoaner_kb::stats::TokenEf;
use minoaner_kb::{AttrId, EntityId, KbPair, Side};

use crate::umc::unique_mapping_clustering;

/// LINDA configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LindaConfig {
    /// Acceptance threshold on the combined score.
    pub threshold: f64,
    /// Weight of the neighbor feedback term.
    pub neighbor_weight: f64,
    /// Maximum normalized edit distance for two relation names to count
    /// as compatible.
    pub max_relation_edit_distance: f64,
    /// Data-driven iteration bound.
    pub max_rounds: usize,
}

impl Default for LindaConfig {
    fn default() -> Self {
        Self {
            threshold: 0.35,
            neighbor_weight: 0.4,
            max_relation_edit_distance: 0.4,
            max_rounds: 10,
        }
    }
}

/// Levenshtein distance, normalized by the longer string's length.
pub fn normalized_edit_distance(a: &str, b: &str) -> f64 {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()] as f64 / a.len().max(b.len()) as f64
}

/// The local name of a relation (after the last `/`, `#` or `:`),
/// lower-cased — what LINDA compares across KBs.
fn relation_local_name(pair: &KbPair, attr: AttrId) -> String {
    let full = pair.attrs().resolve(minoaner_kb::Symbol(attr.0));
    minoaner_kb::tokenize::uri_local_name(full).to_lowercase()
}

/// Pairs of relations whose names are within the edit-distance bound.
fn compatible_relations(pair: &KbPair, cfg: &LindaConfig) -> Vec<(AttrId, AttrId)> {
    let mut left: Vec<AttrId> = Vec::new();
    let mut right: Vec<AttrId> = Vec::new();
    for (side, out) in [(Side::Left, &mut left), (Side::Right, &mut right)] {
        let kb = pair.kb(side);
        let mut seen = minoaner_det::DetHashSet::default();
        for (_, e) in kb.iter() {
            for (r, _) in e.relation_pairs() {
                seen.insert(r);
            }
        }
        out.extend(seen);
        out.sort_unstable();
    }
    let mut out = Vec::new();
    for &rl in &left {
        let nl = relation_local_name(pair, rl);
        for &rr in &right {
            let nr = relation_local_name(pair, rr);
            if normalized_edit_distance(&nl, &nr) <= cfg.max_relation_edit_distance {
                out.push((rl, rr));
            }
        }
    }
    out
}

/// Normalized weighted-Jaccard value similarity (shared with the SiGMa
/// analogue's notion of similarity).
fn value_similarity(pair: &KbPair, ef: &TokenEf, l: EntityId, r: EntityId) -> f64 {
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

/// Runs LINDA-style joint matching.
pub fn run_linda(executor: &Executor, pair: &KbPair, cfg: &LindaConfig) -> Vec<(EntityId, EntityId)> {
    let ef = executor.time_stage("linda/ef", || TokenEf::compute(pair));
    let compat = executor.time_stage("linda/compatible-relations", || compatible_relations(pair, cfg));
    let compat_set: minoaner_det::DetHashSet<(AttrId, AttrId)> = compat.into_iter().collect();

    // Initial candidates: pairs sharing at least two tokens (as in SiGMa's
    // candidate generation, which LINDA shares in spirit), scored by value
    // similarity.
    let blocks = minoaner_blocking::token::build_token_blocks(pair);
    let mut shared_count: DetHashMap<(u32, u32), u32> = DetHashMap::default();
    for (_, b) in blocks.iter() {
        if b.comparisons() > 50_000 {
            continue; // stopword guard
        }
        for &l in b.left {
            for &r in b.right {
                *shared_count.entry((l.0, r.0)).or_insert(0) += 1;
            }
        }
    }
    let candidates: Vec<(EntityId, EntityId)> = shared_count
        .iter()
        .filter(|&(_, &c)| c >= 2)
        .map(|(&(l, r), _)| (EntityId(l), EntityId(r)))
        .collect();

    // In-edge lists so link feedback flows in both directions.
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

    let mut matched_l: DetHashMap<EntityId, EntityId> = DetHashMap::default();
    let mut matched_r: DetHashMap<EntityId, EntityId> = DetHashMap::default();

    for round in 0..cfg.max_rounds {
        let added = executor.time_stage(&format!("linda/round-{round}"), || {
            let mut scored: Vec<(EntityId, EntityId, f64)> = Vec::new();
            for &(l, r) in &candidates {
                if matched_l.contains_key(&l) || matched_r.contains_key(&r) {
                    continue;
                }
                let v = value_similarity(pair, &ef, l, r);
                // Link-based feedback through *compatible* relations only,
                // in both edge directions.
                let mut fed = 0.0;
                let mut total = 0.0;
                for (rl, nl) in pair.kb(Side::Left).entity(l).relation_pairs() {
                    total += 1.0;
                    if let Some(&mr) = matched_l.get(&nl) {
                        let compatible = pair
                            .kb(Side::Right)
                            .entity(r)
                            .relation_pairs()
                            .any(|(rr, nr)| nr == mr && compat_set.contains(&(rl, rr)));
                        if compatible {
                            fed += 1.0;
                        }
                    }
                }
                for &(rl, pl) in &in_l[l.index()] {
                    total += 1.0;
                    if let Some(&mr) = matched_l.get(&pl) {
                        let compatible = in_r[r.index()]
                            .iter()
                            .any(|&(rr, pr)| pr == mr && compat_set.contains(&(rl, rr)));
                        if compatible {
                            fed += 1.0;
                        }
                    }
                }
                let feedback = if total == 0.0 { 0.0 } else { fed / total };
                let score = v + cfg.neighbor_weight * feedback;
                if score >= cfg.threshold {
                    scored.push((l, r, score));
                }
            }
            let accepted = unique_mapping_clustering(scored, cfg.threshold);
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

    #[test]
    fn edit_distance_basics() {
        assert_eq!(normalized_edit_distance("", ""), 0.0);
        assert_eq!(normalized_edit_distance("abc", "abc"), 0.0);
        assert!((normalized_edit_distance("kitten", "sitting") - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(normalized_edit_distance("a", ""), 1.0);
    }

    #[test]
    fn similar_relation_names_are_compatible() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l:x", "http://a/hasChef", Term::Uri("l:y"));
        b.add_triple(Side::Left, "l:y", "p", Term::Literal("v"));
        b.add_triple(Side::Right, "r:x", "http://b/headChef", Term::Uri("r:y"));
        b.add_triple(Side::Right, "r:y", "q", Term::Literal("v"));
        let pair = b.finish();
        let compat = compatible_relations(&pair, &LindaConfig::default());
        assert_eq!(compat.len(), 1, "hasChef ~ headChef within 0.4 edit distance");
    }

    #[test]
    fn dissimilar_relation_names_are_not() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l:x", "http://a/rel0", Term::Uri("l:y"));
        b.add_triple(Side::Left, "l:y", "p", Term::Literal("v"));
        b.add_triple(Side::Right, "r:x", "http://b/completelyDifferent", Term::Uri("r:y"));
        b.add_triple(Side::Right, "r:y", "q", Term::Literal("v"));
        let pair = b.finish();
        let compat = compatible_relations(&pair, &LindaConfig::default());
        assert!(compat.is_empty());
    }

    #[test]
    fn matches_strongly_similar_pairs() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l:a", "p", Term::Literal("alpha beta gamma delta"));
        b.add_triple(Side::Right, "r:a", "q", Term::Literal("alpha beta gamma delta"));
        b.add_triple(Side::Left, "l:b", "p", Term::Literal("one two three four"));
        b.add_triple(Side::Right, "r:b", "q", Term::Literal("five six seven eight"));
        let pair = b.finish();
        let exec = Executor::new(1);
        let m = run_linda(&exec, &pair, &LindaConfig::default());
        assert_eq!(m.len(), 1);
        assert_eq!(pair.uri_of(Side::Left, m[0].0), "l:a");
    }

    #[test]
    fn feedback_promotes_borderline_neighbors() {
        let mut b = KbPairBuilder::new();
        // Anchors match by value; the children share only 2 of 5 tokens
        // (below threshold alone) but are connected via similarly named
        // relations to matched parents.
        b.add_triple(Side::Left, "l:p", "l:label", Term::Literal("anchor alpha beta gamma"));
        b.add_triple(Side::Left, "l:p", "http://a/hasPart", Term::Uri("l:c"));
        b.add_triple(Side::Left, "l:c", "l:label", Term::Literal("kid one two five six"));
        b.add_triple(Side::Right, "r:p", "r:name", Term::Literal("anchor alpha beta gamma"));
        b.add_triple(Side::Right, "r:p", "http://b/hasParts", Term::Uri("r:c"));
        b.add_triple(Side::Right, "r:c", "r:name", Term::Literal("kid one two seven nine"));
        let pair = b.finish();
        let exec = Executor::new(1);
        let cfg = LindaConfig { threshold: 0.55, neighbor_weight: 0.5, ..Default::default() };
        let with_feedback = run_linda(&exec, &pair, &cfg);
        let child = (
            pair.kb(Side::Left).entity_by_uri(pair.uris().get("l:c").unwrap()).unwrap(),
            pair.kb(Side::Right).entity_by_uri(pair.uris().get("r:c").unwrap()).unwrap(),
        );
        assert!(with_feedback.contains(&child), "feedback should rescue the child: {with_feedback:?}");
    }
}
