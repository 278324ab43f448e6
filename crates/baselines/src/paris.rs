//! A PARIS-style probabilistic matcher (Suchanek et al., PVLDB 2011) —
//! the only baseline the paper could run directly (§6). PARIS derives
//! match probabilities from the *functionality* of properties: sharing a
//! value of a highly inverse-functional attribute (one whose value
//! identifies its subject) is strong evidence, and matched neighbors
//! propagate probability through aligned relations, iterated to fixpoint.
//!
//! This is an instance-matching reimplementation of the published
//! algorithm (the part Table 3 measures), with the usual engineering
//! simplifications: hard acceptance at 0.5 when counting relation
//! alignments, a fan-out cap on frequent literals, and a fixed iteration
//! budget. One deliberate difference: literals are compared in
//! *normalized* form (as everywhere in this workspace), which makes this
//! analogue slightly **stronger** than the original on noisy data — the
//! original's near-zero recall on BBCmusic-DBpedia (Table 3) is partly
//! due to exact string comparison. Structural heterogeneity still hurts
//! it the way the paper describes: when one KB splits a relation over
//! many names, alignment mass dilutes and propagation stalls.

use std::collections::BTreeMap;

use minoaner_det::DetHashMap;

use minoaner_dataflow::Executor;
use minoaner_kb::{AttrId, EntityId, KbPair, LiteralId, Side};

use crate::matching::in_edges;
use crate::umc::unique_mapping_clustering;

/// Propagation iterations (the original converges in a handful).
const ITERATIONS: usize = 4;
/// Final acceptance threshold on the match probability.
const THRESHOLD: f64 = 0.5;
/// Literals occurring in more entities than this (per side) are
/// skipped when seeding (PARIS prunes over-frequent values too).
const MAX_LITERAL_FANOUT: usize = 50;

/// Inverse functionality of every attribute on one side:
/// `ifun(a) = |distinct values(a)| / |instances(a)|` — 1.0 means a value
/// of `a` identifies its subject.
fn inverse_functionality(pair: &KbPair, side: Side) -> Vec<f64> {
    let n_attrs = pair.attr_space();
    let mut instances = vec![0u64; n_attrs];
    let mut lit_values: Vec<minoaner_det::DetHashSet<LiteralId>> =
        vec![Default::default(); n_attrs];
    let mut ref_values: Vec<minoaner_det::DetHashSet<EntityId>> =
        vec![Default::default(); n_attrs];
    let kb = pair.kb(side);
    for (_, e) in kb.iter() {
        for (a, v) in e.pairs() {
            instances[a.index()] += 1;
            match v {
                minoaner_kb::Value::Literal(l) => {
                    lit_values[a.index()].insert(l);
                }
                minoaner_kb::Value::Ref(t) => {
                    ref_values[a.index()].insert(t);
                }
            }
        }
    }
    (0..n_attrs)
        .map(|a| {
            if instances[a] == 0 {
                0.0
            } else {
                (lit_values[a].len() + ref_values[a].len()) as f64 / instances[a] as f64
            }
        })
        .collect()
}

/// The seed probabilities from shared literals: `prob(x ≡ y)` accumulated
/// as `1 − Π (1 − evidence)` over the literals `x` and `y` share. A literal
/// held by more than [`MAX_LITERAL_FANOUT`] entities on either side seeds
/// nothing. The products run in literal order.
fn literal_seeds(pair: &KbPair, ifun_l: &[f64], ifun_r: &[f64]) -> BTreeMap<(u32, u32), f64> {
    // literal → [(attr, entity)] per side.
    let mut index_l: BTreeMap<LiteralId, Vec<(AttrId, EntityId)>> = BTreeMap::new();
    let mut index_r: BTreeMap<LiteralId, Vec<(AttrId, EntityId)>> = BTreeMap::new();
    for (side, index) in [(Side::Left, &mut index_l), (Side::Right, &mut index_r)] {
        let kb = pair.kb(side);
        for (id, e) in kb.iter() {
            for (a, l) in e.literal_pairs() {
                index.entry(l).or_default().push((a, id));
            }
        }
    }

    let mut one_minus: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for (lit, lefts) in &index_l {
        let Some(rights) = index_r.get(lit) else { continue };
        if lefts.len() > MAX_LITERAL_FANOUT || rights.len() > MAX_LITERAL_FANOUT {
            continue;
        }
        // Local inverse functionality: a value occurring in several
        // entities per side identifies none of them — the attribute-level
        // ifun is scaled down by the value's own fan-out, so only
        // (nearly) unique shared values seed matches, as in the original
        // where ifun is estimated per value occurrence.
        let local = 1.0 / (lefts.len() as f64 * rights.len() as f64);
        for &(al, x) in lefts {
            for &(ar, y) in rights {
                let evidence = ifun_l[al.index()] * ifun_r[ar.index()] * local;
                if evidence > 0.0 {
                    let slot = one_minus.entry((x.0, y.0)).or_insert(1.0);
                    *slot *= 1.0 - evidence.min(0.999);
                }
            }
        }
    }
    one_minus.into_iter().map(|(k, om)| (k, 1.0 - om)).collect()
}

/// Runs PARIS-style matching and returns the accepted matches.
pub fn run_paris(executor: &Executor, pair: &KbPair) -> Vec<(EntityId, EntityId)> {
    let ifun_l = executor.time_stage("paris/ifun-left", || inverse_functionality(pair, Side::Left));
    let ifun_r = executor.time_stage("paris/ifun-right", || inverse_functionality(pair, Side::Right));

    let seed_prob = literal_seeds(pair, &ifun_l, &ifun_r);
    let mut prob = seed_prob.clone();

    // Static per-run structures: relation usage counts and in-edge lists.
    let mut rel_count_l: DetHashMap<AttrId, u64> = DetHashMap::default();
    let mut rel_count_r: DetHashMap<AttrId, u64> = DetHashMap::default();
    for (_, e) in pair.kb(Side::Left).iter() {
        for (r, _) in e.relation_pairs() {
            *rel_count_l.entry(r).or_insert(0) += 1;
        }
    }
    for (_, e) in pair.kb(Side::Right).iter() {
        for (r, _) in e.relation_pairs() {
            *rel_count_r.entry(r).or_insert(0) += 1;
        }
    }
    let in_l = in_edges(pair, Side::Left);
    let in_r = in_edges(pair, Side::Right);

    // --- Iterative propagation through aligned relations, in pair order ---
    for it in 0..ITERATIONS {
        executor.time_stage(&format!("paris/iteration-{it}"), || {
            let accepted: Vec<((u32, u32), f64)> =
                prob.iter().filter(|&(_, &p)| p >= THRESHOLD).map(|(&k, &p)| (k, p)).collect();

            // Relation alignment counts from accepted child pairs.
            let mut align: DetHashMap<(AttrId, AttrId), f64> = DetHashMap::default();
            for &((cx, cy), p) in &accepted {
                for &(rl, _) in in_l.row(cx as usize) {
                    for &(rr, _) in in_r.row(cy as usize) {
                        *align.entry((rl, rr)).or_insert(0.0) += p;
                    }
                }
            }
            let alignment = |rl: AttrId, rr: AttrId| -> f64 {
                let Some(&mass) = align.get(&(rl, rr)) else { return 0.0 };
                let denom = rel_count_l[&rl].min(rel_count_r[&rr]) as f64;
                (mass / denom.max(1.0)).min(1.0)
            };

            // Propagate in both directions. As with literals, evidence is
            // scaled by *local* (inverse) functionality: a child with many
            // parents on either side (a popular target like a country)
            // identifies none of them, while a 1-parent child (a
            // restaurant's own address) identifies its parent almost
            // surely — and symmetrically for children of matched parents.
            let mut updates: BTreeMap<(u32, u32), f64> = BTreeMap::new();
            let mut bump = |key: (u32, u32), evidence: f64| {
                let slot = updates.entry(key).or_insert(1.0);
                *slot *= 1.0 - evidence.min(0.999);
            };
            for &((cx, cy), p) in &accepted {
                // Upward: parents of matched children.
                let fan = in_l.row_len(cx as usize).max(in_r.row_len(cy as usize));
                if fan > 0 {
                    let local = 1.0 / fan as f64;
                    for &(rl, px) in in_l.row(cx as usize) {
                        for &(rr, py) in in_r.row(cy as usize) {
                            let a = alignment(rl, rr);
                            if a > 0.0 {
                                bump((px.0, py.0), a * p * local);
                            }
                        }
                    }
                }
                // Downward: children of matched parents.
                let kids_l: Vec<(AttrId, EntityId)> =
                    pair.kb(Side::Left).entity(EntityId(cx)).relation_pairs().collect();
                let kids_r: Vec<(AttrId, EntityId)> =
                    pair.kb(Side::Right).entity(EntityId(cy)).relation_pairs().collect();
                let fan = kids_l.len().max(kids_r.len());
                if fan > 0 {
                    let local = 1.0 / fan as f64;
                    for &(rl, kx) in &kids_l {
                        for &(rr, ky) in &kids_r {
                            let a = alignment(rl, rr);
                            if a > 0.0 {
                                bump((kx.0, ky.0), a * p * local);
                            }
                        }
                    }
                }
            }
            for (k, om) in updates {
                let propagated = 1.0 - om;
                let base = seed_prob.get(&k).copied().unwrap_or(0.0);
                let combined = 1.0 - (1.0 - base) * (1.0 - propagated);
                let entry = prob.entry(k).or_insert(0.0);
                if combined > *entry {
                    *entry = combined;
                }
            }
        });
    }

    let scored: Vec<(EntityId, EntityId, f64)> =
        prob.into_iter().map(|((x, y), p)| (EntityId(x), EntityId(y), p)).collect();
    unique_mapping_clustering(scored, THRESHOLD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoaner_kb::{KbPairBuilder, Term};

    fn build() -> (KbPair, Vec<(EntityId, EntityId)>) {
        let mut b = KbPairBuilder::new();
        // Two movies with directors; names are inverse-functional.
        for (id, name, director) in
            [("m1", "alien covenant", "ridley scott"), ("m2", "dune part two", "denis villeneuve")]
        {
            b.add_triple(Side::Left, &format!("l:{id}"), "l:title", Term::Literal(name));
            b.add_triple(Side::Left, &format!("l:{id}"), "l:directedBy", Term::Uri(&format!("l:d_{id}")));
            b.add_triple(Side::Left, &format!("l:d_{id}"), "l:name", Term::Literal(director));
            b.add_triple(Side::Right, &format!("r:{id}"), "r:label", Term::Literal(name));
            b.add_triple(Side::Right, &format!("r:{id}"), "r:director", Term::Uri(&format!("r:d_{id}")));
            b.add_triple(Side::Right, &format!("r:d_{id}"), "r:label", Term::Literal(director));
        }
        let pair = b.finish();
        let mut gt = Vec::new();
        for uri in ["m1", "m2", "d_m1", "d_m2"] {
            let l = pair.kb(Side::Left).entity_by_uri(pair.uris().get(&format!("l:{uri}")).unwrap()).unwrap();
            let r = pair.kb(Side::Right).entity_by_uri(pair.uris().get(&format!("r:{uri}")).unwrap()).unwrap();
            gt.push((l, r));
        }
        (pair, gt)
    }

    #[test]
    fn inverse_functionality_distinguishes_attributes() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "a", "id", Term::Literal("unique-1"));
        b.add_triple(Side::Left, "b", "id", Term::Literal("unique-2"));
        b.add_triple(Side::Left, "a", "status", Term::Literal("active"));
        b.add_triple(Side::Left, "b", "status", Term::Literal("active"));
        b.add_triple(Side::Right, "r", "p", Term::Literal("x"));
        let pair = b.finish();
        let ifun = inverse_functionality(&pair, Side::Left);
        let id = pair.attrs().get("id").unwrap().0 as usize;
        let status = pair.attrs().get("status").unwrap().0 as usize;
        assert!((ifun[id] - 1.0).abs() < 1e-12);
        assert!((ifun[status] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn paris_matches_via_shared_inverse_functional_literals() {
        let (pair, gt) = build();
        let exec = Executor::new(2);
        let matches = run_paris(&exec, &pair);
        let mut found = matches.clone();
        found.sort_unstable();
        let mut expected = gt.clone();
        expected.sort_unstable();
        assert_eq!(found, expected);
    }

    /// The seeds of a literal held by `n` entities on each side (and
    /// nothing else).
    fn shared_literal_seeds(n: usize) -> usize {
        let mut b = KbPairBuilder::new();
        for i in 0..n {
            b.add_triple(Side::Left, &format!("l{i}"), "p", Term::Literal("constant"));
            b.add_triple(Side::Right, &format!("r{i}"), "q", Term::Literal("constant"));
        }
        let pair = b.finish();
        let ifun_l = inverse_functionality(&pair, Side::Left);
        let ifun_r = inverse_functionality(&pair, Side::Right);
        literal_seeds(&pair, &ifun_l, &ifun_r).len()
    }

    #[test]
    fn frequent_literals_are_skipped() {
        // At the cap, every cross pair is seeded; one entity past it on
        // each side, the literal seeds nothing.
        let n = MAX_LITERAL_FANOUT;
        assert_eq!(shared_literal_seeds(n), n * n);
        assert_eq!(shared_literal_seeds(n + 1), 0, "over-frequent literal must not seed matches");
    }

    #[test]
    fn unique_mapping_is_enforced() {
        let (pair, _) = build();
        let exec = Executor::new(1);
        let matches = run_paris(&exec, &pair);
        let mut lefts: Vec<_> = matches.iter().map(|&(l, _)| l).collect();
        lefts.sort_unstable();
        let len = lefts.len();
        lefts.dedup();
        assert_eq!(lefts.len(), len);
    }
}
