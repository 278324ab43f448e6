//! KB statistics driving MinoanER's schema-agnostic similarity metrics (§2):
//! token entity frequencies for [`value_sim`], relation
//! support/discriminability/importance for top-N neighbors, and global
//! top-k name attributes.

use minoaner_det::spillable_struct;

use crate::model::{AttrId, EntityId, LiteralId, Side, TokenId};
use crate::store::KbPair;

/// Entity frequency of every token, per KB: `EF_E(t)` is the number of
/// entity descriptions of `E` whose values contain `t` (Def. 2.1).
#[derive(Debug, Clone)]
pub struct TokenEf {
    ef: [Vec<u32>; 2],
}

impl TokenEf {
    /// Computes entity frequencies for both KBs of the pair.
    pub fn compute(pair: &KbPair) -> Self {
        let n = pair.token_space();
        let mut ef = [vec![0u32; n], vec![0u32; n]];
        for side in [Side::Left, Side::Right] {
            let kb = pair.kb(side);
            let counts = &mut ef[side.index()];
            for (id, _) in kb.iter() {
                for &t in kb.tokens_of(id) {
                    counts[t.index()] += 1;
                }
            }
        }
        Self { ef }
    }

    /// `EF_E(t)` for the KB on `side`. Tokens never seen on that side have
    /// frequency 0.
    #[inline]
    pub fn ef(&self, side: Side, t: TokenId) -> u32 {
        self.ef[side.index()][t.index()]
    }

    /// The contribution of one shared token to [`value_sim`]:
    /// `1 / log2(EF_E1(t) · EF_E2(t) + 1)`.
    ///
    /// Only meaningful for *shared* tokens (EF ≥ 1 on both sides, so the
    /// product is ≥ 1 and the weight ≤ 1). For a one-sided token the
    /// product is 0 and this returns `+∞` — use
    /// [`TokenEf::token_weight_clamped`] when weighting union terms.
    #[inline]
    pub fn token_weight(&self, t: TokenId) -> f64 {
        let prod = self.ef(Side::Left, t) as f64 * self.ef(Side::Right, t) as f64;
        1.0 / (prod + 1.0).log2()
    }

    /// Like [`TokenEf::token_weight`] but with each side's frequency
    /// clamped to ≥ 1, so one-sided tokens get the finite weight they
    /// would have if the other KB contained them once. Used by normalized
    /// (union-weighted) similarities such as the SiGMa/LINDA baselines'.
    #[inline]
    pub fn token_weight_clamped(&self, t: TokenId) -> f64 {
        let prod =
            f64::from(self.ef(Side::Left, t).max(1)) * f64::from(self.ef(Side::Right, t).max(1));
        1.0 / (prod + 1.0).log2()
    }
}

/// Value similarity of two descriptions (Def. 2.1):
/// `Σ_{t ∈ tokens(e_i) ∩ tokens(e_j)} 1 / log2(EF_E1(t)·EF_E2(t)+1)`.
///
/// Un-normalized: ranges over `[0, +∞)`; a token unique to the pair
/// (EF product = 1) contributes its maximum of 1.
pub fn value_sim(pair: &KbPair, ef: &TokenEf, left: EntityId, right: EntityId) -> f64 {
    let a = pair.kb(Side::Left).tokens_of(left);
    let b = pair.kb(Side::Right).tokens_of(right);
    shared_token_weight(a, b, ef)
}

/// Merge-based sum of token weights over the intersection of two sorted
/// token sets.
pub fn shared_token_weight(a: &[TokenId], b: &[TokenId], ef: &TokenEf) -> f64 {
    let (mut i, mut j) = (0, 0);
    let mut sum = 0.0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                sum += ef.token_weight(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    sum
}

/// Support, discriminability and importance of every relation, per KB
/// (Defs. 2.2–2.4), plus the global importance order used to pick each
/// entity's top-N relations (Algorithm 1, `getTopInNeighbors`).
#[derive(Debug, Clone)]
pub struct RelationStats {
    support: [Vec<f64>; 2],
    discriminability: [Vec<f64>; 2],
    importance: [Vec<f64>; 2],
    /// Rank of each attribute in the KB's global importance order
    /// (0 = most important); `u32::MAX` for attributes that are not
    /// relations on that side.
    rank: [Vec<u32>; 2],
}

spillable_struct!(RelationStats { support, discriminability, importance, rank });

impl RelationStats {
    /// Computes relation statistics for both KBs.
    pub fn compute(pair: &KbPair) -> Self {
        let n_attrs = pair.attr_space();
        let mut support = [vec![0.0; n_attrs], vec![0.0; n_attrs]];
        let mut discriminability = [vec![0.0; n_attrs], vec![0.0; n_attrs]];
        let mut importance = [vec![0.0; n_attrs], vec![0.0; n_attrs]];
        let mut rank = [vec![u32::MAX; n_attrs], vec![u32::MAX; n_attrs]];

        for side in [Side::Left, Side::Right] {
            let kb = pair.kb(side);
            let mut instances = vec![0u64; n_attrs];
            let mut attr_objects = Vec::new();
            for (_, e) in kb.iter() {
                for (p, o) in e.relation_pairs() {
                    instances[p.index()] += 1;
                    attr_objects.push(attr_key(p, o.0));
                }
            }
            let objects = distinct_per_attr(attr_objects, n_attrs);
            let e_count = kb.len() as f64;
            let idx = side.index();
            for a in 0..n_attrs {
                if instances[a] == 0 {
                    continue;
                }
                // Def. 2.2: support(p) = |instances(p)| / |E|^2.
                let s = instances[a] as f64 / (e_count * e_count);
                // Def. 2.3: discriminability(p) = |objects(p)| / |instances(p)|.
                let d = objects[a] as f64 / instances[a] as f64;
                support[idx][a] = s;
                discriminability[idx][a] = d;
                importance[idx][a] = harmonic_mean(s, d);
            }
            // Global order: relations sorted by decreasing importance, ties
            // broken by AttrId for determinism.
            let mut order: Vec<usize> = (0..n_attrs).filter(|&a| instances[a] > 0).collect();
            order.sort_by(|&a, &b| {
                importance[idx][b]
                    .partial_cmp(&importance[idx][a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            for (r, &a) in order.iter().enumerate() {
                rank[idx][a] = r as u32;
            }
        }

        Self { support, discriminability, importance, rank }
    }

    /// Support of relation `p` on `side` (0 when `p` is not a relation there).
    pub fn support(&self, side: Side, p: AttrId) -> f64 {
        self.support[side.index()][p.index()]
    }

    /// Discriminability of relation `p` on `side`.
    pub fn discriminability(&self, side: Side, p: AttrId) -> f64 {
        self.discriminability[side.index()][p.index()]
    }

    /// Importance (harmonic mean of support and discriminability) of `p`.
    pub fn importance(&self, side: Side, p: AttrId) -> f64 {
        self.importance[side.index()][p.index()]
    }

    /// Rank in the KB-global importance order (0 = most important), or
    /// `None` if `p` is not a relation on that side.
    pub fn global_rank(&self, side: Side, p: AttrId) -> Option<u32> {
        let r = self.rank[side.index()][p.index()];
        (r != u32::MAX).then_some(r)
    }

    /// The entity's top-N relations: its distinct relations sorted by the
    /// KB-global importance order, truncated to `n`.
    pub fn top_n_relations(&self, pair: &KbPair, side: Side, e: EntityId, n: usize) -> Vec<AttrId> {
        let kb = pair.kb(side);
        let mut rels: Vec<AttrId> = kb.entity(e).relation_pairs().map(|(p, _)| p).collect();
        rels.sort_unstable();
        rels.dedup();
        rels.sort_by_key(|&p| self.rank[side.index()][p.index()]);
        rels.truncate(n);
        rels
    }

    /// The entity's top-N neighbors (Def. 2.5 precondition): the targets of
    /// its top-N relations, deduplicated.
    pub fn top_n_neighbors(&self, pair: &KbPair, side: Side, e: EntityId, n: usize) -> Vec<EntityId> {
        let top = self.top_n_relations(pair, side, e, n);
        let kb = pair.kb(side);
        let mut out: Vec<EntityId> = kb
            .entity(e)
            .relation_pairs()
            .filter(|(p, _)| top.contains(p))
            .map(|(_, o)| o)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Neighbor similarity of Def. 2.5: the sum of [`value_sim`] over the cross
/// product of the two entities' top-N neighbors. Direct (quadratic) form,
/// used by tests, Figure 2 and as a reference for the block-based estimate
/// of Algorithm 1.
pub fn neighbor_n_sim(
    pair: &KbPair,
    ef: &TokenEf,
    rels: &RelationStats,
    n: usize,
    left: EntityId,
    right: EntityId,
) -> f64 {
    let ln = rels.top_n_neighbors(pair, Side::Left, left, n);
    let rn = rels.top_n_neighbors(pair, Side::Right, right, n);
    let mut sum = 0.0;
    for &a in &ln {
        for &b in &rn {
            sum += value_sim(pair, ef, a, b);
        }
    }
    sum
}

/// Maximum value similarity among the two entities' top-N neighbor pairs —
/// the y-axis of Figure 2.
pub fn max_neighbor_value_sim(
    pair: &KbPair,
    ef: &TokenEf,
    rels: &RelationStats,
    n: usize,
    left: EntityId,
    right: EntityId,
) -> f64 {
    let ln = rels.top_n_neighbors(pair, Side::Left, left, n);
    let rn = rels.top_n_neighbors(pair, Side::Right, right, n);
    let mut max = 0.0f64;
    for &a in &ln {
        for &b in &rn {
            max = max.max(value_sim(pair, ef, a, b));
        }
    }
    max
}

/// Global top-k *name attributes* per KB and the derived per-entity names
/// (§2, "Entity Names"): literal-valued attributes ranked by the harmonic
/// mean of support `|subjects(p)|/|E|` and discriminability
/// `|distinct values(p)|/|instances(p)|`.
#[derive(Debug, Clone)]
pub struct NameStats {
    name_attrs: [Vec<AttrId>; 2],
    importance: [Vec<f64>; 2],
}

spillable_struct!(NameStats { name_attrs, importance });

impl NameStats {
    /// Computes the global top-`k` name attributes of both KBs.
    pub fn compute(pair: &KbPair, k: usize) -> Self {
        let n_attrs = pair.attr_space();
        let mut name_attrs: [Vec<AttrId>; 2] = [Vec::new(), Vec::new()];
        let mut importance = [vec![0.0; n_attrs], vec![0.0; n_attrs]];

        for side in [Side::Left, Side::Right] {
            let kb = pair.kb(side);
            let mut instances = vec![0u64; n_attrs];
            // Entities are walked in id order, so an attribute has a new
            // subject exactly when the last entity seen with it is another.
            let mut subjects = vec![0u64; n_attrs];
            let mut last_subject = vec![None; n_attrs];
            let mut attr_values = Vec::new();
            for (id, e) in kb.iter() {
                for (p, l) in e.literal_pairs() {
                    let a = p.index();
                    instances[a] += 1;
                    if last_subject[a].replace(id) != Some(id) {
                        subjects[a] += 1;
                    }
                    attr_values.push(attr_key(p, l.0));
                }
            }
            let values = distinct_per_attr(attr_values, n_attrs);
            let e_count = kb.len() as f64;
            let idx = side.index();
            let mut order: Vec<usize> = (0..n_attrs).filter(|&a| instances[a] > 0).collect();
            for &a in &order {
                // "Entity Names" support (following [32]): |subjects|/|E|.
                let s = subjects[a] as f64 / e_count;
                let d = values[a] as f64 / instances[a] as f64;
                importance[idx][a] = harmonic_mean(s, d);
            }
            order.sort_by(|&a, &b| {
                importance[idx][b]
                    .partial_cmp(&importance[idx][a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            order.truncate(k);
            name_attrs[idx] = order.into_iter().map(|a| AttrId(a as u32)).collect();
        }

        Self { name_attrs, importance }
    }

    /// The global top-k name attributes of `side`, most important first.
    pub fn name_attrs(&self, side: Side) -> &[AttrId] {
        &self.name_attrs[side.index()]
    }

    /// Name-attribute importance of `p` on `side`.
    pub fn importance(&self, side: Side, p: AttrId) -> f64 {
        self.importance[side.index()][p.index()]
    }

    /// `name(e_i)`: the normalized literal values of the entity's name
    /// attributes.
    pub fn names_of(&self, pair: &KbPair, side: Side, e: EntityId) -> Vec<LiteralId> {
        let attrs = self.name_attrs(side);
        let mut out: Vec<LiteralId> = pair
            .kb(side)
            .entity(e)
            .literal_pairs()
            .filter(|(p, _)| attrs.contains(p))
            .map(|(_, l)| l)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// One `(attribute, object or literal id)` instance as a sortable word,
/// attribute in the high half.
fn attr_key(attr: AttrId, value: u32) -> u64 {
    u64::from(attr.0) << 32 | u64::from(value)
}

/// How many distinct values each attribute has among `keys`
/// ([`attr_key`] words, in any order, repeats allowed). Attribute ids are
/// dense, so this is one sort and one counting pass instead of a hash set
/// per attribute.
fn distinct_per_attr(mut keys: Vec<u64>, n_attrs: usize) -> Vec<u64> {
    keys.sort_unstable();
    keys.dedup();
    let mut distinct = vec![0u64; n_attrs];
    for key in keys {
        if let Some(n) = distinct.get_mut((key >> 32) as usize) {
            *n += 1;
        }
    }
    distinct
}

fn harmonic_mean(a: f64, b: f64) -> f64 {
    if a + b == 0.0 {
        0.0
    } else {
        2.0 * a * b / (a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{KbPairBuilder, Term};

    fn pair_with_shared_tokens() -> KbPair {
        let mut b = KbPairBuilder::new();
        // "rare" appears once per KB; "common" appears in every entity.
        b.add_triple(Side::Left, "l1", "p", Term::Literal("rare common"));
        b.add_triple(Side::Left, "l2", "p", Term::Literal("common x"));
        b.add_triple(Side::Right, "r1", "p", Term::Literal("rare common"));
        b.add_triple(Side::Right, "r2", "p", Term::Literal("common y"));
        b.finish()
    }

    fn eid(pair: &KbPair, side: Side, uri: &str) -> EntityId {
        pair.kb(side).entity_by_uri(pair.uris().get(uri).unwrap()).unwrap()
    }

    #[test]
    fn ef_counts_entities_not_occurrences() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "a", "p", Term::Literal("dup dup dup"));
        b.add_triple(Side::Right, "b", "p", Term::Literal("dup"));
        let pair = b.finish();
        let ef = TokenEf::compute(&pair);
        let t = TokenId(pair.tokens().get("dup").unwrap().0);
        assert_eq!(ef.ef(Side::Left, t), 1);
        assert_eq!(ef.ef(Side::Right, t), 1);
    }

    #[test]
    fn unique_shared_token_contributes_one() {
        let pair = pair_with_shared_tokens();
        let ef = TokenEf::compute(&pair);
        let rare = TokenId(pair.tokens().get("rare").unwrap().0);
        // EF product = 1·1 = 1 → weight = 1/log2(2) = 1.
        assert!((ef.token_weight(rare) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clamped_weight_is_finite_for_one_sided_tokens() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "a", "p", Term::Literal("only left"));
        b.add_triple(Side::Right, "b", "p", Term::Literal("only right"));
        let pair = b.finish();
        let ef = TokenEf::compute(&pair);
        let t = TokenId(pair.tokens().get("left").unwrap().0);
        assert!(ef.token_weight(t).is_infinite(), "raw weight diverges by design");
        let w = ef.token_weight_clamped(t);
        assert!(w.is_finite() && w > 0.0 && w <= 1.0);
    }

    #[test]
    fn frequent_tokens_contribute_less() {
        let pair = pair_with_shared_tokens();
        let ef = TokenEf::compute(&pair);
        let rare = TokenId(pair.tokens().get("rare").unwrap().0);
        let common = TokenId(pair.tokens().get("common").unwrap().0);
        assert!(ef.token_weight(common) < ef.token_weight(rare));
    }

    #[test]
    fn value_sim_matches_manual_sum() {
        let pair = pair_with_shared_tokens();
        let ef = TokenEf::compute(&pair);
        let l1 = eid(&pair, Side::Left, "l1");
        let r1 = eid(&pair, Side::Right, "r1");
        // Shared tokens: rare (EF 1·1) and common (EF 2·2).
        let expected = 1.0 / 2.0f64.log2() + 1.0 / 5.0f64.log2();
        assert!((value_sim(&pair, &ef, l1, r1) - expected).abs() < 1e-12);
    }

    #[test]
    fn value_sim_zero_when_no_shared_tokens() {
        let pair = pair_with_shared_tokens();
        let ef = TokenEf::compute(&pair);
        let l2 = eid(&pair, Side::Left, "l2");
        let r2 = eid(&pair, Side::Right, "r2");
        // l2 = {common, x}, r2 = {common, y} → only "common" shared.
        let common = TokenId(pair.tokens().get("common").unwrap().0);
        let expected = ef.token_weight(common);
        assert!((value_sim(&pair, &ef, l2, r2) - expected).abs() < 1e-12);
    }

    fn relational_pair() -> KbPair {
        let mut b = KbPairBuilder::new();
        // hasChef: 2 instances, 2 distinct objects → discriminability 1.
        // inCountry: 2 instances, 1 distinct object → discriminability 0.5.
        b.add_triple(Side::Left, "rest1", "hasChef", Term::Uri("chef1"));
        b.add_triple(Side::Left, "rest2", "hasChef", Term::Uri("chef2"));
        b.add_triple(Side::Left, "rest1", "inCountry", Term::Uri("uk"));
        b.add_triple(Side::Left, "rest2", "inCountry", Term::Uri("uk"));
        b.add_triple(Side::Left, "chef1", "name", Term::Literal("john lake a"));
        b.add_triple(Side::Left, "chef2", "name", Term::Literal("other chef"));
        b.add_triple(Side::Left, "uk", "name", Term::Literal("united kingdom"));
        b.add_triple(Side::Right, "r", "p", Term::Literal("x"));
        b.finish()
    }

    #[test]
    fn relation_stats_support_and_discriminability() {
        let pair = relational_pair();
        let rs = RelationStats::compute(&pair);
        let chef = AttrId(pair.attrs().get("hasChef").unwrap().0);
        let country = AttrId(pair.attrs().get("inCountry").unwrap().0);
        let e = pair.kb(Side::Left).len() as f64;
        assert!((rs.support(Side::Left, chef) - 2.0 / (e * e)).abs() < 1e-12);
        assert!((rs.discriminability(Side::Left, chef) - 1.0).abs() < 1e-12);
        assert!((rs.discriminability(Side::Left, country) - 0.5).abs() < 1e-12);
        // Equal support, higher discriminability → hasChef ranks first.
        assert!(rs.importance(Side::Left, chef) > rs.importance(Side::Left, country));
        assert_eq!(rs.global_rank(Side::Left, chef), Some(0));
        assert_eq!(rs.global_rank(Side::Left, country), Some(1));
    }

    #[test]
    fn non_relation_attr_has_no_rank() {
        let pair = relational_pair();
        let rs = RelationStats::compute(&pair);
        let name = AttrId(pair.attrs().get("name").unwrap().0);
        assert_eq!(rs.global_rank(Side::Left, name), None);
        assert_eq!(rs.support(Side::Left, name), 0.0);
    }

    #[test]
    fn top_n_relations_and_neighbors() {
        let pair = relational_pair();
        let rs = RelationStats::compute(&pair);
        let rest1 = eid(&pair, Side::Left, "rest1");
        let top1 = rs.top_n_relations(&pair, Side::Left, rest1, 1);
        assert_eq!(top1.len(), 1);
        assert_eq!(pair.attrs().resolve(crate::interner::Symbol(top1[0].0)), "hasChef");
        let nbrs = rs.top_n_neighbors(&pair, Side::Left, rest1, 1);
        assert_eq!(nbrs.len(), 1);
        assert_eq!(pair.uri_of(Side::Left, nbrs[0]), "chef1");
        // With N=2 both neighbors appear.
        let nbrs2 = rs.top_n_neighbors(&pair, Side::Left, rest1, 2);
        assert_eq!(nbrs2.len(), 2);
    }

    #[test]
    fn name_stats_prefer_discriminative_widely_used_attrs() {
        let mut b = KbPairBuilder::new();
        // "label": on all 3 entities, all distinct → top name attribute.
        // "status": on all, but constant → low discriminability.
        for (i, name) in ["alpha", "beta", "gamma"].iter().enumerate() {
            let uri = format!("l{i}");
            b.add_triple(Side::Left, &uri, "label", Term::Literal(name));
            b.add_triple(Side::Left, &uri, "status", Term::Literal("active"));
        }
        b.add_triple(Side::Right, "r", "p", Term::Literal("x"));
        let pair = b.finish();
        let ns = NameStats::compute(&pair, 1);
        let label = AttrId(pair.attrs().get("label").unwrap().0);
        assert_eq!(ns.name_attrs(Side::Left), &[label]);
        let e0 = eid(&pair, Side::Left, "l0");
        let names = ns.names_of(&pair, Side::Left, e0);
        assert_eq!(names.len(), 1);
        assert_eq!(pair.literals().resolve(crate::interner::Symbol(names[0].0)), "alpha");
    }

    #[test]
    fn neighbor_n_sim_sums_cross_product() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "rest1", "hasChef", Term::Uri("chefL"));
        b.add_triple(Side::Left, "chefL", "name", Term::Literal("jonny lake"));
        b.add_triple(Side::Right, "rest2", "headChef", Term::Uri("chefR"));
        b.add_triple(Side::Right, "chefR", "name", Term::Literal("jonny lake"));
        let pair = b.finish();
        let ef = TokenEf::compute(&pair);
        let rs = RelationStats::compute(&pair);
        let l = eid(&pair, Side::Left, "rest1");
        let r = eid(&pair, Side::Right, "rest2");
        let chef_l = eid(&pair, Side::Left, "chefL");
        let chef_r = eid(&pair, Side::Right, "chefR");
        let direct = value_sim(&pair, &ef, chef_l, chef_r);
        assert!(direct > 0.0);
        let nsim = neighbor_n_sim(&pair, &ef, &rs, 1, l, r);
        assert!((nsim - direct).abs() < 1e-12);
        assert!((max_neighbor_value_sim(&pair, &ef, &rs, 1, l, r) - direct).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_edge_cases() {
        assert_eq!(harmonic_mean(0.0, 0.0), 0.0);
        assert!((harmonic_mean(1.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((harmonic_mean(0.5, 1.0) - 2.0 / 3.0).abs() < 1e-12);
    }
}
