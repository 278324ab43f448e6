//! The non-iterative matching process (§4, Algorithm 2): four generic,
//! schema-agnostic rules applied once each over the pruned disjunctive
//! blocking graph — no data-driven iteration, no convergence loop.
//!
//! * **R1 — name matching**: pairs with α = 1 match.
//! * **R2 — value matching**: an unmatched entity of the smaller KB matches
//!   its top value candidate when β ≥ 1 (many common, infrequent tokens).
//! * **R3 — rank aggregation**: every remaining entity matches the top
//!   candidate of the θ-weighted aggregation of its value- and
//!   neighbor-ranked candidate lists (threshold-free).
//! * **R4 — reciprocity**: a match survives only if both directed edges
//!   exist in the pruned graph.
//!
//! `M(e_i, e_j) = (R1 ∨ R2 ∨ R3) ∧ R4` (Def. 4.1).

use minoaner_blocking::{BlockingGraph, Candidate};
use minoaner_det::spillable_struct;
use minoaner_dataflow::Executor;
use minoaner_kb::{EntityId, KbPair, Side};

use crate::config::{MinoanerConfig, RuleSet};

/// Which rule produced a match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    R1,
    R2,
    R3,
}

/// Matches per producing rule, plus R4's removals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleCounts {
    pub r1: usize,
    pub r2: usize,
    pub r3: usize,
    /// Matches discarded by the reciprocity filter.
    pub removed_by_r4: usize,
}

spillable_struct!(RuleCounts { r1, r2, r3, removed_by_r4 });

/// The result of Algorithm 2.
#[derive(Debug, Clone, Default)]
pub struct MatchOutcome {
    /// Matched pairs `(left, right)`, in no particular order.
    pub matches: Vec<(EntityId, EntityId)>,
    /// The rule that produced each pair (parallel to `matches`).
    pub rules: Vec<Rule>,
    /// Aggregate counts.
    pub counts: RuleCounts,
}

/// Tracks the 1–1 assignment state while rules execute: the paper's
/// matcher "employs Unique Mapping Clustering, too" (§5), so an entity is
/// matched at most once.
struct Assignment {
    left: Vec<Option<u32>>,
    right: Vec<Option<u32>>,
    matches: Vec<(EntityId, EntityId)>,
    rules: Vec<Rule>,
}

impl Assignment {
    fn new(n_left: usize, n_right: usize) -> Self {
        Self {
            left: vec![None; n_left],
            right: vec![None; n_right],
            matches: Vec::new(),
            rules: Vec::new(),
        }
    }

    /// Whether `e`, an entity of `side`, is still unmatched.
    fn is_free(&self, side: Side, e: EntityId) -> bool {
        let slots = match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        };
        slots.get(e.index()).is_some_and(Option::is_none)
    }

    /// Tries to record `(l, r)`; both endpoints must still be free.
    /// Returns whether the pair was added.
    fn assign(&mut self, l: EntityId, r: EntityId, rule: Rule) -> bool {
        let (Some(left @ None), Some(right @ None)) = (self.left.get_mut(l.index()), self.right.get_mut(r.index()))
        else {
            return false;
        };
        *left = Some(r.0);
        *right = Some(l.0);
        self.matches.push((l, r));
        self.rules.push(rule);
        true
    }
}

/// Runs Algorithm 2 on a pruned blocking graph.
///
/// Rules R2 and R3 are embarrassingly parallel per node; their per-entity
/// proposals run as dataflow stages on `executor` (mirroring the Spark
/// adaptation of §4.1) that read the assignment the earlier rules left,
/// and each rule's merge is one pass over per-entity slots, whose result
/// does not depend on the order of the proposals.
pub fn run_matching(
    executor: &Executor,
    pair: &KbPair,
    graph: &BlockingGraph,
    cfg: &MinoanerConfig,
    rules: RuleSet,
) -> MatchOutcome {
    let n_left = pair.kb(Side::Left).len();
    let n_right = pair.kb(Side::Right).len();
    let mut state = Assignment::new(n_left, n_right);

    if rules.r1 {
        executor.time_stage("matching/r1", || rule_r1(graph, &mut state));
        executor.emit_counter("matching/r1_candidates", graph.alpha_pairs().len() as u64);
    }
    if rules.r2 {
        rule_r2(executor, pair, graph, &mut state);
    }
    if rules.r3 {
        rule_r3(executor, pair, graph, cfg.theta, &mut state);
    }

    let count = |rule: Rule| state.rules.iter().filter(|&&r| r == rule).count();
    let mut counts = RuleCounts { r1: count(Rule::R1), r2: count(Rule::R2), r3: count(Rule::R3), removed_by_r4: 0 };
    let assigned = state.matches.len();
    let (matches, rule_tags): (Vec<_>, Vec<_>) = if rules.r4 {
        executor.time_stage("matching/r4", || {
            let both_edges = |&((l, r), _): &((EntityId, EntityId), Rule)| {
                graph.has_directed_edge(Side::Left, l, r) && graph.has_directed_edge(Side::Right, r, l)
            };
            state.matches.into_iter().zip(state.rules).filter(both_edges).unzip()
        })
    } else {
        (state.matches, state.rules)
    };
    counts.removed_by_r4 = assigned - matches.len();

    // Per-rule counters mirror `RuleCounts` exactly (pre-R4 per-rule
    // tallies plus R4's removals), so a RunTrace can stand in for the
    // in-memory counts.
    executor.emit_counter("matching/r1_matches", counts.r1 as u64);
    executor.emit_counter("matching/r2_matches", counts.r2 as u64);
    executor.emit_counter("matching/r3_matches", counts.r3 as u64);
    executor.emit_counter("matching/r4_removed", counts.removed_by_r4 as u64);
    executor.emit_counter("matching/total_matches", matches.len() as u64);

    MatchOutcome { matches, rules: rule_tags, counts }
}

/// R1 (lines 2-4): every α = 1 edge is a match. α pairs are processed in
/// sorted order for determinism.
fn rule_r1(graph: &BlockingGraph, state: &mut Assignment) {
    for &(l, r) in graph.alpha_pairs() {
        state.assign(l, r, Rule::R1);
    }
}

/// R2 (lines 5-9): per unmatched entity of the smaller KB, the top value
/// candidate matches when β ≥ 1. The stage skips entities and candidates
/// matched by R1, as the Spark version does with the broadcast R1 matches
/// (§4.1).
fn rule_r2(executor: &Executor, pair: &KbPair, graph: &BlockingGraph, state: &mut Assignment) {
    let small = pair.smaller_side();
    let other = small.other();
    let proposals = per_entity_stage(executor, "matching/r2", pair.kb(small).len(), |e| {
        if !state.is_free(small, e) {
            return None;
        }
        let top = graph.value_candidates(small, e).iter().find(|c| state.is_free(other, c.entity_id()))?;
        (top.weight() >= 1.0).then_some((e, top.entity_id(), top.weight()))
    });
    executor.emit_counter("matching/r2_candidates", proposals.len() as u64);
    for (e, c) in strongest_proposers(&proposals, pair.kb(other).len()) {
        let (l, r) = if small == Side::Left { (e, c) } else { (c, e) };
        state.assign(l, r, Rule::R2);
    }
}

/// R2's merge: each target goes to its strongest proposer `(proposer,
/// target, β)`, β descending, then the smaller proposer id; returns the
/// `(proposer, target)` pairs. Each free entity proposes once and only
/// free targets, so this is what a greedy unique-mapping merge, strongest
/// β first, assigns — in one pass and whatever the proposals' order.
fn strongest_proposers(
    proposals: &[(EntityId, EntityId, f64)],
    n_targets: usize,
) -> impl Iterator<Item = (EntityId, EntityId)> {
    let mut strongest: Vec<Option<(EntityId, f64)>> = vec![None; n_targets];
    for &(e, c, beta) in proposals {
        if let Some(slot) = strongest.get_mut(c.index()) {
            if slot.map_or(true, |(held, b)| beta > b || (beta == b && e < held)) {
                *slot = Some((e, beta));
            }
        }
    }
    strongest.into_iter().enumerate().filter_map(|(c, slot)| slot.map(|(e, _)| (e, EntityId(c as u32))))
}

/// R3 (lines 10-23): threshold-free rank aggregation of the value- and
/// neighbor-sorted candidate lists, weighted θ and 1−θ respectively; each
/// remaining node proposes its top aggregate candidate, and a pair matches
/// when the proposals are *mutual* — each side is the other's best
/// aggregate candidate ("there is no better candidate for e_i than e_j",
/// enforced in both directions, in line with the unique-mapping semantics
/// of §5 and the reciprocity rationale of §4). This is what keeps R3 from
/// pairing up the unmatchable leftovers of either KB: an entity with no
/// true match proposes *something*, but is almost never proposed back.
///
/// Each free entity proposes one free entity, so mutual pairs are disjoint
/// and their endpoints free: every one of them is assigned, in any order.
fn rule_r3(
    executor: &Executor,
    pair: &KbPair,
    graph: &BlockingGraph,
    theta: f64,
    state: &mut Assignment,
) {
    let propose = |side: Side| {
        per_entity_stage(executor, &format!("matching/r3/{side:?}"), pair.kb(side).len(), |e| {
            if !state.is_free(side, e) {
                return None;
            }
            let keep = |c: EntityId| state.is_free(side.other(), c);
            let (best, _) =
                aggregate_top_candidate(graph.value_candidates(side, e), graph.neighbor_candidates(side, e), theta, keep)?;
            Some((e, best))
        })
    };
    let (left, right) = (propose(Side::Left), propose(Side::Right));
    executor.emit_counter("matching/r3_candidates", (left.len() + right.len()) as u64);

    // Left slot `l` holds the right entity `l` proposes.
    let mut proposed_by_left: Vec<Option<EntityId>> = vec![None; pair.kb(Side::Left).len()];
    for (l, r) in left {
        if let Some(slot) = proposed_by_left.get_mut(l.index()) {
            *slot = Some(r);
        }
    }
    for (r, l) in right {
        if proposed_by_left.get(l.index()) == Some(&Some(r)) {
            state.assign(l, r, Rule::R3);
        }
    }
}

/// The rank-aggregation kernel of R3: candidates still admissible under
/// `keep` are ranked within each list; the first gets `len/len`, the last
/// `1/len`; scores are summed with weights θ (value list) and 1−θ
/// (neighbor list); the best-scoring candidate wins.
///
/// Only candidates supported by *both* evidence kinds — a retained β edge
/// *and* a retained γ edge — are admissible. R3 exists to resolve the nearly-similar region of Figure 2
/// where value evidence alone is inconclusive; a candidate with no
/// neighbor evidence at all belongs to R2's regime (or to no rule: the
/// paper attributes its missed matches to the lower-left corner of
/// Figure 2, where both similarities vanish). Returns `None` when no
/// candidate is admissible.
///
/// The ranking runs in buffers the calling worker owns
/// (`AggregateScratch`), so an entity costs no allocation.
fn aggregate_top_candidate(
    value_cands: &[Candidate],
    neighbor_cands: &[Candidate],
    theta: f64,
    keep: impl Fn(EntityId) -> bool,
) -> Option<(EntityId, f64)> {
    AGGREGATE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => scratch.aggregate(value_cands, neighbor_cands, theta, &keep),
        // A `keep` that aggregates in turn gets buffers of its own.
        Err(_) => AggregateScratch::default().aggregate(value_cands, neighbor_cands, theta, &keep),
    })
}

/// Worker-owned buffers of the rank-aggregation kernel, cleared per entity
/// instead of reallocated — what [`minoaner_blocking`]'s kernel scratch is
/// to the β and γ rows.
#[derive(Default)]
struct AggregateScratch {
    /// `(candidate, score, in both lists)`, value candidates first.
    agg: Vec<(EntityId, f64, bool)>,
    /// The admissible neighbour candidates, in list order.
    neighbors: Vec<EntityId>,
}

thread_local! {
    static AGGREGATE_SCRATCH: std::cell::RefCell<AggregateScratch> = std::cell::RefCell::new(AggregateScratch::default());
}

impl AggregateScratch {
    /// [`aggregate_top_candidate`] in these buffers: the same scores,
    /// summed in the same order, as ranking into fresh `Vec`s.
    fn aggregate(
        &mut self,
        value_cands: &[Candidate],
        neighbor_cands: &[Candidate],
        theta: f64,
        keep: &impl Fn(EntityId) -> bool,
    ) -> Option<(EntityId, f64)> {
        let Self { agg, neighbors } = self;
        agg.clear();
        agg.extend(value_cands.iter().map(|c| c.entity_id()).filter(|&c| keep(c)).map(|c| (c, 0.0, false)));
        let n_val = agg.len();
        for (pos, (_, score, _)) in agg.iter_mut().enumerate() {
            *score = theta * (n_val - pos) as f64 / n_val as f64;
        }
        neighbors.clear();
        neighbors.extend(neighbor_cands.iter().map(|c| c.entity_id()).filter(|&c| keep(c)));
        let n_ngb = neighbors.len();
        for (pos, &c) in neighbors.iter().enumerate() {
            let s = (1.0 - theta) * (n_ngb - pos) as f64 / n_ngb as f64;
            match agg.iter_mut().find(|(e, _, _)| *e == c) {
                Some((_, acc, both)) => {
                    *acc += s;
                    *both = true;
                }
                None => agg.push((c, s, false)),
            }
        }
        agg.iter()
            .filter(|&&(_, _, both)| both)
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(b.0.cmp(&a.0)))
            .map(|&(c, s, _)| (c, s))
    }
}

/// Runs a per-entity computation as a parallel stage over index chunks;
/// the results come in entity order.
fn per_entity_stage<T: Send>(
    executor: &Executor,
    name: &str,
    n: usize,
    f: impl Fn(EntityId) -> Option<T> + Sync,
) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    let tasks = executor.partitions().max(1);
    let chunk = n.div_ceil(tasks).max(1);
    let chunks = executor.run_stage(name, n.div_ceil(chunk), |t| {
        let lo = t * chunk;
        let hi = ((t + 1) * chunk).min(n);
        (lo..hi).filter_map(|i| f(EntityId(i as u32))).collect::<Vec<T>>()
    });
    chunks.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoaner_kb::{KbPairBuilder, Term};

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    fn c(i: u32, w: f64) -> Candidate {
        Candidate::new(EntityId(i), w)
    }

    #[test]
    fn aggregation_prefers_agreement_over_single_list_top() {
        // Candidate 1 is top of the value list only; candidate 2 is second
        // in value but top in neighbors: with θ=0.5, 2 wins.
        let value = vec![c(1, 5.0), c(2, 4.0), c(3, 3.0)];
        let ngb = vec![c(2, 9.0), c(3, 2.0), c(1, 1.0)];
        let (best, score) = aggregate_top_candidate(&value, &ngb, 0.5, |_| true).unwrap();
        assert_eq!(best, e(2));
        // agg(2) = 0.5·(2/3) + 0.5·(3/3) = 5/6; agg(1) = 0.5·(3/3) + 0.5·(1/3) = 2/3.
        assert!((score - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn aggregation_theta_extremes() {
        let value = vec![c(1, 5.0), c(2, 4.0)];
        let ngb = vec![c(2, 9.0), c(1, 1.0)];
        // θ ≈ 1: value list dominates.
        let (best, _) = aggregate_top_candidate(&value, &ngb, 0.99, |_| true).unwrap();
        assert_eq!(best, e(1));
        // θ ≈ 0: neighbor list dominates.
        let (best, _) = aggregate_top_candidate(&value, &ngb, 0.01, |_| true).unwrap();
        assert_eq!(best, e(2));
    }

    #[test]
    fn aggregation_respects_keep_filter() {
        let value = vec![c(1, 5.0), c(2, 4.0)];
        let ngb = vec![c(1, 5.0), c(2, 4.0)];
        let (best, score) = aggregate_top_candidate(&value, &ngb, 0.6, |c| c != e(1)).unwrap();
        assert_eq!(best, e(2));
        // After filtering, candidate 2 is rank 1 of two 1-element lists.
        assert!((score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aggregation_empty_lists() {
        assert!(aggregate_top_candidate(&[], &[], 0.6, |_| true).is_none());
        assert!(aggregate_top_candidate(&[c(1, 2.0)], &[c(1, 2.0)], 0.6, |c| c != e(1)).is_none());
    }

    #[test]
    fn require_both_filters_single_evidence_candidates() {
        let value = vec![c(1, 5.0), c(2, 4.0)];
        let ngb = vec![c(2, 9.0), c(3, 1.0)];
        // Only candidate 2 has both kinds of evidence.
        let (best, _) = aggregate_top_candidate(&value, &ngb, 0.6, |_| true).unwrap();
        assert_eq!(best, e(2));
        // No overlap at all → no admissible candidate.
        assert!(aggregate_top_candidate(&value, &[c(9, 1.0)], 0.6, |_| true).is_none());
    }

    /// The allocating kernel `aggregate_top_candidate` replaced, kept
    /// verbatim as its oracle.
    fn aggregate_top_candidate_allocating(
        value_cands: &[Candidate],
        neighbor_cands: &[Candidate],
        theta: f64,
        require_both: bool,
        keep: impl Fn(EntityId) -> bool,
    ) -> Option<(EntityId, f64)> {
        let mut agg: Vec<(EntityId, f64, bool)> = Vec::new();
        let val: Vec<EntityId> = value_cands.iter().map(|c| c.entity_id()).filter(|&c| keep(c)).collect();
        for (pos, &c) in val.iter().enumerate() {
            agg.push((c, theta * (val.len() - pos) as f64 / val.len() as f64, false));
        }
        let ngb: Vec<EntityId> = neighbor_cands.iter().map(|c| c.entity_id()).filter(|&c| keep(c)).collect();
        for (pos, &c) in ngb.iter().enumerate() {
            let s = (1.0 - theta) * (ngb.len() - pos) as f64 / ngb.len() as f64;
            match agg.iter_mut().find(|(e, _, _)| *e == c) {
                Some((_, acc, both)) => {
                    *acc += s;
                    *both = true;
                }
                None => agg.push((c, s, false)),
            }
        }
        agg.into_iter()
            .filter(|&(_, _, both)| both || !require_both)
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(b.0.cmp(&a.0))
            })
            .map(|(c, s, _)| (c, s))
    }

    #[test]
    fn aggregation_in_scratch_equals_the_allocating_kernel() {
        minoaner_det::rng::for_each_seed(2000, |rng| {
            // Candidates from a small universe, so the lists share many, a
            // list may name one twice, and `keep` drops some of them.
            let universe = 1 + rng.gen_range(0..12usize);
            let list = |rng: &mut minoaner_det::rng::Rng| -> Vec<Candidate> {
                (0..rng.gen_range(0..16usize)).map(|_| c(rng.gen_range(0..universe) as u32, rng.gen_range(1..100usize) as f64)).collect()
            };
            let (value, ngb) = (list(rng), list(rng));
            let dropped: Vec<bool> = (0..universe).map(|_| rng.gen_range(0..4usize) == 0).collect();
            let keep = |c: EntityId| !dropped[c.index()];
            let theta = [0.0, 0.6, 1.0, rng.gen_range(0..1000usize) as f64 / 1000.0][rng.gen_range(0..4usize)];
            let bits = |got: Option<(EntityId, f64)>| got.map(|(c, s)| (c, s.to_bits()));
            assert_eq!(
                bits(aggregate_top_candidate(&value, &ngb, theta, keep)),
                bits(aggregate_top_candidate_allocating(&value, &ngb, theta, true, keep)),
                "{value:?} / {ngb:?}, θ={theta}, dropped={dropped:?}"
            );
        });
        // A `keep` that aggregates as well runs on buffers of its own.
        let value = [c(1, 5.0), c(2, 4.0)];
        let nested = |c: EntityId| aggregate_top_candidate(&value, &value, 0.5, |d| d == c).is_some();
        assert_eq!(aggregate_top_candidate(&value, &value, 0.5, nested), Some((e(1), 1.0)));
    }

    /// A pair with `n_left` and `n_right` entities and nothing shared.
    fn bare_pair(n_left: usize, n_right: usize) -> KbPair {
        let mut b = KbPairBuilder::new();
        for i in 0..n_left {
            b.add_triple(Side::Left, &format!("l{i}"), "p", Term::Literal(&format!("left {i}")));
        }
        for i in 0..n_right {
            b.add_triple(Side::Right, &format!("r{i}"), "p", Term::Literal(&format!("right {i}")));
        }
        b.finish()
    }

    /// A graph with these value candidates per entity (left rows, then
    /// right rows), no neighbour candidate and no α pair, built through the
    /// graph's own record codec.
    fn graph_with_values(left: &[&[Candidate]], right: &[&[Candidate]]) -> BlockingGraph {
        use minoaner_det::codec::Spillable;
        use minoaner_kb::Rows;
        let rows = |side: &[&[Candidate]]| side.iter().map(|row| row.to_vec()).collect::<Rows<Candidate>>();
        let empty = |n: usize| (0..n).map(|_| Vec::<Candidate>::new()).collect::<Rows<Candidate>>();
        let mut bytes = Vec::new();
        [rows(left), rows(right)].encode(&mut bytes);
        [empty(left.len()), empty(right.len())].encode(&mut bytes);
        Vec::<(EntityId, EntityId)>::new().encode(&mut bytes);
        BlockingGraph::decode(&bytes, &mut 0).expect("a graph's own bytes decode")
    }

    fn match_on(pair: &KbPair, graph: &BlockingGraph, rules: RuleSet) -> MatchOutcome {
        run_matching(&Executor::new(1), pair, graph, &MinoanerConfig::default(), rules)
    }

    /// R2's bar is β ≥ 1 (Algorithm 2, line 7): exactly 1.0 matches, the
    /// float one ulp below it does not.
    #[test]
    fn r2_matches_at_beta_one_and_not_one_ulp_below() {
        let pair = bare_pair(1, 1);
        let at_one = graph_with_values(&[&[c(0, 1.0)]], &[&[c(0, 1.0)]]);
        assert_eq!(match_on(&pair, &at_one, RuleSet::R2_ONLY).matches, [(e(0), e(0))]);
        let below = f64::from_bits(1.0f64.to_bits() - 1);
        let under = graph_with_values(&[&[c(0, below)]], &[&[c(0, below)]]);
        assert!(match_on(&pair, &under, RuleSet::R2_ONLY).matches.is_empty());
    }

    /// Two R2 proposals for one target: the stronger β takes it, whichever
    /// entity proposes first.
    #[test]
    fn r2_gives_a_contested_target_to_the_stronger_beta() {
        let pair = bare_pair(2, 2);
        for strong in [0, 1] {
            let row = |i: u32| if i == strong { [c(0, 2.5)] } else { [c(0, 1.5)] };
            let (l0, l1) = (row(0), row(1));
            let graph = graph_with_values(&[&l0, &l1], &[&[], &[]]);
            let out = match_on(&pair, &graph, RuleSet::R2_ONLY);
            assert_eq!(out.matches, [(e(strong), e(0))]);
        }
    }

    /// The greedy merge `strongest_proposers` replaced, kept as its
    /// oracle: proposals strongest β first, then by proposer, each taken
    /// while both its endpoints are free.
    fn greedy_strongest_first(proposals: &[(EntityId, EntityId, f64)]) -> Vec<(EntityId, EntityId)> {
        let mut props = proposals.to_vec();
        props.sort_unstable_by(|a, b| {
            b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        let (mut proposers, mut targets) = (Vec::new(), Vec::new());
        let mut merged = Vec::new();
        for (e, c, _) in props {
            if !proposers.contains(&e) && !targets.contains(&c) {
                proposers.push(e);
                targets.push(c);
                merged.push((e, c));
            }
        }
        merged.sort_unstable();
        merged
    }

    /// R2's per-target slots assign what the greedy strongest-β-first
    /// merge does, on proposal sets where most targets are contested and
    /// β ties are common, in any proposal order.
    #[test]
    fn r2_slot_merge_equals_the_greedy_strongest_first_merge() {
        let mut contested = 0;
        minoaner_det::rng::for_each_seed(2000, |rng| {
            let n_targets = 1 + rng.gen_range(0..6usize);
            let mut proposers: Vec<u32> = (0..rng.gen_range(0..24u32)).collect();
            rng.shuffle(&mut proposers);
            proposers.truncate(rng.gen_range(0..16usize));
            let proposals: Vec<(EntityId, EntityId, f64)> = proposers
                .iter()
                .map(|&p| {
                    let beta = [1.0, 1.0, 1.5, 2.0, 3.25][rng.gen_range(0..5usize)];
                    (e(p), e(rng.gen_range(0..n_targets) as u32), beta)
                })
                .collect();
            let mut targets: Vec<EntityId> = proposals.iter().map(|p| p.1).collect();
            targets.sort_unstable();
            targets.dedup();
            contested += usize::from(targets.len() < proposals.len());
            let mut slots: Vec<(EntityId, EntityId)> = strongest_proposers(&proposals, n_targets).collect();
            slots.sort_unstable();
            assert_eq!(slots, greedy_strongest_first(&proposals), "{proposals:?}");
        });
        assert!(contested > 1000, "only {contested} of 2000 cases contest a target");
    }

    /// R4 (Def. 4.1): a match needs its edge in both directions. With
    /// K = 1, `e` proposes `c` with β = 1, but `c`'s one value slot holds
    /// `e2` (β = 2), and `e2` proposes `d` (β = 3): R2 takes `(e, c)` and
    /// `(e2, d)`, and R4 removes `(e, c)`, which `c` does not list back.
    #[test]
    fn r4_removes_a_match_its_target_does_not_list_back() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "e", "p", Term::Literal("apple"));
        b.add_triple(Side::Left, "e2", "p", Term::Literal("berry cherry damson elder fig"));
        b.add_triple(Side::Right, "c", "p", Term::Literal("apple berry cherry"));
        b.add_triple(Side::Right, "d", "p", Term::Literal("damson elder fig"));
        let pair = b.finish();
        let id = |side: Side, uri: &str| pair.kb(side).entity_by_uri(pair.uris().get(uri).unwrap()).unwrap();
        let (e, e2) = (id(Side::Left, "e"), id(Side::Left, "e2"));
        let (c, d) = (id(Side::Right, "c"), id(Side::Right, "d"));

        let config = MinoanerConfig { top_k: 1, ..MinoanerConfig::default() };
        let minoaner = crate::Minoaner::with_config(config);
        let exec = Executor::new(1);
        let blocks = minoaner.prepare_blocks(&exec, &pair);
        let graph = minoaner.build_graph_from_blocks(&exec, &pair, &blocks);
        assert_eq!(graph.value_candidates(Side::Left, e), [Candidate::new(c, 1.0)]);
        assert_eq!(graph.value_candidates(Side::Right, c), [Candidate::new(e2, 2.0)]);
        assert_eq!(graph.value_candidates(Side::Left, e2), [Candidate::new(d, 3.0)]);

        let out = run_matching(&exec, &pair, &graph, &config, RuleSet::FULL);
        assert_eq!(out.matches, [(e2, d)]);
        assert_eq!(out.counts, RuleCounts { r1: 0, r2: 2, r3: 0, removed_by_r4: 1 });
    }

    #[test]
    fn assignment_unique_mapping_blocks_conflicts() {
        let mut a = Assignment::new(3, 3);
        assert!(a.assign(e(0), e(1), Rule::R1));
        assert!(!a.assign(e(0), e(2), Rule::R2), "left endpoint taken");
        assert!(!a.assign(e(2), e(1), Rule::R2), "right endpoint taken");
        assert!(a.assign(e(1), e(0), Rule::R3));
        assert_eq!(a.matches.len(), 2);
    }
}
