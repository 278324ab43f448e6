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

use minoaner_blocking::BlockingGraph;
use minoaner_det::spillable_struct;
use minoaner_det::DetHashMap;
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

impl MatchOutcome {
    /// The matched pairs as a sorted vector (for comparisons in tests).
    pub fn sorted_pairs(&self) -> Vec<(EntityId, EntityId)> {
        let mut out = self.matches.clone();
        out.sort_unstable();
        out
    }
}

/// Tracks the 1–1 assignment state while rules execute.
struct Assignment {
    left: Vec<Option<u32>>,
    right: Vec<Option<u32>>,
    unique: bool,
    matches: Vec<(EntityId, EntityId)>,
    rules: Vec<Rule>,
}

impl Assignment {
    fn new(n_left: usize, n_right: usize, unique: bool) -> Self {
        Self {
            left: vec![None; n_left],
            right: vec![None; n_right],
            unique,
            matches: Vec::new(),
            rules: Vec::new(),
        }
    }

    fn is_free(&self, side: Side, e: EntityId) -> bool {
        match side {
            Side::Left => self.left[e.index()].is_none(),
            Side::Right => self.right[e.index()].is_none(),
        }
    }

    /// Tries to record `(l, r)`; under unique mapping both endpoints must
    /// still be free. Returns whether the pair was added.
    fn assign(&mut self, l: EntityId, r: EntityId, rule: Rule) -> bool {
        if self.unique && (self.left[l.index()].is_some() || self.right[r.index()].is_some()) {
            return false;
        }
        if !self.unique && self.matches.contains(&(l, r)) {
            return false;
        }
        self.left[l.index()] = Some(r.0);
        self.right[r.index()] = Some(l.0);
        self.matches.push((l, r));
        self.rules.push(rule);
        true
    }
}

/// Runs Algorithm 2 on a pruned blocking graph.
///
/// Rules R2 and R3 are embarrassingly parallel per node; their per-entity
/// proposal computation runs as dataflow stages on `executor` (mirroring
/// the Spark adaptation of §4.1), followed by a sequential unique-mapping
/// merge.
pub fn run_matching(
    executor: &Executor,
    pair: &KbPair,
    graph: &BlockingGraph,
    cfg: &MinoanerConfig,
    rules: RuleSet,
) -> MatchOutcome {
    let n_left = pair.kb(Side::Left).len();
    let n_right = pair.kb(Side::Right).len();
    let mut state = Assignment::new(n_left, n_right, cfg.unique_mapping);

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

    let mut counts = RuleCounts::default();
    for r in &state.rules {
        match r {
            Rule::R1 => counts.r1 += 1,
            Rule::R2 => counts.r2 += 1,
            Rule::R3 => counts.r3 += 1,
        }
    }

    let (matches, rule_tags) = if rules.r4 {
        executor.time_stage("matching/r4", || {
            let mut kept = Vec::with_capacity(state.matches.len());
            let mut kept_rules = Vec::with_capacity(state.rules.len());
            for (&(l, r), &rule) in state.matches.iter().zip(&state.rules) {
                if graph.has_directed_edge(Side::Left, l, r) && graph.has_directed_edge(Side::Right, r, l) {
                    kept.push((l, r));
                    kept_rules.push(rule);
                } else {
                    counts.removed_by_r4 += 1;
                }
            }
            (kept, kept_rules)
        })
    } else {
        (state.matches, state.rules)
    };

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
/// candidate matches when β ≥ 1.
fn rule_r2(executor: &Executor, pair: &KbPair, graph: &BlockingGraph, state: &mut Assignment) {
    let small = pair.smaller_side();
    let n = pair.kb(small).len();
    let unique = state.unique;
    // A snapshot of the assignment lets the parallel stage skip entities
    // and candidates matched by R1, as the Spark version does with the
    // broadcast R1 matches (§4.1).
    let free_self: Vec<bool> = (0..n).map(|i| state.is_free(small, EntityId(i as u32))).collect();
    let other = small.other();
    let free_other: Vec<bool> = (0..pair.kb(other).len())
        .map(|i| state.is_free(other, EntityId(i as u32)))
        .collect();

    let proposals = per_entity_stage(executor, "matching/r2", n, |i| {
        let e = EntityId(i as u32);
        if !free_self[i] {
            return None;
        }
        let top = graph
            .value_candidates(small, e)
            .iter()
            .find(|&&(c, _)| !unique || free_other[c.index()])?;
        (top.1 >= 1.0).then_some((e, top.0, top.1))
    });

    // Greedy unique-mapping merge, strongest β first.
    let mut props: Vec<(EntityId, EntityId, f64)> = proposals.into_iter().flatten().collect();
    executor.emit_counter("matching/r2_candidates", props.len() as u64);
    props.sort_unstable_by(|a, b| {
        b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    for (e, c, _) in props {
        let (l, r) = orient(small, e, c);
        state.assign(l, r, Rule::R2);
    }
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
fn rule_r3(
    executor: &Executor,
    pair: &KbPair,
    graph: &BlockingGraph,
    theta: f64,
    state: &mut Assignment,
) {
    let unique = state.unique;
    let mut proposals: Vec<(Side, EntityId, EntityId, f64)> = Vec::new();
    for side in [Side::Left, Side::Right] {
        let n = pair.kb(side).len();
        let free_self: Vec<bool> = (0..n).map(|i| state.is_free(side, EntityId(i as u32))).collect();
        let other = side.other();
        let free_other: Vec<bool> = (0..pair.kb(other).len())
            .map(|i| state.is_free(other, EntityId(i as u32)))
            .collect();

        let side_props = per_entity_stage(executor, &format!("matching/r3/{side:?}"), n, |i| {
            let e = EntityId(i as u32);
            if !free_self[i] {
                return None;
            }
            let keep = |c: EntityId| !unique || free_other[c.index()];
            let best = aggregate_top_candidate(
                graph.value_candidates(side, e),
                graph.neighbor_candidates(side, e),
                theta,
                true,
                keep,
            )?;
            Some((e, best.0, best.1))
        });
        for (e, c, score) in side_props.into_iter().flatten() {
            let (l, r) = orient(side, e, c);
            proposals.push((side, l, r, score));
        }
    }

    executor.emit_counter("matching/r3_candidates", proposals.len() as u64);

    // Mutual-proposal join: keep (l, r) iff proposed from both sides.
    let mut left_props: DetHashMap<(u32, u32), f64> = DetHashMap::default();
    for &(side, l, r, score) in &proposals {
        if side == Side::Left {
            left_props.insert((l.0, r.0), score);
        }
    }
    let mut mutual: Vec<(EntityId, EntityId, f64)> = proposals
        .iter()
        .filter(|&&(side, ..)| side == Side::Right)
        .filter_map(|&(_, l, r, score)| {
            left_props.get(&(l.0, r.0)).map(|&s| (l, r, s + score))
        })
        .collect();

    mutual.sort_unstable_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
    });
    for (l, r, _) in mutual {
        state.assign(l, r, Rule::R3);
    }
}

/// The rank-aggregation kernel of R3: candidates still admissible under
/// `keep` are ranked within each list; the first gets `len/len`, the last
/// `1/len`; scores are summed with weights θ (value list) and 1−θ
/// (neighbor list); the best-scoring candidate wins.
///
/// With `require_both` (what rule R3 uses), only candidates supported by
/// *both* evidence kinds — a retained β edge *and* a retained γ edge — are
/// admissible. R3 exists to resolve the nearly-similar region of Figure 2
/// where value evidence alone is inconclusive; a candidate with no
/// neighbor evidence at all belongs to R2's regime (or to no rule: the
/// paper attributes its missed matches to the lower-left corner of
/// Figure 2, where both similarities vanish). Returns `None` when no
/// candidate is admissible.
pub fn aggregate_top_candidate(
    value_cands: &[(EntityId, f64)],
    neighbor_cands: &[(EntityId, f64)],
    theta: f64,
    require_both: bool,
    keep: impl Fn(EntityId) -> bool,
) -> Option<(EntityId, f64)> {
    let mut agg: Vec<(EntityId, f64, bool)> = Vec::new();
    let val: Vec<EntityId> = value_cands.iter().map(|&(c, _)| c).filter(|&c| keep(c)).collect();
    for (pos, &c) in val.iter().enumerate() {
        agg.push((c, theta * (val.len() - pos) as f64 / val.len() as f64, false));
    }
    let ngb: Vec<EntityId> = neighbor_cands.iter().map(|&(c, _)| c).filter(|&c| keep(c)).collect();
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

fn orient(side: Side, e: EntityId, candidate: EntityId) -> (EntityId, EntityId) {
    match side {
        Side::Left => (e, candidate),
        Side::Right => (candidate, e),
    }
}

/// Runs a per-entity computation as a parallel stage over index chunks.
fn per_entity_stage<T: Send>(
    executor: &Executor,
    name: &str,
    n: usize,
    f: impl Fn(usize) -> Option<T> + Sync,
) -> Vec<Vec<T>> {
    if n == 0 {
        return Vec::new();
    }
    let tasks = executor.partitions().max(1);
    let chunk = n.div_ceil(tasks).max(1);
    executor.run_stage(name, n.div_ceil(chunk), |t| {
        let lo = t * chunk;
        let hi = ((t + 1) * chunk).min(n);
        (lo..hi).filter_map(&f).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn aggregation_prefers_agreement_over_single_list_top() {
        // Candidate 1 is top of the value list only; candidate 2 is second
        // in value but top in neighbors: with θ=0.5, 2 wins.
        let value = vec![(e(1), 5.0), (e(2), 4.0)];
        let ngb = vec![(e(2), 9.0), (e(3), 1.0)];
        let (best, score) = aggregate_top_candidate(&value, &ngb, 0.5, false, |_| true).unwrap();
        assert_eq!(best, e(2));
        // agg(2) = 0.5·(1/2) + 0.5·(2/2) = 0.75; agg(1) = 0.5·(2/2) = 0.5.
        assert!((score - 0.75).abs() < 1e-12);
    }

    #[test]
    fn aggregation_theta_extremes() {
        let value = vec![(e(1), 5.0), (e(2), 4.0)];
        let ngb = vec![(e(2), 9.0)];
        // θ ≈ 1: value list dominates.
        let (best, _) = aggregate_top_candidate(&value, &ngb, 0.99, false, |_| true).unwrap();
        assert_eq!(best, e(1));
        // θ ≈ 0: neighbor list dominates.
        let (best, _) = aggregate_top_candidate(&value, &ngb, 0.01, false, |_| true).unwrap();
        assert_eq!(best, e(2));
    }

    #[test]
    fn aggregation_respects_keep_filter() {
        let value = vec![(e(1), 5.0), (e(2), 4.0)];
        let (best, score) = aggregate_top_candidate(&value, &[], 0.6, false, |c| c != e(1)).unwrap();
        assert_eq!(best, e(2));
        // After filtering, candidate 2 is rank 1 of a 1-element list.
        assert!((score - 0.6).abs() < 1e-12);
    }

    #[test]
    fn aggregation_empty_lists() {
        assert!(aggregate_top_candidate(&[], &[], 0.6, false, |_| true).is_none());
        assert!(aggregate_top_candidate(&[(e(1), 2.0)], &[], 0.6, false, |c| c != e(1)).is_none());
    }

    #[test]
    fn require_both_filters_single_evidence_candidates() {
        let value = vec![(e(1), 5.0), (e(2), 4.0)];
        let ngb = vec![(e(2), 9.0), (e(3), 1.0)];
        // Only candidate 2 has both kinds of evidence.
        let (best, _) = aggregate_top_candidate(&value, &ngb, 0.6, true, |_| true).unwrap();
        assert_eq!(best, e(2));
        // No overlap at all → no admissible candidate.
        assert!(aggregate_top_candidate(&value, &[(e(9), 1.0)], 0.6, true, |_| true).is_none());
    }

    #[test]
    fn assignment_unique_mapping_blocks_conflicts() {
        let mut a = Assignment::new(3, 3, true);
        assert!(a.assign(e(0), e(1), Rule::R1));
        assert!(!a.assign(e(0), e(2), Rule::R2), "left endpoint taken");
        assert!(!a.assign(e(2), e(1), Rule::R2), "right endpoint taken");
        assert!(a.assign(e(1), e(0), Rule::R3));
        assert_eq!(a.matches.len(), 2);
    }

    #[test]
    fn assignment_literal_mode_dedups_pairs_only() {
        let mut a = Assignment::new(3, 3, false);
        assert!(a.assign(e(0), e(1), Rule::R3));
        assert!(!a.assign(e(0), e(1), Rule::R3), "exact duplicate dropped");
        assert!(a.assign(e(0), e(2), Rule::R3), "literal mode allows one-to-many");
    }
}
