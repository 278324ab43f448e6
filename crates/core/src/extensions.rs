//! Extensions sketched in the paper's conclusion (§7): "we will
//! investigate how to create an *ensemble of matching rules* and how to
//! set the parameters of *pruning candidate pairs dynamically*, based on
//! the local similarity distributions of each node's candidates."
//!
//! * [`ensemble_resolve`] — run the workflow under several configurations
//!   and keep the pairs that a minimum number of runs agree on, resolved
//!   by vote count under unique mapping.
//! * Adaptive pruning lives in the blocking layer
//!   ([`minoaner_blocking::graph::GraphConfig::adaptive_pruning`]);
//!   [`crate::ResolveRequest::adaptive`] turns it on for a [`Minoaner`]
//!   run, which is otherwise the same pipeline.

use minoaner_det::DetHashMap;

use minoaner_dataflow::{DataflowError, Executor};
use minoaner_kb::{EntityId, KbPair};

use crate::config::{MinoanerConfig, RuleSet};
use crate::pipeline::Minoaner;

/// Result of an ensemble run.
#[derive(Debug, Clone)]
pub struct EnsembleResolution {
    /// Pairs with at least `min_votes` supporting configurations, resolved
    /// by decreasing vote count under unique mapping.
    pub matches: Vec<(EntityId, EntityId)>,
    /// Vote count per retained pair (parallel to `matches`).
    pub votes: Vec<usize>,
    /// Number of configurations that ran.
    pub runs: usize,
}

/// Runs the full workflow once per configuration and majority-votes the
/// results. Ties between conflicting pairs break on vote count, then ids.
/// The first run that fails (cancelled, a full disk) fails the ensemble
/// with its error. An empty configuration list runs nothing and returns no
/// matches, with `runs: 0`.
pub fn ensemble_resolve(
    executor: &Executor,
    pair: &KbPair,
    configs: &[MinoanerConfig],
    min_votes: usize,
) -> Result<EnsembleResolution, DataflowError> {
    let mut votes: DetHashMap<(u32, u32), usize> = DetHashMap::default();
    for cfg in configs {
        let res = Minoaner::with_config(*cfg).resolve_impl(executor, pair, RuleSet::FULL, false, None)?;
        for (l, r) in res.matches {
            *votes.entry((l.0, r.0)).or_insert(0) += 1;
        }
    }
    let mut scored: Vec<((u32, u32), usize)> =
        votes.into_iter().filter(|&(_, v)| v >= min_votes.max(1)).collect();
    scored.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut taken_l = minoaner_det::DetHashSet::default();
    let mut taken_r = minoaner_det::DetHashSet::default();
    let mut matches = Vec::new();
    let mut out_votes = Vec::new();
    for ((l, r), v) in scored {
        if taken_l.contains(&l) || taken_r.contains(&r) {
            continue;
        }
        taken_l.insert(l);
        taken_r.insert(r);
        matches.push((EntityId(l), EntityId(r)));
        out_votes.push(v);
    }
    Ok(EnsembleResolution { matches, votes: out_votes, runs: configs.len() })
}

/// A small, diverse default ensemble around the paper's global
/// configuration: θ and K varied one notch each way.
pub fn default_ensemble() -> Vec<MinoanerConfig> {
    let base = MinoanerConfig::default();
    vec![
        base,
        MinoanerConfig { theta: 0.5, ..base },
        MinoanerConfig { theta: 0.7, ..base },
        MinoanerConfig { top_k: 10, ..base },
        MinoanerConfig { top_k: 20, ..base },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ResolveRequest;
    use minoaner_kb::{KbPairBuilder, Side, Term};

    fn pair() -> KbPair {
        let mut b = KbPairBuilder::new();
        for (i, name) in ["fat duck bray", "noma copenhagen nordic", "el bulli roses"].iter().enumerate() {
            b.add_triple(Side::Left, &format!("l{i}"), "label", Term::Literal(name));
            b.add_triple(Side::Right, &format!("r{i}"), "name", Term::Literal(name));
        }
        b.finish()
    }

    #[test]
    fn ensemble_agrees_on_clear_matches() {
        let p = pair();
        let exec = Executor::new(2);
        let res = ensemble_resolve(&exec, &p, &default_ensemble(), 3).unwrap();
        assert_eq!(res.runs, 5);
        assert_eq!(res.matches.len(), 3, "all clear pairs survive the vote");
        assert!(res.votes.iter().all(|&v| v >= 3));
    }

    #[test]
    fn min_votes_filters_unstable_pairs() {
        let p = pair();
        let exec = Executor::new(1);
        // With min_votes above the run count, nothing survives.
        let res = ensemble_resolve(&exec, &p, &default_ensemble(), 6).unwrap();
        assert!(res.matches.is_empty());
    }

    #[test]
    fn empty_ensemble_runs_nothing_and_matches_nothing() {
        let p = pair();
        let exec = Executor::new(1);
        let res = ensemble_resolve(&exec, &p, &[], 1).expect("an empty ensemble is no error");
        assert_eq!((res.matches, res.votes, res.runs), (Vec::new(), Vec::new(), 0));
        assert!(exec.stage_log().stages().is_empty(), "no run started");
    }

    #[test]
    fn adaptive_resolution_matches_clear_pairs() {
        let p = pair();
        let out = Minoaner::new()
            .run(ResolveRequest::pair(&p).adaptive().workers(2))
            .expect("healthy run succeeds")
            .into_resolution();
        assert_eq!(out.matches.len(), 3);
    }

    #[test]
    fn ensemble_is_one_to_one() {
        let p = pair();
        let exec = Executor::new(1);
        let res = ensemble_resolve(&exec, &p, &default_ensemble(), 1).unwrap();
        let mut lefts: Vec<_> = res.matches.iter().map(|&(l, _)| l).collect();
        lefts.sort_unstable();
        let n = lefts.len();
        lefts.dedup();
        assert_eq!(n, lefts.len());
    }
}
