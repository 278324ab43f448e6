//! Unique Mapping Clustering — the match-selection procedure shared by
//! SiGMa, LINDA, RiMOM and MinoanER (§5 of the paper): scored pairs enter
//! a queue in decreasing similarity; the top pair is accepted iff neither
//! endpoint is already matched; the process stops at a similarity
//! threshold `t`.

use minoaner_kb::EntityId;

/// Runs unique mapping clustering over `(left, right, score)` pairs.
///
/// Pairs are processed in decreasing score order (ties broken by ids for
/// determinism); pairs scoring below `threshold` are ignored. Returns the
/// accepted matches in acceptance order: [`unique_mapping_prefix`] cut at
/// its first match scoring below `threshold` — whether a pair is accepted
/// never depends on a pair of lower score.
pub fn unique_mapping_clustering(
    pairs: Vec<(EntityId, EntityId, f64)>,
    threshold: f64,
) -> Vec<(EntityId, EntityId)> {
    unique_mapping_prefix(pairs)
        .into_iter()
        .take_while(|&(_, _, s)| s.partial_cmp(&threshold) != Some(std::cmp::Ordering::Less))
        .map(|(l, r, _)| (l, r))
        .collect()
}

/// Prefix-evaluation support: runs UMC once with no threshold and returns
/// each accepted match with its score, so that the result for *any*
/// threshold `t` is the prefix with score ≥ `t`. Used by the BSL grid
/// search to sweep 20 thresholds at the cost of one pass.
pub fn unique_mapping_prefix(
    mut pairs: Vec<(EntityId, EntityId, f64)>,
) -> Vec<(EntityId, EntityId, f64)> {
    pairs.sort_unstable_by(|a, b| {
        b.2.partial_cmp(&a.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
    });
    let mut left_taken = minoaner_det::DetHashSet::default();
    let mut right_taken = minoaner_det::DetHashSet::default();
    let mut out = Vec::new();
    for (l, r, s) in pairs {
        if left_taken.contains(&l) || right_taken.contains(&r) {
            continue;
        }
        left_taken.insert(l);
        right_taken.insert(r);
        out.push((l, r, s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn takes_best_pair_per_entity() {
        let pairs = vec![(e(0), e(0), 0.9), (e(0), e(1), 0.8), (e(1), e(0), 0.7), (e(1), e(1), 0.6)];
        let m = unique_mapping_clustering(pairs, 0.0);
        assert_eq!(m, vec![(e(0), e(0)), (e(1), e(1))]);
    }

    #[test]
    fn threshold_cuts_low_scores() {
        let pairs = vec![(e(0), e(0), 0.9), (e(1), e(1), 0.3)];
        let m = unique_mapping_clustering(pairs, 0.5);
        assert_eq!(m, vec![(e(0), e(0))]);
    }

    #[test]
    fn greedy_conflict_resolution() {
        // e1-left's best is taken by a stronger pair; e1 stays unmatched
        // for that partner but can take another.
        let pairs = vec![(e(0), e(5), 1.0), (e(1), e(5), 0.9), (e(1), e(6), 0.5)];
        let m = unique_mapping_clustering(pairs, 0.0);
        assert_eq!(m, vec![(e(0), e(5)), (e(1), e(6))]);
    }

    #[test]
    fn prefix_matches_thresholded_runs() {
        let pairs = vec![
            (e(0), e(0), 0.9),
            (e(1), e(1), 0.7),
            (e(2), e(2), 0.4),
            (e(0), e(2), 0.95), // conflicts with (0,0)
        ];
        let prefix = unique_mapping_prefix(pairs.clone());
        for t in [0.0, 0.5, 0.8, 1.0] {
            let direct = unique_mapping_clustering(pairs.clone(), t);
            let via_prefix: Vec<_> =
                prefix.iter().filter(|&&(_, _, s)| s >= t).map(|&(l, r, _)| (l, r)).collect();
            assert_eq!(direct, via_prefix, "threshold {t}");
        }
    }

    /// The greedy loop that stops at the first pair below the threshold,
    /// accepted or not, on crowded seeded pairs with tied scores.
    #[test]
    fn clustering_is_the_thresholded_greedy_loop() {
        minoaner_det::rng::for_each_seed(300, |rng| {
            let n = rng.gen_range(0..40usize);
            let pairs: Vec<_> = (0..n)
                .map(|_| (e(rng.gen_range(0..6u32)), e(rng.gen_range(0..6u32)), rng.gen_range(0..8u32) as f64 / 8.0))
                .collect();
            let t = rng.gen_range(0..9u32) as f64 / 8.0;
            let mut sorted = pairs.clone();
            sorted.sort_unstable_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
            let (mut left, mut right, mut want) = (Vec::new(), Vec::new(), Vec::new());
            for (l, r, s) in sorted {
                if s < t {
                    break;
                }
                if !left.contains(&l) && !right.contains(&r) {
                    left.push(l);
                    right.push(r);
                    want.push((l, r));
                }
            }
            assert_eq!(unique_mapping_clustering(pairs.clone(), t), want, "{pairs:?} at {t}");
        });
    }

    #[test]
    fn deterministic_under_ties() {
        let pairs = vec![(e(1), e(1), 0.5), (e(0), e(0), 0.5)];
        let m = unique_mapping_clustering(pairs, 0.0);
        assert_eq!(m, vec![(e(0), e(0)), (e(1), e(1))]);
    }

    #[test]
    fn empty_input() {
        assert!(unique_mapping_clustering(vec![], 0.0).is_empty());
    }
}
