//! BSL — the paper's heavily fine-tuned baseline (§6, "Baselines"): a
//! value-only matcher that scores every candidate pair of the (unpruned)
//! blocking evidence with a classic string-similarity configuration and
//! resolves matches with Unique Mapping Clustering. Its four parameters
//! are grid-searched against the ground truth, exactly as in the paper:
//!
//! * token n-grams, `n ∈ {1, 2, 3}`;
//! * TF or TF-IDF weights;
//! * Cosine, Jaccard, Generalized Jaccard, or SiGMa similarity (the SiGMa
//!   measure applies only to TF-IDF weights \[21\]);
//! * similarity threshold in `[0, 1)` with step 0.05.
//!
//! That is 3 × (3 × 2 + 1) = 21 scoring configurations × 20 thresholds =
//! **420 configurations**, of which the best F1 is reported.
//!
//! Unlike MinoanER, BSL uses no neighbor evidence — which is exactly why
//! it collapses on the low-value-similarity datasets (Table 3).

use minoaner_det::{DetHashMap, DetHashSet};
use std::hash::{Hash, Hasher};

use minoaner_blocking::{NameBlocks, TokenBlocks};
use minoaner_dataflow::Executor;
use minoaner_kb::{EntityId, KbPair, Side};

use crate::umc::unique_mapping_prefix;

/// Token weighting scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weighting {
    Tf,
    TfIdf,
}

/// Similarity measure over weighted n-gram profiles (all normalized to
/// `[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    Cosine,
    Jaccard,
    GeneralizedJaccard,
    /// The SiGMa weighted-Dice measure \[21\]: `Σ_{g∈A∩B}(w_A(g)+w_B(g)) /
    /// (Σ_A w + Σ_B w)`; defined for TF-IDF weights only.
    Sigma,
}

/// One point of the BSL grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BslConfig {
    pub ngram: usize,
    pub weighting: Weighting,
    pub measure: Measure,
    pub threshold: f64,
}

/// Result of the grid search.
#[derive(Debug, Clone)]
pub struct BslReport {
    /// The F1-maximizing configuration.
    pub best: BslConfig,
    /// Its matches.
    pub matches: Vec<(EntityId, EntityId)>,
    /// Its precision / recall / F1 (percent).
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    /// Number of grid points evaluated (420 in the paper's setup).
    pub evaluated: usize,
    /// Number of candidate pairs scored.
    pub candidates: usize,
}

/// Collects the distinct candidate pairs suggested by the token and name
/// blocks (the value/name disjuncts of the blocking scheme — the inputs
/// BSL scores).
pub fn candidate_pairs(token_blocks: &TokenBlocks, name_blocks: &NameBlocks) -> Vec<(EntityId, EntityId)> {
    let mut seen: DetHashSet<(u32, u32)> = DetHashSet::default();
    let blocks = token_blocks.iter().map(|(_, b)| b).chain(name_blocks.iter().map(|(_, b)| b));
    for b in blocks {
        for &l in b.left {
            for &r in b.right {
                seen.insert((l.0, r.0));
            }
        }
    }
    let mut out: Vec<(EntityId, EntityId)> =
        seen.into_iter().map(|(l, r)| (EntityId(l), EntityId(r))).collect();
    out.sort_unstable();
    out
}

/// A sparse weighted n-gram profile, sorted by gram id.
type Profile = Vec<(u64, f64)>;

fn gram_hash(window: &[minoaner_kb::TokenId]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for t in window {
        t.0.hash(&mut h);
    }
    h.finish()
}

/// Builds raw term-frequency profiles of token `n`-grams for one side.
/// N-grams are taken within each literal value (they never span values).
fn tf_profiles(pair: &KbPair, side: Side, n: usize) -> Vec<Vec<(u64, u32)>> {
    let kb = pair.kb(side);
    let mut out = Vec::with_capacity(kb.len());
    for (_, e) in kb.iter() {
        let mut counts: DetHashMap<u64, u32> = DetHashMap::default();
        for (_, lit) in e.literal_pairs() {
            let seq = pair.literal_token_seq(lit);
            if seq.len() >= n {
                for w in seq.windows(n) {
                    *counts.entry(gram_hash(w)).or_insert(0) += 1;
                }
            }
        }
        let mut profile: Vec<(u64, u32)> = counts.into_iter().collect();
        profile.sort_unstable_by_key(|&(g, _)| g);
        out.push(profile);
    }
    out
}

fn weighted(
    tf: &[Vec<(u64, u32)>],
    weighting: Weighting,
    df: &DetHashMap<u64, u32>,
    corpus_size: f64,
) -> Vec<Profile> {
    tf.iter()
        .map(|p| {
            p.iter()
                .map(|&(g, c)| {
                    let w = match weighting {
                        Weighting::Tf => c as f64,
                        Weighting::TfIdf => {
                            c as f64 * (corpus_size / f64::from(df[&g])).ln().max(0.0)
                        }
                    };
                    (g, w)
                })
                .collect()
        })
        .collect()
}

/// Pair statistics from one merge pass over two sorted profiles.
struct PairStats {
    dot: f64,
    min_sum: f64,
    shared: usize,
    shared_weight: f64,
}

fn merge_stats(a: &Profile, b: &Profile) -> PairStats {
    let (mut i, mut j) = (0, 0);
    let mut s = PairStats { dot: 0.0, min_sum: 0.0, shared: 0, shared_weight: 0.0 };
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let (wa, wb) = (a[i].1, b[j].1);
                s.dot += wa * wb;
                s.min_sum += wa.min(wb);
                s.shared += 1;
                s.shared_weight += wa + wb;
                i += 1;
                j += 1;
            }
        }
    }
    s
}

struct SideAggregates {
    norm: Vec<f64>,
    weight_sum: Vec<f64>,
    set_size: Vec<usize>,
}

fn aggregates(profiles: &[Profile]) -> SideAggregates {
    SideAggregates {
        norm: profiles.iter().map(|p| p.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt()).collect(),
        weight_sum: profiles.iter().map(|p| p.iter().map(|&(_, w)| w).sum()).collect(),
        set_size: profiles.iter().map(Vec::len).collect(),
    }
}

fn f1_counts(matches: &[(EntityId, EntityId)], gt: &DetHashSet<(EntityId, EntityId)>) -> (f64, f64, f64) {
    if matches.is_empty() || gt.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let tp = matches.iter().filter(|p| gt.contains(p)).count() as f64;
    let p = 100.0 * tp / matches.len() as f64;
    let r = 100.0 * tp / gt.len() as f64;
    let f1 = if p + r == 0.0 { 0.0 } else { 2.0 * p * r / (p + r) };
    (p, r, f1)
}

/// Runs the full 420-point grid search and returns the best configuration,
/// as the paper does for its BSL rows in Table 3.
pub fn grid_search(
    executor: &Executor,
    pair: &KbPair,
    token_blocks: &TokenBlocks,
    name_blocks: &NameBlocks,
    ground_truth: &[(EntityId, EntityId)],
) -> BslReport {
    let candidates = candidate_pairs(token_blocks, name_blocks);
    let gt: DetHashSet<(EntityId, EntityId)> = ground_truth.iter().copied().collect();
    let thresholds: Vec<f64> = (0..20).map(|i| i as f64 * 0.05).collect();

    type Best = Option<(BslConfig, Vec<(EntityId, EntityId)>, (f64, f64, f64))>;
    let mut best: Best = None;
    let mut evaluated = 0;

    for n in 1..=3 {
        let tf_l = tf_profiles(pair, Side::Left, n);
        let tf_r = tf_profiles(pair, Side::Right, n);
        // Document frequency across both KBs.
        let mut df: DetHashMap<u64, u32> = DetHashMap::default();
        for p in tf_l.iter().chain(tf_r.iter()) {
            for &(g, _) in p {
                *df.entry(g).or_insert(0) += 1;
            }
        }
        let corpus = (tf_l.len() + tf_r.len()) as f64;

        for weighting in [Weighting::Tf, Weighting::TfIdf] {
            let wl = weighted(&tf_l, weighting, &df, corpus);
            let wr = weighted(&tf_r, weighting, &df, corpus);
            let agg_l = aggregates(&wl);
            let agg_r = aggregates(&wr);

            // One parallel pass computes every measure for every candidate.
            let chunk = candidates.len().div_ceil(executor.partitions().max(1)).max(1);
            let n_tasks = candidates.len().div_ceil(chunk);
            let per_measure: Vec<Vec<Vec<(EntityId, EntityId, f64)>>> = executor.run_stage(
                &format!("bsl/sims/n{n}/{weighting:?}"),
                n_tasks,
                |t| {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(candidates.len());
                    let mut cos = Vec::new();
                    let mut jac = Vec::new();
                    let mut gen = Vec::new();
                    let mut sig = Vec::new();
                    for &(l, r) in &candidates[lo..hi] {
                        let (pl, pr) = (&wl[l.index()], &wr[r.index()]);
                        if pl.is_empty() || pr.is_empty() {
                            continue;
                        }
                        let s = merge_stats(pl, pr);
                        if s.shared == 0 {
                            continue;
                        }
                        let (nl, nr) = (agg_l.norm[l.index()], agg_r.norm[r.index()]);
                        if nl > 0.0 && nr > 0.0 {
                            cos.push((l, r, s.dot / (nl * nr)));
                        }
                        let union = agg_l.set_size[l.index()] + agg_r.set_size[r.index()] - s.shared;
                        jac.push((l, r, s.shared as f64 / union.max(1) as f64));
                        let (swl, swr) = (agg_l.weight_sum[l.index()], agg_r.weight_sum[r.index()]);
                        let max_sum = swl + swr - s.min_sum;
                        if max_sum > 0.0 {
                            gen.push((l, r, s.min_sum / max_sum));
                        }
                        if weighting == Weighting::TfIdf && swl + swr > 0.0 {
                            sig.push((l, r, s.shared_weight / (swl + swr)));
                        }
                    }
                    vec![cos, jac, gen, sig]
                },
            );

            let mut merged: [Vec<(EntityId, EntityId, f64)>; 4] = Default::default();
            for task in per_measure {
                for (m, sims) in task.into_iter().enumerate() {
                    merged[m].extend(sims);
                }
            }

            let measures: &[Measure] = if weighting == Weighting::TfIdf {
                &[Measure::Cosine, Measure::Jaccard, Measure::GeneralizedJaccard, Measure::Sigma]
            } else {
                &[Measure::Cosine, Measure::Jaccard, Measure::GeneralizedJaccard]
            };
            for (m, &measure) in measures.iter().enumerate() {
                let prefix = unique_mapping_prefix(std::mem::take(&mut merged[m]));
                for &threshold in &thresholds {
                    evaluated += 1;
                    let cut = prefix.partition_point(|&(_, _, s)| s >= threshold);
                    let matches: Vec<(EntityId, EntityId)> =
                        prefix[..cut].iter().map(|&(l, r, _)| (l, r)).collect();
                    let (p, r, f1) = f1_counts(&matches, &gt);
                    let better = best.as_ref().map(|(_, _, (_, _, bf))| f1 > *bf).unwrap_or(true);
                    if better {
                        best = Some((
                            BslConfig { ngram: n, weighting, measure, threshold },
                            matches,
                            (p, r, f1),
                        ));
                    }
                }
            }
        }
    }

    // The static grid always evaluates at least one configuration; if it
    // ever shrank to nothing, degrade to an empty report instead of
    // panicking mid-experiment.
    let Some((config, matches, (precision, recall, f1))) = best else {
        return BslReport {
            best: BslConfig {
                ngram: 0,
                weighting: Weighting::TfIdf,
                measure: Measure::Cosine,
                threshold: 0.0,
            },
            matches: Vec::new(),
            precision: 0.0,
            recall: 0.0,
            f1: 0.0,
            evaluated,
            candidates: candidates.len(),
        };
    };
    BslReport {
        best: config,
        matches,
        precision,
        recall,
        f1,
        evaluated,
        candidates: candidates.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoaner_blocking::name::build_name_blocks;
    use minoaner_blocking::token::build_token_blocks;
    use minoaner_kb::stats::NameStats;
    use minoaner_kb::{KbPairBuilder, Term};

    fn small_pair() -> (KbPair, Vec<(EntityId, EntityId)>) {
        let mut b = KbPairBuilder::new();
        let rows = [
            ("fatduck", "the fat duck bray michelin"),
            ("noma", "noma copenhagen nordic rene"),
            ("elbulli", "el bulli roses catalonia"),
        ];
        for (id, text) in rows {
            b.add_triple(Side::Left, &format!("l:{id}"), "p", Term::Literal(text));
            b.add_triple(Side::Right, &format!("r:{id}"), "q", Term::Literal(text));
        }
        let pair = b.finish();
        let gt = rows
            .iter()
            .map(|(id, _)| {
                let l = pair.kb(Side::Left).entity_by_uri(pair.uris().get(&format!("l:{id}")).unwrap()).unwrap();
                let r = pair.kb(Side::Right).entity_by_uri(pair.uris().get(&format!("r:{id}")).unwrap()).unwrap();
                (l, r)
            })
            .collect();
        (pair, gt)
    }

    #[test]
    fn candidate_pairs_dedup_across_blocks() {
        let (pair, _) = small_pair();
        let tb = build_token_blocks(&pair);
        let names = NameStats::compute(&pair, 1);
        let nb = build_name_blocks(&pair, &names);
        let cands = candidate_pairs(&tb, &nb);
        let set: DetHashSet<_> = cands.iter().collect();
        assert_eq!(set.len(), cands.len(), "no duplicates");
        assert!(cands.len() >= 3, "at least the identical pairs co-occur");
    }

    #[test]
    fn grid_search_is_perfect_on_identical_kbs() {
        let (pair, gt) = small_pair();
        let tb = build_token_blocks(&pair);
        let names = NameStats::compute(&pair, 1);
        let nb = build_name_blocks(&pair, &names);
        let exec = Executor::new(2);
        let report = grid_search(&exec, &pair, &tb, &nb, &gt);
        assert_eq!(report.f1, 100.0);
        assert_eq!(report.evaluated, 420, "the paper's 420-configuration grid");
        assert_eq!(report.matches.len(), 3);
    }

    #[test]
    fn ngram_profiles_respect_value_boundaries() {
        let mut b = KbPairBuilder::new();
        // "a b" and "b c" in separate values: bigram "b c" of the left
        // entity must NOT appear (ngrams don't span values).
        let e = b.entity(Side::Left, "l");
        b.add_pair(Side::Left, e, "p", Term::Literal("a b"));
        b.add_pair(Side::Left, e, "p", Term::Literal("c d"));
        b.add_triple(Side::Right, "r", "q", Term::Literal("b c"));
        let pair = b.finish();
        let left = tf_profiles(&pair, Side::Left, 2);
        let right = tf_profiles(&pair, Side::Right, 2);
        let shared = merge_stats(
            &left[0].iter().map(|&(g, c)| (g, c as f64)).collect::<Vec<_>>(),
            &right[0].iter().map(|&(g, c)| (g, c as f64)).collect::<Vec<_>>(),
        );
        assert_eq!(shared.shared, 0);
    }

    #[test]
    fn merge_stats_computes_expected_values() {
        let a: Profile = vec![(1, 2.0), (2, 1.0), (5, 3.0)];
        let b: Profile = vec![(2, 4.0), (5, 1.0), (9, 2.0)];
        let s = merge_stats(&a, &b);
        assert_eq!(s.shared, 2);
        assert!((s.dot - (1.0 * 4.0 + 3.0 * 1.0)).abs() < 1e-12);
        assert!((s.min_sum - (1.0 + 1.0)).abs() < 1e-12);
        assert!((s.shared_weight - (1.0 + 4.0 + 3.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn tfidf_downweights_ubiquitous_grams() {
        let mut b = KbPairBuilder::new();
        for i in 0..4 {
            b.add_triple(Side::Left, &format!("l{i}"), "p", Term::Literal("common"));
        }
        b.add_triple(Side::Left, "l9", "p", Term::Literal("common rare"));
        b.add_triple(Side::Right, "r", "p", Term::Literal("common rare"));
        let pair = b.finish();
        let tf = tf_profiles(&pair, Side::Left, 1);
        let mut df: DetHashMap<u64, u32> = DetHashMap::default();
        for p in tf.iter().chain(tf_profiles(&pair, Side::Right, 1).iter()) {
            for &(g, _) in p {
                *df.entry(g).or_insert(0) += 1;
            }
        }
        let w = weighted(&tf, Weighting::TfIdf, &df, 6.0);
        // l9's profile: "common" (df 7) ≈ 0 weight, "rare" (df 2) > 0.
        let l9 = &w[4];
        let weights: Vec<f64> = l9.iter().map(|&(_, w)| w).collect();
        assert!(weights.iter().any(|&x| x > 0.5));
        assert!(weights.iter().any(|&x| x < 0.1));
    }
}
