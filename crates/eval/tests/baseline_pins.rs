//! Pins the output of the baseline analogues and of the statistics the
//! paper's tables and figures read, so a change to their code cannot move
//! a Table 2 or Table 3 row or the Figure 2 scatter unnoticed:
//!
//! * PARIS, SiGMa, LINDA and RiMOM (each at its one setting) on a small
//!   `restaurant` dataset by match count and F1, and on all four profiles
//!   at scale 0.15 by match count and the checksum of the sorted match
//!   list; BSL there too, and by its best configuration;
//! * Table 2's blocking recall and precision on every profile (the
//!   `blocking::stats::co_occur` path);
//! * the bits of every Figure 2 point on one profile (the
//!   `kb::stats::value_sim` path).
//!
//! The baselines are called directly, not through `run_system`, so the
//! pins do not depend on the harness's signature.

use minoaner_baselines::{grid_search, run_linda, run_paris, run_rimom, run_sigma};
use minoaner_blocking::name::build_name_blocks;
use minoaner_blocking::purge::purge_blocks;
use minoaner_blocking::token::build_token_blocks;
use minoaner_dataflow::Executor;
use minoaner_datagen::profiles::{self, all_profiles};
use minoaner_datagen::GeneratedDataset;
use minoaner_eval::figures::fig2_points;
use minoaner_eval::tables::table2;
use minoaner_eval::{dataset_at_scale, Quality};
use minoaner_kb::stats::NameStats;
use minoaner_kb::{EntityId, KbPair, Side};

type Matches = Vec<(EntityId, EntityId)>;
type Baseline = fn(&Executor, &KbPair) -> Matches;

/// The four baselines that run at one setting, by Table 3 name.
fn one_setting_baselines() -> [(&'static str, Baseline); 4] {
    [("PARIS", run_paris), ("SiGMa", run_sigma), ("LINDA", run_linda), ("RiMOM", run_rimom)]
}

/// BSL's grid search as the harness runs it: purged token blocks and name
/// blocks over the two most distinctive name attributes.
fn run_bsl(executor: &Executor, dataset: &GeneratedDataset) -> (Matches, String) {
    let pair = &dataset.pair;
    let mut tb = build_token_blocks(pair);
    purge_blocks(&mut tb, pair.kb(Side::Left).len() + pair.kb(Side::Right).len());
    let names = NameStats::compute(pair, 2);
    let nb = build_name_blocks(pair, &names);
    let report = grid_search(executor, pair, &tb, &nb, &dataset.ground_truth);
    let best = report.best;
    let config = format!("{}-grams {:?} {:?} t={:.2}", best.ngram, best.weighting, best.measure, best.threshold);
    (report.matches, config)
}

/// `minoaner_det::checksum` of the match list sorted, each pair as two
/// little-endian `u32`s.
fn match_checksum(mut matches: Matches) -> u64 {
    matches.sort_unstable();
    let bytes: Vec<u8> = matches
        .iter()
        .flat_map(|&(l, r)| l.0.to_le_bytes().into_iter().chain(r.0.to_le_bytes()))
        .collect();
    minoaner_det::checksum(&bytes)
}

#[test]
fn baselines_are_pinned_on_restaurant() {
    let dataset = dataset_at_scale(&profiles::restaurant(), 0.3);
    let executor = Executor::new(2);
    let pinned = [
        ("PARIS", 26, "94.3396"),
        ("SiGMa", 33, "90.0000"),
        ("LINDA", 31, "93.1034"),
        ("RiMOM", 27, "100.0000"),
    ];
    for ((name, run), (pinned_name, matches, f1)) in one_setting_baselines().into_iter().zip(pinned) {
        assert_eq!(name, pinned_name);
        let found = run(&executor, &dataset.pair);
        let quality = Quality::evaluate(&found, &dataset.ground_truth);
        assert_eq!((found.len(), format!("{:.4}", quality.f1)), (matches, f1.to_owned()), "{name} moved");
    }
}

/// Each baseline's match count and sorted-match checksum on every profile
/// at scale 0.15, in `all_profiles` order and PARIS, SiGMa, LINDA, RiMOM,
/// BSL order within a profile.
const MATCHES_AT_0_15: [(&str, &str, usize, u64); 20] = [
    ("Restaurant", "PARIS", 13, 7177438070473832409),
    ("Restaurant", "SiGMa", 15, 3948703081403186836),
    ("Restaurant", "LINDA", 15, 3948703081403186836),
    ("Restaurant", "RiMOM", 13, 7177438070473832409),
    ("Restaurant", "BSL", 13, 7177438070473832409),
    ("Rexa-DBLP", "PARIS", 156, 8720651931798876311),
    ("Rexa-DBLP", "SiGMa", 154, 4890424328786634885),
    ("Rexa-DBLP", "LINDA", 159, 16085784118089631289),
    ("Rexa-DBLP", "RiMOM", 174, 12562654528867434816),
    ("Rexa-DBLP", "BSL", 152, 12396096497092735281),
    ("BBCmusic-DBpedia", "PARIS", 228, 14670053211702042280),
    ("BBCmusic-DBpedia", "SiGMa", 351, 5731640203534510680),
    ("BBCmusic-DBpedia", "LINDA", 285, 13242610246643054912),
    ("BBCmusic-DBpedia", "RiMOM", 291, 8931977544948223033),
    ("BBCmusic-DBpedia", "BSL", 279, 4127825868275690552),
    ("YAGO-IMDb", "PARIS", 424, 5950950421469415486),
    ("YAGO-IMDb", "SiGMa", 464, 4011775193524457326),
    ("YAGO-IMDb", "LINDA", 393, 3026486175236301704),
    ("YAGO-IMDb", "RiMOM", 455, 3283025568622436507),
    ("YAGO-IMDb", "BSL", 423, 15622906374483464279),
];

/// BSL's best configuration on every profile at scale 0.15.
const BSL_BEST_AT_0_15: [(&str, &str); 4] = [
    ("Restaurant", "1-grams Tf Jaccard t=0.30"),
    ("Rexa-DBLP", "1-grams TfIdf GeneralizedJaccard t=0.30"),
    ("BBCmusic-DBpedia", "1-grams TfIdf GeneralizedJaccard t=0.15"),
    ("YAGO-IMDb", "1-grams TfIdf Cosine t=0.30"),
];

#[test]
fn baselines_are_pinned_on_every_profile() {
    let executor = Executor::new(2);
    let mut got = Vec::new();
    let mut bsl_best = Vec::new();
    for profile in all_profiles() {
        let dataset = dataset_at_scale(&profile, 0.15);
        let name = profile.name.clone();
        for (system, run) in one_setting_baselines() {
            let found = run(&executor, &dataset.pair);
            got.push((name.clone(), system, found.len(), match_checksum(found)));
        }
        let (found, config) = run_bsl(&executor, &dataset);
        got.push((name.clone(), "BSL", found.len(), match_checksum(found)));
        bsl_best.push((name, config));
    }
    let expected: Vec<_> = MATCHES_AT_0_15.iter().map(|&(d, s, n, c)| (d.to_owned(), s, n, c)).collect();
    assert_eq!(got, expected);
    let expected: Vec<_> = BSL_BEST_AT_0_15.iter().map(|&(d, c)| (d.to_owned(), c.to_owned())).collect();
    assert_eq!(bsl_best, expected);
}

/// Table 2's blocking recall and precision bits on every profile at scale
/// 0.15.
const TABLE2_AT_0_15: [(&str, u64, u64); 4] = [
    ("Restaurant", 4636737291354636288, 4589223917973912376),
    ("Rexa-DBLP", 4636737291354636288, 4588938056715721339),
    ("BBCmusic-DBpedia", 4636549641370162517, 4596528810026087272),
    ("YAGO-IMDb", 4636455816377925632, 4603496177424677068),
];

#[test]
fn table2_recall_and_precision_are_pinned() {
    let (rows, _) = table2(0.15);
    let got: Vec<_> =
        rows.iter().map(|r| (r.dataset.clone(), r.stats.recall.to_bits(), r.stats.precision.to_bits())).collect();
    let expected: Vec<_> = TABLE2_AT_0_15.iter().map(|&(d, r, p)| (d.to_owned(), r, p)).collect();
    assert_eq!(got, expected);
}

#[test]
fn fig2_points_are_pinned_on_rexa() {
    let dataset = dataset_at_scale(&profiles::rexa_dblp(), 0.15);
    let points = fig2_points(&dataset, 3);
    let bytes: Vec<u8> = points
        .iter()
        .flat_map(|p| p.value_sim.to_bits().to_le_bytes().into_iter().chain(p.neighbor_sim.to_bits().to_le_bytes()))
        .collect();
    assert_eq!((points.len(), minoaner_det::checksum(&bytes)), (150, 14835523320286219541));
}
