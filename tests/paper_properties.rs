//! Integration tests asserting the paper's *qualitative claims* — the
//! shape of the evaluation — on the generated benchmark analogues:
//!
//! * MinoanER is at least competitive everywhere and clearly best on the
//!   high-Variety pair (§6.1, Table 3);
//! * R1 is high-precision with moderate recall on every dataset (Table 4);
//! * neighbor evidence matters on nearly-similar data and is negligible on
//!   strongly-similar data (Table 4, "contribution of neighbors");
//! * θ < 0.5 hurts the nearly-similar datasets (Figure 5);
//! * the pipeline is robust to small parameter perturbations (Figure 5).

use minoaner::datagen::{generate, profiles, GeneratedDataset};
use minoaner::eval::harness::run_ablation;
use minoaner::eval::{run_system, Quality, SystemId};
use minoaner::{Executor, MinoanerConfig, RuleSet};

/// The pipeline under `cfg` with the matching rules `rules` (Table 4's
/// composition of the public stages), scored.
fn resolve_f1(exec: &Executor, d: &GeneratedDataset, cfg: MinoanerConfig, rules: RuleSet) -> Quality {
    run_ablation(exec, d, rules, cfg).0
}

#[test]
fn minoaner_wins_clearly_on_the_high_variety_pair() {
    // Table 3's headline: on BBCmusic-DBpedia MinoanER outperforms every
    // baseline by a wide margin.
    let d = generate(&profiles::bbc_dbpedia().scaled(0.4));
    let exec = Executor::default();
    let ours = run_system(&exec, &d, SystemId::Minoaner).expect("resolves").quality.f1;
    for baseline in [SystemId::Bsl, SystemId::Paris, SystemId::Sigma, SystemId::Rimom] {
        let theirs = run_system(&exec, &d, baseline).expect("resolves").quality.f1;
        assert!(
            ours > theirs,
            "MinoanER ({ours:.1}) must beat {} ({theirs:.1}) on the high-Variety pair",
            baseline.name()
        );
    }
}

#[test]
fn r1_is_high_precision_moderate_recall_everywhere() {
    // Table 4: R1 precision > 97% and recall > 66% on all four datasets;
    // small scales cost some recall, so the floors are slightly relaxed.
    let exec = Executor::new(2);
    for p in profiles::all_profiles() {
        // Half scale: small ground truths make precision noisy (one false
        // pair on a 27-match GT is already ~4%).
        let d = generate(&p.scaled(0.5));
        let q = resolve_f1(&exec, &d, MinoanerConfig::default(), RuleSet::R1_ONLY);
        assert!(q.precision > 88.0, "{}: R1 precision {}", p.name, q.precision);
        assert!(q.recall > 40.0, "{}: R1 recall {}", p.name, q.recall);
        assert!(q.recall < 99.0, "{}: R1 alone should not resolve everything", p.name);
    }
}

#[test]
fn neighbor_evidence_matters_exactly_where_the_paper_says() {
    let exec = Executor::default();
    // Nearly-similar datasets: dropping R3 costs noticeable recall.
    for profile in [profiles::bbc_dbpedia().scaled(0.4), profiles::yago_imdb().scaled(0.4)] {
        let d = generate(&profile);
        let full = resolve_f1(&exec, &d, MinoanerConfig::default(), RuleSet::FULL);
        let blind = resolve_f1(&exec, &d, MinoanerConfig::default(), RuleSet::NO_NEIGHBORS);
        assert!(
            full.recall > blind.recall + 2.0,
            "{}: neighbor evidence should add recall (full {} vs blind {})",
            profile.name,
            full.recall,
            blind.recall
        );
    }
    // Strongly-similar dataset: the effect is minor.
    let d = generate(&profiles::rexa_dblp().scaled(0.25));
    let full = resolve_f1(&exec, &d, MinoanerConfig::default(), RuleSet::FULL);
    let blind = resolve_f1(&exec, &d, MinoanerConfig::default(), RuleSet::NO_NEIGHBORS);
    assert!(
        (full.f1 - blind.f1).abs() < 8.0,
        "Rexa-DBLP: neighbor evidence plays a minor role (full {} vs blind {})",
        full.f1,
        blind.f1
    );
}

#[test]
fn low_theta_hurts_nearly_similar_datasets() {
    // Figure 5: θ < 0.5 under-weights value evidence and F1 drops on the
    // nearly-similar pairs.
    let exec = Executor::default();
    let d = generate(&profiles::yago_imdb().scaled(0.3));
    let at = |theta: f64| {
        let cfg = MinoanerConfig { theta, ..MinoanerConfig::default() };
        resolve_f1(&exec, &d, cfg, RuleSet::FULL).f1
    };
    let low = at(0.3);
    let default = at(0.6);
    assert!(
        default >= low,
        "θ=0.6 ({default:.1}) should be at least as good as θ=0.3 ({low:.1}) on YAGO-IMDb"
    );
}

#[test]
fn configuration_is_robust_to_small_perturbations() {
    // Figure 5's main finding: small changes in one parameter barely move
    // F1 (the four rules compensate for each other).
    let exec = Executor::default();
    let d = generate(&profiles::rexa_dblp().scaled(0.2));
    let base = resolve_f1(&exec, &d, MinoanerConfig::default(), RuleSet::FULL).f1;
    for cfg in [
        MinoanerConfig { top_k: 10, ..MinoanerConfig::default() },
        MinoanerConfig { top_k: 20, ..MinoanerConfig::default() },
        MinoanerConfig { n_relations: 2, ..MinoanerConfig::default() },
        MinoanerConfig { n_relations: 4, ..MinoanerConfig::default() },
        MinoanerConfig { theta: 0.5, ..MinoanerConfig::default() },
        MinoanerConfig { theta: 0.7, ..MinoanerConfig::default() },
    ] {
        let f1 = resolve_f1(&exec, &d, cfg, RuleSet::FULL).f1;
        assert!(
            (f1 - base).abs() < 6.0,
            "perturbation {cfg:?} moved F1 from {base:.1} to {f1:.1}"
        );
    }
}

#[test]
fn rules_compose_monotonically_into_the_full_workflow() {
    // The full workflow should not be worse than its strongest single rule
    // by more than a small margin on any dataset (rules cover for each
    // other, §6.1).
    let exec = Executor::default();
    for p in profiles::all_profiles() {
        let d = generate(&p.scaled(0.4));
        let full = resolve_f1(&exec, &d, MinoanerConfig::default(), RuleSet::FULL).f1;
        for rules in [RuleSet::R1_ONLY, RuleSet::R2_ONLY] {
            let single = resolve_f1(&exec, &d, MinoanerConfig::default(), rules).f1;
            assert!(
                full + 12.0 >= single,
                "{}: full workflow ({full:.1}) far below a single rule ({single:.1})",
                p.name
            );
        }
    }
}
