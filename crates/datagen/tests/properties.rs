//! Property tests for the dataset generator: structural validity of the
//! ground truth, determinism (the same documents, byte for byte), and
//! scaling behaviour for arbitrary scales and seeds.

use minoaner_datagen::{generate, profiles};
use minoaner_det::rng::for_each_seed;
use minoaner_kb::parser::write_ntriples;
use minoaner_kb::Side;

#[test]
fn ground_truth_is_valid_for_any_scale_and_seed() {
    for_each_seed(24, |rng| {
        let scale = 0.05 + 0.35 * rng.next_f64();
        let seed = rng.gen_range(0..1000u64);
        let mut profile = profiles::all_profiles().swap_remove(rng.gen_range(0..4usize));
        profile.seed = seed;
        let d = generate(&profile.scaled(scale));
        // Counts line up with the scaled profile.
        let p = profile.scaled(scale);
        assert_eq!(d.pair.kb(Side::Left).len(), p.left_entities());
        assert_eq!(d.pair.kb(Side::Right).len(), p.right_entities());
        assert_eq!(d.ground_truth.len(), p.matches);
        // Ground truth is a valid partial 1-1 mapping.
        let mut ls: Vec<_> = d.ground_truth.iter().map(|&(l, _)| l).collect();
        let mut rs: Vec<_> = d.ground_truth.iter().map(|&(_, r)| r).collect();
        let (nl, nr) = (ls.len(), rs.len());
        ls.sort_unstable();
        ls.dedup();
        rs.sort_unstable();
        rs.dedup();
        assert_eq!(nl, ls.len());
        assert_eq!(nr, rs.len());
        for &(l, r) in &d.ground_truth {
            assert!(l.index() < d.pair.kb(Side::Left).len());
            assert!(r.index() < d.pair.kb(Side::Right).len());
        }
    });
}

#[test]
fn generation_is_deterministic_for_any_seed() {
    for_each_seed(24, |rng| {
        let mut profile = profiles::restaurant().scaled(0.2);
        profile.seed = rng.gen_range(0..1000u64);
        let a = generate(&profile);
        let b = generate(&profile);
        assert_eq!(a.ground_truth, b.ground_truth);
        for side in [Side::Left, Side::Right] {
            assert_eq!(write_ntriples(&a.pair, side), write_ntriples(&b.pair, side), "{side:?}");
        }
        assert_eq!(a.pair.token_space(), b.pair.token_space());
    });
}

#[test]
fn bigger_scale_means_bigger_dataset() {
    for_each_seed(24, |rng| {
        let small = 0.05 + 0.15 * rng.next_f64();
        let factor = 1.5 + 1.5 * rng.next_f64();
        let p = profiles::yago_imdb();
        let a = generate(&p.scaled(small));
        let b = generate(&p.scaled(small * factor));
        assert!(b.pair.kb(Side::Left).len() > a.pair.kb(Side::Left).len());
        assert!(b.ground_truth.len() > a.ground_truth.len());
    });
}

#[test]
fn every_entity_has_at_least_one_triple() {
    for_each_seed(24, |rng| {
        let seed = rng.gen_range(0..200u64);
        let mut profile = profiles::all_profiles().swap_remove(rng.gen_range(0..4usize));
        profile.seed = seed;
        let d = generate(&profile.scaled(0.1));
        for side in [Side::Left, Side::Right] {
            for (id, e) in d.pair.kb(side).iter() {
                assert!(e.triple_count() > 0, "{side:?} {id:?} is empty");
            }
        }
    });
}
