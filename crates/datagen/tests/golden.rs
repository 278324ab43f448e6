//! The generated datasets, byte for byte: for each profile, an FNV-1a
//! checksum of the left and right `write_ntriples` documents and of the
//! ground truth written as `left-uri <TAB> right-uri` lines (the benchmark's
//! `gt.tsv`). Every pinned `graph_digest` and quality figure follows from
//! these bytes, so a change to the generator, the RNG stream or the writer
//! that moves one byte fails here first.
//!
//! The small-scale cases run in every profile; the benchmark's own inputs
//! (bbc × 3 and yago × 8, seeds 0 and 7) take seconds in a debug build and
//! run only under `--release`.

use minoaner_datagen::{generate, profiles, DatasetProfile};
use minoaner_kb::parser::write_ntriples;
use minoaner_kb::Side;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// What a dataset's bytes are pinned to: the `[left document, right
/// document, ground truth]` checksums and the ground-truth pair count.
type Pinned = ([u64; 3], usize);

/// The [`Pinned`] figures of `profile` scaled by `scale`, its seed xored
/// with `seed` (as the benchmark derives its inputs).
fn checksums(profile: DatasetProfile, scale: f64, seed: u64) -> Pinned {
    let mut profile = profile.scaled(scale);
    profile.seed ^= seed;
    let d = generate(&profile);
    let mut gt = String::new();
    for &(l, r) in &d.ground_truth {
        gt.push_str(d.pair.uri_of(Side::Left, l));
        gt.push('\t');
        gt.push_str(d.pair.uri_of(Side::Right, r));
        gt.push('\n');
    }
    let docs = [write_ntriples(&d.pair, Side::Left), write_ntriples(&d.pair, Side::Right), gt];
    (docs.map(|doc| fnv1a(doc.as_bytes())), d.ground_truth.len())
}

/// Generates every case `(name, profile, scale, seed, pinned)`, then fails
/// naming each one whose bytes moved.
fn assert_pinned<const N: usize>(cases: [(&str, DatasetProfile, f64, u64, Pinned); N]) {
    let hex = |sums: [u64; 3]| sums.map(|s| format!("{s:016x}")).join(" / ");
    let moved: Vec<String> = cases
        .into_iter()
        .filter_map(|(name, profile, scale, seed, want)| {
            let got = checksums(profile, scale, seed);
            (got != want).then(|| {
                format!(
                    "{name}: left / right / ground truth {} ({} pairs), pinned {} ({} pairs)",
                    hex(got.0),
                    got.1,
                    hex(want.0),
                    want.1
                )
            })
        })
        .collect();
    assert!(moved.is_empty(), "generated bytes moved:\n{}", moved.join("\n"));
}

#[rustfmt::skip]
#[test]
fn every_profile_writes_its_pinned_bytes() {
    assert_pinned([
        ("restaurant × 1", profiles::restaurant(), 1.0, 0,
            ([0x3bf5_ff16_5e3e_bf9c, 0xde6b_4c78_770e_376d, 0xe8c3_2f0b_1bd6_1a8b], 89)),
        ("rexa × 0.1", profiles::rexa_dblp(), 0.1, 0,
            ([0x9c56_94cb_4b3f_1223, 0x0895_0646_f0db_e2be, 0x8645_9aaf_a67b_cc4b], 100)),
        ("bbc × 0.1", profiles::bbc_dbpedia(), 0.1, 0,
            ([0x57b0_97aa_7731_ce4a, 0x0449_73b8_e018_188d, 0x86ef_cf41_539a_b6cf], 200)),
        ("yago × 0.3", profiles::yago_imdb(), 0.3, 0,
            ([0x1956_73d9_f597_e3a2, 0xed59_23c7_2b70_225e, 0xf9ae_4583_3237_f6cb], 900)),
    ]);
}

#[cfg(not(debug_assertions))]
#[rustfmt::skip]
#[test]
fn the_benchmark_inputs_are_pinned() {
    assert_pinned([
        ("bbc × 3, seed 0", profiles::bbc_dbpedia(), 3.0, 0,
            ([0x847d_82b5_6aaf_1d81, 0x4ce0_6a3d_8b29_63ed, 0x0423_cdda_7d84_979f], 6_000)),
        ("bbc × 3, seed 7", profiles::bbc_dbpedia(), 3.0, 7,
            ([0x2f23_f371_a331_534a, 0x7d42_9c97_cfe5_000e, 0x0423_cdda_7d84_979f], 6_000)),
        ("yago × 8, seed 0", profiles::yago_imdb(), 8.0, 0,
            ([0xae0f_a854_d2f7_0996, 0xf9f9_ecc7_112a_de95, 0x38d7_bdaa_47f5_4a4f], 24_000)),
        ("yago × 8, seed 7", profiles::yago_imdb(), 8.0, 7,
            ([0xce77_b1f0_41da_5052, 0xda6e_7ea6_cadd_5f47, 0x38d7_bdaa_47f5_4a4f], 24_000)),
    ]);
}
