//! `.mkb` container integration tests: corruption must fail closed with
//! typed errors (mirroring the crash-recovery harness's posture for
//! checkpoints), and compile → mmap → materialize must be an *identity* —
//! every interned string, id, pair and token row of the materialized pair
//! equal to the heap-built pair it was compiled from.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use minoaner_det::rng::{for_each_seed, Rng};
use minoaner_kb::parser::{load_ntriples, write_ntriples};
use minoaner_kb::{
    write_mkb, KbPair, KbPairBuilder, LiteralId, MkbError, MkbFile, Side, Term, MKB_FORMAT_VERSION,
};

/// A scratch file path that is unique per test without consulting any
/// entropy source (pid + a process-local counter).
fn scratch_mkb(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("minoaner-mkb-{}-{tag}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join("pair.mkb")
}

fn sample_pair() -> KbPair {
    let mut b = KbPairBuilder::new();
    b.add_triple(Side::Left, "w:R1", "w:label", Term::Literal("The Fat Duck"));
    b.add_triple(Side::Left, "w:R1", "w:hasChef", Term::Uri("w:C1"));
    b.add_triple(Side::Left, "w:C1", "w:label", Term::Literal("Jonny Lake"));
    b.add_triple(Side::Left, "w:C1", "w:born", Term::Literal("1978"));
    b.add_triple(Side::Right, "d:R2", "d:name", Term::Literal("Fat Duck (Bray)"));
    b.add_triple(Side::Right, "d:R2", "d:headChef", Term::Uri("d:C2"));
    b.add_triple(Side::Right, "d:C2", "d:name", Term::Literal("Jonny Lake"));
    b.finish()
}

fn compile(pair: &KbPair, tag: &str) -> PathBuf {
    let path = scratch_mkb(tag);
    write_mkb(pair, &path).expect("compile succeeds");
    path
}

/// Asserts that the pair a file materializes to is the pair it was compiled
/// from, table by table: the four interners string by string, every
/// literal's token sequence, and per side every entity's uri, pairs, token
/// set and occurrence count.
fn assert_pairs_identical(heap: &KbPair, back: &KbPair) {
    assert_eq!(heap.is_dirty(), back.is_dirty());
    let interners = [
        (heap.tokens(), back.tokens()),
        (heap.literals(), back.literals()),
        (heap.attrs(), back.attrs()),
        (heap.uris(), back.uris()),
    ];
    for (which, (h, b)) in interners.into_iter().enumerate() {
        assert_eq!(h.len(), b.len(), "interner {which}");
        assert!(h.iter().eq(b.iter()), "interner {which}");
        assert!(h.iter().all(|(sym, s)| b.get(s) == Some(sym)), "interner {which} lookup");
    }
    for l in 0..heap.literal_space() {
        let lit = LiteralId(u32::try_from(l).expect("test KBs are small"));
        assert_eq!(heap.literal_token_seq(lit), back.literal_token_seq(lit), "literal {l}");
    }
    for side in [Side::Left, Side::Right] {
        let (h, b) = (heap.kb(side), back.kb(side));
        assert_eq!(h.len(), b.len(), "{side:?} count");
        assert_eq!(h.triple_count(), b.triple_count(), "{side:?} triples");
        for (id, e) in h.iter() {
            let got = b.entity(id);
            assert_eq!((e.uri, e.pairs), (got.uri, got.pairs), "{side:?} {id:?}");
            assert_eq!(h.tokens_of(id), b.tokens_of(id), "{side:?} {id:?}");
            assert_eq!(h.token_occurrences_of(id), b.token_occurrences_of(id), "{side:?} {id:?}");
            assert_eq!(b.entity_by_uri(e.uri), Some(id), "{side:?} {id:?}");
        }
    }
}

#[test]
fn compile_open_materialize_is_an_identity() {
    let pair = sample_pair();
    let path = compile(&pair, "roundtrip");
    let file = MkbFile::open(&path).expect("open succeeds");
    file.verify().expect("checksums hold");

    let back = file.to_pair().expect("materialize succeeds");
    assert_pairs_identical(&pair, &back);
    for side in [Side::Left, Side::Right] {
        // Rendering both pairs re-derives every uri, attribute and
        // literal through the interners — identical output means the
        // materialized pair is the compiled pair, not an equivalent one.
        assert_eq!(write_ntriples(&pair, side), write_ntriples(&back, side));
        assert_eq!(pair.kb(side).triple_count(), back.kb(side).triple_count());
    }
    assert_eq!(pair.token_space(), back.token_space());
    assert_eq!(pair.literal_space(), back.literal_space());
    assert_eq!(pair.attr_space(), back.attr_space());
}

/// A file checked in under `tests/fixtures/`.
fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// The pair `tests/fixtures/parent_{left,right}.nt` describe.
fn fixture_pair() -> KbPair {
    let mut b = KbPairBuilder::new();
    for (side, name) in [(Side::Left, "parent_left.nt"), (Side::Right, "parent_right.nt")] {
        let doc = std::fs::read_to_string(fixture(name)).expect("read fixture document");
        load_ntriples(&mut b, side, &doc).expect("fixture document parses");
    }
    b.finish()
}

/// Compiling what a file materializes to gives the file back, byte for
/// byte: the in-memory tables and the sections are the same columns.
#[test]
fn recompiling_a_materialized_file_is_byte_identical() {
    for (pair, tag) in [(sample_pair(), "recompile-sample"), (fixture_pair(), "recompile-fixture")] {
        let first = compile(&pair, tag);
        let back = MkbFile::open(&first).expect("open succeeds").to_pair().expect("materialize succeeds");
        let second = compile(&back, tag);
        assert_eq!(
            std::fs::read(&first).expect("read first"),
            std::fs::read(&second).expect("read second"),
            "{tag}"
        );
    }
}

/// `parent_v2.mkb` was compiled from the two fixture documents by the
/// commit that moved the format to version 2 (little-endian). That file
/// opens, re-serializes to itself, and is what this build compiles from
/// the same text.
#[test]
fn the_golden_file_is_still_the_format() {
    if cfg!(target_endian = "big") {
        return; // `foreign_endianness_is_rejected` covers what happens instead
    }
    let golden = std::fs::read(fixture("parent_v2.mkb")).expect("read fixture container");

    let file = MkbFile::open(&fixture("parent_v2.mkb")).expect("the golden file opens");
    file.verify().expect("checksums hold");
    let back = file.to_pair().expect("materialize succeeds");
    assert_pairs_identical(&fixture_pair(), &back);
    let reserialized = compile(&back, "golden-reserialize");
    assert_eq!(std::fs::read(&reserialized).expect("read"), golden, "open → to_pair → write_mkb");

    let recompiled = compile(&fixture_pair(), "golden-recompile");
    assert_eq!(std::fs::read(&recompiled).expect("read"), golden, "text → builder → write_mkb");
}

/// `parent_v1.mkb` is the same pair in format version 1 — the same layout
/// under FNV-1a section checksums. There is one reader: the file is refused
/// by version, before any checksum is compared, and only its table differs
/// from the golden version-2 file.
#[test]
fn a_version_1_file_is_refused_with_the_typed_error() {
    if cfg!(target_endian = "big") {
        return;
    }
    match MkbFile::open(&fixture("parent_v1.mkb")) {
        Err(MkbError::SchemaMismatch { found: 1, expected: 2 }) => {}
        other => panic!("expected SchemaMismatch {{ found: 1, expected: 2 }}, got {other:?}"),
    }
    let v1 = std::fs::read(fixture("parent_v1.mkb")).expect("read the version-1 fixture");
    let v2 = std::fs::read(fixture("parent_v2.mkb")).expect("read the golden file");
    // Header (32 B) + 13 table entries (32 B each): the payloads follow.
    let payloads = 32 + 13 * 32;
    assert_eq!(v1.len(), v2.len());
    assert_eq!(v1[payloads..], v2[payloads..], "the sections themselves did not change");
}

#[test]
fn truncated_files_fail_closed() {
    let pair = sample_pair();
    let path = compile(&pair, "truncate");
    let full = std::fs::read(&path).expect("read container");

    // Every truncation point is rejected as a typed structural error:
    // below the header, mid section table, and mid data.
    for keep in [0usize, 7, 31, 100, full.len() / 2, full.len() - 1] {
        std::fs::write(&path, &full[..keep.min(full.len())]).expect("write truncated");
        match MkbFile::open(&path) {
            Err(MkbError::Corrupt { .. }) => {}
            other => panic!("truncation to {keep} bytes: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn bit_flipped_payload_fails_checksum() {
    let pair = sample_pair();
    let path = compile(&pair, "bitflip");
    let mut bytes = std::fs::read(&path).expect("read container");

    // Section 1 (token arena) per the on-disk table: entry 0 at offset
    // 32, its payload offset at +8 — flip one bit of the payload's last
    // byte, the farthest spot from anything `open` validates.
    let off = u64::from_ne_bytes(bytes[40..48].try_into().expect("8 bytes")) as usize;
    let len = u64::from_ne_bytes(bytes[48..56].try_into().expect("8 bytes")) as usize;
    bytes[off + len - 1] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write corrupted");

    // `open` is structural-only and may or may not notice; `verify` (and
    // therefore `to_pair`) must refuse with a typed checksum failure.
    if let Ok(file) = MkbFile::open(&path) {
        match file.verify() {
            Err(MkbError::Corrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "unexpected detail: {detail}")
            }
            other => panic!("expected checksum Corrupt, got {other:?}"),
        }
        match file.to_pair() {
            Err(MkbError::Corrupt { .. }) => {}
            other => panic!("to_pair must fail closed, got {other:?}"),
        }
    }
}

#[test]
fn foreign_endianness_is_rejected() {
    let pair = sample_pair();
    let path = compile(&pair, "endian");
    let mut bytes = std::fs::read(&path).expect("read container");

    // Byte-swap the endianness tag at header offset 12 — exactly what the
    // file would look like opened on a machine of the other endianness.
    bytes[12..16].reverse();
    std::fs::write(&path, &bytes).expect("write swapped");

    match MkbFile::open(&path) {
        Err(MkbError::EndianMismatch { found }) => {
            assert_ne!(found, 0x0102_0304, "tag must have actually changed")
        }
        other => panic!("expected EndianMismatch, got {other:?}"),
    }
}

#[test]
fn future_format_version_is_rejected() {
    let pair = sample_pair();
    let path = compile(&pair, "version");
    let mut bytes = std::fs::read(&path).expect("read container");

    let bumped = MKB_FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&bumped.to_ne_bytes());
    std::fs::write(&path, &bytes).expect("write bumped");

    match MkbFile::open(&path) {
        Err(MkbError::SchemaMismatch { found, expected }) => {
            assert_eq!(found, bumped);
            assert_eq!(expected, MKB_FORMAT_VERSION);
        }
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }
}

#[test]
fn non_mkb_bytes_are_rejected() {
    let path = scratch_mkb("garbage");
    std::fs::write(&path, b"<w:R1> <w:label> \"not a container\" .\n").expect("write");
    match MkbFile::open(&path) {
        Err(MkbError::Corrupt { detail, .. }) => {
            assert!(detail.contains("magic") || detail.contains("header"), "got {detail}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    match MkbFile::open(&path.with_extension("missing")) {
        Err(MkbError::Io { .. }) => {}
        other => panic!("missing file is Io, got {other:?}"),
    }
}

/// The property behind `interners_and_token_sets_round_trip` and the
/// hand-picked samples below.
fn check_interner_round_trip(
    left: &[(String, String, String)],
    right: &[(String, String, String)],
    links: &[(usize, usize)],
) {
    let mut b = KbPairBuilder::new();
    for (s, p, o) in left {
        b.add_triple(Side::Left, &format!("l:{s}"), &format!("a:{p}"), Term::Literal(o));
    }
    for (s, p, o) in right {
        b.add_triple(Side::Right, &format!("r:{s}"), &format!("a:{p}"), Term::Literal(o));
    }
    for &(i, j) in links {
        let (s, _, _) = &left[i % left.len()];
        let (t, _, _) = &right[j % right.len()];
        b.add_triple(Side::Left, &format!("l:{s}"), "a:rel", Term::Uri(&format!("l:x{t}")));
    }
    let pair = b.finish();
    let path = compile(&pair, "prop");
    let back = MkbFile::open(&path).expect("open succeeds").to_pair().expect("materialize succeeds");
    assert_pairs_identical(&pair, &back);
    let _ = std::fs::remove_dir_all(path.parent().expect("scratch dir"));
}

/// Hand-picked adversarial inputs for the round-trip property: unicode
/// and empty literals, repeated subjects, dangling link targets.
#[test]
fn interner_round_trip_deterministic_samples() {
    let t = |s: &str, p: &str, o: &str| (s.to_owned(), p.to_owned(), o.to_owned());
    check_interner_round_trip(
        &[t("a", "name", "The Fat Duck"), t("a", "city", "Bray"), t("b", "name", "")],
        &[t("x", "label", "Fat Duck — Bray ☕"), t("x", "label", "Fat Duck — Bray ☕")],
        &[(0, 0), (2, 1), (7, 9)],
    );
    check_interner_round_trip(
        &[t("solo", "p", "one token")],
        &[t("solo", "p", "one token")],
        &[],
    );
}

/// Arbitrary small pairs survive compile → mmap → materialize with
/// every interner string resolving identically and every pair and
/// token row equal to the heap build, on both sides.
#[test]
fn interners_and_token_sets_round_trip() {
    fn letters(rng: &mut Rng, max: usize) -> String {
        (0..rng.gen_range(1..max + 1)).map(|_| char::from(rng.gen_range(b'a'..b'z' + 1))).collect()
    }
    /// Up to 16 Unicode scalars, half of them printable ASCII.
    fn literal(rng: &mut Rng) -> String {
        (0..rng.gen_range(0..17usize))
            .map(|_| match rng.gen_range(0..2usize) {
                0 => char::from(rng.gen_range(b' '..b'~' + 1)),
                _ => char::from_u32(rng.gen_range(0..0x11_0000u32)).unwrap_or('\u{fffd}'),
            })
            .collect()
    }
    fn triples(rng: &mut Rng) -> Vec<(String, String, String)> {
        (0..rng.gen_range(1..20usize)).map(|_| (letters(rng, 6), letters(rng, 5), literal(rng))).collect()
    }
    for_each_seed(24, |rng| {
        let (left, right) = (triples(rng), triples(rng));
        let links: Vec<(usize, usize)> = (0..rng.gen_range(0..6usize))
            .map(|_| (rng.gen_range(0..20usize), rng.gen_range(0..20usize)))
            .collect();
        check_interner_round_trip(&left, &right, &links);
    });
}
