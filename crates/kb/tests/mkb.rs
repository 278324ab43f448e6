//! `.mkb` container integration tests: corruption must fail closed with
//! typed errors (mirroring the crash-recovery harness's posture for
//! checkpoints), and compile → mmap → materialize must be an *identity* —
//! every interned string, id and token-set row of the mapped file equal
//! to the heap-built pair it was compiled from.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use minoaner_kb::parser::{load_ntriples, write_ntriples};
use minoaner_kb::{
    write_mkb, EntityId, KbPair, KbPairBuilder, KbSource, MkbError, MkbFile, Side, Symbol, Term,
    MKB_FORMAT_VERSION,
};
use proptest::prelude::*;

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

/// Asserts that a mapped file and a heap pair are the same KB through
/// every lens the `KbSource` contract exposes.
fn assert_source_identical(heap: &KbPair, mapped: &MkbFile) {
    assert_eq!(heap.dirty(), mapped.dirty());
    for side in [Side::Left, Side::Right] {
        assert_eq!(heap.entity_count(side), mapped.entity_count(side), "{side:?} count");
        for i in 0..heap.entity_count(side) {
            let id = EntityId(u32::try_from(i).expect("test KBs are small"));
            assert_eq!(heap.entity_uri(side, id), mapped.entity_uri(side, id));
            assert_eq!(heap.token_set(side, id), mapped.token_set(side, id));
            assert_eq!(heap.token_occurrences(side, id), mapped.token_occurrences(side, id));
            let uri = heap.entity_uri(side, id).expect("in range");
            assert_eq!(heap.uri_string(uri), mapped.uri_string(uri));
        }
        // One past the end: both implementations refuse, neither panics.
        let beyond = EntityId(u32::try_from(heap.entity_count(side)).expect("small"));
        assert_eq!(heap.entity_uri(side, beyond), None);
        assert_eq!(mapped.entity_uri(side, beyond), None);
        assert_eq!(mapped.token_set(side, beyond), None);
        assert_eq!(heap.token_set(side, beyond), None);
    }
}

#[test]
fn compile_open_materialize_is_an_identity() {
    let pair = sample_pair();
    let path = compile(&pair, "roundtrip");
    let file = MkbFile::open(&path).expect("open succeeds");
    file.verify().expect("checksums hold");
    assert_source_identical(&pair, &file);

    let back = file.to_pair().expect("materialize succeeds");
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

/// `parent_v1.mkb` was compiled from the two fixture documents by the
/// commit before the arena interner and the CSR token tables (format
/// version 1, little-endian). The format did not change: that file still
/// opens, re-serializes to itself, and is what this build compiles from
/// the same text.
#[test]
fn a_file_compiled_before_the_arena_interner_is_still_the_format() {
    if cfg!(target_endian = "big") {
        return; // `foreign_endianness_is_rejected` covers what happens instead
    }
    let golden = std::fs::read(fixture("parent_v1.mkb")).expect("read fixture container");

    let file = MkbFile::open(&fixture("parent_v1.mkb")).expect("the old file opens");
    file.verify().expect("checksums hold");
    assert_source_identical(&fixture_pair(), &file);
    let reserialized = compile(&file.to_pair().expect("materialize succeeds"), "golden-reserialize");
    assert_eq!(std::fs::read(&reserialized).expect("read"), golden, "open → to_pair → write_mkb");

    let recompiled = compile(&fixture_pair(), "golden-recompile");
    assert_eq!(std::fs::read(&recompiled).expect("read"), golden, "text → builder → write_mkb");
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

/// The property behind `interners_and_token_sets_round_trip`, as a plain
/// function so the offline stub builds (which swallow `proptest!` bodies)
/// still typecheck and exercise it via the deterministic samples below.
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
    let file = MkbFile::open(&path).expect("open succeeds");

    // All four interners: same cardinality, every symbol resolves to the
    // same string through the mapped arenas.
    let heap_interners = [pair.tokens(), pair.literals(), pair.attrs(), pair.uris()];
    for (which, interner) in heap_interners.iter().enumerate() {
        assert_eq!(file.interner_len(which), Some(interner.len()));
        for raw in 0..interner.len() {
            let sym = Symbol(u32::try_from(raw).expect("small"));
            assert_eq!(file.interner_string(which, sym), Some(interner.resolve(sym)));
        }
        let beyond = Symbol(u32::try_from(interner.len()).expect("small"));
        assert_eq!(file.interner_string(which, beyond), None);
    }

    // Token-set CSRs and the KbSource contract, both sides.
    for side in [Side::Left, Side::Right] {
        assert_eq!(file.entity_count(side), pair.entity_count(side));
        for i in 0..pair.entity_count(side) {
            let id = EntityId(u32::try_from(i).expect("small"));
            assert_eq!(file.token_set(side, id), pair.token_set(side, id));
            assert_eq!(file.token_occurrences(side, id), pair.token_occurrences(side, id));
            assert_eq!(file.entity_uri(side, id), pair.entity_uri(side, id));
        }
    }

    let _ = std::fs::remove_dir_all(path.parent().expect("scratch dir"));
}

/// Hand-picked adversarial inputs for the round-trip property: unicode
/// and empty literals, repeated subjects, dangling link targets. These
/// run everywhere, including stub builds where `proptest!` is inert.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary small pairs survive compile → mmap with every interner
    /// string resolving identically and every token-set CSR row equal to
    /// the heap build, on both sides.
    #[test]
    fn interners_and_token_sets_round_trip(
        left in prop::collection::vec(("[a-z]{1,6}", "[a-z]{1,5}", ".{0,16}"), 1..20),
        right in prop::collection::vec(("[a-z]{1,6}", "[a-z]{1,5}", ".{0,16}"), 1..20),
        links in prop::collection::vec((0usize..20, 0usize..20), 0..6),
    ) {
        check_interner_round_trip(&left, &right, &links);
    }
}
