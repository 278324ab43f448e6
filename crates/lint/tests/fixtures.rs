//! Fixture suite: every bad snippet is flagged by exactly the rule it
//! exercises, and the good snippet is completely clean.

use minoaner_lint::lexer::lex;
use minoaner_lint::rules::{run_all, FileClass, Violation};
use std::path::PathBuf;

fn fixture(rel: &str) -> Vec<Violation> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    run_all(rel, FileClass::Library, &src, &lex(&src))
}

fn rules_of(v: &[Violation]) -> Vec<&'static str> {
    v.iter().map(|x| x.rule).collect()
}

#[test]
fn bad_r1_std_hash_flagged() {
    let v = fixture("bad/r1_std_hash.rs");
    assert_eq!(rules_of(&v), ["R1", "R1", "R1"], "{v:#?}");
}

#[test]
fn bad_r2_float_accum_flagged() {
    let v = fixture("bad/r2_float_accum.rs");
    assert_eq!(rules_of(&v), ["R2", "R2", "R2"], "{v:#?}");
}

#[test]
fn bad_r3_wallclock_flagged() {
    let v = fixture("bad/r3_wallclock.rs");
    assert_eq!(rules_of(&v), ["R3", "R3", "R3"], "{v:#?}");
}

#[test]
fn bad_r4_unwrap_flagged() {
    let v = fixture("bad/r4_unwrap.rs");
    assert_eq!(rules_of(&v), ["R4", "R4"], "{v:#?}");
}

#[test]
fn bad_r5_unsafe_flagged() {
    let v = fixture("bad/r5_unsafe.rs");
    assert_eq!(rules_of(&v), ["R5", "R5", "R5"], "{v:#?}");
    // One violation per `unsafe`: the Send impl's comment lacks the
    // SAFETY: marker, and the Sync impl has no comment of its own.
    assert_eq!(v[0].line, 6);
    assert_eq!(v[1].line, 7);
}

#[test]
fn bad_r6_direct_fs_flagged_under_durable_path() {
    // R6 is path-gated to the durable modules, so the fixture source is
    // linted twice: once as a durable path (flagged) and once under its
    // own fixture path (clean).
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/bad/r6_direct_fs.rs");
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let toks = lex(&src);
    let v = run_all("crates/dataflow/src/checkpoint.rs", FileClass::Library, &src, &toks);
    assert_eq!(rules_of(&v), ["R6", "R6", "R6"], "{v:#?}");
    let v = run_all("bad/r6_direct_fs.rs", FileClass::Library, &src, &toks);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn good_fixture_is_clean() {
    let v = fixture("good/clean.rs");
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn good_multibyte_char_literals_lex_as_chars() {
    use minoaner_lint::lexer::TokKind;

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/good/multibyte_char.rs");
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let toks = lex(&src);
    let count = |kind: TokKind| toks.iter().filter(|t| t.kind == kind).count();
    assert_eq!(count(TokKind::Char), 8, "one token per char literal");
    assert_eq!(count(TokKind::Lifetime), 2, "`'a` twice");
    assert!(toks.iter().any(|t| t.text == "extend_from_slice"), "lexing continues past them");
    let v = run_all("good/multibyte_char.rs", FileClass::Library, &src, &toks);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn violations_carry_file_and_line() {
    let v = fixture("bad/r1_std_hash.rs");
    assert!(v.iter().all(|x| x.path == "bad/r1_std_hash.rs"));
    assert!(v.iter().all(|x| x.line > 0));
    // The use-line violations point at the actual use statement.
    assert_eq!(v[0].line, 4);
}
