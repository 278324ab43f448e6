//! Fixture suite: every bad snippet is flagged by exactly the rule it
//! exercises, and the good snippet is completely clean.

use minoaner_lint::lexer::lex;
use minoaner_lint::rules::{run_all, Violation};
use std::path::PathBuf;

fn fixture(rel: &str) -> Vec<Violation> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    run_all(rel, &src, &lex(&src))
}

fn rules_of(v: &[Violation]) -> Vec<&'static str> {
    v.iter().map(|x| x.rule).collect()
}

#[test]
fn bad_r2_float_accum_flagged() {
    let v = fixture("bad/r2_float_accum.rs");
    assert_eq!(rules_of(&v), ["R2", "R2", "R2"], "{v:#?}");
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
    let v = run_all("crates/dataflow/src/checkpoint.rs", &src, &toks);
    assert_eq!(rules_of(&v), ["R6", "R6", "R6"], "{v:#?}");
    let v = run_all("bad/r6_direct_fs.rs", &src, &toks);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn bad_r7_allow_without_bound_flagged() {
    let v = fixture("bad/r7_allow_without_bound.rs");
    // Each allow is counted, and each lacks its `// bound:` line.
    assert_eq!(rules_of(&v), ["R7", "R7", "R7", "R7"], "{v:#?}");
    assert_eq!((v[0].line, v[1].line, v[2].line, v[3].line), (5, 5, 11, 11));
    assert!(v[1].message.contains("bound:") && v[3].message.contains("bound:"));
}

#[test]
fn good_fixture_is_clean() {
    let v = fixture("good/clean.rs");
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn good_r7_bounded_allows_are_only_counted() {
    // One violation per audited allow, for lint-allow.toml's exact count;
    // none for a missing bound, none for other clippy lints.
    let v = fixture("good/r7_bounded_allow.rs");
    assert_eq!(rules_of(&v), ["R7", "R7"], "{v:#?}");
    assert_eq!((v[0].line, v[1].line), (7, 18));
    assert!(v.iter().all(|x| x.message.starts_with("audited")), "{v:#?}");
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
    let v = run_all("good/multibyte_char.rs", &src, &toks);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn violations_carry_file_and_line() {
    let v = fixture("bad/r2_float_accum.rs");
    assert!(v.iter().all(|x| x.path == "bad/r2_float_accum.rs"));
    assert!(v.iter().all(|x| x.line > 0));
}
