//! Property tests for lenient N-Triples ingestion: for any interleaving of
//! well-formed triples, blanks, comments and corrupted lines, the
//! [`ParseReport`] accounts for every line exactly — `parsed` counts the
//! valid triples, `skipped` counts the corrupted lines, `first_errors`
//! keeps at most [`MAX_REPORTED_ERRORS`] of them in document order — and
//! strict mode fails on precisely the first corrupted line.
//!
//! The seeded loop at the end does the same for hostile bytes instead of
//! hostile lines (ROADMAP item 4).

use minoaner_det::rng::{for_each_seed, Rng};
use minoaner_kb::parser::{load_ntriples_with_mode, parse_line, ParseMode, MAX_REPORTED_ERRORS};
use minoaner_kb::{KbPairBuilder, Side};

/// One generated input line, with its ground-truth classification.
#[derive(Debug, Clone)]
enum Line {
    /// A well-formed triple (URI or literal object).
    Valid(String),
    /// A line both modes ignore (blank or comment).
    Ignored(String),
    /// A line lenient mode must skip and strict mode must fail on.
    Corrupt(String),
}

/// Uniformly picks one of 12 line shapes: 3 well-formed, 3 ignored, and
/// one corrupted shape per syntax-error class.
fn random_line(rng: &mut Rng) -> Line {
    let (kind, i) = (rng.gen_range(0..12usize), rng.gen_range(0..1000u32));
    match kind {
        // Well-formed: URI object, literal object (incl. escapes).
        0 => Line::Valid(format!("<s{i}> <p{i}> <o{i}> .")),
        1 => Line::Valid(format!("<s{i}> <p{i}> \"value {i}\" .")),
        2 => Line::Valid(format!("<s{i}> <p{i}> \"esc \\\"q\\\" {i}\" .")),
        // Ignored: blank lines, whitespace, comments.
        3 => Line::Ignored(String::new()),
        4 => Line::Ignored("   \t ".to_owned()),
        5 => Line::Ignored(format!("# comment {i}")),
        // Corrupted: subject is not a URI,
        6 => Line::Corrupt(format!("broken line {i}")),
        // truncated mid-literal (torn write),
        7 => Line::Corrupt(format!("<s{i}> <p{i}> \"torn lit")),
        // truncated before the terminating dot,
        8 => Line::Corrupt(format!("<s{i}> <p{i}> <o{i}>")),
        // object missing entirely,
        9 => Line::Corrupt(format!("<s{i}> <p{i}> .")),
        // unterminated subject URI running into the next term,
        10 => Line::Corrupt(format!("<s{i} <p{i}> <o{i}> .")),
        // predicate is not a URI.
        _ => Line::Corrupt(format!("<s{i}> \"lit\" <o{i}> .")),
    }
}

/// Pins the generator's ground truth: every shape `random_line` labels
/// `Valid` must parse to a triple, every `Ignored` shape must parse to
/// nothing, and every `Corrupt` shape must be a syntax error. The property
/// test below is only as good as this classification.
#[test]
fn generator_shapes_are_classified_correctly() {
    let i = 7u32;
    let shapes = [
        (format!("<s{i}> <p{i}> <o{i}> ."), "valid"),
        (format!("<s{i}> <p{i}> \"value {i}\" ."), "valid"),
        (format!("<s{i}> <p{i}> \"esc \\\"q\\\" {i}\" ."), "valid"),
        (String::new(), "ignored"),
        ("   \t ".to_owned(), "ignored"),
        (format!("# comment {i}"), "ignored"),
        (format!("broken line {i}"), "corrupt"),
        (format!("<s{i}> <p{i}> \"torn lit"), "corrupt"),
        (format!("<s{i}> <p{i}> <o{i}>"), "corrupt"),
        (format!("<s{i}> <p{i}> ."), "corrupt"),
        (format!("<s{i} <p{i}> <o{i}> ."), "corrupt"),
        (format!("<s{i}> \"lit\" <o{i}> ."), "corrupt"),
    ];
    for (line, expected) in &shapes {
        let got = match parse_line(line) {
            Ok(Some(_)) => "valid",
            Ok(None) => "ignored",
            Err(_) => "corrupt",
        };
        assert_eq!(got, *expected, "line {line:?} misclassified");
    }
}

#[test]
fn lenient_report_counts_are_exact() {
    for_each_seed(64, |rng| {
        let lines: Vec<Line> = (0..rng.gen_range(0..40usize)).map(|_| random_line(rng)).collect();
        let doc: String = lines
            .iter()
            .map(|l| match l {
                Line::Valid(s) | Line::Ignored(s) | Line::Corrupt(s) => format!("{s}\n"),
            })
            .collect();
        let expected_parsed = lines.iter().filter(|l| matches!(l, Line::Valid(_))).count();
        let corrupt_line_numbers: Vec<usize> = lines
            .iter()
            .enumerate()
            .filter_map(|(i, l)| matches!(l, Line::Corrupt(_)).then_some(i + 1))
            .collect();

        // Lenient: every line accounted for, errors kept in document order
        // up to the cap, with 1-based line numbers.
        let mut b = KbPairBuilder::new();
        let report = load_ntriples_with_mode(&mut b, Side::Left, &doc, ParseMode::Lenient)
            .expect("lenient mode never fails");
        assert_eq!(report.parsed, expected_parsed);
        assert_eq!(report.skipped, corrupt_line_numbers.len());
        assert_eq!(
            report.first_errors.len(),
            corrupt_line_numbers.len().min(MAX_REPORTED_ERRORS)
        );
        for (err, &line) in report.first_errors.iter().zip(&corrupt_line_numbers) {
            assert_eq!(err.line, line);
        }

        // Strict: fails on exactly the first corrupted line, or parses the
        // same number of triples when there is none.
        let mut b = KbPairBuilder::new();
        let strict = load_ntriples_with_mode(&mut b, Side::Left, &doc, ParseMode::Strict);
        match corrupt_line_numbers.first() {
            Some(&first) => {
                let err = strict.expect_err("strict mode must reject corrupted input");
                assert_eq!(err.line, first);
            }
            None => {
                let report = strict.expect("clean input parses strictly");
                assert_eq!(report.parsed, expected_parsed);
                assert_eq!(report.skipped, 0);
                assert!(report.first_errors.is_empty());
            }
        }
    });
}

/// A well-formed document touching every term shape the parser knows.
const SEED_DOC: &str = "<http://e/a> <http://p/name> \"The Fat Duck\" .\n\
<http://e/a> <http://p/chef> <http://e/b> .\n\
# a comment\n\
<http://e/b> <http://p/name> \"Café \\\"東京\\\" \\\\ \\u00E9\"@fr .\r\n\
\n\
<http://e/b> <http://p/born> \"1978\"^^<http://www.w3.org/2001/XMLSchema#gYear> .\n\
<http://e/c>\t<http://p/name>\t\"x\"\t.\n";

/// Bytes that mean something to the scanner, plus lead and continuation
/// bytes that cut or start a UTF-8 sequence.
const NASTY: &[u8] = b"\"<>\\.#@^ \t\r\n\0u\xC3\xA9\xE6\x9D\xF0\x80\xFF";

#[test]
fn mutated_bytes_never_panic_and_both_modes_account_for_every_line() {
    assert!(SEED_DOC.lines().all(|l| parse_line(l).is_ok()), "the seed document is well-formed");
    let mut rng = Rng::seed_from_u64(4);
    let (mut parsed_total, mut skipped_total) = (0usize, 0usize);
    for mutant in 0..20_000 {
        let mut bytes = SEED_DOC.as_bytes().to_vec();
        for _ in 0..1 + rng.gen_range(0..4usize) {
            let at = rng.gen_range(0..bytes.len().max(1)).min(bytes.len().saturating_sub(1));
            match rng.gen_range(0..4usize) {
                _ if bytes.is_empty() => bytes.push(NASTY[rng.gen_range(0..NASTY.len())]),
                0 => bytes[at] ^= 1 << rng.gen_range(0..8usize),
                1 => bytes.insert(at, NASTY[rng.gen_range(0..NASTY.len())]),
                2 => drop(bytes.remove(at)),
                _ => bytes.truncate(at),
            }
        }
        // Input reaches the loader as `&str`: a cut sequence arrives as
        // U+FFFD, next to whatever the cut left of its neighbours.
        let doc = String::from_utf8_lossy(&bytes).into_owned();
        // Not a line any more, but a `&str` all the same.
        let _ = parse_line(&doc);

        // What each line is, by the line-level parser alone.
        let mut expected_parsed = 0;
        let mut bad_lines = Vec::new();
        let mut statements = 0;
        for (n, line) in doc.lines().enumerate() {
            let blank_or_comment = line.trim().is_empty() || line.trim().starts_with('#');
            statements += usize::from(!blank_or_comment);
            match parse_line(line) {
                Ok(Some(_)) => expected_parsed += 1,
                Ok(None) => assert!(blank_or_comment, "mutant {mutant}: {line:?} ignored"),
                Err(_) => bad_lines.push(n + 1),
            }
        }

        let mut b = KbPairBuilder::new();
        let report = load_ntriples_with_mode(&mut b, Side::Left, &doc, ParseMode::Lenient)
            .expect("lenient mode never fails");
        assert_eq!(report.parsed, expected_parsed, "mutant {mutant}: {doc:?}");
        assert_eq!(report.skipped, bad_lines.len(), "mutant {mutant}: {doc:?}");
        assert_eq!(report.parsed + report.skipped, statements, "mutant {mutant}: {doc:?}");
        let kept: Vec<usize> = report.first_errors.iter().map(|e| e.line).collect();
        assert_eq!(kept, bad_lines[..bad_lines.len().min(MAX_REPORTED_ERRORS)], "mutant {mutant}");
        let pair = b.finish();
        assert_eq!(pair.kb(Side::Left).triple_count(), expected_parsed, "mutant {mutant}");

        let mut b = KbPairBuilder::new();
        match (load_ntriples_with_mode(&mut b, Side::Left, &doc, ParseMode::Strict), bad_lines.first()) {
            (Err(err), Some(&first)) => assert_eq!(err.line, first, "mutant {mutant}: {doc:?}"),
            (Ok(report), None) => assert_eq!((report.parsed, report.skipped), (expected_parsed, 0)),
            (got, first_bad) => panic!("mutant {mutant}: strict gave {got:?}, first bad line {first_bad:?}"),
        }
        parsed_total += expected_parsed;
        skipped_total += bad_lines.len();
    }
    // The mutations must reach both outcomes, or the loop checks nothing.
    assert!(parsed_total > 20_000 && skipped_total > 5_000, "{parsed_total} parsed, {skipped_total} skipped");
}
