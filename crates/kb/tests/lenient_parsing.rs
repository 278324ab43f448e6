//! Property tests for lenient N-Triples ingestion: for any interleaving of
//! well-formed triples, blanks, comments and corrupted lines, the
//! [`ParseReport`] accounts for every line exactly — `parsed` counts the
//! valid triples, `skipped` counts the corrupted lines, `first_errors`
//! keeps at most [`MAX_REPORTED_ERRORS`] of them in document order — and
//! strict mode fails on precisely the first corrupted line.
//!
//! The seeded loops after that do the same for hostile bytes instead of
//! hostile lines, and hold the line parser and the loader to the ones they
//! replaced ([`old`]): the same triple or the same error for every line, the
//! same report, and the same tables — or `.mkb` bytes — for every document.
//! The last loop feeds hostile bytes to the Turtle loader.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use minoaner_datagen::{generate, profiles};
use minoaner_det::rng::{for_each_seed, Rng};
use minoaner_kb::parser::{
    load_ntriples_with_mode, parse_line, write_ntriples, ParseError, ParseMode, ParseReport, MAX_REPORTED_ERRORS,
};
use minoaner_kb::turtle::load_turtle;
use minoaner_kb::{write_mkb, KbPair, KbPairBuilder, LiteralId, Side};

/// The line parser and the loader as they were before each term became one
/// two-byte search and each literal one normalization pass, kept verbatim
/// as the oracle of the ones that replaced them.
mod old {
    use minoaner_kb::parser::{unescape, ParseError, ParseMode, ParseReport, SyntaxError, Triple};
    use minoaner_kb::{KbPairBuilder, Side, Term};

    pub fn parse_line(line: &str) -> Result<Option<Triple<'_>>, SyntaxError> {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(None);
        }
        let rest = trimmed;
        let (subject, rest) = take_uri(rest)?;
        let rest = rest.trim_start();
        let (predicate, rest) = take_uri(rest)?;
        let rest = rest.trim_start();
        let (object, rest) = take_object(rest)?;
        let rest = rest.trim_start();
        if !rest.starts_with('.') {
            return Err(SyntaxError::MissingTerminator);
        }
        Ok(Some(Triple { subject, predicate, object }))
    }

    fn take_uri(s: &str) -> Result<(&str, &str), SyntaxError> {
        let rest = s
            .strip_prefix('<')
            .ok_or(SyntaxError::ExpectedUri { found: s.chars().next() })?;
        let end = rest.find('>').ok_or(SyntaxError::UnterminatedUri)?;
        // '<' cannot occur inside an IRIREF: seeing one before the '>' means
        // the URI was never closed and the scanner ran into the next term.
        if rest[..end].contains('<') {
            return Err(SyntaxError::UnterminatedUri);
        }
        Ok((&rest[..end], &rest[end + 1..]))
    }

    fn take_object(s: &str) -> Result<(Term<'_>, &str), SyntaxError> {
        if s.starts_with('<') {
            let (uri, rest) = take_uri(s)?;
            return Ok((Term::Uri(uri), rest));
        }
        let rest = s
            .strip_prefix('"')
            .ok_or(SyntaxError::ExpectedObject { found: s.chars().next() })?;
        // Find the closing unescaped quote. A backslash escapes the next char;
        // skipping one byte of it is enough, the rest cannot be a delimiter.
        let bytes = rest.as_bytes();
        let mut i = 0;
        while let Some(step) = bytes[i..].iter().position(|&b| b == b'"' || b == b'\\') {
            i += step;
            if bytes[i] == b'\\' {
                i = (i + 2).min(bytes.len());
                continue;
            }
            let lit = &rest[..i];
            let mut tail = &rest[i + 1..];
            // Skip @lang or ^^<datatype>.
            if let Some(t) = tail.strip_prefix('@') {
                let end = t.bytes().position(|b| matches!(b, b' ' | b'\t' | b'.')).unwrap_or(t.len());
                tail = &t[end..];
            } else if let Some(t) = tail.strip_prefix("^^") {
                let (_, t) = take_uri(t)?;
                tail = t;
            }
            return Ok((Term::Literal(lit), tail));
        }
        Err(SyntaxError::UnterminatedLiteral)
    }

    /// The loader: one line, one triple, one `add_triple`.
    pub fn load_ntriples_with_mode(
        builder: &mut KbPairBuilder,
        side: Side,
        input: &str,
        mode: ParseMode,
    ) -> Result<ParseReport, ParseError> {
        let mut report = ParseReport::default();
        for (n, line) in input.lines().enumerate() {
            match parse_line(line) {
                Ok(None) => {}
                Ok(Some(t)) => {
                    match t.object {
                        Term::Literal(l) => {
                            builder.add_triple(side, t.subject, t.predicate, Term::Literal(&unescape(l)));
                        }
                        uri => builder.add_triple(side, t.subject, t.predicate, uri),
                    }
                    report.parsed += 1;
                }
                Err(err) => match mode {
                    ParseMode::Strict => return Err(err.at_line(n + 1)),
                    ParseMode::Lenient => report.record_skip(err.at_line(n + 1)),
                },
            }
        }
        Ok(report)
    }
}

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

/// One of the byte mutations the hostile-input loops apply: flip a bit,
/// insert one of `inserts`, remove a byte, or truncate.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>, inserts: &[&[u8]]) {
    let at = rng.gen_range(0..bytes.len().max(1)).min(bytes.len().saturating_sub(1));
    let insert = inserts[rng.gen_range(0..inserts.len())];
    match rng.gen_range(0..4usize) {
        _ if bytes.is_empty() => bytes.extend_from_slice(insert),
        0 => bytes[at] ^= 1 << rng.gen_range(0..8usize),
        1 => drop(bytes.splice(at..at, insert.iter().copied())),
        2 => drop(bytes.remove(at)),
        _ => bytes.truncate(at),
    }
}

/// [`NASTY`], one byte a fragment.
fn nasty_bytes() -> Vec<&'static [u8]> {
    NASTY.chunks(1).collect()
}

/// A loader: the one under test or [`old`]'s.
type Loader = fn(&mut KbPairBuilder, Side, &str, ParseMode) -> Result<ParseReport, ParseError>;

/// What `loader` makes of `doc` on the left side of a new builder: its
/// result, and the pair the builder finishes to — after an error too.
fn load_with(loader: Loader, doc: &str, mode: ParseMode) -> (Result<ParseReport, ParseError>, KbPair) {
    let mut builder = KbPairBuilder::new();
    let result = loader(&mut builder, Side::Left, doc, mode);
    (result, builder.finish())
}

/// Asserts that two pairs hold the same tables: the four interners string
/// by string, every literal's token sequence, and per side every entity's
/// uri, pairs, token set and occurrence count.
fn assert_same_tables(got: &KbPair, want: &KbPair, context: &str) {
    let interners = [
        (got.tokens(), want.tokens()),
        (got.literals(), want.literals()),
        (got.attrs(), want.attrs()),
        (got.uris(), want.uris()),
    ];
    for (which, (g, w)) in interners.into_iter().enumerate() {
        assert!(g.iter().eq(w.iter()), "{context}: interner {which}");
    }
    for l in 0..want.literal_space() {
        let lit = LiteralId(u32::try_from(l).expect("test KBs are small"));
        assert_eq!(got.literal_token_seq(lit), want.literal_token_seq(lit), "{context}: literal {l}");
    }
    for side in [Side::Left, Side::Right] {
        let (g, w) = (got.kb(side), want.kb(side));
        assert_eq!(g.len(), w.len(), "{context}: {side:?} entities");
        for (id, e) in w.iter() {
            let other = g.entity(id);
            assert_eq!(other, e, "{context}: {side:?} {id:?}");
            assert_eq!(g.tokens_of(id), w.tokens_of(id), "{context}: {side:?} {id:?}");
            assert_eq!(g.token_occurrences_of(id), w.token_occurrences_of(id), "{context}: {side:?} {id:?}");
        }
    }
}

/// The bytes `write_mkb` writes for `pair`.
fn mkb_bytes(pair: &KbPair) -> Vec<u8> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir: PathBuf = std::env::temp_dir().join(format!("minoaner-lenient-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("pair.mkb");
    write_mkb(pair, &path).expect("compile succeeds");
    let bytes = std::fs::read(&path).expect("read the container back");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

#[test]
fn mutated_bytes_never_panic_and_both_modes_account_for_every_line() {
    assert!(SEED_DOC.lines().all(|l| parse_line(l).is_ok()), "the seed document is well-formed");
    let mut rng = Rng::seed_from_u64(4);
    let nasty = nasty_bytes();
    let (mut parsed_total, mut skipped_total) = (0usize, 0usize);
    for mutant in 0..20_000 {
        let mut bytes = SEED_DOC.as_bytes().to_vec();
        for _ in 0..1 + rng.gen_range(0..4usize) {
            mutate(&mut rng, &mut bytes, &nasty);
        }
        // Input reaches the loader as `&str`: a cut sequence arrives as
        // U+FFFD, next to whatever the cut left of its neighbours.
        let doc = String::from_utf8_lossy(&bytes).into_owned();
        // Not a line any more, but a `&str` all the same.
        assert_eq!(parse_line(&doc), old::parse_line(&doc), "mutant {mutant}: {doc:?}");

        // What each line is, by the line-level parser alone — which gives
        // the triple or the error the one it replaced gave.
        let mut expected_parsed = 0;
        let mut bad_lines = Vec::new();
        let mut statements = 0;
        for (n, line) in doc.lines().enumerate() {
            let blank_or_comment = line.trim().is_empty() || line.trim().starts_with('#');
            statements += usize::from(!blank_or_comment);
            let parsed = parse_line(line);
            assert_eq!(parsed, old::parse_line(line), "mutant {mutant}: {line:?}");
            match parsed {
                Ok(Some(_)) => expected_parsed += 1,
                Ok(None) => assert!(blank_or_comment, "mutant {mutant}: {line:?} ignored"),
                Err(_) => bad_lines.push(n + 1),
            }
        }

        let (lenient, pair) = load_with(load_ntriples_with_mode, &doc, ParseMode::Lenient);
        let report = lenient.expect("lenient mode never fails");
        assert_eq!(report.parsed, expected_parsed, "mutant {mutant}: {doc:?}");
        assert_eq!(report.skipped, bad_lines.len(), "mutant {mutant}: {doc:?}");
        assert_eq!(report.parsed + report.skipped, statements, "mutant {mutant}: {doc:?}");
        let kept: Vec<usize> = report.first_errors.iter().map(|e| e.line).collect();
        assert_eq!(kept, bad_lines[..bad_lines.len().min(MAX_REPORTED_ERRORS)], "mutant {mutant}");
        assert_eq!(pair.kb(Side::Left).triple_count(), expected_parsed, "mutant {mutant}");
        let (old_lenient, old_pair) = load_with(old::load_ntriples_with_mode, &doc, ParseMode::Lenient);
        assert_eq!(Ok(report), old_lenient, "mutant {mutant}: {doc:?}");
        assert_same_tables(&pair, &old_pair, &format!("lenient mutant {mutant}"));

        let (strict, pair) = load_with(load_ntriples_with_mode, &doc, ParseMode::Strict);
        let (old_strict, old_pair) = load_with(old::load_ntriples_with_mode, &doc, ParseMode::Strict);
        assert_eq!(strict, old_strict, "mutant {mutant}: {doc:?}");
        assert_same_tables(&pair, &old_pair, &format!("strict mutant {mutant}"));
        match (strict, bad_lines.first()) {
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

/// Up to 40 chars for the inside of a term, from an alphabet without the
/// delimiters; with odds 1 in 4, the char at byte 7, 8 or 9 — either side
/// of the search's first word boundary — is one of `delimiters`.
fn term_body(rng: &mut Rng, delimiters: &[char]) -> String {
    const FILL: [char; 12] = ['a', 'Z', '0', '9', ' ', '-', '/', ':', '#', '.', '_', 'é'];
    let len = [0, 6, 7, 8, 9, 15, 16, 17][rng.gen_range(0..8usize)] + rng.gen_range(0..2usize) * rng.gen_range(0..24usize);
    let mut body: Vec<char> = (0..len).map(|_| FILL[rng.gen_range(0..FILL.len())]).collect();
    if rng.gen_range(0..4usize) == 0 {
        let at = rng.gen_range(6..9usize).min(body.len());
        body.insert(at, delimiters[rng.gen_range(0..delimiters.len())]);
    }
    body.into_iter().collect()
}

/// One line from the shapes where the two-byte search and the byte-class
/// table have their edges: terms with a delimiter at byte 7, 8 or 9,
/// literals of 0–17 bytes and longer, `<` inside an IRI, escapes and a
/// trailing lone backslash, `@lang` and `^^<dt>` suffixes, `İ` and other
/// non-ASCII text, leading and trailing Unicode whitespace, and a missing,
/// repeated or commented terminator.
fn shaped_line(rng: &mut Rng) -> String {
    const BLANKS: [&str; 8] = ["", " ", "\t", "  ", "\u{3000}", "\u{a0}", "\u{2003}", " \u{85}"];
    const WIDE: [&str; 6] = ["İstanbul", "Café", "東京", "ǅungla", "straße", "\u{1F600}"];
    const ESCAPES: [&str; 8] = ["", "\\\"", "\\\\", "\\n", "\\u00E9", "\\U0001F600", "\\u12", "\\t"];
    const SUFFIXES: [&str; 8] = ["", "", "@en", "@en-GB", "^^<http://www.w3.org/2001/XMLSchema#gYear>", "^^<dt", "^^", "@"];
    const ENDS: [&str; 7] = [" .", ".", "", " . # done", " ..", ".x", " . \u{3000}"];
    let blank = |rng: &mut Rng| BLANKS[rng.gen_range(0..BLANKS.len())];
    let iri = |rng: &mut Rng| {
        let body = term_body(rng, &['<', '>', '"', '\\']);
        match rng.gen_range(0..24usize) {
            0 => body,
            1 => format!("<{body}"),
            _ => format!("<{body}>"),
        }
    };
    let (subject, predicate) = (iri(rng), iri(rng));
    let object = if rng.gen_range(0..3usize) == 0 {
        iri(rng)
    } else {
        let mut body = term_body(rng, &['"', '\\', 'İ']);
        if rng.gen_range(0..4usize) == 0 {
            body.push_str(WIDE[rng.gen_range(0..WIDE.len())]);
        }
        let escape = ESCAPES[rng.gen_range(0..ESCAPES.len())];
        match rng.gen_range(0..10usize) {
            // A trailing lone backslash: it escapes the closing quote.
            0 => format!("\"{body}\\"),
            1 => format!("\"{body}{escape}"),
            _ => format!("\"{body}{escape}\"{}", SUFFIXES[rng.gen_range(0..SUFFIXES.len())]),
        }
    };
    let end = ENDS[rng.gen_range(0..ENDS.len())];
    let gaps = ([" ", "\t", "", " \u{a0}"][rng.gen_range(0..4usize)], [" ", "\t", ""][rng.gen_range(0..3usize)]);
    format!("{}{subject}{}{predicate}{}{object}{end}{}", blank(rng), gaps.0, gaps.1, blank(rng))
}

#[test]
fn seeded_shapes_parse_and_load_as_the_old_path_did() {
    let (mut triples, mut errors) = (0usize, 0usize);
    for_each_seed(400, |rng| {
        let mut doc = String::new();
        for _ in 0..rng.gen_range(1..40usize) {
            let line = shaped_line(rng);
            let parsed = parse_line(&line);
            assert_eq!(parsed, old::parse_line(&line), "{line:?}");
            triples += usize::from(matches!(parsed, Ok(Some(_))));
            errors += usize::from(parsed.is_err());
            doc.push_str(&line);
            doc.push_str(["\n", "\r\n", "\n\n", "\r\n# comment\n"][rng.gen_range(0..4usize)]);
        }
        if rng.gen_range(0..2usize) == 0 {
            doc.pop(); // no final line ending, or a lone '\r'
        }
        for mode in [ParseMode::Lenient, ParseMode::Strict] {
            let (result, pair) = load_with(load_ntriples_with_mode, &doc, mode);
            let (want, old_pair) = load_with(old::load_ntriples_with_mode, &doc, mode);
            assert_eq!(result, want, "{mode:?}: {doc:?}");
            assert_same_tables(&pair, &old_pair, &format!("{mode:?}: {doc:?}"));
        }
    });
    assert!(triples > 2_000 && errors > 2_000, "{triples} triples, {errors} errors");
}

/// The same documents compile to the same `.mkb` bytes through either
/// loader: both benchmark profiles' pairs as written, and again with every
/// 97th line replaced by a shaped one — lenient loads give the same
/// reports, and where a strict load stops the builders hold the same lines.
#[test]
fn generated_pairs_compile_to_the_bytes_the_old_loader_compiled() {
    let mut rng = Rng::seed_from_u64(26);
    for profile in [profiles::bbc_dbpedia().scaled(0.05), profiles::yago_imdb().scaled(0.05)] {
        let d = generate(&profile);
        let clean = [write_ntriples(&d.pair, Side::Left), write_ntriples(&d.pair, Side::Right)];
        let dirty = clean.clone().map(|doc| {
            let lines = doc.lines().enumerate();
            lines.map(|(n, line)| if n % 97 == 96 { shaped_line(&mut rng) } else { line.to_owned() } + "\n").collect()
        });
        for (docs, mode) in [(&clean, ParseMode::Strict), (&dirty, ParseMode::Lenient), (&dirty, ParseMode::Strict)] {
            let [new, old] = [load_ntriples_with_mode as Loader, old::load_ntriples_with_mode].map(|loader| {
                let mut builder = KbPairBuilder::new();
                let results = [Side::Left, Side::Right].map(|side| loader(&mut builder, side, &docs[side.index()], mode));
                (results, builder.finish())
            });
            let context = format!("{} {mode:?}", profile.name);
            assert_eq!(new.0, old.0, "{context}");
            let failed = new.0.iter().filter(|result| result.is_err()).count();
            assert_eq!(failed > 0, docs == &dirty && mode == ParseMode::Strict, "{context}");
            assert_eq!(mkb_bytes(&new.1), mkb_bytes(&old.1), "{context}");
        }
    }
}

/// A Turtle document touching every construct `turtle.rs` knows.
const TURTLE_DOC: &str = "@prefix ex: <http://ex.org/> .\n\
PREFIX dbo: <http://dbpedia.org/ontology/>\n\
@base <http://base.org/> .\n\
# a comment\n\
ex:a a dbo:Thing ;\n\
    dbo:name \"The Fat Duck\"@en , 'Bray' ;\n\
    dbo:long \"\"\"multi\nline \"quoted\" text\"\"\" ;\n\
    dbo:alt '''single ''' ;\n\
    dbo:year \"1995\"^^<http://www.w3.org/2001/XMLSchema#gYear> ;\n\
    ex:chef ex:b , <rel> ;\n\
    .\n\
ex:b dbo:name \"Caf\\u00E9 \\\"東京\\\" \\\\\" . # trailing\n\
ex:cdé <http://p> \"x\" .\n";

#[test]
fn mutated_turtle_gives_triples_or_a_parse_error_never_a_panic() {
    let mut b = KbPairBuilder::new();
    assert_eq!(load_turtle(&mut b, Side::Left, TURTLE_DOC), Ok(10), "the seed document is well-formed");
    let mut inserts = nasty_bytes();
    inserts.extend([&b"@prefix"[..], b"PREFIX", b"\"\"\"", b"'''", b"@base", b" a ", b";", b",", b"[", b"("]);
    let mut rng = Rng::seed_from_u64(26);
    let (mut loaded, mut refused) = (0usize, 0usize);
    for mutant in 0..20_000 {
        let mut bytes = TURTLE_DOC.as_bytes().to_vec();
        for _ in 0..1 + rng.gen_range(0..4usize) {
            mutate(&mut rng, &mut bytes, &inserts);
        }
        let doc = String::from_utf8_lossy(&bytes).into_owned();
        let mut b = KbPairBuilder::new();
        match load_turtle(&mut b, Side::Left, &doc) {
            Ok(n) => {
                assert_eq!(b.finish().kb(Side::Left).triple_count(), n, "mutant {mutant}: {doc:?}");
                loaded += 1;
            }
            Err(err) => {
                assert!((1..=doc.lines().count() + 1).contains(&err.line), "mutant {mutant}: {err} in {doc:?}");
                refused += 1;
            }
        }
    }
    assert!(loaded > 2_000 && refused > 2_000, "{loaded} loaded, {refused} refused");
}
