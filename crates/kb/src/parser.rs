//! Parsers for the on-disk formats of the paper's benchmark datasets:
//! an N-Triples subset for the KBs and a two-column pair list for the
//! ground truth. With these, the real Restaurant / Rexa-DBLP /
//! BBCmusic-DBpedia / YAGO-IMDb dumps can be dropped into the pipeline.

use crate::model::Side;
use crate::store::{KbPairBuilder, Term};
use std::borrow::Cow;
use std::fmt;

/// A parse failure, with the 1-based line number where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A line-level N-Triples syntax failure, before the loader attaches a
/// line number. Each variant names one way a line can go wrong, so
/// callers can match on the failure class instead of a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyntaxError {
    /// A subject or predicate position did not start with `<`.
    ExpectedUri { found: Option<char> },
    /// A `<...>` term was never closed.
    UnterminatedUri,
    /// An object position started with neither `<` nor `"`.
    ExpectedObject { found: Option<char> },
    /// A `"..."` literal was never closed.
    UnterminatedLiteral,
    /// The statement was not terminated by `.`.
    MissingTerminator,
}

impl fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let found = |f: &mut fmt::Formatter<'_>, c: &Option<char>| match c {
            Some(c) => write!(f, ", found {c:?}"),
            None => write!(f, ", found end of line"),
        };
        match self {
            SyntaxError::ExpectedUri { found: c } => {
                write!(f, "expected '<'")?;
                found(f, c)
            }
            SyntaxError::UnterminatedUri => write!(f, "unterminated URI"),
            SyntaxError::ExpectedObject { found: c } => {
                write!(f, "expected '<' or '\"'")?;
                found(f, c)
            }
            SyntaxError::UnterminatedLiteral => write!(f, "unterminated literal"),
            SyntaxError::MissingTerminator => write!(f, "expected terminating '.'"),
        }
    }
}

impl std::error::Error for SyntaxError {}

impl SyntaxError {
    /// Attaches a 1-based line number, producing the loader-level error.
    pub fn at_line(self, line: usize) -> ParseError {
        ParseError { line, message: self.to_string() }
    }
}

/// How a loader reacts to malformed lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParseMode {
    /// Fail the whole load on the first malformed line (the default, and
    /// what the round-trip tests rely on).
    #[default]
    Strict,
    /// Skip malformed lines, recording them in the [`ParseReport`].
    Lenient,
}

/// Maximum number of per-line errors a lenient load keeps verbatim; the
/// `skipped` counter is always exact.
pub const MAX_REPORTED_ERRORS: usize = 8;

/// Outcome of a (possibly lenient) N-Triples load.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParseReport {
    /// Triples successfully loaded into the builder.
    pub parsed: usize,
    /// Malformed lines skipped (lenient mode only; always 0 in strict).
    pub skipped: usize,
    /// The first [`MAX_REPORTED_ERRORS`] skipped lines, with line numbers.
    pub first_errors: Vec<ParseError>,
}

impl ParseReport {
    /// Counts one skipped line, keeping the error if under the cap.
    pub fn record_skip(&mut self, err: ParseError) {
        self.skipped += 1;
        if self.first_errors.len() < MAX_REPORTED_ERRORS {
            self.first_errors.push(err);
        }
    }
}

impl fmt::Display for ParseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} triples parsed, {} malformed lines skipped", self.parsed, self.skipped)?;
        if let Some(first) = self.first_errors.first() {
            write!(f, " (first: {first})")?;
        }
        Ok(())
    }
}

/// One parsed triple, borrowed from the input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Triple<'a> {
    pub subject: &'a str,
    pub predicate: &'a str,
    pub object: Term<'a>,
}

/// Parses one N-Triples line. Returns `Ok(None)` for blank lines and
/// `#` comments.
///
/// Supported: `<uri>` terms, `"literal"` objects (returned still escaped —
/// see [`unescape`]), optional `@lang` tags and `^^<datatype>` suffixes
/// (both ignored), and the terminating `.`.
pub fn parse_line(line: &str) -> Result<Option<Triple<'_>>, SyntaxError> {
    scan_line(line).map(|scanned| scanned.map(|(triple, _)| triple))
}

/// [`parse_line`], and whether the object is a literal holding a
/// backslash — the only literals [`unescape`] can change.
///
/// Every delimiter of the grammar is ASCII, so the terms are found by
/// searching bytes, and each term by one search for one of two bytes
/// ([`find_either`]): `>` or `<` in a URI, `"` or `\` in a literal. A UTF-8
/// continuation byte never equals a delimiter, which makes every split
/// point a char boundary.
pub(crate) fn scan_line(line: &str) -> Result<Option<(Triple<'_>, bool)>, SyntaxError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let rest = trimmed;
    let (subject, rest) = take_uri(rest)?;
    let rest = rest.trim_start();
    let (predicate, rest) = take_uri(rest)?;
    let rest = rest.trim_start();
    let (object, escaped, rest) = take_object(rest)?;
    let rest = rest.trim_start();
    if !rest.starts_with('.') {
        return Err(SyntaxError::MissingTerminator);
    }
    Ok(Some((Triple { subject, predicate, object }, escaped)))
}

fn take_uri(s: &str) -> Result<(&str, &str), SyntaxError> {
    let rest = s.strip_prefix('<').ok_or_else(|| SyntaxError::ExpectedUri { found: s.chars().next() })?;
    // '<' cannot occur inside an IRIREF: seeing one before the '>' means
    // the URI was never closed and the scanner ran into the next term.
    match find_either(rest.as_bytes(), b'>', b'<') {
        Some(end) if rest.as_bytes().get(end) == Some(&b'>') => Ok((&rest[..end], &rest[end + 1..])),
        _ => Err(SyntaxError::UnterminatedUri),
    }
}

/// The object term, whether it is a literal holding a backslash, and what
/// follows it.
fn take_object(s: &str) -> Result<(Term<'_>, bool, &str), SyntaxError> {
    if s.starts_with('<') {
        let (uri, rest) = take_uri(s)?;
        return Ok((Term::Uri(uri), false, rest));
    }
    let rest = s.strip_prefix('"').ok_or_else(|| SyntaxError::ExpectedObject { found: s.chars().next() })?;
    // Find the closing unescaped quote. A backslash escapes the next char;
    // skipping one byte of it is enough, the rest cannot be a delimiter.
    let bytes = rest.as_bytes();
    let (mut i, mut escaped) = (0, false);
    while let Some(step) = bytes.get(i..).and_then(|tail| find_either(tail, b'"', b'\\')) {
        i += step;
        if bytes.get(i) == Some(&b'\\') {
            escaped = true;
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
        return Ok((Term::Literal(lit), escaped, tail));
    }
    Err(SyntaxError::UnterminatedLiteral)
}

/// Eight `0x01` bytes: a byte value times this is that byte in every lane.
const LANES: u64 = 0x0101_0101_0101_0101;

/// The position of the first `a` or `b` in `bytes`, found a little-endian
/// `u64` word at a time: per word, each lane that equals `a` or `b` becomes
/// zero under an XOR, and [`zero_lanes`] marks the zero lanes.
fn find_either(bytes: &[u8], a: u8, b: u8) -> Option<usize> {
    let (all_a, all_b) = (LANES * u64::from(a), LANES * u64::from(b));
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for eight in &mut words {
        let mut word = [0u8; 8];
        word.copy_from_slice(eight);
        let word = u64::from_le_bytes(word);
        let hits = zero_lanes(word ^ all_a) | zero_lanes(word ^ all_b);
        if hits != 0 {
            // Lane k of a little-endian word is byte k.
            return Some(at + (hits.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    words.remainder().iter().position(|&c| c == a || c == b).map(|k| at + k)
}

/// The high bit of every zero byte lane of `x`, and possibly of lanes above
/// the lowest zero one (a borrow runs upwards out of a zero lane, never
/// down): so the lowest bit set is always the lowest zero lane, and `x`
/// has no zero lane exactly when the result is 0.
fn zero_lanes(x: u64) -> u64 {
    x.wrapping_sub(LANES) & !x & (LANES << 7)
}

/// Decodes the N-Triples string escapes of a literal [`parse_line`]
/// returned: `\t \b \n \r \f \" \' \\` and the numeric `\uXXXX` /
/// `\UXXXXXXXX`, which stand for the Unicode scalar value with that
/// hexadecimal number. A literal without a backslash — nearly all of them
/// — is returned borrowed.
///
/// Nothing is rejected: a numeric escape with too few hex digits, or one
/// that names a surrogate or a value past U+10FFFF (so a surrogate *pair*
/// too, which N-Triples does not allow), stays in the output as written; a
/// backslash before any other char is dropped and the char kept; a
/// trailing lone backslash is kept.
pub fn unescape(lit: &str) -> Cow<'_, str> {
    if !lit.contains('\\') {
        return Cow::Borrowed(lit);
    }
    let mut out = String::with_capacity(lit.len());
    unescape_into(lit, &mut out);
    Cow::Owned(out)
}

/// Appends [`unescape`] of `lit` to `out` — the loader decodes every
/// escaped literal into one buffer it reuses.
pub(crate) fn unescape_into(lit: &str, out: &mut String) {
    let mut chars = lit.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('b') => out.push('\u{8}'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('f') => out.push('\u{c}'),
            Some(u @ ('u' | 'U')) => {
                let digits = if u == 'u' { 4 } else { 8 };
                let hex = chars.as_str();
                let scalar = hex
                    .get(..digits)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .and_then(char::from_u32);
                match scalar {
                    Some(c) => {
                        out.push(c);
                        chars = hex[digits..].chars();
                    }
                    None => out.extend(['\\', u]),
                }
            }
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
}

/// Loads an N-Triples document into one side of a [`KbPairBuilder`],
/// failing on the first malformed line. Equivalent to
/// [`load_ntriples_with_mode`] with [`ParseMode::Strict`].
pub fn load_ntriples(builder: &mut KbPairBuilder, side: Side, input: &str) -> Result<usize, ParseError> {
    load_ntriples_with_mode(builder, side, input, ParseMode::Strict).map(|r| r.parsed)
}

/// Loads an N-Triples document into one side of a [`KbPairBuilder`].
///
/// In [`ParseMode::Strict`] the first malformed line aborts the load with
/// its line number. In [`ParseMode::Lenient`] malformed lines are skipped
/// and counted; the returned [`ParseReport`] carries the exact skip count
/// and the first few offending lines. Web-scale dumps (the YAGO-IMDb
/// setting of §6) are routinely dirty, so the pipeline defaults to
/// lenient ingestion at the CLI while the test-suite stays strict.
pub fn load_ntriples_with_mode(
    builder: &mut KbPairBuilder,
    side: Side,
    input: &str,
    mode: ParseMode,
) -> Result<ParseReport, ParseError> {
    let mut report = ParseReport::default();
    let mut unescaped = String::new();
    for (n, line) in input.lines().enumerate() {
        match scan_line(line) {
            Ok(None) => {}
            Ok(Some((t, escaped))) => {
                let object = match t.object {
                    Term::Literal(l) if escaped => {
                        unescaped.clear();
                        unescape_into(l, &mut unescaped);
                        Term::Literal(&unescaped)
                    }
                    object => object,
                };
                builder.add_triple(side, t.subject, t.predicate, object);
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

/// Serializes one side of a [`crate::store::KbPair`] back to N-Triples.
/// Literals are written in their normalized form; entity references become
/// URI objects. `load_ntriples` of the output reconstructs an equivalent
/// KB (round-trip property, tested in the integration suite).
pub fn write_ntriples(pair: &crate::store::KbPair, side: Side) -> String {
    use std::fmt::Write as _;
    let kb = pair.kb(side);
    let mut out = String::new();
    for (id, e) in kb.iter() {
        let subject = pair.uri_of(side, id);
        for &(a, v) in e.pairs {
            let predicate = pair.attrs().resolve(crate::interner::Symbol(a.0));
            match v {
                crate::model::Value::Literal(l) => {
                    let lit = pair.literals().resolve(crate::interner::Symbol(l.0));
                    let escaped = lit.replace('\\', "\\\\").replace('"', "\\\"");
                    let _ = writeln!(out, "<{subject}> <{predicate}> \"{escaped}\" .");
                }
                crate::model::Value::Ref(t) => {
                    let _ = writeln!(out, "<{subject}> <{predicate}> <{}> .", pair.uri_of(side, t));
                }
            }
        }
    }
    out
}

/// Parses a ground-truth pair list: one `left-uri <TAB> right-uri` (or
/// whitespace-separated) pair per line; blank lines and `#` comments are
/// skipped. URIs may be bare or angle-bracketed.
pub fn parse_ground_truth(input: &str) -> Result<Vec<(String, String)>, ParseError> {
    let mut out = Vec::new();
    for (n, line) in input.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
            return Err(ParseError { line: n + 1, message: "expected two URIs".to_owned() });
        };
        let strip = |s: &str| s.trim_start_matches('<').trim_end_matches('>').to_owned();
        out.push((strip(a), strip(b)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Side;

    #[test]
    fn parses_uri_object() {
        let t = parse_line("<http://a> <http://p> <http://b> .").unwrap().unwrap();
        assert_eq!(t.subject, "http://a");
        assert_eq!(t.predicate, "http://p");
        assert_eq!(t.object, Term::Uri("http://b"));
    }

    #[test]
    fn parses_literal_object() {
        let t = parse_line(r#"<http://a> <http://p> "The Fat Duck" ."#).unwrap().unwrap();
        assert_eq!(t.object, Term::Literal("The Fat Duck"));
    }

    #[test]
    fn parses_literal_with_lang_and_datatype() {
        let t = parse_line(r#"<a> <p> "Bray"@en ."#).unwrap().unwrap();
        assert_eq!(t.object, Term::Literal("Bray"));
        let t = parse_line(r#"<a> <p> "1995"^^<http://www.w3.org/2001/XMLSchema#gYear> ."#)
            .unwrap()
            .unwrap();
        assert_eq!(t.object, Term::Literal("1995"));
    }

    #[test]
    fn parses_escaped_quote_inside_literal() {
        let t = parse_line(r#"<a> <p> "he said \"hi\"" ."#).unwrap().unwrap();
        assert_eq!(t.object, Term::Literal(r#"he said \"hi\""#));
        assert_eq!(unescape(r#"he said \"hi\""#), r#"he said "hi""#);
    }

    #[test]
    fn find_either_is_the_first_of_two_bytes_at_every_offset() {
        // Either byte, both or neither at every position of every length
        // across three words, among filler bytes that include the ones a
        // word-at-a-time test can mistake for a match: one above a target
        // (a borrow out of a zero lane), 0x01, the targets with the high
        // bit set, and 0xFF.
        for filler in [b'a', b'#', b']', 0x01, 0xA2, 0xDC, 0xFF] {
            for len in 0..=25 {
                for at_a in (0..=len).rev() {
                    for at_b in [0, at_a / 2, at_a + 1, len] {
                        let mut hay = vec![filler; len];
                        if let Some(slot) = hay.get_mut(at_a) {
                            *slot = b'"';
                        }
                        if let Some(slot) = hay.get_mut(at_b) {
                            *slot = b'\\';
                        }
                        let want = hay.iter().position(|&c| c == b'"' || c == b'\\');
                        assert_eq!(find_either(&hay, b'"', b'\\'), want, "{hay:?}");
                        assert_eq!(find_either(&hay, b'\\', b'"'), want, "{hay:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn skips_blank_lines_and_comments() {
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("   # comment").unwrap(), None);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("<a> <p>").is_err());
        assert!(parse_line("<a> <p> <b>").is_err()); // missing '.'
        assert!(parse_line(r#"<a> <p> "unterminated ."#).is_err());
        assert!(parse_line("no-brackets <p> <b> .").is_err());
    }

    #[test]
    fn unescape_handles_common_escapes() {
        assert_eq!(unescape(r"a\nb"), "a\nb");
        assert_eq!(unescape(r"a\tb"), "a\tb");
        assert_eq!(unescape(r"a\\b"), "a\\b");
        assert_eq!(unescape("plain"), "plain");
    }

    #[test]
    fn unescape_borrows_when_there_is_nothing_to_decode() {
        assert!(matches!(unescape("plain café"), Cow::Borrowed("plain café")));
        assert!(matches!(unescape(r"a\tb"), Cow::Owned(_)));
    }

    #[test]
    fn unescape_decodes_numeric_escapes_to_the_scalar_value() {
        assert_eq!(unescape(r"caf\u00E9"), "café");
        assert_eq!(unescape(r"caf\u00e9 \u6771\u4EAC!"), "café 東京!");
        assert_eq!(unescape(r"\U0001F600"), "\u{1F600}");
        assert_eq!(unescape(r"a\U000000E9b"), "aéb");
        assert_eq!(unescape(r"\b\f\'"), "\u{8}\u{c}'");
        // The digits after a complete escape are text.
        assert_eq!(unescape(r"\u00E99"), "é9");
    }

    #[test]
    fn unescape_keeps_malformed_numeric_escapes_as_written() {
        for kept in [
            r"\u12",        // too few digits
            r"\u12G4",      // not hexadecimal
            r"\u+0E9",      // a sign is not a digit
            r"\uD800",      // surrogate
            r"\uD83D\uDE00", // surrogate pair: not N-Triples
            r"\U00110000",  // past U+10FFFF
            r"\U0001F60",   // too few digits
            r"\u00é9",      // a multi-byte char inside the digits
        ] {
            assert_eq!(unescape(kept), kept);
        }
        assert_eq!(unescape(r"x\uD800\n"), "x\\uD800\n");
        assert_eq!(unescape("trailing\\"), "trailing\\");
        assert_eq!(unescape(r"\u"), r"\u");
    }

    #[test]
    fn escaped_and_raw_spellings_intern_to_the_same_literal() {
        let doc = "<a> <p> \"caf\\u00E9 \\U0001F600\" .\n<b> <p> \"café \u{1F600}\" .\n";
        let mut b = KbPairBuilder::new();
        assert_eq!(load_ntriples(&mut b, Side::Left, doc).unwrap(), 2);
        b.add_triple(Side::Right, "x", "p", Term::Literal("y"));
        let pair = b.finish();
        let kb = pair.kb(Side::Left);
        let values: Vec<_> = kb.iter().map(|(_, e)| e.pairs).collect();
        assert_eq!(values[0], values[1], "same attribute, same LiteralId");
        assert_eq!(kb.tokens_of(crate::model::EntityId(0)), kb.tokens_of(crate::model::EntityId(1)));
        assert!(pair.literals().get("café").is_some());
        assert!(pair.tokens().get("café").is_some());
        assert!(pair.tokens().get("u00e9").is_none(), "the escape must not leak a token");
    }

    #[test]
    fn load_ntriples_end_to_end() {
        let doc = r#"
# restaurants
<http://w/Restaurant1> <http://w/label> "The Fat Duck" .
<http://w/Restaurant1> <http://w/hasChef> <http://w/JohnLakeA> .
<http://w/JohnLakeA> <http://w/label> "John Lake A" .
"#;
        let mut b = KbPairBuilder::new();
        let n = load_ntriples(&mut b, Side::Left, doc).unwrap();
        assert_eq!(n, 3);
        b.add_triple(Side::Right, "x", "p", Term::Literal("y"));
        let pair = b.finish();
        assert_eq!(pair.kb(Side::Left).len(), 2);
        let r1 = pair
            .kb(Side::Left)
            .entity_by_uri(pair.uris().get("http://w/Restaurant1").unwrap())
            .unwrap();
        assert_eq!(pair.kb(Side::Left).neighbors_of(r1).count(), 1);
    }

    #[test]
    fn load_ntriples_reports_line_numbers() {
        let doc = "<a> <p> <b> .\nbroken line\n";
        let mut b = KbPairBuilder::new();
        let err = load_ntriples(&mut b, Side::Left, doc).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn syntax_errors_name_the_failure_class() {
        assert_eq!(parse_line("<a> <p>").unwrap_err(), SyntaxError::ExpectedObject { found: None });
        assert_eq!(parse_line("<a> <p> <b>").unwrap_err(), SyntaxError::MissingTerminator);
        assert_eq!(
            parse_line(r#"<a> <p> "unterminated ."#).unwrap_err(),
            SyntaxError::UnterminatedLiteral
        );
        assert_eq!(
            parse_line("no-brackets <p> <b> .").unwrap_err(),
            SyntaxError::ExpectedUri { found: Some('n') }
        );
        assert_eq!(parse_line("<unclosed <p> <b> .").unwrap_err(), SyntaxError::UnterminatedUri);
        // The Display impl feeds ParseError's message; it must stay
        // human-readable and line-free (the loader adds the line).
        let msg = SyntaxError::ExpectedUri { found: Some('x') }.to_string();
        assert!(msg.contains("expected '<'") && msg.contains("'x'"), "{msg}");
        let e: Box<dyn std::error::Error> = Box::new(SyntaxError::UnterminatedUri);
        assert_eq!(e.to_string(), "unterminated URI");
    }

    #[test]
    fn lenient_load_skips_and_counts_exactly() {
        let doc = "<a> <p> <b> .\n\
                   garbage line one\n\
                   <c> <p> \"ok\" .\n\
                   <d> <p>\n\
                   # comment survives\n\
                   <e> <p> <f> .\n";
        let mut b = KbPairBuilder::new();
        let report = load_ntriples_with_mode(&mut b, Side::Left, doc, ParseMode::Lenient).unwrap();
        assert_eq!(report.parsed, 3);
        assert_eq!(report.skipped, 2);
        assert_eq!(report.first_errors.len(), 2);
        assert_eq!(report.first_errors[0].line, 2);
        assert_eq!(report.first_errors[1].line, 4);
        let shown = report.to_string();
        assert!(shown.contains("3 triples parsed") && shown.contains("2 malformed"), "{shown}");
    }

    #[test]
    fn lenient_report_caps_kept_errors_but_not_the_count() {
        let doc = "broken\n".repeat(MAX_REPORTED_ERRORS + 5);
        let mut b = KbPairBuilder::new();
        let report =
            load_ntriples_with_mode(&mut b, Side::Left, &doc, ParseMode::Lenient).unwrap();
        assert_eq!(report.parsed, 0);
        assert_eq!(report.skipped, MAX_REPORTED_ERRORS + 5);
        assert_eq!(report.first_errors.len(), MAX_REPORTED_ERRORS);
    }

    #[test]
    fn strict_mode_is_unchanged_by_the_mode_plumbing() {
        let doc = "<a> <p> <b> .\nbroken\n";
        let mut b = KbPairBuilder::new();
        let err =
            load_ntriples_with_mode(&mut b, Side::Left, doc, ParseMode::Strict).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn ground_truth_parsing() {
        let gt = "# pairs\n<http://a/1>\thttp://b/1\nhttp://a/2 http://b/2\n\n";
        let pairs = parse_ground_truth(gt).unwrap();
        assert_eq!(
            pairs,
            vec![
                ("http://a/1".to_owned(), "http://b/1".to_owned()),
                ("http://a/2".to_owned(), "http://b/2".to_owned()),
            ]
        );
        assert!(parse_ground_truth("only-one-uri").is_err());
    }
}
