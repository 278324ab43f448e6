//! A minimal Rust lexer sufficient for rule matching.
//!
//! The container this repo builds in has no network access, so `syn` is
//! unavailable; the rules instead run over a token stream produced here.
//! The lexer understands exactly the constructs that would otherwise cause
//! false positives in a grep: line comments, (nested) block comments,
//! string / raw-string / byte-string / char literals, and lifetimes. It
//! coalesces the two-character operators the rules care about (`::`, `+=`,
//! and friends) so rule patterns can match them as single tokens.

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Punct,
    Str,
    Char,
    Num,
    Lifetime,
}

#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

const TWO_CHAR_OPS: &[&str] = &[
    "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "..",
    "<<", ">>",
];

pub fn lex(src: &str) -> Vec<Tok> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    let count_lines = |s: &[u8]| s.iter().filter(|&&b| b == b'\n').count() as u32;

    while i < bytes.len() {
        let b = bytes[i];

        if b == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }

        // Line comment (covers `//`, `///`, `//!`).
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }

        // Block comment, nesting-aware.
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let start = i;
            i += 2;
            let mut depth = 1;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            line += count_lines(&bytes[start..i]);
            continue;
        }

        // Raw / byte strings: r"..", r#".."#, b"..", br#".."#.
        if matches!(b, b'r' | b'b') {
            if let Some(end) = try_raw_or_byte_string(bytes, i) {
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line,
                });
                line += count_lines(&bytes[i..end]);
                i = end;
                continue;
            }
        }

        // Plain string.
        if b == b'"' {
            let start = i;
            i += 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        i += 1;
                        break;
                    }
                    _ => i += 1,
                }
            }
            toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line,
            });
            line += count_lines(&bytes[start..i.min(bytes.len())]);
            continue;
        }

        // Char literal vs. lifetime.
        if b == b'\'' {
            if let Some(end) = try_char_literal(bytes, i) {
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
                i = end;
            } else {
                // Lifetime: consume the quote plus the identifier.
                i += 1;
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            continue;
        }

        // Number (rough: suffixes, underscores, exponents all swallowed).
        if b.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && (bytes[i].is_ascii_alphanumeric()
                    || bytes[i] == b'_'
                    || (bytes[i] == b'.'
                        && i + 1 < bytes.len()
                        && bytes[i + 1].is_ascii_digit()))
            {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: src[start..i].to_string(),
                line,
            });
            continue;
        }

        // Identifier / keyword.
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: src[start..i].to_string(),
                line,
            });
            continue;
        }

        // Punctuation, coalescing known two-char operators.
        // (`get`: a stray non-ASCII byte is no char boundary.)
        if let Some(pair) = src.get(i..i + 2) {
            if TWO_CHAR_OPS.contains(&pair) {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: pair.to_string(),
                    line,
                });
                i += 2;
                continue;
            }
        }
        toks.push(Tok {
            kind: TokKind::Punct,
            text: (b as char).to_string(),
            line,
        });
        i += 1;
    }

    toks
}

/// If position `i` starts a raw or byte string literal, return the index
/// one past its end. `i` must point at `r` or `b`.
fn try_raw_or_byte_string(bytes: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    // Prefix: r, b, br, rb.
    if bytes[j] == b'b' {
        j += 1;
        if j < bytes.len() && bytes[j] == b'r' {
            j += 1;
        }
    } else {
        j += 1; // the 'r'
    }

    let raw = bytes[i] == b'r' || (bytes[i] == b'b' && j > i + 1);
    if raw {
        let mut hashes = 0usize;
        while j < bytes.len() && bytes[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j >= bytes.len() || bytes[j] != b'"' {
            return None;
        }
        j += 1;
        // Scan for `"` followed by `hashes` `#`s.
        while j < bytes.len() {
            if bytes[j] == b'"' && bytes[j + 1..].iter().take(hashes).filter(|&&b| b == b'#').count() == hashes {
                return Some(j + 1 + hashes);
            }
            j += 1;
        }
        Some(bytes.len())
    } else {
        // b"...": plain byte string with escapes.
        if j >= bytes.len() || bytes[j] != b'"' {
            return None;
        }
        j += 1;
        while j < bytes.len() {
            match bytes[j] {
                b'\\' => j += 2,
                b'"' => return Some(j + 1),
                _ => j += 1,
            }
        }
        Some(bytes.len())
    }
}

/// If position `i` (pointing at `'`) starts a char literal (not a
/// lifetime), return the index one past the closing quote.
fn try_char_literal(bytes: &[u8], i: usize) -> Option<usize> {
    let j = i + 1;
    if j >= bytes.len() {
        return None;
    }
    if bytes[j] == b'\\' {
        // Escaped char: scan to the closing quote.
        let mut k = j + 2;
        while k < bytes.len() && bytes[k] != b'\'' {
            k += 1;
        }
        return (k < bytes.len()).then_some(k + 1);
    }
    // `'x'` is a char; `'x` followed by anything else is a lifetime. The
    // char is as wide as its UTF-8 lead byte says (`'é'` is two bytes,
    // `'€'` three, `'🦀'` four).
    let width = match bytes[j] {
        b'\'' => return None,
        0xF0.. => 4,
        0xE0.. => 3,
        0xC0.. => 2,
        _ => 1,
    };
    (bytes.get(j + width) == Some(&b'\'')).then_some(j + width + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_are_skipped() {
        let src = r####"
            // HashMap in a line comment
            /* HashMap /* nested */ still comment */
            let s = "HashMap in a string";
            let r = r#"HashMap in a raw string"#;
            let real = DetHashMap::default();
        "####;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()), "{ids:?}");
        assert!(ids.contains(&"DetHashMap".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(chars.len(), 1);
    }

    #[test]
    fn multi_byte_char_literals_are_one_token() {
        let toks = lex("fn f<'a>(x: &'a str) -> [char; 4] { ['é', '€', '🦀', 'x'] } // 'é");
        let count = |kind: TokKind| toks.iter().filter(|t| t.kind == kind).count();
        assert_eq!(count(TokKind::Char), 4);
        assert_eq!(count(TokKind::Lifetime), 2);
        assert_eq!(idents("let c = 'é'; let next = HashMap::new();")[2..], ["let", "next", "HashMap", "new"]);
        // Non-ASCII outside any literal is skipped byte by byte, not sliced.
        assert_eq!(idents("let é = 1; let ok = 2;"), ["let", "let", "ok"]);
    }

    #[test]
    fn two_char_ops_coalesce() {
        let toks = lex("total += x; let y = a::b;");
        assert!(toks.iter().any(|t| t.is_punct("+=")));
        assert!(toks.iter().any(|t| t.is_punct("::")));
    }

    #[test]
    fn line_numbers_track_multiline_constructs() {
        let src = "/* a\nb\nc */\nfoo";
        let toks = lex(src);
        assert_eq!(toks[0].text, "foo");
        assert_eq!(toks[0].line, 4);
    }
}
