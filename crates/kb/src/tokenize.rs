//! Tokenization and normalization of literal values.
//!
//! MinoanER's value similarity (§2.1) works on the *tokens* (single words)
//! appearing in attribute values, case-insensitively; numbers and dates are
//! handled like strings (footnote 4). Name matching (§3.1) compares whole
//! normalized literals.

use std::borrow::Cow;

/// True when `to_lowercase` would leave the token unchanged. Checked per
/// char because `str::to_lowercase` folds chars independently; `is_uppercase`
/// alone would miss titlecase letters (e.g. `ǅ`) and multi-char expansions.
fn already_lowercase(token: &str) -> bool {
    token.chars().all(|c| {
        let mut lc = c.to_lowercase();
        lc.next() == Some(c) && lc.next().is_none()
    })
}

/// Splits a literal into lower-cased alphanumeric tokens.
///
/// A token is a maximal run of alphanumeric characters; everything else
/// (whitespace, punctuation, symbols) is a separator. Tokens that are
/// already lowercase — the overwhelming majority in real KBs, where values
/// pass through [`normalize_name`] first — are borrowed straight from the
/// input; only tokens that actually need Unicode case-folding allocate.
pub fn tokenize(value: &str) -> impl Iterator<Item = Cow<'_, str>> + '_ {
    value
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| {
            if already_lowercase(t) {
                Cow::Borrowed(t)
            } else {
                Cow::Owned(t.to_lowercase())
            }
        })
}

/// Normalizes a literal for whole-value (name) comparison: lowercase, with
/// every separator run collapsed to a single space and outer whitespace
/// trimmed. `"J.  Lake "` and `"j Lake"` normalize identically.
pub fn normalize_name(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    normalize_into(value, &mut out);
    out
}

/// What the ASCII pass of [`normalize_into`] makes of each byte: an
/// alphanumeric byte is its own lowercase, any other ASCII byte is
/// [`SEP`], and a byte past ASCII is [`WIDE`].
static BYTE_CLASS: [u8; 256] = byte_classes();

/// A separator byte: whitespace, punctuation, a control or a symbol.
const SEP: u8 = 0;

/// A byte of a multi-byte char: the value takes the char path.
const WIDE: u8 = 0x80;

const fn byte_classes() -> [u8; 256] {
    let mut classes = [WIDE; 256];
    let mut b = 0u8;
    #[expect(clippy::indexing_slicing, reason = "bound: `b < 0x80`, below the table's 256 entries.")]
    while b < 0x80 {
        classes[b as usize] = if b.is_ascii_alphanumeric() { b.to_ascii_lowercase() } else { SEP };
        b += 1;
    }
    classes
}

/// [`normalize_name`] of `value` into `out`, which is cleared first — the
/// loader normalizes every literal into one buffer it reuses.
pub(crate) fn normalize_into(value: &str, out: &mut String) {
    normalize_words(value, out, |_, _| ());
}

/// [`normalize_into`], calling `word` with each word of the normal form in
/// order as it is written (the runs its single spaces separate), and
/// whether the word is ASCII.
///
/// An all-ASCII value takes one pass through [`BYTE_CLASS`], which ends a
/// word where it writes the space after it. A value with a byte past
/// ASCII goes char by char through the Unicode tables instead, and its
/// normal form is split at its spaces afterwards.
pub(crate) fn normalize_words(value: &str, out: &mut String, mut word: impl FnMut(&str, bool)) {
    out.clear();
    if !value.is_ascii() {
        normalize_chars(value, out);
        out.split(' ').filter(|w| !w.is_empty()).for_each(|w| word(w, w.is_ascii()));
        return;
    }
    let (mut pending_sep, mut start) = (false, 0);
    for &b in value.as_bytes() {
        let class = BYTE_CLASS.get(usize::from(b)).copied().unwrap_or(SEP);
        if class == SEP {
            pending_sep = true;
            continue;
        }
        if pending_sep && !out.is_empty() {
            word(out.get(start..).unwrap_or_default(), true);
            out.push(' ');
            start = out.len();
        }
        pending_sep = false;
        out.push(char::from(class));
    }
    if !out.is_empty() {
        word(out.get(start..).unwrap_or_default(), true);
    }
}

/// The char path of [`normalize_into`]: `value`'s normal form into `out`,
/// which is cleared first, classifying and folding through the Unicode
/// tables.
fn normalize_chars(value: &str, out: &mut String) {
    out.clear();
    let mut pending_sep = false;
    for c in value.chars() {
        if c.is_alphanumeric() {
            if pending_sep && !out.is_empty() {
                out.push(' ');
            }
            pending_sep = false;
            out.extend(c.to_lowercase());
        } else {
            pending_sep = true;
        }
    }
}

/// Extracts the local name of a URI (the part after the last `/`, `#` or
/// `:`), used when a URI value points outside the KB and must be treated as
/// a literal.
pub fn uri_local_name(uri: &str) -> &str {
    uri.rsplit(['/', '#', ':']).next().unwrap_or(uri)
}

/// Extracts the namespace (vocabulary) prefix of a URI: everything up to and
/// including the last `/` or `#`. Used for the Table 1 "vocabularies"
/// statistic.
pub fn uri_namespace(uri: &str) -> &str {
    match uri.rfind(['/', '#']) {
        Some(i) => &uri[..=i],
        None => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_splits_on_non_alphanumeric() {
        let toks: Vec<_> = tokenize("The Fat Duck, Bray (UK)").collect();
        assert_eq!(toks, vec!["the", "fat", "duck", "bray", "uk"]);
    }

    #[test]
    fn tokenize_keeps_numbers_and_dates() {
        let toks: Vec<_> = tokenize("founded 1995-08-24").collect();
        assert_eq!(toks, vec!["founded", "1995", "08", "24"]);
    }

    #[test]
    fn tokenize_empty_and_punct_only() {
        assert_eq!(tokenize("").count(), 0);
        assert_eq!(tokenize("--- !!!").count(), 0);
    }

    #[test]
    fn tokenize_is_lowercase() {
        let toks: Vec<_> = tokenize("DBpedia YAGO").collect();
        assert_eq!(toks, vec!["dbpedia", "yago"]);
    }

    #[test]
    fn tokenize_borrows_when_already_lowercase() {
        let toks: Vec<_> = tokenize("already lowercase 42, But Not This").collect();
        assert!(matches!(toks[0], Cow::Borrowed("already")));
        assert!(matches!(toks[1], Cow::Borrowed("lowercase")));
        assert!(matches!(toks[2], Cow::Borrowed("42")));
        assert!(matches!(toks[3], Cow::Owned(_)));
        assert_eq!(toks[3], "but");
    }

    #[test]
    fn tokenize_folds_titlecase_and_multichar_lowercases() {
        // ǅ (titlecase, not uppercase) must still fold; İ expands to two
        // chars under to_lowercase.
        let toks: Vec<_> = tokenize("ǅungla İstanbul").collect();
        assert_eq!(toks[0], "ǆungla");
        assert!(matches!(toks[0], Cow::Owned(_)));
        assert!(matches!(toks[1], Cow::Owned(_)));
    }

    #[test]
    fn normalize_name_collapses_separators() {
        assert_eq!(normalize_name("J.  Lake "), "j lake");
        assert_eq!(normalize_name("j Lake"), "j lake");
        assert_eq!(normalize_name("  The--Fat Duck"), "the fat duck");
    }

    #[test]
    fn normalize_into_clears_its_buffer_and_restarts_past_ascii() {
        let mut out = "x".to_owned();
        normalize_into("Ab-İstanbul Café", &mut out);
        assert_eq!(out, "ab i\u{307}stanbul café");
        normalize_into("!?", &mut out);
        assert_eq!(out, "");
    }

    #[test]
    fn normalize_into_never_emits_nul() {
        // A normal form holds alphanumerics and spaces only: no control
        // byte such as NUL.
        let mut out = String::new();
        // The byte-class path: what it emits of a byte is its class, a
        // separator as one space, and a byte past ASCII takes the char path.
        for b in 0..=255u8 {
            let class = BYTE_CLASS[usize::from(b)];
            assert!(class == SEP || class == WIDE || class.is_ascii_alphanumeric(), "byte {b:#04x}");
        }
        let ascii: String = (0..0x80u8).map(char::from).collect();
        for value in [ascii.clone(), format!("a{ascii}b"), "\0a\0\0b\0".to_owned()] {
            normalize_into(&value, &mut out);
            assert!(!out.contains('\0') && out.is_ascii(), "{value:?} → {out:?}");
        }
        // The char path: every byte again, each as a char beside a char
        // past ASCII, and a sample of the rest of Unicode.
        let chars = (0..=255u8).map(char::from).chain((0x100..=0x10_ffff).step_by(61).filter_map(char::from_u32));
        for c in chars {
            for value in [format!("é{c}\0{c}A"), format!("{c}é{c}")] {
                normalize_into(&value, &mut out);
                assert!(!out.contains('\0'), "{value:?} → {out:?}");
            }
        }
    }

    #[test]
    fn normalize_name_empty() {
        assert_eq!(normalize_name(""), "");
        assert_eq!(normalize_name("!!"), "");
    }

    #[test]
    fn uri_local_name_variants() {
        assert_eq!(uri_local_name("http://example.org/resource/Bray"), "Bray");
        assert_eq!(uri_local_name("http://example.org/onto#headChef"), "headChef");
        assert_eq!(uri_local_name("plain"), "plain");
    }

    #[test]
    fn uri_namespace_variants() {
        assert_eq!(uri_namespace("http://example.org/resource/Bray"), "http://example.org/resource/");
        assert_eq!(uri_namespace("http://example.org/onto#headChef"), "http://example.org/onto#");
        assert_eq!(uri_namespace("plain"), "");
    }
}
