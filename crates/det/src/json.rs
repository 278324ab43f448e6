//! The workspace's one JSON reader and writer, with an exact round trip.
//!
//! Every JSON document the workspace writes for people and tools — run
//! traces (`RunTrace::to_json`), job `status.json` files, the CLI's
//! `--json` rows and the lint reports — is built as a [`Json`] value and
//! printed by one canonical pretty-printer, so `parse(render(v)) == v` and
//! `render(parse(s)) == s` for every document written here.
//!
//! Deliberately not a general JSON library: numbers are the integers those
//! documents contain (anything an `i64` or a `u64` holds; no fractions or
//! exponents), and object key order is preserved as written (each document
//! chooses a stable, documented order).

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Wide enough for every `i64` and every `u64`.
    Num(i128),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object; the printer emits keys in this order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn num(n: usize) -> Json {
        Json::Num(n as i128)
    }

    /// An object of `members`, in the order given.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(members.into_iter().map(|(key, value)| (key.to_owned(), value)).collect())
    }

    /// Member lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// `None` for a negative number, too.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Canonical pretty print: two-space indent, `": "` after keys, arrays
    /// and objects expanded one element per line (empty ones inline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    pad(out, indent + 1);
                    escape_into(k, out);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(src, bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

/// Nesting the parser accepts: documents written here are at most four
/// deep, and the bound keeps a hostile `[[[[…` from exhausting the stack.
const MAX_DEPTH: usize = 64;

fn parse_value(src: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nested deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    match b {
        b'n' => expect_lit(bytes, pos, "null", Json::Null),
        b't' => expect_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => expect_lit(bytes, pos, "false", Json::Bool(false)),
        b'"' => parse_string(src, bytes, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(src, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(src, bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(src, bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        b'-' | b'0'..=b'9' => {
            let start = *pos;
            *pos += 1;
            while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
                *pos += 1;
            }
            src[start..*pos]
                .parse::<i128>()
                .map(Json::Num)
                .map_err(|e| format!("bad number at byte {start}: {e}"))
        }
        other => Err(format!("unexpected byte {:?} at {}", other as char, pos)),
    }
}

fn expect_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_string(src: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000c}'),
                    b'u' => {
                        let hex = src
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("unknown escape `\\{}`", other as char)),
                }
            }
            _ => {
                // Multi-byte UTF-8: copy the whole char.
                let c = src[*pos..].chars().next().ok_or("bad utf-8")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(1)),
            ("name".into(), Json::str("a \"b\"\nc\td")),
            ("flag".into(), Json::Bool(false)),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
            (
                "items".into(),
                Json::Arr(vec![Json::Num(-3), Json::Null, Json::str("x"), Json::Num(u64::MAX.into())]),
            ),
        ])
    }

    #[test]
    fn render_parse_is_identity() {
        let v = sample();
        let text = v.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        // And the re-render is byte-identical: exact round trip.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn key_order_is_preserved() {
        let text = sample().render();
        let sv = text.find("schema_version").unwrap();
        let items = text.find("items").unwrap();
        assert!(sv < items);
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_escapes() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("\"\\q\"").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1.5").is_err(), "integers only");
        assert!(Json::parse(&"[".repeat(100_000)).is_err(), "bounded nesting");
    }

    #[test]
    fn accessors() {
        let v = sample();
        assert_eq!(v.get("schema_version").and_then(Json::as_i64), Some(1));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(false));
        let items = v.get("items").and_then(Json::as_arr).expect("an array");
        assert_eq!(items.len(), 4);
        assert_eq!((items[0].as_i64(), items[0].as_u64()), (Some(-3), None));
        assert_eq!((items[3].as_i64(), items[3].as_u64()), (None, Some(u64::MAX)));
        assert!(v.get("missing").is_none());
    }
}
