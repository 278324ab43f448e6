//! `lint-allow.toml` — the checked-in, ratcheted allowlist.
//!
//! Two entry shapes:
//!
//! ```toml
//! # Blanket: every violation of `rule` in `path` is accepted — for a
//! # file whose job is the thing the rule forbids. `reason` is mandatory.
//! [[allow]]
//! path = "crates/eval/src/sums.rs"
//! rule = "R2"
//! reason = "a float sum over a map whose order is fixed by construction"
//!
//! # Ratcheted: exactly `count` violations are accepted. More fails the
//! # build; fewer also fails, with a message telling you to lower the
//! # count — the list can only shrink.
//! [[allow]]
//! path = "crates/kb/src/store.rs"
//! rule = "R7"
//! count = 3
//! reason = "per-entity columns indexed by entity ids of the KB"
//! ```
//!
//! Parsed by hand (TOML subset) because the lint crate must build with
//! zero dependencies.

#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub path: String,
    pub rule: String,
    pub count: Option<usize>,
    pub reason: String,
    pub line: u32,
}

pub fn parse(src: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut current: Option<AllowEntry> = None;

    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(e) = current.take() {
                finish(e, &mut entries)?;
            }
            current = Some(AllowEntry {
                path: String::new(),
                rule: String::new(),
                count: None,
                reason: String::new(),
                line: lineno,
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("lint-allow.toml:{lineno}: expected `key = value`, got `{line}`"));
        };
        let Some(entry) = current.as_mut() else {
            return Err(format!(
                "lint-allow.toml:{lineno}: `{}` outside of a [[allow]] entry",
                key.trim()
            ));
        };
        let key = key.trim();
        let value = value.trim();
        match key {
            "path" => entry.path = unquote(value, lineno)?,
            "rule" => entry.rule = unquote(value, lineno)?,
            "reason" => entry.reason = unquote(value, lineno)?,
            "count" => {
                entry.count = Some(value.parse::<usize>().map_err(|_| {
                    format!("lint-allow.toml:{lineno}: count must be an integer, got `{value}`")
                })?);
            }
            _ => return Err(format!("lint-allow.toml:{lineno}: unknown key `{key}`")),
        }
    }
    if let Some(e) = current.take() {
        finish(e, &mut entries)?;
    }
    Ok(entries)
}

fn finish(e: AllowEntry, entries: &mut Vec<AllowEntry>) -> Result<(), String> {
    if e.path.is_empty() || e.rule.is_empty() {
        return Err(format!(
            "lint-allow.toml:{}: entry needs both `path` and `rule`",
            e.line
        ));
    }
    if e.reason.is_empty() {
        return Err(format!(
            "lint-allow.toml:{}: entry for {} {} needs a `reason`",
            e.line, e.path, e.rule
        ));
    }
    if e.count == Some(0) {
        return Err(format!(
            "lint-allow.toml:{}: count = 0 — delete the entry instead",
            e.line
        ));
    }
    if entries.iter().any(|x| x.path == e.path && x.rule == e.rule) {
        return Err(format!(
            "lint-allow.toml:{}: duplicate entry for {} {}",
            e.line, e.path, e.rule
        ));
    }
    entries.push(e);
    Ok(())
}

fn unquote(value: &str, lineno: u32) -> Result<String, String> {
    let v = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("lint-allow.toml:{lineno}: expected a quoted string, got `{value}`"))?;
    Ok(v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_blanket_and_ratcheted_entries() {
        let src = r#"
# comment
[[allow]]
path = "crates/eval/src/sums.rs"
rule = "R2"
reason = "fixed order"

[[allow]]
path = "crates/kb/src/store.rs"
rule = "R7"
count = 3
reason = "interner ids"
"#;
        let entries = parse(src).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].count, None);
        assert_eq!(entries[1].count, Some(3));
    }

    #[test]
    fn rejects_zero_count_missing_reason_and_duplicates() {
        assert!(parse("[[allow]]\npath = \"a\"\nrule = \"R7\"\ncount = 0\nreason = \"x\"")
            .is_err());
        assert!(parse("[[allow]]\npath = \"a\"\nrule = \"R7\"\ncount = 1").is_err());
        let dup = "[[allow]]\npath = \"a\"\nrule = \"R7\"\ncount = 1\nreason = \"x\"\n\
                   [[allow]]\npath = \"a\"\nrule = \"R7\"\ncount = 2\nreason = \"y\"";
        assert!(parse(dup).is_err());
    }
}
