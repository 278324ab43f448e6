//! minoaner-lint: the workspace determinism & concurrency linter.
//!
//! One subcommand, `check`: token-level rules R2, R6 and R7 over every
//! library file of the workspace, gated by the shrink-only allowlist in
//! `lint-allow.toml` (DESIGN.md §12). Std hash containers, the wall clock,
//! panics and `unwrap`/`expect` are clippy's job (`clippy.toml` and the
//! deny set in each crate's `lib.rs`); R7 ratchets the audited exceptions
//! to the panic lints.

// `unwrap`/`expect` are denied outside tests; each audited exception is
// an item- or statement-level `#[allow]` under a `// bound:` comment,
// counted per file in lint-allow.toml (minoaner-lint R7, DESIGN.md §12).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod allow;
pub mod lexer;
pub mod rules;

use allow::AllowEntry;
use rules::Violation;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Directories (workspace-relative prefixes) never scanned.
const SKIP_PREFIXES: &[&str] = &[
    "target",
    ".git",
    "crates/lint/tests/fixtures",
];

#[derive(Debug, Default)]
pub struct Report {
    /// Violations not covered by the allowlist.
    pub violations: Vec<Violation>,
    /// Allowlist policy failures (ratchet drift, stale entries, parse
    /// errors surfaced per entry).
    pub policy_errors: Vec<String>,
    /// Total files scanned.
    pub files_scanned: usize,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.policy_errors.is_empty()
    }

    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{}:{}: [{}] {}", v.path, v.line, v.rule, v.message);
        }
        for e in &self.policy_errors {
            let _ = writeln!(out, "allowlist: {e}");
        }
        let _ = writeln!(
            out,
            "minoaner-lint: {} file(s) scanned, {} violation(s), {} policy error(s)",
            self.files_scanned,
            self.violations.len(),
            self.policy_errors.len()
        );
        out
    }
}

/// Whether a workspace-relative path is a library source file the rules
/// read: `.rs` outside `tests/`, `benches/` and `examples/`, whose
/// determinism is not the product's.
fn scanned(rel: &str) -> bool {
    let test_like = ["tests/", "benches/", "examples/"]
        .iter()
        .any(|dir| rel.starts_with(dir) || rel.contains(&format!("/{dir}")));
    rel.ends_with(".rs") && !test_like && !SKIP_PREFIXES.iter().any(|p| rel.starts_with(p))
}

fn walk(dir: &Path, root: &Path, files: &mut Vec<(PathBuf, String)>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .map_err(|_| "path outside root".to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if SKIP_PREFIXES.iter().any(|p| rel == *p || rel.starts_with(&format!("{p}/"))) {
                continue;
            }
            walk(&path, root, files)?;
        } else if scanned(&rel) {
            files.push((path, rel));
        }
    }
    Ok(())
}

/// Run every rule over every workspace file, then apply the allowlist.
pub fn run_check(root: &Path, allow_path: &Path) -> Result<Report, String> {
    let mut report = Report::default();

    // A missing allowlist is an empty allowlist.
    let allow_src = std::fs::read_to_string(allow_path).unwrap_or_default();
    let entries = allow::parse(&allow_src)?;

    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.1.cmp(&b.1));
    report.files_scanned = files.len();

    let mut all: Vec<Violation> = Vec::new();
    for (path, rel) in &files {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let toks = lexer::lex(&src);
        all.extend(rules::run_all(rel, &src, &toks));
    }
    apply_allowlist(&entries, all, &mut report);
    Ok(report)
}

fn apply_allowlist(entries: &[AllowEntry], all: Vec<Violation>, report: &mut Report) {
    // Count per (path, rule) to evaluate ratchets.
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for v in &all {
        *counts.entry((v.path.clone(), v.rule.to_string())).or_insert(0) += 1;
    }

    for e in entries {
        let actual = counts.get(&(e.path.clone(), e.rule.clone())).copied().unwrap_or(0);
        match e.count {
            None => {
                if actual == 0 {
                    report.policy_errors.push(format!(
                        "stale entry: {} has no {} violations any more — delete it",
                        e.path, e.rule
                    ));
                }
            }
            Some(max) => {
                if actual == 0 {
                    report.policy_errors.push(format!(
                        "stale entry: {} has no {} violations any more — delete it",
                        e.path, e.rule
                    ));
                } else if actual > max {
                    report.policy_errors.push(format!(
                        "{}: {} {} violations but lint-allow.toml allows {} — \
                         fix the new ones, the allowlist only shrinks",
                        e.path, actual, e.rule, max
                    ));
                } else if actual < max {
                    report.policy_errors.push(format!(
                        "ratchet: {} now has {} {} violations (allowlist says {}) — \
                         lower the count to {}",
                        e.path, actual, e.rule, max, actual
                    ));
                }
            }
        }
    }

    // A file over its count has every violation of the rule listed, so the
    // new one (an allow without its `// bound:`, say) can be found.
    let allowed = |v: &Violation| {
        entries.iter().any(|e| {
            e.path == v.path
                && e.rule == v.rule
                && e.count.map_or(true, |max| counts[&(v.path.clone(), v.rule.to_string())] <= max)
        })
    };
    report.violations = all.into_iter().filter(|v| !allowed(v)).collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_library_sources_are_scanned() {
        assert!(scanned("crates/kb/src/store.rs"));
        assert!(scanned("src/lib.rs"));
        assert!(!scanned("crates/kb/tests/x.rs"));
        assert!(!scanned("crates/eval/benches/ablations.rs"));
        assert!(!scanned("tools/loom-models/tests/loom_models.rs"));
        assert!(!scanned("tests/property_based.rs"));
        assert!(!scanned("examples/custom_pipeline.rs"));
        assert!(!scanned("crates/lint/tests/fixtures/bad/r2_float_accum.rs"));
        assert!(!scanned("README.md"));
    }

    #[test]
    fn ratchet_reports_drift_in_both_directions() {
        let entries = allow::parse(
            "[[allow]]\npath = \"a.rs\"\nrule = \"R7\"\ncount = 2\nreason = \"x\"",
        )
        .unwrap();
        let mk = |n: usize| {
            (0..n)
                .map(|i| Violation {
                    rule: "R7",
                    path: "a.rs".into(),
                    line: i as u32 + 1,
                    message: String::new(),
                })
                .collect::<Vec<_>>()
        };

        let mut r = Report::default();
        apply_allowlist(&entries, mk(2), &mut r);
        assert!(r.clean(), "{r:?}");

        let mut r = Report::default();
        apply_allowlist(&entries, mk(3), &mut r);
        assert_eq!(r.policy_errors.len(), 1);
        assert!(r.policy_errors[0].contains("only shrinks"));
        assert_eq!(r.violations.len(), 3, "an exceeded count lists the file's violations");

        let mut r = Report::default();
        apply_allowlist(&entries, mk(1), &mut r);
        assert_eq!(r.policy_errors.len(), 1);
        assert!(r.policy_errors[0].contains("lower the count"));

        let mut r = Report::default();
        apply_allowlist(&entries, mk(0), &mut r);
        assert!(r.policy_errors[0].contains("stale"));
    }
}
