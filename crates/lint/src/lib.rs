//! minoaner-lint: the workspace determinism & concurrency linter.
//!
//! Two subcommands:
//!
//! * `check` — token-level rules R1–R5 over every workspace file, gated by
//!   the shrink-only allowlist in `lint-allow.toml` (DESIGN.md §12).
//! * `effects` — the call-graph effect analysis (DESIGN.md §17): a symbol
//!   table and call graph over the whole workspace, per-function direct
//!   effect sets propagated to a fixpoint, checked against the declared
//!   contracts in `effect-contracts.toml`.
//!
//! Both emit a versioned machine-readable report via `--json`
//! ([`LINT_SCHEMA_VERSION`]), built on the exact-round-trip document model
//! in [`minoaner_det::json`].

pub mod allow;
pub mod contracts;
pub mod effects;
pub mod graph;
pub mod lexer;
pub mod rules;

use allow::AllowEntry;
use contracts::ContractResult;
use minoaner_det::json::Json;
use rules::{FileClass, Violation};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Version stamped into every `--json` report (`check` and `effects`).
/// Bump when the report shape changes; mirrors `TRACE_SCHEMA_VERSION` in
/// `minoaner_dataflow::trace`.
pub const LINT_SCHEMA_VERSION: i64 = 1;

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
    /// Raw (pre-allowlist) violation counts per rule.
    pub raw_counts: BTreeMap<&'static str, usize>,
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

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(LINT_SCHEMA_VERSION.into())),
            ("tool".into(), Json::str("minoaner-lint check")),
            (
                "violations".into(),
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| {
                            Json::Obj(vec![
                                ("rule".into(), Json::str(v.rule)),
                                ("path".into(), Json::str(&v.path)),
                                ("line".into(), Json::num(v.line as usize)),
                                ("message".into(), Json::str(&v.message)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "policy_errors".into(),
                Json::Arr(self.policy_errors.iter().map(Json::str).collect()),
            ),
            ("files_scanned".into(), Json::num(self.files_scanned)),
            (
                "raw_counts".into(),
                Json::Obj(
                    self.raw_counts
                        .iter()
                        .map(|(rule, n)| ((*rule).to_string(), Json::num(*n)))
                        .collect(),
                ),
            ),
            ("clean".into(), Json::Bool(self.clean())),
        ])
    }

    pub fn render_json(&self) -> String {
        self.to_json().render()
    }
}

/// Classify a workspace-relative file path, or `None` to skip it.
fn classify(rel: &str) -> Option<FileClass> {
    if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
        return None;
    }
    if !rel.ends_with(".rs") {
        return None;
    }
    if rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/")
    {
        return Some(FileClass::TestOrBench);
    }
    Some(FileClass::Library)
}

fn walk(dir: &Path, root: &Path, files: &mut Vec<(PathBuf, String, FileClass)>) -> Result<(), String> {
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
        } else if let Some(class) = classify(&rel) {
            files.push((path, rel, class));
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
    for (path, rel, class) in &files {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let toks = lexer::lex(&src);
        all.extend(rules::run_all(rel, *class, &src, &toks));
    }
    for v in &all {
        *report.raw_counts.entry(v.rule).or_insert(0) += 1;
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

    let allowed = |v: &Violation| {
        entries
            .iter()
            .any(|e| e.path == v.path && e.rule == v.rule)
    };
    report.violations = all.into_iter().filter(|v| !allowed(v)).collect();
}

// ───────────────────────── effect analysis driver ─────────────────────────

/// Result of `minoaner-lint effects`: the evaluated contracts plus the
/// coverage statistics the unresolved-call ratchet is measured against.
#[derive(Debug, Default)]
pub struct EffectsReport {
    pub results: Vec<ContractResult>,
    pub policy_errors: Vec<String>,
    pub files_scanned: usize,
    pub functions: usize,
    pub resolved_calls: usize,
    pub external_calls: usize,
    /// (caller path, call display, file, line, candidate count).
    pub unresolved: Vec<(String, String, String, u32, usize)>,
    pub unresolved_ceiling: Option<usize>,
}

impl EffectsReport {
    pub fn clean(&self) -> bool {
        self.policy_errors.is_empty()
            && self.results.iter().all(|r| r.open_violations().next().is_none())
    }

    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            let allowed = r.violations.iter().filter(|v| v.allowed_reason.is_some()).count();
            let open: Vec<_> = r.open_violations().collect();
            let _ = writeln!(
                out,
                "contract `{}`: {} root(s), {} reachable fn(s), {} open / {} allowed violation(s)",
                r.name,
                r.roots.len(),
                r.reachable,
                open.len(),
                allowed
            );
            for v in open {
                let _ = writeln!(
                    out,
                    "  {}:{}: {} has effect {} ({})",
                    v.file,
                    v.line,
                    v.function,
                    effects::effect_name(v.effect),
                    v.what
                );
                let _ = writeln!(out, "    via {}", v.witness.join(" -> "));
            }
        }
        for e in &self.policy_errors {
            let _ = writeln!(out, "contracts: {e}");
        }
        let _ = writeln!(
            out,
            "minoaner-lint effects: {} file(s), {} fn(s), {} resolved / {} external / {} unresolved call(s){}",
            self.files_scanned,
            self.functions,
            self.resolved_calls,
            self.external_calls,
            self.unresolved.len(),
            match self.unresolved_ceiling {
                Some(c) => format!(" (ceiling {c})"),
                None => String::new(),
            }
        );
        out
    }

    pub fn to_json(&self) -> Json {
        let contracts = self
            .results
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("name".into(), Json::str(&r.name)),
                    ("roots".into(), Json::Arr(r.roots.iter().map(Json::str).collect())),
                    ("reachable_functions".into(), Json::num(r.reachable)),
                    (
                        "forbid".into(),
                        Json::Arr(effects::mask_names(r.forbid).into_iter().map(Json::str).collect()),
                    ),
                    (
                        "violations".into(),
                        Json::Arr(
                            r.violations
                                .iter()
                                .map(|v| {
                                    Json::Obj(vec![
                                        ("function".into(), Json::str(&v.function)),
                                        ("effect".into(), Json::str(effects::effect_name(v.effect))),
                                        ("file".into(), Json::str(&v.file)),
                                        ("line".into(), Json::num(v.line as usize)),
                                        ("what".into(), Json::str(&v.what)),
                                        (
                                            "witness".into(),
                                            Json::Arr(v.witness.iter().map(Json::str).collect()),
                                        ),
                                        ("allowed".into(), Json::Bool(v.allowed_reason.is_some())),
                                        (
                                            "reason".into(),
                                            match &v.allowed_reason {
                                                Some(r) => Json::str(r),
                                                None => Json::Null,
                                            },
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let unresolved_sites = self
            .unresolved
            .iter()
            .map(|(caller, call, file, line, candidates)| {
                Json::Obj(vec![
                    ("caller".into(), Json::str(caller)),
                    ("call".into(), Json::str(call)),
                    ("file".into(), Json::str(file)),
                    ("line".into(), Json::num(*line as usize)),
                    ("candidates".into(), Json::num(*candidates)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema_version".into(), Json::Num(LINT_SCHEMA_VERSION.into())),
            ("tool".into(), Json::str("minoaner-lint effects")),
            ("files_scanned".into(), Json::num(self.files_scanned)),
            ("functions".into(), Json::num(self.functions)),
            (
                "calls".into(),
                Json::Obj(vec![
                    ("resolved".into(), Json::num(self.resolved_calls)),
                    ("external".into(), Json::num(self.external_calls)),
                    ("unresolved".into(), Json::num(self.unresolved.len())),
                    (
                        "unresolved_ceiling".into(),
                        match self.unresolved_ceiling {
                            Some(c) => Json::num(c),
                            None => Json::Null,
                        },
                    ),
                ]),
            ),
            ("unresolved_sites".into(), Json::Arr(unresolved_sites)),
            ("contracts".into(), Json::Arr(contracts)),
            (
                "policy_errors".into(),
                Json::Arr(self.policy_errors.iter().map(Json::str).collect()),
            ),
            ("clean".into(), Json::Bool(self.clean())),
        ])
    }

    pub fn render_json(&self) -> String {
        self.to_json().render()
    }
}

/// Builds the workspace symbol table + call graph, infers and propagates
/// effects, and evaluates the contracts in `contracts_path`.
pub fn run_effects(root: &Path, contracts_path: &Path) -> Result<EffectsReport, String> {
    let contracts_src = std::fs::read_to_string(contracts_path)
        .map_err(|e| format!("read {}: {e}", contracts_path.display()))?;
    let file = contracts::parse(&contracts_src)?;

    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.1.cmp(&b.1));

    let mut table = graph::SymbolTable::default();
    // Per-fn direct effects, collected file by file (fn ids are assigned
    // in insertion order, so pushing in scan order keeps them aligned).
    let mut direct: Vec<effects::EffectMask> = Vec::new();
    let mut sites: Vec<Vec<effects::DirectSite>> = Vec::new();
    let mut files_scanned = 0usize;

    for (path, rel, _class) in &files {
        // Only crate source trees enter the symbol table: tests, benches
        // and examples cannot be reached from any contract root.
        let Some((krate, base_mods)) = graph::module_of(rel) else {
            continue;
        };
        files_scanned += 1;
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let toks = lexer::lex(&src);
        let test_spans = rules::cfg_test_spans(&toks);
        let ids = graph::scan_file(&mut table, rel, &krate, &base_mods, &toks, &test_spans, false);
        let hash_idents = effects::std_hash_idents(&toks);

        // Each fn's direct effects come from its *own* tokens: body minus
        // nested fn bodies (mirrors the call-collection pass in graph.rs).
        let spans: Vec<(usize, std::ops::Range<usize>)> = ids
            .iter()
            .filter_map(|&id| table.fns[id].body.clone().map(|b| (id, b)))
            .collect();
        let mut per_file: BTreeMap<usize, (effects::EffectMask, Vec<effects::DirectSite>)> =
            BTreeMap::new();
        for &(id, ref body) in &spans {
            let nested: Vec<std::ops::Range<usize>> = spans
                .iter()
                .filter(|(other, b)| *other != id && b.start > body.start && b.end <= body.end)
                .map(|(_, b)| b.clone())
                .collect();
            let own = graph::subtract_ranges(body.clone(), &nested);
            per_file.insert(id, effects::scan_direct(&toks, &own, &hash_idents, table.fns[id].is_test));
        }
        for &id in &ids {
            debug_assert_eq!(id, direct.len());
            let (m, s) = per_file.remove(&id).unwrap_or((0, Vec::new()));
            direct.push(m);
            sites.push(s);
        }
    }

    let call_graph = table.resolve();
    let effect_sets = effects::EffectSets::propagate(direct, sites, &call_graph);
    let (results, policy_errors) = contracts::evaluate(&file, &table, &call_graph, &effect_sets);

    let unresolved = call_graph
        .unresolved
        .iter()
        .map(|u| {
            let caller = &table.fns[u.caller];
            (
                caller.path.clone(),
                u.call.display(),
                caller.file.clone(),
                u.call.line(),
                u.candidates,
            )
        })
        .collect();

    Ok(EffectsReport {
        results,
        policy_errors,
        files_scanned,
        functions: table.len(),
        resolved_calls: call_graph.resolved_calls,
        external_calls: call_graph.external_calls,
        unresolved,
        unresolved_ceiling: file.unresolved_ceiling,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_routes_paths() {
        assert_eq!(classify("crates/kb/src/store.rs"), Some(FileClass::Library));
        assert_eq!(classify("crates/kb/tests/x.rs"), Some(FileClass::TestOrBench));
        assert_eq!(classify("crates/eval/benches/ablations.rs"), Some(FileClass::TestOrBench));
        assert_eq!(classify("tools/loom-models/tests/loom_models.rs"), Some(FileClass::TestOrBench));
        assert_eq!(classify("tests/property_based.rs"), Some(FileClass::TestOrBench));
        assert_eq!(classify("src/lib.rs"), Some(FileClass::Library));
        assert_eq!(classify("crates/lint/tests/fixtures/bad/r1.rs"), None);
        assert_eq!(classify("README.md"), None);
    }

    #[test]
    fn ratchet_reports_drift_in_both_directions() {
        let entries = allow::parse(
            "[[allow]]\npath = \"a.rs\"\nrule = \"R4\"\ncount = 2\nreason = \"x\"",
        )
        .unwrap();
        let mk = |n: usize| {
            (0..n)
                .map(|i| Violation {
                    rule: "R4",
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

        let mut r = Report::default();
        apply_allowlist(&entries, mk(1), &mut r);
        assert_eq!(r.policy_errors.len(), 1);
        assert!(r.policy_errors[0].contains("lower the count"));

        let mut r = Report::default();
        apply_allowlist(&entries, mk(0), &mut r);
        assert!(r.policy_errors[0].contains("stale"));
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let mut r = Report::default();
        r.violations.push(Violation {
            rule: "R1",
            path: "a \"b\".rs".into(),
            line: 3,
            message: "use\nDet".into(),
        });
        r.raw_counts.insert("R1", 1);
        let j = r.render_json();
        assert!(j.contains("\"rule\": \"R1\""));
        assert!(j.contains("\\\"b\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"clean\": false"));
    }

    #[test]
    fn check_json_round_trips_exactly() {
        let mut r = Report::default();
        r.violations.push(Violation {
            rule: "R5",
            path: "crates/kb/src/disk.rs".into(),
            line: 420,
            message: "`unsafe` without a `// SAFETY:` comment".into(),
        });
        r.policy_errors.push("ratchet: drift".into());
        r.files_scanned = 7;
        r.raw_counts.insert("R5", 1);
        let text = r.render_json();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, r.to_json());
        assert_eq!(parsed.render(), text);
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_i64),
            Some(LINT_SCHEMA_VERSION)
        );
    }

    #[test]
    fn effects_json_round_trips_exactly() {
        let mut r = EffectsReport {
            files_scanned: 3,
            functions: 9,
            resolved_calls: 12,
            external_calls: 30,
            unresolved_ceiling: Some(2),
            ..EffectsReport::default()
        };
        r.unresolved.push((
            "minoaner_kb::demo::f".into(),
            ".shared_name()".into(),
            "crates/kb/src/demo.rs".into(),
            14,
            2,
        ));
        r.results.push(ContractResult {
            name: "kernel".into(),
            roots: vec!["minoaner_kb::demo::entry".into()],
            reachable: 4,
            forbid: effects::WALL_CLOCK | effects::ENTROPY,
            violations: vec![contracts::EffectViolation {
                contract: "kernel".into(),
                function: "minoaner_kb::demo::noisy".into(),
                effect: effects::ENTROPY,
                file: "crates/kb/src/demo.rs".into(),
                line: 4,
                what: "`thread_rng`".into(),
                witness: vec!["minoaner_kb::demo::entry".into(), "minoaner_kb::demo::noisy".into()],
                allowed_reason: None,
            }],
        });
        let text = r.render_json();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, r.to_json());
        assert_eq!(parsed.render(), text);
        assert!(!parsed.get("clean").and_then(Json::as_bool).unwrap());
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_i64),
            Some(LINT_SCHEMA_VERSION)
        );
    }
}
