//! The determinism rules. Each rule takes the token stream of one file
//! plus its classification and appends `Violation`s.
//!
//! The rules are deliberately token-level heuristics (see `lexer.rs` for
//! why there is no `syn`): they are tuned to have zero false positives on
//! this workspace's idioms, and anything genuinely unfixable goes in
//! `lint-allow.toml` with a reason.

use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
}

pub const RULES: &[(&str, &str)] = &[
    ("R2", "no f64/f32 accumulation over hash-map iteration — sort keys first"),
    ("R6", "no direct std::fs/File/OpenOptions in durable-path modules — route I/O through the Vfs"),
    ("R7", "every #[allow] of clippy's panic lints is counted in lint-allow.toml and carries a `// bound:` comment"),
];

/// The modules whose writes must survive a crash (checkpoint barriers,
/// spill runs, the `.mkb` container, job status files). Every byte they
/// persist has to flow through the `Vfs` seam so the chaos harness can
/// fault-inject it — a direct `std::fs` call here is a blind spot the
/// ENOSPC/EIO sweep cannot reach.
const R6_DURABLE_PATHS: &[&str] = &[
    "crates/dataflow/src/checkpoint.rs",
    "crates/dataflow/src/spill.rs",
    "crates/jobs/src/control.rs",
    "crates/kb/src/disk.rs",
];

/// Every rule over one library file. (The std hash containers and the
/// wall clock are clippy's `disallowed_types` / `disallowed_methods`, in
/// every target: `clippy.toml`.)
pub fn run_all(path: &str, src: &str, toks: &[Tok]) -> Vec<Violation> {
    let mut out = Vec::new();
    r2_float_accum(path, toks, &mut out);
    r6_vfs_only(path, toks, &mut out);
    r7_audited_allows(path, src, toks, &mut out);
    out
}

const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "DetHashMap", "DetHashSet"];
const HASH_CTORS: &[&str] = &[
    "HashMap",
    "HashSet",
    "DetHashMap",
    "DetHashSet",
    "map_with_capacity",
    "set_with_capacity",
];
const ITER_METHODS: &[&str] = &[
    "iter", "iter_mut", "into_iter", "values", "values_mut", "into_values", "keys", "drain",
];

/// R2: f64/f32 accumulation whose order depends on hash-map iteration.
/// Even `DetHashMap` iteration order depends on insertion history, so a
/// float sum over it is not stable across worker counts — the exact bug
/// PR 3 fixed in the γ kernel. Detected shapes:
///
///   1. `map.values().…sum::<f64>()` / `…fold(0.0, …)` chains where the
///      receiver identifier is hash-typed in this file;
///   2. `for … in map.iter() { acc += … }` where `acc` is float-typed in
///      this file.
fn r2_float_accum(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    let hash_idents = collect_hash_idents(toks);
    let float_idents = collect_float_idents(toks);

    // Shape 1: iterator chains off a hash-typed receiver.
    let mut i = 0;
    while i + 2 < toks.len() {
        if toks[i].kind == TokKind::Ident
            && hash_idents.contains(toks[i].text.as_str())
            && toks[i + 1].is_punct(".")
            && toks[i + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 2].text.as_str())
        {
            if let Some(line) = float_reduce_in_statement(toks, i + 3) {
                out.push(Violation {
                    rule: "R2",
                    path: path.to_string(),
                    line,
                    message: format!(
                        "float reduction over `{}` iteration; collect + sort keys before summing",
                        toks[i].text
                    ),
                });
                // Skip past this receiver so a chain is reported once.
                i += 3;
            }
        }
        i += 1;
    }

    // Shape 2: `+=` on a float accumulator inside a for-loop over a hash map.
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("for") {
            if let Some((header_end, body_end)) = for_loop_spans(toks, i) {
                let header = &toks[i..header_end];
                let iterates_hash = header.windows(3).any(|w| {
                    w[0].kind == TokKind::Ident
                        && hash_idents.contains(w[0].text.as_str())
                        && w[1].is_punct(".")
                        && ITER_METHODS.contains(&w[2].text.as_str())
                }) || header.windows(2).any(|w| {
                    w[0].is_punct("&")
                        && w[1].kind == TokKind::Ident
                        && hash_idents.contains(w[1].text.as_str())
                });
                if iterates_hash {
                    for w in toks[header_end..body_end].windows(2) {
                        if w[0].kind == TokKind::Ident
                            && float_idents.contains(w[0].text.as_str())
                            && w[1].is_punct("+=")
                        {
                            out.push(Violation {
                                rule: "R2",
                                path: path.to_string(),
                                line: w[1].line,
                                message: format!(
                                    "`{} +=` inside iteration over a hash map; \
                                     accumulate in sorted key order",
                                    w[0].text
                                ),
                            });
                        }
                    }
                }
                i = header_end;
                continue;
            }
        }
        i += 1;
    }
}

/// Identifiers bound to hash-container types anywhere in this file:
/// `x: [&[mut]] [path::]DetHashMap<…>` annotations (incl. fn params) and
/// `let [mut] x … = <hash ctor>` initialisations.
fn collect_hash_idents(toks: &[Tok]) -> BTreeSet<&str> {
    let mut set = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        // `name : … HashType` within a short window.
        if i + 1 < toks.len() && toks[i + 1].is_punct(":") {
            let window = &toks[i + 2..toks.len().min(i + 8)];
            if window
                .iter()
                .take_while(|t| !t.is_punct(",") && !t.is_punct(")") && !t.is_punct("="))
                .any(|t| t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str()))
            {
                set.insert(toks[i].text.as_str());
            }
        }
        // `let [mut] name … = Ctor…`
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j < toks.len() && toks[j].kind == TokKind::Ident {
                let name = toks[j].text.as_str();
                // Find `=` before the statement ends.
                let mut k = j + 1;
                while k < toks.len() && !toks[k].is_punct("=") && !toks[k].is_punct(";") {
                    k += 1;
                }
                if k < toks.len() && toks[k].is_punct("=") {
                    let window = &toks[k + 1..toks.len().min(k + 7)];
                    if window
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && HASH_CTORS.contains(&t.text.as_str()))
                    {
                        set.insert(name);
                    }
                }
            }
        }
    }
    set
}

/// Identifiers that are f64/f32: `x: f64` annotations and
/// `let [mut] x = 0.0…` style initialisations.
fn collect_float_idents(toks: &[Tok]) -> BTreeSet<&str> {
    let mut set = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        if i + 2 < toks.len()
            && toks[i + 1].is_punct(":")
            && (toks[i + 2].is_ident("f64") || toks[i + 2].is_ident("f32"))
        {
            set.insert(toks[i].text.as_str());
        }
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j + 2 < toks.len()
                && toks[j].kind == TokKind::Ident
                && toks[j + 1].is_punct("=")
                && toks[j + 2].kind == TokKind::Num
                && is_float_literal(&toks[j + 2].text)
            {
                set.insert(toks[j].text.as_str());
            }
        }
    }
    set
}

fn is_float_literal(text: &str) -> bool {
    text.contains('.') || text.contains("f64") || text.contains("f32")
}

/// Scan a method chain from `start` to the end of the statement looking
/// for a float-evident reduction: `sum::<f64>`, `product::<f32>`, or
/// `fold(0.0…`. Returns the line of the reduction if found.
fn float_reduce_in_statement(toks: &[Tok], start: usize) -> Option<u32> {
    let mut depth: i32 = 0;
    let mut i = start;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return None;
                    }
                }
                ";" if depth == 0 => return None,
                _ => {}
            }
        }
        if t.kind == TokKind::Ident && (t.text == "sum" || t.text == "product") {
            // sum::<f64>(…)
            if i + 4 < toks.len()
                && toks[i + 1].is_punct("::")
                && toks[i + 2].is_punct("<")
                && (toks[i + 3].is_ident("f64") || toks[i + 3].is_ident("f32"))
            {
                return Some(t.line);
            }
        }
        if t.is_ident("fold")
            && i + 2 < toks.len()
            && toks[i + 1].is_punct("(")
            && toks[i + 2].kind == TokKind::Num
            && is_float_literal(&toks[i + 2].text)
        {
            return Some(t.line);
        }
        i += 1;
    }
    None
}

/// For `toks[start] == "for"`, return (index of `{` opening the body,
/// index one past the matching `}`).
fn for_loop_spans(toks: &[Tok], start: usize) -> Option<(usize, usize)> {
    let mut depth: i32 = 0;
    let mut i = start + 1;
    // Header runs to the first `{` at depth 0 (struct literals are not
    // legal unparenthesised in a for-expression, so this is unambiguous).
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                _ => {}
            }
        }
        i += 1;
    }
    if i >= toks.len() {
        return None;
    }
    let header_end = i;
    let mut brace: i32 = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct {
            match toks[i].text.as_str() {
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        return Some((header_end, i + 1));
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Whether the contiguous `//` comment block (doc comments count too)
/// directly above 1-based line `line` has a line starting with `marker`.
fn comment_above_has(lines: &[&str], line: u32, marker: &str) -> bool {
    let mut ln = line as usize; // lines[ln - 2] is the line above
    while ln >= 2 {
        let above = lines.get(ln - 2).map(|l| l.trim()).unwrap_or("");
        if !above.starts_with("//") {
            return false;
        }
        let body = above.trim_start_matches('/').trim_start_matches('!').trim_start();
        if body.starts_with(marker) {
            return true;
        }
        ln -= 1;
    }
    false
}

/// R6: direct filesystem access in one of the [`R6_DURABLE_PATHS`]
/// modules. Detected shapes: the path segment `fs` (any `…::fs` /
/// `fs::…` mention, including `use std::fs…`), and `File::` /
/// `OpenOptions::` constructor calls. Test modules are exempt — tests
/// exercise the real filesystem to verify the Vfs against it. The one
/// legitimate residue (the mmap site needs a real descriptor) is
/// ratcheted in `lint-allow.toml`.
fn r6_vfs_only(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    if !R6_DURABLE_PATHS.contains(&path) {
        return;
    }
    let test_spans = cfg_test_spans(toks);
    let in_test = |idx: usize| test_spans.iter().any(|&(a, b)| idx >= a && idx < b);
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test(i) {
            continue;
        }
        let hit = match t.text.as_str() {
            "fs" => {
                (i > 0 && toks[i - 1].is_punct("::"))
                    || (i + 1 < toks.len() && toks[i + 1].is_punct("::"))
            }
            "File" | "OpenOptions" => i + 1 < toks.len() && toks[i + 1].is_punct("::"),
            _ => false,
        };
        if hit {
            out.push(Violation {
                rule: "R6",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "direct `{}` filesystem access in a durable-path module; route it \
                     through the `Vfs` so the chaos sweep can fault-inject it",
                    t.text
                ),
            });
        }
    }
}

/// The clippy panic lints library crates deny outside test code
/// (`#![cfg_attr(not(test), deny(…))]` in each `lib.rs` / `main.rs`).
const R7_AUDITED_LINTS: &[&str] = &["unwrap_used", "expect_used", "panic", "indexing_slicing"];

/// R7: an `#[allow(…)]` naming one of the [`R7_AUDITED_LINTS`] outside
/// test code. Each one is a violation, so `lint-allow.toml` counts the
/// audited exceptions per file exactly; one without a `// bound:` comment
/// block directly above it (the invariant that keeps the site from
/// panicking) is a second violation, as is a module-level `#![allow(…)]`.
fn r7_audited_allows(path: &str, src: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    let test_spans = cfg_test_spans(toks);
    let in_test = |idx: usize| test_spans.iter().any(|&(a, b)| idx >= a && idx < b);
    let lines: Vec<&str> = src.lines().collect();
    for i in 0..toks.len() {
        if !toks[i].is_punct("#") || in_test(i) {
            continue;
        }
        let inner = toks.get(i + 1).is_some_and(|t| t.is_punct("!"));
        let open = i + 1 + usize::from(inner);
        if !(toks.get(open).is_some_and(|t| t.is_punct("["))
            && toks.get(open + 1).is_some_and(|t| t.is_ident("allow"))
            && toks.get(open + 2).is_some_and(|t| t.is_punct("(")))
        {
            continue;
        }
        let args: Vec<&Tok> = toks[open + 3..].iter().take_while(|t| !t.is_punct(")")).collect();
        let lints: Vec<&str> = args
            .windows(3)
            .filter(|w| w[0].is_ident("clippy") && w[1].is_punct("::"))
            .map(|w| w[2].text.as_str())
            .filter(|l| R7_AUDITED_LINTS.contains(l))
            .collect();
        if lints.is_empty() {
            continue;
        }
        let line = toks[i].line;
        let mut flag = |message: String| {
            out.push(Violation { rule: "R7", path: path.to_string(), line, message });
        };
        flag(format!(
            "audited `allow(clippy::{})`; counted in lint-allow.toml",
            lints.join(", clippy::")
        ));
        if inner {
            flag("module-level `#![allow]` of a panic lint; allow it on the smallest \
                  item or statement that shares one bound"
                .to_string());
        }
        if !comment_above_has(&lines, line, "bound:") {
            flag("panic-lint `#[allow]` without a `// bound:` comment on the preceding \
                  line; state the invariant that keeps it from panicking"
                .to_string());
        }
    }
}

/// Token spans of `#[cfg(test)] mod … { … }` (and `cfg(all(test, …))`)
/// bodies, plus `#[test] fn` / `#[cfg(test)] fn` items.
fn cfg_test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct("#") && i + 1 < toks.len() && toks[i + 1].is_punct("[") {
            // Collect the attribute's tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1;
            let attr_start = j;
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct("[") {
                    depth += 1;
                } else if toks[j].is_punct("]") {
                    depth -= 1;
                }
                j += 1;
            }
            let attr = &toks[attr_start..j.saturating_sub(1)];
            let is_test_attr = attr.first().is_some_and(|t| t.is_ident("test"))
                || (attr.first().is_some_and(|t| t.is_ident("cfg"))
                    && attr.iter().any(|t| t.is_ident("test")));
            if is_test_attr {
                // Skip any further attributes, then find the item's body.
                let mut k = j;
                while k + 1 < toks.len() && toks[k].is_punct("#") && toks[k + 1].is_punct("[") {
                    let mut d = 0;
                    k += 1;
                    loop {
                        if toks[k].is_punct("[") {
                            d += 1;
                        } else if toks[k].is_punct("]") {
                            d -= 1;
                            if d == 0 {
                                k += 1;
                                break;
                            }
                        }
                        k += 1;
                        if k >= toks.len() {
                            break;
                        }
                    }
                }
                // Find the opening brace of the item and its match.
                let mut brace: i32 = 0;
                let mut opened = false;
                let body_start = k;
                while k < toks.len() {
                    if toks[k].is_punct("{") {
                        brace += 1;
                        opened = true;
                    } else if toks[k].is_punct("}") {
                        brace -= 1;
                        if opened && brace == 0 {
                            spans.push((body_start, k + 1));
                            break;
                        }
                    } else if toks[k].is_punct(";") && !opened {
                        // Item without a body (e.g. `#[cfg(test)] use …;`).
                        spans.push((body_start, k + 1));
                        break;
                    }
                    k += 1;
                }
                i = j;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(src: &str) -> Vec<Violation> {
        run_all("test.rs", src, &lex(src))
    }

    fn rules_of(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn r2_flags_sum_over_map_values() {
        let v = check(
            "fn f(weights: &DetHashMap<u32, f64>) -> f64 {\n\
             weights.values().sum::<f64>()\n}",
        );
        assert_eq!(rules_of(&v), ["R2"]);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn r2_flags_fold_and_loop_accum() {
        let v = check(
            "fn f(m: DetHashMap<u32, f64>) {\n\
             let a: f64 = m.iter().fold(0.0, |acc, (_, w)| acc + w);\n\
             let mut total = 0.0;\n\
             for (_, w) in m.iter() { total += w; }\n}",
        );
        assert_eq!(rules_of(&v), ["R2", "R2"]);
    }

    #[test]
    fn r2_ignores_sorted_and_int_reduction() {
        let v = check(
            "fn f(m: &DetHashMap<u32, f64>) -> (usize, f64) {\n\
             let n: usize = m.values().count();\n\
             let mut keys: Vec<u32> = m.keys().copied().collect();\n\
             keys.sort_unstable();\n\
             let s: f64 = keys.iter().map(|k| m[k]).sum();\n\
             (n, s)\n}",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r7_counts_each_audited_allow_and_wants_a_bound() {
        let v = check(
            "// bound: i < v.len() by the loop guard.\n\
             #[allow(clippy::indexing_slicing)]\n\
             fn f(v: &[u32], i: usize) -> u32 { v[i] }\n\
             #[allow(clippy::panic, clippy::indexing_slicing)]\n\
             fn g() {}\n\
             #[allow(clippy::too_many_arguments)]\n\
             fn h() {}\n\
             #[cfg(test)]\nmod tests {\n    #[allow(clippy::unwrap_used)]\n    fn t() {}\n}",
        );
        assert_eq!(rules_of(&v), ["R7", "R7", "R7"], "{v:#?}");
        assert_eq!((v[0].line, v[1].line, v[2].line), (2, 4, 4));
        assert!(v[2].message.contains("bound:"), "{v:#?}");
    }

    #[test]
    fn r7_flags_module_level_allows() {
        let v = check("// bound: none.\n#![allow(clippy::expect_used)]\nfn f() {}");
        assert_eq!(rules_of(&v), ["R7", "R7"], "{v:#?}");
        assert!(v[1].message.contains("module-level"), "{v:#?}");
        // The deny that R7 audits against is not an allow.
        let v = check("#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r6_flags_direct_fs_only_in_durable_modules() {
        let src = "use std::fs::File;\n\
                   fn f(p: &std::path::Path) { let _ = std::fs::write(p, b\"x\"); }\n\
                   fn g(p: &std::path::Path) { let _ = File::create(p); }\n\
                   #[cfg(test)]\nmod tests {\n    fn h() { let _ = std::fs::read(\"x\"); }\n}";
        let toks = lex(src);
        let v = run_all("crates/dataflow/src/spill.rs", src, &toks);
        assert_eq!(rules_of(&v), ["R6", "R6", "R6"], "{v:#?}");
        assert_eq!((v[0].line, v[1].line, v[2].line), (1, 2, 3));
        // The same source anywhere else is not a durable path: no R6.
        let v = run_all("crates/kb/src/parser.rs", src, &toks);
        assert!(v.is_empty(), "{v:#?}");
    }

    #[test]
    fn r6_ignores_vfs_locals_and_other_idents() {
        let src = "fn f(disk: &dyn Vfs) { disk.write_file(p, b); }\n\
                   fn g() { let file = open(); MkbFile::open(p); }";
        let toks = lex(src);
        let v = run_all("crates/kb/src/disk.rs", src, &toks);
        assert!(v.is_empty(), "{v:#?}");
    }
}
