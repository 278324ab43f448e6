//! Workspace symbol table and call graph, built on the hand-rolled lexer.
//!
//! The effect analysis (DESIGN.md §17) needs to know, for every function in
//! the workspace, *which other workspace functions it can call*. Without
//! `syn` or name-resolution machinery this is necessarily a heuristic, so
//! the design goal is a documented, *auditable* approximation:
//!
//! * Item structure (modules, `impl`/`trait` blocks, nested fns) is parsed
//!   exactly — brace matching over the token stream is reliable.
//! * Call sites are resolved by a fixed policy (see [`SymbolTable::resolve`]):
//!   free functions by module-then-crate-then-unique-name, qualified paths
//!   by suffix match, methods by receiver type where a `self` receiver, a
//!   typed local, or a typed parameter makes the type inferable.
//! * Everything the policy cannot resolve is **counted, never dropped**:
//!   call sites that plausibly target workspace code but resolve to zero or
//!   several candidates are reported as *unresolved* and gated by a
//!   ratchet-down ceiling in `effect-contracts.toml`, so resolution
//!   coverage can only improve.
//! * Calls whose target provably is not workspace code (no symbol with
//!   that name anywhere, or a receiver-less call to a ubiquitous std
//!   method like `len`/`push`) are classified *external* and assumed
//!   effect-free — external effects the wall cares about (clocks, entropy,
//!   fs) are caught as token-level *direct* effects instead (`effects.rs`).

use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// Receiver-less method names assumed to target std/core types. A call
/// `x.len()` with no inferable receiver type is *external*, not
/// unresolved, even if some workspace type also has a `len` — otherwise
/// every Vec/slice call in the tree would drown the unresolved count.
/// Typed receivers still resolve exactly through the `(type, method)`
/// index, so workspace methods with these names are not lost.
const COMMON_STD_METHODS: &[&str] = &[
    "len", "is_empty", "get", "get_mut", "iter", "iter_mut", "into_iter", "push", "pop",
    "insert", "remove", "contains", "contains_key", "clear", "extend", "append", "next",
    "clone", "to_string", "to_vec", "to_owned", "as_ref", "as_mut", "as_str", "as_bytes",
    "as_slice", "into", "from", "new", "default", "fmt", "eq", "cmp", "partial_cmp", "hash",
    "drop", "map", "and_then", "or_else", "unwrap_or", "unwrap_or_else", "unwrap_or_default",
    "ok", "err", "is_some", "is_none", "is_ok", "is_err", "take", "replace", "split",
    "join", "trim", "starts_with", "ends_with", "parse", "collect", "filter", "filter_map",
    "flat_map", "fold", "sum", "product", "count", "min", "max", "rev", "zip", "enumerate",
    "chain", "any", "all", "find", "position", "sort", "sort_by", "sort_by_key",
    "sort_unstable", "sort_unstable_by", "sort_unstable_by_key", "binary_search",
    "binary_search_by", "dedup", "windows", "chunks", "first", "last", "keys", "values",
    "entry", "or_insert", "or_insert_with", "or_default", "write", "read", "flush", "lines",
    "bytes", "chars", "copied", "cloned", "min_by", "max_by", "min_by_key", "max_by_key",
    "abs", "powi", "powf", "sqrt", "floor", "ceil", "round", "to_le_bytes", "to_be_bytes",
    "wrapping_add", "wrapping_mul", "saturating_add", "saturating_sub", "checked_add",
    "checked_sub", "checked_mul", "checked_div", "load", "store", "fetch_add", "swap",
    "lock", "send", "recv", "try_recv", "is_char_boundary", "char_indices", "retain",
    "truncate", "resize", "reserve", "with_capacity", "drain", "splice", "range", "rem_euclid",
];

/// Rust keywords that can directly precede `[` or `(` without forming an
/// index/call expression.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else",
    "enum", "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "type", "union",
    "unsafe", "use", "where", "while", "yield",
];

pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// How a local variable's type became known to the scanner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// `self.method(…)` — the impl block's type.
    SelfVal,
    /// Receiver is a local/param with an inferable type annotation.
    Typed(String),
    /// Chained call, literal, or untyped local.
    Unknown,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawCall {
    /// `foo(…)` — unqualified free-function call.
    Bare { name: String, line: u32 },
    /// `a::b::f(…)` — path-qualified call (head already normalized:
    /// `crate`/`self`/`super`/`Self` rewritten by the scanner).
    Qualified { segs: Vec<String>, line: u32 },
    /// `recv.method(…)`.
    Method { recv: Recv, name: String, line: u32 },
}

impl RawCall {
    pub fn line(&self) -> u32 {
        match self {
            RawCall::Bare { line, .. }
            | RawCall::Qualified { line, .. }
            | RawCall::Method { line, .. } => *line,
        }
    }

    pub fn display(&self) -> String {
        match self {
            RawCall::Bare { name, .. } => format!("{name}()"),
            RawCall::Qualified { segs, .. } => format!("{}()", segs.join("::")),
            RawCall::Method { name, .. } => format!(".{name}()"),
        }
    }
}

/// One function (free fn, method, trait default, foreign decl) in the
/// workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Fully-qualified path, e.g. `minoaner_kb::disk::Mapping::map`.
    pub path: String,
    pub name: String,
    /// `impl`/`trait` block type the fn is a method of, if any.
    pub self_ty: Option<String>,
    /// Enclosing module path, e.g. `minoaner_kb::disk`.
    pub module: String,
    pub krate: String,
    /// Workspace-relative file.
    pub file: String,
    pub line: u32,
    /// Inside `#[cfg(test)]` / `#[test]`, or in a test/bench/example file.
    pub is_test: bool,
    /// Token span of the body (`{`..`}` inclusive) in the file's stream;
    /// `None` for bodyless declarations (trait methods, foreign fns).
    pub body: Option<Range<usize>>,
    /// Call sites found in the body (nested fns excluded — they own theirs).
    pub calls: Vec<RawCall>,
}

/// An unresolved call site: plausibly targets workspace code, but the
/// resolution policy could not pick a unique callee.
#[derive(Debug, Clone)]
pub struct UnresolvedCall {
    pub caller: usize,
    pub call: RawCall,
    /// Number of workspace candidates (0 = known workspace name used in a
    /// form we cannot place, >1 = ambiguous).
    pub candidates: usize,
}

#[derive(Debug, Default)]
pub struct SymbolTable {
    pub fns: Vec<FnDef>,
    /// Free functions by bare name.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Methods by `(self type, name)`.
    by_method: BTreeMap<(String, String), Vec<usize>>,
    /// Methods by bare name (all types).
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Every `self_ty` seen — used to tell "workspace type, unknown
    /// method" (unresolved) from "foreign type" (external).
    types: BTreeSet<String>,
}

/// The resolved call graph: adjacency (deduplicated, insertion-ordered)
/// plus the unresolved remainder.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `edges[f]` = indices of functions `f` provably calls.
    pub edges: Vec<Vec<usize>>,
    pub resolved_calls: usize,
    pub external_calls: usize,
    pub unresolved: Vec<UnresolvedCall>,
}

impl SymbolTable {
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    pub fn lookup_path(&self, path: &str) -> Option<usize> {
        self.fns.iter().position(|f| f.path == path)
    }

    fn insert(&mut self, def: FnDef) -> usize {
        let id = self.fns.len();
        match &def.self_ty {
            Some(ty) => {
                self.by_method
                    .entry((ty.clone(), def.name.clone()))
                    .or_default()
                    .push(id);
                self.methods_by_name.entry(def.name.clone()).or_default().push(id);
                self.types.insert(ty.clone());
            }
            None => {
                self.by_name.entry(def.name.clone()).or_default().push(id);
            }
        }
        self.fns.push(def);
        id
    }

    /// Applies the resolution policy to every recorded call site.
    pub fn resolve(&self) -> CallGraph {
        let mut graph = CallGraph {
            edges: vec![Vec::new(); self.fns.len()],
            ..CallGraph::default()
        };
        for (caller, def) in self.fns.iter().enumerate() {
            for call in &def.calls {
                match self.resolve_one(def, call) {
                    Resolution::Resolved(callee) => {
                        graph.resolved_calls += 1;
                        if !graph.edges[caller].contains(&callee) {
                            graph.edges[caller].push(callee);
                        }
                    }
                    Resolution::External => graph.external_calls += 1,
                    Resolution::Unresolved { candidates } => {
                        graph.unresolved.push(UnresolvedCall {
                            caller,
                            call: call.clone(),
                            candidates,
                        });
                    }
                }
            }
        }
        graph
    }

    fn resolve_one(&self, caller: &FnDef, call: &RawCall) -> Resolution {
        match call {
            RawCall::Bare { name, .. } => {
                let Some(cands) = self.by_name.get(name) else {
                    return Resolution::External;
                };
                // Same module wins, then same crate, then global uniqueness.
                let in_module: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].module == caller.module)
                    .collect();
                if in_module.len() == 1 {
                    return Resolution::Resolved(in_module[0]);
                }
                let in_crate: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].krate == caller.krate)
                    .collect();
                if in_crate.len() == 1 {
                    return Resolution::Resolved(in_crate[0]);
                }
                if cands.len() == 1 {
                    return Resolution::Resolved(cands[0]);
                }
                Resolution::Unresolved { candidates: cands.len() }
            }
            RawCall::Qualified { segs, .. } => self.resolve_qualified(caller, segs),
            RawCall::Method { recv, name, .. } => {
                let ty_hint = match recv {
                    Recv::SelfVal => caller.self_ty.clone(),
                    Recv::Typed(t) => Some(t.clone()),
                    Recv::Unknown => None,
                };
                let cands = self.methods_by_name.get(name).map(Vec::as_slice).unwrap_or(&[]);
                if let Some(ty) = ty_hint {
                    if let Some(exact) = self.by_method.get(&(ty.clone(), name.clone())) {
                        // Several impl blocks (incl. trait impls) can carry
                        // the same (type, name); any is the same function
                        // only if unique, otherwise ambiguous.
                        if exact.len() == 1 {
                            return Resolution::Resolved(exact[0]);
                        }
                        return Resolution::Unresolved { candidates: exact.len() };
                    }
                    // No `(type, method)` entry. A foreign receiver type
                    // (Vec, String, …) and the ubiquitous std/derive
                    // methods on workspace types are external; an unknown
                    // non-std method on a workspace type is a coverage gap
                    // (a trait default we could not place) — count it.
                    if !self.types.contains(&ty)
                        || COMMON_STD_METHODS.contains(&name.as_str())
                        || cands.is_empty()
                    {
                        return Resolution::External;
                    }
                    return Resolution::Unresolved { candidates: cands.len() };
                }
                if COMMON_STD_METHODS.contains(&name.as_str()) {
                    return Resolution::External;
                }
                match cands.len() {
                    0 => Resolution::External,
                    1 => Resolution::Resolved(cands[0]),
                    n => Resolution::Unresolved { candidates: n },
                }
            }
        }
    }

    fn resolve_qualified(&self, caller: &FnDef, raw_segs: &[String]) -> Resolution {
        let segs = normalize_path(raw_segs, &caller.krate, &caller.module, caller.self_ty.as_deref());
        let segs = &segs[..];
        if segs.is_empty() {
            return Resolution::External;
        }
        if segs.len() >= 2 {
            // `Type::method` anywhere in the workspace.
            let ty = &segs[segs.len() - 2];
            let name = &segs[segs.len() - 1];
            if let Some(exact) = self.by_method.get(&(ty.clone(), name.clone())) {
                if exact.len() == 1 {
                    return Resolution::Resolved(exact[0]);
                }
                return Resolution::Unresolved { candidates: exact.len() };
            }
        }
        // Suffix match against full paths (`a::b::f` matches
        // `minoaner_x::a::b::f`).
        let suffix = segs.join("::");
        let matches: Vec<usize> = self
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.path == suffix || f.path.ends_with(&format!("::{suffix}"))
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => return Resolution::Resolved(matches[0]),
            0 => {}
            _ => {
                let in_crate: Vec<usize> = matches
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].krate == caller.krate)
                    .collect();
                if in_crate.len() == 1 {
                    return Resolution::Resolved(in_crate[0]);
                }
                return Resolution::Unresolved { candidates: matches.len() };
            }
        }
        // Zero matches: workspace type with an unknown method is a
        // coverage gap; anything else (std, Vec, serde, …) is external.
        if segs.len() >= 2 && self.types.contains(&segs[segs.len() - 2]) {
            let last = &segs[segs.len() - 1];
            // `Type::Variant(…)` enum/tuple-struct constructors and
            // derived std methods (`Type::default()`) are not fns the
            // table could ever hold — external, not a coverage gap.
            if last.chars().next().is_some_and(char::is_uppercase)
                || COMMON_STD_METHODS.contains(&last.as_str())
            {
                return Resolution::External;
            }
            return Resolution::Unresolved { candidates: 0 };
        }
        Resolution::External
    }
}

enum Resolution {
    Resolved(usize),
    External,
    Unresolved { candidates: usize },
}

// ───────────────────────────── file scanning ─────────────────────────────

/// Derives `(crate_name, base_module_segments)` from a workspace-relative
/// path. Returns `None` for files that are not part of a crate's library
/// or binary source tree.
pub fn module_of(rel: &str) -> Option<(String, Vec<String>)> {
    let parts: Vec<&str> = rel.split('/').collect();
    let (krate, src_idx) = if parts.first() == Some(&"crates") && parts.get(2) == Some(&"src") {
        (format!("minoaner_{}", parts[1].replace('-', "_")), 2)
    } else if parts.first() == Some(&"src") {
        ("minoaner".to_string(), 0)
    } else {
        return None;
    };
    let mut mods: Vec<String> = Vec::new();
    for (i, part) in parts.iter().enumerate().skip(src_idx + 1) {
        let is_last = i == parts.len() - 1;
        if is_last {
            let stem = part.strip_suffix(".rs")?;
            if !matches!(stem, "lib" | "main" | "mod") {
                mods.push(stem.to_string());
            }
        } else {
            mods.push((*part).to_string());
        }
    }
    Some((krate, mods))
}

/// Scans one file's token stream into the symbol table. `test_spans` are
/// the `#[cfg(test)]`/`#[test]` body spans from `rules::cfg_test_spans`;
/// `whole_file_test` marks tests/benches/examples files.
pub fn scan_file(
    table: &mut SymbolTable,
    rel: &str,
    krate: &str,
    base_mods: &[String],
    toks: &[Tok],
    test_spans: &[(usize, usize)],
    whole_file_test: bool,
) -> Vec<usize> {
    let mut scanner = Scanner {
        table,
        toks,
        rel,
        krate,
        test_spans,
        whole_file_test,
        new_fns: Vec::new(),
    };
    let module = if base_mods.is_empty() {
        krate.to_string()
    } else {
        format!("{}::{}", krate, base_mods.join("::"))
    };
    scanner.scan_items(0..toks.len(), &module, None);
    let ids = scanner.new_fns.clone();
    // Second pass: collect call sites over each fn's *own* tokens (body
    // minus nested fn bodies, which collected their own).
    let spans: Vec<(usize, Range<usize>)> = ids
        .iter()
        .filter_map(|&id| table.fns[id].body.clone().map(|b| (id, b)))
        .collect();
    for &(id, ref body) in &spans {
        let nested: Vec<Range<usize>> = spans
            .iter()
            .filter(|(other, b)| *other != id && b.start > body.start && b.end <= body.end)
            .map(|(_, b)| b.clone())
            .collect();
        let own = subtract_ranges(body.clone(), &nested);
        let locals = collect_local_types(toks, &own);
        let calls = collect_calls(toks, &own, &locals);
        table.fns[id].calls = calls;
    }
    ids
}

/// `body` minus any contained `nested` ranges (all nested ranges are
/// strictly inside `body` and non-overlapping).
pub fn subtract_ranges(body: Range<usize>, nested: &[Range<usize>]) -> Vec<Range<usize>> {
    let mut sorted: Vec<Range<usize>> = nested.to_vec();
    sorted.sort_by_key(|r| r.start);
    let mut out = Vec::new();
    let mut cur = body.start;
    for r in sorted {
        // Skip ranges nested inside an already-subtracted one.
        if r.start < cur {
            continue;
        }
        if r.start > cur {
            out.push(cur..r.start);
        }
        cur = r.end;
    }
    if cur < body.end {
        out.push(cur..body.end);
    }
    out
}

struct Scanner<'a> {
    table: &'a mut SymbolTable,
    toks: &'a [Tok],
    rel: &'a str,
    krate: &'a str,
    test_spans: &'a [(usize, usize)],
    whole_file_test: bool,
    new_fns: Vec<usize>,
}

impl Scanner<'_> {
    fn is_test_at(&self, idx: usize) -> bool {
        self.whole_file_test || self.test_spans.iter().any(|&(a, b)| idx >= a && idx < b)
    }

    /// Walks the items in `range`, registering fns and recursing into
    /// module / impl / trait / fn bodies.
    fn scan_items(&mut self, range: Range<usize>, module: &str, self_ty: Option<&str>) {
        let toks = self.toks;
        let mut i = range.start;
        while i < range.end {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                // Attributes: skip `#[…]` wholesale.
                if t.is_punct("#") && i + 1 < range.end && toks[i + 1].is_punct("[") {
                    i = skip_brackets(toks, i + 1, range.end);
                    continue;
                }
                i += 1;
                continue;
            }
            match t.text.as_str() {
                "mod" => {
                    if i + 2 < range.end
                        && toks[i + 1].kind == TokKind::Ident
                        && toks[i + 2].is_punct("{")
                    {
                        let body_end = match_brace(toks, i + 2, range.end);
                        let sub = format!("{module}::{}", toks[i + 1].text);
                        self.scan_items(i + 3..body_end.saturating_sub(1), &sub, None);
                        i = body_end;
                    } else {
                        i = skip_to_semi(toks, i, range.end);
                    }
                }
                "impl" | "trait" => {
                    let (ty, body) = parse_impl_header(toks, i, range.end, t.text == "trait");
                    match body {
                        Some(body_range) => {
                            let owned;
                            let ty_ref = match &ty {
                                Some(name) => {
                                    owned = name.clone();
                                    Some(owned.as_str())
                                }
                                None => None,
                            };
                            self.scan_items(body_range.clone(), module, ty_ref);
                            i = body_range.end + 1;
                        }
                        None => i = skip_to_semi(toks, i, range.end),
                    }
                }
                "fn" => {
                    i = self.scan_fn(i, range.end, module, self_ty);
                }
                "struct" | "enum" | "union" => {
                    i = skip_struct_like(toks, i, range.end);
                }
                "macro_rules" => {
                    // `macro_rules! name { … }` — the body is token soup.
                    let mut j = i + 1;
                    while j < range.end && !toks[j].is_punct("{") {
                        j += 1;
                    }
                    i = if j < range.end { match_brace(toks, j, range.end) } else { range.end };
                }
                "use" | "type" => {
                    i = skip_to_semi(toks, i, range.end);
                }
                "const" | "static" => {
                    // `const fn` is handled by the `fn` arm next iteration.
                    if i + 1 < range.end
                        && (toks[i + 1].is_ident("fn") || toks[i + 1].is_ident("unsafe"))
                    {
                        i += 1;
                    } else {
                        i = skip_to_semi(toks, i, range.end);
                    }
                }
                "extern" => {
                    // `extern "C" { … }` foreign block (decl-only fns) or
                    // `extern crate …;`.
                    let mut j = i + 1;
                    while j < range.end && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                        j += 1;
                    }
                    if j < range.end && toks[j].is_punct("{") {
                        let end = match_brace(toks, j, range.end);
                        self.scan_items(j + 1..end.saturating_sub(1), module, self_ty);
                        i = end;
                    } else {
                        i = j + 1;
                    }
                }
                _ => i += 1,
            }
        }
    }

    /// `toks[at]` is the `fn` keyword. Registers the function and recurses
    /// into its body for nested items. Returns the index to continue from.
    fn scan_fn(&mut self, at: usize, end: usize, module: &str, self_ty: Option<&str>) -> usize {
        let toks = self.toks;
        if at + 1 >= end || toks[at + 1].kind != TokKind::Ident {
            return at + 1; // `fn(…)` pointer type or malformed
        }
        let name = toks[at + 1].text.clone();
        let line = toks[at + 1].line;
        let mut j = at + 2;
        if j < end && toks[j].is_punct("<") {
            j = skip_angles(toks, j, end);
        }
        // Signature runs to the body `{` or declaration `;` at depth 0.
        let mut depth: i32 = 0;
        let mut body: Option<Range<usize>> = None;
        while j < end {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        let close = match_brace(toks, j, end);
                        body = Some(j..close);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let path = match self_ty {
            Some(ty) => format!("{module}::{ty}::{name}"),
            None => format!("{module}::{name}"),
        };
        let def = FnDef {
            path,
            name,
            self_ty: self_ty.map(str::to_string),
            module: module.to_string(),
            krate: self.krate.to_string(),
            file: self.rel.to_string(),
            line,
            is_test: self.is_test_at(at),
            body: body.clone(),
            calls: Vec::new(),
        };
        let id = self.table.insert(def);
        self.new_fns.push(id);
        match body {
            Some(b) => {
                // Nested items (fns, impls in fn bodies) register themselves.
                self.scan_items(b.start + 1..b.end.saturating_sub(1), module, self_ty);
                b.end
            }
            None => j + 1,
        }
    }
}

/// From `impl`/`trait` at `at`, returns the self type name and the body
/// token range (exclusive of braces).
fn parse_impl_header(
    toks: &[Tok],
    at: usize,
    end: usize,
    is_trait: bool,
) -> (Option<String>, Option<Range<usize>>) {
    let mut j = at + 1;
    if j < end && toks[j].is_punct("<") {
        j = skip_angles(toks, j, end);
    }
    // Collect the first type path; if `for` follows, the self type is the
    // second path (trait impl), else the first (inherent impl). For
    // `trait Name`, the name itself is the "type".
    let mut first_last_seg: Option<String> = None;
    let mut second_last_seg: Option<String> = None;
    let mut after_for = false;
    while j < end {
        let t = &toks[j];
        if t.is_punct("{") {
            let close = match_brace(toks, j, end);
            let ty = if is_trait {
                first_last_seg
            } else if after_for {
                second_last_seg
            } else {
                first_last_seg
            };
            return (ty, Some(j + 1..close.saturating_sub(1)));
        }
        if t.is_punct(";") {
            return (None, None);
        }
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "for" => after_for = true,
                "where" => {
                    // Skip the clause: scan to `{`.
                    while j < end && !toks[j].is_punct("{") {
                        j += 1;
                    }
                    continue;
                }
                "dyn" | "mut" => {}
                _ => {
                    let slot = if after_for { &mut second_last_seg } else { &mut first_last_seg };
                    // A trait's name is the first ident after `trait`
                    // (supertrait bounds follow the `:` and must not win).
                    if !(is_trait && slot.is_some()) {
                        *slot = Some(t.text.clone());
                    }
                    if j + 1 < end && toks[j + 1].is_punct("<") {
                        j = skip_angles(toks, j + 1, end);
                        continue;
                    }
                }
            }
        }
        j += 1;
    }
    (None, None)
}

/// `toks[open]` is `{`; returns the index one past the matching `}`.
fn match_brace(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end {
        if toks[i].is_punct("{") {
            depth += 1;
        } else if toks[i].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

/// `toks[open]` is `[`; returns the index one past the matching `]`.
fn skip_brackets(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end {
        if toks[i].is_punct("[") {
            depth += 1;
        } else if toks[i].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

/// `toks[open]` is `<`; returns the index one past the matching `>`,
/// treating the coalesced `>>` as two closes and ignoring `->`/`=>`.
fn skip_angles(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end {
        if toks[i].kind == TokKind::Punct {
            match toks[i].text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                _ => {}
            }
            if depth <= 0 && (toks[i].text == ">" || toks[i].text == ">>") {
                return i + 1;
            }
        }
        i += 1;
    }
    end
}

/// Skips to one past the terminating `;`, tracking braces so `const X:
/// usize = { … };` and struct-literal initialisers don't cut early.
fn skip_to_semi(toks: &[Tok], at: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = at;
    while i < end {
        if toks[i].kind == TokKind::Punct {
            match toks[i].text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                ";" if depth == 0 => return i + 1,
                _ => {}
            }
        }
        i += 1;
    }
    end
}

/// Skips a `struct`/`enum`/`union` item: unit (`;`), tuple (`(…);`) or
/// braced body.
fn skip_struct_like(toks: &[Tok], at: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = at;
    while i < end {
        if toks[i].kind == TokKind::Punct {
            match toks[i].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return match_brace(toks, i, end),
                ";" if depth == 0 => return i + 1,
                _ => {}
            }
        }
        i += 1;
    }
    end
}

// ─────────────────────── call & type-hint extraction ───────────────────────

/// Local name → type (last path segment) from fn params (`name: Type`)
/// and `let` bindings (`let [mut] name: Type`, `let [mut] name = Type::…`).
/// Scans the given ranges plus a lookback window for the signature.
fn collect_local_types(toks: &[Tok], ranges: &[Range<usize>]) -> BTreeMap<String, String> {
    let mut locals = BTreeMap::new();
    // The signature (params) sits just before the first range (the body
    // opens at the brace); widen the first range back to the enclosing
    // `fn` keyword so `name: Type` params are picked up.
    let Some(first) = ranges.first() else {
        return locals;
    };
    let mut sig_start = first.start;
    while sig_start > 0 && !toks[sig_start].is_ident("fn") && first.start - sig_start < 256 {
        sig_start -= 1;
    }
    let widened: Vec<Range<usize>> = std::iter::once(sig_start..first.end)
        .chain(ranges.iter().skip(1).cloned())
        .collect();
    for r in &widened {
        let mut i = r.start;
        while i + 2 < r.end {
            // `name : Type` (params, let annotations, struct fields are
            // excluded because struct bodies are never inside fn bodies).
            if toks[i].kind == TokKind::Ident
                && !is_keyword(&toks[i].text)
                && toks[i + 1].is_punct(":")
            {
                if let Some(ty) = type_head(toks, i + 2, r.end) {
                    locals.insert(toks[i].text.clone(), ty);
                }
            }
            // `let [mut] name = Type::…`
            if toks[i].is_ident("let") {
                let mut j = i + 1;
                if j < r.end && toks[j].is_ident("mut") {
                    j += 1;
                }
                if j + 3 < r.end
                    && toks[j].kind == TokKind::Ident
                    && toks[j + 1].is_punct("=")
                    && toks[j + 2].kind == TokKind::Ident
                    && toks[j + 3].is_punct("::")
                    && toks[j + 2].text.chars().next().is_some_and(char::is_uppercase)
                {
                    locals.insert(toks[j].text.clone(), toks[j + 2].text.clone());
                }
            }
            i += 1;
        }
    }
    locals
}

/// Reads a type starting at `at`, returning the last path segment before
/// any generic args (`&mut a::b::Foo<T>` → `Foo`).
fn type_head(toks: &[Tok], at: usize, end: usize) -> Option<String> {
    let mut i = at;
    // Skip reference/pointer sigils and modifiers.
    while i < end {
        let t = &toks[i];
        if t.is_punct("&") || t.kind == TokKind::Lifetime || t.is_ident("mut") || t.is_ident("dyn")
        {
            i += 1;
        } else {
            break;
        }
    }
    let mut last: Option<String> = None;
    while i < end && toks[i].kind == TokKind::Ident {
        if is_keyword(&toks[i].text) {
            return None; // `impl Fn(…)`, `fn(…)` types — no useful head
        }
        last = Some(toks[i].text.clone());
        if i + 1 < end && toks[i + 1].is_punct("::") {
            i += 2;
        } else {
            break;
        }
    }
    last
}

/// Whether the ident at `k` is followed by a call's `(`, allowing a
/// turbofish (`foo::<T>(…)`). Returns the index of the `(` if so.
fn call_paren(toks: &[Tok], k: usize) -> Option<usize> {
    let mut j = k + 1;
    if j + 1 < toks.len() && toks[j].is_punct("::") && toks[j + 1].is_punct("<") {
        j = skip_angles(toks, j + 1, toks.len());
    }
    (j < toks.len() && toks[j].is_punct("(")).then_some(j)
}

/// Extracts call sites from the fn's own token ranges.
fn collect_calls(
    toks: &[Tok],
    ranges: &[Range<usize>],
    locals: &BTreeMap<String, String>,
) -> Vec<RawCall> {
    let mut calls = Vec::new();
    for r in ranges {
        let mut i = r.start;
        while i < r.end {
            let t = &toks[i];
            if t.kind != TokKind::Ident || is_keyword(&t.text) {
                i += 1;
                continue;
            }
            // Macro invocation: not a call (panic-family handled as
            // direct effects in effects.rs).
            if i + 1 < r.end && toks[i + 1].is_punct("!") {
                i += 2;
                continue;
            }
            let Some(_paren) = call_paren(toks, i) else {
                i += 1;
                continue;
            };
            // Walk back through `seg::seg::…::` to the path head.
            let mut segs = vec![t.text.clone()];
            let mut head = i;
            while head >= 2
                && toks[head - 1].is_punct("::")
                && toks[head - 2].kind == TokKind::Ident
            {
                head -= 2;
                segs.insert(0, toks[head].text.clone());
            }
            let before = head.checked_sub(1).map(|b| &toks[b]);
            let line = t.line;
            if segs.len() == 1 {
                if before.is_some_and(|b| b.is_punct(".")) {
                    // Method call; receiver is the token before the dot.
                    let recv = match head.checked_sub(2).map(|b| &toks[b]) {
                        Some(r) if r.is_ident("self") => Recv::SelfVal,
                        Some(r)
                            if r.kind == TokKind::Ident
                                && !is_keyword(&r.text)
                                // `x.y.method()` — `y` is a field, not a
                                // local; only use the hint when the token
                                // before it isn't another `.`.
                                && !(head >= 3 && toks[head - 3].is_punct(".")) =>
                        {
                            match locals.get(&r.text) {
                                Some(ty) => Recv::Typed(ty.clone()),
                                None => Recv::Unknown,
                            }
                        }
                        _ => Recv::Unknown,
                    };
                    calls.push(RawCall::Method { recv, name: segs.pop().unwrap_or_default(), line });
                } else if !before.is_some_and(|b| b.is_ident("fn")) {
                    calls.push(RawCall::Bare { name: segs.pop().unwrap_or_default(), line });
                }
            } else {
                calls.push(RawCall::Qualified { segs, line });
            }
            i += 1;
        }
    }
    calls
}

/// Normalizes a qualified call's head segment against the caller's
/// position: `crate` → crate name, `self` → module, `super` → parent
/// module, `Self` → impl type. Returns `None` if the path cannot target
/// workspace code (e.g. `std::…`).
pub fn normalize_path(
    segs: &[String],
    krate: &str,
    module: &str,
    self_ty: Option<&str>,
) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    match segs.first().map(String::as_str) {
        Some("crate") => {
            out.push(krate.to_string());
            out.extend(segs[1..].iter().cloned());
        }
        Some("self") => {
            out.extend(module.split("::").map(str::to_string));
            out.extend(segs[1..].iter().cloned());
        }
        Some("super") => {
            let mods: Vec<&str> = module.split("::").collect();
            out.extend(mods[..mods.len().saturating_sub(1)].iter().map(|s| s.to_string()));
            out.extend(segs[1..].iter().cloned());
        }
        Some("Self") => {
            if let Some(ty) = self_ty {
                out.push(ty.to_string());
            }
            out.extend(segs[1..].iter().cloned());
        }
        _ => out.extend(segs.iter().cloned()),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules;

    fn table_of(src: &str) -> (SymbolTable, Vec<usize>) {
        let toks = lex(src);
        let spans = rules::cfg_test_spans(&toks);
        let mut table = SymbolTable::default();
        let ids = scan_file(&mut table, "crates/kb/src/demo.rs", "minoaner_kb", &["demo".into()], &toks, &spans, false);
        (table, ids)
    }

    #[test]
    fn module_paths_derive_from_file_paths() {
        assert_eq!(
            module_of("crates/kb/src/disk.rs"),
            Some(("minoaner_kb".into(), vec!["disk".into()]))
        );
        assert_eq!(module_of("crates/core/src/lib.rs"), Some(("minoaner_core".into(), vec![])));
        assert_eq!(module_of("src/lib.rs"), Some(("minoaner".into(), vec![])));
        assert_eq!(
            module_of("crates/kb/src/io/reader.rs"),
            Some(("minoaner_kb".into(), vec!["io".into(), "reader".into()]))
        );
        assert_eq!(module_of("crates/kb/tests/mkb.rs"), None);
        assert_eq!(module_of("README.md"), None);
    }

    #[test]
    fn free_fns_methods_and_trait_impls_get_paths() {
        let (table, _) = table_of(
            "pub fn free() {}\n\
             struct Store;\n\
             impl Store { fn get_one(&self) {} }\n\
             impl Drop for Store { fn drop(&mut self) {} }\n\
             trait Walk { fn walk(&self) { self.get_one(); } }\n\
             mod inner { pub fn nested_free() {} }",
        );
        let paths: Vec<&str> = table.fns.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "minoaner_kb::demo::free",
                "minoaner_kb::demo::Store::get_one",
                "minoaner_kb::demo::Store::drop",
                "minoaner_kb::demo::Walk::walk",
                "minoaner_kb::demo::inner::nested_free",
            ]
        );
    }

    #[test]
    fn calls_resolve_by_module_receiver_and_method_index() {
        let (table, _) = table_of(
            "fn helper() {}\n\
             struct Store;\n\
             impl Store {\n\
               fn load(&self) { helper(); self.decode(); }\n\
               fn decode(&self) {}\n\
             }\n\
             fn run(s: Store) { s.load(); Store::decode(&s); }",
        );
        let graph = table.resolve();
        let load = table.lookup_path("minoaner_kb::demo::Store::load").unwrap();
        let helper = table.lookup_path("minoaner_kb::demo::helper").unwrap();
        let decode = table.lookup_path("minoaner_kb::demo::Store::decode").unwrap();
        let run = table.lookup_path("minoaner_kb::demo::run").unwrap();
        assert_eq!(graph.edges[load], vec![helper, decode]);
        assert_eq!(graph.edges[run], vec![table.lookup_path("minoaner_kb::demo::Store::load").unwrap(), decode]);
        assert!(graph.unresolved.is_empty(), "{:?}", graph.unresolved);
    }

    #[test]
    fn std_calls_are_external_ambiguity_is_unresolved() {
        let (table, _) = table_of(
            "struct A; struct B;\n\
             impl A { fn shared_name(&self) {} }\n\
             impl B { fn shared_name(&self) {} }\n\
             fn f(v: Vec<u32>) { v.len(); Vec::with_capacity(3); format(); }\n\
             fn g(x: &str) { x.shared_name(); }\n\
             fn h() { pick().shared_name(); }",
        );
        let graph = table.resolve();
        // `v.len()`, `Vec::with_capacity`, bare `format` (no such fn) are
        // all external, and so is `x.shared_name()`: `str` is not a
        // workspace type, so the candidates cannot be its impl. Only
        // `pick().shared_name()` — unknown receiver, two workspace
        // candidates — is genuinely ambiguous and stays unresolved.
        assert_eq!(graph.unresolved.len(), 1, "{:?}", graph.unresolved);
        assert_eq!(graph.unresolved[0].candidates, 2);
    }

    #[test]
    fn nested_fn_bodies_are_excluded_from_parent_calls() {
        let (table, _) = table_of(
            "fn inner_target() {}\n\
             fn outer() {\n\
               fn nested() { inner_target(); }\n\
               nested();\n\
             }",
        );
        let outer = table.lookup_path("minoaner_kb::demo::outer").unwrap();
        let nested = table.lookup_path("minoaner_kb::demo::nested").unwrap();
        let target = table.lookup_path("minoaner_kb::demo::inner_target").unwrap();
        let graph = table.resolve();
        assert_eq!(graph.edges[outer], vec![nested]);
        assert_eq!(graph.edges[nested], vec![target]);
    }

    #[test]
    fn cfg_test_functions_are_marked() {
        let (table, _) = table_of(
            "fn lib_fn() {}\n\
             #[cfg(test)]\nmod tests {\n  fn helper() {}\n}",
        );
        let lib = table.lookup_path("minoaner_kb::demo::lib_fn").unwrap();
        let helper = table.lookup_path("minoaner_kb::demo::tests::helper").unwrap();
        assert!(!table.fns[lib].is_test);
        assert!(table.fns[helper].is_test);
    }

    #[test]
    fn subtract_ranges_cuts_nested_spans() {
        assert_eq!(subtract_ranges(0..10, std::slice::from_ref(&(3..5))), vec![0..3, 5..10]);
        assert_eq!(subtract_ranges(0..10, &[]), vec![0..10]);
        assert_eq!(subtract_ranges(2..8, &[2..4, 6..8]), vec![4..6]);
    }
}
