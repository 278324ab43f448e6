//! What the workspace holds itself to, checked over its own files.
//!
//! * It owns its dependencies: `[workspace.dependencies]` lists path crates
//!   only, and every member takes its dependencies from there. With nothing
//!   to fetch, `cargo build --offline` and `cargo test --offline` work in a
//!   bare checkout — which is what lets every other test in this repository
//!   run at all. (The loom models under `tools/loom-models` are their own
//!   workspace for exactly this reason, and are not checked here.)
//! * Every exception to the panic lints is audited and counted: an
//!   `#[expect(clippy::…, reason = "bound: …")]`, as many per file as
//!   [`PANIC_LINT_EXPECTS`] says (DESIGN.md §12). So is every loop in a
//!   hash container's order, against [`HASH_ORDER_EXPECTS`].
//! * The durable-path modules do their filesystem I/O through the `Vfs`, so
//!   the chaos sweep can fault every operation of them (DESIGN.md §18).

use std::path::{Path, PathBuf};

/// Every `name = value` entry of the manifest's dependency tables, as
/// `(table, name, value)`.
fn dependency_entries(manifest: &Path) -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(manifest).expect("manifest is readable");
    let mut table = String::new();
    let mut entries = Vec::new();
    for line in text.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            table = header.trim_end_matches(']').trim_matches('[').to_owned();
            // `[dependencies.name]` hides its source from the line check
            // below: such a table never passes.
            if let Some((deps, name)) = table.split_once("dependencies.") {
                entries.push((format!("{deps}dependencies"), name.to_owned(), "a table of its own".to_owned()));
            }
        } else if table.ends_with("dependencies") && !line.starts_with('#') {
            if let Some((name, value)) = line.split_once('=') {
                entries.push((table.clone(), name.trim().to_owned(), value.trim().to_owned()));
            }
        }
    }
    entries
}

/// The root manifest and every `crates/*` member manifest.
fn manifests(root: &Path) -> Vec<PathBuf> {
    let mut members: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|entry| entry.expect("dir entry").path().join("Cargo.toml"))
        .filter(|manifest| manifest.is_file())
        .collect();
    members.sort();
    assert!(members.len() >= 11, "found only {} member manifests", members.len());
    members.push(root.join("Cargo.toml"));
    members
}

#[test]
fn every_dependency_is_a_path_crate_of_this_repository() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let shared = dependency_entries(&root.join("Cargo.toml"));
    let workspace_table: Vec<_> =
        shared.iter().filter(|(table, ..)| table == "workspace.dependencies").collect();
    assert!(!workspace_table.is_empty(), "[workspace.dependencies] was not found");
    for (_, name, value) in &workspace_table {
        assert!(
            value.contains("path ="),
            "[workspace.dependencies] {name} = {value} is not a path crate"
        );
    }

    for manifest in manifests(root) {
        for (table, name, value) in dependency_entries(&manifest) {
            if table == "workspace.dependencies" {
                continue;
            }
            assert!(
                value.contains("workspace = true") || value.contains("path ="),
                "{}: [{table}] {name} = {value} comes from outside the repository",
                manifest.display()
            );
        }
    }
}

/// No manifest declares a `[features]` table: there is one build
/// configuration, and plain `cargo test` runs every test there is. A
/// feature gate once hid the crash, chaos, jobs and cancel harnesses from
/// it, which compiled all four to zero tests.
#[test]
fn no_manifest_declares_features() {
    for manifest in manifests(Path::new(env!("CARGO_MANIFEST_DIR"))) {
        let text = std::fs::read_to_string(&manifest).expect("manifest is readable");
        assert!(
            !text.lines().any(|line| line.trim() == "[features]"),
            "{} declares a [features] table",
            manifest.display()
        );
    }
}

/// `src` with every comment and the contents of every string and char
/// literal blanked to spaces, byte for byte (quotes and newlines stay), so
/// that what is left is code at the same offsets.
fn code_of(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for byte in &mut out[from..to.min(b.len())] {
            if *byte != b'\n' {
                *byte = b' ';
            }
        }
    };
    let ident = |i: usize| i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
    let mut i = 0;
    while i < b.len() {
        if b[i..].starts_with(b"//") {
            let end = b[i..].iter().position(|&c| c == b'\n').map_or(b.len(), |n| i + n);
            blank(&mut out, i, end);
            i = end;
        } else if b[i..].starts_with(b"/*") {
            let (mut depth, mut j) = (0usize, i);
            while j < b.len() {
                if b[j..].starts_with(b"/*") {
                    depth += 1;
                    j += 2;
                } else if b[j..].starts_with(b"*/") {
                    depth -= 1;
                    j += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    j += 1;
                }
            }
            blank(&mut out, i, j);
            i = j;
        } else if b[i] == b'r'
            && (!ident(i) || (b[i - 1] == b'b' && !ident(i - 1)))
            && matches!(b.get(i + 1), Some(b'"' | b'#'))
        {
            // A raw string: `r"…"`, `br#"…"#`; its end is the quote and hashes.
            let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
            let open = i + 1 + hashes;
            if b.get(open) != Some(&b'"') {
                i += 1;
                continue;
            }
            let mut close = [b'#'].repeat(hashes);
            close.insert(0, b'"');
            let end = (open + 1..b.len()).find(|&j| b[j..].starts_with(&close)).unwrap_or(b.len());
            blank(&mut out, open + 1, end);
            i = end + close.len();
        } else if b[i] == b'"' {
            let mut j = i + 1;
            while j < b.len() && b[j] != b'"' {
                j += if b[j] == b'\\' { 2 } else { 1 };
            }
            blank(&mut out, i + 1, j);
            i = j + 1;
        } else if b[i] == b'\'' {
            // A char literal (`'x'`, `'é'`, `'\''`) or a lifetime (`'a`).
            let width = src[i + 1..].chars().next().map_or(1, char::len_utf8);
            let end = if b.get(i + 1) == Some(&b'\\') {
                (i + 3..b.len()).find(|&j| b[j] == b'\'')
            } else {
                Some(i + 1 + width).filter(|&j| b.get(j) == Some(&b'\''))
            };
            match end {
                Some(end) => {
                    blank(&mut out, i + 1, end);
                    i = end + 1;
                }
                None => i += 1,
            }
        } else {
            i += 1;
        }
    }
    String::from_utf8(out).expect("blanking keeps UTF-8")
}

/// The clippy lints that library crates deny outside tests
/// (`#![cfg_attr(not(test), deny(…))]` in each `lib.rs` / `main.rs`).
const PANIC_LINTS: &[&str] = &["indexing_slicing", "panic", "unwrap_used", "expect_used"];

/// The clippy lints that keep a result from following a hash container's
/// order: a `for` loop over one, and the iteration methods `clippy.toml`
/// lists among its disallowed methods (whose other entries, the clock
/// reads, are `allow`ed where sanctioned, never `expect`ed).
const HASH_ORDER_LINTS: &[&str] = &["iter_over_hash_type", "disallowed_methods"];

/// One `allow` or `expect` attribute naming a lint of the list it was
/// looked for with.
#[derive(Debug)]
struct LintAttr {
    line: usize,
    /// `#![…]` rather than `#[…]`.
    inner: bool,
    expect: bool,
    /// The listed lints it names.
    lints: Vec<String>,
    /// The `reason = "…"` string as written, or `None`.
    reason: Option<String>,
}

/// Every `allow` / `expect` attribute of `src` that names a panic lint.
fn panic_lint_attrs(src: &str) -> Vec<LintAttr> {
    lint_attrs(src, PANIC_LINTS)
}

/// Every `allow` / `expect` attribute of `src` that names one of `listed`.
fn lint_attrs(src: &str, listed: &[&str]) -> Vec<LintAttr> {
    let code = code_of(src);
    let mut found = Vec::new();
    for (at, _) in code.match_indices('#') {
        let rest = &code[at + 1..];
        let inner = rest.starts_with('!');
        let rest = rest.trim_start_matches('!').trim_start();
        let Some(rest) = rest.strip_prefix('[') else { continue };
        let rest = rest.trim_start();
        let expect = rest.starts_with("expect");
        let Some(args) = ["allow", "expect"].iter().find_map(|name| {
            let open = rest.strip_prefix(name)?.trim_start().strip_prefix('(')?;
            Some(&open[..open.find(')')?])
        }) else {
            continue;
        };
        let lints: Vec<String> = args
            .split(',')
            .filter_map(|arg| arg.trim().strip_prefix("clippy::"))
            .filter(|lint| listed.contains(lint))
            .map(str::to_owned)
            .collect();
        if lints.is_empty() {
            continue;
        }
        // The reason's text, read from `src` at the offsets of its blanked
        // string in `code`.
        let args_at = args.as_ptr() as usize - code.as_ptr() as usize;
        let reason = args.find("reason").and_then(|r| {
            let open = args_at + r + args[r..].find('"')? + 1;
            let close = open + code[open..].find('"')?;
            Some(src[open..close].to_owned())
        });
        let line = code[..at].matches('\n').count() + 1;
        found.push(LintAttr { line, inner, expect, lints, reason });
    }
    found
}

/// The lines of `src`, outside its `#[cfg(test)]` module, that name the
/// real filesystem: `std::fs`, `fs::`, `File::` or `OpenOptions::`, each
/// a whole identifier (`vfs::` and `MkbFile::` are not hits), or probe it
/// with `Path`'s `.is_dir()`, `.is_file()` or `.exists()`.
fn direct_fs_lines(src: &str) -> Vec<usize> {
    let code = code_of(src);
    let non_test = code.find("#[cfg(test)]").map_or(code.as_str(), |end| &code[..end]);
    let words = ["fs::", "::fs", "File::", "OpenOptions::", ".is_dir(", ".is_file(", ".exists("];
    let mut lines = Vec::new();
    for (n, line) in non_test.lines().enumerate() {
        let hits = words.iter().any(|word| {
            line.match_indices(word).any(|(at, _)| {
                let before = line[..at].chars().next_back();
                let after = line[at + word.len()..].chars().next();
                let boundary = |c: Option<char>| !c.is_some_and(|c| c.is_alphanumeric() || c == '_');
                (word.starts_with([':', '.']) || boundary(before)) && (word.ends_with([':', '(']) || boundary(after))
            })
        });
        if hits {
            lines.push(n + 1);
        }
    }
    lines
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The library sources: `src/` of the root package and of every member.
fn library_sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for crate_dir in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        rust_files(&crate_dir.expect("dir entry").path().join("src"), &mut files);
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let name = path.strip_prefix(root).expect("under the root");
            let text = std::fs::read_to_string(&path).expect("source is readable");
            (name.to_string_lossy().replace('\\', "/"), text)
        })
        .collect()
}

/// The audited exceptions to the panic lints, per file. The table moves
/// both ways only by hand: a new `#[expect]` fails until its file's count
/// is raised here, and one removed fails until the count is lowered.
const PANIC_LINT_EXPECTS: &[(&str, usize)] = &[
    ("crates/blocking/src/accum.rs", 2),
    ("crates/blocking/src/graph.rs", 8),
    ("crates/core/src/clusters.rs", 2),
    ("crates/core/src/pipeline.rs", 1),
    ("crates/dataflow/src/pool.rs", 2),
    ("crates/dataflow/src/spill.rs", 1),
    ("crates/datagen/src/world.rs", 5),
    ("crates/det/src/json.rs", 3),
    ("crates/det/src/vfs.rs", 2),
    ("crates/kb/src/interner.rs", 1),
    ("crates/kb/src/rows.rs", 3),
    ("crates/kb/src/stats.rs", 11),
    ("crates/kb/src/store.rs", 3),
    ("crates/kb/src/tokenize.rs", 1),
];

/// Every exception to the panic lints in library code is an item- or
/// statement-level `#[expect]` whose reason states the bound that keeps
/// it from panicking, and each file has exactly as many as
/// [`PANIC_LINT_EXPECTS`] says. An `#[expect]` nothing triggers warns under
/// clippy, so a count here cannot outlive its sites.
#[test]
fn panic_lint_exceptions_are_audited_and_counted() {
    let mut problems = Vec::new();
    let mut seen = Vec::new();
    for (file, text) in library_sources(Path::new(env!("CARGO_MANIFEST_DIR"))) {
        let attrs = panic_lint_attrs(&text);
        for attr in &attrs {
            let at = format!("{file}:{}", attr.line);
            if !attr.expect {
                problems.push(format!("{at}: an `allow` of a panic lint; use `#[expect]` with a bound"));
            }
            if attr.inner {
                problems.push(format!("{at}: a module-level `#![…]` of a panic lint; narrow it"));
            }
            if !attr.reason.as_deref().is_some_and(|r| r.starts_with("bound:")) {
                problems.push(format!("{at}: the reason does not start with `bound:`"));
            }
        }
        let expected = PANIC_LINT_EXPECTS.iter().find(|(f, _)| *f == file).map_or(0, |&(_, n)| n);
        if attrs.len() != expected {
            problems.push(format!("{file}: {} panic-lint exceptions, the table says {expected}", attrs.len()));
        }
        seen.push(file);
    }
    for (file, _) in PANIC_LINT_EXPECTS {
        if !seen.iter().any(|f| f == file) {
            problems.push(format!("{file}: in the table but not a library source"));
        }
    }
    assert!(problems.is_empty(), "panic-lint exceptions:\n{}", problems.join("\n"));
}

/// The audited hash-order sites, per file: `#[expect]`s of
/// [`HASH_ORDER_LINTS`], each saying why the order of its loop cannot move
/// the output. Moves both ways only by hand, as [`PANIC_LINT_EXPECTS`]
/// does.
const HASH_ORDER_EXPECTS: &[(&str, usize)] = &[
    ("crates/baselines/src/linda.rs", 1),
    ("crates/baselines/src/rimom.rs", 2),
    ("crates/core/src/clusters.rs", 1),
];

/// Every library file has exactly as many hash-order `#[expect]`s as
/// [`HASH_ORDER_EXPECTS`] says, and none `allow`s `iter_over_hash_type`:
/// a new loop in a hash container's order lands only with its reason and
/// a raised count.
#[test]
fn hash_order_exceptions_are_counted() {
    let mut problems = Vec::new();
    let mut seen = Vec::new();
    for (file, text) in library_sources(Path::new(env!("CARGO_MANIFEST_DIR"))) {
        let attrs = lint_attrs(&text, HASH_ORDER_LINTS);
        for attr in attrs.iter().filter(|a| !a.expect && a.lints.iter().any(|l| l == "iter_over_hash_type")) {
            let at = format!("{file}:{}", attr.line);
            problems.push(format!("{at}: an `allow` of iter_over_hash_type; use `#[expect]` with a reason"));
        }
        let count = attrs.iter().filter(|a| a.expect).count();
        let expected = HASH_ORDER_EXPECTS.iter().find(|(f, _)| *f == file).map_or(0, |&(_, n)| n);
        if count != expected {
            problems.push(format!("{file}: {count} hash-order exceptions, the table says {expected}"));
        }
        seen.push(file);
    }
    for (file, _) in HASH_ORDER_EXPECTS {
        if !seen.iter().any(|f| f == file) {
            problems.push(format!("{file}: in the table but not a library source"));
        }
    }
    assert!(problems.is_empty(), "hash-order exceptions:\n{}", problems.join("\n"));
}

/// The modules whose writes must survive a crash — checkpoint barriers,
/// spill runs, job control files and the `.mkb` container — reach the
/// filesystem through the `Vfs` seam only, so the chaos sweep can fault
/// every operation of them; their test modules may use the real one. The
/// one exception is the `.mkb` mapping, which needs a real descriptor:
/// `use std::fs::File` and the `File::open` it maps.
const DURABLE_PATHS: &[(&str, usize)] = &[
    ("crates/dataflow/src/checkpoint.rs", 0),
    ("crates/dataflow/src/spill.rs", 0),
    ("crates/jobs/src/control.rs", 0),
    ("crates/kb/src/disk.rs", 2),
];

#[test]
fn durable_path_modules_go_through_the_vfs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for &(file, allowed) in DURABLE_PATHS {
        let text = std::fs::read_to_string(root.join(file)).expect("durable-path module is readable");
        let lines = direct_fs_lines(&text);
        assert_eq!(lines.len(), allowed, "{file}: direct filesystem access on lines {lines:?}");
    }
}

/// The scanners above see the shapes they exist to catch, and nothing in
/// comments, strings or char literals.
#[test]
fn scanners_catch_the_forbidden_shapes() {
    let unaudited = "// The slot table is sized to the key universe.\n\
                     #[allow(clippy::indexing_slicing)]\n\
                     pub fn slot(slots: &[u32], key: usize) -> u32 { slots[key] }\n\
                     pub fn first(v: &[u32]) -> u32 {\n\
                         #[expect(clippy::indexing_slicing, clippy::panic)]\n\
                         let x = if v.is_empty() { panic!(\"empty\") } else { v[0] };\n\
                         x\n\
                     }\n\
                     #![expect(clippy::unwrap_used, reason = \"bound: none\")]\n";
    let attrs = panic_lint_attrs(unaudited);
    assert_eq!(attrs.iter().map(|a| a.line).collect::<Vec<_>>(), [2, 5, 9]);
    assert!(!attrs[0].expect && attrs[1].reason.is_none() && attrs[2].inner, "{attrs:#?}");

    let audited = "// `#[allow(clippy::panic)]` in a comment is not an attribute.\n\
                   #[expect(\n    clippy::indexing_slicing,\n    \
                   reason = \"bound: `key` < `slots.len()` (the table \\\n    is sized first)\"\n)]\n\
                   pub fn slot(slots: &[u32], key: usize) -> u32 { slots[key] }\n\
                   #[allow(clippy::too_many_arguments)]\n\
                   pub fn label<'a>(_: &'a str) -> [char; 3] { ['\"', 'é', '\\''] }\n\
                   const S: &[u8] = br#\"say \"hi #[allow(clippy::unwrap_used)]\"#;\n";
    let attrs = panic_lint_attrs(audited);
    assert_eq!(attrs.len(), 1, "{attrs:#?}");
    assert_eq!((attrs[0].line, attrs[0].expect, attrs[0].inner), (2, true, false));
    assert!(attrs[0].reason.as_deref().is_some_and(|r| r.starts_with("bound: `key`")), "{attrs:#?}");

    let direct = "use std::fs::File;\n\
                  use std::io;\n\
                  pub fn write_direct(path: &Path, bytes: &[u8]) -> io::Result<()> {\n    \
                  std::fs::write(path, bytes)\n}\n\
                  pub fn create_direct(path: &Path) -> io::Result<File> { File::create(path) }\n\
                  pub fn open(p: &Path) { let _ = std::fs::OpenOptions::new(); let _ = OpenOptions::new(); }\n\
                  #[cfg(test)]\nmod tests {\n    use std::fs;\n}\n";
    assert_eq!(direct_fs_lines(direct), [1, 4, 6, 7]);
    let through_the_vfs = "// std::fs::write is what the Vfs wraps.\n\
                           use minoaner_det::vfs::{self, Vfs};\n\
                           pub fn f(disk: &dyn Vfs) { let _ = MkbFile::open(p); let _ = \"File::open\"; }\n\
                           pub fn g(file: &Path, fs: &dyn Vfs) { let _ = (file, fs); }\n";
    assert_eq!(direct_fs_lines(through_the_vfs), Vec::<usize>::new());
    let probes = "pub fn stale(path: &Path) -> bool { path.is_dir() }\n\
                  pub fn torn(root: &Path) -> bool {\n    root.join(\"x\").is_file() || root.exists()\n}\n\
                  pub fn ok(pair: &KbPair, vfs: &dyn Vfs, p: &Path) -> bool {\n    \
                  pair.is_dirty() || vfs.list_dir(p).is_ok()\n}\n";
    assert_eq!(direct_fs_lines(probes), [1, 3]);

    let hash_order = "#[expect(clippy::iter_over_hash_type, reason = \"builds a set\")]\n\
                      #[allow(clippy::disallowed_methods)] // a clock read\n\
                      #[allow(clippy::iter_over_hash_type)]\n\
                      #[expect(clippy::panic, reason = \"bound: none\")]\n";
    let attrs = lint_attrs(hash_order, HASH_ORDER_LINTS);
    let seen: Vec<_> = attrs.iter().map(|a| (a.line, a.expect, a.lints.join(","))).collect();
    assert_eq!(
        seen,
        [
            (1, true, "iter_over_hash_type".to_owned()),
            (2, false, "disallowed_methods".to_owned()),
            (3, false, "iter_over_hash_type".to_owned())
        ]
    );
}
