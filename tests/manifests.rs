//! The workspace owns its dependencies: `[workspace.dependencies]` lists
//! path crates only, and every member takes its dependencies from there.
//! With nothing to fetch, `cargo build --offline` and `cargo test --offline`
//! work in a bare checkout — which is what lets every other test in this
//! repository run at all. (The loom models under `tools/loom-models` are
//! their own workspace for exactly this reason, and are not checked here.)

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

#[test]
fn every_dependency_is_a_path_crate_of_this_repository() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut members: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|entry| entry.expect("dir entry").path().join("Cargo.toml"))
        .filter(|manifest| manifest.is_file())
        .collect();
    members.sort();
    assert!(members.len() >= 12, "found only {} member manifests", members.len());

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

    for manifest in members.iter().chain([&root.join("Cargo.toml")]) {
        for (table, name, value) in dependency_entries(manifest) {
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
