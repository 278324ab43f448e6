//! The canonical whole-workspace check: the tree must be clean under the
//! checked-in `lint-allow.toml`. This is the single source of truth the
//! per-crate thin tests (e.g. `crates/blocking/tests/lint.rs`) defer to.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn workspace_is_clean_under_allowlist() {
    let root = workspace_root();
    let allow = root.join("lint-allow.toml");
    let report = minoaner_lint::run_check(&root, &allow).expect("lint run");
    assert!(
        report.clean(),
        "workspace lint failures:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 50, "walker found too few files");
}
