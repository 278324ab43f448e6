//! Determinism lint for the blocking crate.
//!
//! This used to be a grep for `HashMap`/`HashSet` confined to this crate;
//! hash containers are clippy's `disallowed_types` now, and the token rules
//! live in `minoaner-lint` (R2, R6, R7, see DESIGN.md §12) and
//! the canonical whole-workspace run is `crates/lint/tests/workspace.rs`.
//! This thin test links the same linter and scopes the assertion to
//! `crates/blocking`, so a regression here fails the crate's own suite
//! even when run with `cargo test -p minoaner-blocking`.

use std::path::PathBuf;

#[test]
fn blocking_crate_passes_the_determinism_lint() {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/blocking has a workspace root two levels up");
    let report = minoaner_lint::run_check(root, &root.join("lint-allow.toml"))
        .expect("lint run");
    let ours: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.path.starts_with("crates/blocking/"))
        .collect();
    assert!(
        ours.is_empty(),
        "determinism lint violations in crates/blocking:\n{:#?}",
        ours
    );
    assert!(
        report.policy_errors.is_empty(),
        "lint-allow.toml policy errors:\n{:#?}",
        report.policy_errors
    );
}
