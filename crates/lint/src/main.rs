//! CLI: `minoaner-lint check` — token rules R2, R6 and R7 over the
//! workspace, against its `lint-allow.toml`.
//!
//! Exit codes: 0 clean, 1 violations or policy errors, 2 usage or I/O
//! error.

// `unwrap`/`expect` are denied outside tests; each audited exception is
// an item- or statement-level `#[allow]` under a `// bound:` comment,
// counted per file in lint-allow.toml (minoaner-lint R7, DESIGN.md §12).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: minoaner-lint check\n\
         \n\
         Rules (DESIGN.md §12):"
    );
    for (id, desc) in minoaner_lint::rules::RULES {
        eprintln!("  {id}: {desc}");
    }
    ExitCode::from(2)
}

fn default_root() -> PathBuf {
    // When run via `cargo run -p minoaner-lint`, the manifest dir is
    // crates/lint; the workspace root is two levels up.
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(d) => {
            let p = PathBuf::from(d);
            p.parent()
                .and_then(|p| p.parent())
                .map(|p| p.to_path_buf())
                .unwrap_or(p)
        }
        Err(_) => PathBuf::from("."),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["check"] {
        return usage();
    }

    let root = default_root();
    let report = match minoaner_lint::run_check(&root, &root.join("lint-allow.toml")) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("minoaner-lint: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", report.render_text());
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
