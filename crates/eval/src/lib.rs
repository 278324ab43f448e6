//! # minoaner-eval
//!
//! The evaluation harness that regenerates every table and figure of the
//! MinoanER paper's §6 on the synthetic benchmark analogues:
//!
//! | artifact | builder | bench target |
//! |---|---|---|
//! | Table 1 (dataset statistics) | [`tables::table1`] | `table1_dataset_stats` |
//! | Table 2 (block statistics) | [`tables::table2`] | `table2_block_stats` |
//! | Table 3 (system comparison) | [`tables::table3`] | `table3_comparison` |
//! | Table 4 (matching rules) | [`tables::table4`] | `table4_rules` |
//! | Figure 2 (similarity distribution) | [`figures::fig2`] | `fig2_similarity_distribution` |
//! | Figure 5 (sensitivity) | [`figures::fig5`] | `fig5_sensitivity` |
//! | Figure 6 (scalability) | [`figures::fig6`] | `fig6_scalability` |
//!
//! Every builder returns structured rows plus a
//! rendered text table with the paper's published numbers alongside where
//! they exist. The `MINOANER_SCALE` env var shrinks or grows the datasets.

// `unwrap`/`expect` are denied outside tests; each audited exception is
// an item- or statement-level `#[expect(…, reason = "bound: …")]`,
// counted per file by tests/manifests.rs (DESIGN.md §12).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ablation;
pub mod figures;
pub mod harness;
pub mod metrics;
pub mod report;
pub mod sweeps;
pub mod tables;
pub mod variance;

pub use harness::{dataset_at_scale, run_system, scale_from_env, SystemId, SystemRun};
pub use metrics::Quality;
pub use report::TextTable;
