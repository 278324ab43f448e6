//! # minoaner-blocking
//!
//! MinoanER's composite, schema-agnostic blocking layer (§3 of the paper):
//!
//! * [`token::build_token_blocks`] — parameter-free token blocking, whose
//!   block sizes double as the entity frequencies of the value similarity;
//! * [`name::build_name_blocks`] — blocking on the values of each KB's
//!   statistically derived top-k name attributes;
//! * [`purge::purge_blocks`] — Block Purging of oversized, stopword-like
//!   token blocks;
//! * [`graph::build_blocking_graph`] — Algorithm 1: the disjunctive
//!   blocking graph with α/β/γ edge weights, pruned to the top-K candidates
//!   per node and per evidence kind;
//! * [`stats::block_stats`] — the Table 2 block statistics.

// Panics are denied in library code outside tests; each audited exception
// is an item- or statement-level `#[expect(…, reason = "bound: …")]`,
// counted per file by tests/manifests.rs (DESIGN.md §12).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)
)]

pub mod accum;
pub mod block;
pub mod graph;
pub mod name;
pub mod purge;
#[cfg(test)]
mod reference;
pub mod stats;
pub mod token;

pub use block::{Block, Blocks, NameBlocks, TokenBlocks};
pub use graph::{BlockingGraph, Candidate, GraphConfig};
pub use purge::PurgeReport;
