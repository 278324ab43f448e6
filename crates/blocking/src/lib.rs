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
//! * [`stats::block_stats`] — the Table 2 block statistics;
//! * [`lsh`] — MinHash-LSH blocking, the §5 related-work alternative, for
//!   comparison benches.

pub mod accum;
pub mod block;
pub mod filtering;
pub mod graph;
pub mod intersect;
pub mod lsh;
pub mod name;
pub mod purge;
#[cfg(test)]
mod reference;
pub mod sorted_neighborhood;
pub mod stats;
pub mod token;

pub use block::{Block, Blocks, NameBlocks, TokenBlocks};
pub use graph::{BetaWeighting, BlockingGraph, Candidate, GraphConfig};
pub use intersect::{intersect_into, intersect_visit};
pub use purge::PurgeReport;
