//! # minoaner-core
//!
//! The primary contribution of the MinoanER paper (EDBT 2019): a fully
//! automated, schema-agnostic, non-iterative, massively parallel entity
//! resolution framework for the Web of Data.
//!
//! The entry point is [`Minoaner`]: build a [`minoaner_kb::KbPair`],
//! describe the run with a [`ResolveRequest`], and call [`Minoaner::run`],
//! the one way a resolve is executed. Its [`ResolveOutcome`] holds the
//! [`Resolution`] and the run's [`RunTrace`] — every stage's wall time and
//! the run's counters, the one record of how the run went.
//!
//! The pipeline computes KB statistics, builds the composite blocks and
//! purges them, builds the disjunctive blocking graph cut to each node's
//! top-K candidates (Algorithm 1, in `minoaner-blocking`), and applies the
//! four matching rules R1–R4 (Algorithm 2, [`matcher`]). It has no
//! variants: a caller who wants another cut or a subset of the rules (the
//! Table 4 ablations) composes the public stages
//! ([`Minoaner::prepare_blocks`], [`Minoaner::build_graph_from_blocks`] or
//! [`minoaner_blocking::graph::build_blocking_graph`],
//! [`matcher::run_matching`] with a [`RuleSet`]).
//!
//! The paper's two generalizations (§2) take the same pair: one dirty KB
//! is the self-pair [`minoaner_kb::KbPairBuilder::finish_dirty`] builds
//! from the left side, and goes through [`Minoaner::run`]; three or more
//! clean KBs, each the left side of its own pair, go through
//! [`Minoaner::resolve_multi`].
//!
//! ```
//! use minoaner_core::{Minoaner, ResolveRequest};
//! use minoaner_kb::{KbPairBuilder, Side, Term};
//!
//! let mut b = KbPairBuilder::new();
//! b.add_triple(Side::Left, "w:R1", "w:label", Term::Literal("The Fat Duck"));
//! b.add_triple(Side::Right, "d:R2", "d:name", Term::Literal("Fat Duck"));
//! let pair = b.finish();
//!
//! let resolution = Minoaner::new()
//!     .run(ResolveRequest::pair(&pair).workers(2))
//!     .expect("healthy run succeeds")
//!     .into_resolution();
//! assert_eq!(resolution.matches.len(), 1);
//! ```

// Panics are denied in library code outside tests; each audited exception
// is an item- or statement-level `#[expect(…, reason = "bound: …")]`,
// counted per file by tests/manifests.rs (DESIGN.md §12).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::indexing_slicing)
)]

pub mod clusters;
pub mod config;
pub mod matcher;
pub mod multi;
pub mod pipeline;
pub mod request;
pub mod resume;

pub use config::{ConfigError, MinoanerConfig, RuleSet};
pub use multi::MultiResolution;
pub use matcher::{MatchOutcome, Rule, RuleCounts};
pub use pipeline::{Minoaner, PreparedBlocks, Resolution};
pub use request::{ResolveOutcome, ResolveRequest};
pub use resume::{run_fingerprint, CheckpointSpec};

// Re-export for the doctest-friendly API surface.
pub use minoaner_dataflow::{Executor, RunTrace};
