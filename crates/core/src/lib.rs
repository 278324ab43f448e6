//! # minoaner-core
//!
//! The primary contribution of the MinoanER paper (EDBT 2019): a fully
//! automated, schema-agnostic, non-iterative, massively parallel entity
//! resolution framework for the Web of Data.
//!
//! The entry point is [`Minoaner`]: build a [`minoaner_kb::KbPair`],
//! describe the run with a [`ResolveRequest`], and call [`Minoaner::run`].
//! The pipeline computes KB statistics, builds the composite blocks and
//! the pruned disjunctive blocking graph (Algorithm 1, in
//! `minoaner-blocking`), and applies the four matching rules R1–R4
//! (Algorithm 2, [`matcher`]).
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

pub mod clusters;
pub mod config;
pub mod dirty;
pub mod extensions;
pub mod matcher;
pub mod multi;
pub mod pipeline;
pub mod request;
pub mod resume;

pub use config::{ConfigError, MinoanerConfig, MinoanerConfigBuilder, RuleSet};
pub use dirty::DirtyResolution;
pub use extensions::{ensemble_resolve, EnsembleResolution};
pub use multi::{MultiKb, MultiResolution, ObjectTerm};
pub use matcher::{MatchOutcome, Rule, RuleCounts};
pub use pipeline::{Minoaner, PipelineTimings, PreparedBlocks, PreparedGraph, Resolution};
pub use request::{ResolveInput, ResolveOutcome, ResolveRequest};
pub use resume::{run_fingerprint, CheckpointSpec};

// Re-export for the doctest-friendly API surface.
pub use minoaner_dataflow::{Executor, RunTrace};
