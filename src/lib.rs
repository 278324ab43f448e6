//! # MinoanER-rs
//!
//! A from-scratch Rust reproduction of **MinoanER** — *Schema-Agnostic,
//! Non-Iterative, Massively Parallel Resolution of Web Entities*
//! (Efthymiou, Papadakis, Stefanidis, Christophides — EDBT 2019).
//!
//! MinoanER resolves entity descriptions across two heterogeneous
//! knowledge bases with no schema alignment, no training data and no
//! iterative convergence: token-level value similarity and statistically
//! derived names/relations feed a composite blocking scheme, abstracted as
//! a *disjunctive blocking graph*, which four generic matching rules
//! (R1–R4) traverse exactly once.
//!
//! This workspace implements the paper's full stack:
//!
//! * [`kb`] — the entity model, N-Triples parsing and all schema-agnostic
//!   statistics (§2);
//! * [`dataflow`] — a hand-rolled parallel dataflow engine standing in for
//!   Spark (§4.1);
//! * [`jobs`] — multi-job orchestration: priority admission, resource
//!   budgets, cooperative cancellation, per-job checkpoints;
//! * [`blocking`] — token/name blocking, Block Purging, and the pruned
//!   disjunctive blocking graph (§3, Algorithm 1);
//! * [`core`] — the non-iterative matcher and end-to-end pipeline
//!   (§4, Algorithm 2), entry point [`Minoaner`];
//! * [`baselines`] — BSL, PARIS, SiGMa- and RiMOM-style systems (§6);
//! * [`datagen`] — synthetic analogues of the four benchmark datasets;
//! * [`eval`] — the harness regenerating every table and figure of §6.
//!
//! ## Quickstart
//!
//! ```
//! use minoaner::{KbPairBuilder, Minoaner, ResolveRequest, Side, Term};
//!
//! let mut b = KbPairBuilder::new();
//! b.add_triple(Side::Left, "w:R1", "w:label", Term::Literal("The Fat Duck"));
//! b.add_triple(Side::Left, "w:R1", "w:hasChef", Term::Uri("w:C1"));
//! b.add_triple(Side::Left, "w:C1", "w:label", Term::Literal("Jonny Lake"));
//! b.add_triple(Side::Right, "d:R2", "d:name", Term::Literal("Fat Duck (Bray)"));
//! b.add_triple(Side::Right, "d:R2", "d:headChef", Term::Uri("d:C2"));
//! b.add_triple(Side::Right, "d:C2", "d:name", Term::Literal("Jonny Lake"));
//! let pair = b.finish();
//!
//! let resolution = Minoaner::new()
//!     .run(ResolveRequest::pair(&pair).workers(4))
//!     .expect("healthy run succeeds")
//!     .into_resolution();
//! assert_eq!(resolution.matches.len(), 2); // both the restaurants and the chefs
//! ```

pub use minoaner_baselines as baselines;
pub use minoaner_blocking as blocking;
pub use minoaner_core as core;
pub use minoaner_dataflow as dataflow;
pub use minoaner_datagen as datagen;
pub use minoaner_det as det;
pub use minoaner_eval as eval;
pub use minoaner_jobs as jobs;
pub use minoaner_kb as kb;

pub use minoaner_det::{DetHashMap, DetHashSet};

pub use minoaner_core::{
    CheckpointSpec, MatchOutcome, Minoaner, MinoanerConfig, Resolution, ResolveInput,
    ResolveOutcome, ResolveRequest, Rule, RuleSet,
};
pub use minoaner_dataflow::{DataflowError, Executor, ExecutorConfig};
pub use minoaner_eval::Quality;
pub use minoaner_kb::{EntityId, KbPair, KbPairBuilder, Side, Term};
