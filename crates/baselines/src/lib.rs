//! # minoaner-baselines
//!
//! The baseline systems of the paper's evaluation (§6, Table 3),
//! implemented from their published descriptions so the comparison can be
//! *run*, not just quoted:
//!
//! * [`bsl`] — the heavily fine-tuned value-only baseline: token n-grams ×
//!   {TF, TF-IDF} × {Cosine, Jaccard, Generalized Jaccard, SiGMa} ×
//!   20 thresholds = the paper's 420-configuration grid, resolved with
//!   Unique Mapping Clustering;
//! * [`paris`] — PARIS-style probabilistic matching on property
//!   functionality (Suchanek et al., PVLDB 2011);
//! * [`sigma`] — SiGMa-style greedy propagation from identical-name seeds
//!   over aligned relations (Lacoste-Julien et al., KDD 2013);
//! * [`rimom`] — RiMOM-IM-style iterative matching with the
//!   one-left-object heuristic (Shao et al., JCST 2016);
//! * [`linda`] — LINDA-style joint matching with edit-distance relation
//!   compatibility (Böhm et al., CIKM 2012);
//! * [`umc`] — Unique Mapping Clustering, shared by all of the above;
//! * [`published`] — the paper's Table 3/Table 4 numbers, for printing
//!   alongside measured results.
//!
//! What the analogues share is written once: every score over two sorted
//! token or gram lists is a walk of `minoaner_kb::merge_join`, and the
//! crate-private `matching` module holds the in-edge table (one
//! `Rows::build` inversion of the relation triples) PARIS, SiGMa and LINDA
//! propagate over, the one-to-one match state SiGMa, LINDA and RiMOM grow
//! (a dense partner slot per entity, read in entity order), and the
//! relation alignment SiGMa and RiMOM learn from it.
//!
//! Each analogue documents its simplifications in its module docs. PARIS,
//! SiGMa, LINDA and RiMOM each run at one setting, as the paper's Table 3
//! rows do: their thresholds and bounds are module constants, documented
//! where they are declared. Only BSL is tuned, over [`BslConfig`].

// `unwrap`/`expect` are denied outside tests; each audited exception is
// an item- or statement-level `#[expect(…, reason = "bound: …")]`,
// counted per file by tests/manifests.rs (DESIGN.md §12).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bsl;
pub mod linda;
mod matching;
pub mod paris;
pub mod published;
pub mod rimom;
pub mod sigma;
pub mod umc;

pub use bsl::{grid_search, BslConfig, BslReport};
pub use linda::run_linda;
pub use paris::run_paris;
pub use rimom::run_rimom;
pub use sigma::run_sigma;
pub use umc::unique_mapping_clustering;
