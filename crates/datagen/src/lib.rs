//! # minoaner-datagen
//!
//! Synthetic paired-KB generator standing in for the paper's four benchmark
//! datasets (Restaurant, Rexa-DBLP, BBCmusic-DBpedia, YAGO-IMDb), which are
//! not redistributable/downloadable in this environment. A generated
//! *world* of entities is viewed twice through KB-specific schemas, noise
//! and verbosity (see [`world::generate`]); entities visible in both views
//! form the ground truth. Profiles in [`profiles`] preserve the benchmark
//! characteristics that drive the paper's results — see DESIGN.md §4 for
//! the substitution rationale.
//!
//! ```
//! use minoaner_datagen::{generate, profiles};
//!
//! let dataset = generate(&profiles::restaurant().scaled(0.2));
//! assert!(!dataset.ground_truth.is_empty());
//! ```

// `unwrap`/`expect` are denied outside tests; each audited exception is
// an item- or statement-level `#[expect(…, reason = "bound: …")]`,
// counted per file by tests/manifests.rs (DESIGN.md §12).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod profile;
pub mod profiles;
pub mod world;

pub use profile::{DatasetProfile, KbProfile};
pub use world::{generate, GeneratedDataset};
