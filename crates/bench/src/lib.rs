//! # minoaner-bench
//!
//! Holds the paper-reproduction bench targets in `benches/`: one per
//! table and figure (`table1…table4`, `fig2`, `fig5`, `fig6`), the
//! design-choice `ablations`, and the criterion `micro` kernels. This
//! library target is empty; cargo needs it to attach the benches to.
//!
//! Timings for comparing commits come from the repository benchmark in
//! `crates/benchmark` (root `BENCHMARK.json`), not from here.
