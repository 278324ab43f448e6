//! Regenerates **Figure 5** of the paper: the F1 sensitivity of MinoanER
//! to its four parameters — k (name attributes), K (candidates per
//! entity), N (relations per entity) and θ (rank-aggregation trade-off) —
//! each swept around the global default configuration (2, 15, 3, 0.6).

// Benchmarks measure wall-clock by definition; the deny wall
// (clippy::disallowed_methods) applies to library targets.
#![allow(clippy::disallowed_methods)]

use minoaner_dataflow::Executor;
use minoaner_eval::figures::fig5;
use minoaner_eval::scale_from_env;

fn main() {
    let scale = scale_from_env();
    let exec = Executor::default();
    let start = std::time::Instant::now();
    let (_points, rendered) = fig5(&exec, scale);
    println!("{rendered}");
    println!("(21 configurations x 4 datasets in {:?})", start.elapsed());
}
