//! Regenerates **Figure 6** of the paper: end-to-end running time and
//! speedup of MinoanER as the number of dataflow workers grows (the paper
//! sweeps 1 → 72 cores on its Spark cluster; this sweeps 1 → the local
//! machine's cores with the paper's 3-tasks-per-core convention), plus the
//! matching phase's share of total runtime (§6.2).

// Benchmarks measure wall-clock by definition; the deny wall
// (clippy::disallowed_methods) applies to library targets.
#![allow(clippy::disallowed_methods)]

use minoaner_dataflow::DataflowError;
use minoaner_eval::figures::fig6;
use minoaner_eval::scale_from_env;

fn main() -> Result<(), DataflowError> {
    let scale = scale_from_env();
    let reps: usize =
        std::env::var("MINOANER_REPS").ok().and_then(|s| s.parse().ok()).unwrap_or(3);
    let start = std::time::Instant::now();
    let (_points, rendered) = fig6(scale, reps)?;
    println!("{rendered}");
    println!("(worker sweep x 4 datasets, {reps} repetitions each, in {:?})", start.elapsed());
    Ok(())
}
