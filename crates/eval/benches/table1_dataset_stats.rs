//! Regenerates **Table 1** of the paper: dataset statistics for the four
//! benchmark analogues. Run with `cargo bench --bench table1_dataset_stats`;
//! set `MINOANER_SCALE` to shrink or grow the datasets.

// Benchmarks measure wall-clock by definition; the deny wall
// (clippy::disallowed_methods) applies to library targets.
#![allow(clippy::disallowed_methods)]

use minoaner_eval::scale_from_env;
use minoaner_eval::tables::table1;

fn main() {
    let scale = scale_from_env();
    let start = std::time::Instant::now();
    let (_rows, table) = table1(scale);
    println!("{}", table.render());
    println!("(generated + measured in {:?})", start.elapsed());
}
