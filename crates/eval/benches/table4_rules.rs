//! Regenerates **Table 4** of the paper: each matching rule executed
//! alone (R1, R2, R3), the workflow without the reciprocity filter (¬R4),
//! and the workflow without neighbor evidence (No Neighbors), with the
//! paper's numbers alongside.

// Benchmarks measure wall-clock by definition; the deny wall
// (clippy::disallowed_methods) applies to library targets.
#![allow(clippy::disallowed_methods)]

use minoaner_dataflow::Executor;
use minoaner_eval::scale_from_env;
use minoaner_eval::tables::table4;

fn main() {
    let scale = scale_from_env();
    let exec = Executor::default();
    let start = std::time::Instant::now();
    let (_rows, table) = table4(&exec, scale);
    println!("{}", table.render());
    println!("(all ablations in {:?})", start.elapsed());
}
