//! Regenerates **Table 3** of the paper: MinoanER vs SiGMa, RiMOM, PARIS
//! and the 420-configuration BSL grid, with the paper's published numbers
//! printed alongside (LINDA appears with published numbers only, exactly
//! as in the paper, which could not run it either).

// Benchmarks measure wall-clock by definition; the deny wall
// (clippy::disallowed_methods) applies to library targets.
#![allow(clippy::disallowed_methods)]

use minoaner_dataflow::{DataflowError, Executor};
use minoaner_eval::scale_from_env;
use minoaner_eval::tables::table3;

fn main() -> Result<(), DataflowError> {
    let scale = scale_from_env();
    let exec = Executor::default();
    let start = std::time::Instant::now();
    let (rows, table) = table3(&exec, scale)?;
    println!("{}", table.render());
    for r in rows.iter().filter(|r| !r.detail.is_empty()) {
        println!("  note [{} / {}]: {}", r.dataset, r.system, r.detail);
    }
    println!("(all systems, all datasets in {:?})", start.elapsed());
    Ok(())
}
