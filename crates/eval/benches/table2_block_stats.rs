//! Regenerates **Table 2** of the paper: block statistics — |B_N|, |B_T|,
//! aggregate comparisons, the brute-force cross product, and the
//! precision / recall / F1 of blocking.

// Benchmarks measure wall-clock by definition; the deny wall
// (clippy::disallowed_methods) applies to library targets.
#![allow(clippy::disallowed_methods)]

use minoaner_eval::scale_from_env;
use minoaner_eval::tables::table2;

fn main() {
    let scale = scale_from_env();
    let start = std::time::Instant::now();
    let (_rows, table) = table2(scale);
    println!("{}", table.render());
    println!("(blocked + scored in {:?})", start.elapsed());
}
