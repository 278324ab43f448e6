//! Regenerates **Figure 2** of the paper: the value-similarity vs
//! max-neighbor-similarity distribution of the ground-truth matches of
//! each dataset, as an ASCII density scatter with the regime summary
//! (strongly vs nearly similar, identical-name share).

// Benchmarks measure wall-clock by definition; the deny wall
// (clippy::disallowed_methods) applies to library targets.
#![allow(clippy::disallowed_methods)]

use minoaner_eval::figures::fig2;
use minoaner_eval::scale_from_env;

fn main() {
    let scale = scale_from_env();
    let start = std::time::Instant::now();
    let (_points, rendered) = fig2(scale);
    println!("{rendered}");
    println!("(computed in {:?})", start.elapsed());
}
