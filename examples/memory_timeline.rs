//! Per-stage memory of one resolve: the process's `VmRSS`, `VmHWM` (its
//! peak so far), `RssAnon` and `RssFile` after each load step and after
//! every stage, from `/proc/self/status` (Linux; other hosts print `-`),
//! each beside the step's or stage's wall seconds.
//!
//! ```sh
//! cargo run --release --example memory_timeline -- pair.mkb [workers] [--spill <dir>]
//! cargo run --release --example memory_timeline -- left.nt right.nt [workers] [--spill <dir>]
//! ```
//!
//! A `.mkb` pair is read in place (`RssFile` holds the mapped pages a stage
//! has read since the last release); two N-Triples documents are read and
//! parsed one after the other, each dropped once loaded, and the pair is
//! finished (`finish`). The executor is built after the load, as the CLI
//! builds it: its allocator settings would otherwise change what the load
//! allocates. `workers` defaults to 1, so
//! the stages run in order on one thread and a table's lifetime shows as
//! the stages it spans. `--spill <dir>` resolves under a zero memory
//! budget, so that the γ exchange spills its runs to files under `dir`.
//!
//! The resolve is the pipeline's own stage calls — `prepare_blocks`,
//! `build_graph_from_blocks`, `run_matching` — on an executor that carries
//! the timeline observer and the budget, each table dropped where the
//! pipeline drops it.

use std::error::Error;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use minoaner::core::matcher::run_matching;
use minoaner::dataflow::{MemoryBudget, Observer, StageMetric};
use minoaner::kb::parser::load_ntriples_with_mode;
use minoaner::kb::{MkbFile, ParseMode};
use minoaner::{Executor, KbPair, KbPairBuilder, Minoaner, RuleSet, Side};

/// The `/proc/self/status` fields printed, in order.
const FIELDS: [&str; 4] = ["VmRSS", "VmHWM", "RssAnon", "RssFile"];

/// Prints one timeline line: `point`, then each of [`FIELDS`] in MiB, then
/// the wall seconds of the step that ends there, if it is one.
fn report(point: &str, wall: Option<Duration>) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let mib = |field: &str| -> String {
        let kib = status.lines().find_map(|line| {
            let value = line.strip_prefix(field)?.strip_prefix(':')?;
            value.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        });
        kib.map_or_else(|| "-".to_owned(), |kib| format!("{:.1}", kib / 1024.0))
    };
    let values: Vec<String> = FIELDS.iter().map(|field| format!("{:>8}", mib(field))).collect();
    let wall = wall.map_or_else(|| "-".to_owned(), |wall| format!("{:.3}", wall.as_secs_f64()));
    println!("{point:<32} {} {wall:>8}", values.join(" "));
}

/// The clock, read at the start and the end of a step.
#[allow(clippy::disallowed_methods, reason = "the timeline prints each load step's wall time beside its memory")]
fn now() -> Instant {
    Instant::now()
}

/// Reports after every stage of the resolve.
struct Timeline;

impl Observer for Timeline {
    fn on_stage(&self, metric: &StageMetric) {
        report(&metric.name, Some(metric.wall));
    }
}

/// The pair `paths` name: one `.mkb` file, or a left and a right N-Triples
/// document.
fn load(paths: &[String]) -> Result<KbPair, Box<dyn Error>> {
    let start = now();
    match paths {
        [mkb] => {
            let pair = MkbFile::open(Path::new(mkb))?.to_pair()?;
            report("load", Some(now() - start));
            Ok(pair)
        }
        [left, right] => {
            let mut builder = KbPairBuilder::new();
            for (side, path) in [(Side::Left, left), (Side::Right, right)] {
                let start = now();
                let document = std::fs::read_to_string(path)?;
                load_ntriples_with_mode(&mut builder, side, &document, ParseMode::Lenient)?;
                report(&format!("load/{side:?}"), Some(now() - start));
            }
            let start = now();
            let pair = builder.finish();
            report("finish", Some(now() - start));
            Ok(pair)
        }
        _ => Err("expected one .mkb file or two .nt files".into()),
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let spill = match args.iter().position(|arg| arg == "--spill") {
        Some(at) => {
            let dir = args.get(at + 1).cloned().ok_or("--spill needs a directory")?;
            args.drain(at..at + 2);
            Some(dir)
        }
        None => None,
    };
    let workers = match args.last().map(|last| last.parse::<usize>()) {
        Some(Ok(workers)) => {
            args.pop();
            workers
        }
        _ => 1,
    };
    println!("{:<32} {} {:>8}", "point (MiB)", FIELDS.map(|field| format!("{field:>8}")).join(" "), "wall s");
    report("start", None);
    let pair = load(&args)?;

    let mut executor = Executor::new(workers);
    executor.set_observer(Arc::new(Timeline));
    executor.set_memory_budget(spill.map(|dir| MemoryBudget::new(0, dir)));
    let minoaner = Minoaner::new();
    let matches = {
        let graph = {
            let blocks = minoaner.prepare_blocks(&executor, &pair);
            minoaner.build_graph_from_blocks(&executor, &pair, &blocks)
        };
        run_matching(&executor, &pair, &graph, minoaner.config(), RuleSet::FULL).matches
    };
    report("done", None);
    println!("{} matches on {workers} worker(s)", matches.len());
    Ok(())
}
