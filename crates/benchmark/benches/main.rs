//! `minoaner-benchmark`: the repository's benchmark (see `../README.md`
//! and the root `BENCHMARK.json`, which names every workload and metric
//! printed here).
//!
//! One invocation measures one workload: it generates the inputs from
//! `--seed` (set-up, repeated to get a steady `setup_s`), runs one
//! discarded reference rep and then timed reps for `--seconds`, each a
//! fresh child process of this same executable (`child.rs`), checks every
//! rep's output against the reference, scores the TSV against the ground
//! truth, and prints one JSON object as the last line of stdout: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics — which add
//! one traced child — with `--trace 1`.

// A benchmark reads the wall clock by definition; the deny wall
// (clippy::disallowed_methods, minoaner-lint R3) is for library targets.
#![allow(clippy::disallowed_methods)]

mod child;
mod setup;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use minoaner_datagen::{profiles, DatasetProfile};
use minoaner_eval::Quality;
use minoaner_kb::EntityId;

use child::KeyValues;
use setup::{Inputs, SetupTimes};

/// Dataset scales, chosen so that one rep lasts 1–2.5 s on a 2-core host
/// and a run (3 set-ups, the reference rep, 15 s of timed reps) stays near
/// 25 s: the driver makes 92 runs inside 3420 s. Constants of the
/// benchmark, identical on both sides of any later A/B.
const BBC_SCALE: f64 = 3.0;
const YAGO_SCALE: f64 = 8.0;
const SMOKE_SCALE: f64 = 0.2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed reps per run: at least `MIN_REPS`, then more until `--seconds`
/// have been measured, never more than `MAX_REPS`.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 12;
const SMOKE_REPS: usize = 2;

#[derive(Clone, Copy)]
enum Dataset {
    /// BBCmusic–DBpedia: verbose, wide schema; parsing dominates.
    Bbc,
    /// YAGO–IMDb: low value similarity, strong neighbours; the blocking
    /// graph dominates.
    Yago,
}

impl Dataset {
    fn profile(self, smoke: bool, seed: u64) -> DatasetProfile {
        let (base, scale) = match self {
            Dataset::Bbc => (profiles::bbc_dbpedia(), BBC_SCALE),
            Dataset::Yago => (profiles::yago_imdb(), YAGO_SCALE),
        };
        let mut profile = base.scaled(if smoke { SMOKE_SCALE } else { scale });
        profile.seed ^= seed;
        profile
    }

    /// Wide floors: they must also hold on held-out seeds and under the
    /// offline stub `rand`, which generates different data than the real one.
    fn f1_floor(self) -> f64 {
        match self {
            Dataset::Bbc => 75.0,
            Dataset::Yago => 65.0,
        }
    }
}

struct Workload {
    name: &'static str,
    dataset: Dataset,
    /// Compiled `.mkb` input instead of the two N-Triples files.
    mkb: bool,
    /// `W` workers instead of 1.
    parallel: bool,
    /// A zero memory budget, so the γ shuffle spills.
    spill: bool,
}

/// Why each exists is recorded in `BENCHMARK.json` and the README.
const WORKLOADS: [Workload; 4] = [
    Workload { name: "bbc_nt_w1", dataset: Dataset::Bbc, mkb: false, parallel: false, spill: false },
    Workload { name: "yago_mkb_w1", dataset: Dataset::Yago, mkb: true, parallel: false, spill: false },
    Workload { name: "yago_mkb_wn", dataset: Dataset::Yago, mkb: true, parallel: true, spill: false },
    Workload { name: "yago_mkb_spill_wn", dataset: Dataset::Yago, mkb: true, parallel: true, spill: true },
];

struct Options {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    reps: Option<usize>,
    scratch: PathBuf,
}

const USAGE: &str = "usage: minoaner-benchmark --workload <name> [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--smoke] [--reps <n>] [--scratch <dir>]
workloads: bbc_nt_w1 yago_mkb_w1 yago_mkb_wn yago_mkb_spill_wn";

impl Options {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 15.0f64, false);
        let (mut smoke, mut reps, mut scratch) = (false, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => {
                    let found = WORKLOADS.iter().find(|w| w.name == value.as_str());
                    workload = Some(found.ok_or_else(|| bad(&"no such workload"))?);
                }
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => trace = value == "1",
                "--reps" => reps = Some(value.parse().map_err(|e| bad(&e))?),
                "--scratch" => scratch = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let scratch = scratch.unwrap_or_else(|| {
            let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
            Path::new(&target).join("benchmark").join(format!("{}-{seed}", workload.name))
        });
        if reps == Some(0) {
            return Err("--reps must be at least 1".into());
        }
        Ok(Self { workload, seed, seconds, trace, smoke, reps, scratch })
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("child") {
        child::run(&child::parse_key_values(argv[1..].iter().map(String::as_str))).map(|()| true)
    } else {
        Options::parse(&argv).map_err(|e| format!("{e}\n{USAGE}")).and_then(|o| run(&o))
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// `clamp(available_parallelism, 2, 4)`: never more threads than that, and
/// the parent only waits while a child runs.
fn parallel_workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get()).clamp(2, 4)
}

/// One finished child and what the parent saw of it.
struct Rep {
    kv: KeyValues,
    /// Parent-measured spawn → exit.
    parent_wall_s: f64,
    tsv_bytes: usize,
    tsv_hash: u64,
    tsv_rows: usize,
}

impl Rep {
    fn num(&self, key: &str) -> Option<f64> {
        self.kv.get(key).and_then(|v| v.parse().ok())
    }

    fn graph_digest(&self) -> Option<u64> {
        self.kv.get("graph_digest").and_then(|d| d.parse().ok())
    }

    /// A span of the benchmark's own; one the child never opened (parsing
    /// on a `.mkb` workload) took no time.
    fn span(&self, name: &str) -> f64 {
        self.num(&format!("span.{name}")).unwrap_or(0.0)
    }
}

struct ChildSpec<'a> {
    opts: &'a Options,
    inputs: &'a Inputs,
    traced: bool,
    workers: usize,
    spill: bool,
}

/// Runs one child to completion and reads back its TSV.
fn run_child(spec: &ChildSpec<'_>) -> Result<Rep, String> {
    let scratch = &spec.opts.scratch;
    let out = scratch.join("matches.tsv");
    let spill_dir = scratch.join("spill");
    let path = |p: &Path| p.display().to_string();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let trace_out = scratch.join(format!("trace-{}.json", spec.opts.workload.name));
    // An empty value selects the text files / the in-memory shuffle.
    let optional = |on: bool, p: &Path| if on { path(p) } else { String::new() };
    let run = format!("{}-{}", spec.opts.workload.name, spec.opts.seed);
    let args = [
        ("mode", if spec.traced { "trace" } else { "rep" }.to_owned()),
        ("mkb", optional(spec.opts.workload.mkb, &spec.inputs.mkb)),
        ("left", path(&spec.inputs.left)),
        ("right", path(&spec.inputs.right)),
        ("gt", path(&spec.inputs.gt)),
        ("workers", spec.workers.to_string()),
        ("spill", optional(spec.spill, &spill_dir)),
        ("out", path(&out)),
        ("trace_out", path(&trace_out)),
        ("run", run),
    ];
    let started = Instant::now();
    let output = Command::new(exe)
        .arg("child")
        .args(args.iter().map(|(key, value)| format!("{key}={value}")))
        .output()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    let parent_wall_s = started.elapsed().as_secs_f64();
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        return Err(format!("child exited with {}: {}", output.status, stderr.trim()));
    }
    if spec.spill && std::fs::read_dir(&spill_dir).is_ok_and(|mut d| d.next().is_some()) {
        return Err(format!("{} is not empty after the run", spill_dir.display()));
    }
    let tsv = std::fs::read(&out).map_err(|e| format!("cannot read {}: {e}", out.display()))?;
    Ok(Rep {
        kv: child::parse_key_values(String::from_utf8_lossy(&output.stdout).lines()),
        parent_wall_s,
        tsv_bytes: tsv.len(),
        tsv_hash: fnv1a(&tsv),
        tsv_rows: tsv.iter().filter(|&&b| b == b'\n').count(),
    })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// The correctness gate: a rep must reproduce the reference rep's graph
/// digest, match count and TSV bytes. The reference is the dataset's plain
/// configuration (1 worker, in memory), so the three `yago_*` workloads
/// are held to one and the same output.
fn same_output(rep: &Rep, reference: &Rep) -> Result<(), String> {
    for key in ["graph_digest", "matches"] {
        if !rep.kv.contains_key(key) || rep.kv.get(key) != reference.kv.get(key) {
            return Err(format!(
                "{key} {:?} differs from the reference {:?}",
                rep.kv.get(key),
                reference.kv.get(key)
            ));
        }
    }
    if rep.tsv_hash != reference.tsv_hash || rep.tsv_rows != reference.tsv_rows {
        return Err(format!(
            "TSV ({} rows, fnv1a {:016x}) differs from the reference ({} rows, {:016x})",
            rep.tsv_rows, rep.tsv_hash, reference.tsv_rows, reference.tsv_hash
        ));
    }
    Ok(())
}

/// A child that ran and passed the gate.
fn checked_child(spec: &ChildSpec<'_>, reference: &Rep) -> Result<Rep, String> {
    let rep = run_child(spec)?;
    same_output(&rep, reference)?;
    Ok(rep)
}

/// The `(left, right)` URI pairs of a TSV document as entity ids, URIs
/// numbered per side in order of first appearance in `ids`.
fn id_pairs<'a>(doc: &'a str, ids: &mut [BTreeMap<&'a str, u32>; 2]) -> Vec<(EntityId, EntityId)> {
    let mut id = |side: usize, uri: &'a str| {
        let next = ids[side].len() as u32;
        EntityId(*ids[side].entry(uri).or_insert(next))
    };
    doc.lines().filter_map(|line| line.split_once('\t')).map(|(l, r)| (id(0, l), id(1, r))).collect()
}

/// `Quality::evaluate` of the TSV against `gt.tsv`, pairs mapped back by URI.
fn score(tsv: &Path, gt: &Path) -> Result<Quality, String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let (tsv_doc, gt_doc) = (read(tsv)?, read(gt)?);
    let mut ids = [BTreeMap::new(), BTreeMap::new()];
    let predicted = id_pairs(&tsv_doc, &mut ids);
    let truth = id_pairs(&gt_doc, &mut ids);
    Ok(Quality::evaluate(&predicted, &truth))
}

fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The metrics of one run, in the order they are printed.
#[derive(Default)]
struct Metrics(Vec<(&'static str, &'static str, f64)>);

impl Metrics {
    /// A value the program did not report (a stage or counter name it no
    /// longer emits) is passed as `None` and printed as -1, never as 0.
    fn push(&mut self, name: &'static str, unit: &'static str, value: impl Into<Option<f64>>) {
        let value = value.into().filter(|v| v.is_finite()).unwrap_or_else(|| {
            eprintln!("note: {name} was not reported by the program; printed as -1");
            -1.0
        });
        self.0.push((name, unit, value));
    }
}

fn run(opts: &Options) -> Result<bool, String> {
    let w = opts.workload;
    let scratch = &opts.scratch;
    // Only ever this benchmark's own directory: the default is keyed by
    // workload and seed, and an explicit --scratch is the caller's choice.
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;

    let profile = w.dataset.profile(opts.smoke, opts.seed);
    let inputs = Inputs::in_dir(scratch);
    let setups: Vec<SetupTimes> = (0..if opts.smoke { 1 } else { SETUP_REPS })
        .map(|_| setup::build(&profile, &inputs, w.mkb))
        .collect::<Result<_, _>>()?;

    let workers = if w.parallel { parallel_workers() } else { 1 };
    let spec = ChildSpec { opts, inputs: &inputs, traced: false, workers, spill: w.spill };

    // The discarded rep: fills the page cache and fixes the expected output.
    let reference = run_child(&ChildSpec { workers: 1, spill: false, ..spec })
        .map_err(|e| format!("reference rep failed: {e}"))?;
    if reference.num("matches") != Some(reference.tsv_rows as f64) {
        return Err(format!(
            "reference rep: {} TSV rows for {:?} matches",
            reference.tsv_rows,
            reference.kv.get("matches")
        ));
    }
    let quality = score(&scratch.join("matches.tsv"), &inputs.gt)?;

    let mut failures: Vec<String> = Vec::new();
    let under_floor = quality.f1 < w.dataset.f1_floor();
    if under_floor {
        failures.push(format!("f1 {:.2} is under the floor {}", quality.f1, w.dataset.f1_floor()));
    }
    let fixed_reps = opts.reps.or(opts.smoke.then_some(SMOKE_REPS));
    let mut reps: Vec<Rep> = Vec::new();
    let mut attempted = 0usize;
    let measuring = Instant::now();
    let wants_another = |attempted: usize| match fixed_reps {
        Some(n) => attempted < n,
        None => {
            attempted < MIN_REPS || (attempted < MAX_REPS && measuring.elapsed().as_secs_f64() < opts.seconds)
        }
    };
    while wants_another(attempted) {
        attempted += 1;
        match checked_child(&spec, &reference) {
            Ok(rep) => reps.push(rep),
            Err(e) => failures.push(format!("rep {attempted}: {e}")),
        }
    }
    let mut traced = None;
    if opts.trace {
        attempted += 1;
        match checked_child(&ChildSpec { traced: true, ..spec }, &reference) {
            Ok(rep) => traced = Some(rep),
            Err(e) => failures.push(format!("traced rep: {e}")),
        }
    }
    // The inputs are regenerated by every run; only the small outputs (the
    // TSV, the Chrome trace) are worth keeping around.
    for path in [&inputs.left, &inputs.right, &inputs.mkb, &inputs.gt] {
        let _ = std::fs::remove_file(path);
    }
    if reps.is_empty() || (opts.trace && traced.is_none()) {
        for f in &failures {
            eprintln!("FAILED {}: {f}", w.name);
        }
        return Err("no rep succeeded; nothing to report".into());
    }
    // An f1 under the floor fails every rep: they all wrote that output.
    let failed = if under_floor { attempted } else { failures.len() };

    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let e2e = per_rep(&|r| r.span("run"));
    let rss_mb = per_rep(&|r| r.num("vm_hwm_kb").unwrap_or(f64::NAN) / 1024.0);
    let setup_totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();

    let mut m = Metrics::default();
    match &traced {
        None => {
            m.push("setup_s", "s", median(&setup_totals));
            m.push("e2e_wall_s", "s", median(&e2e));
            m.push("peak_rss_mb", "MiB", median(&rss_mb));
            m.push("f1", "%", quality.f1);
        }
        Some(t) => per_layer(&mut m, w, &setups, &reps, t, &quality),
    }

    eprintln!(
        "{} seed {} ({} workers, {} timed reps, {} failed)",
        w.name,
        opts.seed,
        workers,
        reps.len(),
        failed
    );
    for (name, unit, value) in &m.0 {
        eprintln!("  {name:<34} {value:>16.6} {unit}");
    }
    for f in &failures {
        eprintln!("FAILED {}: {f}", w.name);
    }

    // The raw per-rep samples, for whoever wants quartiles (run.py does).
    let list = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    println!(
        "samples {{\"workers\":{workers},\"setup_s\":[{}],\"e2e_wall_s\":[{}],\"peak_rss_mb\":[{}],\
         \"load_s\":[{}],\"resolve_s\":[{}],\"write_tsv_s\":[{}],\"graph_digest\":\"{:016x}\",\"matches\":{}}}",
        list(&setup_totals),
        list(&e2e),
        list(&rss_mb),
        list(&per_rep(&|r| r.span("kb.load"))),
        list(&per_rep(&|r| r.span("core.resolve"))),
        list(&per_rep(&|r| r.span("cli.write_tsv"))),
        reference.graph_digest().unwrap_or(0),
        reference.tsv_rows,
    );
    let mut line =
        format!("{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{", failed == 0);
    for (i, (name, unit, value)) in m.0.iter().enumerate() {
        let _ = write!(
            line,
            "{}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}",
            if i == 0 { "" } else { "," }
        );
    }
    println!("{line}}}}}");
    Ok(failed == 0)
}

/// The per-layer metrics (layer = crate). `*.load_s`, `core.resolve_s`,
/// `cli.write_tsv_s` and `proc.*` are medians over the untraced reps;
/// everything else comes from the one traced child `t`.
fn per_layer(m: &mut Metrics, w: &Workload, setups: &[SetupTimes], reps: &[Rep], t: &Rep, q: &Quality) {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    // Summed wall of the named stages in the program's stage log; `None`
    // when the program logged none of them.
    let stage = |names: &[&str]| -> Option<f64> {
        let walls: Vec<f64> = names.iter().filter_map(|n| t.num(&format!("stage.{n}"))).collect();
        (!walls.is_empty()).then(|| walls.iter().sum())
    };
    let counter = |name: &str| t.num(&format!("counter.{name}"));
    // Spill counters exist only where a budget was installed; without one
    // nothing was spilled.
    let spill = |v: Option<f64>| if w.spill { v } else { Some(0.0) };
    let ratio = |a: Option<f64>, b: Option<f64>| Some(a? / b?).filter(|r| r.is_finite());

    // kb
    let parse_s = med(&|r| r.span("kb.parse"));
    let input_bytes = t.num("input_bytes");
    m.push("kb.load_s", "s", med(&|r| r.span("kb.load")));
    m.push("kb.read_s", "s", med(&|r| r.span("kb.read")));
    m.push("kb.parse_s", "s", parse_s);
    m.push("kb.mkb_open_s", "s", med(&|r| r.span("kb.mkb_open")));
    m.push("kb.mkb_to_pair_s", "s", med(&|r| r.span("kb.mkb_to_pair")));
    m.push("kb.stats_s", "s", t.span("kb.stats"));
    m.push("kb.input_bytes", "bytes", input_bytes);
    m.push("kb.triples", "count", t.num("triples"));
    m.push("kb.entities", "count", t.num("entities"));
    m.push(
        "kb.parse_mb_per_s",
        "MB/s",
        if w.mkb { Some(0.0) } else { input_bytes.map(|b| b / 1e6 / parse_s) },
    );

    // blocking
    let graph_s = t.span("blocking.graph");
    let staged: [(&'static str, Option<f64>); 7] = [
        ("blocking.graph.alpha_s", stage(&["graph/alpha"])),
        ("blocking.graph.index_s", stage(&["graph/index"])),
        ("blocking.graph.beta_s", stage(&["graph/beta/Left", "graph/beta/Right"])),
        ("blocking.graph.top_in_neighbors_s", stage(&["graph/top-in-neighbors"])),
        ("blocking.graph.gamma_union_s", stage(&["graph/gamma/union"])),
        ("blocking.graph.gamma_s", stage(&["graph/gamma"])),
        ("blocking.graph.gamma_transpose_s", stage(&["graph/gamma/transpose"])),
    ];
    m.push("blocking.token_blocks_s", "s", t.span("blocking.token_blocks"));
    m.push("blocking.purge_s", "s", t.span("blocking.purge"));
    m.push("blocking.name_blocks_s", "s", t.span("blocking.name_blocks"));
    m.push("blocking.graph_s", "s", graph_s);
    for (name, wall) in staged {
        m.push(name, "s", wall);
    }
    // Serial glue inside build_blocking_graph that no stage covers.
    m.push("blocking.graph.unstaged_s", "s", graph_s - staged.iter().filter_map(|(_, s)| *s).sum::<f64>());
    let directed_edges = counter("blocking/graph_directed_edges");
    let beta_edges = counter("blocking/beta_union_edges");
    let gamma_entries = counter("blocking/gamma_entries");
    let covered = t.num("graph.gt_covered");
    m.push("blocking.token_blocks_built", "count", counter("blocking/token_blocks_built"));
    m.push("blocking.comparisons_after_purge", "count", t.num("purge.comparisons_after"));
    m.push("blocking.comparisons_purged", "count", t.num("purge.comparisons_purged"));
    m.push("blocking.alpha_pairs", "count", counter("blocking/alpha_pairs"));
    m.push("blocking.beta_union_edges", "count", beta_edges);
    m.push("blocking.gamma_entries", "count", gamma_entries);
    m.push("blocking.graph_directed_edges", "count", directed_edges);
    m.push(
        "blocking.edges_kept_ratio",
        "ratio",
        ratio(directed_edges, Some(beta_edges.unwrap_or(0.0) + gamma_entries.unwrap_or(0.0))),
    );
    m.push("blocking.graph_recall", "ratio", ratio(covered, t.num("graph.gt_pairs")));
    m.push("blocking.graph_precision", "ratio", ratio(covered, directed_edges));

    // core
    let resolve_s = med(&|r| r.span("core.resolve"));
    let traced_resolve_s = t.span("core.resolve");
    let match_s = t.span("core.match");
    let spans_inside_resolve: f64 = [
        "kb.stats",
        "blocking.token_blocks",
        "blocking.purge",
        "blocking.name_blocks",
        "blocking.graph",
        "core.match",
    ]
    .iter()
    .map(|s| t.span(s))
    .sum();
    m.push("core.resolve_s", "s", resolve_s);
    m.push("core.traced_resolve_s", "s", traced_resolve_s);
    m.push("core.match_s", "s", match_s);
    m.push("core.r1_s", "s", stage(&["matching/r1"]));
    m.push("core.r2_s", "s", stage(&["matching/r2"]));
    m.push("core.r3_s", "s", stage(&["matching/r3/Left", "matching/r3/Right"]));
    m.push("core.r4_s", "s", stage(&["matching/r4"]));
    m.push("core.glue_s", "s", traced_resolve_s - spans_inside_resolve);
    m.push("core.r1_matches", "count", counter("matching/r1_matches"));
    m.push("core.r2_matches", "count", counter("matching/r2_matches"));
    m.push("core.r3_candidates", "count", counter("matching/r3_candidates"));
    m.push("core.r3_matches", "count", counter("matching/r3_matches"));
    m.push("core.r4_removed", "count", counter("matching/r4_removed"));
    m.push("core.total_matches", "count", counter("matching/total_matches"));
    m.push(
        "core.r3_accept_ratio",
        "ratio",
        ratio(counter("matching/r3_matches"), counter("matching/r3_candidates")),
    );
    m.push("core.precision", "%", q.precision);
    m.push("core.recall", "%", q.recall);
    // The low 48 bits: exact in a JSON number. Information, not a score.
    m.push("core.graph_digest", "hash48", t.graph_digest().map(|d| (d & 0xFFFF_FFFF_FFFF) as f64));

    // dataflow
    let parallel_wall = t.num("log.parallel_stage_wall_s");
    m.push("dataflow.stage_wall_s", "s", t.num("log.stage_wall_s"));
    m.push("dataflow.parallel_stage_wall_s", "s", parallel_wall);
    // The Amdahl number: the share of the resolve spent outside any stage
    // that had more than one task.
    m.push("dataflow.serial_share", "ratio", parallel_wall.map(|p| 1.0 - p / traced_resolve_s));
    m.push("dataflow.stages", "count", t.num("log.stages"));
    m.push("dataflow.tasks", "count", t.num("log.tasks"));
    m.push("dataflow.retries", "count", t.num("log.retries"));
    m.push("dataflow.shuffle_bytes", "bytes", t.num("log.shuffle_bytes"));
    m.push("dataflow.max_partition_skew", "ratio", t.num("log.max_skew"));
    m.push("dataflow.spill_bytes_written", "bytes", spill(counter("spill/bytes_written")));
    m.push("dataflow.spill_runs_written", "count", spill(counter("spill/runs_written")));
    m.push("dataflow.spill_records", "count", spill(counter("spill/records")));
    m.push("dataflow.spill_cleanup_s", "s", spill(stage(&["spill/cleanup"])));
    m.push("dataflow.trace_overhead_ratio", "ratio", traced_resolve_s / resolve_s);

    // cli
    m.push("cli.write_tsv_s", "s", med(&|r| r.span("cli.write_tsv")));
    m.push("cli.output_bytes", "bytes", t.tsv_bytes as f64);

    // proc
    let nan = f64::NAN;
    // The wall the three child spans above add up to, from the same reps.
    m.push("proc.wall_s", "s", med(&|r| r.span("run")));
    m.push("proc.cpu_s", "s", med(&|r| r.num("cpu_s").unwrap_or(nan)));
    m.push("proc.cpu_per_wall", "ratio", med(&|r| r.num("cpu_s").unwrap_or(nan) / r.span("run")));
    m.push("proc.minor_faults", "count", med(&|r| r.num("minflt").unwrap_or(nan)));
    m.push("proc.spawn_overhead_s", "s", med(&|r| r.parent_wall_s - r.span("run")));

    // datagen
    let setup_med = |f: &dyn Fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    m.push("datagen.generate_s", "s", setup_med(&|s| s.generate_s));
    m.push("datagen.write_nt_s", "s", setup_med(&|s| s.write_nt_s));
    m.push("datagen.compile_mkb_s", "s", setup_med(&|s| s.compile_mkb_s));
}
