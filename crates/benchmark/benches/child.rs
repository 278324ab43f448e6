//! The child process: one complete files-in → TSV-out run, made through
//! the same public calls `minoaner resolve` makes, in a fresh process so
//! the heap is cold and the peak RSS is this run's own.
//!
//! `mode=rep` calls `Minoaner::run` once. `mode=trace` replaces that one
//! call by the stage-level public functions in pipeline order, each inside
//! a span, on an executor with a `TraceCollector` installed, and copies
//! out the stage log and counters the program returns. Nothing inside the
//! program is instrumented. Results go to stdout as `key=value` lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use minoaner_blocking::graph::{build_blocking_graph, BlockingGraph, GraphConfig};
use minoaner_blocking::name::build_name_blocks;
use minoaner_blocking::purge::purge_blocks;
use minoaner_blocking::token::build_token_blocks_parallel;
use minoaner_core::matcher::run_matching;
use minoaner_core::{Minoaner, MinoanerConfig, ResolveRequest, RuleSet};
use minoaner_dataflow::{Executor, MemoryBudget, StageLog, TraceCollector};
use minoaner_kb::parser::{load_ntriples_with_mode, parse_ground_truth, ParseMode};
use minoaner_kb::stats::{NameStats, RelationStats};
use minoaner_kb::{EntityId, KbPair, KbPairBuilder, MkbFile, Side};

use crate::spans::Tracer;

/// `key=value` arguments and results: the whole parent↔child protocol.
pub type KeyValues = BTreeMap<String, String>;

pub fn parse_key_values<'a>(lines: impl Iterator<Item = &'a str>) -> KeyValues {
    lines.filter_map(|line| line.split_once('=')).map(|(k, v)| (k.to_owned(), v.to_owned())).collect()
}

struct Args {
    traced: bool,
    /// `Some` selects the compiled container, `None` the two text files.
    mkb: Option<PathBuf>,
    left: PathBuf,
    right: PathBuf,
    gt: PathBuf,
    workers: usize,
    spill: Option<PathBuf>,
    out: PathBuf,
    trace_out: PathBuf,
    run: String,
}

impl Args {
    fn parse(kv: &KeyValues) -> Result<Self, String> {
        let get = |key: &str| kv.get(key).cloned().ok_or_else(|| format!("child: missing {key}="));
        let optional_path = |key: &str| kv.get(key).filter(|v| !v.is_empty()).map(PathBuf::from);
        Ok(Self {
            traced: get("mode")? == "trace",
            mkb: optional_path("mkb"),
            left: get("left")?.into(),
            right: get("right")?.into(),
            gt: get("gt")?.into(),
            workers: get("workers")?.parse().map_err(|e| format!("child: workers: {e}"))?,
            spill: optional_path("spill"),
            out: get("out")?.into(),
            trace_out: get("trace_out")?.into(),
            run: get("run")?,
        })
    }
}

/// What a resolve produced, plus (traced runs only) what the program
/// reported about itself while doing so.
struct Resolved {
    matches: Vec<(EntityId, EntityId)>,
    graph_digest: u64,
    traced: Option<Traced>,
}

struct Traced {
    graph: BlockingGraph,
    stages: StageLog,
    counters: BTreeMap<String, u64>,
    comparisons_after_purge: u64,
    comparisons_purged: u64,
}

pub fn run(kv: &KeyValues) -> Result<(), String> {
    let args = Args::parse(kv)?;
    let mut tracer = Tracer::new();
    let mut input_bytes = 0u64;
    let (pair, resolved) = tracer.span("run", |tr| -> Result<_, String> {
        let pair = tr.span("kb.load", |tr| load(tr, &args, &mut input_bytes))?;
        let resolved = tr.span("core.resolve", |tr| {
            if args.traced {
                resolve_traced(tr, &args, &pair)
            } else {
                resolve(&args, &pair)
            }
        })?;
        tr.span("cli.write_tsv", |_| write_tsv(&pair, &resolved.matches, &args.out))
            .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
        Ok((pair, resolved))
    })?;

    // The clock has stopped; everything below is reporting.
    let mut out = String::new();
    let mut span_totals: BTreeMap<&str, f64> = BTreeMap::new();
    for s in tracer.spans() {
        *span_totals.entry(s.name).or_insert(0.0) += s.end - s.start;
    }
    for (name, secs) in &span_totals {
        let _ = writeln!(out, "span.{name}={secs}");
    }
    let kbs = [pair.kb(Side::Left), pair.kb(Side::Right)];
    let _ = writeln!(out, "input_bytes={input_bytes}");
    let _ = writeln!(out, "triples={}", kbs.iter().map(|kb| kb.triple_count()).sum::<usize>());
    let _ = writeln!(out, "entities={}", kbs.iter().map(|kb| kb.len()).sum::<usize>());
    let _ = writeln!(out, "graph_digest={}", resolved.graph_digest);
    let _ = writeln!(out, "matches={}", resolved.matches.len());
    proc_stats(&mut out)?;

    let mut extra = String::new();
    if let Some(traced) = &resolved.traced {
        report_traced(traced, &pair, &args.gt, &mut out, &mut extra)?;
        std::fs::write(&args.trace_out, tracer.chrome_json(&args.run, &extra))
            .map_err(|e| format!("cannot write {}: {e}", args.trace_out.display()))?;
    }
    print!("{out}");
    Ok(())
}

/// `minoaner resolve`'s load path: either both text files (read, parse,
/// read, parse, finish) or the compiled container (open, materialize).
fn load(tr: &mut Tracer, args: &Args, input_bytes: &mut u64) -> Result<KbPair, String> {
    if let Some(mkb) = &args.mkb {
        let file = tr.span("kb.mkb_open", |_| MkbFile::open(mkb)).map_err(|e| e.to_string())?;
        *input_bytes = file.len_bytes() as u64;
        return tr.span("kb.mkb_to_pair", |_| file.to_pair()).map_err(|e| e.to_string());
    }
    let mut builder = KbPairBuilder::new();
    for (side, path) in [(Side::Left, &args.left), (Side::Right, &args.right)] {
        let doc = tr
            .span("kb.read", |_| std::fs::read_to_string(path))
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        *input_bytes += doc.len() as u64;
        tr.span("kb.parse", |_| load_ntriples_with_mode(&mut builder, side, &doc, ParseMode::Strict))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(tr.span("kb.parse", |_| builder.finish()))
}

fn budget(args: &Args) -> Option<MemoryBudget> {
    // A zero budget sends every γ shuffle batch through spill.rs and the Vfs.
    args.spill.as_ref().map(|dir| MemoryBudget::new(0, dir))
}

fn resolve(args: &Args, pair: &KbPair) -> Result<Resolved, String> {
    let mut req = ResolveRequest::pair(pair).workers(args.workers);
    if let Some(budget) = budget(args) {
        req = req.mem_budget(budget);
    }
    let res = Minoaner::new().run(req).map_err(|e| e.to_string())?.into_resolution();
    Ok(Resolved { matches: res.matches, graph_digest: res.graph_digest, traced: None })
}

/// The body of `Minoaner::run_pipeline`, one public stage-level call per
/// span, with the paper's default configuration.
fn resolve_traced(tr: &mut Tracer, args: &Args, pair: &KbPair) -> Result<Resolved, String> {
    let cfg = MinoanerConfig::default();
    let mut executor = Executor::new(args.workers);
    let collector = TraceCollector::new();
    executor.set_observer(collector.clone());
    executor.set_memory_budget(budget(args));

    let (relation_stats, name_stats) =
        tr.span("kb.stats", |_| (RelationStats::compute(pair), NameStats::compute(pair, cfg.name_attrs_k)));
    let mut token_blocks = tr.span("blocking.token_blocks", |_| build_token_blocks_parallel(&executor, pair));
    let total_entities = pair.kb(Side::Left).len() + pair.kb(Side::Right).len();
    let purge = tr.span("blocking.purge", |_| purge_blocks(&mut token_blocks, total_entities));
    let name_blocks = tr.span("blocking.name_blocks", |_| build_name_blocks(pair, &name_stats));
    let graph_cfg = GraphConfig { top_k: cfg.top_k, n_relations: cfg.n_relations, ..GraphConfig::default() };
    let graph = tr.span("blocking.graph", |_| {
        build_blocking_graph(&executor, pair, &relation_stats, &token_blocks, &name_blocks, &graph_cfg)
    });
    let graph_digest = graph.weight_digest();
    let outcome = tr.span("core.match", |_| run_matching(&executor, pair, &graph, &cfg, RuleSet::FULL));

    Ok(Resolved {
        matches: outcome.matches,
        graph_digest,
        traced: Some(Traced {
            graph,
            stages: executor.stage_log(),
            counters: collector.counters(),
            comparisons_after_purge: purge.comparisons_after,
            comparisons_purged: purge.comparisons_before.saturating_sub(purge.comparisons_after),
        }),
    })
}

/// The sorted `left-uri \t right-uri` TSV, flushed and closed before the
/// span around this call ends.
fn write_tsv(pair: &KbPair, matches: &[(EntityId, EntityId)], path: &Path) -> std::io::Result<()> {
    let mut rows: Vec<(&str, &str)> =
        matches.iter().map(|&(l, r)| (pair.uri_of(Side::Left, l), pair.uri_of(Side::Right, r))).collect();
    rows.sort_unstable();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (l, r) in rows {
        out.write_all(l.as_bytes())?;
        out.write_all(b"\t")?;
        out.write_all(r.as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// Peak RSS, CPU time and minor faults of this process so far, as the
/// kernel counts them.
fn proc_stats(out: &mut String) -> Result<(), String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let status = read("/proc/self/status")?;
    let hwm_kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or("no VmHWM in /proc/self/status")?;
    let _ = writeln!(out, "vm_hwm_kb={hwm_kb}");

    // Fields after the parenthesised command name start at field 3.
    let stat = read("/proc/self/stat")?;
    let fields: Vec<&str> =
        stat.rsplit_once(')').map(|(_, rest)| rest.split_whitespace().collect()).unwrap_or_default();
    let field = |n: usize| -> Result<f64, String> {
        fields
            .get(n - 3)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("no field {n} in /proc/self/stat"))
    };
    // utime (14) and stime (15) are in USER_HZ ticks, 100 per second on Linux.
    let _ = writeln!(out, "cpu_s={}", (field(14)? + field(15)?) / 100.0);
    let _ = writeln!(out, "minflt={}", field(10)?);
    Ok(())
}

/// Copies out what the program said about the traced run — summed stage
/// walls by name, the log's totals, the counters — and scores the blocking
/// graph against the ground truth.
fn report_traced(
    traced: &Traced,
    pair: &KbPair,
    gt_path: &Path,
    out: &mut String,
    extra: &mut String,
) -> Result<(), String> {
    let mut walls: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut tasks, mut parallel_wall, mut max_skew) = (0usize, 0.0f64, 0.0f64);
    extra.push_str(",\"stages\":[");
    for (i, s) in traced.stages.iter().enumerate() {
        let wall = s.wall.as_secs_f64();
        *walls.entry(&s.name).or_insert(0.0) += wall;
        tasks += s.tasks;
        if s.tasks > 1 {
            parallel_wall += wall;
        }
        max_skew = max_skew.max(s.io.skew(s.tasks));
        let _ = write!(
            extra,
            "{}{{\"name\":\"{}\",\"wall_s\":{wall},\"tasks\":{},\"retries\":{},\"items_in\":{},\
             \"items_out\":{},\"shuffle_bytes\":{}}}",
            if i == 0 { "\n" } else { ",\n" },
            s.name,
            s.tasks,
            s.retries,
            s.io.items_in,
            s.io.items_out,
            s.io.shuffle_bytes,
        );
    }
    extra.push_str("\n],\"counters\":{");
    for (i, (name, value)) in traced.counters.iter().enumerate() {
        let _ = write!(extra, "{}\"{name}\":{value}", if i == 0 { "" } else { "," });
        let _ = writeln!(out, "counter.{name}={value}");
    }
    extra.push('}');
    for (name, wall) in &walls {
        let _ = writeln!(out, "stage.{name}={wall}");
    }
    let _ = writeln!(out, "log.stages={}", traced.stages.stages().len());
    let _ = writeln!(out, "log.tasks={tasks}");
    let _ = writeln!(out, "log.retries={}", traced.stages.total_retries());
    let _ = writeln!(out, "log.shuffle_bytes={}", traced.stages.total_shuffle_bytes());
    let _ = writeln!(out, "log.max_skew={max_skew}");
    let _ = writeln!(out, "log.stage_wall_s={}", traced.stages.total().as_secs_f64());
    let _ = writeln!(out, "log.parallel_stage_wall_s={parallel_wall}");
    let _ = writeln!(out, "purge.comparisons_after={}", traced.comparisons_after_purge);
    let _ = writeln!(out, "purge.comparisons_purged={}", traced.comparisons_purged);

    // Candidate recall of the blocking graph: ground-truth pairs that are
    // an α pair or joined by a directed edge in either direction.
    let gt_doc =
        std::fs::read_to_string(gt_path).map_err(|e| format!("cannot read {}: {e}", gt_path.display()))?;
    let gt = parse_ground_truth(&gt_doc).map_err(|e| format!("{}: {e}", gt_path.display()))?;
    let entity =
        |side: Side, uri: &str| pair.uris().get(uri).and_then(|sym| pair.kb(side).entity_by_uri(sym));
    let covered = gt
        .iter()
        .filter_map(|(l, r)| Some((entity(Side::Left, l)?, entity(Side::Right, r)?)))
        .filter(|&(l, r)| {
            traced.graph.has_directed_edge(Side::Left, l, r)
                || traced.graph.has_directed_edge(Side::Right, r, l)
        })
        .count();
    let _ = writeln!(out, "graph.gt_pairs={}", gt.len());
    let _ = writeln!(out, "graph.gt_covered={covered}");
    let _ = writeln!(out, "graph.directed_edges={}", traced.graph.num_directed_edges());
    Ok(())
}
