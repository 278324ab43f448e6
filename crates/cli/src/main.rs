//! `minoaner` — command-line entity resolution over N-Triples KBs.
//!
//! ```sh
//! minoaner resolve --left dbpedia.nt --right wikidata.nt --ground-truth gt.tsv
//! minoaner dedup --input crawl.nt --json --lenient
//! ```
//!
//! Bad input never panics the binary: every failure is mapped to a
//! contexted message on stderr and a stable exit code — 1 for I/O, 2 for
//! bad arguments or configuration, 3 for parse failures, 4 for dataflow
//! execution failures, 5 for checkpoint failures, 6 for cancelled runs,
//! 7 for a full disk (ENOSPC on a spill write).

// `unwrap`/`expect` are denied outside tests; each audited exception is
// an item- or statement-level `#[allow]` under a `// bound:` comment,
// counted per file in lint-allow.toml (minoaner-lint R7, DESIGN.md §12).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod args;

use minoaner_det::json::Json;
use minoaner_det::DetHashSet;
use std::fmt;
use std::path::Path;
use std::process::ExitCode;

use minoaner_core::{CheckpointSpec, Minoaner, MinoanerConfig, ResolveOutcome, ResolveRequest};
use minoaner_dataflow::{CheckpointError, DataflowError, Deadline, DegradeOnCkptError, Executor, MemoryBudget, RealFs};
use minoaner_eval::Quality;
use minoaner_kb::dirty::{canonicalize_dirty_matches, DirtyKbBuilder};
use minoaner_kb::parser::{load_ntriples_with_mode, parse_ground_truth, ParseMode, ParseReport};
use minoaner_kb::turtle::load_turtle;
use minoaner_kb::{write_mkb, KbPair, KbPairBuilder, MkbError, MkbFile, Side};

use minoaner_core::multi::{MultiKb, ObjectTerm};

use args::{
    parse, Command, DedupArgs, JobLine, JobsCmd, JobsRunArgs, KbCmd, KbCompileArgs, MultiArgs,
    ResolveArgs, StatsArgs, USAGE,
};

/// Exit code for bad arguments or an invalid configuration.
const EXIT_BAD_ARGS: u8 = 2;
/// Exit code for a strict-mode input parse failure.
const EXIT_PARSE: u8 = 3;
/// Exit code for a dataflow execution failure (a task panicked).
const EXIT_DATAFLOW: u8 = 4;
/// Exit code for a checkpoint failure (snapshot I/O, corruption, schema
/// drift) — distinct from [`EXIT_DATAFLOW`] so operators can tell "the
/// computation failed" apart from "the snapshot store failed".
const EXIT_CHECKPOINT: u8 = 5;
/// Exit code for a cancelled run (user request, job deadline) —
/// deliberate interruption, not a failure, so it gets its own
/// code: retrying with `--resume` is expected to succeed.
const EXIT_CANCELLED: u8 = 6;
/// Exit code for a full disk (ENOSPC/quota exceeded on a spill write) —
/// distinct from [`EXIT_DATAFLOW`] because the fix is operational (free
/// space, point `--spill-dir` elsewhere) rather than a bug to report. The
/// run's scratch directory is cleaned up before exit.
const EXIT_DISK_FULL: u8 = 7;

/// A CLI failure: a user-facing message plus the exit code class it maps
/// to. Everything the subcommands can hit is funneled through this type so
/// no error path panics and every message carries its input context.
#[derive(Debug)]
enum CliError {
    /// Unreadable input file (exit 1).
    Io(String),
    /// Invalid configuration discovered after argument parsing (exit 2).
    Usage(String),
    /// Malformed input in strict mode (exit 3).
    Parse(String),
    /// The execution engine reported a failure (exit 4).
    Dataflow(DataflowError),
    /// The checkpoint subsystem reported a failure (exit 5).
    Checkpoint(CheckpointError),
    /// The run was cancelled cooperatively (exit 6).
    Cancelled(String),
    /// A spill write hit ENOSPC or a quota (exit 7).
    DiskFull(DataflowError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io(m) | CliError::Usage(m) | CliError::Parse(m) => write!(f, "{m}"),
            CliError::Dataflow(e) => write!(f, "dataflow execution failed: {e}"),
            CliError::Checkpoint(e) => write!(f, "checkpointing failed: {e}"),
            CliError::Cancelled(m) => write!(f, "run cancelled: {m}"),
            CliError::DiskFull(e) => {
                write!(f, "{e} — free space or point --spill-dir at a roomier volume")
            }
        }
    }
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Io(_) => ExitCode::FAILURE,
            CliError::Usage(_) => ExitCode::from(EXIT_BAD_ARGS),
            CliError::Parse(_) => ExitCode::from(EXIT_PARSE),
            CliError::Dataflow(_) => ExitCode::from(EXIT_DATAFLOW),
            CliError::Checkpoint(_) => ExitCode::from(EXIT_CHECKPOINT),
            CliError::Cancelled(_) => ExitCode::from(EXIT_CANCELLED),
            CliError::DiskFull(_) => ExitCode::from(EXIT_DISK_FULL),
        }
    }
}

impl From<MkbError> for CliError {
    fn from(e: MkbError) -> Self {
        match e {
            // Unreadable/unwritable container file is plain I/O; anything
            // structural (corruption, schema drift, foreign endianness,
            // oversized ids) is a rejected input, like a parse failure.
            MkbError::Io { .. } => CliError::Io(e.to_string()),
            _ => CliError::Parse(e.to_string()),
        }
    }
}

impl From<DataflowError> for CliError {
    fn from(e: DataflowError) -> Self {
        match e {
            DataflowError::Checkpoint(c) => CliError::Checkpoint(c),
            cancelled @ DataflowError::Cancelled { .. } => {
                CliError::Cancelled(cancelled.to_string())
            }
            full @ DataflowError::DiskFull { .. } => CliError::DiskFull(full),
            other => CliError::Dataflow(other),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(Command::Help) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Command::Resolve(args)) => run(resolve(&args)),
        Ok(Command::Dedup(args)) => run(dedup(&args)),
        Ok(Command::Multi(args)) => run(multi(&args)),
        Ok(Command::Stats(args)) => run(stats(&args)),
        Ok(Command::Jobs(JobsCmd::Run(args))) => match jobs_run(&args) {
            Ok(outcome) => outcome.exit_code(),
            Err(e) => {
                eprintln!("error: {e}");
                e.exit_code()
            }
        },
        Ok(Command::Kb(KbCmd::Compile(args))) => run(kb_compile(&args)),
        Ok(Command::Jobs(JobsCmd::List { root })) => run(jobs_list(&root)),
        Ok(Command::Jobs(JobsCmd::Status { root, id })) => run(jobs_status(&root, &id)),
        Ok(Command::Jobs(JobsCmd::Cancel { root, id })) => run(jobs_cancel(&root, &id)),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(EXIT_BAD_ARGS)
        }
    }
}

fn run(result: Result<(), CliError>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))
}

/// Creates the missing parent directories of an output path, so
/// `--report runs/today/trace.json` works without a prior `mkdir -p`.
fn ensure_parent_dir(path: &str) -> Result<(), CliError> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| CliError::Io(format!("cannot create {}: {e}", parent.display())))?;
        }
    }
    Ok(())
}

/// Applies the CLI's optional `--workers` to a request; without it
/// [`Minoaner::run`] uses one worker per core.
fn with_workers(req: ResolveRequest<'_>, workers: Option<usize>) -> ResolveRequest<'_> {
    match workers {
        Some(w) => req.workers(w),
        None => req,
    }
}

fn parse_mode(lenient: bool) -> ParseMode {
    if lenient {
        ParseMode::Lenient
    } else {
        ParseMode::Strict
    }
}

/// Prints a lenient load's loss accounting when anything was skipped.
fn report_skips(path: &str, report: &ParseReport) {
    if report.skipped == 0 {
        return;
    }
    eprintln!("warning: {path}: skipped {} malformed lines", report.skipped);
    for err in &report.first_errors {
        eprintln!("warning: {path}: {err}");
    }
    if report.skipped > report.first_errors.len() {
        eprintln!(
            "warning: {path}: … and {} more",
            report.skipped - report.first_errors.len()
        );
    }
}

/// Loads a KB file into the builder, picking the parser by extension:
/// `.ttl` → Turtle subset, anything else → N-Triples subset. The mode
/// applies to N-Triples only; the Turtle parser is always strict.
fn load_kb(
    builder: &mut KbPairBuilder,
    side: Side,
    path: &str,
    mode: ParseMode,
) -> Result<usize, CliError> {
    let doc = read(path)?;
    if path.ends_with(".ttl") {
        return load_turtle(builder, side, &doc)
            .map_err(|e| CliError::Parse(format!("{path}: {e}")));
    }
    let report = load_ntriples_with_mode(builder, side, &doc, mode)
        .map_err(|e| CliError::Parse(format!("{path}: {e}")))?;
    report_skips(path, &report);
    Ok(report.parsed)
}

/// Writes the run trace as JSON to `path` (if given), creating missing
/// parent directories.
fn write_report(path: Option<&str>, trace: &minoaner_dataflow::RunTrace) -> Result<(), CliError> {
    let Some(report_path) = path else { return Ok(()) };
    ensure_parent_dir(report_path)?;
    std::fs::write(report_path, trace.to_json())
        .map_err(|e| CliError::Io(format!("cannot write {report_path}: {e}")))?;
    eprintln!(
        "wrote run trace ({} stages, {} counters) to {report_path}",
        trace.stages.len(),
        trace.counters.len()
    );
    Ok(())
}

/// Parses the input KB(s) once and writes the memory-mappable `.mkb`
/// columnar container `resolve --mkb` later opens without re-parsing.
fn kb_compile(args: &KbCompileArgs) -> Result<(), CliError> {
    let mode = parse_mode(args.lenient);
    let mut builder = KbPairBuilder::new();
    let nl = load_kb(&mut builder, Side::Left, &args.left, mode)?;
    let nr = match &args.right {
        Some(right) => load_kb(&mut builder, Side::Right, right, mode)?,
        None => 0,
    };
    let pair = builder.finish();
    ensure_parent_dir(&args.out)?;
    let bytes = write_mkb(&pair, Path::new(&args.out))?;
    eprintln!(
        "compiled {} + {} triples ({} + {} entities) into {} ({bytes} bytes)",
        nl,
        nr,
        pair.kb(Side::Left).len(),
        pair.kb(Side::Right).len(),
        args.out,
    );
    Ok(())
}

/// Loads the resolve inputs: either both text KBs, or a compiled `.mkb`
/// container (verified checksums, then materialized into the pair the
/// pipeline consumes).
fn load_resolve_pair(args: &ResolveArgs) -> Result<KbPair, CliError> {
    if let Some(mkb_path) = &args.mkb {
        let file = MkbFile::open(Path::new(mkb_path))?;
        let pair = file.to_pair()?;
        eprintln!(
            "mapped {mkb_path} ({} bytes): {} + {} entities",
            file.len_bytes(),
            pair.kb(Side::Left).len(),
            pair.kb(Side::Right).len()
        );
        return Ok(pair);
    }
    let (Some(left), Some(right)) = (&args.left, &args.right) else {
        return Err(CliError::Usage("resolve requires --left and --right (or --mkb)".into()));
    };
    let mode = parse_mode(args.lenient);
    let mut builder = KbPairBuilder::new();
    let nl = load_kb(&mut builder, Side::Left, left, mode)?;
    let nr = load_kb(&mut builder, Side::Right, right, mode)?;
    let pair = builder.finish();
    eprintln!(
        "loaded {} + {} triples ({} + {} entities)",
        nl,
        nr,
        pair.kb(Side::Left).len(),
        pair.kb(Side::Right).len()
    );
    Ok(pair)
}

/// The configuration `--k`, `--top-k`, `--n` and `--theta` ask for, or
/// exit 2 naming the first parameter out of range.
fn config(name_attrs_k: usize, top_k: usize, n_relations: usize, theta: f64) -> Result<MinoanerConfig, CliError> {
    let config = MinoanerConfig { name_attrs_k, top_k, n_relations, theta, ..MinoanerConfig::default() };
    config.validate().map_err(|e| CliError::Usage(format!("invalid configuration: {e}")))?;
    Ok(config)
}

/// Builds the optional shuffle [`MemoryBudget`] from `--mem-budget` /
/// `--spill-dir`.
fn resolve_budget(args: &ResolveArgs) -> Option<MemoryBudget> {
    args.mem_budget.map(|bytes| {
        let dir = match &args.spill_dir {
            Some(dir) => std::path::PathBuf::from(dir),
            None => std::env::temp_dir().join("minoaner-spill"),
        };
        MemoryBudget::new(bytes, dir)
    })
}

/// `spec` under the `--resume` and `--degrade-on-ckpt-error` flags.
fn ckpt_policy(mut spec: CheckpointSpec, resume: bool, degrade: bool) -> CheckpointSpec {
    spec.resume = resume;
    if degrade {
        spec.on_error = DegradeOnCkptError::Continue;
    }
    spec
}

/// Prints the spill accounting of a budgeted run (one line, greppable).
fn report_spill(trace: &minoaner_dataflow::RunTrace, budget: Option<&MemoryBudget>) {
    let Some(budget) = budget else { return };
    eprintln!(
        "mem budget {} bytes: spilled {} run(s), {} bytes, {} records",
        budget.limit(),
        trace.counter(minoaner_dataflow::SPILL_RUNS_COUNTER),
        trace.counter(minoaner_dataflow::SPILL_BYTES_COUNTER),
        trace.counter(minoaner_dataflow::SPILL_RECORDS_COUNTER),
    );
}

fn resolve(args: &ResolveArgs) -> Result<(), CliError> {
    let pair = load_resolve_pair(args)?;
    let budget = resolve_budget(args);

    let config = config(args.k, args.top_k, args.n, args.theta)?;

    // `CheckpointStore::open` create_dir_all's the directory itself, so
    // missing parents of --checkpoint-dir are covered too.
    let spec =
        args.checkpoint_dir.as_ref().map(|dir| ckpt_policy(CheckpointSpec::new(dir), args.resume, args.degrade_ckpt));
    let mut req = with_workers(ResolveRequest::pair(&pair), args.workers);
    if let Some(spec) = &spec {
        req = req.checkpoint(spec);
    }
    // A budgeted run is always traced so the spill counters can be
    // reported even without --report.
    if args.report.is_some() || budget.is_some() {
        req = req.trace();
    }
    if let Some(budget) = &budget {
        req = req.mem_budget(budget.clone());
    }
    let ResolveOutcome { resolution: res, trace } = Minoaner::with_config(config).run(req)?;
    if let Some(trace) = &trace {
        if let Some(ckpt_dir) = &args.checkpoint_dir {
            if trace.counter("ckpt/degraded") > 0 {
                eprintln!(
                    "warning: checkpointing degraded mid-run ({} event(s)); output is complete but {ckpt_dir} cannot resume this run",
                    trace.counter("ckpt/degraded"),
                );
            }
            if trace.counter("ckpt/resumed_from") > 0 {
                eprintln!(
                    "resumed from checkpoint barrier {} in {ckpt_dir} ({} bytes restored)",
                    trace.counter("ckpt/resumed_from") - 1,
                    trace.counter("ckpt/bytes_restored"),
                );
            }
            eprintln!(
                "wrote {} checkpoint barrier(s), {} bytes, under {ckpt_dir}",
                trace.counter("ckpt/barriers_written"),
                trace.counter("ckpt/bytes_written"),
            );
        }
        report_spill(trace, budget.as_ref());
        write_report(args.report.as_deref(), trace)?;
    }

    if args.json {
        let rows = res.matches.iter().map(|&(l, r)| {
            Json::obj([
                ("left", Json::str(pair.uri_of(Side::Left, l))),
                ("right", Json::str(pair.uri_of(Side::Right, r))),
            ])
        });
        println!("{}", Json::render(&Json::Arr(rows.collect())));
    } else {
        for &(l, r) in &res.matches {
            println!("{}\t{}", pair.uri_of(Side::Left, l), pair.uri_of(Side::Right, r));
        }
    }

    let c = res.rule_counts;
    eprintln!(
        "{} matches in {:.1} ms (R1={} R2={} R3={}, R4 removed {}; matching {:.0}% of runtime)",
        res.matches.len(),
        res.timings.total.as_secs_f64() * 1000.0,
        c.r1,
        c.r2,
        c.r3,
        c.removed_by_r4,
        res.timings.matching_share(),
    );

    if let Some(gt_path) = &args.ground_truth {
        let gt_doc = read(gt_path)?;
        let uri_pairs = parse_ground_truth(&gt_doc)
            .map_err(|e| CliError::Parse(format!("{gt_path}: {e}")))?;
        let mut gt = Vec::new();
        let mut unresolved = 0usize;
        for (lu, ru) in &uri_pairs {
            let l = pair.uris().get(lu).and_then(|s| pair.kb(Side::Left).entity_by_uri(s));
            let r = pair.uris().get(ru).and_then(|s| pair.kb(Side::Right).entity_by_uri(s));
            match (l, r) {
                (Some(l), Some(r)) => gt.push((l, r)),
                _ => unresolved += 1,
            }
        }
        if unresolved > 0 {
            eprintln!("warning: {unresolved} ground-truth pairs reference unknown URIs");
        }
        let q = Quality::evaluate(&res.matches, &gt);
        eprintln!("quality vs ground truth: {q}");
    }
    Ok(())
}

/// Loads one KB file standalone and extracts its triples in a uniform
/// owned form (entity references back to URIs, literals in normalized
/// form) — the input shape of multi-KB resolution.
fn load_triples(
    path: &str,
    mode: ParseMode,
) -> Result<Vec<(String, String, ObjectTerm)>, CliError> {
    let mut b = KbPairBuilder::new();
    load_kb(&mut b, Side::Left, path, mode)?;
    let pair = b.finish();
    let kb = pair.kb(Side::Left);
    let mut out = Vec::new();
    for (id, e) in kb.iter() {
        let subject = pair.uri_of(Side::Left, id).to_owned();
        for (a, v) in e.pairs() {
            let predicate = pair.attrs().resolve(minoaner_kb::Symbol(a.0)).to_owned();
            let object = match v {
                minoaner_kb::Value::Literal(l) => {
                    ObjectTerm::Literal(pair.literals().resolve(minoaner_kb::Symbol(l.0)).to_owned())
                }
                minoaner_kb::Value::Ref(t) => ObjectTerm::Uri(pair.uri_of(Side::Left, t).to_owned()),
            };
            out.push((subject.clone(), predicate, object));
        }
    }
    Ok(out)
}

fn multi(args: &MultiArgs) -> Result<(), CliError> {
    let mode = parse_mode(args.lenient);
    let mut input = MultiKb::new();
    for path in &args.inputs {
        let idx = input.add_kb();
        let triples = load_triples(path, mode)?;
        eprintln!("loaded {} triples from {path} (kb {idx})", triples.len());
        for (s, p, o) in triples {
            input.add_triple(idx, &s, &p, o);
        }
    }
    let executor = args.workers.map_or_else(Executor::default, Executor::new);
    let res = Minoaner::new().resolve_multi(&executor, &input)?;

    if args.json {
        let rows = res.clusters.iter().map(|cluster| {
            let nodes = cluster
                .iter()
                .map(|(kb, uri)| Json::obj([("kb", Json::num(*kb)), ("uri", Json::str(uri.as_str()))]));
            Json::Arr(nodes.collect())
        });
        println!("{}", Json::render(&Json::Arr(rows.collect())));
    } else {
        for cluster in &res.clusters {
            let parts: Vec<String> =
                cluster.iter().map(|(kb, uri)| format!("{kb}:{uri}")).collect();
            println!("{}", parts.join("	"));
        }
    }
    for ((i, j), n) in &res.pairwise {
        eprintln!("kb {i} vs kb {j}: {n} pairwise matches");
    }
    eprintln!("{} clusters across {} KBs", res.clusters.len(), args.inputs.len());
    Ok(())
}

fn stats(args: &StatsArgs) -> Result<(), CliError> {
    let mode = parse_mode(args.lenient);
    let mut b = KbPairBuilder::new();
    let loaded = load_kb(&mut b, Side::Left, &args.input, mode)?;
    let pair = b.finish();
    let s = minoaner_kb::dataset_stats::kb_stats(&pair, Side::Left, &args.type_attr);
    println!("file:         {}", args.input);
    println!("triples:      {loaded}");
    println!("entities:     {}", s.entities);
    println!("avg tokens:   {:.2}", s.avg_tokens);
    println!("attributes:   {}", s.attributes);
    println!("relations:    {}", s.relations);
    println!("types:        {}", s.types);
    println!("vocabularies: {}", s.vocabularies);
    Ok(())
}

/// How a `jobs run` batch ended, folded into an exit code: failures beat
/// cancellations beat success.
struct JobsOutcome {
    failed: usize,
    cancelled: usize,
}

impl JobsOutcome {
    fn exit_code(&self) -> ExitCode {
        if self.failed > 0 {
            ExitCode::from(EXIT_DATAFLOW)
        } else if self.cancelled > 0 {
            ExitCode::from(EXIT_CANCELLED)
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// The spec a `--job` line asks for.
fn job_spec(line: &JobLine) -> minoaner_jobs::JobSpec {
    let name =
        line.name.clone().unwrap_or_else(|| format!("{} vs {}", line.left, line.right));
    // Without `workers=`, a job gets every core, as `resolve` does.
    let workers = line.workers.unwrap_or_else(minoaner_dataflow::pool::available_cores);
    minoaner_jobs::JobSpec::new(name).with_workers(workers).with_memory_bytes(line.memory_bytes)
}

/// One job of a `jobs run` batch: resolves `pair` on the job's workers,
/// token, `deadline` and memory grant, with checkpoints under its
/// directory, and writes `trace.json` and `matches.tsv` beside its status.
fn run_job(
    ctx: &minoaner_jobs::JobContext,
    pair: &KbPair,
    deadline: Option<Deadline>,
    config: MinoanerConfig,
    args: &JobsRunArgs,
) -> Result<String, DataflowError> {
    let ckpt = ckpt_policy(CheckpointSpec::new(ctx.job_dir().join("ckpt")), args.resume, args.degrade_ckpt);
    let mut req = ResolveRequest::pair(pair)
        .checkpoint(&ckpt)
        .workers(ctx.workers())
        .cancel(ctx.cancel_token().clone());
    if let Some(deadline) = deadline {
        req = req.deadline(deadline);
    }
    // The memory grant is the enforced shuffle ceiling: state beyond it
    // spills under the job's directory.
    if ctx.memory_bytes() > 0 {
        req = req.mem_budget(MemoryBudget::new(ctx.memory_bytes(), ctx.job_dir().join("spill")));
    }
    let ResolveOutcome { resolution: res, trace } = Minoaner::with_config(config).run(req)?;
    // Artifacts are best-effort: the resolution already succeeded, and the
    // summary carries the headline result. A checkpointed run is traced.
    if let Some(trace) = trace {
        let _ = std::fs::write(ctx.job_dir().join("trace.json"), trace.to_json());
    }
    let mut out = String::new();
    for &(l, r) in &res.matches {
        out.push_str(pair.uri_of(Side::Left, l));
        out.push('\t');
        out.push_str(pair.uri_of(Side::Right, r));
        out.push('\n');
    }
    let _ = std::fs::write(ctx.job_dir().join("matches.tsv"), out);
    Ok(format!("{} matches", res.matches.len()))
}

/// Reads one `--job` line's two KB files into a pair.
fn load_pair(line: &JobLine, mode: ParseMode) -> Result<KbPair, CliError> {
    let mut builder = KbPairBuilder::new();
    load_kb(&mut builder, Side::Left, &line.left, mode)?;
    load_kb(&mut builder, Side::Right, &line.right, mode)?;
    Ok(builder.finish())
}

fn jobs_run(args: &JobsRunArgs) -> Result<JobsOutcome, CliError> {
    let mode = parse_mode(args.lenient);
    let config = config(args.k, args.top_k, args.n, args.theta)?;
    // A loader thread parses each job's input while the job before it
    // runs: parsing is one thread per file and much of an N-Triples job,
    // and without the overlap a batch takes a quarter longer
    // (EXPERIMENTS.md). The rendezvous channel holds at most one pair
    // beyond the running job's. A job whose file cannot be loaded fails
    // with the load error and the batch goes on; the command then exits
    // as any command does on that file.
    let load_error = std::cell::RefCell::new(None);
    let statuses = std::thread::scope(|s| {
        let (loaded, inputs) = std::sync::mpsc::sync_channel(0);
        s.spawn(move || {
            for (job, line) in (0u64..).zip(&args.jobs) {
                if loaded.send((job, load_pair(line, mode))).is_err() {
                    break;
                }
            }
        });
        let mut batch = minoaner_jobs::Batch::new(&args.root);
        for line in &args.jobs {
            let spec = job_spec(line);
            let name = spec.name.clone();
            let (inputs, load_error) = (&inputs, &load_error);
            let id = batch.add_job(spec, move |ctx| {
                // Inputs come in job order; a job cancelled before its
                // start never takes its own, so later jobs skip it.
                let pair = loop {
                    match inputs.recv() {
                        Ok((job, pair)) if job == ctx.id().ordinal() => break pair,
                        Ok(_) => {}
                        Err(_) => return Err("the input loader stopped".into()),
                    }
                };
                let pair = pair.map_err(|e| {
                    let message = e.to_string();
                    load_error.borrow_mut().get_or_insert(e);
                    message
                })?;
                // The deadline counts from here: waiting for the input to
                // be parsed is not the job's resolve.
                let deadline = line.deadline_ms.map(|ms| Deadline::after(std::time::Duration::from_millis(ms)));
                Ok(run_job(ctx, &pair, deadline, config, args)?)
            });
            eprintln!("queued {id}: {name}");
        }
        let statuses = batch.run_jobs();
        if batch.status_write_failures() > 0 {
            eprintln!(
                "warning: {} status write(s) under {} failed; the jobs' results stand",
                batch.status_write_failures(),
                args.root
            );
        }
        // Hang up on a loader still offering an input no job will take.
        drop(batch);
        drop(inputs);
        statuses
    });

    let mut failed = 0usize;
    let mut cancelled = 0usize;
    for status in &statuses {
        match status.state {
            minoaner_jobs::JobState::Failed => failed += 1,
            minoaner_jobs::JobState::Cancelled => cancelled += 1,
            _ => {}
        }
        eprintln!("{}", format_status(status));
    }
    eprintln!(
        "{} job(s): {} completed, {cancelled} cancelled, {failed} failed",
        statuses.len(),
        statuses.len() - failed - cancelled,
    );
    match load_error.into_inner() {
        Some(e) => Err(e),
        None => Ok(JobsOutcome { failed, cancelled }),
    }
}

/// One status line: `j0001  completed  2w  name — summary/error`.
fn format_status(status: &minoaner_jobs::JobStatus) -> String {
    let mut line =
        format!("{}  {:<9}  {}w  {}", status.id, status.state, status.workers, status.name);
    if let Some(reason) = status.cancel_reason {
        line.push_str(&format!("  [{reason}]"));
    }
    if let Some(summary) = &status.summary {
        line.push_str(" — ");
        line.push_str(summary);
    } else if let Some(error) = &status.error {
        line.push_str(" — ");
        line.push_str(error);
    }
    line
}

fn jobs_list(root: &str) -> Result<(), CliError> {
    let statuses = minoaner_jobs::control::list_statuses(&RealFs, Path::new(root))
        .map_err(|e| CliError::Io(format!("cannot list jobs under {root}: {e}")))?;
    if statuses.is_empty() {
        eprintln!("no jobs under {root}");
        return Ok(());
    }
    for status in &statuses {
        println!("{}", format_status(status));
    }
    Ok(())
}

fn parse_job_id(id: &str) -> Result<minoaner_jobs::JobId, CliError> {
    minoaner_jobs::JobId::parse(id)
        .ok_or_else(|| CliError::Usage(format!("invalid job id {id:?} (expected j0042 or 42)")))
}

fn jobs_status(root: &str, id: &str) -> Result<(), CliError> {
    let job = parse_job_id(id)?;
    let dir = minoaner_jobs::control::job_dir(Path::new(root), job);
    let status = minoaner_jobs::control::read_status(&RealFs, &dir).map_err(|e| match e {
        minoaner_jobs::ControlError::Io(io) => {
            CliError::Io(format!("cannot read status of {job} under {root}: {io}"))
        }
        malformed => CliError::Parse(malformed.to_string()),
    })?;
    println!("{}", format_status(&status));
    Ok(())
}

fn jobs_cancel(root: &str, id: &str) -> Result<(), CliError> {
    let job = parse_job_id(id)?;
    // A marker for a finished job would only cancel the next run of its id.
    let dir = minoaner_jobs::control::job_dir(Path::new(root), job);
    if let Ok(status) = minoaner_jobs::control::read_status(&RealFs, &dir) {
        if status.state.is_terminal() {
            return Err(CliError::Usage(format!("{job} is already {}", status.state)));
        }
    }
    let found = minoaner_jobs::control::request_cancel(
        &RealFs,
        Path::new(root),
        job,
        minoaner_dataflow::CancelReason::User,
    )
    .map_err(|e| CliError::Io(format!("cannot write cancel marker for {job}: {e}")))?;
    if !found {
        return Err(CliError::Usage(format!("no job {job} under {root}")));
    }
    eprintln!("requested cancellation of {job}; the owning batch honours it at the job's start or its next stage barrier");
    Ok(())
}

fn dedup(args: &DedupArgs) -> Result<(), CliError> {
    let doc = read(&args.input)?;
    let mut builder = DirtyKbBuilder::new();
    let report = builder
        .load_ntriples_with_mode(&doc, parse_mode(args.lenient))
        .map_err(|e| CliError::Parse(format!("{}: {e}", args.input)))?;
    report_skips(&args.input, &report);
    let pair = builder.finish();
    eprintln!("loaded {} triples ({} entities)", report.parsed, pair.kb(Side::Left).len());

    let res = Minoaner::new().run(with_workers(ResolveRequest::pair(&pair), args.workers))?.resolution;
    let duplicates = canonicalize_dirty_matches(&res.matches);

    if args.json {
        let rows = duplicates.iter().map(|&(a, b)| {
            Json::obj([
                ("a", Json::str(pair.uri_of(Side::Left, a))),
                ("b", Json::str(pair.uri_of(Side::Left, b))),
            ])
        });
        println!("{}", Json::render(&Json::Arr(rows.collect())));
    } else {
        for &(a, b) in &duplicates {
            println!("{}\t{}", pair.uri_of(Side::Left, a), pair.uri_of(Side::Left, b));
        }
    }
    let distinct: DetHashSet<_> = duplicates.iter().flat_map(|&(a, b)| [a, b]).collect();
    eprintln!(
        "{} duplicate pairs over {} entities in {:.1} ms",
        duplicates.len(),
        distinct.len(),
        res.timings.total.as_secs_f64() * 1000.0,
    );
    Ok(())
}
