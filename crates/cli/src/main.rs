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

mod args;

use minoaner_det::json::Json;
use minoaner_det::DetHashSet;
use std::fmt;
use std::path::Path;
use std::process::ExitCode;

use minoaner_core::{CheckpointSpec, Minoaner, ResolveRequest};
use minoaner_dataflow::{CheckpointError, DataflowError, DegradeOnCkptError, MemoryBudget};
use minoaner_eval::Quality;
use minoaner_kb::dirty::DirtyKbBuilder;
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
/// Exit code for a cancelled run (user request, job deadline, scheduler
/// shutdown) — deliberate interruption, not a failure, so it gets its own
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

/// Applies the CLI's optional `--workers` override to a request; without
/// it [`Minoaner::run`] falls back to the configuration's worker count,
/// then the engine default.
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

/// Applies the optional `--mem-budget` grant to a request.
fn with_budget<'a>(
    req: ResolveRequest<'a>,
    budget: Option<&MemoryBudget>,
) -> ResolveRequest<'a> {
    match budget {
        Some(b) => req.mem_budget(b.clone()),
        None => req,
    }
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

    let config = minoaner_core::MinoanerConfig::builder()
        .name_attrs_k(args.k)
        .top_k(args.top_k)
        .n_relations(args.n)
        .theta(args.theta)
        .build()
        .map_err(|e| CliError::Usage(format!("invalid configuration: {e}")))?;

    let minoaner = Minoaner::with_config(config);
    let res = if let Some(ckpt_dir) = &args.checkpoint_dir {
        // `CheckpointStore::open` create_dir_all's the directory itself,
        // so missing parents of --checkpoint-dir are covered too.
        let mut spec = CheckpointSpec::new(ckpt_dir);
        spec.resume = args.resume;
        if args.degrade_ckpt {
            spec.on_error = DegradeOnCkptError::Continue;
        }
        let req = with_budget(ResolveRequest::pair(&pair).checkpoint(&spec), budget.as_ref());
        let (res, trace) = minoaner.run(with_workers(req, args.workers))?.into_traced();
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
        report_spill(&trace, budget.as_ref());
        write_report(args.report.as_deref(), &trace)?;
        res
    } else if args.report.is_some() || budget.is_some() {
        // A budgeted run is always traced so the spill counters can be
        // reported even without --report.
        let req = with_budget(ResolveRequest::pair(&pair).trace(), budget.as_ref());
        let (res, trace) = minoaner.run(with_workers(req, args.workers))?.into_traced();
        report_spill(&trace, budget.as_ref());
        write_report(args.report.as_deref(), &trace)?;
        res
    } else {
        minoaner
            .run(with_workers(ResolveRequest::pair(&pair), args.workers))?
            .into_resolution()
    };

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
        for &(a, v) in e.pairs {
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
    let res = Minoaner::new()
        .run(with_workers(ResolveRequest::multi(&input), args.workers))?
        .into_multi();

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
/// cancellations beat sheds beat success.
struct JobsOutcome {
    failed: usize,
    cancelled: usize,
    shed: usize,
}

impl JobsOutcome {
    fn exit_code(&self) -> ExitCode {
        if self.failed > 0 {
            ExitCode::from(EXIT_DATAFLOW)
        } else if self.cancelled > 0 {
            ExitCode::from(EXIT_CANCELLED)
        } else if self.shed > 0 {
            ExitCode::from(EXIT_BAD_ARGS)
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// Builds the scheduler budget for `jobs run`: worker budget defaults to
/// all cores, memory to unlimited.
fn jobs_budget(args: &JobsRunArgs) -> minoaner_jobs::ResourceBudget {
    let workers = args.budget_workers.unwrap_or_else(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    });
    let mut budget =
        minoaner_jobs::ResourceBudget::new(workers.max(1), args.budget_memory.unwrap_or(u64::MAX));
    if let Some(max_running) = args.max_running {
        budget = budget.with_max_running(max_running);
    }
    if let Some(max_queued) = args.max_queued {
        budget = budget.with_max_queued(max_queued);
    }
    budget
}

/// The spec a `--job` line asks for. The priority string was validated at
/// argument parsing, so an unknown name here falls back to normal rather
/// than erroring twice.
fn job_spec(line: &JobLine) -> minoaner_jobs::JobSpec {
    let name =
        line.name.clone().unwrap_or_else(|| format!("{} vs {}", line.left, line.right));
    let mut spec = minoaner_jobs::JobSpec::new(name)
        .with_priority(
            minoaner_jobs::Priority::parse(&line.priority)
                .unwrap_or(minoaner_jobs::Priority::Normal),
        )
        .with_workers(line.workers)
        .with_memory_bytes(line.memory_bytes);
    if let Some(ms) = line.deadline_ms {
        spec = spec.with_deadline(std::time::Duration::from_millis(ms));
    }
    spec
}

fn jobs_run(args: &JobsRunArgs) -> Result<JobsOutcome, CliError> {
    let mode = parse_mode(args.lenient);
    let config = minoaner_core::MinoanerConfig::builder()
        .name_attrs_k(args.k)
        .top_k(args.top_k)
        .n_relations(args.n)
        .theta(args.theta)
        .build()
        .map_err(|e| CliError::Usage(format!("invalid configuration: {e}")))?;
    let sched = minoaner_jobs::JobScheduler::with_control_root(jobs_budget(args), &args.root);
    let mut shed = 0usize;

    for line in &args.jobs {
        // Inputs are loaded before submission so a bad file is an
        // ordinary CLI error, not a failed job.
        let mut builder = KbPairBuilder::new();
        load_kb(&mut builder, Side::Left, &line.left, mode)?;
        load_kb(&mut builder, Side::Right, &line.right, mode)?;
        let pair = builder.finish();
        let spec = job_spec(line);
        let job_name = spec.name.clone();
        let root = args.root.clone();
        let resume = args.resume;
        let degrade_ckpt = args.degrade_ckpt;
        let job_config = config;
        let submitted = sched.submit(spec, move |ctx| {
            let minoaner = Minoaner::with_config(job_config);
            let mut ckpt = CheckpointSpec::for_job(&root, &ctx.id().to_string());
            ckpt.resume = resume;
            if degrade_ckpt {
                ckpt.on_error = DegradeOnCkptError::Continue;
            }
            // The admission grant travels on the request: the budgeted
            // worker count sizes the executor `run` builds, and the job's
            // cancellation token and deadline are installed on it.
            let mut req = ResolveRequest::pair(&pair)
                .checkpoint(&ckpt)
                .workers(ctx.workers())
                .cancel(ctx.cancel_token().clone());
            if let Some(deadline) = ctx.deadline() {
                req = req.deadline(deadline);
            }
            // The declared admission memory is also the enforced shuffle
            // ceiling: state beyond it spills under the job's directory.
            if ctx.memory_bytes() > 0 {
                let spill = match ctx.job_dir() {
                    Some(dir) => dir.join("spill"),
                    None => std::env::temp_dir().join("minoaner-spill"),
                };
                req = req.mem_budget(MemoryBudget::new(ctx.memory_bytes(), spill));
            }
            let (res, trace) = minoaner.run(req)?.into_traced();
            if let Some(dir) = ctx.job_dir() {
                // Artifacts are best-effort: the resolution already
                // succeeded, and the summary carries the headline result.
                let _ = std::fs::write(dir.join("trace.json"), trace.to_json());
                let mut out = String::new();
                for &(l, r) in &res.matches {
                    out.push_str(pair.uri_of(Side::Left, l));
                    out.push('\t');
                    out.push_str(pair.uri_of(Side::Right, r));
                    out.push('\n');
                }
                let _ = std::fs::write(dir.join("matches.tsv"), out);
            }
            Ok(minoaner_jobs::JobOutput::summary(format!("{} matches", res.matches.len()))
                .with_trace(trace))
        });
        match submitted {
            Ok(id) => eprintln!("submitted {id}: {job_name}"),
            Err(reason) => {
                shed += 1;
                eprintln!("warning: {job_name}: {reason}");
            }
        }
    }

    // Wait for the batch, honouring `minoaner jobs cancel` markers from
    // other processes while it runs.
    loop {
        sched.poll_control();
        if sched.list().iter().all(|s| s.state.is_terminal()) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let statuses = sched.wait_all();

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
        "{} job(s): {} completed, {cancelled} cancelled, {failed} failed, {shed} shed",
        statuses.len() + shed,
        statuses.len() - failed - cancelled,
    );
    Ok(JobsOutcome { failed, cancelled, shed })
}

/// One status line: `j0001  completed  high  2w  name — summary/error`.
fn format_status(status: &minoaner_jobs::JobStatus) -> String {
    let mut line = format!(
        "{}  {:<9}  {:<6}  {}w  {}",
        status.id, status.state, status.priority, status.workers, status.name
    );
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
    let statuses = minoaner_jobs::control::list_statuses(Path::new(root))
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
    let status = minoaner_jobs::control::read_status(&dir).map_err(|e| match e {
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
    let found = minoaner_jobs::control::request_cancel(
        Path::new(root),
        job,
        minoaner_dataflow::CancelReason::User,
    )
    .map_err(|e| CliError::Io(format!("cannot write cancel marker for {job}: {e}")))?;
    if !found {
        return Err(CliError::Usage(format!("no job {job} under {root}")));
    }
    eprintln!("requested cancellation of {job}; the owning scheduler will honour it at the next stage barrier");
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

    let res = Minoaner::new()
        .run(with_workers(ResolveRequest::pair(&pair).dirty(), args.workers))?
        .into_dirty();

    if args.json {
        let rows = res.duplicates.iter().map(|&(a, b)| {
            Json::obj([
                ("a", Json::str(pair.uri_of(Side::Left, a))),
                ("b", Json::str(pair.uri_of(Side::Left, b))),
            ])
        });
        println!("{}", Json::render(&Json::Arr(rows.collect())));
    } else {
        for &(a, b) in &res.duplicates {
            println!("{}\t{}", pair.uri_of(Side::Left, a), pair.uri_of(Side::Left, b));
        }
    }
    let distinct: DetHashSet<_> =
        res.duplicates.iter().flat_map(|&(a, b)| [a, b]).collect();
    eprintln!(
        "{} duplicate pairs over {} entities in {:.1} ms",
        res.duplicates.len(),
        distinct.len(),
        res.inner.timings.total.as_secs_f64() * 1000.0,
    );
    Ok(())
}
