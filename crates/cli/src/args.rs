//! Minimal, dependency-free command-line argument parsing for the
//! `minoaner` binary.

use std::fmt;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Clean-clean resolution of two N-Triples KBs.
    Resolve(ResolveArgs),
    /// Dirty-ER duplicate detection within one N-Triples KB.
    Dedup(DedupArgs),
    /// Multi-KB resolution: cluster entities across 3+ KBs.
    Multi(MultiArgs),
    /// Print Table-1-style statistics for a KB file.
    Stats(StatsArgs),
    /// Multi-job orchestration: run, list, inspect and cancel jobs.
    Jobs(JobsCmd),
    /// KB container maintenance: compile text KBs into `.mkb` files.
    Kb(KbCmd),
    /// Print usage.
    Help,
}

/// The `minoaner kb` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum KbCmd {
    /// Parse one or two text KBs and write a memory-mappable `.mkb`
    /// columnar container.
    Compile(KbCompileArgs),
}

/// Arguments of `minoaner kb compile`.
#[derive(Debug, Clone, PartialEq)]
pub struct KbCompileArgs {
    /// Left KB path (N-Triples or Turtle).
    pub left: String,
    /// Right KB path; `None` compiles a single-KB (dirty-ER style) pair
    /// whose right side is empty.
    pub right: Option<String>,
    /// Output `.mkb` path.
    pub out: String,
    /// Skip malformed N-Triples lines instead of aborting the load.
    pub lenient: bool,
}

/// The `minoaner jobs` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum JobsCmd {
    /// Submit and run a batch of resolve jobs under one scheduler.
    Run(JobsRunArgs),
    /// List all job statuses under a jobs root.
    List {
        /// The jobs root directory.
        root: String,
    },
    /// Print one job's status.
    Status {
        /// The jobs root directory.
        root: String,
        /// The job id (`j0042` or `42`).
        id: String,
    },
    /// Request cancellation of a job (drops a `CANCEL` marker the owning
    /// scheduler picks up).
    Cancel {
        /// The jobs root directory.
        root: String,
        /// The job id (`j0042` or `42`).
        id: String,
    },
}

/// Arguments of `minoaner jobs run`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobsRunArgs {
    /// The jobs root: control plane (status files, cancel markers) and
    /// per-job checkpoint directories live under it.
    pub root: String,
    /// The jobs to submit, in submission order.
    pub jobs: Vec<JobLine>,
    /// Total worker budget across running jobs (default: all cores).
    pub budget_workers: Option<usize>,
    /// Total memory budget in bytes (default: unlimited).
    pub budget_memory: Option<u64>,
    /// Cap on concurrently running jobs (default: the worker budget).
    pub max_running: Option<usize>,
    /// Cap on queued jobs; beyond it submissions are shed (default 64).
    pub max_queued: Option<usize>,
    /// The four MinoanER parameters, shared by all jobs.
    pub k: usize,
    pub top_k: usize,
    pub n: usize,
    pub theta: f64,
    /// Skip malformed N-Triples lines instead of aborting the load.
    pub lenient: bool,
    /// Resume each job from its newest valid checkpoint.
    pub resume: bool,
    /// On a checkpoint I/O failure, keep each job running uncheckpointed
    /// instead of failing it.
    pub degrade_ckpt: bool,
}

/// One `--job` specification: `left=<path>,right=<path>` plus optional
/// `name=`, `priority=low|normal|high`, `workers=<n>`, `memory=<bytes>`,
/// `deadline-ms=<n>`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobLine {
    /// Human-readable name (defaults to `left vs right`).
    pub name: Option<String>,
    /// Left KB path.
    pub left: String,
    /// Right KB path.
    pub right: String,
    /// Scheduling priority name (`low`/`normal`/`high`), validated here.
    pub priority: String,
    /// Worker threads for this job's executor.
    pub workers: usize,
    /// Declared memory need, charged against the budget.
    pub memory_bytes: u64,
    /// Wall-clock deadline in milliseconds from submission.
    pub deadline_ms: Option<u64>,
}

/// Arguments of `minoaner resolve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolveArgs {
    /// Left KB path (N-Triples); `None` when loading from `--mkb`.
    pub left: Option<String>,
    /// Right KB path (N-Triples); `None` when loading from `--mkb`.
    pub right: Option<String>,
    /// Pre-compiled `.mkb` container holding both sides (mutually
    /// exclusive with `--left`/`--right`).
    pub mkb: Option<String>,
    /// Memory budget in bytes for shuffle state (the blocking graph's
    /// β-edge exchange, 16 B per retained edge); runs beyond it spill to
    /// disk instead of staying on the heap.
    pub mem_budget: Option<u64>,
    /// Directory for spill run files (default: the system temp dir).
    pub spill_dir: Option<String>,
    /// Optional ground-truth pair list for scoring.
    pub ground_truth: Option<String>,
    /// Worker threads (default: all cores).
    pub workers: Option<usize>,
    /// The four MinoanER parameters (defaults 2, 15, 3, 0.6).
    pub k: usize,
    pub top_k: usize,
    pub n: usize,
    pub theta: f64,
    /// Emit matches as JSON instead of TSV.
    pub json: bool,
    /// Skip malformed N-Triples lines instead of aborting the load.
    pub lenient: bool,
    /// Write a JSON run trace (stage wall times, counters) to this path.
    pub report: Option<String>,
    /// Checkpoint pipeline state at stage barriers under this directory.
    pub checkpoint_dir: Option<String>,
    /// Resume from the newest valid checkpoint in `checkpoint_dir`.
    pub resume: bool,
    /// On a checkpoint I/O failure, keep running uncheckpointed instead of
    /// failing the run (`ckpt/degraded` counts the degradations).
    pub degrade_ckpt: bool,
}

/// Arguments of `minoaner dedup`.
#[derive(Debug, Clone, PartialEq)]
pub struct DedupArgs {
    /// KB path (N-Triples).
    pub input: String,
    /// Worker threads (default: all cores).
    pub workers: Option<usize>,
    /// Emit duplicates as JSON instead of TSV.
    pub json: bool,
    /// Skip malformed N-Triples lines instead of aborting the load.
    pub lenient: bool,
}

/// Arguments of `minoaner multi`.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiArgs {
    /// Three or more KB paths.
    pub inputs: Vec<String>,
    pub workers: Option<usize>,
    pub json: bool,
    /// Skip malformed N-Triples lines instead of aborting the load.
    pub lenient: bool,
}

/// Arguments of `minoaner stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsArgs {
    /// KB path.
    pub input: String,
    /// Attribute treated as the entity-type predicate (Table 1 "types").
    pub type_attr: String,
    /// Skip malformed N-Triples lines instead of aborting the load.
    pub lenient: bool,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parses a byte count with an optional `k`/`m`/`g` (or `K`/`M`/`G`)
/// binary suffix: `"512"` → 512, `"64m"` → 64 MiB, `"2g"` → 2 GiB.
pub fn parse_bytes(s: &str) -> Result<u64, ArgError> {
    let err = || ArgError(format!("expected bytes with optional k/m/g suffix (got {s:?})"));
    let (digits, shift) = match s.as_bytes().last() {
        Some(b'k' | b'K') => (&s[..s.len() - 1], 10u32),
        Some(b'm' | b'M') => (&s[..s.len() - 1], 20),
        Some(b'g' | b'G') => (&s[..s.len() - 1], 30),
        Some(_) => (s, 0),
        None => return Err(err()),
    };
    let base: u64 = digits.parse().map_err(|_| err())?;
    base.checked_shl(shift)
        .filter(|v| v >> shift == base)
        .ok_or_else(|| ArgError(format!("byte count {s:?} overflows u64")))
}

pub const USAGE: &str = "\
minoaner — schema-agnostic entity resolution (MinoanER, EDBT 2019)

USAGE:
    minoaner resolve --left <a.nt> --right <b.nt> [OPTIONS]
    minoaner dedup   --input <kb.nt> [OPTIONS]
    minoaner multi   --kb <a.nt> --kb <b.nt> --kb <c.nt> ... [OPTIONS]
    minoaner stats   --input <kb.nt> [--type-attr <iri>]
    minoaner jobs    run|list|status|cancel --root <dir> [OPTIONS]
    minoaner kb      compile <left.nt> [<right.nt>] <out.mkb> [--lenient]
    minoaner help

KB files ending in .ttl are parsed as Turtle (subset); everything else as
N-Triples (subset).

COMMON OPTIONS (all commands):
    --strict                abort on the first malformed N-Triples line (default)
    --lenient               skip malformed N-Triples lines, reporting exact counts
                            (Turtle inputs are always strict)

EXIT CODES:
    0  success
    1  I/O failure (unreadable input file)
    2  bad arguments or invalid configuration (for `jobs run`: a submission
       was shed by admission control)
    3  input parse failure (strict mode)
    4  dataflow execution failure (a task panicked; for `jobs run`: at
       least one job failed)
    5  checkpoint failure (snapshot I/O error, corrupt/incompatible checkpoint)
    6  run cancelled (user request, job deadline, or scheduler shutdown;
       for `jobs run`: at least one job was cancelled and none failed)
    7  disk full (ENOSPC/quota on a spill write; the run's scratch
       directory is cleaned up before exit — free space and retry)

RESOLVE OPTIONS:
    --left <path>           left KB, N-Triples
    --right <path>          right KB, N-Triples
    --mkb <path>            load both sides from a compiled .mkb container
                            (memory-mapped; replaces --left/--right)
    --mem-budget <bytes>    ceiling on resident shuffle state — the blocking
                            graph's beta-edge exchange, 16 bytes per retained
                            edge (not the KB or the graph itself); accepts
                            k/m/g suffixes (e.g. 8m, 0 = spill everything).
                            Runs beyond it spill to disk; results are
                            bit-identical either way
    --spill-dir <dir>       where spill run files go (default: system temp;
                            requires --mem-budget)
    --ground-truth <path>   optional pair list (left-uri <TAB> right-uri) to score against
    --workers <n>           dataflow workers (default: all cores)
    --k <n>                 name attributes per KB (default 2)
    --top-k <n>             candidates per entity (default 15)
    --n <n>                 relations per entity (default 3)
    --theta <f>             value/neighbor trade-off in (0,1) (default 0.6)
    --json                  emit JSON instead of TSV
    --report <path>         write a JSON run trace (per-stage wall times, item
                            counts, shuffle volume, fault and domain counters)
    --checkpoint-dir <dir>  materialize crash-safe checkpoints at every stage
                            barrier under <dir> (created if missing)
    --resume                resume from the newest valid checkpoint in
                            --checkpoint-dir instead of recomputing
    --degrade-on-ckpt-error keep running (uncheckpointed) when checkpoint I/O
                            fails instead of aborting; degradations are
                            counted in the ckpt/degraded trace counter

DEDUP OPTIONS:
    --input <path>          the dirty KB, N-Triples
    --workers <n>           dataflow workers
    --json                  emit JSON instead of TSV

MULTI OPTIONS:
    --kb <path>             a KB file (repeat 2+ times)
    --workers <n>           dataflow workers
    --json                  emit JSON instead of text clusters

STATS OPTIONS:
    --input <path>          the KB file
    --type-attr <iri>       type predicate (default rdf:type)

JOBS:
    minoaner jobs run    --root <dir> --job <spec> [--job <spec> ...] [OPTIONS]
    minoaner jobs list   --root <dir>
    minoaner jobs status --root <dir> --id <jobid>
    minoaner jobs cancel --root <dir> --id <jobid>

    A job <spec> is comma-separated key=value pairs:
        left=<path>,right=<path>[,name=<s>][,priority=low|normal|high]
        [,workers=<n>][,memory=<bytes>][,deadline-ms=<n>]

    Each job checkpoints under <root>/job-<id>/ckpt and mirrors its status
    to <root>/job-<id>/status.json; `jobs cancel` drops a CANCEL marker
    there that the running scheduler honours cooperatively at the next
    stage barrier (completed checkpoint barriers stay resumable).

JOBS RUN OPTIONS:
    --root <dir>            jobs root (control plane + per-job checkpoints)
    --job <spec>            a job to submit (repeatable, in priority order)
    --budget-workers <n>    total worker budget across running jobs
                            (default: all cores)
    --budget-memory <bytes> total declared-memory budget (default: unlimited)
    --max-running <n>       cap on concurrently running jobs
                            (default: the worker budget)
    --max-queued <n>        cap on waiting jobs; submissions beyond it are
                            shed with a structured reason (default 64)
    --k/--top-k/--n/--theta MinoanER parameters shared by all jobs
    --resume                resume each job from its newest valid checkpoint
    --degrade-on-ckpt-error keep jobs running (uncheckpointed) when their
                            checkpoint I/O fails instead of failing them

    A job with memory=<bytes> resolves under that grant: shuffle state
    beyond it spills to <root>/job-<id>/spill and is read back, so the
    declared admission memory is also the enforced working-set ceiling.

KB COMPILE:
    minoaner kb compile <left.nt> [<right.nt>] <out.mkb> [--lenient]

    Parses the input KB(s) once and writes a versioned, checksummed
    columnar container that later runs open via mmap in microseconds
    (`resolve --mkb`). With one input the right side is left empty.
";

/// Parses the command line (excluding `argv[0]`).
pub fn parse(args: &[String]) -> Result<Command, ArgError> {
    let mut it = args.iter();
    let command = match it.next().map(String::as_str) {
        Some("resolve") => "resolve",
        Some("dedup") => "dedup",
        Some("multi") => "multi",
        Some("stats") => "stats",
        Some("jobs") => return parse_jobs(&args[1..]),
        Some("kb") => return parse_kb(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => return Ok(Command::Help),
        Some(other) => return Err(ArgError(format!("unknown command {other:?}; try `minoaner help`"))),
    };

    let mut left = None;
    let mut right = None;
    let mut input = None;
    let mut kbs: Vec<String> = Vec::new();
    let mut type_attr = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type".to_owned();
    let mut ground_truth = None;
    let mut workers = None;
    let mut k = 2usize;
    let mut top_k = 15usize;
    let mut n = 3usize;
    let mut theta = 0.6f64;
    let mut json = false;
    let mut lenient = false;
    let mut report = None;
    let mut checkpoint_dir = None;
    let mut resume = false;
    let mut degrade_ckpt = false;
    let mut mkb = None;
    let mut mem_budget = None;
    let mut spill_dir = None;

    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, ArgError> {
            it.next().cloned().ok_or_else(|| ArgError(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--left" => left = Some(value("--left")?),
            "--right" => right = Some(value("--right")?),
            "--input" => input = Some(value("--input")?),
            "--kb" => kbs.push(value("--kb")?),
            "--type-attr" => type_attr = value("--type-attr")?,
            "--ground-truth" => ground_truth = Some(value("--ground-truth")?),
            "--workers" => {
                workers = Some(value("--workers")?.parse().map_err(|_| ArgError("--workers expects an integer".into()))?)
            }
            "--k" => k = value("--k")?.parse().map_err(|_| ArgError("--k expects an integer".into()))?,
            "--top-k" => {
                top_k = value("--top-k")?.parse().map_err(|_| ArgError("--top-k expects an integer".into()))?
            }
            "--n" => n = value("--n")?.parse().map_err(|_| ArgError("--n expects an integer".into()))?,
            "--theta" => {
                theta = value("--theta")?.parse().map_err(|_| ArgError("--theta expects a float".into()))?
            }
            "--json" => json = true,
            "--mkb" => mkb = Some(value("--mkb")?),
            "--mem-budget" => mem_budget = Some(parse_bytes(&value("--mem-budget")?)?),
            "--spill-dir" => spill_dir = Some(value("--spill-dir")?),
            "--report" => report = Some(value("--report")?),
            "--checkpoint-dir" => checkpoint_dir = Some(value("--checkpoint-dir")?),
            "--resume" => resume = true,
            "--degrade-on-ckpt-error" => degrade_ckpt = true,
            "--lenient" => lenient = true,
            "--strict" => lenient = false,
            other => return Err(ArgError(format!("unknown flag {other:?}; try `minoaner help`"))),
        }
    }

    match command {
        "resolve" => {
            if mkb.is_some() {
                if left.is_some() || right.is_some() {
                    return Err(ArgError(
                        "--mkb replaces both inputs; drop --left/--right".into(),
                    ));
                }
            } else {
                if left.is_none() {
                    return Err(ArgError("resolve requires --left (or --mkb)".into()));
                }
                if right.is_none() {
                    return Err(ArgError("resolve requires --right (or --mkb)".into()));
                }
            }
            if resume && checkpoint_dir.is_none() {
                return Err(ArgError("--resume requires --checkpoint-dir".into()));
            }
            if degrade_ckpt && checkpoint_dir.is_none() {
                return Err(ArgError("--degrade-on-ckpt-error requires --checkpoint-dir".into()));
            }
            if spill_dir.is_some() && mem_budget.is_none() {
                return Err(ArgError("--spill-dir requires --mem-budget".into()));
            }
            Ok(Command::Resolve(ResolveArgs {
                left, right, mkb, mem_budget, spill_dir, ground_truth, workers, k, top_k, n,
                theta, json, lenient, report, checkpoint_dir, resume, degrade_ckpt,
            }))
        }
        "dedup" => {
            let input = input.ok_or_else(|| ArgError("dedup requires --input".into()))?;
            Ok(Command::Dedup(DedupArgs { input, workers, json, lenient }))
        }
        "multi" => {
            if kbs.len() < 2 {
                return Err(ArgError("multi requires at least two --kb inputs".into()));
            }
            Ok(Command::Multi(MultiArgs { inputs: kbs, workers, json, lenient }))
        }
        "stats" => {
            let input = input.ok_or_else(|| ArgError("stats requires --input".into()))?;
            Ok(Command::Stats(StatsArgs { input, type_attr, lenient }))
        }
        _ => unreachable!(),
    }
}

/// Parses `minoaner jobs <verb> ...` (the slice excludes `jobs` itself).
fn parse_jobs(args: &[String]) -> Result<Command, ArgError> {
    let mut it = args.iter();
    let verb = it
        .next()
        .map(String::as_str)
        .ok_or_else(|| ArgError("jobs requires a subcommand: run, list, status or cancel".into()))?;

    let mut root = None;
    let mut id = None;
    let mut jobs = Vec::new();
    let mut budget_workers = None;
    let mut budget_memory = None;
    let mut max_running = None;
    let mut max_queued = None;
    let mut k = 2usize;
    let mut top_k = 15usize;
    let mut n = 3usize;
    let mut theta = 0.6f64;
    let mut lenient = false;
    let mut resume = false;
    let mut degrade_ckpt = false;

    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, ArgError> {
            it.next().cloned().ok_or_else(|| ArgError(format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--root" => root = Some(value("--root")?),
            "--id" => id = Some(value("--id")?),
            "--job" => jobs.push(parse_job_line(&value("--job")?)?),
            "--budget-workers" => {
                budget_workers = Some(value("--budget-workers")?.parse().map_err(|_| {
                    ArgError("--budget-workers expects an integer".into())
                })?)
            }
            "--budget-memory" => {
                budget_memory = Some(value("--budget-memory")?.parse().map_err(|_| {
                    ArgError("--budget-memory expects an integer (bytes)".into())
                })?)
            }
            "--max-running" => {
                max_running = Some(value("--max-running")?.parse().map_err(|_| {
                    ArgError("--max-running expects an integer".into())
                })?)
            }
            "--max-queued" => {
                max_queued = Some(value("--max-queued")?.parse().map_err(|_| {
                    ArgError("--max-queued expects an integer".into())
                })?)
            }
            "--k" => k = value("--k")?.parse().map_err(|_| ArgError("--k expects an integer".into()))?,
            "--top-k" => {
                top_k = value("--top-k")?.parse().map_err(|_| ArgError("--top-k expects an integer".into()))?
            }
            "--n" => n = value("--n")?.parse().map_err(|_| ArgError("--n expects an integer".into()))?,
            "--theta" => {
                theta = value("--theta")?.parse().map_err(|_| ArgError("--theta expects a float".into()))?
            }
            "--lenient" => lenient = true,
            "--strict" => lenient = false,
            "--resume" => resume = true,
            "--degrade-on-ckpt-error" => degrade_ckpt = true,
            other => return Err(ArgError(format!("unknown flag {other:?} for `jobs {verb}`"))),
        }
    }

    let root = root.ok_or_else(|| ArgError(format!("jobs {verb} requires --root")))?;
    match verb {
        "run" => {
            if jobs.is_empty() {
                return Err(ArgError("jobs run requires at least one --job".into()));
            }
            Ok(Command::Jobs(JobsCmd::Run(JobsRunArgs {
                root, jobs, budget_workers, budget_memory, max_running, max_queued,
                k, top_k, n, theta, lenient, resume, degrade_ckpt,
            })))
        }
        "list" => Ok(Command::Jobs(JobsCmd::List { root })),
        "status" => {
            let id = id.ok_or_else(|| ArgError("jobs status requires --id".into()))?;
            Ok(Command::Jobs(JobsCmd::Status { root, id }))
        }
        "cancel" => {
            let id = id.ok_or_else(|| ArgError("jobs cancel requires --id".into()))?;
            Ok(Command::Jobs(JobsCmd::Cancel { root, id }))
        }
        other => Err(ArgError(format!(
            "unknown jobs subcommand {other:?}; expected run, list, status or cancel"
        ))),
    }
}

/// Parses `minoaner kb <verb> ...` (the slice excludes `kb` itself).
fn parse_kb(args: &[String]) -> Result<Command, ArgError> {
    let mut it = args.iter();
    let verb = it
        .next()
        .map(String::as_str)
        .ok_or_else(|| ArgError("kb requires a subcommand: compile".into()))?;
    if verb != "compile" {
        return Err(ArgError(format!("unknown kb subcommand {verb:?}; expected compile")));
    }

    let mut positionals: Vec<String> = Vec::new();
    let mut lenient = false;
    for arg in it {
        match arg.as_str() {
            "--lenient" => lenient = true,
            "--strict" => lenient = false,
            flag if flag.starts_with("--") => {
                return Err(ArgError(format!("unknown flag {flag:?} for `kb compile`")))
            }
            path => positionals.push(path.to_owned()),
        }
    }
    let (left, right, out) = match positionals.len() {
        2 => (positionals[0].clone(), None, positionals[1].clone()),
        3 => (positionals[0].clone(), Some(positionals[1].clone()), positionals[2].clone()),
        n => {
            return Err(ArgError(format!(
                "kb compile takes <left.nt> [<right.nt>] <out.mkb> (got {n} paths)"
            )))
        }
    };
    Ok(Command::Kb(KbCmd::Compile(KbCompileArgs { left, right, out, lenient })))
}

/// Parses one `--job` value: comma-separated `key=value` pairs.
fn parse_job_line(spec: &str) -> Result<JobLine, ArgError> {
    let mut line = JobLine {
        name: None,
        left: String::new(),
        right: String::new(),
        priority: "normal".to_owned(),
        workers: 1,
        memory_bytes: 0,
        deadline_ms: None,
    };
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, val) = part.split_once('=').ok_or_else(|| {
            ArgError(format!("--job entry {part:?} is not key=value (in {spec:?})"))
        })?;
        match key {
            "left" => line.left = val.to_owned(),
            "right" => line.right = val.to_owned(),
            "name" => line.name = Some(val.to_owned()),
            "priority" => {
                if !matches!(val, "low" | "normal" | "high") {
                    return Err(ArgError(format!(
                        "--job priority must be low, normal or high (got {val:?})"
                    )));
                }
                line.priority = val.to_owned();
            }
            "workers" => {
                line.workers = val.parse().map_err(|_| {
                    ArgError(format!("--job workers expects an integer (got {val:?})"))
                })?
            }
            "memory" => {
                line.memory_bytes = val.parse().map_err(|_| {
                    ArgError(format!("--job memory expects bytes as an integer (got {val:?})"))
                })?
            }
            "deadline-ms" => {
                line.deadline_ms = Some(val.parse().map_err(|_| {
                    ArgError(format!("--job deadline-ms expects an integer (got {val:?})"))
                })?)
            }
            other => {
                return Err(ArgError(format!("unknown --job key {other:?} (in {spec:?})")))
            }
        }
    }
    if line.left.is_empty() || line.right.is_empty() {
        return Err(ArgError(format!("--job needs left=<path> and right=<path> (in {spec:?})")));
    }
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_resolve_with_defaults() {
        let cmd = parse(&strings(&["resolve", "--left", "a.nt", "--right", "b.nt"])).unwrap();
        let Command::Resolve(a) = cmd else { panic!("expected resolve") };
        assert_eq!(a.left.as_deref(), Some("a.nt"));
        assert_eq!(a.right.as_deref(), Some("b.nt"));
        assert_eq!((a.k, a.top_k, a.n), (2, 15, 3));
        assert!((a.theta - 0.6).abs() < 1e-12);
        assert!(!a.json);
        assert_eq!(a.mkb, None);
        assert_eq!(a.mem_budget, None);
        assert_eq!(a.spill_dir, None);
    }

    #[test]
    fn parses_all_options() {
        let cmd = parse(&strings(&[
            "resolve", "--left", "a", "--right", "b", "--ground-truth", "g", "--workers", "8",
            "--k", "1", "--top-k", "5", "--n", "2", "--theta", "0.5", "--json",
        ]))
        .unwrap();
        let Command::Resolve(a) = cmd else { panic!() };
        assert_eq!(a.workers, Some(8));
        assert_eq!(a.ground_truth.as_deref(), Some("g"));
        assert_eq!((a.k, a.top_k, a.n), (1, 5, 2));
        assert!(a.json);
        assert_eq!(a.report, None);
    }

    #[test]
    fn parses_report_path() {
        let cmd = parse(&strings(&[
            "resolve", "--left", "a", "--right", "b", "--report", "run.json",
        ]))
        .unwrap();
        let Command::Resolve(a) = cmd else { panic!() };
        assert_eq!(a.report.as_deref(), Some("run.json"));
        assert!(parse(&strings(&["resolve", "--left", "a", "--right", "b", "--report"])).is_err());
    }

    #[test]
    fn parses_checkpoint_flags() {
        let cmd = parse(&strings(&[
            "resolve", "--left", "a", "--right", "b", "--checkpoint-dir", "ck", "--resume",
        ]))
        .unwrap();
        let Command::Resolve(a) = cmd else { panic!() };
        assert_eq!(a.checkpoint_dir.as_deref(), Some("ck"));
        assert!(a.resume);
        let cmd = parse(&strings(&["resolve", "--left", "a", "--right", "b"])).unwrap();
        let Command::Resolve(a) = cmd else { panic!() };
        assert_eq!(a.checkpoint_dir, None);
        assert!(!a.resume);
        // --resume without a directory to resume from is a usage error.
        assert!(parse(&strings(&["resolve", "--left", "a", "--right", "b", "--resume"])).is_err());
    }

    #[test]
    fn parses_degrade_on_ckpt_error() {
        let cmd = parse(&strings(&[
            "resolve", "--left", "a", "--right", "b", "--checkpoint-dir", "ck",
            "--degrade-on-ckpt-error",
        ]))
        .unwrap();
        let Command::Resolve(a) = cmd else { panic!() };
        assert!(a.degrade_ckpt);
        let cmd = parse(&strings(&["resolve", "--left", "a", "--right", "b"])).unwrap();
        let Command::Resolve(a) = cmd else { panic!() };
        assert!(!a.degrade_ckpt, "fail-fast by default");
        // Degrading what is not checkpointed is a usage error.
        assert!(parse(&strings(&[
            "resolve", "--left", "a", "--right", "b", "--degrade-on-ckpt-error",
        ]))
        .is_err());
        let cmd = parse(&strings(&[
            "jobs", "run", "--root", "r", "--job", "left=a.nt,right=b.nt",
            "--degrade-on-ckpt-error",
        ]))
        .unwrap();
        let Command::Jobs(JobsCmd::Run(a)) = cmd else { panic!() };
        assert!(a.degrade_ckpt);
    }

    #[test]
    fn parses_dedup() {
        let cmd = parse(&strings(&["dedup", "--input", "kb.nt", "--json"])).unwrap();
        assert_eq!(
            cmd,
            Command::Dedup(DedupArgs {
                input: "kb.nt".into(),
                workers: None,
                json: true,
                lenient: false,
            })
        );
    }

    #[test]
    fn strict_is_the_default_and_lenient_flips_it() {
        let cmd = parse(&strings(&["resolve", "--left", "a", "--right", "b"])).unwrap();
        let Command::Resolve(a) = cmd else { panic!() };
        assert!(!a.lenient, "strict by default");

        let cmd =
            parse(&strings(&["resolve", "--left", "a", "--right", "b", "--lenient"])).unwrap();
        let Command::Resolve(a) = cmd else { panic!() };
        assert!(a.lenient);

        // Later flag wins, so scripts can append an override.
        let cmd = parse(&strings(&[
            "dedup", "--input", "kb.nt", "--lenient", "--strict",
        ]))
        .unwrap();
        let Command::Dedup(a) = cmd else { panic!() };
        assert!(!a.lenient);

        let cmd = parse(&strings(&["stats", "--input", "kb.nt", "--lenient"])).unwrap();
        let Command::Stats(s) = cmd else { panic!() };
        assert!(s.lenient);
    }

    #[test]
    fn help_variants() {
        for args in [vec![], strings(&["help"]), strings(&["--help"]), strings(&["-h"])] {
            assert_eq!(parse(&args).unwrap(), Command::Help);
        }
    }

    #[test]
    fn parses_multi_and_stats() {
        let cmd = parse(&strings(&["multi", "--kb", "a.nt", "--kb", "b.ttl", "--kb", "c.nt"])).unwrap();
        let Command::Multi(m) = cmd else { panic!() };
        assert_eq!(m.inputs.len(), 3);
        let cmd = parse(&strings(&["stats", "--input", "kb.nt"])).unwrap();
        let Command::Stats(s) = cmd else { panic!() };
        assert!(s.type_attr.contains("rdf-syntax-ns#type"));
        assert!(parse(&strings(&["multi", "--kb", "only-one.nt"])).is_err());
        assert!(parse(&strings(&["stats"])).is_err());
    }

    #[test]
    fn parses_jobs_run() {
        let cmd = parse(&strings(&[
            "jobs", "run", "--root", "/tmp/jobs", "--budget-workers", "8",
            "--budget-memory", "1024", "--max-running", "2", "--max-queued", "5",
            "--job", "left=a.nt,right=b.nt,priority=high,workers=2,deadline-ms=500",
            "--job", "left=c.nt,right=d.nt,name=small,memory=100",
            "--resume",
        ]))
        .unwrap();
        let Command::Jobs(JobsCmd::Run(a)) = cmd else { panic!("expected jobs run") };
        assert_eq!(a.root, "/tmp/jobs");
        assert_eq!(a.budget_workers, Some(8));
        assert_eq!(a.budget_memory, Some(1024));
        assert_eq!((a.max_running, a.max_queued), (Some(2), Some(5)));
        assert!(a.resume);
        assert_eq!(a.jobs.len(), 2);
        assert_eq!(a.jobs[0].priority, "high");
        assert_eq!(a.jobs[0].workers, 2);
        assert_eq!(a.jobs[0].deadline_ms, Some(500));
        assert_eq!(a.jobs[1].name.as_deref(), Some("small"));
        assert_eq!(a.jobs[1].memory_bytes, 100);
        assert_eq!(a.jobs[1].priority, "normal", "priority defaults to normal");
    }

    #[test]
    fn parses_jobs_list_status_cancel() {
        assert_eq!(
            parse(&strings(&["jobs", "list", "--root", "r"])).unwrap(),
            Command::Jobs(JobsCmd::List { root: "r".into() })
        );
        assert_eq!(
            parse(&strings(&["jobs", "status", "--root", "r", "--id", "j0001"])).unwrap(),
            Command::Jobs(JobsCmd::Status { root: "r".into(), id: "j0001".into() })
        );
        assert_eq!(
            parse(&strings(&["jobs", "cancel", "--root", "r", "--id", "7"])).unwrap(),
            Command::Jobs(JobsCmd::Cancel { root: "r".into(), id: "7".into() })
        );
    }

    #[test]
    fn jobs_validation_errors() {
        // Missing subcommand, root, id, jobs.
        assert!(parse(&strings(&["jobs"])).is_err());
        assert!(parse(&strings(&["jobs", "frob", "--root", "r"])).is_err());
        assert!(parse(&strings(&["jobs", "list"])).is_err(), "list needs --root");
        assert!(parse(&strings(&["jobs", "status", "--root", "r"])).is_err());
        assert!(parse(&strings(&["jobs", "cancel", "--root", "r"])).is_err());
        assert!(parse(&strings(&["jobs", "run", "--root", "r"])).is_err(), "run needs --job");
        // Malformed --job specs.
        for bad in [
            "left=a.nt",                                  // missing right
            "left=a.nt,right=b.nt,priority=urgent",       // bad priority
            "left=a.nt,right=b.nt,workers=many",          // bad integer
            "left=a.nt,right=b.nt,frob=1",                // unknown key
            "lefta.nt",                                   // not key=value
        ] {
            assert!(
                parse(&strings(&["jobs", "run", "--root", "r", "--job", bad])).is_err(),
                "should reject {bad:?}"
            );
        }
    }

    #[test]
    fn parses_kb_compile() {
        let cmd = parse(&strings(&["kb", "compile", "a.nt", "b.nt", "out.mkb"])).unwrap();
        let Command::Kb(KbCmd::Compile(a)) = cmd else { panic!("expected kb compile") };
        assert_eq!(a.left, "a.nt");
        assert_eq!(a.right.as_deref(), Some("b.nt"));
        assert_eq!(a.out, "out.mkb");
        assert!(!a.lenient);

        let cmd = parse(&strings(&["kb", "compile", "solo.nt", "out.mkb", "--lenient"])).unwrap();
        let Command::Kb(KbCmd::Compile(a)) = cmd else { panic!() };
        assert_eq!(a.left, "solo.nt");
        assert_eq!(a.right, None);
        assert!(a.lenient);
    }

    #[test]
    fn kb_compile_validation_errors() {
        assert!(parse(&strings(&["kb"])).is_err(), "kb needs a subcommand");
        assert!(parse(&strings(&["kb", "decompile", "a", "b"])).is_err());
        assert!(parse(&strings(&["kb", "compile", "only-one.nt"])).is_err());
        assert!(parse(&strings(&["kb", "compile", "a", "b", "c", "d"])).is_err());
        assert!(parse(&strings(&["kb", "compile", "a.nt", "out.mkb", "--frob"])).is_err());
    }

    #[test]
    fn parses_mkb_and_mem_budget() {
        let cmd = parse(&strings(&[
            "resolve", "--mkb", "pair.mkb", "--mem-budget", "64m", "--spill-dir", "/tmp/sp",
        ]))
        .unwrap();
        let Command::Resolve(a) = cmd else { panic!() };
        assert_eq!(a.mkb.as_deref(), Some("pair.mkb"));
        assert_eq!(a.mem_budget, Some(64 << 20));
        assert_eq!(a.spill_dir.as_deref(), Some("/tmp/sp"));
        assert_eq!((a.left, a.right), (None, None));

        // --mem-budget also composes with plain file inputs.
        let cmd = parse(&strings(&[
            "resolve", "--left", "a", "--right", "b", "--mem-budget", "1024",
        ]))
        .unwrap();
        let Command::Resolve(a) = cmd else { panic!() };
        assert_eq!(a.mem_budget, Some(1024));

        // --mkb conflicts with --left/--right; spill dir needs a budget.
        assert!(parse(&strings(&["resolve", "--mkb", "p.mkb", "--left", "a"])).is_err());
        assert!(parse(&strings(&["resolve", "--mkb", "p.mkb", "--right", "b"])).is_err());
        assert!(parse(&strings(&[
            "resolve", "--left", "a", "--right", "b", "--spill-dir", "d",
        ]))
        .is_err());
    }

    #[test]
    fn byte_suffix_parsing() {
        assert_eq!(parse_bytes("512").unwrap(), 512);
        assert_eq!(parse_bytes("0").unwrap(), 0);
        assert_eq!(parse_bytes("2k").unwrap(), 2048);
        assert_eq!(parse_bytes("64M").unwrap(), 64 << 20);
        assert_eq!(parse_bytes("3g").unwrap(), 3 << 30);
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("m").is_err());
        assert!(parse_bytes("1.5g").is_err());
        assert!(parse_bytes("12q").is_err());
        assert!(parse_bytes("99999999999999999999g").is_err());
        assert!(parse_bytes(&format!("{}g", u64::MAX)).is_err(), "shifted-out bits");
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse(&strings(&["resolve", "--left", "a"])).is_err());
        assert!(parse(&strings(&["dedup"])).is_err());
        assert!(parse(&strings(&["resolve", "--left"])).is_err(), "dangling value");
        assert!(parse(&strings(&["frobnicate"])).is_err());
        assert!(parse(&strings(&["resolve", "--left", "a", "--right", "b", "--bogus"])).is_err());
    }
}
