//! Minimal, dependency-free command-line argument parsing for the
//! `minoaner` binary.

use std::fmt;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Clean-clean resolution of two KBs.
    Resolve(ResolveArgs),
    /// Dirty-ER duplicate detection within one KB.
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
    /// Right KB path; `None` compiles a pair whose right side is empty.
    /// The left KB is neither mirrored nor marked dirty, so such a file
    /// is not a dirty-ER input.
    pub right: Option<String>,
    /// Output `.mkb` path.
    pub out: String,
    /// Skip malformed N-Triples lines instead of aborting the load.
    pub lenient: bool,
}

/// The `minoaner jobs` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum JobsCmd {
    /// Run a batch of resolve jobs, one at a time.
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
    /// batch picks up).
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
    /// The jobs to run, in command-line order.
    pub jobs: Vec<JobLine>,
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
/// `name=`, `workers=<n>`, `memory=<bytes>`, `deadline-ms=<n>`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobLine {
    /// Human-readable name (defaults to `left vs right`).
    pub name: Option<String>,
    /// Left KB path.
    pub left: String,
    /// Right KB path.
    pub right: String,
    /// Worker threads for this job's executor (default: all cores).
    pub workers: Option<usize>,
    /// Memory grant: the job's shuffle budget, spilling beyond it.
    pub memory_bytes: u64,
    /// Wall-clock deadline in milliseconds, counted from when the job's
    /// input is in memory.
    pub deadline_ms: Option<u64>,
}

/// Arguments of `minoaner resolve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolveArgs {
    /// Left KB path (N-Triples, or Turtle for `.ttl`); `None` when loading
    /// from `--mkb`.
    pub left: Option<String>,
    /// Right KB path (N-Triples, or Turtle for `.ttl`); `None` when loading
    /// from `--mkb`.
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
    /// KB path (N-Triples, or Turtle for `.ttl`).
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

COMMON OPTIONS (every command that loads a KB):
    --strict                abort on the first malformed N-Triples line (default)
    --lenient               skip malformed N-Triples lines, reporting exact counts
                            (Turtle inputs are always strict)

EXIT CODES:
    0  success
    1  I/O failure (unreadable input file)
    2  bad arguments or invalid configuration (for `jobs cancel`: no such
       job, or the job is already finished)
    3  input parse failure (strict mode)
    4  dataflow execution failure (a task panicked; for `jobs run`: at
       least one job failed)
    5  checkpoint failure (snapshot I/O error, corrupt/incompatible checkpoint)
    6  run cancelled (user request or job deadline; for `jobs run`: at
       least one job was cancelled and none failed)
    7  disk full (ENOSPC/quota on a spill write; the run's scratch
       directory is cleaned up before exit — free space and retry)

RESOLVE OPTIONS:
    --left <path>           left KB, N-Triples, or Turtle for .ttl
    --right <path>          right KB, N-Triples, or Turtle for .ttl
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
                            barrier under <dir> (created if missing): one
                            checksummed file per barrier, stage-NNN-<name>,
                            committed by an fsynced rename
    --resume                resume from the newest valid checkpoint in
                            --checkpoint-dir instead of recomputing
    --degrade-on-ckpt-error keep running (uncheckpointed) when checkpoint I/O
                            fails instead of aborting; degradations are
                            counted in the ckpt/degraded trace counter

DEDUP OPTIONS:
    --input <path>          the dirty KB, N-Triples, or Turtle for .ttl
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
        left=<path>,right=<path>[,name=<s>][,workers=<n>][,memory=<bytes>]
        [,deadline-ms=<n>]

    Jobs run one at a time, in command-line order; ids are j0000, j0001, …
    in that order. Each job checkpoints under <root>/job-<id>/ckpt, one
    file per committed barrier, and mirrors its status to
    <root>/job-<id>/status.json; `jobs cancel` drops a CANCEL marker there:
    a queued job then never runs, and a running one stops cooperatively at
    its next stage barrier (committed barriers stay resumable). A job
    without workers=<n> uses all cores.
    Each job's input is read while the job before it runs; a job that is
    running waits for its input if the read is not done yet, and its
    deadline counts from when the input is in memory. A job whose file
    cannot be loaded fails with that error, the batch goes on, and the
    command exits as any command does on that file (1 or 3).

JOBS RUN OPTIONS:
    --root <dir>            jobs root (control plane + per-job checkpoints)
    --job <spec>            a job to run (repeatable, in run order)
    --k/--top-k/--n/--theta MinoanER parameters shared by all jobs
    --resume                resume each job from its newest valid checkpoint
    --degrade-on-ckpt-error keep jobs running (uncheckpointed) when their
                            checkpoint I/O fails instead of failing them

    A job with memory=<bytes> resolves under that grant: shuffle state
    beyond it spills to <root>/job-<id>/spill and is read back.

KB COMPILE:
    minoaner kb compile <left.nt> [<right.nt>] <out.mkb> [--lenient]

    Parses the input KB(s) once and writes a versioned, checksummed
    columnar container that later runs open via mmap in microseconds
    (`resolve --mkb`). With one input the right side is left empty.
";

/// One flag of a command's table: its name, and what follows it — nothing (`Switch`), or a value
/// that is any text, an unsigned integer, a float or a byte count ([`parse_bytes`]).
type FlagSpec = (&'static str, Kind);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Switch,
    Text,
    Int,
    Float,
    Bytes,
}
use Kind::{Bytes, Float, Int, Switch, Text};

/// The four MinoanER parameters (defaults 2, 15, 3, 0.6: [`Flags::params`]).
const PARAMS: &[FlagSpec] = &[("--k", Int), ("--top-k", Int), ("--n", Int), ("--theta", Float)];
/// How N-Triples are parsed; the later of the two wins ([`Flags::lenient`]).
const MODE: &[FlagSpec] = &[("--strict", Switch), ("--lenient", Switch)];

// Every flag each command accepts (`jobs list|status|cancel` and `kb compile` name theirs where
// they parse). A flag of another command's table is refused, not ignored.
const RESOLVE: &[&[FlagSpec]] = &[
    &[
        ("--left", Text), ("--right", Text), ("--mkb", Text), ("--mem-budget", Bytes),
        ("--spill-dir", Text), ("--ground-truth", Text), ("--workers", Int), ("--json", Switch),
        ("--report", Text), ("--checkpoint-dir", Text), ("--resume", Switch),
        ("--degrade-on-ckpt-error", Switch),
    ],
    PARAMS,
    MODE,
];
const DEDUP: &[&[FlagSpec]] = &[&[("--input", Text), ("--workers", Int), ("--json", Switch)], MODE];
const MULTI: &[&[FlagSpec]] = &[&[("--kb", Text), ("--workers", Int), ("--json", Switch)], MODE];
const STATS: &[&[FlagSpec]] = &[&[("--input", Text), ("--type-attr", Text)], MODE];
const JOBS_RUN: &[&[FlagSpec]] = &[
    &[
        ("--root", Text), ("--job", Text), ("--resume", Switch), ("--degrade-on-ckpt-error", Switch),
    ],
    PARAMS,
    MODE,
];

/// A command's arguments checked against its table: every flag is one the command lists, is
/// followed by a value iff its kind takes one, and that value parses as its kind — which is what
/// lets the getters below re-parse without an error path.
struct Flags<'a> {
    command: String,
    /// `(flag, value)` in command-line order; a switch's value is empty.
    seen: Vec<(&'static str, &'a str)>,
}

impl<'a> Flags<'a> {
    fn parse(command: &str, table: &[&[FlagSpec]], args: &'a [String]) -> Result<Self, ArgError> {
        let mut flags = Flags { command: command.to_owned(), seen: Vec::new() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(&(name, kind)) = table.iter().copied().flatten().find(|(name, _)| name == arg) else {
                return Err(ArgError(format!("unknown flag {arg:?} for `{command}`; try `minoaner help`")));
            };
            let mut value = "";
            if kind != Switch {
                value = it.next().ok_or_else(|| ArgError(format!("{name} requires a value")))?;
            }
            match kind {
                Int if value.parse::<usize>().is_err() => return Err(ArgError(format!("{name} expects an integer"))),
                Float if value.parse::<f64>().is_err() => return Err(ArgError(format!("{name} expects a float"))),
                Bytes => drop(parse_bytes(value)?),
                _ => {}
            }
            flags.seen.push((name, value));
        }
        Ok(flags)
    }

    /// Every value given for `name`, in order.
    fn all<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.seen.iter().filter(move |(flag, _)| *flag == name).map(|&(_, value)| value)
    }

    fn on(&self, name: &str) -> bool {
        self.all(name).next().is_some()
    }

    /// The last value given for `name`, as text or as a number.
    fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.all(name).last().and_then(|value| value.parse().ok())
    }

    fn bytes(&self, name: &str) -> Option<u64> {
        self.all(name).last().and_then(|value| parse_bytes(value).ok())
    }

    fn required(&self, name: &str) -> Result<String, ArgError> {
        self.get(name).ok_or_else(|| ArgError(format!("{} requires {name}", self.command)))
    }

    fn lenient(&self) -> bool {
        let mode = self.seen.iter().rev().find(|(flag, _)| MODE.iter().any(|(name, _)| name == flag));
        matches!(mode, Some(("--lenient", _)))
    }

    /// `(k, top_k, n, theta)`.
    fn params(&self) -> (usize, usize, usize, f64) {
        let (k, top_k, n) = (self.get("--k"), self.get("--top-k"), self.get("--n"));
        (k.unwrap_or(2), top_k.unwrap_or(15), n.unwrap_or(3), self.get("--theta").unwrap_or(0.6))
    }
}

/// Parses the command line (excluding `argv[0]`).
pub fn parse(args: &[String]) -> Result<Command, ArgError> {
    let Some((command, rest)) = args.split_first() else { return Ok(Command::Help) };
    match command.as_str() {
        "resolve" => {
            let f = Flags::parse("resolve", RESOLVE, rest)?;
            match (f.on("--mkb"), f.on("--left"), f.on("--right")) {
                (true, false, false) | (false, true, true) => {}
                (true, ..) => return Err(ArgError("--mkb replaces both inputs; drop --left/--right".into())),
                (false, false, _) => return Err(ArgError("resolve requires --left (or --mkb)".into())),
                (false, true, false) => return Err(ArgError("resolve requires --right (or --mkb)".into())),
            }
            for (flag, needs) in [
                ("--resume", "--checkpoint-dir"),
                ("--degrade-on-ckpt-error", "--checkpoint-dir"),
                ("--spill-dir", "--mem-budget"),
            ] {
                if f.on(flag) && !f.on(needs) {
                    return Err(ArgError(format!("{flag} requires {needs}")));
                }
            }
            let (k, top_k, n, theta) = f.params();
            Ok(Command::Resolve(ResolveArgs {
                left: f.get("--left"), right: f.get("--right"), mkb: f.get("--mkb"),
                mem_budget: f.bytes("--mem-budget"), spill_dir: f.get("--spill-dir"),
                ground_truth: f.get("--ground-truth"), workers: f.get("--workers"), k, top_k, n, theta,
                json: f.on("--json"), lenient: f.lenient(), report: f.get("--report"),
                checkpoint_dir: f.get("--checkpoint-dir"), resume: f.on("--resume"),
                degrade_ckpt: f.on("--degrade-on-ckpt-error"),
            }))
        }
        "dedup" => {
            let f = Flags::parse("dedup", DEDUP, rest)?;
            let (input, workers) = (f.required("--input")?, f.get("--workers"));
            Ok(Command::Dedup(DedupArgs { input, workers, json: f.on("--json"), lenient: f.lenient() }))
        }
        "multi" => {
            let f = Flags::parse("multi", MULTI, rest)?;
            let inputs: Vec<String> = f.all("--kb").map(str::to_owned).collect();
            if inputs.len() < 2 {
                return Err(ArgError("multi requires at least two --kb inputs".into()));
            }
            let workers = f.get("--workers");
            Ok(Command::Multi(MultiArgs { inputs, workers, json: f.on("--json"), lenient: f.lenient() }))
        }
        "stats" => {
            let f = Flags::parse("stats", STATS, rest)?;
            let type_attr =
                f.get("--type-attr").unwrap_or_else(|| "http://www.w3.org/1999/02/22-rdf-syntax-ns#type".into());
            Ok(Command::Stats(StatsArgs { input: f.required("--input")?, type_attr, lenient: f.lenient() }))
        }
        "jobs" => parse_jobs(rest),
        "kb" => parse_kb(rest),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ArgError(format!("unknown command {other:?}; try `minoaner help`"))),
    }
}

/// Parses `minoaner jobs <verb> ...` (the slice excludes `jobs` itself).
fn parse_jobs(args: &[String]) -> Result<Command, ArgError> {
    let (verb, rest) = args
        .split_first()
        .ok_or_else(|| ArgError("jobs requires a subcommand: run, list, status or cancel".into()))?;
    let table: &[&[FlagSpec]] = match verb.as_str() {
        "run" => JOBS_RUN,
        "list" => &[&[("--root", Text)]],
        "status" | "cancel" => &[&[("--root", Text), ("--id", Text)]],
        other => return Err(ArgError(format!("unknown jobs subcommand {other:?}; expected run, list, status or cancel"))),
    };
    let f = Flags::parse(&format!("jobs {verb}"), table, rest)?;
    let root = f.required("--root")?;
    Ok(Command::Jobs(match verb.as_str() {
        "list" => JobsCmd::List { root },
        "status" => JobsCmd::Status { root, id: f.required("--id")? },
        "cancel" => JobsCmd::Cancel { root, id: f.required("--id")? },
        _ => {
            let jobs = f.all("--job").map(parse_job_line).collect::<Result<Vec<_>, _>>()?;
            if jobs.is_empty() {
                return Err(ArgError("jobs run requires at least one --job".into()));
            }
            let (k, top_k, n, theta) = f.params();
            JobsCmd::Run(JobsRunArgs {
                root, jobs, k, top_k, n, theta, lenient: f.lenient(),
                resume: f.on("--resume"), degrade_ckpt: f.on("--degrade-on-ckpt-error"),
            })
        }
    }))
}

/// Parses `minoaner kb <verb> ...` (the slice excludes `kb` itself).
fn parse_kb(args: &[String]) -> Result<Command, ArgError> {
    let (verb, rest) = args.split_first().ok_or_else(|| ArgError("kb requires a subcommand: compile".into()))?;
    if verb != "compile" {
        return Err(ArgError(format!("unknown kb subcommand {verb:?}; expected compile")));
    }
    // The one command with positional arguments; its flags take no values.
    let (flags, paths): (Vec<String>, Vec<String>) = rest.iter().cloned().partition(|arg| arg.starts_with("--"));
    let lenient = Flags::parse("kb compile", &[MODE], &flags)?.lenient();
    let (left, right, out) = match &paths[..] {
        [left, out] => (left.clone(), None, out.clone()),
        [left, right, out] => (left.clone(), Some(right.clone()), out.clone()),
        _ => return Err(ArgError(format!("kb compile takes <left.nt> [<right.nt>] <out.mkb> (got {} paths)", paths.len()))),
    };
    Ok(Command::Kb(KbCmd::Compile(KbCompileArgs { left, right, out, lenient })))
}

/// Parses one `--job` value: comma-separated `key=value` pairs.
fn parse_job_line(spec: &str) -> Result<JobLine, ArgError> {
    let mut line = JobLine {
        name: None,
        left: String::new(),
        right: String::new(),
        workers: None,
        memory_bytes: 0,
        deadline_ms: None,
    };
    for part in spec.split(',').map(str::trim).filter(|part| !part.is_empty()) {
        let (key, val) = part
            .split_once('=')
            .ok_or_else(|| ArgError(format!("--job entry {part:?} is not key=value (in {spec:?})")))?;
        let int = || ArgError(format!("--job {key} expects an integer (got {val:?})"));
        match key {
            "left" => line.left = val.to_owned(),
            "right" => line.right = val.to_owned(),
            "name" => line.name = Some(val.to_owned()),
            "workers" => line.workers = Some(val.parse().map_err(|_| int())?),
            "memory" => line.memory_bytes = parse_bytes(val)?,
            "deadline-ms" => line.deadline_ms = Some(val.parse().map_err(|_| int())?),
            other => return Err(ArgError(format!("unknown --job key {other:?} (in {spec:?})"))),
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
            "jobs", "run", "--root", "/tmp/jobs",
            "--job", "left=a.nt,right=b.nt,workers=2,deadline-ms=500",
            "--job", "left=c.nt,right=d.nt,name=small,memory=2k",
            "--resume",
        ]))
        .unwrap();
        let Command::Jobs(JobsCmd::Run(a)) = cmd else { panic!("expected jobs run") };
        assert_eq!(a.root, "/tmp/jobs");
        assert!(a.resume);
        assert_eq!(a.jobs.len(), 2);
        assert_eq!(a.jobs[0].workers, Some(2));
        assert_eq!(a.jobs[0].deadline_ms, Some(500));
        assert_eq!(a.jobs[1].name.as_deref(), Some("small"));
        assert_eq!(a.jobs[1].memory_bytes, 2048, "the suffixes --mem-budget takes");
        assert_eq!(a.jobs[1].workers, None, "all cores by default");
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
        for gone in ["--budget-workers", "--budget-memory", "--max-running", "--max-queued"] {
            let args = ["jobs", "run", "--root", "r", "--job", "left=a.nt,right=b.nt", gone, "2"];
            assert!(parse(&strings(&args)).is_err(), "{gone} is not a jobs run flag");
        }
        // Malformed --job specs.
        for bad in [
            "left=a.nt",                                  // missing right
            "left=a.nt,right=b.nt,priority=high",         // no priorities: jobs run in order
            "left=a.nt,right=b.nt,workers=many",          // bad integer
            "left=a.nt,right=b.nt,memory=1.5g",           // bad byte count
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
    fn a_flag_the_command_does_not_list_is_refused() {
        for (args, flag, command) in [
            (&["dedup", "--input", "k.nt", "--theta", "0.9"][..], "--theta", "`dedup`"),
            (&["multi", "--kb", "a", "--kb", "b", "--checkpoint-dir", "d"], "--checkpoint-dir", "`multi`"),
            (&["stats", "--input", "k.nt", "--json"], "--json", "`stats`"),
            (&["resolve", "--left", "a", "--right", "b", "--input", "c"], "--input", "`resolve`"),
            (&["jobs", "list", "--root", "r", "--job", "left=a,right=b"], "--job", "`jobs list`"),
            (&["jobs", "list", "--root", "r", "--id", "j1"], "--id", "`jobs list`"),
            (&["jobs", "status", "--root", "r", "--id", "j1", "--lenient"], "--lenient", "`jobs status`"),
            (&["jobs", "run", "--root", "r", "--job", "left=a,right=b", "--json"], "--json", "`jobs run`"),
            (&["kb", "compile", "a.nt", "out.mkb", "--json"], "--json", "`kb compile`"),
        ] {
            let ArgError(msg) = parse(&strings(args)).expect_err(&format!("{args:?} must be refused"));
            assert!(msg.contains("unknown flag") && msg.contains(flag) && msg.contains(command), "{msg}");
        }
        // A value of the wrong kind names the flag, wherever it is listed.
        for args in [&["dedup", "--input", "k", "--workers", "many"][..], &["resolve", "--mkb", "p", "--k", "x"]] {
            assert!(parse(&strings(args)).unwrap_err().0.contains("expects an integer"), "{args:?}");
        }
        assert!(parse(&strings(&["resolve", "--mkb", "p", "--theta", "x"])).unwrap_err().0.contains("a float"));
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse(&strings(&["resolve", "--left", "a"])).is_err());
        assert!(parse(&strings(&["dedup"])).is_err());
        assert!(parse(&strings(&["resolve", "--left"])).is_err(), "dangling value");
        assert!(parse(&strings(&["frobnicate"])).is_err());
        assert!(parse(&strings(&["resolve", "--left", "a", "--right", "b", "--bogus"])).is_err());
    }

    /// The bytes the loader's hostile-input loops insert
    /// (`kb/tests/lenient_parsing.rs`): quoting, escapes, separators,
    /// control bytes, a split multi-byte character and bytes that are never
    /// UTF-8.
    const NASTY: &[u8] = b"\"<>\\.#@^ \t\r\n\0u\xC3\xA9\xE6\x9D\xF0\x80\xFF";

    /// Whole arguments the argv mutants splice in: every flag of every
    /// table, values at and past the edges of their kinds, and what a job
    /// spec is made of.
    const TOKENS: &[&str] = &[
        "--left", "--right", "--mkb", "--mem-budget", "--spill-dir", "--workers", "--k", "--top-k", "--n",
        "--theta", "--json", "--resume", "--checkpoint-dir", "--degrade-on-ckpt-error", "--lenient",
        "--strict", "--root", "--job", "--id", "--input", "--kb", "--type-attr", "resolve", "jobs", "run",
        "kb", "compile", "",
        "0", "-1", "18446744073709551615", "18446744073709551616", "17179869184g", "16777216t", "k", "1e309",
        "NaN", "inf", "-0", "0x10", "=", ",", "left=", "right=,", "memory=99999999999999g", "deadline-ms=-5",
        "workers=18446744073709551616", "name=a=b",
    ];

    /// Valid command lines of every command, the mutants' starting points.
    fn templates() -> Vec<Vec<String>> {
        [
            &["resolve", "--left", "a.nt", "--right", "b.nt", "--workers", "2", "--k", "2", "--top-k", "15",
              "--n", "3", "--theta", "0.6", "--json", "--report", "r.json", "--lenient"][..],
            &["resolve", "--mkb", "p.mkb", "--mem-budget", "64m", "--spill-dir", "/tmp/s",
              "--checkpoint-dir", "/tmp/c", "--resume", "--degrade-on-ckpt-error"],
            &["jobs", "run", "--root", "/tmp/r", "--resume", "--degrade-on-ckpt-error", "--job",
              "name=a,left=l.nt,right=r.nt,workers=2,memory=8m,deadline-ms=100",
              "--job", "left=l.nt,right=r.nt"],
            &["jobs", "status", "--root", "/tmp/r", "--id", "j0001"],
            &["jobs", "cancel", "--root", "/tmp/r", "--id", "j0001"],
            &["jobs", "list", "--root", "/tmp/r"],
            &["kb", "compile", "a.nt", "b.nt", "o.mkb", "--lenient"],
            &["dedup", "--input", "d.nt", "--workers", "1"],
            &["multi", "--kb", "a.nt", "--kb", "b.nt", "--kb", "c.nt"],
            &["stats", "--input", "a.nt", "--type-attr", "p"],
        ]
        .iter()
        .map(|args| strings(args))
        .collect()
    }

    /// One argument mutated as bytes — a bit flipped, a nasty byte put in,
    /// a byte taken out, or the rest cut off — and read back as argv is.
    fn mutate_bytes(rng: &mut Rng, arg: &str) -> String {
        let mut bytes = arg.as_bytes().to_vec();
        let at = rng.gen_range(0..bytes.len().max(1)).min(bytes.len().saturating_sub(1));
        let nasty = NASTY.get(rng.gen_range(0..NASTY.len())).copied().unwrap_or(b'\0');
        match rng.gen_range(0..4usize) {
            _ if bytes.is_empty() => bytes.push(nasty),
            0 => bytes[at] ^= 1 << rng.gen_range(0..8usize),
            1 => bytes.insert(at, nasty),
            2 => drop(bytes.remove(at)),
            _ => bytes.truncate(at),
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    use minoaner_det::rng::{for_each_seed, Rng};

    #[test]
    fn mutated_command_lines_give_a_command_or_an_arg_error_never_a_panic() {
        let templates = templates();
        let (mut commands, mut errors) = (0, 0);
        for_each_seed(20_000, |rng| {
            let mut args = templates[rng.gen_range(0..templates.len())].clone();
            for _ in 0..1 + rng.gen_range(0..3usize) {
                let at = rng.gen_range(0..args.len().max(1)).min(args.len().saturating_sub(1));
                match rng.gen_range(0..5usize) {
                    _ if args.is_empty() => args.push(TOKENS[rng.gen_range(0..TOKENS.len())].to_owned()),
                    0 | 1 => args[at] = mutate_bytes(rng, &args[at]),
                    2 => drop(args.remove(at)),
                    3 => args.insert(at, TOKENS[rng.gen_range(0..TOKENS.len())].to_owned()),
                    _ => {
                        let other = rng.gen_range(0..args.len());
                        args.swap(at, other);
                    }
                }
            }
            // A result either way; a panic fails the loop and names the seed.
            match parse(&args) {
                Ok(_) => commands += 1,
                Err(ArgError(_)) => errors += 1,
            }
            for arg in &args {
                let _: Result<u64, ArgError> = parse_bytes(arg);
            }
        });
        assert!(commands > 1_000 && errors > 1_000, "{commands} commands, {errors} errors");
    }
}
