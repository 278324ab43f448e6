//! Out-of-core resolution: a run under a memory budget small enough to
//! force shuffle spills must produce *bit-identical* results to an
//! unconstrained in-memory run — same graph digest, same match set, same
//! rule counts — at every worker count. The budget changes where bytes
//! live, never what gets computed.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use minoaner::dataflow::{
    MemoryBudget, RunTrace, SPILL_BYTES_COUNTER, SPILL_RECORDS_COUNTER, SPILL_RUNS_COUNTER,
};
use minoaner::datagen::{generate, profiles, GeneratedDataset};
use minoaner::{Minoaner, Resolution, ResolveRequest};

fn dataset() -> GeneratedDataset {
    generate(&profiles::restaurant().scaled(0.3))
}

/// A scratch directory unique per test without consulting any entropy
/// source (pid + a process-local counter).
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("minoaner-out-of-core-{}-{tag}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_unconstrained(ds: &GeneratedDataset, workers: usize) -> (Resolution, RunTrace) {
    Minoaner::new()
        .run(ResolveRequest::pair(&ds.pair).trace().workers(workers))
        .expect("healthy run succeeds")
        .into_traced()
}

fn run_budgeted(
    ds: &GeneratedDataset,
    workers: usize,
    limit: u64,
    dir: &PathBuf,
) -> (Resolution, RunTrace) {
    Minoaner::new()
        .run(
            ResolveRequest::pair(&ds.pair)
                .trace()
                .workers(workers)
                .mem_budget(MemoryBudget::new(limit, dir)),
        )
        .expect("budgeted run succeeds")
        .into_traced()
}

fn assert_same_outcome(base: &Resolution, got: &Resolution, what: &str) {
    assert_eq!(base.graph_digest, got.graph_digest, "{what}: graph digest diverged");
    assert_eq!(base.matches, got.matches, "{what}: match set diverged");
    assert_eq!(base.rule_counts, got.rule_counts, "{what}: rule counts diverged");
}

#[test]
fn zero_budget_spills_and_stays_bit_identical_across_workers() {
    let ds = dataset();
    let (base, base_trace) = run_unconstrained(&ds, 2);
    assert_eq!(
        base_trace.counter(SPILL_RUNS_COUNTER),
        0,
        "unconstrained run must not spill"
    );
    assert!(!base.matches.is_empty(), "dataset must produce matches to compare");

    for workers in [1usize, 2, 8] {
        let dir = scratch_dir(&format!("zero-{workers}"));
        let (res, trace) = run_budgeted(&ds, workers, 0, &dir);

        assert!(
            trace.counter(SPILL_RUNS_COUNTER) > 0,
            "{workers} workers: a zero budget must force at least one spill"
        );
        assert!(trace.counter(SPILL_BYTES_COUNTER) > 0, "{workers} workers: bytes counter");
        assert!(trace.counter(SPILL_RECORDS_COUNTER) > 0, "{workers} workers: records counter");
        assert_same_outcome(&base, &res, &format!("{workers} workers, zero budget"));

        // Spill runs are scratch state: the shuffle cleans up after
        // itself once every partition is merged.
        let leftovers = std::fs::read_dir(&dir)
            .map(|entries| entries.count())
            .unwrap_or(0);
        assert_eq!(leftovers, 0, "{workers} workers: spill dir must be empty after the run");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Half of what the γ exchange moves (the β-union edge list, 16 B per
/// edge): a budget that holds some map tasks' runs and refuses the rest,
/// however many partitions this host's core count gives the stage.
fn half_the_exchange(trace: &RunTrace) -> u64 {
    let exchange = trace.stages.iter().find(|s| s.name == "graph/gamma/transpose");
    exchange.expect("transpose stage logged").io.shuffle_bytes / 2
}

#[test]
fn partial_budget_mixes_memory_and_disk_runs_identically() {
    let ds = dataset();
    let (base, base_trace) = run_unconstrained(&ds, 2);
    let budget = half_the_exchange(&base_trace);
    let map_tasks = base_trace.stages.iter().find(|s| s.name == "graph/gamma/union");
    let map_tasks = map_tasks.expect("union stage logged").tasks as u64;

    // Some map tasks keep their runs in memory, the rest spill — the
    // reduce side must interleave both kinds.
    let dir = scratch_dir("partial");
    let (res, trace) = run_budgeted(&ds, 2, budget, &dir);
    let spilled = trace.counter(SPILL_RUNS_COUNTER);
    assert!(spilled > 0, "{budget} B must be too small for the edge shuffle of this dataset");
    assert!(spilled < map_tasks, "{budget} B must hold some of the {map_tasks} runs");
    assert!(trace.counter(SPILL_BYTES_COUNTER) < 2 * budget, "only part of the exchange spills");
    assert_same_outcome(&base, &res, "partial budget");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generous_budget_never_spills_but_is_still_identical() {
    let ds = dataset();
    let (base, _) = run_unconstrained(&ds, 2);

    let dir = scratch_dir("generous");
    let (res, trace) = run_budgeted(&ds, 2, u64::MAX, &dir);
    assert_eq!(trace.counter(SPILL_RUNS_COUNTER), 0, "unlimited budget must not spill");
    assert_same_outcome(&base, &res, "generous budget");
    assert!(!dir.join("nonexistent").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The γ shuffle is one code path: the budget decides where its buckets
/// live, not which stages run. Every budget and worker count logs the same
/// `graph/*` stages in the same order and builds the same graph.
#[test]
fn every_budget_runs_the_same_graph_stages_in_the_same_order() {
    fn graph_stages(trace: &RunTrace) -> Vec<&str> {
        trace.stages.iter().map(|s| s.name.as_str()).filter(|n| n.starts_with("graph/")).collect()
    }

    // The exchange (map: union, reduce: transpose) comes before the one
    // stage that runs both sides' row passes.
    let expected = [
        "graph/alpha",
        "graph/index",
        "graph/beta/Left",
        "graph/beta/Right",
        "graph/top-in-neighbors",
        "graph/gamma/union",
        "graph/gamma/transpose",
        "graph/gamma",
    ];
    let ds = dataset();
    let (base, base_trace) = run_unconstrained(&ds, 1);
    assert_eq!(graph_stages(&base_trace), expected);
    let partial = half_the_exchange(&base_trace);

    for workers in [1usize, 2, 8] {
        let dir = scratch_dir(&format!("stages-{workers}"));
        let runs = [
            ("unbudgeted", run_unconstrained(&ds, workers)),
            ("half the exchange", run_budgeted(&ds, workers, partial, &dir)),
            ("zero budget", run_budgeted(&ds, workers, 0, &dir)),
        ];
        for (what, (res, trace)) in &runs {
            assert_eq!(graph_stages(trace), expected, "{workers} workers, {what}: stage list");
            assert_eq!(res.graph_digest, base.graph_digest, "{workers} workers, {what}: digest");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
