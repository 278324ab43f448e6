//! Integration tests for the observability layer: the trace every
//! [`minoaner::Minoaner::run`] captures must round-trip through JSON
//! exactly, must not perturb resolution results, and its domain counters
//! must mirror the in-memory [`minoaner::core::RuleCounts`].

use minoaner::core::matcher::run_matching;
use minoaner::datagen::{generate, profiles, GeneratedDataset};
use minoaner::dataflow::{RunTrace, TRACE_SCHEMA_VERSION};
use minoaner::{Executor, KbPair, Minoaner, Resolution, ResolveOutcome, ResolveRequest, RuleSet};

fn dataset() -> GeneratedDataset {
    generate(&profiles::restaurant().scaled(0.4))
}

/// One run through the request API, split into its resolution and trace.
fn resolve(pair: &KbPair, workers: usize) -> (Resolution, RunTrace) {
    let ResolveOutcome { resolution, trace } =
        Minoaner::new().run(ResolveRequest::pair(pair).workers(workers)).expect("healthy run succeeds");
    (resolution, trace)
}

#[test]
fn trace_json_round_trip_is_exact() {
    let d = dataset();
    let (_, trace) = resolve(&d.pair, 2);
    assert_eq!(trace.schema_version, TRACE_SCHEMA_VERSION);
    assert_eq!(trace.workers, 2);
    assert!(trace.partitions >= 1);
    assert!(!trace.stages.is_empty());
    for stage in &trace.stages {
        assert!(!stage.name.is_empty(), "every stage is named");
        assert!(stage.attempts >= stage.tasks, "stage {:?} ran every task", stage.name);
    }
    let json = trace.to_json();
    let back = RunTrace::from_json(&json).expect("trace JSON parses");
    assert_eq!(trace, back, "JSON round-trip must be lossless");
}

/// `run` always installs a trace collector; the same stages composed on
/// an executor with no observer give the same resolution.
#[test]
fn observer_does_not_perturb_resolution() {
    let d = dataset();
    let m = Minoaner::new();
    let observed = m.run(ResolveRequest::pair(&d.pair).workers(3)).expect("run succeeds").into_resolution();

    let exec = Executor::new(3);
    let graph = m.build_graph_from_blocks(&exec, &d.pair, &m.prepare_blocks(&exec, &d.pair));
    let unobserved = run_matching(&exec, &d.pair, &graph, m.config(), RuleSet::FULL);

    assert_eq!(observed.matches, unobserved.matches, "the observed run finds the same matches");
    assert_eq!(observed.rule_counts, unobserved.counts);
    assert_eq!(observed.graph_digest, graph.weight_digest());
}

#[test]
fn per_rule_trace_counters_mirror_rule_counts() {
    let d = dataset();
    let (res, trace) = resolve(&d.pair, 2);

    let c = res.rule_counts;
    assert_eq!(trace.counter("matching/r1_matches"), c.r1 as u64);
    assert_eq!(trace.counter("matching/r2_matches"), c.r2 as u64);
    assert_eq!(trace.counter("matching/r3_matches"), c.r3 as u64);
    assert_eq!(trace.counter("matching/r4_removed"), c.removed_by_r4 as u64);
    assert_eq!(trace.counter("matching/total_matches"), res.matches.len() as u64);
}

#[test]
fn trace_records_stage_io_and_blocking_counters() {
    let d = dataset();
    let (_, trace) = resolve(&d.pair, 2);

    assert!(trace.counter("blocking/token_blocks_built") > 0);
    assert!(trace.counter("blocking/token_block_comparisons") > 0);
    assert!(trace.counter("blocking/name_blocks_built") > 0);
    assert!(
        trace.counter("blocking/alpha_pairs") > 0,
        "restaurant world must yield α-edges: {:?}",
        trace.counters
    );

    assert!(!trace.stages.is_empty());
    assert!(
        trace.stages.iter().any(|s| s.io.items_in > 0 && s.io.items_out > 0),
        "at least one stage is annotated with item flow"
    );
    let stage_wall: std::time::Duration = trace.stages.iter().map(|s| s.wall).sum();
    assert!(stage_wall <= trace.total_wall + trace.total_wall);
}

#[test]
fn gamma_pass_is_an_observed_stage_with_item_flow() {
    let d = dataset();
    let (_, trace) = resolve(&d.pair, 2);

    let gamma = trace
        .stages
        .iter()
        .find(|s| s.name == "graph/gamma")
        .expect("graph/gamma must appear in the stage log");
    assert!(
        gamma.io.items_in > 0 && gamma.io.items_out > 0,
        "γ stage must be annotated with β-edges in / γ-entries out: {:?}",
        gamma.io
    );
    assert!(
        trace.counter("blocking/beta_union_edges") > 0,
        "restaurant world must produce β union edges: {:?}",
        trace.counters
    );
    assert!(
        trace.counters.contains_key("blocking/gamma_entries"),
        "γ pass must report its entry count: {:?}",
        trace.counters
    );
}

#[test]
fn repeated_traced_runs_are_deterministic() {
    // The pre-rewrite γ pass iterated randomly-seeded hash maps, so f64
    // summation order — and thus candidate weights — varied per process.
    // The rewritten kernel must make repeated runs (and different worker
    // counts) agree exactly, which the blocking counters and match sets
    // witness end to end.
    let d = dataset();
    let mut runs = Vec::new();
    for workers in [1usize, 2, 8] {
        let (res, trace) = resolve(&d.pair, workers);
        let mut matches = res.matches.clone();
        matches.sort_unstable();
        runs.push((matches, trace.counters.clone()));
    }
    let (m0, c0) = &runs[0];
    for (m, c) in &runs[1..] {
        assert_eq!(m, m0, "match sets must be identical across worker counts");
        for key in ["blocking/beta_union_edges", "blocking/gamma_entries", "blocking/graph_directed_edges"]
        {
            assert_eq!(c.get(key), c0.get(key), "counter {key} drifted across runs");
        }
    }
}
