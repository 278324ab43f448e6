//! Integration tests for the observability layer: run traces captured
//! through a traced [`minoaner::ResolveRequest`] must round-trip through
//! JSON exactly, must not perturb resolution results, and their domain
//! counters must mirror the in-memory [`minoaner::core::RuleCounts`].

use minoaner::datagen::{generate, profiles, GeneratedDataset};
use minoaner::dataflow::RunTrace;
use minoaner::{KbPair, Minoaner, Resolution, ResolveOutcome, ResolveRequest, RuleSet};

fn dataset() -> GeneratedDataset {
    generate(&profiles::restaurant().scaled(0.4))
}

/// One traced run through the request API.
fn traced(pair: &KbPair, workers: usize) -> (Resolution, RunTrace) {
    let ResolveOutcome { resolution, trace } = Minoaner::new()
        .run(ResolveRequest::pair(pair).rules(RuleSet::FULL).trace().workers(workers))
        .expect("healthy run succeeds");
    (resolution, trace.expect("a traced run carries a trace"))
}

#[test]
fn trace_json_round_trip_is_exact() {
    let d = dataset();
    let (_, trace) = traced(&d.pair, 2);
    trace.validate().expect("captured trace validates");
    let json = trace.to_json();
    let back = RunTrace::from_json(&json).expect("trace JSON parses");
    assert_eq!(trace, back, "JSON round-trip must be lossless");
}

#[test]
fn observer_does_not_perturb_resolution() {
    let d = dataset();
    let m = Minoaner::new();

    let plain = m.run(ResolveRequest::pair(&d.pair).workers(3)).expect("plain run succeeds").into_resolution();
    let outcome = m
        .run(ResolveRequest::pair(&d.pair).rules(RuleSet::FULL).trace().workers(3))
        .expect("traced run succeeds");
    assert!(outcome.trace.is_some(), "the traced run carries a trace");
    let traced = outcome.resolution;

    let mut a = plain.matches.clone();
    let mut b = traced.matches.clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "observer-on run must find the same matches");
    assert_eq!(plain.rule_counts, traced.rule_counts);
}

#[test]
fn per_rule_trace_counters_mirror_rule_counts() {
    let d = dataset();
    let (res, trace) = traced(&d.pair, 2);

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
    let (_, trace) = traced(&d.pair, 2);

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
    let (_, trace) = traced(&d.pair, 2);

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
        let (res, trace) = traced(&d.pair, workers);
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
