//! Advanced API tour: parse N-Triples input, tune the four MinoanER
//! parameters, run the pipeline's stages one call at a time (blocks,
//! graph, matching), inspect the blocking graph, and read per-stage
//! timings.
//!
//! ```sh
//! cargo run --release --example custom_pipeline
//! ```

use minoaner::core::matcher::run_matching;
use minoaner::kb::parser::load_ntriples;
use minoaner::{Executor, KbPairBuilder, Minoaner, MinoanerConfig, ResolveRequest, RuleSet, Side};

const LEFT_NT: &str = r#"
<http://w/FatDuck>   <http://w/label>   "The Fat Duck" .
<http://w/FatDuck>   <http://w/chef>    <http://w/Blumenthal> .
<http://w/FatDuck>   <http://w/desc>    "molecular gastronomy bray berkshire michelin" .
<http://w/Blumenthal> <http://w/label>  "Heston Blumenthal" .
<http://w/Noma>      <http://w/label>   "Noma" .
<http://w/Noma>      <http://w/chef>    <http://w/Redzepi> .
<http://w/Noma>      <http://w/desc>    "nordic foraging copenhagen tasting menu" .
<http://w/Redzepi>   <http://w/label>   "Rene Redzepi" .
"#;

const RIGHT_NT: &str = r#"
<http://d/fat_duck>  <http://d/name>     "Fat Duck (Bray)"@en .
<http://d/fat_duck>  <http://d/headChef> <http://d/heston> .
<http://d/fat_duck>  <http://d/abstract> "michelin starred molecular gastronomy in bray" .
<http://d/heston>    <http://d/name>     "Heston Blumenthal" .
<http://d/noma>      <http://d/name>     "Noma Copenhagen" .
<http://d/noma>      <http://d/headChef> <http://d/rene> .
<http://d/noma>      <http://d/abstract> "nordic cuisine foraging tasting menu" .
<http://d/rene>      <http://d/name>     "Rene Redzepi" .
"#;

fn main() {
    // 1. Load both KBs from N-Triples.
    let mut b = KbPairBuilder::new();
    let n_left = load_ntriples(&mut b, Side::Left, LEFT_NT).expect("valid left KB");
    let n_right = load_ntriples(&mut b, Side::Right, RIGHT_NT).expect("valid right KB");
    let pair = b.finish();
    println!("Loaded {n_left} + {n_right} triples.");

    // 2. A custom configuration: one name attribute, tighter candidate
    //    lists, θ favoring neighbor evidence. `validate` names the first
    //    parameter out of range.
    let config = MinoanerConfig { name_attrs_k: 1, top_k: 5, n_relations: 2, theta: 0.5, ..MinoanerConfig::default() };
    config.validate().expect("parameters in range");
    let resolver = Minoaner::with_config(config);
    let mut exec = Executor::new(2);

    // 3. Run Algorithm 1 (blocks, then the graph) separately from
    //    Algorithm 2: the calls the pipeline itself makes.
    let blocks = resolver.prepare_blocks(&exec, &pair);
    let graph = resolver.build_graph_from_blocks(&exec, &pair, &blocks, false);
    println!(
        "Blocking graph: {} directed edges, {} alpha pairs, {} token blocks ({} purged).",
        graph.num_directed_edges(),
        graph.alpha_pairs().len(),
        blocks.token_blocks.len(),
        blocks.purge.as_ref().map_or(0, |p| p.blocks_before - p.blocks_after),
    );
    for side in [Side::Left, Side::Right] {
        for attr in blocks.name_stats.name_attrs(side) {
            println!(
                "  name attribute on {side:?}: {}",
                pair.attrs().resolve(minoaner::kb::Symbol(attr.0))
            );
        }
    }

    // 4. Match with the full rule set, then inspect an ablation on the
    //    same graph (no re-blocking).
    let outcome = run_matching(&exec, &pair, &graph, &config, RuleSet::FULL);
    println!("\nMatches:");
    for (&(l, r), rule) in outcome.matches.iter().zip(&outcome.rules) {
        println!(
            "  [{rule:?}] {}  <=>  {}",
            pair.uri_of(Side::Left, l),
            pair.uri_of(Side::Right, r)
        );
    }
    let names_only = run_matching(&exec, &pair, &graph, &config, RuleSet::R1_ONLY);
    println!("\nR1 alone finds {} of them.", names_only.matches.len());

    // 5. Stage timings and item flow recorded by the dataflow executor.
    println!("\nStages:");
    for stage in exec.stage_log().iter() {
        println!(
            "  {:<28} {:>8.3} ms  ({} tasks, {} → {} items)",
            stage.name,
            stage.wall.as_secs_f64() * 1e3,
            stage.tasks,
            stage.io.items_in,
            stage.io.items_out,
        );
    }

    // 6. The same run end-to-end with a RunTrace: domain counters from
    //    blocking and matching plus the annotated stage log, exportable
    //    as versioned JSON (`minoaner resolve --report run.json` does the
    //    same from the CLI).
    let outcome = resolver
        .run_on(&mut exec, ResolveRequest::pair(&pair).rules(RuleSet::FULL).trace())
        .expect("pipeline runs");
    let trace = outcome.trace.expect("a traced run carries a trace");
    println!("\nCounters:");
    for (name, value) in &trace.counters {
        println!("  {name:<36} {value}");
    }
}
