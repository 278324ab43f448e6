//! Criterion micro-benchmarks for the hot paths: tokenization and the
//! N-Triples parser path it feeds, the two ways a KB pair is ingested
//! (text and `.mkb`), value-similarity kernel, token blocking,
//! blocking-graph construction, and the full matching phase (Algorithm 2)
//! on a prepared graph.

use criterion::{criterion_group, criterion_main, Criterion};
use minoaner_core::{Minoaner, RuleSet};
use minoaner_dataflow::Executor;
use minoaner_datagen::{generate, profiles};
use minoaner_kb::parser::{load_ntriples, write_ntriples};
use minoaner_kb::stats::{value_sim, TokenEf};
use minoaner_kb::tokenize::tokenize;
use minoaner_kb::{write_mkb, KbPairBuilder, MkbFile, Side, Term};
use std::hint::black_box;

fn bench_tokenize(c: &mut Criterion) {
    // A realistic literal mix: mostly-lowercase values (the zero-copy
    // path) plus cased and punctuated ones that must case-fold.
    let d = generate(&profiles::restaurant());
    let doc = write_ntriples(&d.pair, Side::Left);
    c.bench_function("tokenize/ntriples_doc", |b| {
        b.iter(|| {
            let mut count = 0usize;
            let mut bytes = 0usize;
            for line in doc.lines() {
                for tok in tokenize(black_box(line)) {
                    count += 1;
                    bytes += tok.len();
                }
            }
            black_box((count, bytes))
        })
    });
}

fn bench_parser_path(c: &mut Criterion) {
    // End-to-end parser path: every parsed literal runs through
    // normalize_name + tokenize during interning.
    let d = generate(&profiles::restaurant());
    let doc = write_ntriples(&d.pair, Side::Left);
    c.bench_function("parser/load_ntriples", |b| {
        b.iter(|| {
            let mut builder = KbPairBuilder::new();
            let n = load_ntriples(&mut builder, Side::Left, black_box(&doc)).expect("parses");
            builder.add_triple(Side::Right, "r", "p", Term::Literal("x"));
            black_box((n, builder.finish()))
        })
    });
}

fn bench_ingest(c: &mut Criterion) {
    // The benchmark's `bbc_nt_w1` load layer at 1/15 of its size (≈ 55 000
    // triples, 5 MB of text): the verbose wide-schema pair, once as the two
    // N-Triples documents and once as the container compiled from them.
    let d = generate(&profiles::bbc_dbpedia().scaled(0.2));
    let docs = [Side::Left, Side::Right].map(|side| (side, write_ntriples(&d.pair, side)));
    let load = || {
        let mut builder = KbPairBuilder::new();
        for (side, doc) in &docs {
            load_ntriples(&mut builder, *side, black_box(doc)).expect("own output parses");
        }
        builder.finish()
    };
    let dir = std::env::temp_dir().join(format!("minoaner-micro-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mkb = dir.join("pair.mkb");
    write_mkb(&load(), &mkb).expect("compile succeeds");

    let mut group = c.benchmark_group("ingest");
    group.bench_function("load_ntriples_x2_finish", |b| b.iter(|| black_box(load())));
    group.bench_function("mkb_open_to_pair", |b| {
        b.iter(|| black_box(MkbFile::open(&mkb).and_then(|file| file.to_pair()).expect("own file opens")))
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_value_sim(c: &mut Criterion) {
    let d = generate(&profiles::restaurant());
    let ef = TokenEf::compute(&d.pair);
    let pairs = d.ground_truth.to_vec();
    c.bench_function("value_sim/restaurant_gt", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &(l, r) in &pairs {
                acc += value_sim(black_box(&d.pair), &ef, l, r);
            }
            black_box(acc)
        })
    });
}

fn bench_token_blocking(c: &mut Criterion) {
    let d = generate(&profiles::restaurant());
    c.bench_function("token_blocking/restaurant", |b| {
        b.iter(|| black_box(minoaner_blocking::token::build_token_blocks(&d.pair)))
    });
}

fn bench_graph_construction(c: &mut Criterion) {
    let d = generate(&profiles::restaurant());
    let exec = Executor::default();
    let m = Minoaner::new();
    c.bench_function("blocking_graph/restaurant", |b| {
        b.iter(|| black_box(m.prepare(&exec, &d.pair)))
    });
}

fn bench_matching(c: &mut Criterion) {
    let d = generate(&profiles::restaurant());
    let exec = Executor::default();
    let m = Minoaner::new();
    let prepared = m.prepare(&exec, &d.pair);
    c.bench_function("matching_rules/restaurant", |b| {
        b.iter(|| black_box(m.match_prepared(&exec, &d.pair, &prepared, RuleSet::FULL)))
    });
}

criterion_group!(
    benches,
    bench_tokenize,
    bench_parser_path,
    bench_ingest,
    bench_value_sim,
    bench_token_blocking,
    bench_graph_construction,
    bench_matching
);
criterion_main!(benches);
