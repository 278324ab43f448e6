//! The blocking layer's tables are flat: building the blocks and the
//! blocking graph costs a bounded number of heap allocations, not one (or
//! more) per token, literal or entity — and a bounded number of heap bytes
//! at its peak for each row it keeps or exchanges.
//!
//! Its own test binary because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minoaner_blocking::graph::{build_blocking_graph, GraphConfig};
use minoaner_blocking::name::build_name_blocks;
use minoaner_blocking::purge::purge_blocks;
use minoaner_blocking::token::build_token_blocks;
use minoaner_dataflow::Executor;
use minoaner_kb::stats::{NameStats, RelationStats};
use minoaner_kb::{KbPair, KbPairBuilder, Side, Term};

/// What the calling thread allocated while counting was on.
#[derive(Clone, Copy, Default)]
struct Usage {
    /// `alloc` and `realloc` calls.
    allocations: u64,
    /// Bytes allocated minus bytes freed: negative when the thread frees
    /// what it allocated before counting began.
    live: i64,
    /// The highest `live` reached.
    peak: i64,
}

thread_local! {
    /// This thread's usage since counting was switched on; `None` while it
    /// is off. No destructor and no lazy initialisation, so the allocator
    /// itself may touch it.
    static USAGE: Cell<Option<Usage>> = const { Cell::new(None) };
}

/// The system allocator, counting the calling thread's `alloc` and
/// `realloc` calls and its live heap bytes while that thread has counting
/// switched on.
struct Counting;

/// Records a call that moved the thread's live bytes by `bytes`; `call`
/// says whether it counts as an allocation.
fn record(bytes: i64, call: bool) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = USAGE.try_with(|usage| {
        if let Some(mut u) = usage.get() {
            u.allocations += u64::from(call);
            u.live += bytes;
            u.peak = u.peak.max(u.live);
            usage.set(Some(u));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` that neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64, true);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as i64), false);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as i64 - layout.size() as i64, true);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` allocates on this thread.
fn usage_of<R>(f: impl FnOnce() -> R) -> (R, Usage) {
    USAGE.with(|usage| usage.set(Some(Usage::default())));
    let result = f();
    let usage = USAGE.with(|usage| usage.replace(None)).expect("counting was on");
    (result, usage)
}

/// How many allocations `f` makes on this thread.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (result, usage) = usage_of(f);
    (result, usage.allocations)
}

/// `n` entities a side: entity `i` shares a rare token with its counterpart
/// and draws four more (a seeded LCG) from a vocabulary common to both
/// sides, so every entity has value candidates. Without `linked` there are
/// no relations; with it every entity points at the next two, so the top-N
/// pass has pairs to rank, the γ rows cells, and the right rows two runs to
/// order.
fn pair(n: usize, linked: bool) -> KbPair {
    let mut rng = 0xA110C_u64;
    let mut b = KbPairBuilder::new();
    for (side, prefix) in [(Side::Left, "l"), (Side::Right, "r")] {
        for i in 0..n {
            let mut text = format!("own{i}");
            for _ in 0..4 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                text.push_str(&format!(" w{}", (rng >> 33) as usize % (n / 4)));
            }
            let uri = format!("{prefix}{i}");
            b.add_triple(side, &uri, "label", Term::Literal(&text));
            for step in [1, 2].into_iter().filter(|_| linked) {
                b.add_triple(side, &uri, "next", Term::Uri(&format!("{prefix}{}", (i + step) % n)));
            }
        }
    }
    b.finish()
}

#[test]
fn building_the_graph_allocates_per_table_not_per_entity() {
    const N: usize = 2_000;
    // Upper bounds on the counts: the scratch a row needs is the worker's
    // or the task's, never the row's (8 592 linked when `top_n_neighbors`
    // returned a `Vec` or two per linked entity). A stage's tasks grow
    // with the executor's partitions, 3 a core, and each γ union task
    // fills a bucket per partition, so the linked build grows with their
    // square. Measured, unlinked / linked: 125 / 260 at 3 partitions,
    // 183 / 575 at 6, 292 / 1 468 at 12, 503 / 3 911 at 24 and 914 / 9 358
    // at 48 (the last three with the core count overridden in a copy of
    // the pool). From 24 partitions on, the linked bound passes the entity
    // count and no longer tells a per-entity allocation apart.
    let bound = |linked: bool, p: u64| if linked { 100 + 45 * p + 6 * p * p } else { 80 + 20 * p };
    for linked in [false, true] {
        let pair = pair(N, linked);
        let rels = RelationStats::compute(&pair);
        let names = NameStats::compute(&pair, 2);
        let mut token_blocks = build_token_blocks(&pair);
        purge_blocks(&mut token_blocks, 2 * N);
        let name_blocks = build_name_blocks(&pair, &names);
        let cfg = GraphConfig::default();

        // One worker runs every stage inline, on this thread.
        let inline = Executor::new(1);
        let (graph, allocations) =
            allocations_of(|| build_blocking_graph(&inline, &pair, &rels, &token_blocks, &name_blocks, &cfg));
        let bound = bound(linked, inline.partitions() as u64);

        // With a `Vec` per row this was at least one allocation per entity
        // with a candidate — and nearly every entity has one.
        let has = |side| pair.kb(side).iter().filter(|&(e, _)| !graph.value_candidates(side, e).is_empty()).count();
        let with_candidates = has(Side::Left) + has(Side::Right);
        assert!(with_candidates >= 2 * N * 9 / 10, "only {with_candidates} entities have candidates");
        let ranked = |side| pair.kb(side).iter().filter(|&(e, _)| !graph.neighbor_candidates(side, e).is_empty()).count();
        assert_eq!(ranked(Side::Left) + ranked(Side::Right) > N, linked, "neighbour candidates");
        assert!(
            allocations <= bound,
            "linked={linked}: {allocations} allocations for {} entities over {} partitions, the bound is {bound}",
            2 * N,
            inline.partitions()
        );

        let wide = build_blocking_graph(&Executor::new(8), &pair, &rels, &token_blocks, &name_blocks, &cfg);
        assert_eq!(wide.weight_digest(), graph.weight_digest(), "1 worker vs 8");
    }
}

#[test]
fn building_the_blocks_allocates_per_column_not_per_token_or_literal() {
    // Two inversions, the active blocks' three columns and a purge, for
    // token and name blocks each: 25 or 26 allocations whether the pair has
    // 625 tokens and 1 000 literals or 10 000 and 16 000 (a `Vec` per token
    // and literal and side was 3 250 and 52 000 before any posting).
    const BOUND: u64 = 30;
    for n in [500, 8_000] {
        let pair = pair(n, false);
        let names = NameStats::compute(&pair, 2);
        let ((token_blocks, name_blocks), allocations) = allocations_of(|| {
            let mut token_blocks = build_token_blocks(&pair);
            purge_blocks(&mut token_blocks, 2 * n);
            (token_blocks, build_name_blocks(&pair, &names))
        });
        assert!(token_blocks.len() > n, "{n} entities a side: {} token blocks", token_blocks.len());
        assert!(name_blocks.is_empty(), "every label is unique");
        assert!(pair.token_space() >= n + n / 4 && pair.literal_space() == 2 * n);
        assert!(allocations <= BOUND, "{n} entities a side: {allocations} allocations, the bound is {BOUND}");
    }
}

/// The graph's rows are 12-byte `Candidate`s — its four candidate tables and
/// the exchanged β edges by either endpoint — only the edges γ reads are
/// exchanged, and each table is freed by its last reader (a union task its
/// part of the β inversion, the last left-row γ task the edges by left
/// endpoint), so a build's heap peaks at a bounded number of bytes per kept
/// candidate plus exchanged edge: 16.9 here (18.5 with both tables held to
/// the end of their stages, 23.7 with 16-byte rows and the whole union
/// exchanged as well). Mutants and their readings: rows of 16 bytes again
/// 23.2 and a second copy of the edge table held to the end 21.8 (both
/// taken when the build read 18.5), the whole inversion held through the
/// union 18.5, and the edges by left endpoint held through the right rows
/// 17.7 — under the bound, which leaves room for hosts whose core count
/// cuts the stages into other tasks (3, 12, 24 and 48 partitions instead
/// of 6 read 17.6, 16.6, 16.6 and 16.4).
#[test]
fn building_the_graph_peaks_at_a_bounded_number_of_heap_bytes_per_row() {
    const N: usize = 2_000;
    const BOUND: f64 = 18.0;
    let pair = pair(N, true);
    let rels = RelationStats::compute(&pair);
    let names = NameStats::compute(&pair, 2);
    let mut token_blocks = build_token_blocks(&pair);
    purge_blocks(&mut token_blocks, 2 * N);
    let name_blocks = build_name_blocks(&pair, &names);
    let cfg = GraphConfig::default();

    let inline = Executor::new(1);
    let (graph, usage) =
        usage_of(|| build_blocking_graph(&inline, &pair, &rels, &token_blocks, &name_blocks, &cfg));
    let kept: usize = [Side::Left, Side::Right]
        .iter()
        .flat_map(|&side| pair.kb(side).iter().map(move |(e, _)| (side, e)))
        .map(|(side, e)| graph.value_candidates(side, e).len() + graph.neighbor_candidates(side, e).len())
        .sum();
    let log = inline.stage_log();
    let exchanged = log.find("graph/gamma/transpose").expect("the exchange ran").io.items_in;
    let per_row = usage.peak as f64 / (kept as u64 + exchanged) as f64;
    assert!(
        per_row <= BOUND,
        "a peak of {} bytes for {kept} kept and {exchanged} exchanged rows: {per_row:.2} a row, the bound is {BOUND}",
        usage.peak
    );
}
