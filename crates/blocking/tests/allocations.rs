//! The blocking layer's tables are flat: building the blocks and the
//! blocking graph costs a bounded number of heap allocations, not one (or
//! more) per token, literal or entity.
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

thread_local! {
    /// Allocations made by this thread since counting was switched on;
    /// `None` while it is off. No destructor and no lazy initialisation, so
    /// the allocator itself may touch it.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The system allocator, counting the calling thread's `alloc` and
/// `realloc` calls while that thread has counting switched on.
struct Counting;

fn bump() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = COUNT.try_with(|count| count.set(count.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` that neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` allocates on this thread.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.with(|count| count.set(Some(0)));
    let result = f();
    let count = COUNT.with(|count| count.replace(None)).expect("counting was on");
    (result, count)
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
    // The counts measured when the blocks became columns and the top-N
    // pass ranked in shared scratch (559 / 8 592 before: the index copied
    // the members, `top_n_neighbors` returned a `Vec` or two per linked
    // entity), as upper bounds: the scratch a row needs is the worker's or
    // the task's, never the row's.
    for (linked, bound) in [(false, 555), (true, 592)] {
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

        // With a `Vec` per row this was at least one allocation per entity
        // with a candidate — and nearly every entity has one.
        let has = |side| pair.kb(side).iter().filter(|&(e, _)| !graph.value_candidates(side, e).is_empty()).count();
        let with_candidates = has(Side::Left) + has(Side::Right);
        assert!(with_candidates >= 2 * N * 9 / 10, "only {with_candidates} entities have candidates");
        let ranked = |side| pair.kb(side).iter().filter(|&(e, _)| !graph.neighbor_candidates(side, e).is_empty()).count();
        assert_eq!(ranked(Side::Left) + ranked(Side::Right) > N, linked, "neighbour candidates");
        assert!(
            allocations <= bound,
            "linked={linked}: {allocations} allocations for {} entities, the bound is {bound}",
            2 * N
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
