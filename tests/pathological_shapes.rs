//! Hang and OOM bounds on the shapes that stress the blocking graph most:
//! one token in every entity with purging off (a block of n² comparisons),
//! one entity with 10⁵ triples — and, in a release build, with 10⁶ — and
//! `top_k = usize::MAX` (no pruning at all). Each resolves to the same
//! digest and match set at 1, 2 and 8 workers, and its peak of live heap
//! bytes stays under a bound.
//!
//! Its own test binary because it installs a counting global allocator, and
//! one test, so that no other test allocates while a peak is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use minoaner::datagen::{generate, profiles};
use minoaner::{EntityId, KbPair, KbPairBuilder, Minoaner, MinoanerConfig, ResolveRequest, Side, Term};

/// Heap bytes allocated and not yet freed, process-wide.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The highest `LIVE` since the last [`peak_of`] began.
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The system allocator, keeping [`LIVE`] and [`PEAK`].
struct Counting;

fn moved(bytes: i64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are atomics that neither allocate nor
// unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        moved(layout.size() as i64);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        moved(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        moved(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` returns, and the most heap it held at once beyond what was live
/// when it began.
fn peak_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = f();
    (result, (PEAK.load(Ordering::Relaxed) - before).max(0) as u64)
}

/// `n` entities a side that all carry the token `everywhere` — one block of
/// `n²` comparisons, which purging would have cut — plus a token of their
/// own shared with their counterpart, and a link to the next entity.
fn one_token_everywhere(n: usize) -> KbPair {
    let mut b = KbPairBuilder::new();
    for (side, p) in [(Side::Left, "l"), (Side::Right, "r")] {
        for i in 0..n {
            let uri = format!("{p}:{i}");
            b.add_triple(side, &uri, "label", Term::Literal(&format!("everywhere own{i}")));
            b.add_triple(side, &uri, "next", Term::Uri(&format!("{p}:{}", (i + 1) % n)));
        }
    }
    b.finish()
}

/// 500 entities a side, each with a token of its own shared with its
/// counterpart, and one left entity with `triples` triples: half of them
/// literals of distinct tokens, a few shared with the right side, the other
/// half links to the other left entities.
fn one_entity_with_many_triples(triples: usize) -> KbPair {
    const N: usize = 500;
    let mut b = KbPairBuilder::new();
    for (side, p) in [(Side::Left, "l"), (Side::Right, "r")] {
        for i in 0..N {
            let uri = format!("{p}:{i}");
            b.add_triple(side, &uri, "label", Term::Literal(&format!("own{i} group{}", i % 7)));
            b.add_triple(side, &uri, "next", Term::Uri(&format!("{p}:{}", (i + 1) % N)));
        }
    }
    for k in 0..triples {
        if k % 2 == 0 {
            b.add_triple(Side::Left, "l:hub", "text", Term::Literal(&format!("own{}", k / 2)));
        } else {
            b.add_triple(Side::Left, "l:hub", "link", Term::Uri(&format!("l:{}", k % N)));
        }
    }
    b.finish()
}

/// The pair of the CI's CLI smoke run: two restaurants and their chefs.
fn smoke_pair() -> KbPair {
    let mut b = KbPairBuilder::new();
    b.add_triple(Side::Left, "w:R1", "w:label", Term::Literal("The Fat Duck"));
    b.add_triple(Side::Left, "w:R1", "w:hasChef", Term::Uri("w:C1"));
    b.add_triple(Side::Left, "w:C1", "w:label", Term::Literal("Jonny Lake"));
    b.add_triple(Side::Right, "d:R2", "d:name", Term::Literal("Fat Duck (Bray)"));
    b.add_triple(Side::Right, "d:R2", "d:headChef", Term::Uri("d:C2"));
    b.add_triple(Side::Right, "d:C2", "d:name", Term::Literal("Jonny Lake"));
    b.finish()
}

/// Resolves `pair` at 1, 2 and 8 workers: the matches (equal at every
/// worker count, as is the graph digest) and the largest heap peak of the
/// three runs.
fn resolve_everywhere(what: &str, pair: &KbPair, cfg: &MinoanerConfig) -> (Vec<(EntityId, EntityId)>, u64) {
    let runs = [1usize, 2, 8].map(|workers| {
        let (resolution, peak) = peak_of(|| {
            let request = ResolveRequest::pair(pair).workers(workers);
            Minoaner::with_config(*cfg).run(request).expect("the shape resolves").into_resolution()
        });
        (workers, resolution.graph_digest, resolution.matches, peak)
    });
    let peak = runs.iter().map(|run| run.3).max().unwrap_or(0);
    let [(_, digest, matches, _), rest @ ..] = runs;
    for (workers, other_digest, other_matches, _) in rest {
        assert_eq!(other_digest, digest, "{what}: the digest at {workers} workers and at 1");
        assert_eq!(other_matches, matches, "{what}: the matches at {workers} workers and at 1");
    }
    (matches, peak)
}

#[test]
fn pathological_shapes_resolve_within_bounds_and_agree_across_workers() {
    const MIB: u64 = 1 << 20;
    let defaults = MinoanerConfig::default();
    let no_purging = MinoanerConfig { purge_blocks: false, ..defaults };
    let no_pruning = MinoanerConfig { top_k: usize::MAX, ..defaults };

    // The bounds are twice the peaks measured when they were set (3.6, 1.4
    // and 2.5 MiB): the KB and its blocks are built before the peak is
    // taken, so a bound is on what resolving holds on top of them.
    let mut shapes = vec![
        ("one token in all 2 000 entities a side, purging off", one_token_everywhere(2_000), &no_purging, 8 * MIB),
        ("one entity with 100 000 triples", one_entity_with_many_triples(100_000), &defaults, 3 * MIB),
        ("top_k = usize::MAX", generate(&profiles::yago_imdb().scaled(0.05)).pair, &no_pruning, 5 * MIB),
    ];
    // In a release build only, as CI also runs this file: ten times the
    // hub, whose 10⁶ pairs span 16 of the builder's 64 Ki-pair chunks. The
    // bound is twice the 11.7 MiB measured when it was added.
    if cfg!(not(debug_assertions)) {
        shapes.push((
            "one entity with 1 000 000 triples",
            one_entity_with_many_triples(1_000_000),
            &defaults,
            24 * MIB,
        ));
    }
    for (what, pair, cfg, bound) in &shapes {
        let (matches, peak) = resolve_everywhere(what, pair, cfg);
        println!("{what}: {} matches, peak {:.1} MiB", matches.len(), peak as f64 / MIB as f64);
        assert!(!matches.is_empty(), "{what}: something matches");
        assert!(peak <= *bound, "{what}: a heap peak of {peak} bytes, the bound is {bound}");
    }

    // Without pruning, the CLI smoke pair still resolves to its two pairs.
    let pair = smoke_pair();
    let (matches, _) = resolve_everywhere("the smoke pair, top_k = usize::MAX", &pair, &no_pruning);
    let mut named: Vec<(&str, &str)> =
        matches.iter().map(|&(l, r)| (pair.uri_of(Side::Left, l), pair.uri_of(Side::Right, r))).collect();
    named.sort_unstable();
    assert_eq!(named, [("w:C1", "d:C2"), ("w:R1", "d:R2")], "the smoke pair's matches");
}
