//! The loader's tables are columns: loading a document and finishing the
//! pair costs the doublings of those columns and of the interners, not an
//! allocation (or more) per line, literal or entity, and holds a bounded
//! number of heap bytes per triple; and a compiled pair is read back in
//! place, at a fixed number of allocations.
//!
//! Its own test binary because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minoaner_kb::parser::load_ntriples;
use minoaner_kb::{write_mkb, KbPair, KbPairBuilder, MkbFile, Side};

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

/// Switches counting on for this thread, from zero.
fn start_counting() {
    USAGE.with(|usage| usage.set(Some(Usage::default())));
}

/// This thread's usage so far; counting stays on.
fn usage_so_far() -> Usage {
    USAGE.with(Cell::get).expect("counting is on")
}

/// Switches counting off for this thread; returns its usage.
fn stop_counting() -> Usage {
    USAGE.with(|usage| usage.replace(None)).expect("counting was on")
}

/// How many allocations `f` makes on this thread.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    start_counting();
    let result = f();
    (result, stop_counting().allocations)
}

/// `n` entities of one side, five triples each: a unique name, a city
/// shared by every 50th entity, an escaped non-ASCII note with a language
/// tag, a link to the next entity and a link out of the KB (so `finish`
/// turns it into a local-name literal).
fn document(prefix: &str, n: usize) -> String {
    (0..n)
        .map(|i| {
            format!(
                "<http://e/{prefix}{i}> <http://p/name> \"Entity {i} of {prefix}\" .\n\
                 <http://e/{prefix}{i}> <http://p/city> \"CITY {}\"^^<http://dt/str> .\n\
                 <http://e/{prefix}{i}> <http://p/note> \"caf\\u00E9 \\\"{i}\\\" \u{6771}\"@fr .\n\
                 <http://e/{prefix}{i}> <http://p/next> <http://e/{prefix}{}> .\n\
                 <http://e/{prefix}{i}> <http://p/see> <http://x.org/res/Thing_{}> .\n",
                i % 50,
                (i + 1) % n,
                i % 97
            )
        })
        .collect()
}

#[test]
fn loading_allocates_per_column_doubling_not_per_line() {
    // Measured when the pairs became one column per side: 263 allocations
    // for 1 000 entities a side (10 000 lines), 347 for 16 000 (160 000) —
    // four doublings of some twenty growing columns (four per interner, the
    // literal token rows, three per side, the token sets `finish` builds).
    // A `Vec` per entity, an allocation per escaped literal and one per
    // dangling URI were 8 236 and 128 310 before.
    const SMALL: u64 = 300;
    const PER_DOUBLING: u64 = 25;
    let count = |n: usize| {
        let (left, right) = (document("l", n), document("r", n));
        let (pair, allocations): (KbPair, u64) = allocations_of(|| {
            let mut b = KbPairBuilder::new();
            load_ntriples(&mut b, Side::Left, &left).expect("the document parses");
            load_ntriples(&mut b, Side::Right, &right).expect("the document parses");
            b.finish()
        });
        assert_eq!(pair.kb(Side::Left).len(), n);
        assert_eq!(pair.kb(Side::Right).triple_count(), 5 * n);
        assert!(pair.literal_space() > 3 * n, "{} literals", pair.literal_space());
        allocations
    };
    let (small, large) = (count(1_000), count(16_000));
    assert!(small <= SMALL, "{small} allocations for 1 000 entities a side, the bound is {SMALL}");
    assert!(
        large <= small + 4 * PER_DOUBLING,
        "{large} allocations for 16 000 entities a side against {small} for 1 000: more than {PER_DOUBLING} a doubling"
    );
}

#[test]
fn reading_a_compiled_pair_allocates_the_same_whatever_its_size() {
    // Measured when `to_pair` came to leave the columns in the mapping: 21
    // allocations for 1 000 and for 16 000 entities a side — per interner a
    // hash column, a bit table and the candidates of its distinct-string
    // check, per side a URI index and two table names. Copying the columns
    // out was 52 and 55, the larger ones megabytes each.
    const BOUND: u64 = 30;
    let dir = std::env::temp_dir().join(format!("minoaner-kb-allocations-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let count = |n: usize| {
        let mut b = KbPairBuilder::new();
        load_ntriples(&mut b, Side::Left, &document("l", n)).expect("the document parses");
        load_ntriples(&mut b, Side::Right, &document("r", n)).expect("the document parses");
        let path = dir.join(format!("pair-{n}.mkb"));
        write_mkb(&b.finish(), &path).expect("compile");
        let file = MkbFile::open(&path).expect("open");
        let (pair, allocations): (KbPair, u64) = allocations_of(|| file.to_pair().expect("the file is valid"));
        assert_eq!(pair.kb(Side::Right).triple_count(), 5 * n);
        allocations
    };
    let (small, large) = (count(1_000), count(16_000));
    std::fs::remove_dir_all(&dir).ok();
    assert!(small <= BOUND && large <= BOUND, "{small} / {large} allocations, the bound is {BOUND}");
    assert_eq!(small, large, "allocations for 1 000 and for 16 000 entities a side");
}

/// A document's literals are tokenized when the pair is finished, after
/// the caller has read its last document, and a pair added to a side is one
/// 12-byte row until `finish` resolves it: so what the builder holds once
/// both sides are loaded, and its peak through `finish`, are bounded in
/// heap bytes per triple. Measured at 16 000 entities a side: 41.6 held and
/// 60.5 at the peak (58.8 and 67.8 with 16-byte pairs and every literal
/// tokenized at first sight; tokenizing at first sight alone holds 52.2).
#[test]
fn building_the_pair_holds_a_bounded_number_of_heap_bytes_per_triple() {
    const HELD_BOUND: f64 = 48.0;
    const PEAK_BOUND: f64 = 64.0;
    const N: usize = 16_000;
    let (left, right) = (document("l", N), document("r", N));
    let triples = (10 * N) as f64;
    let mut b = KbPairBuilder::new();
    start_counting();
    load_ntriples(&mut b, Side::Left, &left).expect("the document parses");
    load_ntriples(&mut b, Side::Right, &right).expect("the document parses");
    let held = usage_so_far().live as f64 / triples;
    let pair = b.finish();
    let peak = stop_counting().peak as f64 / triples;
    assert_eq!(pair.kb(Side::Left).triple_count() + pair.kb(Side::Right).triple_count(), 10 * N);
    assert!(held <= HELD_BOUND, "{held:.2} bytes a triple held once both sides are loaded, the bound is {HELD_BOUND}");
    assert!(peak <= PEAK_BOUND, "a peak of {peak:.2} bytes a triple through finish, the bound is {PEAK_BOUND}");
}
