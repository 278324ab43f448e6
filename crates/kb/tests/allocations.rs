//! The loader's tables are columns: loading a document appends to chunks
//! allocated once each, and finishing the pair costs the doublings of the
//! interners and of the tables `finish` builds — not an allocation (or
//! more) per line, literal or entity; no buffer larger than a chunk is
//! moved while a document loads; building holds a bounded number of heap
//! bytes per triple; and a compiled pair is read back in place, at a fixed
//! number of allocations.
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
    /// The largest size a `realloc` call grew or shrank a buffer from.
    largest_realloc: usize,
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
/// says whether it counts as an allocation, `from` is the old size of a
/// buffer `realloc` was given (0 for other calls).
fn record(bytes: i64, call: bool, from: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = USAGE.try_with(|usage| {
        if let Some(mut u) = usage.get() {
            u.allocations += u64::from(call);
            u.live += bytes;
            u.peak = u.peak.max(u.live);
            u.largest_realloc = u.largest_realloc.max(from);
            usage.set(Some(u));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` that neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64, true, 0);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as i64), false, 0);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as i64 - layout.size() as i64, true, layout.size());
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
fn loading_allocates_per_chunk_and_doubling_not_per_line() {
    // Measured when a load came to append to chunks and `finish` to intern
    // the literals: 221 allocations for 1 000 entities a side (10 000
    // lines), 289 for 16 000 (160 000) — a chunk per 64 Ki pairs, 64 Ki
    // literals and 1 MiB of literal text, four doublings of some twenty
    // growing columns (the URI, attribute and token interners, the literal
    // token rows, the URI columns, the token sets `finish` builds). 263 and
    // 347 when the pairs were one doubling column per side and literals
    // were interned as read; a `Vec` per entity, an allocation per escaped
    // literal and one per dangling URI were 8 236 and 128 310 before that.
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

/// While the caller holds a document, a load only appends: a side's pairs
/// and the literal log grow by chunks allocated once at their full size,
/// and what still doubles (the URI and attribute interners) is small. So
/// no buffer larger than a chunk is grown by copying before `finish`, which
/// runs once the documents are gone. Measured at 32 000 entities a side:
/// 736 KiB; 1.5 MiB (a side's pair column) when the pairs were one
/// doubling column a side and literals were interned as they were read.
#[test]
fn loading_moves_no_buffer_larger_than_a_chunk() {
    const CHUNK: usize = 1 << 20;
    const N: usize = 32_000;
    let (left, right) = (document("l", N), document("r", N));
    let mut b = KbPairBuilder::new();
    start_counting();
    load_ntriples(&mut b, Side::Left, &left).expect("the document parses");
    load_ntriples(&mut b, Side::Right, &right).expect("the document parses");
    let moved = stop_counting().largest_realloc;
    assert!(moved <= CHUNK, "a load grew a buffer of {moved} bytes by realloc, the bound is {CHUNK}");
    assert_eq!(b.finish().kb(Side::Right).triple_count(), 5 * N);
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

/// A document's literals are interned and tokenized when the pair is
/// finished, after the caller has read its last document, and a pair added
/// to a side is one 12-byte row until `finish` resolves it: so what the
/// builder holds once both sides are loaded, and its peak through `finish`,
/// are bounded in heap bytes per triple. Measured at 16 000 entities a
/// side: 46.1 held and 62.1 at the peak. Interning literals as they were
/// read held 41.6 and peaked at 60.5 (the heap counts a partly filled
/// chunk's capacity, which the resident set does not); 58.8 and 67.8 with
/// 16-byte pairs and every literal tokenized at first sight; tokenizing at
/// first sight alone held 52.2.
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
