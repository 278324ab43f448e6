//! The loader's tables are columns: loading a document appends to segments
//! allocated once each, and finishing the pair costs the doublings of the
//! interners and of the tables `finish` builds — not an allocation (or
//! more) per line, literal or entity; no buffer larger than a segment is
//! moved while a document loads; building holds a bounded number of heap
//! bytes per triple; and a compiled pair is read back in place, at a fixed
//! number of allocations.
//!
//! Its own test binary because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minoaner_det::rng::Rng;
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
    // Measured since literals are logged as token ids and interned by
    // their records: 233 allocations for 1 000 entities a side (10 000
    // lines), 301 for 16 000 (160 000) — a segment per 1 MiB of a side's
    // records and of literal records, four doublings of some twenty
    // growing columns (the URI, attribute and token interners, the literal
    // records and token rows, the URI columns, the token sets `finish`
    // builds). 222 and 287 with the literals' text in the log; 221 and 289 with a
    // chunk per 64 Ki pair rows and literal lengths besides. 263 and
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

/// While the caller holds a document, a load only appends: a side's pair
/// records and the literal log grow by segments allocated once at their
/// full size, and what still doubles (the URI, attribute and token interners) is
/// small. So no buffer larger than a segment is grown by copying before
/// `finish`, which runs once the documents are gone. Measured at 32 000 entities a side:
/// 736 KiB; 1.5 MiB (a side's pair column) when the pairs were one
/// doubling column a side and literals were interned as they were read.
#[test]
fn loading_moves_no_buffer_larger_than_a_chunk() {
    const SEGMENT: usize = 1 << 20;
    const N: usize = 32_000;
    let (left, right) = (document("l", N), document("r", N));
    let mut b = KbPairBuilder::new();
    start_counting();
    load_ntriples(&mut b, Side::Left, &left).expect("the document parses");
    load_ntriples(&mut b, Side::Right, &right).expect("the document parses");
    let moved = stop_counting().largest_realloc;
    assert!(moved <= SEGMENT, "a load grew a buffer of {moved} bytes by realloc, the bound is {SEGMENT}");
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

/// `document`'s lines in another order: five passes, one a predicate,
/// each visiting the entities in its own scrambled order. So every line
/// names another subject than the line before, and after the first pass
/// the step from one line's entity to the next is thousands either way.
fn scattered_document(prefix: &str, n: usize) -> String {
    const STRIDES: [usize; 5] = [1, 7_919, 6_007, 3_001, 4_999];
    let doc = document(prefix, n);
    let lines: Vec<&str> = doc.lines().collect();
    let (mut out, mut last) = (String::new(), usize::MAX);
    for (k, stride) in STRIDES.iter().enumerate() {
        for j in 0..n {
            let entity = (j * stride + k) % n;
            assert_ne!(entity, last, "a subject on two lines in a row");
            last = entity;
            out.push_str(lines[entity * 5 + k]);
            out.push('\n');
        }
    }
    out
}

/// What the builder holds in heap bytes a triple once both documents are
/// loaded, and its peak through `finish`.
fn held_and_peak(left: &str, right: &str, triples: usize) -> (f64, f64) {
    let mut b = KbPairBuilder::new();
    start_counting();
    load_ntriples(&mut b, Side::Left, left).expect("the document parses");
    load_ntriples(&mut b, Side::Right, right).expect("the document parses");
    let held = usage_so_far().live as f64 / triples as f64;
    let pair = b.finish();
    let peak = stop_counting().peak as f64 / triples as f64;
    assert_eq!(pair.kb(Side::Left).triple_count() + pair.kb(Side::Right).triple_count(), triples);
    (held, peak)
}

/// A document's literals are interned when the pair is finished, after the
/// caller has read its last document, and until then a pair added to a
/// side is one varint record of about 4 bytes and a literal its words'
/// token ids beside the token interner: so what the builder holds once
/// both sides are loaded, and its peak through `finish`, are bounded in
/// heap bytes per triple. Measured at 16 000 entities a side: 32.1 held and
/// 60.0 at the peak; 36.2 and 61.6 with each literal's normal form and a
/// NUL byte in the log; with pairs of 12 bytes each and a `u32` length a literal,
/// 46.1 held and 62.1. Documents whose lines each name another subject
/// than the line before are the records' worst realistic shape: at 48 000
/// entities a side they hold 27.8 and peak at 59.9 (27.3 and 62.9 with
/// normal forms in the log), the same lines grouped
/// by subject 23.1 (what a builder holds whatever the size weighs less a
/// triple in larger documents). Interning literals as they were read held 41.6 and
/// peaked at 60.5 (the heap counts a partly filled chunk's capacity, which
/// the resident set does not); 58.8 and 67.8 with 16-byte pairs and every
/// literal tokenized at first sight; tokenizing at first sight alone held
/// 52.2.
#[test]
fn building_the_pair_holds_a_bounded_number_of_heap_bytes_per_triple() {
    const HELD_BOUND: f64 = 40.0;
    const SCATTERED_HELD_BOUND: f64 = 48.0;
    const PEAK_BOUND: f64 = 64.0;
    const N: usize = 16_000;
    let (held, peak) = held_and_peak(&document("l", N), &document("r", N), 10 * N);
    assert!(held <= HELD_BOUND, "{held:.2} bytes a triple held once both sides are loaded, the bound is {HELD_BOUND}");
    assert!(peak <= PEAK_BOUND, "a peak of {peak:.2} bytes a triple through finish, the bound is {PEAK_BOUND}");

    // Large enough that a side's scattered records take two segments (the
    // grouped ones fit in one), so the bytes they add are counted.
    const SCATTERED_N: usize = 48_000;
    let (left, right) = (scattered_document("l", SCATTERED_N), scattered_document("r", SCATTERED_N));
    let (held, peak) = held_and_peak(&left, &right, 10 * SCATTERED_N);
    assert!(
        held <= SCATTERED_HELD_BOUND,
        "{held:.2} bytes a triple held once both scattered sides are loaded, the bound is {SCATTERED_HELD_BOUND}"
    );
    assert!(peak <= PEAK_BOUND, "a peak of {peak:.2} bytes a triple through finish, scattered, the bound is {PEAK_BOUND}");
}

/// `n` entities of one side in the shape of the benchmark's bbc documents:
/// four literals each, of three to five ASCII words drawn from a
/// vocabulary of 400 (five to ten characters, mixed case), and a link to the
/// next entity — so the literals' text outweighs their pairs.
fn worded_document(prefix: &str, n: usize) -> String {
    const STEMS: [&str; 8] = ["Alpha", "bravo", "Charlie", "delta", "ECHO", "foxtrot", "golf", "Hotel"];
    let mut rng = Rng::seed_from_u64(u64::from(prefix.as_bytes()[0]));
    let mut doc = String::new();
    for i in 0..n {
        for p in 0..4 {
            let words: Vec<String> = (0..rng.gen_range(3..6usize))
                .map(|_| {
                    let k = rng.gen_range(0..400usize);
                    format!("{}{k}", STEMS[k % STEMS.len()])
                })
                .collect();
            doc.push_str(&format!("<http://e/{prefix}{i}> <http://p/text{p}> \"{}\" .\n", words.join(" ")));
        }
        doc.push_str(&format!("<http://e/{prefix}{i}> <http://p/next> <http://e/{prefix}{}> .\n", (i + 1) % n));
    }
    doc
}

/// A literal is logged as its words' token ids, a byte or two a word, not
/// as its normal form's text: on documents whose literals are a few words
/// from a small vocabulary, the builder holds those ids and the vocabulary
/// once. Measured at 16 000 entities a side: 29.6 bytes a triple held once
/// both sides are loaded (most of it the unfilled part of the logs' 1 MiB
/// segments), 55.7 when each literal was logged as its normal form and a
/// NUL byte. (The peak through `finish` reads 73.6 there, 120.2 with the
/// normal forms: every literal is new, and `finish` no longer spells them.)
#[test]
fn a_worded_document_is_held_as_token_ids() {
    const WORDED_HELD_BOUND: f64 = 32.0;
    const N: usize = 16_000;
    let (left, right) = (worded_document("l", N), worded_document("r", N));
    let (held, _) = held_and_peak(&left, &right, 10 * N);
    assert!(held <= WORDED_HELD_BOUND, "{held:.2} bytes a triple held once both worded sides are loaded, the bound is {WORDED_HELD_BOUND}");
}
