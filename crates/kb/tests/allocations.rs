//! The loader's tables are columns: loading a document and finishing the
//! pair costs the doublings of those columns and of the interners, not an
//! allocation (or more) per line, literal or entity.
//!
//! Its own test binary because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minoaner_kb::parser::load_ntriples;
use minoaner_kb::{KbPair, KbPairBuilder, Side};

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
