//! Set-up draws and writes without a heap string per token, value or line:
//! `generate` makes a fraction of an allocation per generated triple (the
//! builder's tables and the world's per-entity vectors, not one `String`
//! per token, value or URI), and `write_ntriples` makes a few dozen for
//! both documents together — the doublings of the output string.
//!
//! Its own test binary because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minoaner_datagen::{generate, profiles, DatasetProfile};
use minoaner_kb::parser::write_ntriples;
use minoaner_kb::Side;

thread_local! {
    /// The calling thread's `alloc` and `realloc` calls since counting was
    /// switched on; `None` while it is off. No destructor and no lazy
    /// initialisation, so the allocator itself may touch it.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The system allocator, counting the calling thread's `alloc` and
/// `realloc` calls while that thread has counting switched on.
struct Counting;

fn record() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local `Cell` that neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// How many allocations `f` makes on this thread.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let result = f();
    (result, ALLOCATIONS.with(|n| n.replace(None)).expect("counting was on"))
}

/// The three profiles and scales the bounds hold at: the verbose wide
/// schema, the large linked one and the small dense one.
fn cases() -> [(&'static str, DatasetProfile); 3] {
    [
        ("bbc × 0.1", profiles::bbc_dbpedia().scaled(0.1)),
        ("yago × 0.5", profiles::yago_imdb().scaled(0.5)),
        ("restaurant × 1", profiles::restaurant()),
    ]
}

#[test]
fn generate_allocates_a_fraction_of_a_call_per_triple() {
    for (name, profile) in cases() {
        let (d, allocations) = allocations_of(|| generate(&profile));
        let triples = d.pair.kb(Side::Left).triple_count() + d.pair.kb(Side::Right).triple_count();
        let per_triple = allocations as f64 / triples as f64;
        assert!(
            per_triple <= 0.5,
            "{name}: generate made {allocations} allocations for {triples} triples ({per_triple:.2} a triple)"
        );
    }
}

#[test]
fn write_ntriples_allocates_only_its_output() {
    for (name, profile) in cases() {
        let d = generate(&profile);
        let (docs, allocations) =
            allocations_of(|| [write_ntriples(&d.pair, Side::Left), write_ntriples(&d.pair, Side::Right)]);
        assert!(docs.iter().all(|doc| !doc.is_empty()));
        assert!(allocations <= 64, "{name}: write_ntriples made {allocations} allocations for both documents");
    }
}
