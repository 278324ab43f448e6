//! R7 fixture: audited panic-lint allows that do not state their bound.

// The slot table is sized to the key universe — a comment, but the
// marker is missing from the start of every line of it.
#[allow(clippy::indexing_slicing)]
pub fn slot(slots: &[u32], key: usize) -> u32 {
    slots[key]
}

pub fn first(v: &[u32]) -> u32 {
    #[allow(clippy::indexing_slicing, clippy::panic)]
    let x = if v.is_empty() { panic!("empty") } else { v[0] };
    x
}
