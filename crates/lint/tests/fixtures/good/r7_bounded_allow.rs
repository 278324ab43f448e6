//! R7 fixture: audited panic-lint allows, each on the smallest item or
//! statement that shares one bound, each with its `// bound:` comment.
//! Every allow is still one R7 violation: lint-allow.toml counts them.

// bound: `key` < `slots.len()`: the table is sized to the key universe
// before any key is handed out.
#[allow(clippy::indexing_slicing)]
pub fn slot(slots: &[u32], key: usize) -> u32 {
    slots[key]
}

pub fn first(v: &[u32]) -> u32 {
    // bound: the guard returns on an empty slice.
    if v.is_empty() {
        return 0;
    }
    // bound: `v` is non-empty (guard above).
    #[allow(clippy::indexing_slicing)]
    let x = v[0];
    x
}

#[allow(clippy::too_many_arguments)]
pub fn not_a_panic_lint() {}
