//! Sorted-posting-list intersection kernels for the CSR block↔entity
//! joins.
//!
//! The graph kernel keeps every adjacency as an ascending `u32` row
//! ([`minoaner_kb::Rows`]): an entity's blocks, a block's members, a node's
//! reverse candidates. Joining two such rows is a sorted-set intersection,
//! and this module provides one tuned kernel for it with two regimes:
//!
//! * **Galloping** when the rows are badly skewed (one side ≥
//!   [`GALLOP_RATIO`]× longer): walk the short side and exponential-search
//!   the long side from a moving cursor — `O(s · log(l/s))` instead of
//!   `O(s + l)`.
//! * **Branch-reduced 4-wide merge** otherwise: the merge loop advances
//!   four elements at a time while the windows `a[i..i+4]` / `b[j..j+4]`
//!   don't overlap (two comparisons skip four elements — the CPU analogue
//!   of avoiding per-lane branch divergence), and resolves overlapping
//!   windows with a branchless scalar step.
//!
//! All visitors emit common values in ascending order — callers fold f64
//! weights over the emission order, so it is load-bearing for the
//! bit-identical-across-workers guarantee (the test-only
//! `GraphIndex::pair_weight` reproduces the β scatter pass's per-candidate
//! addition order exactly). Inputs must be ascending and duplicate-free.

/// Length ratio beyond which the galloping regime beats the merge.
const GALLOP_RATIO: usize = 16;

/// Index of the first element of `h` that is `>= target`, found by
/// exponential search from the front — cheap when the answer is near the
/// cursor, which is the common case for intersection probes.
#[inline]
fn lower_bound(h: &[u32], target: u32) -> usize {
    let mut bound = 1usize;
    while bound < h.len() && h[bound - 1] < target {
        bound <<= 1;
    }
    let lo = bound / 2;
    let hi = bound.min(h.len());
    lo + h[lo..hi].partition_point(|&v| v < target)
}

/// Galloping intersection: `small` drives, `large` is probed with a
/// moving-cursor exponential search.
fn intersect_gallop(small: &[u32], large: &[u32], emit: &mut impl FnMut(u32)) {
    let mut rest = large;
    for &x in small {
        let pos = lower_bound(rest, x);
        rest = &rest[pos..];
        match rest.first() {
            Some(&y) if y == x => {
                emit(x);
                rest = &rest[1..];
            }
            Some(_) => {}
            None => return,
        }
    }
}

/// 4-wide merge intersection for comparably-sized rows.
fn intersect_merge(a: &[u32], b: &[u32], emit: &mut impl FnMut(u32)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i + 4 <= a.len() && j + 4 <= b.len() {
        // Disjoint windows: two comparisons skip four elements.
        if a[i + 3] < b[j] {
            i += 4;
            continue;
        }
        if b[j + 3] < a[i] {
            j += 4;
            continue;
        }
        // Overlapping windows: emit the common lanes with a branchless
        // merge confined to the two windows, then advance past the window
        // with the smaller maximum (its values can no longer match
        // anything beyond the other window — the windows are ascending,
        // so everything past the other window is larger).
        let (a4, b4) = (&a[i..i + 4], &b[j..j + 4]);
        let (mut p, mut q) = (0usize, 0usize);
        while p < 4 && q < 4 {
            let (x, y) = (a4[p], b4[q]);
            if x == y {
                emit(x);
                p += 1;
                q += 1;
            } else {
                p += usize::from(x < y);
                q += usize::from(y < x);
            }
        }
        let (a_max, b_max) = (a[i + 3], b[j + 3]);
        i += 4 * usize::from(a_max <= b_max);
        j += 4 * usize::from(b_max <= a_max);
    }
    // Scalar tail.
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        if x == y {
            emit(x);
            i += 1;
            j += 1;
        } else {
            i += usize::from(x < y);
            j += usize::from(y < x);
        }
    }
}

/// Intersects two ascending, duplicate-free `u32` slices, invoking `emit`
/// once per common value in ascending order.
pub fn intersect_visit(a: &[u32], b: &[u32], mut emit: impl FnMut(u32)) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if large.len() / small.len() >= GALLOP_RATIO {
        intersect_gallop(small, large, &mut emit);
    } else {
        intersect_merge(a, b, &mut emit);
    }
}

/// The intersection of two ascending, duplicate-free slices, collected
/// into `out` (cleared first) — the allocation-free form for callers with
/// a scratch buffer.
pub fn intersect_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    intersect_visit(a, b, |v| out.push(v));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        intersect_into(a, b, &mut out);
        out
    }

    /// Reference semantics: set intersection, ascending.
    fn reference(a: &[u32], b: &[u32]) -> Vec<u32> {
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        a.iter().copied().filter(|v| sb.contains(v)).collect()
    }

    /// A deterministic ascending duplicate-free sequence derived from a
    /// seed (no entropy — R3-clean).
    fn seq(seed: u64, len: usize, stride_mod: u32) -> Vec<u32> {
        let mut v = Vec::with_capacity(len);
        let mut x = seed;
        let mut cur = 0u32;
        for _ in 0..len {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cur += 1 + ((x >> 33) as u32) % stride_mod;
            v.push(cur);
        }
        v
    }

    #[test]
    fn merge_path_matches_reference() {
        for (la, lb) in [(0, 5), (5, 0), (1, 1), (3, 4), (7, 7), (64, 64), (65, 63), (100, 80)] {
            for seed in 0..6u64 {
                let a = seq(seed, la, 3);
                let b = seq(seed.wrapping_add(100), lb, 3);
                assert_eq!(intersect(&a, &b), reference(&a, &b), "la={la} lb={lb} seed={seed}");
            }
        }
    }

    #[test]
    fn gallop_path_matches_reference() {
        for seed in 0..6u64 {
            let small = seq(seed, 5, 50);
            let large = seq(seed.wrapping_add(7), 500, 2);
            assert_eq!(intersect(&small, &large), reference(&small, &large), "seed={seed}");
            // Symmetric: the kernel swaps sides internally.
            assert_eq!(intersect(&large, &small), reference(&large, &small), "seed={seed}");
        }
    }

    #[test]
    fn identical_and_disjoint_inputs() {
        let a = seq(1, 40, 4);
        assert_eq!(intersect(&a, &a), a);
        let lo: Vec<u32> = (0..32).collect();
        let hi: Vec<u32> = (100..132).collect();
        assert!(intersect(&lo, &hi).is_empty());
    }

    #[test]
    fn emission_order_is_ascending() {
        let a = seq(3, 200, 2);
        let b = seq(9, 180, 2);
        let mut last = None;
        intersect_visit(&a, &b, |v| {
            if let Some(prev) = last {
                assert!(v > prev, "emission went backwards: {prev} then {v}");
            }
            last = Some(v);
        });
    }

    #[test]
    fn intersect_into_reuses_the_buffer() {
        let mut buf = vec![99, 98, 97];
        let a: Vec<u32> = (0..10).collect();
        let b: Vec<u32> = (5..15).collect();
        intersect_into(&a, &b, &mut buf);
        assert_eq!(buf, (5..10).collect::<Vec<u32>>());
    }

    #[test]
    fn window_boundaries_are_exact() {
        // Common values placed right at 4-wide window edges.
        let a: Vec<u32> = vec![0, 1, 2, 3, 4, 5, 6, 7, 8];
        let b: Vec<u32> = vec![3, 4, 7, 8, 20, 21, 22, 23];
        assert_eq!(intersect(&a, &b), vec![3, 4, 7, 8]);
    }
}
