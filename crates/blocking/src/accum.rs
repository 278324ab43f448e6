//! Epoch-stamped dense sparse-accumulator for the graph kernel's weight
//! aggregation passes.
//!
//! The β and γ passes both need, per source entity, a map
//! `candidate id → Σ weight` over a key universe that is known up front
//! (the opposite KB's entity count) but touched only sparsely. A hash map
//! pays hashing + allocation per entity; a plain dense array pays an O(n)
//! clear per entity. The classic sparse-accumulator trick pays neither:
//! alongside the dense `f64` scores array sits a `u32` stamp array, and a
//! slot is *live* only while its stamp equals the current epoch. Advancing
//! the epoch (one integer increment) invalidates every slot at once, so
//! "clearing" is O(1) and stale scores are simply overwritten on first
//! touch. A touched-list records the live keys in first-touch order for
//! iteration, keeping per-entity work proportional to the entity's actual
//! candidates.

/// A reusable `id → f64` accumulator over a fixed key universe `0..len`.
///
/// Usage per source entity: [`SparseAccumulator::next_epoch`], then any
/// number of [`SparseAccumulator::add`] calls, then read the live entries
/// via [`SparseAccumulator::entries`] (or transform them in place with
/// [`SparseAccumulator::apply`]).
#[derive(Debug)]
pub struct SparseAccumulator {
    scores: Vec<f64>,
    stamps: Vec<u32>,
    epoch: u32,
    touched: Vec<u32>,
}

impl SparseAccumulator {
    /// An accumulator over keys `0..len`. All slots start stale
    /// (`epoch` 0 is never current: the first [`Self::next_epoch`] moves
    /// to 1).
    pub fn new(len: usize) -> Self {
        Self { scores: vec![0.0; len], stamps: vec![0; len], epoch: 0, touched: Vec::new() }
    }

    /// Number of keys in the universe.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether the key universe is empty.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Resizes the key universe to `0..len` in place, reusing the existing
    /// allocation — the worker-scratch reuse path, where one accumulator
    /// serves many tasks whose universes may differ. Newly exposed slots
    /// start stale (stamp 0 is never the current epoch); call
    /// [`Self::next_epoch`] before the first `add` as usual.
    pub fn ensure_len(&mut self, len: usize) {
        if self.scores.len() != len {
            self.scores.resize(len, 0.0);
            self.stamps.resize(len, 0);
            self.touched.clear();
        }
    }

    /// Invalidates every slot in O(1) and clears the touched-list. Must be
    /// called before the first `add` of each source entity.
    pub fn next_epoch(&mut self) {
        self.touched.clear();
        if self.epoch == u32::MAX {
            // One O(n) reset per 2^32 - 1 epochs: stamp 0 is again safely
            // "stale" once every stored stamp is 0 and the epoch restarts
            // at 1.
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Adds `w` to the slot of `key`. First touch in the current epoch
    /// overwrites the stale score, so no clearing is ever needed.
    #[inline]
    pub fn add(&mut self, key: u32, w: f64) {
        let i = key as usize;
        if self.stamps[i] == self.epoch {
            self.scores[i] += w;
        } else {
            self.stamps[i] = self.epoch;
            self.scores[i] = w;
            self.touched.push(key);
        }
    }

    /// The keys touched in the current epoch, in first-touch order.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// The accumulated score of a key touched in the current epoch.
    /// Reading an untouched key returns its stale score — only call this
    /// for keys from [`Self::touched`].
    #[inline]
    pub fn score(&self, key: u32) -> f64 {
        self.scores[key as usize]
    }

    /// The live entries `(key, score)`, in first-touch order.
    pub fn entries(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.touched.iter().map(|&key| (key, self.score(key)))
    }

    /// Rewrites every live entry as `f(key, score)` — the per-entry
    /// transform step of the ECBS/JS weighting schemes.
    pub fn apply(&mut self, mut f: impl FnMut(u32, f64) -> f64) {
        for &key in &self.touched {
            let i = key as usize;
            self.scores[i] = f(key, self.scores[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_within_an_epoch() {
        let mut acc = SparseAccumulator::new(8);
        acc.next_epoch();
        acc.add(3, 1.5);
        acc.add(5, 2.0);
        acc.add(3, 0.25);
        assert_eq!(acc.touched(), &[3, 5]);
        assert_eq!(acc.score(3), 1.75);
        assert_eq!(acc.score(5), 2.0);
    }

    #[test]
    fn next_epoch_invalidates_without_clearing() {
        let mut acc = SparseAccumulator::new(4);
        acc.next_epoch();
        acc.add(1, 10.0);
        acc.next_epoch();
        assert!(acc.touched().is_empty());
        // First touch after the epoch bump overwrites the stale 10.0.
        acc.add(1, 2.0);
        assert_eq!(acc.touched(), &[1]);
        assert_eq!(acc.score(1), 2.0);
    }

    #[test]
    fn apply_transforms_live_entries_only() {
        let mut acc = SparseAccumulator::new(4);
        acc.next_epoch();
        acc.add(0, 2.0);
        acc.add(2, 3.0);
        acc.apply(|key, w| w * (key as f64 + 1.0));
        assert_eq!(acc.score(0), 2.0);
        assert_eq!(acc.score(2), 9.0);
    }

    #[test]
    fn epoch_wrap_resets_stamps() {
        let mut acc = SparseAccumulator::new(2);
        acc.epoch = u32::MAX - 1;
        acc.next_epoch(); // → u32::MAX
        acc.add(0, 1.0);
        assert_eq!(acc.score(0), 1.0);
        acc.next_epoch(); // wrap: stamps reset, epoch restarts at 1
        assert!(acc.touched().is_empty());
        acc.add(0, 4.0);
        assert_eq!(acc.touched(), &[0]);
        assert_eq!(acc.score(0), 4.0);
    }

    #[test]
    fn ensure_len_resizes_with_stale_slots() {
        let mut acc = SparseAccumulator::new(2);
        acc.next_epoch();
        acc.add(1, 5.0);
        // Grow: the new slots must be stale, the allocation reused.
        acc.ensure_len(6);
        acc.next_epoch();
        acc.add(5, 1.0);
        assert_eq!(acc.touched(), &[5]);
        assert_eq!(acc.score(5), 1.0);
        // Shrink then regrow: previously-live high slots must come back
        // stale, not with their old scores.
        acc.ensure_len(2);
        acc.ensure_len(6);
        acc.next_epoch();
        assert!(acc.touched().is_empty());
        acc.add(5, 3.0);
        assert_eq!(acc.score(5), 3.0);
    }

    #[test]
    fn zero_length_universe_is_harmless() {
        let mut acc = SparseAccumulator::new(0);
        assert!(acc.is_empty());
        acc.next_epoch();
        assert!(acc.touched().is_empty());
    }
}
