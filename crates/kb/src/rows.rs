//! The workspace's one row table: rows of `T` under dense keys `0..n`.
//!
//! Every structure between the KB and rule R1 has this shape — an entity's
//! attributes, a literal's tokens, a block's members, an entity's blocks, a
//! node's candidates — and holds it the way an `.mkb` CSR section does
//! ([`crate::disk`]): rows back to back in one data column, plus `n + 1`
//! cumulative `u32` offsets starting at 0. One heap block per column,
//! whatever the row count — or none, when the columns are ranges of a
//! mapped `.mkb` file (`disk::Stored`).
//!
//! A table may also be several such parts of equal row count, in key order:
//! what the tasks of a stage sharded by key range returned
//! ([`Rows::parted`]), kept as they are instead of copied into one. Row `k`
//! is then in part `k / chunk`.
//!
//! Rows of ascending ids are read two at a time by [`merge_join`], the one
//! merge of two sorted lists in the workspace.

use std::fmt;
use std::ops::Range;

use minoaner_det::codec::Spillable;

use crate::disk::Column;

/// Rows of `T` under dense keys: row `k` is `data[offsets[k]..offsets[k +
/// 1]]` of the part that holds it.
///
/// The offsets always start at 0, ascend, and end at their data column's
/// length; [`Self::from_parts`] is the only way in for columns built
/// elsewhere — a decoded checkpoint part — and [`crate::disk`] the only
/// way for mapped ones. Tables compare, encode and read row by row, so a
/// table of many parts is equal to, and encodes as, the one-part table of
/// the same rows.
#[derive(Clone)]
pub struct Rows<T: 'static> {
    /// Rows `0..chunk`, or every row of a one-part table.
    head: Part<T>,
    /// The further parts: the `p`-th holds rows `(p + 1) * chunk ..`. The
    /// last part of the table takes any rows added after it was joined, so
    /// it alone may hold more than `chunk`.
    tail: Vec<Part<T>>,
    /// Rows a part holds: the head's count, `usize::MAX` for one part.
    chunk: usize,
}

/// Consecutive rows as one offsets column, leading 0 included, and one data
/// column.
#[derive(Clone)]
struct Part<T: 'static> {
    offsets: Column<u32>,
    data: Column<T>,
}

impl<T> Part<T> {
    fn with_capacity(rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self { offsets: Column::owned(offsets), data: Column::owned(Vec::with_capacity(items)) }
    }

    /// Rows in this part.
    fn width(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The part's row `local`.
    ///
    /// # Panics
    /// Panics if `local` is not a row of the part.
    #[inline]
    #[expect(clippy::indexing_slicing, reason = "bound: `local` is a row of the part (`Rows::row` \
              locates keys below the table's length; a key past it is the caller's bug, its `# \
              Panics`), and the offsets ascend to `data.len()`: `count_and_scatter` builds them so \
              and `from_columns` refuses any others.")]
    fn items_at(&self, local: usize) -> &[T] {
        &self.data[self.offsets[local] as usize..self.offsets[local + 1] as usize]
    }
}

impl<T> Default for Rows<T> {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl<T> Rows<T> {
    /// No rows yet, and room for `rows` rows of `items` items in all:
    /// [`Self::push`] / [`Self::end_row`] or [`Self::push_row`] add them in
    /// key order. A bound on `items` a task knows up front is worth
    /// passing: a column that never regrows leaves no holes in the heap,
    /// and pages it never touches cost nothing.
    pub fn with_capacity(rows: usize, items: usize) -> Self {
        Self::one_part(Part::with_capacity(rows, items))
    }

    fn one_part(head: Part<T>) -> Self {
        Self { head, tail: Vec::new(), chunk: usize::MAX }
    }

    /// One table over the per-task parts of a stage sharded by key range,
    /// in part order: the parts themselves, joined without a copy. Part
    /// `p` holds rows `p * chunk ..`, where `chunk` is the first part's row
    /// count; parts without rows are dropped.
    ///
    /// # Panics
    /// Panics if a part other than the last holds another number of rows,
    /// and past `u32::MAX` items in all parts together.
    pub fn parted(tables: Vec<Self>) -> Self {
        let mut parts = tables.into_iter().flat_map(Self::into_parts).filter(|part| part.width() > 0);
        let Some(head) = parts.next() else {
            return Self::default();
        };
        let tail: Vec<Part<T>> = parts.collect();
        let chunk = if tail.is_empty() { usize::MAX } else { head.width() };
        let regular = tail.split_last().map_or(true, |(_, middle)| middle.iter().all(|part| part.width() == chunk));
        assert!(regular, "the parts of a row table hold equally many rows, but for the last");
        let joined = Self { head, tail, chunk };
        checked_len(joined.n_items());
        joined
    }

    fn into_parts(self) -> impl Iterator<Item = Part<T>> {
        std::iter::once(self.head).chain(self.tail)
    }

    fn parts(&self) -> impl Iterator<Item = &Part<T>> + Clone {
        std::iter::once(&self.head).chain(&self.tail)
    }

    /// Which part holds row `key` — 0 for the head, `p` for the tail's
    /// `p - 1`-th — and the row's place in it. A row past the end is placed
    /// past the end of the last part.
    #[inline]
    fn locate(&self, key: usize) -> (usize, usize) {
        if key < self.chunk {
            return (0, key);
        }
        let p = (key / self.chunk).min(self.tail.len());
        (p, key - p * self.chunk)
    }

    /// Part `p`, as [`Self::locate`] numbers them.
    #[inline]
    fn nth_part(&self, p: usize) -> &Part<T> {
        p.checked_sub(1).and_then(|i| self.tail.get(i)).unwrap_or(&self.head)
    }

    /// Reassembles a table from stored columns — a decoded checkpoint part.
    /// The offsets must start at 0, ascend and end at `data`'s length.
    pub fn from_parts(offsets: Vec<u32>, data: Vec<T>) -> Result<Self, String> {
        Self::from_columns(Column::owned(offsets), Column::owned(data))
    }

    /// [`Self::from_parts`] for columns that may lie in a mapping.
    pub(crate) fn from_columns(offsets: Column<u32>, data: Column<T>) -> Result<Self, String> {
        if offsets.first() != Some(&0) {
            return Err("the first row does not start at entry 0".to_owned());
        }
        if let Some(i) = offsets.iter().zip(offsets.iter().skip(1)).position(|(start, end)| start > end) {
            return Err(format!("row {i} ends before it starts"));
        }
        if offsets.last().map(|&end| end as usize) != Some(data.len()) {
            return Err("the last row does not end at the column's last entry".to_owned());
        }
        Ok(Self::one_part(Part { offsets, data }))
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        match self.tail.last() {
            None => self.head.width(),
            Some(last) => self.chunk * self.tail.len() + last.width(),
        }
    }

    /// Number of items in all rows together.
    pub fn n_items(&self) -> usize {
        self.parts().map(|part| part.data.len()).sum()
    }

    /// The items under `key`, in the order they were added.
    ///
    /// # Panics
    /// Panics if `key` is out of range.
    #[inline]
    pub fn row(&self, key: usize) -> &[T] {
        let (p, local) = self.locate(key);
        self.nth_part(p).items_at(local)
    }

    /// Length of row `key`.
    ///
    /// # Panics
    /// Panics if `key` is out of range.
    #[inline]
    pub fn row_len(&self, key: usize) -> usize {
        self.row(key).len()
    }

    /// Where row `key`'s items lie in [`Self::data`] order — for a column
    /// kept beside the table, item for item.
    ///
    /// # Panics
    /// Panics if `key` is out of range.
    #[expect(clippy::panic, reason = "bound: documented: a `key` past the table is the caller's \
              bug (`# Panics`); `locate` maps every key below the table's length to a row of a \
              part.")]
    pub(crate) fn row_span(&self, key: usize) -> Range<usize> {
        let (p, local) = self.locate(key);
        let (part, before) = (self.nth_part(p), self.parts().take(p).map(|part| part.data.len()).sum::<usize>());
        let bound = |local: usize| part.offsets.get(local).map(|&offset| before + offset as usize);
        match (bound(local), bound(local + 1)) {
            (Some(start), Some(end)) => start..end,
            _ => panic!("row {key} is out of range"),
        }
    }

    /// Every row, in key order: part by part, so a parted table is walked
    /// without locating each row.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + Clone {
        RowIter { offsets: &self.head.offsets, data: &self.head.data, rest: self.tail.iter(), left: self.n_rows() }
    }

    /// The `n_rows + 1` cumulative offsets, leading 0 included — the
    /// offsets column of an `.mkb` CSR section.
    pub fn offsets(&self) -> impl Iterator<Item = u32> + '_ {
        let mut base = 0u32;
        self.parts().enumerate().flat_map(move |(p, part)| {
            let start = base;
            // In range: `parted` checked the total.
            base = base.wrapping_add(part.data.len() as u32);
            part.offsets.iter().skip(usize::from(p > 0)).map(move |&offset| start + offset)
        })
    }

    /// Every item, row after row.
    pub fn data(&self) -> impl Iterator<Item = &T> + Clone {
        self.parts().flat_map(|part| part.data.iter())
    }

    /// Each part's offsets and data columns, in key order — the rows as
    /// flat slices, for a walk that needs no row lookup.
    pub(crate) fn column_parts(&self) -> impl Iterator<Item = (&[u32], &[T])> {
        self.parts().map(|part| (&*part.offsets, &*part.data))
    }
}

impl<T: Clone> Rows<T> {
    /// The part rows are added to.
    fn last_part(&mut self) -> &mut Part<T> {
        match self.tail.last_mut() {
            Some(last) => last,
            None => &mut self.head,
        }
    }

    /// Adds `item` to the row being built.
    #[inline]
    pub fn push(&mut self, item: T) {
        self.last_part().data.to_mut().push(item);
    }

    /// Closes the row being built: everything pushed since the last call.
    ///
    /// # Panics
    /// Panics past `u32::MAX` items in all rows together, the width of the
    /// offset column in memory and in `.mkb`.
    pub fn end_row(&mut self) {
        let before: usize = match self.tail.split_last() {
            None => 0,
            Some((_, middle)) => self.head.data.len() + middle.iter().map(|part| part.data.len()).sum::<usize>(),
        };
        let part = self.last_part();
        checked_len(before + part.data.len());
        let end = part.data.len() as u32;
        part.offsets.to_mut().push(end);
    }

    /// Adds `items` as the next row.
    pub fn push_row(&mut self, items: impl IntoIterator<Item = T>) {
        self.last_part().data.to_mut().extend(items);
        self.end_row();
    }

    /// The same rows with every item replaced by `f` of it; `f` sees the
    /// items in key order.
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> Rows<U> {
        let chunk = self.chunk;
        let mut parts = self.into_parts().map(|part| Part {
            offsets: part.offsets,
            data: Column::owned(part.data.into_owned().into_iter().map(&mut f).collect()),
        });
        match parts.next() {
            Some(head) => Rows { head, tail: parts.collect(), chunk },
            None => Rows::default(),
        }
    }
}

impl<T: Copy> Rows<T> {
    /// Keeps the rows `keep` accepts (it is asked once per row, in key
    /// order) and renumbers them densely: on a one-part table in place, at
    /// no allocation, moving each kept item at most once. What the dropped
    /// rows held goes back to the allocator.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(usize) -> bool) {
        if !self.tail.is_empty() {
            *self = self.iter().map(|row| row.iter().copied()).collect();
        }
        let Part { offsets, data } = &mut self.head;
        let (offsets, data) = (offsets.to_mut(), data.to_mut());
        let (mut rows, mut items, mut start) = (0usize, 0usize, 0usize);
        for row in 0..offsets.len().saturating_sub(1) {
            // Read before the slot can be overwritten: `rows <= row` here.
            let end = offsets.get(row + 1).map_or(start, |&end| end as usize);
            if keep(row) {
                data.copy_within(start..end, items);
                items += end - start;
                rows += 1;
                if let Some(slot) = offsets.get_mut(rows) {
                    // Never more than the `u32` it replaces.
                    *slot = items as u32;
                }
            }
            start = end;
        }
        data.truncate(items);
        offsets.truncate(rows + 1);
        data.shrink_to_fit();
        offsets.shrink_to_fit();
    }
}

impl<T: Copy + Default> Rows<T> {
    /// Regroups `items` (walked twice: count, then scatter) by their key,
    /// which must be below `n_keys` — a stable counting sort: O(items), no
    /// comparisons, and within a row the items keep the order they were
    /// produced in. It stands in for "sort by key" wherever the producer
    /// already emits each key's items in the wanted order.
    ///
    /// # Panics
    /// Panics on a key that is not below `n_keys`, and past `u32::MAX`
    /// items.
    pub fn build(n_keys: usize, items: impl Iterator<Item = (usize, T)> + Clone) -> Self {
        assert!(n_keys < usize::MAX - 1, "row table overflow: key space");
        let mut part = [(vec![0u32; n_keys + 2], Vec::new())];
        Self::count_and_scatter(&mut part, |key| (0, key), items);
        let [(offsets, data)] = part;
        Self::one_part(Part { offsets: Column::owned(offsets), data: Column::owned(data) })
    }

    /// [`Self::build`] as one exactly-sized table per `chunk` keys, table
    /// `p` holding keys `p * chunk ..` from 0 — for a stage whose task `p`
    /// reads only those and frees them when done. [`Self::parted`] of the
    /// tables is `build`'s table. Panics as `build` does, and on `chunk` 0.
    pub fn build_chunked(n_keys: usize, chunk: usize, items: impl Iterator<Item = (usize, T)> + Clone) -> Vec<Self> {
        assert!(chunk > 0, "row table chunks hold at least one key");
        let mut parts: Vec<(Vec<u32>, Vec<T>)> =
            (0..n_keys).step_by(chunk).map(|lo| (vec![0u32; chunk.min(n_keys - lo) + 2], Vec::new())).collect();
        Self::count_and_scatter(&mut parts, |key| (key / chunk, key % chunk), items);
        let table = |(offsets, data)| Self::one_part(Part { offsets: Column::owned(offsets), data: Column::owned(data) });
        parts.into_iter().map(table).collect()
    }

    /// The two walks of [`Self::build`] and [`Self::build_chunked`]: `locate`
    /// maps a key to its part and its row there, and each part comes in as
    /// zeroed offsets two slots longer than its rows and leaves as its
    /// offsets and its exactly-sized data column.
    #[expect(clippy::indexing_slicing, reason = "bound: `locate` maps a key below `n_keys` (the \
              callers' `# Panics` contract) to a part of `parts` and a row with `row + 2` below \
              its offsets' length; `data` is sized to the counts' sum and each row's cursor stays \
              below its row's end.")]
    fn count_and_scatter(
        parts: &mut [(Vec<u32>, Vec<T>)],
        locate: impl Fn(usize) -> (usize, usize),
        items: impl Iterator<Item = (usize, T)> + Clone,
    ) {
        // `for_each`, not `for`: producers are mostly `flat_map`s, which
        // run as the nested loops they stand for only when driven from inside.
        // One column serves as counts, then as the scatter's cursors, then as
        // the offsets: row `r` counts two slots up, so that after the prefix
        // sum slot `r + 1` is where row `r` starts — and, once the scatter
        // has advanced it past the row's last item, where row `r + 1` does.
        let mut total = 0usize;
        items.clone().for_each(|(key, _)| {
            let (p, row) = locate(key);
            let count = &mut parts[p].0[row + 2];
            // Cannot wrap: `total` is checked below before anything reads it.
            *count = count.wrapping_add(1);
            total += 1;
        });
        checked_len(total);
        for (offsets, data) in parts.iter_mut() {
            let mut sum = 0;
            for slot in offsets.iter_mut() {
                sum += *slot;
                *slot = sum;
            }
            *data = vec![T::default(); sum as usize];
        }
        items.for_each(|(key, item)| {
            let (p, row) = locate(key);
            let (offsets, data) = &mut parts[p];
            let next = &mut offsets[row + 1];
            data[*next as usize] = item;
            *next += 1;
        });
        for (offsets, _) in parts {
            offsets.pop();
        }
    }
}

/// Row by row: a table of many parts equals the one-part table of the same
/// rows.
impl<T: PartialEq> PartialEq for Rows<T> {
    fn eq(&self, other: &Self) -> bool {
        self.n_rows() == other.n_rows() && self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for Rows<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rows: fmt::DebugList<'_, '_> = f.debug_list();
        rows.entries(self.iter());
        rows.finish()
    }
}

/// The two columns as two `Vec`s — the bytes of the one-part table of the
/// same rows, however many parts hold them; decoding goes through
/// [`Rows::from_parts`].
impl<T: Spillable> Spillable for Rows<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        usize::encode(&(self.n_rows() + 1), out);
        out.reserve((self.n_rows() + 1) * std::mem::size_of::<u32>());
        for offset in self.offsets() {
            u32::encode(&offset, out);
        }
        usize::encode(&self.n_items(), out);
        out.reserve(self.n_items() * std::mem::size_of::<T>());
        for item in self.data() {
            T::encode(item, out);
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Self::from_parts(Vec::decode(buf, pos)?, Vec::decode(buf, pos)?).ok()
    }
}

/// Collects one row per item of the iterator.
impl<T: Clone, R: IntoIterator<Item = T>> FromIterator<R> for Rows<T> {
    fn from_iter<I: IntoIterator<Item = R>>(rows: I) -> Self {
        let mut all = Self::default();
        for row in rows {
            all.push_row(row);
        }
        all
    }
}

/// [`Rows::iter`]: the rows of one part's columns, then of the parts after
/// it — one step a row, as over a single pair of slices.
struct RowIter<'a, T: 'static> {
    /// The current part's offsets from the next row's start on.
    offsets: &'a [u32],
    data: &'a [T],
    rest: std::slice::Iter<'a, Part<T>>,
    /// Rows not yet yielded.
    left: usize,
}

impl<T> Clone for RowIter<'_, T> {
    fn clone(&self) -> Self {
        Self { offsets: self.offsets, data: self.data, rest: self.rest.clone(), left: self.left }
    }
}

impl<'a, T> Iterator for RowIter<'a, T> {
    type Item = &'a [T];

    #[inline]
    fn next(&mut self) -> Option<&'a [T]> {
        loop {
            if let [start, rest @ ..] = self.offsets {
                if let Some(&end) = rest.first() {
                    self.offsets = rest;
                    self.left = self.left.saturating_sub(1);
                    // In range by the type's invariant; `get` keeps the walk
                    // panic-free.
                    return Some(self.data.get(*start as usize..end as usize).unwrap_or(&[]));
                }
            }
            let part = self.rest.next()?;
            (self.offsets, self.data) = (&part.offsets, &part.data);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }

    /// A loop over each part's offset pairs — what `for_each` and the
    /// adapters built on `fold` run, with no part check per row.
    fn fold<B, F: FnMut(B, &'a [T]) -> B>(self, init: B, mut f: F) -> B {
        let parts = std::iter::once((self.offsets, self.data));
        let mut acc = init;
        for (offsets, data) in parts.chain(self.rest.map(|part| (&*part.offsets, &*part.data))) {
            for (&start, &end) in offsets.iter().zip(offsets.iter().skip(1)) {
                acc = f(acc, data.get(start as usize..end as usize).unwrap_or(&[]));
            }
        }
        acc
    }
}

impl<T> ExactSizeIterator for RowIter<'_, T> {}

/// One step of [`merge_join`]: an item only the left slice holds, one only
/// the right slice holds, or the two items of a key both hold — left first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merged<T> {
    Left(T),
    Right(T),
    Both(T, T),
}

/// The merge of two slices ascending by `key`, each key at most once a
/// side: every item in key order, as [`Merged`] steps, and once one side
/// runs out the rest of the other. What a row's ascending ids are for — a
/// weighted intersection (Def. 2.1's value similarity), a union (the γ
/// pass's β edges), a Jaccard sum over both — is one walk of it, and a sum
/// folded over it adds its terms in ascending key order.
pub fn merge_join<'a, T: Copy, K: Ord>(
    left: &'a [T],
    right: &'a [T],
    key: impl Fn(&T) -> K,
) -> MergeJoin<'a, T, impl Fn(&T) -> K> {
    MergeJoin { left, right, key }
}

/// The iterator of [`merge_join`].
pub struct MergeJoin<'a, T, F> {
    left: &'a [T],
    right: &'a [T],
    key: F,
}

impl<'a, T: Copy, K: Ord, F: Fn(&T) -> K + 'a> MergeJoin<'a, T, F> {
    /// Only the keys both sides hold, as `(left, right)` item pairs; stops
    /// where the shorter side ends.
    pub fn shared(mut self) -> impl Iterator<Item = (T, T)> + 'a {
        std::iter::from_fn(move || {
            while !self.left.is_empty() && !self.right.is_empty() {
                if let Some(Merged::Both(a, b)) = self.next() {
                    return Some((a, b));
                }
            }
            None
        })
    }
}

impl<T: Copy, K: Ord, F: Fn(&T) -> K> Iterator for MergeJoin<'_, T, F> {
    type Item = Merged<T>;

    #[inline]
    fn next(&mut self) -> Option<Merged<T>> {
        match (self.left.split_first(), self.right.split_first()) {
            (Some((&a, left_rest)), Some((&b, right_rest))) => match (self.key)(&a).cmp(&(self.key)(&b)) {
                std::cmp::Ordering::Less => {
                    self.left = left_rest;
                    Some(Merged::Left(a))
                }
                std::cmp::Ordering::Greater => {
                    self.right = right_rest;
                    Some(Merged::Right(b))
                }
                std::cmp::Ordering::Equal => {
                    (self.left, self.right) = (left_rest, right_rest);
                    Some(Merged::Both(a, b))
                }
            },
            (Some((&a, rest)), None) => {
                self.left = rest;
                Some(Merged::Left(a))
            }
            (None, Some((&b, rest))) => {
                self.right = rest;
                Some(Merged::Right(b))
            }
            (None, None) => None,
        }
    }
}

/// A column length as an offset.
///
/// # Panics
/// Panics past `u32::MAX`.
fn checked_len(len: usize) -> u32 {
    assert!(len <= u32::MAX as usize, "row table overflow: more than u32::MAX entries");
    len as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use minoaner_det::codec::encode_to_vec;
    use minoaner_det::rng::{for_each_seed, Rng};

    fn as_vecs<T: Clone>(rows: &Rows<T>) -> Vec<Vec<T>> {
        rows.iter().map(<[T]>::to_vec).collect()
    }

    #[test]
    fn build_is_a_stable_sort_by_key() {
        let mut rng = Rng::seed_from_u64(0x805);
        for case in 0..60 {
            // 0 keys = an empty table; few items leave keys empty.
            let n_keys = rng.gen_range(0..9usize);
            let n_items = if n_keys == 0 { 0 } else { rng.gen_range(0..40usize) };
            let items: Vec<(usize, u32)> =
                (0..n_items).map(|seq| (rng.gen_range(0..n_keys), seq as u32)).collect();
            let got = Rows::build(n_keys, items.iter().copied());

            let mut sorted = items.clone();
            sorted.sort_by_key(|&(key, _)| key); // stable
            let mut want: Vec<Vec<u32>> = vec![Vec::new(); n_keys];
            for (key, item) in sorted {
                want[key].push(item);
            }
            assert_eq!(as_vecs(&got), want, "case {case}");
            assert_eq!((got.n_rows(), got.n_items()), (n_keys, n_items));
            for (key, row) in want.iter().enumerate() {
                assert_eq!((got.row(key), got.row_len(key)), (&row[..], row.len()));
            }
            for chunk in 1..=n_keys + 1 {
                let parts = Rows::build_chunked(n_keys, chunk, items.iter().copied());
                assert_eq!(parts.len(), n_keys.div_ceil(chunk), "case {case}, chunk {chunk}");
                assert_eq!(Rows::parted(parts), got, "case {case}, chunk {chunk}");
            }
            let columns = (Rows::offsets(&got).collect(), got.data().copied().collect());
            assert_eq!(Rows::from_parts(columns.0, columns.1), Ok(got));
        }
    }

    /// The one-part table of `rows`, built by pushing — what a parted
    /// table must be equal to in every way.
    fn one_table(rows: &[Vec<u32>]) -> Rows<u32> {
        rows.iter().cloned().collect()
    }

    /// `rows` cut into parts of `chunk` rows (the last one shorter), with
    /// `empty` zero-row parts thrown in between.
    fn cut(rows: &[Vec<u32>], chunk: usize, rng: &mut Rng) -> Vec<Rows<u32>> {
        let mut parts = Vec::new();
        for piece in rows.chunks(chunk) {
            if rng.gen_range(0..4usize) == 0 {
                parts.push(Rows::default());
            }
            parts.push(one_table(piece));
        }
        parts
    }

    #[test]
    fn a_parted_table_reads_encodes_and_compares_as_one_table() {
        for_each_seed(200, |rng| {
            // Zero rows, rows without items and parts without items all occur.
            let n_rows = rng.gen_range(0..30usize);
            let rows: Vec<Vec<u32>> = (0..n_rows)
                .map(|_| {
                    let len = if rng.gen_range(0..3usize) == 0 { 0 } else { rng.gen_range(0..6usize) };
                    (0..len).map(|_| rng.gen_range(0..1000usize) as u32).collect()
                })
                .collect();
            let chunk = 1 + rng.gen_range(0..n_rows.max(1) + 2);
            let whole = one_table(&rows);
            let parted = Rows::parted(cut(&rows, chunk, rng));

            assert_eq!((parted.n_rows(), parted.n_items()), (whole.n_rows(), whole.n_items()));
            for key in 0..n_rows {
                assert_eq!((parted.row(key), parted.row_len(key)), (whole.row(key), whole.row_len(key)), "row {key}");
                assert_eq!(parted.row_span(key), whole.row_span(key), "row {key}");
            }
            assert!(parted.iter().eq(whole.iter()));
            assert_eq!(parted.iter().len(), n_rows);
            assert!(parted.data().eq(whole.data()));
            assert!(parted.offsets().eq(whole.offsets()));
            assert_eq!(encode_to_vec(&parted), encode_to_vec(&whole), "the Spillable bytes");
            assert_eq!(parted, whole);
            assert_eq!(format!("{parted:?}"), format!("{whole:?}"));

            // What is done to the parted table is done to the one table.
            let (mut parted, mut whole) = (parted, whole);
            parted.push_row([7, 8]);
            whole.push_row([7, 8]);
            assert_eq!(parted, whole, "a row added to the last part");
            assert_eq!(parted.row(n_rows), &[7, 8]);
            let mapped = (parted.clone().map(u64::from), whole.clone().map(u64::from));
            assert_eq!(mapped.0, mapped.1);
            let keep = |row: usize| row % 3 != 1;
            parted.retain_rows(keep);
            whole.retain_rows(keep);
            assert_eq!(parted, whole, "retain_rows");
        });
    }

    #[test]
    fn parted_refuses_parts_of_uneven_width() {
        let rows: Vec<Vec<u32>> = (0..5).map(|i| vec![i]).collect();
        let parts = vec![one_table(&rows[..2]), one_table(&rows[2..3]), one_table(&rows[3..])];
        assert!(std::panic::catch_unwind(|| Rows::parted(parts)).is_err());
        assert_eq!(Rows::<u32>::parted(Vec::new()), Rows::default());
        assert_eq!(Rows::parted(vec![Rows::default(), one_table(&rows)]), one_table(&rows));
    }

    #[test]
    fn from_parts_refuses_columns_that_are_not_a_table() {
        let refuse = |offsets: &[u32], len: usize| Rows::from_parts(offsets.to_vec(), vec![0u8; len]).unwrap_err();
        assert!(refuse(&[], 0).contains("start at entry 0"), "no offsets at all");
        assert!(refuse(&[2, 2, 3], 3).contains("start at entry 0"), "non-zero first offset");
        assert!(refuse(&[0, 3, 2, 3], 3).contains("row 1 ends before it starts"), "descending pair");
        assert!(refuse(&[0, 1, 2], 3).contains("last entry"), "short last offset");
        assert!(refuse(&[0, 1, 4], 3).contains("last entry"), "long last offset");
        let empty = Rows::from_parts(vec![0], Vec::<u8>::new()).expect("no rows");
        assert_eq!((empty.n_rows(), empty), (0, Rows::default()));
    }

    #[test]
    fn map_keeps_the_rows_and_visits_items_in_key_order() {
        let rows: Rows<u32> = vec![vec![3, 1], vec![], vec![4]].into_iter().collect();
        let mut seen = Vec::new();
        let mapped: Rows<u64> = rows.clone().map(|x| {
            seen.push(x);
            u64::from(x) * 10
        });
        assert_eq!(seen, [3, 1, 4]);
        assert!(mapped.offsets().eq(rows.offsets()));
        assert_eq!(as_vecs(&mapped), vec![vec![30, 10], vec![], vec![40]]);
    }

    #[test]
    fn push_and_end_row_close_empty_rows_too() {
        let mut rows = Rows::with_capacity(4, 0);
        rows.end_row();
        rows.push(7u32);
        rows.push(8);
        rows.end_row();
        rows.end_row();
        rows.push_row([9]);
        assert_eq!(rows.offsets().collect::<Vec<_>>(), [0, 0, 2, 2, 3]);
        assert_eq!(as_vecs(&rows), vec![vec![], vec![7, 8], vec![], vec![9]]);
        let collected: Rows<u32> = as_vecs(&rows).into_iter().collect();
        assert_eq!(collected, rows);
    }

    /// `merge_join` against a `BTreeMap` oracle: each key's item from the
    /// left, the right or both, in key order. Items carry their side in
    /// their second field, so a step that takes the wrong side's item for
    /// a shared key, or drops either side's tail, shows.
    #[test]
    fn merge_join_is_the_ordered_union_of_both_sides() {
        use std::collections::BTreeMap;
        type Item = (u32, u8);
        let check = |left: &[Item], right: &[Item]| {
            let mut oracle: BTreeMap<u32, (Option<Item>, Option<Item>)> = BTreeMap::new();
            for &item in left {
                oracle.entry(item.0).or_default().0 = Some(item);
            }
            for &item in right {
                oracle.entry(item.0).or_default().1 = Some(item);
            }
            let want: Vec<Merged<Item>> = oracle
                .values()
                .map(|sides| match *sides {
                    (Some(a), Some(b)) => Merged::Both(a, b),
                    (Some(a), None) => Merged::Left(a),
                    (None, Some(b)) => Merged::Right(b),
                    (None, None) => unreachable!("every key came from a side"),
                })
                .collect();
            let got: Vec<_> = merge_join(left, right, |&(k, _)| k).collect();
            assert_eq!(got, want, "{left:?} ⋈ {right:?}");
            let both = |m: &Merged<Item>| if let Merged::Both(a, b) = *m { Some((a, b)) } else { None };
            let shared: Vec<_> = want.iter().filter_map(both).collect();
            assert_eq!(merge_join(left, right, |&(k, _)| k).shared().collect::<Vec<_>>(), shared);
        };
        let side = |keys: &[u32], tag: u8| keys.iter().map(|&k| (k, tag)).collect::<Vec<_>>();
        let cases: [(&[u32], &[u32]); 7] = [
            (&[], &[]),
            (&[], &[1, 2]),
            (&[1, 2], &[]),
            (&[1, 2], &[3, 4]),
            (&[1, 2, 3], &[1, 2, 3]),
            (&[1, 3, 5, 8, 9], &[2, 3, 4, 5]),
            (&[4, 6], &[1, 2, 4, 7, 8]),
        ];
        for (left, right) in cases {
            check(&side(left, 0), &side(right, 1));
            check(&side(right, 0), &side(left, 1));
        }
        for_each_seed(300, |rng| {
            let mut keys = |tag: u8| {
                let n = rng.gen_range(0..12usize);
                let mut keys: Vec<u32> = (0..n).map(|_| rng.gen_range(0..16u32)).collect();
                keys.sort_unstable();
                keys.dedup();
                side(&keys, tag)
            };
            let (left, right) = (keys(0), keys(1));
            check(&left, &right);
        });
    }

}
