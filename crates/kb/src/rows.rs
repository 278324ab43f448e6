//! The workspace's one row table: rows of `T` under dense keys `0..n`.
//!
//! Every structure between the KB and rule R1 has this shape — an entity's
//! attribute–value pairs, a literal's tokens, a block's members, an
//! entity's blocks, a node's candidates — and holds it the way an `.mkb`
//! CSR section does ([`crate::disk`]): all rows back to back in one column,
//! plus `n + 1` cumulative `u32` offsets starting at 0. One heap block per
//! column, whatever the row count.

use minoaner_det::codec::Spillable;

/// Rows of `T` under dense keys: row `k` is
/// `data[offsets[k]..offsets[k + 1]]`.
///
/// The offsets always start at 0, ascend, and end at `data.len()`;
/// [`Self::from_parts`] is the only way in for columns built elsewhere —
/// an `.mkb` section or a decoded checkpoint part.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows<T> {
    offsets: Vec<u32>,
    data: Vec<T>,
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
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self { offsets, data: Vec::with_capacity(items) }
    }

    /// Adds `item` to the row being built.
    #[inline]
    pub fn push(&mut self, item: T) {
        self.data.push(item);
    }

    /// Closes the row being built: everything pushed since the last call.
    ///
    /// # Panics
    /// Panics past `u32::MAX` items in all rows together, the width of the
    /// offset column in memory and in `.mkb`.
    pub fn end_row(&mut self) {
        self.offsets.push(checked_len(self.data.len()));
    }

    /// Adds `items` as the next row.
    pub fn push_row(&mut self, items: impl IntoIterator<Item = T>) {
        self.data.extend(items);
        self.end_row();
    }

    /// One table from the per-task parts of a stage sharded by key range,
    /// in part order. The columns are sized once from the parts' lengths
    /// and each part is freed as soon as it is appended, so the transient
    /// is one part — never a second copy of the table.
    ///
    /// # Panics
    /// Panics past `u32::MAX` items in all parts together.
    pub fn concat(parts: Vec<Self>) -> Self {
        let total: usize = parts.iter().map(|part| part.data.len()).sum();
        checked_len(total);
        let mut all = Self::with_capacity(parts.iter().map(Self::n_rows).sum(), total);
        for part in parts {
            let base = all.data.len() as u32;
            all.offsets.extend(part.offsets.iter().skip(1).map(|end| base + end));
            all.data.extend(part.data);
        }
        all
    }

    /// Reassembles a table from stored columns — the `.mkb` materialization
    /// path. The offsets must start at 0, ascend and end at `data`'s length.
    pub fn from_parts(offsets: Vec<u32>, data: Vec<T>) -> Result<Self, String> {
        if offsets.first() != Some(&0) {
            return Err("the first row does not start at entry 0".to_owned());
        }
        if let Some(i) = offsets.iter().zip(offsets.iter().skip(1)).position(|(start, end)| start > end) {
            return Err(format!("row {i} ends before it starts"));
        }
        if offsets.last().map(|&end| end as usize) != Some(data.len()) {
            return Err("the last row does not end at the column's last entry".to_owned());
        }
        Ok(Self { offsets, data })
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The items under `key`, in the order they were added.
    ///
    /// # Panics
    /// Panics if `key` is out of range.
    #[inline]
    pub fn row(&self, key: usize) -> &[T] {
        &self.data[self.offsets[key] as usize..self.offsets[key + 1] as usize]
    }

    /// Length of row `key`.
    ///
    /// # Panics
    /// Panics if `key` is out of range.
    #[inline]
    pub fn row_len(&self, key: usize) -> usize {
        self.row(key).len()
    }

    /// Every row, in key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + Clone {
        let bounds = self.offsets.iter().zip(self.offsets.iter().skip(1));
        // In range by the type's invariant; `get` keeps the walk panic-free.
        bounds.map(|(&start, &end)| self.data.get(start as usize..end as usize).unwrap_or(&[]))
    }

    /// The `n_rows + 1` cumulative offsets, leading 0 included — the
    /// offsets column of an `.mkb` CSR section.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every row back to back.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// The same rows with every item replaced by `f` of it; `f` sees the
    /// items in key order. The data column is reused where `U` is laid out
    /// as `T` is.
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> Rows<U> {
        Rows { offsets: self.offsets, data: self.data.into_iter().map(f).collect() }
    }
}

impl<T: Copy> Rows<T> {
    /// Keeps the rows `keep` accepts (it is asked once per row, in key
    /// order) and renumbers them densely, in place: a row filter costs no
    /// allocation and moves each kept item at most once. What the dropped
    /// rows held goes back to the allocator.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let (mut rows, mut items, mut start) = (0usize, 0usize, 0usize);
        for row in 0..self.n_rows() {
            // Read before the slot can be overwritten: `rows <= row` here.
            let end = self.offsets.get(row + 1).map_or(start, |&end| end as usize);
            if keep(row) {
                self.data.copy_within(start..end, items);
                items += end - start;
                rows += 1;
                if let Some(slot) = self.offsets.get_mut(rows) {
                    // Never more than the `u32` it replaces.
                    *slot = items as u32;
                }
            }
            start = end;
        }
        self.data.truncate(items);
        self.offsets.truncate(rows + 1);
        self.data.shrink_to_fit();
        self.offsets.shrink_to_fit();
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
        // `for_each`, not `for`: producers are mostly `flat_map`s, which
        // run as the nested loops they stand for only when driven from inside.
        // One column serves as counts, then as the scatter's cursors, then as
        // the offsets: key `k` counts two slots up, so that after the prefix
        // sum slot `k + 1` is where row `k` starts — and, once the scatter
        // has advanced it past the row's last item, where row `k + 1` does.
        let mut offsets = vec![0u32; n_keys + 2];
        let mut total = 0usize;
        items.clone().for_each(|(key, _)| {
            // Cannot wrap: `total` is checked below before anything reads it.
            offsets[key + 2] = offsets[key + 2].wrapping_add(1);
            total += 1;
        });
        checked_len(total);
        for slot in 2..n_keys + 2 {
            offsets[slot] += offsets[slot - 1];
        }
        let mut data = vec![T::default(); total];
        items.for_each(|(key, item)| {
            let next = &mut offsets[key + 1];
            data[*next as usize] = item;
            *next += 1;
        });
        offsets.truncate(n_keys + 1);
        Self { offsets, data }
    }
}

/// The two columns; decoding goes through [`Rows::from_parts`].
impl<T: Spillable> Spillable for Rows<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        Vec::encode(&self.offsets, out);
        Vec::encode(&self.data, out);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Self::from_parts(Vec::decode(buf, pos)?, Vec::decode(buf, pos)?).ok()
    }
}

/// Collects one row per item of the iterator.
impl<T, R: IntoIterator<Item = T>> FromIterator<R> for Rows<T> {
    fn from_iter<I: IntoIterator<Item = R>>(rows: I) -> Self {
        let mut all = Self::default();
        for row in rows {
            all.push_row(row);
        }
        all
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
    use minoaner_det::rng::Rng;

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
            assert_eq!((got.n_rows(), got.data().len()), (n_keys, n_items));
            for (key, row) in want.iter().enumerate() {
                assert_eq!((got.row(key), got.row_len(key)), (&row[..], row.len()));
            }
            assert_eq!(Rows::from_parts(got.offsets().to_vec(), got.data().to_vec()), Ok(got));
        }
    }

    #[test]
    fn concat_of_key_range_parts_equals_one_build() {
        let mut rng = Rng::seed_from_u64(0xC0CA);
        for case in 0..60 {
            let n_keys = rng.gen_range(0..12usize);
            let n_items = if n_keys == 0 { 0 } else { rng.gen_range(0..50usize) };
            let items: Vec<(usize, u32)> = (0..n_items).map(|seq| (rng.gen_range(0..n_keys), seq as u32)).collect();
            let chunk = 1 + rng.gen_range(0..n_keys.max(1));
            let parts: Vec<Rows<u32>> = (0..n_keys.div_ceil(chunk))
                .map(|t| {
                    let lo = t * chunk;
                    let width = ((t + 1) * chunk).min(n_keys) - lo;
                    let own = items.iter().filter(|&&(key, _)| (lo..lo + width).contains(&key));
                    Rows::build(width, own.map(|&(key, item)| (key - lo, item)))
                })
                .collect();
            assert_eq!(Rows::concat(parts), Rows::build(n_keys, items.iter().copied()), "case {case}");
        }
        assert_eq!(Rows::<u32>::concat(Vec::new()), Rows::default());
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
        assert_eq!(mapped.offsets(), rows.offsets());
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
        assert_eq!(rows.offsets(), &[0, 0, 2, 2, 3]);
        assert_eq!(as_vecs(&rows), vec![vec![], vec![7, 8], vec![], vec![9]]);
        let collected: Rows<u32> = as_vecs(&rows).into_iter().collect();
        assert_eq!(collected, rows);
    }
}
