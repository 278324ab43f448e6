//! String interning for tokens, attribute names and entity URIs.
//!
//! Every string that the framework repeatedly compares — value tokens,
//! attribute (predicate) names, entity names and URIs — is mapped once to a
//! dense `u32` symbol. All downstream similarity computations (value
//! similarity, blocking, neighbor evidence) then operate on integers, which
//! keeps the hot loops allocation-free and cache-friendly.

use std::fmt;
use std::sync::OnceLock;

use crate::disk::{Column, Text};

/// A dense identifier handed out by an [`Interner`].
///
/// Symbols are only meaningful relative to the interner that produced them;
/// the type parameter-free design keeps the API simple, while the distinct
/// wrapper types in [`crate::model`] ([`crate::model::TokenId`],
/// [`crate::model::AttrId`], …) prevent cross-domain mixups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The symbol as a zero-based index into the interner's storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An append-only string interner.
///
/// Interning the same string twice returns the same [`Symbol`]; symbols are
/// dense and start at zero, so they can index directly into side tables
/// (entity-frequency arrays, importance vectors, …).
///
/// Storage is the layout an `.mkb` arena section has on disk
/// ([`crate::disk`]): every string once, back to back in one byte arena,
/// plus cumulative byte offsets starting at 0 — built in memory, or ranges
/// of a mapped file. Lookup is an open-addressing table of symbols keyed by
/// [`minoaner_det::hash_bytes`]; the 32 hash bits kept per symbol are
/// compared before any bytes are, and let the table double without hashing
/// a string again. The hash only places symbols in that table — numbering
/// is first-seen order whatever the hash is. An interner read from a file
/// builds the table on its first [`Self::get`].
#[derive(Debug, Clone)]
pub struct Interner {
    /// The interned strings, concatenated in symbol order.
    arena: Text,
    /// Symbol `i` is `arena[offsets[i]..offsets[i + 1]]`: one entry more
    /// than there are symbols, the first 0.
    offsets: Column<u32>,
    /// Set from the start when interning, on the first `get` otherwise.
    lookup: OnceLock<Lookup>,
}

/// An interner's lookup table: symbols by a 32-bit hash of their key,
/// which the caller compares. The builder keys its literals by their
/// logged words with it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lookup {
    /// Low 32 bits of each symbol's hash.
    hashes: Vec<u32>,
    /// Linear-probing table, a power of two long and at most half full:
    /// `symbol + 1`, or [`EMPTY`].
    slots: Vec<u32>,
}

const EMPTY: u32 = 0;

fn hash32(s: &str) -> u32 {
    hash32_bytes(s.as_bytes())
}

/// The 32 hash bits a [`Lookup`] keeps of a key.
pub(crate) fn hash32_bytes(bytes: &[u8]) -> u32 {
    minoaner_det::hash_bytes(bytes) as u32
}

impl Default for Interner {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty interner with capacity for `n` distinct strings.
    pub fn with_capacity(n: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let lookup = Lookup::with_capacity(n);
        Self { arena: Text::default(), offsets: Column::owned(offsets), lookup: OnceLock::from(lookup) }
    }

    /// Takes `arena` and the `offsets` that cut it as they are: strings the
    /// caller built distinct, each on UTF-8 boundaries, the offsets from 0
    /// to the arena's end. The lookup table is left to the first
    /// [`Self::get`].
    pub(crate) fn from_distinct(arena: String, offsets: Vec<u32>) -> Self {
        Self { arena: Text::owned(arena), offsets: Column::owned(offsets), lookup: OnceLock::new() }
    }

    /// Interns `s`, returning its symbol. Idempotent.
    ///
    /// # Panics
    /// Panics past `u32::MAX` distinct strings or arena bytes — the width
    /// of the symbol and offset columns, in memory and in `.mkb`; out of
    /// scope for the datasets this framework targets.
    pub fn intern(&mut self, s: &str) -> Symbol {
        let hash = hash32(s);
        let Some(lookup) = self.lookup.get_mut() else {
            return self.intern_after_building_lookup(s);
        };
        // Owned unless the interner was read from a file and this is its
        // first `intern`, which copies the columns out of the mapping.
        let (arena, offsets) = (self.arena.to_mut(), self.offsets.to_mut());
        if let Some(sym) = lookup.find(hash, |sym| holds(arena, offsets, sym, s)) {
            return sym;
        }
        let n = offsets.len() - 1;
        let end = arena.len() + s.len();
        assert!(
            end <= u32::MAX as usize && n < u32::MAX as usize,
            "interner overflow: more than u32::MAX distinct strings or arena bytes"
        );
        let sym = Symbol(n as u32);
        lookup.insert(sym, hash);
        arena.push_str(s);
        offsets.push(end as u32);
        sym
    }

    /// [`Self::intern`] into an interner read from a file, whose table is
    /// not built yet.
    #[cold]
    fn intern_after_building_lookup(&mut self, s: &str) -> Symbol {
        self.lookup = OnceLock::from(Lookup::of_strings(self));
        self.intern(s)
    }

    /// Takes an interner's storage as it is — from a mapped `.mkb` arena
    /// section ([`crate::disk`]). What is checked is that the offsets cut
    /// `arena` into strings (from byte 0, ascending, on UTF-8 boundaries,
    /// ending at its last byte) and that no string occurs twice
    /// ([`first_repeat`]); the lookup table is left to the first
    /// [`Self::get`]. The error names the offending symbol.
    pub(crate) fn from_columns(arena: Text, offsets: Column<u32>) -> Result<Self, String> {
        if offsets.first() != Some(&0) {
            return Err("the first string does not start at byte 0".to_owned());
        }
        let n = offsets.len() - 1;
        if n >= u32::MAX as usize {
            return Err("more than u32::MAX strings".to_owned());
        }
        if offsets.last().map(|&end| end as usize) != Some(arena.len()) {
            return Err("the last string does not end at the arena's last byte".to_owned());
        }
        // One pass over the strings checks that each starts and ends on a
        // char boundary, after its start, and hashes it.
        let mut hashes = Vec::with_capacity(n);
        let mut start = 0;
        for (i, &end) in offsets.iter().skip(1).enumerate() {
            let end = end as usize;
            match arena.as_bytes().get(start..end) {
                Some(s) if arena.is_char_boundary(start) && arena.is_char_boundary(end) => {
                    hashes.push(hash32_bytes(s));
                }
                _ => return Err(format!("string {i} is not bounded by UTF-8 boundaries of the arena")),
            }
            start = end;
        }
        let string = |i: usize| span(&offsets, Symbol(i as u32)).and_then(|span| arena.as_bytes().get(span));
        if let Some(i) = first_repeat(&hashes, |i, j| string(i) == string(j)) {
            return Err(format!("string {i} repeats an earlier one"));
        }
        Ok(Self { arena, offsets, lookup: OnceLock::new() })
    }

    /// Whether `sym` is this interner's symbol for `s` — [`Self::resolve`]
    /// and compare, for a symbol that need not be this interner's.
    pub(crate) fn holds(&self, sym: Symbol, s: &str) -> bool {
        holds(&self.arena, &self.offsets, sym, s)
    }

    /// `sym`'s string, if it is this interner's symbol.
    pub(crate) fn string(&self, sym: Symbol) -> Option<&str> {
        self.arena.get(span(&self.offsets, sym)?)
    }

    /// Whether the lookup table is built.
    #[cfg(test)]
    pub(crate) fn has_lookup(&self) -> bool {
        self.lookup.get().is_some()
    }

    /// Looks up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        let lookup = self.lookup.get_or_init(|| Lookup::of_strings(self));
        lookup.find(hash32(s), |sym| self.holds(sym, s))
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    #[expect(clippy::panic, reason = "bound: documented: `sym` comes from this interner (`# \
              Panics`); the engine resolves only ids it interned, and a mapped interner is \
              validated by `from_columns`.")]
    pub fn resolve(&self, sym: Symbol) -> &str {
        match self.string(sym) {
            Some(s) => s,
            None => panic!("{sym} is not a symbol of this interner"),
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no strings have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(Symbol, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        (0..self.len() as u32).map(|i| (Symbol(i), self.resolve(Symbol(i))))
    }

    /// Every interned string back to back, in symbol order.
    pub(crate) fn arena(&self) -> &str {
        &self.arena
    }

    /// Where each symbol's string starts in [`Self::arena`], and after the
    /// last of them where it ends — the offsets column of an `.mkb` arena
    /// section.
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.offsets
    }
}

/// Where `sym`'s string lies in its arena, if `offsets` has the symbol.
fn span(offsets: &[u32], sym: Symbol) -> Option<std::ops::Range<usize>> {
    let start = *offsets.get(sym.index())?;
    let end = *offsets.get(sym.index() + 1)?;
    Some(start as usize..end as usize)
}

/// Whether `sym` holds `s` in the arena `offsets` cut.
fn holds(arena: &str, offsets: &[u32], sym: Symbol, s: &str) -> bool {
    span(offsets, sym).and_then(|span| arena.as_bytes().get(span)) == Some(s.as_bytes())
}

impl Lookup {
    /// An empty table with room for `n` symbols.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self { hashes: Vec::with_capacity(n), slots: vec![EMPTY; slots_for(n)] }
    }

    /// The table of an interner's strings as they are.
    fn of_strings(interner: &Interner) -> Self {
        let n = interner.len();
        let mut lookup = Self { hashes: Vec::with_capacity(n), slots: vec![EMPTY; slots_for(n)] };
        for sym in (0..n as u32).map(Symbol) {
            let hash = interner.string(sym).map_or(0, hash32);
            lookup.hashes.push(hash);
            place(&mut lookup.slots, sym, hash);
        }
        lookup
    }

    /// The symbol with hash `hash` that `is` accepts, if any.
    pub(crate) fn find(&self, hash: u32, is: impl Fn(Symbol) -> bool) -> Option<Symbol> {
        for &slot in probe_order(&self.slots, hash).take_while(|&&slot| slot != EMPTY) {
            let sym = Symbol(slot - 1);
            if self.hashes.get(slot as usize - 1) == Some(&hash) && is(sym) {
                return Some(sym);
            }
        }
        None
    }

    /// Adds the next symbol, doubling the table first if it would be more
    /// than half full.
    pub(crate) fn insert(&mut self, sym: Symbol, hash: u32) {
        if slots_for(self.hashes.len() + 1) > self.slots.len() {
            self.grow();
        }
        self.hashes.push(hash);
        place(&mut self.slots, sym, hash);
    }

    /// Doubles the table and re-places every symbol by its stored hash.
    #[cold]
    fn grow(&mut self) {
        self.slots = vec![EMPTY; (self.slots.len() * 2).max(MIN_SLOTS)];
        for (sym, &hash) in (0u32..).map(Symbol).zip(&self.hashes) {
            place(&mut self.slots, sym, hash);
        }
    }
}

/// The first string (by index) equal to an earlier one, if any, among
/// strings with `hashes`; `equal(i, j)` compares strings `i` and `j`.
///
/// Equal strings have equal hashes, so only strings whose hash is shared
/// can repeat. One sequential pass marks each hash's bucket in a table of
/// two bits a bucket, sixteen buckets a string — the second bit says the
/// bucket was marked before. Only the strings of such crowded buckets, a
/// few per cent of them, are candidates: they are grouped by hash (a sort
/// of `(hash, index)` words) and compared within each group. No table of
/// symbols is probed.
fn first_repeat(hashes: &[u32], equal: impl Fn(usize, usize) -> bool) -> Option<usize> {
    let buckets = hashes.len().saturating_mul(16).next_power_of_two().clamp(64, 1 << 31);
    let mut marks = vec![0u64; buckets / 32];
    // A hash's word in `marks`, and the shift to its bucket's two bits.
    let slot = |hash: u32| {
        let bucket = hash as usize & (buckets - 1);
        (bucket / 32, 2 * (bucket % 32))
    };
    // How many strings share a bucket: two when one becomes crowded, one
    // more for every later string in a crowded bucket.
    let mut crowd = 0;
    for &hash in hashes {
        let (word, shift) = slot(hash);
        if let Some(word) = marks.get_mut(word) {
            let seen = *word >> shift & 1;
            crowd += match *word >> shift & 3 {
                0 => 0,
                1 => 2,
                _ => 1,
            };
            *word |= (1 | seen << 1) << shift;
        }
    }
    let crowded = |hash: u32| {
        let (word, shift) = slot(hash);
        marks.get(word).is_some_and(|word| word >> shift & 2 != 0)
    };
    let mut candidates: Vec<u64> = Vec::with_capacity(crowd);
    candidates.extend((0u64..).zip(hashes).filter(|&(_, &hash)| crowded(hash)).map(|(i, &hash)| u64::from(hash) << 32 | i));
    debug_assert_eq!(candidates.len(), crowd, "the marking pass counts the candidates");
    candidates.sort_unstable();
    let index = |word: u64| (word & u64::from(u32::MAX)) as usize;
    let mut first: Option<usize> = None;
    let mut group_start = 0;
    for (k, &later) in candidates.iter().enumerate() {
        if candidates.get(group_start).is_some_and(|&start| start >> 32 != later >> 32) {
            group_start = k;
        }
        let earlier = candidates.get(group_start..k).unwrap_or_default();
        if earlier.iter().any(|&earlier| equal(index(earlier), index(later))) {
            first = Some(first.map_or(index(later), |first| first.min(index(later))));
        }
    }
    first
}

const MIN_SLOTS: usize = 16;

/// The slots of a table in the order linear probing visits them for
/// `hash`: from the hash's home slot to the end, then from the start.
fn probe_order(slots: &[u32], hash: u32) -> impl Iterator<Item = &u32> {
    let home = hash as usize & slots.len().wrapping_sub(1);
    let (before, from_home) = slots.split_at(home.min(slots.len()));
    from_home.iter().chain(before)
}

/// Puts `sym` into the first free slot of its probe sequence. The table
/// is at most half full, so there is one.
fn place(slots: &mut [u32], sym: Symbol, hash: u32) {
    let home = hash as usize & slots.len().wrapping_sub(1);
    let (before, from_home) = slots.split_at_mut(home.min(slots.len()));
    let free = from_home.iter_mut().chain(before).find(|slot| **slot == EMPTY);
    debug_assert!(free.is_some(), "the interner table is full");
    if let Some(slot) = free {
        *slot = sym.0 + 1;
    }
}

/// Table length that keeps `n` symbols at most half full.
fn slots_for(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (n * 2).next_power_of_two().max(MIN_SLOTS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("hello");
        let b = i.intern("hello");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn symbols_are_dense_and_ordered() {
        let mut i = Interner::new();
        for (n, s) in ["x", "y", "z"].iter().enumerate() {
            let sym = i.intern(s);
            assert_eq!(sym.index(), n);
        }
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let sym = i.intern("restaurant");
        assert_eq!(i.resolve(sym), "restaurant");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("missing"), None);
        let sym = i.intern("present");
        assert_eq!(i.get("present"), Some(sym));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn iter_yields_in_interning_order() {
        let mut i = Interner::new();
        i.intern("first");
        i.intern("second");
        let collected: Vec<_> = i.iter().map(|(_, s)| s.to_string()).collect();
        assert_eq!(collected, vec!["first", "second"]);
    }

    #[test]
    fn growth_keeps_every_symbol_findable() {
        let mut i = Interner::new();
        let strings: Vec<String> = (0..1000).map(|n| format!("http://e/{n}")).collect();
        for (n, s) in (0u32..).zip(&strings) {
            assert_eq!(i.intern(s), Symbol(n));
        }
        let slots = i.lookup.get().map_or(0, |lookup| lookup.slots.len());
        assert!(slots >= 2 * i.len() && slots.is_power_of_two());
        for (n, s) in (0u32..).zip(&strings) {
            assert_eq!(i.get(s), Some(Symbol(n)));
        }
        assert_eq!(i.get("http://e/1000"), None);
    }

    fn from_parts(arena: &str, offsets: &[u32]) -> Result<Interner, String> {
        Interner::from_columns(Text::owned(arena.to_owned()), Column::owned(offsets.to_vec()))
    }

    #[test]
    fn from_columns_takes_the_columns_and_builds_the_lookup_when_asked() {
        let mut built = Interner::new();
        for s in ["", "café", "fat duck", "東"] {
            built.intern(s);
        }
        let mut back = from_parts(built.arena(), built.offsets()).expect("own columns");
        assert!(back.lookup.get().is_none(), "no table until the first lookup");
        assert_eq!(back.iter().collect::<Vec<_>>(), built.iter().collect::<Vec<_>>());
        for (sym, s) in built.iter() {
            assert_eq!(back.get(s), Some(sym));
        }
        assert_eq!(back.get("missing"), None);
        // Interning into a table read back builds its lookup first.
        let mut fresh = from_parts(built.arena(), built.offsets()).expect("own columns");
        for other in [&mut back, &mut fresh] {
            assert_eq!(other.intern("fat duck"), Symbol(2));
            assert_eq!(other.intern("new"), Symbol(4));
            assert_eq!(other.get("new"), Some(Symbol(4)));
        }
        assert_eq!(from_parts("", &[0]).expect("empty").len(), 0);
    }

    #[test]
    fn first_repeat_finds_what_a_pairwise_comparison_finds() {
        minoaner_det::rng::for_each_seed(300, |rng| {
            // Short strings over a small alphabet repeat often; a few
            // thousand of them crowd the bit tables' buckets too.
            let n = if rng.gen_range(0..10usize) == 0 { rng.gen_range(0..3000usize) } else { rng.gen_range(0..40usize) };
            let alphabet = 1 + rng.gen_range(0..4usize);
            let strings: Vec<String> = (0..n)
                .map(|_| (0..rng.gen_range(0..7usize)).map(|_| char::from(b'a' + rng.gen_range(0..alphabet) as u8)).collect())
                .collect();
            let want = (0..n).find(|&i| strings[..i].contains(&strings[i]));
            let hashes: Vec<u32> = strings.iter().map(|s| hash32(s)).collect();
            assert_eq!(first_repeat(&hashes, |i, j| strings[i] == strings[j]), want, "{strings:?}");
        });
    }

    #[test]
    fn from_columns_refuses_columns_that_are_not_an_interner() {
        let refuse = |arena: &str, offsets: &[u32]| from_parts(arena, offsets).unwrap_err();
        assert!(refuse("ab", &[]).contains("byte 0"), "no offsets at all");
        assert!(refuse("ab", &[1, 2]).contains("byte 0"), "arena bytes before the first string");
        assert!(refuse("abc", &[0, 3, 2, 3]).contains("string 1"), "descending offsets");
        assert!(refuse("ab", &[0, 1, 3]).contains("last byte"), "past the arena");
        assert!(refuse("aé", &[0, 2, 3]).contains("string 0"), "inside a UTF-8 sequence");
        assert!(refuse("abc", &[0, 1, 2]).contains("last byte"), "arena bytes no string owns");
        assert!(refuse("a", &[0]).contains("last byte"));
        assert!(refuse("abab", &[0, 2, 4]).contains("repeats"), "the same string twice");
        assert!(refuse("", &[0, 0, 0]).contains("repeats"), "the empty string twice");
        assert_eq!(refuse("abab", &[0, 1, 2, 3, 4, 4, 4]), "string 2 repeats an earlier one", "the first repeat is named");
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
