//! String interning for tokens, attribute names and entity URIs.
//!
//! Every string that the framework repeatedly compares — value tokens,
//! attribute (predicate) names, entity names and URIs — is mapped once to a
//! dense `u32` symbol. All downstream similarity computations (value
//! similarity, blocking, neighbor evidence) then operate on integers, which
//! keeps the hot loops allocation-free and cache-friendly.

use std::fmt;

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
/// plus cumulative byte offsets starting at 0. Lookup is an open-addressing table of
/// symbols keyed by [`minoaner_det::hash_bytes`]; the 32 hash bits kept
/// per symbol are compared before any bytes are, and let the table double
/// without hashing a string again. The hash only places symbols in that
/// table — numbering is first-seen order whatever the hash is.
#[derive(Debug, Clone)]
pub struct Interner {
    /// The interned strings, concatenated in symbol order.
    arena: String,
    /// Symbol `i` is `arena[offsets[i]..offsets[i + 1]]`: one entry more
    /// than there are symbols, the first 0.
    offsets: Vec<u32>,
    /// Low 32 bits of each symbol's hash.
    hashes: Vec<u32>,
    /// Linear-probing table, a power of two long and at most half full:
    /// `symbol + 1`, or [`EMPTY`].
    slots: Vec<u32>,
}

const EMPTY: u32 = 0;

fn hash32(s: &str) -> u32 {
    minoaner_det::hash_bytes(s.as_bytes()) as u32
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
        Self { arena: String::new(), offsets, hashes: Vec::with_capacity(n), slots: vec![EMPTY; slots_for(n)] }
    }

    /// Interns `s`, returning its symbol. Idempotent.
    ///
    /// # Panics
    /// Panics past `u32::MAX` distinct strings or arena bytes — the width
    /// of the symbol and offset columns, in memory and in `.mkb`; out of
    /// scope for the datasets this framework targets.
    pub fn intern(&mut self, s: &str) -> Symbol {
        let hash = hash32(s);
        if let Some(sym) = self.find(s, hash) {
            return sym;
        }
        let end = self.arena.len() + s.len();
        assert!(
            end <= u32::MAX as usize && self.len() < u32::MAX as usize,
            "interner overflow: more than u32::MAX distinct strings or arena bytes"
        );
        if slots_for(self.len() + 1) > self.slots.len() {
            self.grow();
        }
        let sym = Symbol(self.len() as u32);
        self.arena.push_str(s);
        self.offsets.push(end as u32);
        self.hashes.push(hash);
        place(&mut self.slots, sym, hash);
        sym
    }

    /// Rebuilds an interner from its storage — the deserialization path of
    /// the on-disk `.mkb` container ([`crate::disk`]). The columns are
    /// taken as they are; what is checked is that the offsets cut `arena`
    /// into strings (from byte 0, ascending, on UTF-8 boundaries, ending at
    /// its last byte) and that no string occurs twice; what is rebuilt is
    /// the lookup table. The error names the offending symbol.
    pub(crate) fn from_parts(arena: String, offsets: Vec<u32>) -> Result<Self, String> {
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
        let mut this = Self { arena, offsets, hashes: Vec::with_capacity(n), slots: vec![EMPTY; slots_for(n)] };
        for i in 0..n {
            let sym = Symbol(i as u32);
            let Some(s) = this.span(sym).and_then(|span| this.arena.get(span)) else {
                return Err(format!("string {i} is not bounded by UTF-8 boundaries of the arena"));
            };
            let hash = hash32(s);
            // Only symbols below `i` are in the table yet.
            if this.find(s, hash).is_some() {
                return Err(format!("string {i} repeats an earlier one"));
            }
            this.hashes.push(hash);
            place(&mut this.slots, sym, hash);
        }
        Ok(this)
    }

    /// The symbol holding `s` with hash `hash`, if any.
    fn find(&self, s: &str, hash: u32) -> Option<Symbol> {
        for &slot in probe_order(&self.slots, hash).take_while(|&&slot| slot != EMPTY) {
            let sym = Symbol(slot - 1);
            if self.hashes.get(slot as usize - 1) == Some(&hash) && self.holds(sym, s) {
                return Some(sym);
            }
        }
        None
    }

    /// Doubles the table and re-places every symbol by its stored hash.
    fn grow(&mut self) {
        self.slots = vec![EMPTY; (self.slots.len() * 2).max(MIN_SLOTS)];
        for (sym, &hash) in (0u32..).map(Symbol).zip(&self.hashes) {
            place(&mut self.slots, sym, hash);
        }
    }

    /// Whether `sym` is this interner's symbol for `s` — [`Self::resolve`]
    /// and compare, for a symbol that need not be this interner's.
    pub(crate) fn holds(&self, sym: Symbol, s: &str) -> bool {
        self.span(sym).and_then(|span| self.arena.as_bytes().get(span)) == Some(s.as_bytes())
    }

    /// Where `sym`'s string lies in `arena`, if it is this interner's.
    fn span(&self, sym: Symbol) -> Option<std::ops::Range<usize>> {
        let start = *self.offsets.get(sym.index())?;
        let end = *self.offsets.get(sym.index() + 1)?;
        Some(start as usize..end as usize)
    }

    /// Looks up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.find(s, hash32(s))
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        match self.span(sym) {
            Some(span) => &self.arena[span],
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
        assert!(i.slots.len() >= 2 * i.len() && i.slots.len().is_power_of_two());
        for (n, s) in (0u32..).zip(&strings) {
            assert_eq!(i.get(s), Some(Symbol(n)));
        }
        assert_eq!(i.get("http://e/1000"), None);
    }

    #[test]
    fn from_parts_takes_the_columns_and_rebuilds_the_lookup() {
        let mut built = Interner::new();
        for s in ["", "café", "fat duck", "東"] {
            built.intern(s);
        }
        let back = Interner::from_parts(built.arena().to_owned(), built.offsets().to_vec()).expect("own columns");
        assert_eq!(back.iter().collect::<Vec<_>>(), built.iter().collect::<Vec<_>>());
        for (sym, s) in built.iter() {
            assert_eq!(back.get(s), Some(sym));
        }
        assert_eq!(Interner::from_parts(String::new(), vec![0]).expect("empty").len(), 0);
    }

    #[test]
    fn from_parts_refuses_columns_that_are_not_an_interner() {
        let refuse =
            |arena: &str, offsets: &[u32]| Interner::from_parts(arena.to_owned(), offsets.to_vec()).unwrap_err();
        assert!(refuse("ab", &[]).contains("byte 0"), "no offsets at all");
        assert!(refuse("ab", &[1, 2]).contains("byte 0"), "arena bytes before the first string");
        assert!(refuse("abc", &[0, 3, 2, 3]).contains("string 1"), "descending offsets");
        assert!(refuse("ab", &[0, 1, 3]).contains("last byte"), "past the arena");
        assert!(refuse("aé", &[0, 2, 3]).contains("string 0"), "inside a UTF-8 sequence");
        assert!(refuse("abc", &[0, 1, 2]).contains("last byte"), "arena bytes no string owns");
        assert!(refuse("a", &[0]).contains("last byte"));
        assert!(refuse("abab", &[0, 2, 4]).contains("repeats"), "the same string twice");
        assert!(refuse("", &[0, 0, 0]).contains("repeats"), "the empty string twice");
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
