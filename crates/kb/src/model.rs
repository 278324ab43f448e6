//! The entity model: URI-identified descriptions made of attribute–value
//! pairs, where a value is either a literal or a reference to another entity
//! of the same knowledge base (a *neighbor*, reached via a *relation*).
//!
//! This mirrors §2 of the MinoanER paper: an entity description `e_i ∈ E` is
//! a set of attribute–value pairs; `relations(e_i)` are the attributes whose
//! value is another description of `E`, and `neighbors(e_i)` those
//! descriptions themselves.

use crate::interner::Symbol;
use minoaner_det::codec::Spillable;

/// Identifies one of the two knowledge bases of a clean-clean ER task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    /// The first (by convention the smaller) KB, `E1`.
    Left,
    /// The second KB, `E2`.
    Right,
}

impl Side {
    /// The opposite side.
    #[inline]
    pub fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }

    /// Index (0 for `Left`, 1 for `Right`) for array-of-two storage.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Side::Left => 0,
            Side::Right => 1,
        }
    }
}

/// Identifier of an entity description *within one KB* (dense, zero-based).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct EntityId(pub u32);

impl EntityId {
    /// The id as an index into the KB's entity vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interned token (a single lower-cased word appearing in literal values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct TokenId(pub u32);

impl TokenId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interned attribute (predicate) name. Shared across both KBs so that
/// schema overlap, where it exists, is visible — but no algorithm in this
/// workspace *relies* on shared attribute ids (schema-agnosticism).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct AttrId(pub u32);

impl AttrId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interned *normalized* full literal value. Name blocking (§3.1) matches
/// entities on equal normalized literals of their name attributes, so full
/// values are interned alongside their token decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct LiteralId(pub u32);

impl LiteralId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The ids travel as their `u32`.
macro_rules! spillable_id {
    ($($id:ident),*) => {$(
        impl Spillable for $id {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }

            fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
                u32::decode(buf, pos).map($id)
            }
        }
    )*};
}

spillable_id!(EntityId, TokenId, AttrId, LiteralId);

/// A value of an attribute–value pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// A literal value (string, number or date — all handled as strings,
    /// per footnote 4 of the paper).
    Literal(LiteralId),
    /// A reference to another entity of the same KB: the attribute is a
    /// relation, the target a neighbor.
    Ref(EntityId),
}

impl Value {
    /// High bit of a value word: set ⇒ `Ref`, clear ⇒ `Literal`. Ids must
    /// therefore stay below 2³¹.
    const REF_BIT: u32 = 0x8000_0000;

    /// The value as one `u32` — how a KB holds it, in memory and in `.mkb`.
    ///
    /// # Panics
    /// Panics on an id of 2³¹ or more, past the width of the word.
    pub(crate) fn word(self) -> u32 {
        let (id, kind) = match self {
            Value::Literal(l) => (l.0, 0),
            Value::Ref(e) => (e.0, Self::REF_BIT),
        };
        assert!(id & Self::REF_BIT == 0, "more than 2^31 literals or entities in one KB");
        id | kind
    }

    /// Whether a [`Self::word`] holds a `Ref`, and the id it holds.
    #[inline]
    pub(crate) fn split_word(word: u32) -> (bool, u32) {
        (word & Self::REF_BIT != 0, word & !Self::REF_BIT)
    }

    /// The value a [`Self::word`] holds.
    #[inline]
    pub(crate) fn from_word(word: u32) -> Value {
        if word & Self::REF_BIT == 0 {
            Value::Literal(LiteralId(word))
        } else {
            Value::Ref(EntityId(word & !Self::REF_BIT))
        }
    }
}

/// One entity description: a URI plus its attribute–value pairs — a view of
/// one row of its KB's tables ([`crate::store::Kb`]), which hold each pair
/// as an attribute and a value word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entity<'a> {
    /// Interned URI of the description.
    pub uri: Symbol,
    attrs: &'a [AttrId],
    values: &'a [u32],
}

impl<'a> Entity<'a> {
    /// The description of `uri` whose pairs are `attrs` with the value
    /// words beside them.
    pub(crate) fn new(uri: Symbol, attrs: &'a [AttrId], values: &'a [u32]) -> Self {
        Self { uri, attrs, values }
    }

    /// Attribute–value pairs in insertion order.
    pub fn pairs(self) -> impl ExactSizeIterator<Item = (AttrId, Value)> + Clone + 'a {
        self.attrs.iter().zip(self.values).map(|(&a, &w)| (a, Value::from_word(w)))
    }

    /// Iterates over `(relation, neighbor)` pairs.
    pub fn relation_pairs(self) -> impl Iterator<Item = (AttrId, EntityId)> + Clone + 'a {
        self.pairs().filter_map(|(a, v)| match v {
            Value::Ref(e) => Some((a, e)),
            Value::Literal(_) => None,
        })
    }

    /// Iterates over `(attribute, literal)` pairs.
    pub fn literal_pairs(self) -> impl Iterator<Item = (AttrId, LiteralId)> + 'a {
        self.pairs().filter_map(|(a, v)| match v {
            Value::Literal(l) => Some((a, l)),
            Value::Ref(_) => None,
        })
    }

    /// Number of attribute–value pairs (triples with this subject).
    pub fn triple_count(self) -> usize {
        self.attrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_other_flips() {
        assert_eq!(Side::Left.other(), Side::Right);
        assert_eq!(Side::Right.other(), Side::Left);
        assert_eq!(Side::Left.index(), 0);
        assert_eq!(Side::Right.index(), 1);
    }

    #[test]
    fn entity_pair_iterators_split_by_kind() {
        let pairs = [
            (AttrId(0), Value::Literal(LiteralId(7))),
            (AttrId(1), Value::Ref(EntityId(3))),
            (AttrId(0), Value::Literal(LiteralId(8))),
        ];
        let attrs: Vec<AttrId> = pairs.iter().map(|&(a, _)| a).collect();
        let words: Vec<u32> = pairs.iter().map(|&(_, v)| v.word()).collect();
        let e = Entity::new(Symbol(0), &attrs, &words);
        assert!(e.pairs().eq(pairs));
        let lits: Vec<_> = e.literal_pairs().collect();
        let rels: Vec<_> = e.relation_pairs().collect();
        assert_eq!(lits, vec![(AttrId(0), LiteralId(7)), (AttrId(0), LiteralId(8))]);
        assert_eq!(rels, vec![(AttrId(1), EntityId(3))]);
        assert_eq!(e.triple_count(), 3);
    }

    #[test]
    fn a_value_word_is_the_id_and_the_kind() {
        for v in [Value::Literal(LiteralId(0)), Value::Ref(EntityId(0)), Value::Literal(LiteralId(u32::MAX >> 1)), Value::Ref(EntityId(7))] {
            assert_eq!(Value::from_word(v.word()), v);
        }
        assert_eq!(Value::Ref(EntityId(5)).word(), 0x8000_0005, "the .mkb layout");
        assert!(std::panic::catch_unwind(|| Value::Literal(LiteralId(1 << 31)).word()).is_err());
    }
}
