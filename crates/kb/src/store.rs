//! In-memory storage for a clean-clean ER task: two knowledge bases sharing
//! one interning space for tokens, literals, attributes and URIs.
//!
//! The shared interners are what make the whole framework schema-agnostic
//! *and* fast: a token appearing in both KBs maps to the same [`TokenId`], so
//! token blocking and value similarity never compare strings.

use crate::interner::{Interner, Symbol};
use crate::model::{AttrId, Entity, EntityId, LiteralId, Side, TokenId, Value};
use crate::rows::Rows;
use crate::tokenize::{for_each_normalized_token, normalize_into, uri_local_name};

/// One side's entities by URI. The pair's URI symbols are dense (one
/// interner numbers both sides' subjects and every URI object), so the map
/// is a vector indexed by symbol, [`UriIndex::NONE`] where the URI names no
/// entity of this side.
#[derive(Debug, Clone, Default)]
struct UriIndex(Vec<u32>);

impl UriIndex {
    const NONE: u32 = u32::MAX;

    fn get(&self, uri: Symbol) -> Option<EntityId> {
        self.0.get(uri.index()).copied().filter(|&id| id != Self::NONE).map(EntityId)
    }

    fn insert(&mut self, uri: Symbol, id: EntityId) {
        if self.0.len() <= uri.index() {
            self.0.resize(uri.index() + 1, Self::NONE);
        }
        if let Some(slot) = self.0.get_mut(uri.index()) {
            *slot = id.0;
        }
    }
}

/// One clean (duplicate-free) knowledge base: flat per-entity columns and
/// row tables, indexed by [`EntityId::index`].
#[derive(Debug)]
pub struct Kb {
    /// Each entity's interned URI.
    uris: Vec<Symbol>,
    /// Each entity's attribute–value pairs, in insertion order.
    pairs: Rows<(AttrId, Value)>,
    uri_index: UriIndex,
    /// Sorted, deduplicated token ids appearing in each entity's literals.
    token_sets: Rows<TokenId>,
    /// Total token *occurrences* per entity (multiset size — Table 1's
    /// "av. tokens" statistic counts occurrences, not distinct tokens).
    token_occurrences: Vec<u32>,
}

impl Kb {
    /// Number of entity descriptions.
    pub fn len(&self) -> usize {
        self.uris.len()
    }

    /// Whether the KB holds no descriptions.
    pub fn is_empty(&self) -> bool {
        self.uris.is_empty()
    }

    /// The entity with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn entity(&self, id: EntityId) -> Entity<'_> {
        Entity { uri: self.uris[id.index()], pairs: self.pairs.row(id.index()) }
    }

    /// Iterates over `(EntityId, Entity)`.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, Entity<'_>)> {
        let entities = self.uris.iter().zip(self.pairs.iter()).map(|(&uri, pairs)| Entity { uri, pairs });
        (0u32..).map(EntityId).zip(entities)
    }

    /// Looks an entity up by its interned URI.
    pub fn entity_by_uri(&self, uri: Symbol) -> Option<EntityId> {
        self.uri_index.get(uri)
    }

    /// The sorted, deduplicated tokens of an entity's literal values.
    pub fn tokens_of(&self, id: EntityId) -> &[TokenId] {
        self.token_sets.row(id.index())
    }

    /// Every entity's token set, one row per entity — the column token
    /// blocking inverts.
    pub fn token_sets(&self) -> &Rows<TokenId> {
        &self.token_sets
    }

    /// Total token occurrences in the entity's literal values.
    pub fn token_occurrences_of(&self, id: EntityId) -> u32 {
        self.token_occurrences[id.index()]
    }

    /// The URI column and the pair rows, one row per entity — what
    /// [`crate::disk`] writes.
    pub(crate) fn entity_columns(&self) -> (&[Symbol], &Rows<(AttrId, Value)>) {
        (&self.uris, &self.pairs)
    }

    /// The token-set rows and the token-occurrence column, likewise.
    pub(crate) fn token_columns(&self) -> (&Rows<TokenId>, &[u32]) {
        (&self.token_sets, &self.token_occurrences)
    }

    /// Total number of triples (attribute–value pairs) in the KB.
    pub fn triple_count(&self) -> usize {
        self.pairs.data().len()
    }

    /// The neighbors of an entity (targets of its relations), with
    /// duplicates if an entity is referenced via several relations.
    pub fn neighbors_of(&self, id: EntityId) -> impl Iterator<Item = EntityId> + '_ {
        self.entity(id).relation_pairs().map(|(_, n)| n)
    }

    /// Assembles a KB from pre-resolved columns — the `.mkb` materialization
    /// path ([`crate::disk`]), which bypasses the builder's reference
    /// resolution and tokenization passes. The caller guarantees internal
    /// consistency (the disk loader checksums and bounds-checks first).
    pub(crate) fn from_parts(
        uris: Vec<Symbol>,
        pairs: Rows<(AttrId, Value)>,
        token_sets: Rows<TokenId>,
        token_occurrences: Vec<u32>,
    ) -> Kb {
        let mut uri_index = UriIndex::default();
        for (id, &uri) in (0u32..).map(EntityId).zip(&uris) {
            uri_index.insert(uri, id);
        }
        Kb { uris, pairs, uri_index, token_sets, token_occurrences }
    }
}

/// A pair of clean KBs plus the shared interning space.
#[derive(Debug)]
pub struct KbPair {
    tokens: Interner,
    literals: Interner,
    attrs: Interner,
    uris: Interner,
    /// Token sequence (order and duplicates preserved) of each normalized
    /// literal, indexed by [`LiteralId`]. Order is needed by the n-gram
    /// baselines; MinoanER itself only uses the deduplicated sets.
    literal_tokens: Rows<TokenId>,
    kbs: [Kb; 2],
    /// Dirty-ER marker: both sides are views of the *same* KB, with equal
    /// [`EntityId`]s denoting the same description (see
    /// [`crate::dirty::DirtyKbBuilder`]).
    dirty: bool,
}

impl KbPair {
    /// The KB on the given side.
    pub fn kb(&self, side: Side) -> &Kb {
        &self.kbs[side.index()]
    }

    /// The side whose KB has fewer entities (ties go to `Left`). Rule R2 of
    /// the matcher scans the smaller KB for efficiency (§4).
    pub fn smaller_side(&self) -> Side {
        if self.kb(Side::Left).len() <= self.kb(Side::Right).len() {
            Side::Left
        } else {
            Side::Right
        }
    }

    /// Token interner (token string ↔ [`TokenId`]).
    pub fn tokens(&self) -> &Interner {
        &self.tokens
    }

    /// Literal interner (normalized literal ↔ [`LiteralId`]).
    pub fn literals(&self) -> &Interner {
        &self.literals
    }

    /// Attribute interner (attribute name ↔ [`AttrId`]).
    pub fn attrs(&self) -> &Interner {
        &self.attrs
    }

    /// URI interner.
    pub fn uris(&self) -> &Interner {
        &self.uris
    }

    /// The token sequence of a normalized literal.
    pub fn literal_token_seq(&self, lit: LiteralId) -> &[TokenId] {
        self.literal_tokens.row(lit.index())
    }

    /// The token sequences of all literals, one row per [`LiteralId`].
    pub(crate) fn literal_tokens(&self) -> &Rows<TokenId> {
        &self.literal_tokens
    }

    /// Number of distinct tokens across both KBs.
    pub fn token_space(&self) -> usize {
        self.tokens.len()
    }

    /// Number of distinct attributes across both KBs.
    pub fn attr_space(&self) -> usize {
        self.attrs.len()
    }

    /// Number of distinct normalized literals across both KBs.
    pub fn literal_space(&self) -> usize {
        self.literals.len()
    }

    /// Resolves the URI of an entity to its string form.
    pub fn uri_of(&self, side: Side, id: EntityId) -> &str {
        self.uris.resolve(self.kb(side).entity(id).uri)
    }

    /// Whether this pair is a *dirty-ER* self-pair: both sides view the
    /// same KB, and equal ids refer to the same description. Blocking and
    /// matching skip identity pairs in that case (§2 of the paper notes
    /// clean-clean techniques "can be easily generalized to … a single
    /// dirty KB").
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Marks the pair as a dirty-ER self-pair. Used by
    /// [`crate::dirty::DirtyKbBuilder`]; both sides must hold the same
    /// descriptions in the same order.
    pub(crate) fn mark_dirty(&mut self) {
        assert_eq!(
            self.kbs[0].len(),
            self.kbs[1].len(),
            "a dirty pair must mirror the same KB on both sides"
        );
        self.dirty = true;
    }

    /// Assembles a pair from pre-built components — the `.mkb`
    /// materialization path ([`crate::disk`]).
    pub(crate) fn from_parts(
        tokens: Interner,
        literals: Interner,
        attrs: Interner,
        uris: Interner,
        literal_tokens: Rows<TokenId>,
        kbs: [Kb; 2],
        dirty: bool,
    ) -> KbPair {
        KbPair { tokens, literals, attrs, uris, literal_tokens, kbs, dirty }
    }
}

/// Object term of a triple being added to a [`KbPairBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term<'a> {
    /// A literal value.
    Literal(&'a str),
    /// A URI. If it identifies an entity of the same KB it becomes a
    /// relation edge; otherwise its local name is stored as a literal.
    Uri(&'a str),
}

/// A pair's value before [`KbPairBuilder::finish`] resolves URI objects.
#[derive(Debug, Clone, Copy)]
enum RawValue {
    Literal(LiteralId),
    UriRef(Symbol),
}

/// What [`Rows::build`] fills its column with before it scatters.
impl Default for RawValue {
    fn default() -> Self {
        RawValue::Literal(LiteralId(0))
    }
}

/// One side of a [`KbPairBuilder`]: its entities, and every pair added to
/// the side as one column in the order added, which
/// [`KbPairBuilder::finish`] groups by entity.
#[derive(Debug, Clone, Default)]
struct SideColumns {
    /// Each entity's interned URI, by [`EntityId`].
    uris: Vec<Symbol>,
    uri_index: UriIndex,
    pairs: Vec<(EntityId, AttrId, RawValue)>,
}

/// The literal and token interners, and each literal's token sequence.
#[derive(Debug, Default)]
struct LiteralTables {
    literals: Interner,
    tokens: Interner,
    literal_tokens: Rows<TokenId>,
}

/// A literal's normal form and, if it is ASCII, its token ends
/// ([`normalize_into`]): the buffers the builder normalizes one literal
/// into, reused for every literal.
#[derive(Debug, Default)]
struct Normalized {
    text: String,
    ends: Vec<usize>,
}

impl LiteralTables {
    /// Normalizes `value` in `scratch` and interns it. A literal seen for
    /// the first time gets its token row: the spans its token ends mark
    /// when it is ASCII, [`for_each_normalized_token`]'s tokens when it is
    /// not.
    fn intern_value(&mut self, value: &str, scratch: &mut Normalized) -> LiteralId {
        let ascii = normalize_into(value, &mut scratch.text, &mut scratch.ends);
        let normalized = scratch.text.as_str();
        let before = self.literals.len();
        let sym = self.literals.intern(normalized);
        if self.literals.len() > before {
            let (tokens, row) = (&mut self.tokens, &mut self.literal_tokens);
            let mut push = |token: &str| row.push(TokenId(tokens.intern(token).0));
            if ascii {
                let mut start = 0;
                for &end in &scratch.ends {
                    if let Some(token) = normalized.get(start..end) {
                        push(token);
                    }
                    // Tokens are one space apart.
                    start = end + 1;
                }
            } else {
                for_each_normalized_token(normalized, push);
            }
            self.literal_tokens.end_row();
        }
        LiteralId(sym.0)
    }
}

/// Builder assembling a [`KbPair`] from triples or programmatic calls.
///
/// Entity references are resolved in a second pass at [`finish`]: a URI
/// object pointing at a subject of the same KB becomes a [`Value::Ref`];
/// any other URI object is stored as a literal holding its local name.
///
/// [`finish`]: KbPairBuilder::finish
#[derive(Debug, Default)]
pub struct KbPairBuilder {
    lits: LiteralTables,
    attrs: Interner,
    uris: Interner,
    sides: [SideColumns; 2],
    /// The entity [`Self::entity`] returned last. A document lists an
    /// entity's triples together, so the next call usually names the same
    /// one and is answered by one string comparison instead of two table
    /// probes.
    last_entity: Option<(Side, Symbol, EntityId)>,
    /// The literal being normalized.
    scratch: Normalized,
}

impl KbPairBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn side_mut(&mut self, side: Side) -> &mut SideColumns {
        let [left, right] = &mut self.sides;
        match side {
            Side::Left => left,
            Side::Right => right,
        }
    }

    /// Registers (or retrieves) the entity with the given URI on `side`.
    pub fn entity(&mut self, side: Side, uri: &str) -> EntityId {
        if let Some((last_side, last_uri, last)) = self.last_entity {
            if last_side == side && self.uris.holds(last_uri, uri) {
                return last;
            }
        }
        let sym = self.uris.intern(uri);
        let columns = self.side_mut(side);
        let id = columns.uri_index.get(sym).unwrap_or_else(|| {
            let id = EntityId(columns.uris.len() as u32);
            columns.uris.push(sym);
            columns.uri_index.insert(sym, id);
            id
        });
        self.last_entity = Some((side, sym, id));
        id
    }

    /// Adds one attribute–value pair to an existing entity.
    ///
    /// # Panics
    /// Panics if `entity` is not an entity of `side`.
    pub fn add_pair(&mut self, side: Side, entity: EntityId, attr: &str, object: Term<'_>) {
        let attr = AttrId(self.attrs.intern(attr).0);
        let value = match object {
            Term::Literal(s) => RawValue::Literal(self.lits.intern_value(s, &mut self.scratch)),
            Term::Uri(u) => RawValue::UriRef(self.uris.intern(u)),
        };
        let columns = self.side_mut(side);
        assert!(entity.index() < columns.uris.len(), "{entity:?} is not an entity of {side:?}");
        columns.pairs.push((entity, attr, value));
    }

    /// Convenience: registers the subject if needed and adds the triple.
    pub fn add_triple(&mut self, side: Side, subject: &str, predicate: &str, object: Term<'_>) {
        let e = self.entity(side, subject);
        self.add_pair(side, e, predicate, object);
    }

    /// Copies the left side onto the right — what a dirty builder, which
    /// adds every triple to the left side only, does before it finishes.
    pub(crate) fn mirror_left(&mut self) {
        let [left, right] = &mut self.sides;
        *right = left.clone();
    }

    /// Resolves references and produces the immutable [`KbPair`].
    pub fn finish(mut self) -> KbPair {
        let left = self.build_kb(Side::Left);
        let right = self.build_kb(Side::Right);
        let LiteralTables { literals, tokens, literal_tokens } = self.lits;
        KbPair { tokens, literals, attrs: self.attrs, uris: self.uris, literal_tokens, kbs: [left, right], dirty: false }
    }

    /// Resolves one side's pairs into a finished [`Kb`].
    fn build_kb(&mut self, side: Side) -> Kb {
        let SideColumns { uris, uri_index, pairs: added } = std::mem::take(self.side_mut(side));

        // Pass 1: group the pairs by entity — a stable sort, so each
        // entity keeps its pairs in the order they were added — then
        // resolve URI objects to entity refs where possible, in entity
        // order. A URI that is not a subject in this KB contributes its
        // local name as a literal (it still carries token evidence).
        let grouped = Rows::build(uris.len(), added.iter().map(|&(EntityId(entity), attr, value)| (entity as usize, (attr, value))));
        drop(added);
        let (lits, names, scratch) = (&mut self.lits, &self.uris, &mut self.scratch);
        let pairs = grouped.map(|(attr, value)| {
            let value = match value {
                RawValue::Literal(l) => Value::Literal(l),
                RawValue::UriRef(sym) => match uri_index.get(sym) {
                    Some(id) => Value::Ref(id),
                    None => Value::Literal(lits.intern_value(uri_local_name(names.resolve(sym)), scratch)),
                },
            };
            (attr, value)
        });

        // Pass 2: per-entity token sets (sorted + dedup) and occurrence
        // counts, derived from the literal token sequences.
        let mut token_sets = Rows::with_capacity(uris.len(), 0);
        let mut token_occurrences = Vec::with_capacity(uris.len());
        let mut toks: Vec<TokenId> = Vec::new();
        for row in pairs.iter() {
            toks.clear();
            for &(_, value) in row {
                if let Value::Literal(lit) = value {
                    toks.extend_from_slice(self.lits.literal_tokens.row(lit.index()));
                }
            }
            token_occurrences.push(toks.len() as u32);
            toks.sort_unstable();
            toks.dedup();
            token_sets.push_row(toks.iter().copied());
        }

        Kb { uris, pairs, uri_index, token_sets, token_occurrences }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pair() -> KbPair {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "w:Restaurant1", "w:label", Term::Literal("The Fat Duck"));
        b.add_triple(Side::Left, "w:Restaurant1", "w:hasChef", Term::Uri("w:JohnLakeA"));
        b.add_triple(Side::Left, "w:JohnLakeA", "w:label", Term::Literal("John Lake A"));
        b.add_triple(Side::Right, "d:Restaurant2", "d:name", Term::Literal("Fat Duck Bray"));
        b.add_triple(Side::Right, "d:Restaurant2", "d:headChef", Term::Uri("d:JonnyLake"));
        b.add_triple(Side::Right, "d:JonnyLake", "d:name", Term::Literal("Jonny Lake"));
        b.finish()
    }

    #[test]
    fn builder_counts_entities_and_triples() {
        let pair = sample_pair();
        assert_eq!(pair.kb(Side::Left).len(), 2);
        assert_eq!(pair.kb(Side::Right).len(), 2);
        assert_eq!(pair.kb(Side::Left).triple_count(), 3);
        assert_eq!(pair.kb(Side::Right).triple_count(), 3);
    }

    #[test]
    fn uri_objects_become_refs_when_subject_exists() {
        let pair = sample_pair();
        let kb = pair.kb(Side::Left);
        let r1 = kb.entity_by_uri(pair.uris().get("w:Restaurant1").unwrap()).unwrap();
        let neighbors: Vec<_> = kb.neighbors_of(r1).collect();
        assert_eq!(neighbors.len(), 1);
        let chef = neighbors[0];
        assert_eq!(pair.uri_of(Side::Left, chef), "w:JohnLakeA");
    }

    #[test]
    fn dangling_uri_objects_become_local_name_literals() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "w:E", "w:country", Term::Uri("http://ex.org/resource/United_Kingdom"));
        b.add_triple(Side::Right, "d:X", "d:p", Term::Literal("x"));
        let pair = b.finish();
        let kb = pair.kb(Side::Left);
        let e = kb.entity_by_uri(pair.uris().get("w:E").unwrap()).unwrap();
        assert_eq!(kb.neighbors_of(e).count(), 0);
        // local name "United_Kingdom" tokenizes to {united, kingdom}
        let toks: Vec<&str> = kb
            .tokens_of(e)
            .iter()
            .map(|t| pair.tokens().resolve(crate::interner::Symbol(t.0)))
            .collect();
        let mut toks = toks;
        toks.sort_unstable();
        assert_eq!(toks, vec!["kingdom", "united"]);
    }

    #[test]
    fn token_sets_are_sorted_dedup_and_shared_across_kbs() {
        let pair = sample_pair();
        let l = pair.kb(Side::Left);
        let r = pair.kb(Side::Right);
        let r1 = l.entity_by_uri(pair.uris().get("w:Restaurant1").unwrap()).unwrap();
        let r2 = r.entity_by_uri(pair.uris().get("d:Restaurant2").unwrap()).unwrap();
        let t1 = l.tokens_of(r1);
        let t2 = r.tokens_of(r2);
        assert!(t1.windows(2).all(|w| w[0] < w[1]));
        // "fat" and "duck" are shared tokens; ids must be comparable across KBs.
        let shared: Vec<_> = t1.iter().filter(|t| t2.contains(t)).collect();
        assert_eq!(shared.len(), 2);
    }

    #[test]
    fn token_occurrences_count_multiset_size() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "a", "p", Term::Literal("x x y"));
        b.add_triple(Side::Right, "b", "p", Term::Literal("z"));
        let pair = b.finish();
        let kb = pair.kb(Side::Left);
        let e = kb.entity_by_uri(pair.uris().get("a").unwrap()).unwrap();
        assert_eq!(kb.token_occurrences_of(e), 3);
        assert_eq!(kb.tokens_of(e).len(), 2);
    }

    #[test]
    fn literal_interning_is_normalized() {
        let mut b = KbPairBuilder::new();
        let e = b.entity(Side::Left, "a");
        b.add_pair(Side::Left, e, "p", Term::Literal("J.  Lake"));
        b.add_pair(Side::Left, e, "q", Term::Literal("j lake"));
        b.add_triple(Side::Right, "b", "p", Term::Literal("other"));
        let pair = b.finish();
        // Both spellings normalize to "j lake" and intern to one literal.
        assert!(pair.literals().get("j lake").is_some());
        assert_eq!(pair.literal_space(), 2);
    }

    #[test]
    fn smaller_side_detection() {
        let pair = sample_pair();
        assert_eq!(pair.smaller_side(), Side::Left);
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "a", "p", Term::Literal("x"));
        b.add_triple(Side::Left, "b", "p", Term::Literal("x"));
        b.add_triple(Side::Right, "c", "p", Term::Literal("x"));
        assert_eq!(b.finish().smaller_side(), Side::Right);
    }

    #[test]
    fn entity_registration_is_idempotent() {
        let mut b = KbPairBuilder::new();
        let e1 = b.entity(Side::Left, "same");
        let e2 = b.entity(Side::Left, "same");
        assert_eq!(e1, e2);
        // Same URI on the other side is a *different* entity.
        let e3 = b.entity(Side::Right, "same");
        assert_eq!(e3, EntityId(0));
    }

    #[test]
    fn literal_token_seq_preserves_order_and_duplicates() {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "a", "p", Term::Literal("to be or not to be"));
        b.add_triple(Side::Right, "b", "p", Term::Literal("be"));
        let pair = b.finish();
        let lit = LiteralId(pair.literals().get("to be or not to be").unwrap().0);
        let seq = pair.literal_token_seq(lit);
        assert_eq!(seq.len(), 6);
        assert_eq!(seq[0], seq[4]); // "to" repeats
        assert_eq!(seq[1], seq[5]); // "be" repeats
    }
}
