//! In-memory storage for a clean-clean ER task: two knowledge bases sharing
//! one interning space for tokens, literals, attributes and URIs.
//!
//! The shared interners are what make the whole framework schema-agnostic
//! *and* fast: a token appearing in both KBs maps to the same [`TokenId`], so
//! token blocking and value similarity never compare strings.

use std::sync::Arc;

use crate::disk::{Column, Mapping};
use crate::interner::{Interner, Symbol};
use crate::model::{AttrId, Entity, EntityId, LiteralId, Side, TokenId, Value};
use crate::rows::Rows;
use crate::tokenize::{for_each_normalized_token, normalize_into, uri_local_name};

/// One side's entities by URI. The pair's URI symbols are dense (one
/// interner numbers both sides' subjects and every URI object), so the map
/// is a vector indexed by symbol, [`UriIndex::NONE`] where the URI names no
/// entity of this side.
#[derive(Debug, Clone, Default)]
pub(crate) struct UriIndex(Vec<u32>);

impl UriIndex {
    const NONE: u32 = u32::MAX;

    /// The index of a URI column that names each URI once, every one below
    /// `n_uris` — else the first entity whose URI does not, and why.
    pub(crate) fn of_column(uris: &[Symbol], n_uris: usize) -> Result<Self, (usize, &'static str)> {
        let mut index = vec![Self::NONE; n_uris];
        for (e, &uri) in uris.iter().enumerate() {
            match index.get_mut(uri.0 as usize) {
                None => return Err((e, "uri symbol out of range")),
                Some(slot) if *slot != Self::NONE => return Err((e, "its uri names an earlier entity too")),
                Some(slot) => *slot = e as u32,
            }
        }
        Ok(Self(index))
    }

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
/// row tables, indexed by [`EntityId::index`] — in memory, or in place in a
/// mapped `.mkb` file ([`crate::disk`]).
#[derive(Debug, Clone)]
pub struct Kb {
    /// Each entity's interned URI.
    uris: Column<Symbol>,
    uri_index: UriIndex,
    /// Each entity's attributes, in insertion order: the attribute of each
    /// of its attribute–value pairs.
    attrs: Rows<AttrId>,
    /// The value of each pair as its [`Value::word`], item for item beside
    /// `attrs`.
    values: Column<u32>,
    /// Sorted, deduplicated token ids appearing in each entity's literals.
    token_sets: Rows<TokenId>,
    /// Total token *occurrences* per entity (multiset size — Table 1's
    /// "av. tokens" statistic counts occurrences, not distinct tokens).
    token_occurrences: Column<u32>,
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
    // bound: documented: `id` is an entity of this KB (`# Panics`), below
    // `len()`, the length of `uris`.
    #[allow(clippy::indexing_slicing)]
    pub fn entity(&self, id: EntityId) -> Entity<'_> {
        let e = id.index();
        let values = self.values.get(self.attrs.row_span(e)).unwrap_or_default();
        Entity::new(self.uris[e], self.attrs.row(e), values)
    }

    /// Iterates over `(EntityId, Entity)`, walking the columns in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (EntityId, Entity<'_>)> + Clone {
        let mut start = 0;
        let rows = (0..self.len() as u32).map(EntityId).zip(self.uris.iter().zip(self.attrs.iter()));
        rows.map(move |(id, (&uri, attrs))| {
            let end = start + attrs.len();
            let values = self.values.get(start..end).unwrap_or_default();
            start = end;
            (id, Entity::new(uri, attrs, values))
        })
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
    // bound: `id` is an entity of this KB: `token_occurrences` holds one word
    // per entity (`MkbFile::open` checks the column's length).
    #[allow(clippy::indexing_slicing)]
    pub fn token_occurrences_of(&self, id: EntityId) -> u32 {
        self.token_occurrences[id.index()]
    }

    /// The URI column, the attribute rows and the value words beside them,
    /// one row per entity — what [`crate::disk`] writes, and what the
    /// statistics walk as two flat columns.
    pub(crate) fn entity_columns(&self) -> (&[Symbol], &Rows<AttrId>, &[u32]) {
        (&self.uris, &self.attrs, &self.values)
    }

    /// The token-set rows and the token-occurrence column, likewise.
    pub(crate) fn token_columns(&self) -> (&Rows<TokenId>, &[u32]) {
        (&self.token_sets, &self.token_occurrences)
    }

    /// Total number of triples (attribute–value pairs) in the KB.
    pub fn triple_count(&self) -> usize {
        self.values.len()
    }

    /// The neighbors of an entity (targets of its relations), with
    /// duplicates if an entity is referenced via several relations.
    pub fn neighbors_of(&self, id: EntityId) -> impl Iterator<Item = EntityId> + '_ {
        self.entity(id).relation_pairs().map(|(_, n)| n)
    }

    /// Assembles a KB from validated columns — the `.mkb` path
    /// ([`crate::disk`]), which bypasses the builder's reference resolution
    /// and tokenization passes. The caller guarantees internal consistency
    /// (the disk loader checksums and bounds-checks first).
    pub(crate) fn from_columns(
        uris: Column<Symbol>,
        uri_index: UriIndex,
        attrs: Rows<AttrId>,
        values: Column<u32>,
        token_sets: Rows<TokenId>,
        token_occurrences: Column<u32>,
    ) -> Kb {
        Kb { uris, uri_index, attrs, values, token_sets, token_occurrences }
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
    /// The `.mkb` mapping the columns lie in, for a pair read in place.
    mapping: Option<Arc<Mapping>>,
}

impl KbPair {
    /// The KB on the given side.
    // bound: `side.index()` < 2.
    #[allow(clippy::indexing_slicing)]
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

    /// Takes the pages of the `.mkb` mapping this pair is read from out of
    /// the process's resident set. A later read faults back only the pages
    /// it touches, with the same bytes; call it where the pair's readers
    /// are done with its columns. A pair built in memory holds no mapping,
    /// and this does nothing.
    pub fn release_mapped_pages(&self) {
        if let Some(mapping) = &self.mapping {
            mapping.release_pages();
        }
    }

    /// Assembles a pair from columns in `mapping` — the `.mkb`
    /// materialization path ([`crate::disk`]).
    pub(crate) fn from_parts(
        [tokens, literals, attrs, uris]: [Interner; 4],
        literal_tokens: Rows<TokenId>,
        kbs: [Kb; 2],
        dirty: bool,
        mapping: Arc<Mapping>,
    ) -> KbPair {
        KbPair { tokens, literals, attrs, uris, literal_tokens, kbs, dirty, mapping: Some(mapping) }
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

/// Bytes in one segment of a [`ByteLog`], unless one record is longer.
const SEGMENT_BYTES: usize = 1 << 20;

/// An append-only byte log in segments of [`SEGMENT_BYTES`], each
/// allocated once at its full size: appending never moves what is already
/// stored, so the log grows without copying and leaves no freed buffer
/// behind. A record never straddles two segments, so each segment can be
/// read, and freed, on its own.
#[derive(Debug, Clone, Default)]
struct ByteLog(Vec<Vec<u8>>);

impl ByteLog {
    /// Appends one record of at most `len` bytes, which `write` pushes: to
    /// the last segment if `len` bytes fit what is left of it, else to a
    /// new one, of `len` bytes if that is longer than a segment.
    fn append(&mut self, len: usize, write: impl FnOnce(&mut Vec<u8>)) {
        match self.0.last_mut() {
            Some(segment) if segment.capacity() - segment.len() >= len => write(segment),
            _ => {
                let mut segment = Vec::with_capacity(len.max(SEGMENT_BYTES));
                write(&mut segment);
                self.0.push(segment);
            }
        }
    }
}

/// The longest [`PairLog`] record: three LEB128 varints of at most 35 bits.
const MAX_RECORD: usize = 15;

/// Appends `value` as an unsigned LEB128 varint: seven bits a byte, low
/// bits first, the high bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Reads the LEB128 varint at the front of `bytes` and moves past it.
fn take_varint(bytes: &mut std::slice::Iter<'_, u8>) -> u64 {
    let (mut value, mut shift) = (0u64, 0u32);
    for &byte in bytes.by_ref() {
        value |= u64::from(byte & 0x7f).wrapping_shl(shift);
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    value
}

/// The step from `from` to `to` as a zigzag word: a small step either way
/// is a small word (0, −1, 1, −2 … → 0, 1, 2, 3 …), and every `u32` pair
/// has one, taken modulo 2³².
fn zigzag(from: u32, to: u32) -> u32 {
    let step = to.wrapping_sub(from) as i32;
    ((step << 1) ^ (step >> 31)) as u32
}

/// Where the [`zigzag`] word `word` steps to from `from`.
fn unzigzag(from: u32, word: u32) -> u32 {
    let step = (word >> 1) as i32 ^ -((word & 1) as i32);
    from.wrapping_add(step as u32)
}

/// Every pair added to one side, in the order added, as one LEB128 record
/// each in a [`ByteLog`]:
///
/// 1. the [`zigzag`] step of the entity from the previous pair's — one byte
///    while a document lists a subject's lines together;
/// 2. `attr << 1 | is_uri`;
/// 3. for a URI object, its symbol; for a literal, the step of its
///    occurrence in the [`LiteralLog`] from the side's previous literal's.
///
/// A record is about 4 bytes where the row it stands for is 12.
#[derive(Debug, Clone, Default)]
struct PairLog {
    records: ByteLog,
    /// Pairs appended.
    len: usize,
    /// The entity of the last pair appended.
    last_entity: u32,
    /// The occurrence of the last literal appended.
    last_occurrence: u32,
}

impl PairLog {
    /// Appends a pair whose value is a `Ref` to a URI object's symbol, or a
    /// `Literal` holding its occurrence.
    fn append(&mut self, entity: EntityId, attr: AttrId, value: Value) {
        let (is_uri, id) = Value::split_word(value.word());
        let entity_step = zigzag(self.last_entity, entity.0);
        let object = if is_uri { id } else { id.wrapping_sub(self.last_occurrence) };
        self.records.append(MAX_RECORD, |out| {
            put_varint(out, u64::from(entity_step));
            put_varint(out, u64::from(attr.0) << 1 | u64::from(is_uri));
            put_varint(out, u64::from(object));
        });
        self.last_entity = entity.0;
        if !is_uri {
            self.last_occurrence = id;
        }
        self.len += 1;
    }

    /// Every pair in the order added, as `(entity, (attr, word))` with
    /// each literal's occurrence replaced by its id, `ids[occurrence]`;
    /// each segment is freed once it is read.
    fn decode(self, ids: &[u32]) -> Vec<(u32, (AttrId, u32))> {
        let mut pairs = Vec::with_capacity(self.len);
        let (mut entity, mut occurrence) = (0u32, 0u32);
        for segment in self.records.0 {
            let mut bytes = segment.iter();
            while !bytes.as_slice().is_empty() {
                entity = unzigzag(entity, take_varint(&mut bytes) as u32);
                let attr = take_varint(&mut bytes);
                let object = take_varint(&mut bytes) as u32;
                let value = if attr & 1 == 1 {
                    Value::Ref(EntityId(object))
                } else {
                    occurrence = occurrence.wrapping_add(object);
                    Value::Literal(LiteralId(ids.get(occurrence as usize).copied().unwrap_or(u32::MAX)))
                };
                pairs.push((entity, (AttrId((attr >> 1) as u32), value.word())));
            }
        }
        pairs
    }
}

/// One side of a [`KbPairBuilder`]: its entities, and every pair added to
/// the side, in the order added, which [`KbPairBuilder::finish`] groups by
/// entity. Until `finish` resolves them, a URI object is its symbol and a
/// literal its occurrence in the [`LiteralLog`].
#[derive(Debug, Clone, Default)]
struct SideColumns {
    /// Each entity's interned URI, by [`EntityId`].
    uris: Vec<Symbol>,
    uri_index: UriIndex,
    pairs: PairLog,
}

/// The normal form of every literal occurrence added, in the order added,
/// for [`KbPairBuilder::finish`] to intern: interned in that order, normal
/// forms get the ids they would have got had each been interned when it
/// was added.
#[derive(Debug, Default)]
struct LiteralLog {
    /// The normal forms, each ended by a NUL byte. [`normalize_into`]
    /// emits only alphanumerics and single spaces, so a normal form never
    /// holds one.
    normal_forms: ByteLog,
    /// Occurrences appended.
    occurrences: u32,
}

impl LiteralLog {
    /// Appends an occurrence of `normal`; returns its index as the id a
    /// literal holds until `finish`.
    ///
    /// # Panics
    /// Panics past `u32::MAX` occurrences, the width of the id — as
    /// [`Interner::intern`] does at its own limit: a counter that stopped
    /// there would give every later occurrence one id, and the pairs
    /// holding them another literal.
    fn append_literal(&mut self, normal: &str) -> LiteralId {
        assert!(self.occurrences < u32::MAX, "literal log overflow: more than u32::MAX literal occurrences");
        let occurrence = LiteralId(self.occurrences);
        self.normal_forms.append(normal.len() + 1, |out| {
            out.extend_from_slice(normal.as_bytes());
            out.push(0);
        });
        self.occurrences += 1;
        occurrence
    }

    /// Interns every occurrence in order, freeing each segment once it is
    /// read: the literal table, and each occurrence's [`LiteralId`] by
    /// occurrence.
    ///
    /// The table starts with room for half the occurrences, so that it
    /// doubles once at most where literals repeat less than twice on
    /// average, as on the benchmark's pairs (1.17 and 1.38 occurrences
    /// each), instead of some twenty times from empty — each doubling
    /// leaves the smaller copy behind as freed heap the process keeps.
    /// Where literals repeat more, it reserves more than their number
    /// needs: at most 8 bytes an occurrence of slots, and 4 of offset and
    /// hash capacity.
    fn into_interned(self) -> (Interner, Vec<u32>) {
        let LiteralLog { normal_forms, occurrences } = self;
        let mut literals = Interner::with_capacity(occurrences as usize / 2);
        let mut ids = Vec::with_capacity(occurrences as usize);
        for segment in normal_forms.0 {
            // Whole `&str`s and NUL bytes, so UTF-8.
            let segment = String::from_utf8(segment).unwrap_or_default();
            ids.extend(segment.split_terminator('\0').map(|normal| literals.intern(normal).0));
        }
        (literals, ids)
    }
}

/// The literal and token interners, and the token row of each literal
/// [`Self::tokenize_new_literals`] has reached.
#[derive(Debug, Default)]
struct LiteralTables {
    literals: Interner,
    tokens: Interner,
    literal_tokens: Rows<TokenId>,
}

impl LiteralTables {
    /// Normalizes `value` in `scratch` and interns it.
    fn intern_value(&mut self, value: &str, scratch: &mut String) -> LiteralId {
        normalize_into(value, scratch);
        LiteralId(self.literals.intern(scratch).0)
    }

    /// Gives every literal without a token row its row, in literal order —
    /// so token ids number tokens by first appearance in that order, as if
    /// each literal had been tokenized when first seen.
    fn tokenize_new_literals(&mut self) {
        let (literals, tokens, rows) = (&self.literals, &mut self.tokens, &mut self.literal_tokens);
        for lit in rows.n_rows()..literals.len() {
            let normalized = Interner::string(literals, Symbol(lit as u32)).unwrap_or_default();
            for_each_normalized_token(normalized, |token| rows.push(TokenId(tokens.intern(token).0)));
            rows.end_row();
        }
    }
}

/// Builder assembling a [`KbPair`] from triples or programmatic calls.
///
/// While documents are added the builder only appends bytes: each pair as
/// a record to its side's `PairLog` and each literal's normal form to the
/// `LiteralLog`. [`finish`] interns the literal log in the order it was
/// written, decodes each side's pairs once, then resolves entity
/// references: a URI object pointing at a subject of the same KB becomes a
/// [`Value::Ref`]; any other URI object is stored as a literal holding its
/// local name.
///
/// [`finish`]: KbPairBuilder::finish
#[derive(Debug, Default)]
pub struct KbPairBuilder {
    log: LiteralLog,
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
    scratch: String,
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
            Term::Literal(s) => {
                normalize_into(s, &mut self.scratch);
                Value::Literal(self.log.append_literal(&self.scratch))
            }
            Term::Uri(u) => Value::Ref(EntityId(self.uris.intern(u).0)),
        };
        let columns = self.side_mut(side);
        assert!(entity.index() < columns.uris.len(), "{entity:?} is not an entity of {side:?}");
        columns.pairs.append(entity, attr, value);
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
        let (literals, ids) = std::mem::take(&mut self.log).into_interned();
        self.lits.literals = literals;
        let [left, right] = &mut self.sides;
        let added = [left, right].map(|columns| std::mem::take(&mut columns.pairs).decode(&ids));
        // Freed before the token rows and the KBs are built, which can
        // then take its place in the heap.
        drop(ids);
        self.lits.tokenize_new_literals();
        let [left_added, right_added] = added;
        let left = self.build_kb(Side::Left, left_added);
        let right = self.build_kb(Side::Right, right_added);
        let LiteralTables { mut literals, tokens, literal_tokens } = self.lits;
        // Nothing after the build looks a literal up by its string; a
        // caller who does gets the lookup rebuilt.
        literals.release_lookup();
        let (attrs, uris) = (self.attrs, self.uris);
        KbPair { tokens, literals, attrs, uris, literal_tokens, kbs: [left, right], dirty: false, mapping: None }
    }

    /// Resolves one side's pairs, `added` in the order added, into a
    /// finished [`Kb`].
    fn build_kb(&mut self, side: Side, added: Vec<(u32, (AttrId, u32))>) -> Kb {
        let SideColumns { uris, uri_index, .. } = std::mem::take(self.side_mut(side));

        // Pass 1: group the pairs by entity — a stable sort, so each
        // entity keeps its pairs in the order they were added — then
        // resolve URI objects to entity refs where possible, in entity
        // order. A URI that is not a subject in this KB contributes its
        // local name as a literal (it still carries token evidence).
        let grouped = Rows::build(uris.len(), added.iter().map(|&(entity, pair)| (entity as usize, pair)));
        drop(added);
        let (lits, names, scratch) = (&mut self.lits, &self.uris, &mut self.scratch);
        let mut values = Vec::with_capacity(grouped.n_items());
        let attrs: Rows<AttrId> = grouped.map(|(attr, word)| {
            let value = match Value::from_word(word) {
                Value::Ref(EntityId(uri)) => match uri_index.get(Symbol(uri)) {
                    Some(id) => Value::Ref(id),
                    None => Value::Literal(lits.intern_value(uri_local_name(names.resolve(Symbol(uri))), scratch)),
                },
                literal => literal,
            };
            values.push(value.word());
            attr
        });
        // The local names just interned have no token rows yet.
        self.lits.tokenize_new_literals();

        // Pass 2: per-entity token sets (sorted + dedup) and occurrence
        // counts, derived from the literal token sequences.
        let mut token_sets = Rows::with_capacity(uris.len(), 0);
        let mut token_occurrences = Vec::with_capacity(uris.len());
        let mut toks: Vec<TokenId> = Vec::new();
        let mut start = 0;
        for end in attrs.offsets().skip(1) {
            toks.clear();
            for &word in values.get(start..end as usize).unwrap_or_default() {
                if let Value::Literal(lit) = Value::from_word(word) {
                    toks.extend_from_slice(self.lits.literal_tokens.row(lit.index()));
                }
            }
            start = end as usize;
            token_occurrences.push(toks.len() as u32);
            toks.sort_unstable();
            toks.dedup();
            token_sets.push_row(toks.iter().copied());
        }

        Kb::from_columns(
            Column::owned(uris),
            uri_index,
            attrs,
            Column::owned(values),
            token_sets,
            Column::owned(token_occurrences),
        )
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

    /// The last id the occurrence counter can give is `u32::MAX - 1`; the
    /// occurrence after it fails loudly instead of reusing an id.
    #[test]
    #[should_panic(expected = "literal log overflow")]
    fn the_literal_log_fails_loudly_past_its_last_id() {
        let mut log = LiteralLog { occurrences: u32::MAX - 1, ..LiteralLog::default() };
        assert_eq!(log.append_literal("a"), LiteralId(u32::MAX - 1));
        assert_eq!(log.occurrences, u32::MAX);
        log.append_literal("b");
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
    fn varints_round_trip_at_every_width_edge() {
        let cases: [(u64, usize); 10] = [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            ((1 << 21) - 1, 3),
            ((1 << 21) + 1, 4),
            (1 << 28, 5),
            (u64::from(u32::MAX), 5),
            (u64::from(u32::MAX) << 1 | 1, 5),
        ];
        let mut out = Vec::new();
        for &(value, width) in &cases {
            let start = out.len();
            put_varint(&mut out, value);
            assert_eq!(out.len() - start, width, "{value} is {width} bytes");
        }
        let mut bytes = out.iter();
        for &(value, _) in &cases {
            assert_eq!(take_varint(&mut bytes), value);
        }
        assert!(bytes.as_slice().is_empty());
    }

    #[test]
    fn zigzag_steps_round_trip_and_wrap() {
        let steps = [
            (5, 4, 1),
            (4, 5, 2),
            (7, 7, 0),
            (0, u32::MAX, 1),
            (u32::MAX, 0, 2),
            (0, 1 << 31, u32::MAX),
            ((1 << 31) - 1, 0, u32::MAX - 2),
            (0, (1 << 31) - 1, u32::MAX - 1),
            (1 << 31, 0, u32::MAX),
        ];
        for (from, to, word) in steps {
            assert_eq!(zigzag(from, to), word, "{from} → {to}");
            assert_eq!(unzigzag(from, word), to, "{from} → {to}");
        }
    }

    #[test]
    fn pair_records_decode_in_the_order_added_across_segments() {
        // Steps of every width either way; enough records for three segments.
        let mut log = PairLog::default();
        let mut added = Vec::new();
        let (mut entity, mut occurrence) = (0u32, 0u32);
        for k in 0u32..300_000 {
            entity = entity.wrapping_add(k.wrapping_mul(2_654_435_761) >> (k % 32));
            let attr = AttrId(k.wrapping_mul(40_503) >> (k % 32) & 0x7fff_ffff);
            let value = if k % 3 == 0 {
                Value::Ref(EntityId(k.wrapping_mul(97) >> (k % 8)))
            } else {
                // Mostly forward, now and then back past the start.
                occurrence = (occurrence + 1 + (k % 7) * (k % 5) * 20_000) % 1_000_000;
                Value::Literal(LiteralId(occurrence))
            };
            log.append(EntityId(entity), attr, value);
            added.push((entity, attr, value));
        }
        assert!(log.records.0.len() >= 3, "{} segments", log.records.0.len());
        assert!(log.records.0.iter().all(|segment| segment.capacity() == SEGMENT_BYTES));
        // Occurrence `o` has id `o + 1`, so a wrong occurrence shows.
        let ids: Vec<u32> = (1..=1_000_000).collect();
        let want: Vec<(u32, (AttrId, u32))> = added
            .iter()
            .map(|&(entity, attr, value)| {
                let value = match value {
                    Value::Literal(LiteralId(o)) => Value::Literal(LiteralId(o + 1)),
                    uri => uri,
                };
                (entity, (attr, value.word()))
            })
            .collect();
        assert_eq!(log.decode(&ids), want);
    }

    #[test]
    fn literal_log_interns_by_first_sight_across_segments() {
        let mut log = LiteralLog::default();
        let long = "x".repeat(SEGMENT_BYTES + 3);
        let forms = ["", "a b", "", &long, "a b", "c", ""];
        for (k, form) in forms.iter().enumerate() {
            assert_eq!(log.append_literal(form), LiteralId(k as u32));
        }
        // The long one has a segment of its own, NUL included.
        let capacities: Vec<usize> = log.normal_forms.0.iter().map(Vec::capacity).collect();
        assert_eq!(capacities, [SEGMENT_BYTES, SEGMENT_BYTES + 4, SEGMENT_BYTES]);
        let (literals, ids) = log.into_interned();
        assert_eq!(ids, [0, 1, 0, 2, 1, 3, 0]);
        assert_eq!(literals.iter().map(|(_, s)| s.len()).collect::<Vec<_>>(), [0, 3, SEGMENT_BYTES + 3, 1]);
    }

    #[test]
    fn the_literal_lookup_is_released_and_rebuilt_on_demand() {
        let pair = sample_pair();
        assert!(!pair.literals().has_lookup(), "finish releases the literal lookup");
        assert!(pair.tokens().has_lookup() && pair.uris().has_lookup());
        assert_eq!(pair.literals().get("jonny lake").map(|l| pair.literals().resolve(l)), Some("jonny lake"));
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
