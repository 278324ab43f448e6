//! The disjunctive blocking graph (§3.2–3.3, Algorithm 1).
//!
//! Nodes are the entity descriptions of both KBs; an edge connects a
//! candidate pair and carries three weights: `α` (1 iff the pair co-occurs
//! alone in a name block), `β` (value similarity, computed from token-block
//! sizes), and `γ` (neighbor similarity, aggregated from the `β` weights of
//! the pair's top in-neighbors). Per node, only the K strongest edges by
//! `β` and the K strongest by `γ` survive pruning, turning the undirected
//! graph into a directed one — the input of the matching rules R1–R4.
//!
//! As in the paper (Example 3.5), the graph is never materialized as an
//! explicit edge list: it is represented by per-node candidate lists
//! retrieved from the blocking indices.
//!
//! # Kernel layout (see DESIGN.md §11)
//!
//! * Every table — block → members, entity → blocks, top-N and in-neighbour
//!   views, the β-union edges and their transpose, and the graph's four
//!   candidate tables — is one [`minoaner_kb::Rows`]: two flat columns
//!   shared read-only across tasks, never a `Vec` per row. A stage sharded
//!   by row range returns one `Rows` part per task and [`Rows::parted`]
//!   keeps them as they are — row `k` is in part `k / chunk` — so no stage
//!   output is ever copied into a second, joined table.
//! * Per-entity weight aggregation uses an epoch-stamped dense
//!   sparse-accumulator ([`crate::accum::SparseAccumulator`]); it and the
//!   rank-key buffer belong to the **worker** (`KernelScratch`), not the
//!   task, so a row costs no allocation: its live entries are ranked as
//!   packed integer keys (`rank_key`; `select_nth_unstable_by` when a row
//!   exceeds K) in that buffer and decoded straight into the task's `Rows`
//!   part.
//! * The γ pass runs one row kernel over both sides' rows — left rows walk
//!   the β-union edges by left endpoint, right rows the transposed view, the
//!   only thing exchanged. Each γ cell is one flat sum over the β edges
//!   sorted by `(i, j)`, so the result is bit-identical for every worker
//!   count — and across runs, since no randomly-seeded container is involved.
//!
//! The pre-rewrite kernel is preserved verbatim in `crate::reference`
//! (compiled for tests only); the seeded oracles and equivalence loops
//! pin this kernel to it with exact `f64` equality.

use std::cmp::Ordering;
use std::sync::atomic::{self, AtomicUsize};
use std::sync::{Mutex, PoisonError, RwLock};

use minoaner_dataflow::{Executor, SpillShuffle, StageIo};
use minoaner_det::codec::Spillable;
use minoaner_det::{lock, spillable_struct};
use minoaner_kb::stats::RelationStats;
use minoaner_kb::{EntityId, KbPair, Rows, Side};

use crate::accum::SparseAccumulator;
use crate::block::{NameBlocks, TokenBlocks};
use crate::name::{alpha_pairs, alpha_pairs_dirty};

/// Configuration of graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphConfig {
    /// `K`: candidates kept per entity, separately for value and neighbor
    /// evidence (paper default 15).
    pub top_k: usize,
    /// `N`: most important relations per entity used for neighbor evidence
    /// (paper default 3).
    pub n_relations: usize,
    /// Adaptive pruning — the extension sketched in the paper's
    /// conclusion ("set the parameters of pruning candidate pairs
    /// dynamically, based on the local similarity distributions of each
    /// node's candidates"): instead of a fixed top-K cut, each node keeps
    /// the candidates whose weight stands out from its own candidate
    /// distribution (≥ mean + ½·stddev), still capped at `top_k`.
    pub adaptive_pruning: bool,
}

impl Default for GraphConfig {
    fn default() -> Self {
        Self { top_k: 15, n_relations: 3, adaptive_pruning: false }
    }
}

/// A candidate on the other side, with the evidence weight that ranked it.
///
/// The one `(id, weight)` row of the graph: its four candidate tables, and
/// the β-union edges by either endpoint in the γ exchange (the far endpoint
/// and the edge's β). Twelve bytes, the id then the weight at offset 4,
/// where an `(EntityId, f64)` tuple takes sixteen, four of them padding.
/// The fields are read by value only, so the packing hands out no unaligned
/// reference. Its [`Spillable`] bytes must stay the tuple's: checkpoint
/// parts and the run fingerprint's version depend on them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[repr(C, packed(4))]
pub struct Candidate {
    id: EntityId,
    weight: f64,
}

const _: () = assert!(std::mem::size_of::<Candidate>() == 12);

impl Candidate {
    /// The candidate `id` with weight `weight`.
    #[inline]
    pub const fn new(id: EntityId, weight: f64) -> Self {
        Self { id, weight }
    }

    /// The entity on the other side.
    #[inline]
    pub const fn entity_id(self) -> EntityId {
        self.id
    }

    /// The evidence weight.
    #[inline]
    pub const fn weight(self) -> f64 {
        self.weight
    }
}

impl From<(EntityId, f64)> for Candidate {
    fn from((id, weight): (EntityId, f64)) -> Self {
        Self::new(id, weight)
    }
}

/// The id, then the weight's bits: the bytes of the `(EntityId, f64)` tuple.
impl Spillable for Candidate {
    fn encode(&self, out: &mut Vec<u8>) {
        u32::encode(&self.entity_id().0, out);
        f64::encode(&self.weight(), out);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(Self::new(EntityId(u32::decode(buf, pos)?), f64::decode(buf, pos)?))
    }
}

/// The pruned, directed disjunctive blocking graph.
#[derive(Debug, Clone)]
pub struct BlockingGraph {
    /// Per side, per entity: top-K candidates by `β` (descending).
    value_cands: [Rows<Candidate>; 2],
    /// Per side, per entity: top-K candidates by `γ` (descending).
    neighbor_cands: [Rows<Candidate>; 2],
    /// α-pairs `(left, right)`, sorted: 1×1 name-block co-occurrences.
    alpha: Vec<(EntityId, EntityId)>,
}

spillable_struct!(BlockingGraph { value_cands, neighbor_cands, alpha });

impl BlockingGraph {
    /// Assembles a graph from its parts (crate-internal: used by the
    /// reference implementation; the builder writes fields directly).
    #[cfg(test)]
    pub(crate) fn from_parts(
        value_cands: [Rows<Candidate>; 2],
        neighbor_cands: [Rows<Candidate>; 2],
        alpha: Vec<(EntityId, EntityId)>,
    ) -> Self {
        Self { value_cands, neighbor_cands, alpha }
    }

    /// The α evidence pairs (rule R1's input), sorted.
    pub fn alpha_pairs(&self) -> &[(EntityId, EntityId)] {
        &self.alpha
    }

    /// The entity's value candidates, strongest `β` first.
    // bound: `side.index()` < 2.
    #[allow(clippy::indexing_slicing)]
    pub fn value_candidates(&self, side: Side, e: EntityId) -> &[Candidate] {
        self.value_cands[side.index()].row(e.index())
    }

    /// The entity's neighbor candidates, strongest `γ` first.
    // bound: `side.index()` < 2.
    #[allow(clippy::indexing_slicing)]
    pub fn neighbor_candidates(&self, side: Side, e: EntityId) -> &[Candidate] {
        self.neighbor_cands[side.index()].row(e.index())
    }

    /// The `β` weight of the directed edge `from → to`, if retained.
    pub fn beta(&self, from_side: Side, from: EntityId, to: EntityId) -> Option<f64> {
        self.value_candidates(from_side, from)
            .iter()
            .find(|c| c.entity_id() == to)
            .map(|c| c.weight())
    }

    /// Whether the directed edge `from → to` survived pruning (via any of
    /// the three evidence kinds). Rule R4's reciprocity test calls this in
    /// both directions.
    pub fn has_directed_edge(&self, from_side: Side, from: EntityId, to: EntityId) -> bool {
        if self.value_candidates(from_side, from).iter().any(|c| c.entity_id() == to)
            || self.neighbor_candidates(from_side, from).iter().any(|c| c.entity_id() == to)
        {
            return true;
        }
        let pair = match from_side {
            Side::Left => (from, to),
            Side::Right => (to, from),
        };
        self.alpha.binary_search(&pair).is_ok()
    }

    /// Total retained directed edges (value + neighbor lists + α both ways).
    pub fn num_directed_edges(&self) -> usize {
        let lists = self.value_cands.iter().chain(&self.neighbor_cands);
        lists.map(Rows::n_items).sum::<usize>() + 2 * self.alpha.len()
    }

    /// An FNV-1a digest of every retained edge — ids and the exact `f64`
    /// weight bits. Two graphs digest equal iff their candidate lists are
    /// bit-identical; the `graph` bench records it per worker count as
    /// determinism evidence.
    pub fn weight_digest(&self) -> u64 {
        fn fnv(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for lists in self.value_cands.iter().chain(&self.neighbor_cands) {
            for cands in lists.iter() {
                h = fnv(h, cands.len() as u64);
                for c in cands {
                    h = fnv(h, u64::from(c.entity_id().0));
                    h = fnv(h, c.weight().to_bits());
                }
            }
        }
        for &(l, r) in &self.alpha {
            h = fnv(h, (u64::from(l.0) << 32) | u64::from(r.0));
        }
        h
    }
}

/// The indexes the β passes run on, shared read-only across tasks: the
/// (purged) token blocks' own member tables — block index → the block's
/// members on a side, ascending — and their transposes, built once.
pub(crate) struct GraphIndex<'a> {
    /// Per side: block index → members. Borrowed, not copied.
    pub(crate) members: [&'a Rows<EntityId>; 2],
    /// Per side: entity id → indices of the blocks containing it
    /// (ascending; entities in no block get an empty row).
    pub(crate) entity_blocks: [Rows<u32>; 2],
}

impl<'a> GraphIndex<'a> {
    /// Transposes the member tables of (purged) token blocks. Block ids
    /// share the entity-id capacity bound: a table holds at most `u32::MAX`
    /// rows.
    pub(crate) fn build(pair: &KbPair, token_blocks: &'a TokenBlocks) -> Self {
        let sides = [Side::Left, Side::Right];
        Self {
            members: sides.map(|side| token_blocks.members(side)),
            entity_blocks: sides.map(|side| {
                let memberships = (0u32..)
                    .zip(token_blocks.members(side).iter())
                    .flat_map(|(bi, members)| members.iter().map(move |e| (e.index(), bi)));
                Rows::build(pair.kb(side).len(), memberships)
            }),
        }
    }

    /// The β of one pair — `a` on `side`, `b` on the other side — as a
    /// two-pointer merge of the two entities' ascending block rows, folding
    /// `block_weight` over the common blocks in ascending block order: the
    /// exact `f64` addition order of the β scatter pass, so the result is
    /// bit-identical to the retained edge weight.
    #[cfg(test)]
    fn pair_weight(&self, side: Side, a: EntityId, b: EntityId, block_weight: &[f64]) -> f64 {
        let ra = self.entity_blocks[side.index()].row(a.index());
        let rb = self.entity_blocks[side.other().index()].row(b.index());
        let (mut x, mut y, mut sum) = (0, 0, 0.0);
        while x < ra.len() && y < rb.len() {
            match ra[x].cmp(&rb[y]) {
                Ordering::Less => x += 1,
                Ordering::Greater => y += 1,
                Ordering::Equal => {
                    sum += block_weight[ra[x] as usize];
                    x += 1;
                    y += 1;
                }
            }
        }
        sum
    }
}

/// Worker-owned scratch arena for the β/γ passes: one accumulator plus a
/// rank-key buffer per worker thread, reset by epoch bump and truncation
/// instead of reallocation. A stage runs several tasks per worker
/// (partitions = 3× cores), so the arena amortizes the O(n) accumulator
/// zeroing across them; on the single-worker inline path it survives
/// across stages too.
struct KernelScratch {
    acc: SparseAccumulator,
    keys: Vec<u128>,
}

thread_local! {
    static KERNEL_SCRATCH: std::cell::RefCell<KernelScratch> =
        std::cell::RefCell::new(KernelScratch { acc: SparseAccumulator::new(0), keys: Vec::new() });
}

/// Runs `f` with the calling worker's scratch, growing the accumulator's
/// key universe to at least `universe` (grow-only, so stages with smaller
/// universes don't shrink-regrow the arrays). Not reentrant — kernel
/// tasks never nest.
fn with_scratch<R>(universe: usize, f: impl FnOnce(&mut SparseAccumulator, &mut Vec<u128>) -> R) -> R {
    KERNEL_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let KernelScratch { acc, keys } = &mut *scratch;
        if acc.len() < universe {
            acc.ensure_len(universe);
        }
        f(acc, keys)
    })
}

/// Builds the pruned disjunctive blocking graph (Algorithm 1).
///
/// `token_blocks` should already be purged. All heavy phases — the two β
/// passes, the β-edge transpose and the γ row passes — run as parallel
/// stages on `executor`; the output is bit-identical across runs and
/// worker counts.
pub fn build_blocking_graph(
    executor: &Executor,
    pair: &KbPair,
    rels: &RelationStats,
    token_blocks: &TokenBlocks,
    name_blocks: &NameBlocks,
    cfg: &GraphConfig,
) -> BlockingGraph {
    // --- Name evidence (lines 5-9) ---
    let alpha = executor.time_stage("graph/alpha", || {
        if pair.is_dirty() {
            alpha_pairs_dirty(name_blocks)
        } else {
            alpha_pairs(name_blocks)
        }
    });

    // --- Value evidence (lines 10-19): one β pass per direction ---
    let block_weight: Vec<f64> =
        token_blocks.iter().map(|(_, b)| 1.0 / (b.comparisons() as f64 + 1.0).log2()).collect();

    let index = executor.time_stage("graph/index", || GraphIndex::build(pair, token_blocks));

    let [value_left, value_right] = [Side::Left, Side::Right]
        .map(|side| beta_pass(executor, pair, side, &index, &block_weight, cfg.top_k, cfg.adaptive_pruning));
    // Only the β passes read the index: free it before γ builds its tables.
    drop(index);

    // --- Neighbor evidence (lines 20-33) ---
    // Dirty ER: both sides mirror one KB, so the left view serves as both.
    let n_views = if pair.is_dirty() { 1 } else { 2 };
    let views = executor.run_stage("graph/top-in-neighbors", n_views, |t| {
        let side = if t == 0 { Side::Left } else { Side::Right };
        NeighborViews::compute(pair, rels, side, cfg.n_relations)
    });
    // That was the resolve's last read of the KB's columns: γ reads the
    // candidate tables and the views, the matcher the graph. A pair read
    // in place from an `.mkb` can give its mapping's pages back.
    pair.release_mapped_pages();
    let (neighbor_left, neighbor_right) =
        gamma_pass(executor, &value_left, &value_right, &views, pair.is_dirty(), cfg);

    let graph = BlockingGraph {
        value_cands: [value_left, value_right],
        neighbor_cands: [neighbor_left, neighbor_right],
        alpha,
    };
    executor.emit_counter("blocking/alpha_pairs", graph.alpha.len() as u64);
    executor.emit_counter("blocking/graph_directed_edges", graph.num_directed_edges() as u64);
    graph
}

/// Computes each `side` entity's top-K value candidates on the other side:
/// `β[j] += 1/log2(|b1|·|b2|+1)` for every shared block (line 14) — the
/// Meta-blocking-style pass adapted to the paper's value similarity, the
/// ARCS variation of Def. 2.1.
///
/// Contributions for one entity arrive in ascending block order (its
/// `entity_blocks` row) and, per block, ascending opposite-entity order — a defined order,
/// identical to the reference kernel's, so every β weight is bit-equal to
/// the reference.
fn beta_pass(
    executor: &Executor,
    pair: &KbPair,
    side: Side,
    index: &GraphIndex<'_>,
    block_weight: &[f64],
    top_k: usize,
    adaptive: bool,
) -> Rows<Candidate> {
    let n = pair.kb(side).len();
    let n_other = pair.kb(side.other()).len();
    // bound: `side.index()` < 2, the length of the index's per-side arrays.
    #[allow(clippy::indexing_slicing)]
    let eb_self = &index.entity_blocks[side.index()];
    // bound: `side.other().index()` < 2, as above.
    #[allow(clippy::indexing_slicing)]
    let members_other = index.members[side.other().index()];

    let dirty = pair.is_dirty();
    let tasks = executor.partitions().max(1);
    let chunk = n.div_ceil(tasks).max(1);
    let n_tasks = n.div_ceil(chunk);
    // bound: every block id in an `entity_blocks` row is below the block count,
    // the length of `block_weight` (one weight per block of the index).
    #[allow(clippy::indexing_slicing)]
    let partials = executor.run_stage(&format!("graph/beta/{side:?}"), n_tasks, |t| {
        let lo = t * chunk;
        let hi = ((t + 1) * chunk).min(n);
        // Room for `top_k` candidates a row — capped, so that a configuration
        // without pruning (`top_k = usize::MAX`) reserves for a sparse graph,
        // not for the cross product — and the part's column never regrows.
        let mut out = Rows::with_capacity(hi - lo, (hi - lo) * top_k.min(MAX_RESERVED_PER_ROW));
        with_scratch(n_other, |acc, keys| {
            for this in lo..hi {
                let this_id = this as u32;
                acc.next_epoch();
                for &bi in eb_self.row(this) {
                    let w = block_weight[bi as usize];
                    for &EntityId(o) in members_other.row(bi as usize) {
                        // Dirty ER: both sides mirror one KB, so the
                        // identity pair carries no duplicate evidence.
                        if dirty && o == this_id {
                            continue;
                        }
                        acc.add(o, w);
                    }
                }
                push_top_k(acc.entries(), keys, top_k, adaptive, &mut out);
            }
        });
        out
    });
    let lists = Rows::parted(partials);
    let retained = lists.n_items() as u64;
    executor
        .annotate_last_stage(&format!("graph/beta/{side:?}"), StageIo::items(n as u64, retained));
    lists
}

/// Most candidates a row a β / γ task reserves room for up front.
const MAX_RESERVED_PER_ROW: usize = 64;

/// A live accumulator entry as one integer whose **descending** order is the
/// ranking order — weight descending, id ascending: the weight's bit pattern
/// in the high 64 bits (for positive `f64`, `INFINITY` included, bit order is
/// value order: sign 0, then exponent, then mantissa, each more significant
/// than the next), the complemented id in the low 32 (so the smaller id is
/// the larger key). `None` for what is not a candidate: zero weights are
/// trivial edges (§3.3), and a negative or `NaN` weight ranks nowhere.
fn rank_key(id: u32, w: f64) -> Option<u128> {
    (w > 0.0).then(|| u128::from(w.to_bits()) << 32 | u128::from(!id))
}

/// The candidate a [`rank_key`] was packed from, every weight bit intact.
fn ranked(key: u128) -> Candidate {
    Candidate::new(EntityId(!(key as u32)), f64::from_bits((key >> 32) as u64))
}

/// Appends a row's `(id, weight)` entries to `out` cut down to their top-K,
/// strongest first. With `adaptive`, the node's own weight
/// distribution sets a dynamic floor (mean + ½·stddev) before the cap.
///
/// [`rank_key`]s are distinct (ids are), so their order is a strict total
/// one and the kept set and its order are unique — which is why selecting
/// first when a row exceeds K (`select_nth_unstable_by`, O(n)) and sorting
/// only the K-prefix returns exactly what a full sort would, on integer
/// compares. The adaptive path needs the whole distribution strongest-first
/// — its sums run in that order — so it sorts everything.
fn push_top_k(
    entries: impl Iterator<Item = (u32, f64)>,
    keys: &mut Vec<u128>,
    top_k: usize,
    adaptive: bool,
    out: &mut Rows<Candidate>,
) {
    keys.clear();
    keys.extend(entries.filter_map(|(id, w)| rank_key(id, w)));
    let descending = |a: &u128, b: &u128| b.cmp(a);
    if !adaptive && keys.len() > top_k {
        if let Some(last) = top_k.checked_sub(1) {
            keys.select_nth_unstable_by(last, descending);
        }
        keys.truncate(top_k);
    }
    keys.sort_unstable_by(descending);
    if adaptive && keys.len() > 1 {
        let weight = |&key: &u128| ranked(key).weight();
        let n = keys.len() as f64;
        let mean = keys.iter().map(weight).sum::<f64>() / n;
        let var = keys.iter().map(|key| (weight(key) - mean).powi(2)).sum::<f64>() / n;
        let floor = mean + 0.5 * var.sqrt();
        let keep = keys.iter().take_while(|&key| weight(key) >= floor).count();
        // Always keep at least the strongest candidate.
        keys.truncate(keep.max(1));
    }
    out.push_row(keys.iter().take(top_k).map(|&key| ranked(key)));
}

/// One side's neighbour evidence as flat rows, each ascending and
/// duplicate-free: `top` row `e` is the entity's own top-N neighbours,
/// `incoming` row `e` the entities that list `e` among theirs
/// (`getTopInNeighbors`, lines 35-48).
pub(crate) struct NeighborViews {
    pub(crate) top: Rows<u32>,
    pub(crate) incoming: Rows<u32>,
}

impl NeighborViews {
    /// What [`RelationStats::top_n_neighbors`] returns for every entity of
    /// `side`, ranked in scratch the whole pass shares instead of two `Vec`s
    /// an entity: its relation pairs as `(global rank, target)`, sorted; the
    /// targets under the first `n_relations` distinct ranks, sorted and
    /// deduplicated, are the row.
    pub(crate) fn compute(pair: &KbPair, rels: &RelationStats, side: Side, n_relations: usize) -> Self {
        let kb = pair.kb(side);
        let mut top = Rows::with_capacity(kb.len(), 0);
        let mut ranked: Vec<(u32, u32)> = Vec::new();
        let mut targets: Vec<u32> = Vec::new();
        for (_, e) in kb.iter() {
            ranked.clear();
            ranked.extend(
                e.relation_pairs().map(|(p, nb)| (rels.global_rank(side, p).unwrap_or(u32::MAX), nb.0)),
            );
            ranked.sort_unstable();
            targets.clear();
            let (mut relations, mut last) = (0usize, None);
            for &(rank, nb) in &ranked {
                if last.replace(rank) != Some(rank) {
                    relations += 1;
                    if relations > n_relations {
                        break;
                    }
                }
                targets.push(nb);
            }
            targets.sort_unstable();
            targets.dedup();
            top.push_row(targets.iter().copied());
        }
        Self::from_top(top)
    }

    /// The in-neighbour view is the counting inversion of the top-N rows,
    /// walked in ascending entity order and holding no duplicates.
    fn from_top(top: Rows<u32>) -> Self {
        let by_neighbor =
            top.iter().enumerate().flat_map(|(e, nbs)| nbs.iter().map(move |&nb| (nb as usize, e as u32)));
        let incoming = Rows::build(top.n_rows(), by_neighbor);
        Self { top, incoming }
    }
}

/// Union of both directions' retained β edges (each undirected pair
/// counted once — the paper prunes "two directed [edges] with the same
/// initial weights", §3.3) as rows by left endpoint, cut to the edges γ
/// reads; and the map side of the γ pass's one exchange. Returns the kept
/// edges and the size of the whole union.
///
/// An edge `(i, j)` adds to a γ cell only through a left entity that lists
/// `i` among its top-N neighbours and a right one that lists `j`: row `i`
/// is read only if `live[0]` row `i` (the left in-neighbours) is non-empty,
/// and an entry `j` adds to nothing unless `live[1]` row `j` is. So a dead
/// row is pushed empty and a dead entry dropped, and every γ add still
/// happens, in the same order. Row `i` holds its live `(j, β)` ascending by
/// `j`; where both directions retained the pair, the left-derived weight
/// wins (they are bit-equal anyway: both passes sum the same block weights
/// in the same ascending-block order).
///
/// The right-side lists are inverted by left endpoint once, walked in
/// ascending `j` so that every inverted row is ascending too, straight into
/// one exactly-sized part per task. A task owns a range of `chunk` left
/// rows — it reads no row outside it — takes its part of the inversion and
/// frees it when it ends; it merges each inverted row with the row's own
/// (at most K) left-derived entries sorted by id. It adds its live edges
/// `(i, j, β)` to `shuffle` as one run, bucketed by `j / chunk_r`.
fn beta_union(
    executor: &Executor,
    value_left: &Rows<Candidate>,
    value_right: &Rows<Candidate>,
    live: [&Rows<u32>; 2],
    chunk: usize,
    chunk_r: usize,
    shuffle: &SpillShuffle<(u32, u32, f64)>,
) -> (Rows<Candidate>, u64) {
    let n_left = value_left.n_rows();
    let from_right: Vec<Mutex<Rows<Candidate>>> = Rows::build_chunked(
        n_left,
        chunk,
        value_right.iter().enumerate().flat_map(|(j, cands)| {
            let j = EntityId(j as u32);
            cands.iter().map(move |c| (c.entity_id().0 as usize, Candidate::new(j, c.weight())))
        }),
    )
    .into_iter()
    .map(Mutex::new)
    .collect();
    let [live_left, live_right] = live;
    let parts = executor.run_stage("graph/gamma/union", n_left.div_ceil(chunk), |t| {
        let lo = t * chunk;
        let rows = lo..(lo + chunk).min(n_left);
        let from_right: Rows<Candidate> = from_right.get(t).map(|part| std::mem::take(&mut *lock(part))).unwrap_or_default();
        let upper = rows.clone().map(|i| value_left.row_len(i) + from_right.row_len(i - lo)).sum();
        let mut edges = Rows::with_capacity(rows.len(), upper);
        let mut buckets: Vec<Vec<(u32, u32, f64)>> = vec![Vec::new(); shuffle.partitions()];
        let mut own: Vec<Candidate> = Vec::new();
        let mut union = 0u64;
        for i in rows {
            own.clear();
            own.extend_from_slice(value_left.row(i));
            own.sort_unstable_by_key(|c| c.entity_id());
            let row_is_live = live_left.row_len(i) > 0;
            merge_by_id(&own, from_right.row(i - lo), |edge| {
                union += 1;
                let j = edge.entity_id().0;
                if !row_is_live || live_right.row_len(j as usize) == 0 {
                    return;
                }
                if let Some(bucket) = buckets.get_mut(j as usize / chunk_r) {
                    bucket.push((i as u32, j, edge.weight()));
                }
                edges.push(edge);
            });
            edges.end_row();
        }
        // bound: deliberate: a failed spill write (a full disk) leaves the task
        // as its typed `DataflowError` payload, which `Executor::try_run_stage`
        // carries out typed.
        #[allow(clippy::panic)]
        if let Err(e) = shuffle.add_run(t, buckets) {
            std::panic::panic_any(e);
        }
        (edges, union)
    });
    let union = parts.iter().map(|&(_, union)| union).sum();
    (Rows::parted(parts.into_iter().map(|(edges, _)| edges).collect()), union)
}

/// Visits the union of two rows ascending by id, each id once — the one
/// from `first` where both hold it. Both rows must be ascending by id and
/// free of duplicates.
fn merge_by_id(mut first: &[Candidate], mut second: &[Candidate], mut visit: impl FnMut(Candidate)) {
    loop {
        match (first.split_first(), second.split_first()) {
            (Some((&a, first_rest)), Some((&b, second_rest))) => match a.entity_id().cmp(&b.entity_id()) {
                Ordering::Less => {
                    visit(a);
                    first = first_rest;
                }
                Ordering::Equal => {
                    visit(a);
                    (first, second) = (first_rest, second_rest);
                }
                Ordering::Greater => {
                    visit(b);
                    second = second_rest;
                }
            },
            (Some(_), None) => {
                first.iter().copied().for_each(visit);
                return;
            }
            (None, _) => {
                second.iter().copied().for_each(visit);
                return;
            }
        }
    }
}

/// The exchange's reduce step: one partition's β edges `(i, j, β)` — its
/// buckets in map-task order — regrouped into rows by right endpoint, row
/// `j - lo` holding `(i, β)`. Map tasks own and emit ascending ranges of `i`,
/// so each row comes out ascending by `i`: what a sort by `(j, i)` produces.
fn regroup_by_right(buckets: &[Vec<(u32, u32, f64)>], lo: usize, width: usize) -> Rows<Candidate> {
    Rows::build(width, buckets.iter().flatten().map(|&(i, j, w)| (j as usize - lo, Candidate::new(EntityId(i), w))))
}

/// The γ row kernel: the top-K neighbour candidates of the `rows` entities
/// of one side, and how many γ cells those rows touched. `top` is that
/// side's view, `in_far` the far side's, and `edges` the β edges as rows by
/// *this* side's endpoint — `(far endpoint, β)`, ascending.
///
/// A row walks `x ∈ topN(this)` and `edges.row(x)`, adding each β to the
/// cell of every `o ∈ in_far[far endpoint]`: on the left, a cell's
/// contributions in ascending `(i, j)`. On the right (`transposed`) the
/// walk is ascending `(j, i)`, so the row first gathers its edges and
/// orders them by `(i, j)` — one presorted run per `j`, the keys unique —
/// since `f64` sums depend on their order, and `(i, j)` is the one the
/// left rows and `crate::reference` use.
fn gamma_rows(
    rows: std::ops::Range<usize>,
    top: &Rows<u32>,
    edges: &Rows<Candidate>,
    in_far: &Rows<u32>,
    transposed: bool,
    dirty: bool,
    cfg: &GraphConfig,
) -> (Rows<Candidate>, u64) {
    let mut lists = Rows::with_capacity(rows.len(), rows.len() * cfg.top_k.min(MAX_RESERVED_PER_ROW));
    let mut cells = 0u64;
    let mut gathered: Vec<(u64, f64)> = Vec::new();
    with_scratch(in_far.n_rows(), |acc, keys| {
        for this in rows {
            let this_id = this as u32;
            acc.next_epoch();
            let mut scatter = |far: u32, beta: f64| {
                for &o in in_far.row(far as usize) {
                    // Dirty ER: an entity is not its own neighbour candidate.
                    if dirty && o == this_id {
                        continue;
                    }
                    acc.add(o, beta);
                }
            };
            let near = top.row(this);
            if transposed && near.len() > 1 {
                gathered.clear();
                for &j in near {
                    let run = edges.row(j as usize).iter();
                    gathered.extend(run.map(|edge| (u64::from(edge.entity_id().0) << 32 | u64::from(j), edge.weight())));
                }
                gathered.sort_unstable_by_key(|&(i_j, _)| i_j);
                for &(i_j, beta) in &gathered {
                    scatter((i_j >> 32) as u32, beta);
                }
            } else {
                for &x in near {
                    for edge in edges.row(x as usize) {
                        scatter(edge.entity_id().0, edge.weight());
                    }
                }
            }
            cells += acc.touched().len() as u64;
            push_top_k(acc.entries(), keys, cfg.top_k, cfg.adaptive_pruning, &mut lists);
        }
    });
    (lists, cells)
}

/// γ aggregation (lines 20-33): every retained β edge `(i, j)` adds its β
/// to `γ[(a, b)]` for all `a` with `i ∈ topN(a)`, `b` with `j ∈ topN(b)`,
/// after which each node keeps its top-K neighbor candidates. The β edge
/// set is [`beta_union`]'s.
///
/// # Parallel decomposition and determinism (DESIGN.md §11)
///
/// Sharded by **output row**, not by edge: a task owns a range of one
/// side's entities and computes each row completely ([`gamma_rows`]), so
/// every γ cell is a single flat sum in ascending `(i, j)` order — the
/// `f64` results are bit-identical for every shard width and worker count,
/// and a pair's weight is bit-equal in the left and the right list.
/// (Sharding by *edge* would split a cell's sum into per-shard partials
/// whose grouping, and hence rounding, varies with the shard count.)
///
/// No cell leaves the task that summed it: all the right rows need from
/// the left-sharded [`beta_union`] is its live edges as rows by `j` — one
/// map→reduce shuffle of 16-byte `(i, j, β)` records, resident unless the
/// executor's memory budget makes it spill, with the same buckets in the
/// same order either way. Both edge tables are 12-byte [`Candidate`] rows.
fn gamma_pass(
    executor: &Executor,
    value_left: &Rows<Candidate>,
    value_right: &Rows<Candidate>,
    views: &[NeighborViews],
    dirty: bool,
    cfg: &GraphConfig,
) -> (Rows<Candidate>, Rows<Candidate>) {
    // bound: `build_blocking_graph` passes one neighbour view per side, or one
    // for both sides of a dirty pair; nothing else calls this.
    #[allow(clippy::panic)]
    let (left, right) = match views {
        [left, right] => (left, right),
        [both] => (both, both),
        _ => panic!("one neighbour view per side, or one for both"),
    };
    let (n_left, n_right) = (value_left.n_rows(), value_right.n_rows());
    let tasks = executor.partitions().max(1);
    let chunk_l = n_left.div_ceil(tasks).max(1);
    let chunk_r = n_right.div_ceil(tasks).max(1);
    let (tasks_l, tasks_r) = (n_left.div_ceil(chunk_l), n_right.div_ceil(chunk_r));

    let shuffle = SpillShuffle::new("graph-gamma", tasks_r, executor.memory_budget());
    let live = [&left.incoming, &right.incoming];
    let (edges, union_edges) = beta_union(executor, value_left, value_right, live, chunk_l, chunk_r, &shuffle);
    let n_edges = edges.n_items() as u64;
    executor.emit_counter("blocking/beta_union_edges", union_edges);
    executor.emit_counter("blocking/gamma_exchanged_edges", n_edges);

    // Transpose: the exchanged edges as rows by right endpoint.
    // bound: deliberate: a failed spill read leaves the task as its typed
    // `DataflowError` payload, which `Executor::try_run_stage` carries out
    // typed.
    #[allow(clippy::panic)]
    let parts = executor.run_stage("graph/gamma/transpose", tasks_r, |t| {
        let lo = t * chunk_r;
        let width = ((t + 1) * chunk_r).min(n_right) - lo;
        match shuffle.take_partition(t) {
            Ok(buckets) => regroup_by_right(&buckets, lo, width),
            Err(e) => std::panic::panic_any(e),
        }
    });
    shuffle.finish(executor);
    let io = StageIo {
        shuffle_bytes: n_edges * std::mem::size_of::<(u32, u32, f64)>() as u64,
        max_partition_items: parts.iter().map(|part| part.n_items() as u64).max().unwrap_or(0),
        ..StageIo::items(n_edges, n_edges)
    };
    executor.annotate_last_stage("graph/gamma/transpose", io);
    let edges_t = Rows::parted(parts);

    // Row passes: the left-row tasks, then the right-row tasks. Only the
    // left rows read `edges`: the last left-row task to end frees it.
    let edges: RwLock<Rows<Candidate>> = RwLock::new(edges);
    let left_open = AtomicUsize::new(tasks_l);
    let mut partials = executor.run_stage("graph/gamma", tasks_l + tasks_r, |t| {
        if let Some(t) = t.checked_sub(tasks_l) {
            let rows = t * chunk_r..((t + 1) * chunk_r).min(n_right);
            gamma_rows(rows, &right.top, &edges_t, &left.incoming, true, dirty, cfg)
        } else {
            let rows = t * chunk_l..((t + 1) * chunk_l).min(n_left);
            let edges_l = edges.read().unwrap_or_else(PoisonError::into_inner);
            let out = gamma_rows(rows, &left.top, &edges_l, &right.incoming, false, dirty, cfg);
            drop(edges_l);
            // Each left task counts itself out after its read guard is gone;
            // the `RwLock` orders those reads before the last task's write.
            if left_open.fetch_sub(1, atomic::Ordering::AcqRel) == 1 {
                *edges.write().unwrap_or_else(PoisonError::into_inner) = Rows::default();
            }
            out
        }
    });
    let right_lists = Rows::parted(partials.split_off(tasks_l).into_iter().map(|(lists, _)| lists).collect());
    let left_cells: u64 = partials.iter().map(|&(_, cells)| cells).sum();
    executor.annotate_last_stage("graph/gamma", StageIo::items(n_edges, left_cells));
    executor.emit_counter("blocking/gamma_entries", left_cells);
    (Rows::parted(partials.into_iter().map(|(lists, _)| lists).collect()), right_lists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::build_name_blocks;
    use crate::purge::purge_blocks;
    use crate::token::build_token_blocks;
    use minoaner_det::rng::Rng;
    use minoaner_kb::dirty::DirtyKbBuilder;
    use minoaner_kb::stats::NameStats;
    use minoaner_kb::{KbPairBuilder, Term};

    fn eid(pair: &KbPair, side: Side, uri: &str) -> EntityId {
        pair.kb(side).entity_by_uri(pair.uris().get(uri).unwrap()).unwrap()
    }

    /// The ranking oracle: what [`push_top_k`] must keep, as the full sort
    /// of `(entity, weight)` tuples by `(weight descending, id ascending)`
    /// that the kernel ran before it ranked on [`rank_key`]s.
    fn select_top_k(cands: &mut Vec<Candidate>, top_k: usize, adaptive: bool) {
        cands.retain(|c| c.weight() > 0.0);
        cands.sort_unstable_by(by_weight_then_id);
        if adaptive && cands.len() > 1 {
            let n = cands.len() as f64;
            let mean = cands.iter().map(|c| c.weight()).sum::<f64>() / n;
            let var = cands.iter().map(|c| (c.weight() - mean).powi(2)).sum::<f64>() / n;
            let floor = mean + 0.5 * var.sqrt();
            let keep = cands.iter().take_while(|c| c.weight() >= floor).count();
            cands.truncate(keep.max(1));
        }
        cands.truncate(top_k);
    }

    /// The tuple comparator's order: weight descending, id ascending.
    fn by_weight_then_id(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
        let by_weight = b.weight().partial_cmp(&a.weight()).unwrap_or(std::cmp::Ordering::Equal);
        by_weight.then(a.entity_id().cmp(&b.entity_id()))
    }

    /// The row the kernel keeps of `raw`.
    fn kernel_top_k(raw: &[Candidate], top_k: usize, adaptive: bool) -> Vec<Candidate> {
        let mut out = Rows::default();
        push_top_k(raw.iter().map(|c| (c.entity_id().0, c.weight())), &mut Vec::new(), top_k, adaptive, &mut out);
        out.row(0).to_vec()
    }

    /// A row as `(id, weight bits)`: equal iff bit-equal.
    fn row_bits(row: &[Candidate]) -> Vec<(u32, u64)> {
        row.iter().map(|c| (c.entity_id().0, c.weight().to_bits())).collect()
    }

    /// The Figure 1 / Example 3.4 worked example: Wikidata-style KB on the
    /// left, DBpedia-style on the right.
    fn figure1_pair() -> KbPair {
        let mut b = KbPairBuilder::new();
        // Left (Wikidata-ish).
        b.add_triple(Side::Left, "w:Restaurant1", "w:label", Term::Literal("Fat Duck Restaurant"));
        b.add_triple(Side::Left, "w:Restaurant1", "w:hasChef", Term::Uri("w:JohnLakeA"));
        b.add_triple(Side::Left, "w:Restaurant1", "w:territorial", Term::Uri("w:Bray"));
        b.add_triple(Side::Left, "w:Restaurant1", "w:inCountry", Term::Uri("w:UK"));
        b.add_triple(Side::Left, "w:JohnLakeA", "w:label", Term::Literal("J. Lake"));
        b.add_triple(Side::Left, "w:JohnLakeA", "w:alias", Term::Literal("John Lake A chef celebrity"));
        b.add_triple(Side::Left, "w:Bray", "w:label", Term::Literal("Bray Berkshire village"));
        b.add_triple(Side::Left, "w:UK", "w:label", Term::Literal("United Kingdom"));
        // Right (DBpedia-ish).
        b.add_triple(Side::Right, "d:Restaurant2", "d:name", Term::Literal("The Fat Duck"));
        b.add_triple(Side::Right, "d:Restaurant2", "d:headChef", Term::Uri("d:JonnyLake"));
        b.add_triple(Side::Right, "d:Restaurant2", "d:county", Term::Uri("d:Berkshire"));
        b.add_triple(Side::Right, "d:JonnyLake", "d:name", Term::Literal("J. Lake"));
        b.add_triple(Side::Right, "d:JonnyLake", "d:bio", Term::Literal("Jonny Lake chef celebrity"));
        b.add_triple(Side::Right, "d:Berkshire", "d:name", Term::Literal("Berkshire county Bray"));
        b.finish()
    }

    fn build(pair: &KbPair, cfg: GraphConfig) -> BlockingGraph {
        let exec = Executor::new(2);
        build_on(&exec, pair, cfg)
    }

    fn build_on(exec: &Executor, pair: &KbPair, cfg: GraphConfig) -> BlockingGraph {
        let rels = RelationStats::compute(pair);
        let names = NameStats::compute(pair, 2);
        let mut tb = build_token_blocks(pair);
        purge_blocks(&mut tb, pair.kb(Side::Left).len() + pair.kb(Side::Right).len());
        let nb = build_name_blocks(pair, &names);
        build_blocking_graph(exec, pair, &rels, &tb, &nb, &cfg)
    }

    /// A dirty-ER KB (both sides mirror it, identity pairs excluded) with
    /// fewer entities than an 8-worker executor has partitions.
    fn dirty_pair() -> KbPair {
        let mut b = DirtyKbBuilder::new();
        b.add_triple("e0", "p", Term::Literal("fat duck restaurant bray"));
        b.add_triple("e0", "chef", Term::Uri("e2"));
        b.add_triple("e1", "p", Term::Literal("the fat duck bray"));
        b.add_triple("e1", "chef", Term::Uri("e3"));
        b.add_triple("e2", "p", Term::Literal("john lake chef celebrity"));
        b.add_triple("e3", "p", Term::Literal("jonny lake chef celebrity"));
        b.add_triple("e4", "p", Term::Literal("berkshire county village"));
        b.finish()
    }

    /// A clean pair whose right side is empty.
    fn empty_right_pair() -> KbPair {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l0", "p", Term::Literal("fat duck"));
        b.add_triple(Side::Left, "l0", "rel", Term::Uri("l1"));
        b.add_triple(Side::Left, "l1", "p", Term::Literal("john lake"));
        b.finish()
    }

    #[test]
    fn resident_and_spilled_shuffles_match_the_reference_kernel_bit_for_bit() {
        use minoaner_dataflow::MemoryBudget;

        let spill_dir = std::env::temp_dir()
            .join(format!("gamma-spill-test-{}", std::process::id()));
        for (what, pair) in [
            ("figure 1", figure1_pair()),
            ("dirty ER", dirty_pair()),
            ("empty right side", empty_right_pair()),
        ] {
            let rels = RelationStats::compute(&pair);
            let names = NameStats::compute(&pair, 2);
            let mut tb = build_token_blocks(&pair);
            purge_blocks(&mut tb, pair.kb(Side::Left).len() + pair.kb(Side::Right).len());
            let nb = build_name_blocks(&pair, &names);
            let cfg = GraphConfig::default();
            let oracle =
                crate::reference::build_blocking_graph_reference(&pair, &rels, &tb, &nb, &cfg);
            for workers in [1, 2, 8] {
                for budget in [None, Some(MemoryBudget::new(0, &spill_dir))] {
                    let spilled = budget.is_some();
                    let mut exec = Executor::new(workers);
                    exec.set_memory_budget(budget);
                    let got = build_blocking_graph(&exec, &pair, &rels, &tb, &nb, &cfg);
                    assert_eq!(
                        got.weight_digest(),
                        oracle.weight_digest(),
                        "{what}: {workers} workers, spilled={spilled}"
                    );
                }
            }
        }
        assert!(
            std::fs::read_dir(&spill_dir).map_or(true, |mut d| d.next().is_none()),
            "spill scratch must be swept"
        );
        std::fs::remove_dir_all(&spill_dir).ok();
    }

    /// A random subset of the ids below `universe` (never `skip`), in a
    /// random order.
    fn random_ids(rng: &mut Rng, universe: usize, skip: Option<usize>) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..universe)
            .filter(|&id| Some(id) != skip && rng.gen_range(0..3usize) > 0)
            .map(|id| id as u32)
            .collect();
        rng.shuffle(&mut ids);
        ids
    }

    #[test]
    fn edge_shuffle_plus_counting_regroup_equals_the_sort_by_right_then_left() {
        use minoaner_dataflow::MemoryBudget;

        let spill_dir = std::env::temp_dir()
            .join(format!("gamma-regroup-oracle-{}", std::process::id()));
        let mut rng = Rng::seed_from_u64(0x5EED);
        for case in 0..80 {
            // 0 entities = an empty side; small sides make `n_right` fall
            // below the partition count and leave right entities without
            // any edge. Every third case skips the diagonal, as dirty-ER
            // β passes do.
            let n_left = rng.gen_range(0..14usize);
            let n_right = rng.gen_range(0..14usize);
            let rows: Vec<Vec<(u32, u32, f64)>> = (0..n_left)
                .map(|i| {
                    let mut js = random_ids(&mut rng, n_right, (case % 3 == 0).then_some(i));
                    js.sort_unstable();
                    js.into_iter()
                        .map(|j| (i as u32, j, rng.gen_range(0..1000usize) as f64 / 7.0))
                        .collect()
                })
                .collect();
            // Map tasks own ascending ranges of `i`, reduce partitions
            // ranges of `j`; both widths are random.
            let chunk = 1 + rng.gen_range(0..n_left.max(1));
            let chunk_r = 1 + rng.gen_range(0..n_right.max(1));
            let n_tasks_r = n_right.div_ceil(chunk_r);
            let budget = (case % 2 == 1).then(|| MemoryBudget::new(0, &spill_dir));
            let shuffle = SpillShuffle::new("oracle", n_tasks_r, budget.as_ref());
            let mut arrival: Vec<usize> = (0..n_left.div_ceil(chunk)).collect();
            if case % 4 >= 2 {
                arrival.reverse();
            }
            for t in arrival {
                let mut buckets = vec![Vec::new(); n_tasks_r];
                for &edge in rows.iter().skip(t * chunk).take(chunk).flatten() {
                    buckets[edge.1 as usize / chunk_r].push(edge);
                }
                shuffle.add_run(t, buckets).expect("add run");
            }
            let mut got: Vec<(u32, u32, u64)> = Vec::new();
            for p in 0..n_tasks_r {
                let lo = p * chunk_r;
                let width = ((p + 1) * chunk_r).min(n_right) - lo;
                let buckets = shuffle.take_partition(p).expect("read partition");
                let by_j: Rows<Candidate> = regroup_by_right(&buckets, lo, width);
                for row in 0..width {
                    let j = (lo + row) as u32;
                    got.extend(by_j.row(row).iter().map(|c| (c.entity_id().0, j, c.weight().to_bits())));
                }
            }
            shuffle.finish(&Executor::new(1));
            let mut want: Vec<(u32, u32, u64)> =
                rows.iter().flatten().map(|&(i, j, w)| (i, j, w.to_bits())).collect();
            want.sort_unstable_by_key(|&(i, j, _)| (j, i));
            assert_eq!(got, want, "case {case}: {n_left}x{n_right}, chunks {chunk}/{chunk_r}");
        }
        std::fs::remove_dir_all(&spill_dir).ok();
    }

    /// Random candidate lists from `n` entities to ids below `n_other`,
    /// with weights whose sums depend on the order they are added in.
    fn random_lists(rng: &mut Rng, n: usize, n_other: usize, dirty: bool) -> Rows<Candidate> {
        (0..n)
            .map(|e| {
                random_ids(rng, n_other, dirty.then_some(e))
                    .into_iter()
                    .map(|o| Candidate::new(EntityId(o), (1 + rng.gen_range(0..1000usize)) as f64 / 7.0))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Random top-N rows over `n` entities of one side, with their inversion.
    fn random_views(rng: &mut Rng, n: usize) -> NeighborViews {
        let mut top = Rows::default();
        for _ in 0..n {
            let mut nbs = random_ids(rng, n, None);
            nbs.truncate(rng.gen_range(0..5usize));
            nbs.sort_unstable();
            top.push_row(nbs);
        }
        NeighborViews::from_top(top)
    }

    fn weight_bits(lists: &Rows<Candidate>) -> Vec<Vec<(u32, u64)>> {
        lists.iter().map(row_bits).collect()
    }

    #[test]
    fn right_rows_equal_the_transposed_cells_of_the_left_rows() {
        use minoaner_dataflow::MemoryBudget;

        let spill_dir = std::env::temp_dir()
            .join(format!("gamma-symmetry-oracle-{}", std::process::id()));
        let mut rng = Rng::seed_from_u64(0x6A33A);
        for case in 0..60 {
            let dirty = case % 3 == 0;
            let adaptive = case % 4 == 1;
            let n_left = rng.gen_range(0..13usize);
            let n_right = if dirty { n_left } else { rng.gen_range(0..13usize) };
            let top_k = 1 + rng.gen_range(0..4usize);
            let value_left = random_lists(&mut rng, n_left, n_right, dirty);
            let value_right = random_lists(&mut rng, n_right, n_left, dirty);
            let views = [random_views(&mut rng, n_left), random_views(&mut rng, n_right)];
            let bits_of =
                |(left, right): (Rows<Candidate>, Rows<Candidate>)| [left, right].map(|lists| weight_bits(&lists));

            // Every cell, from the left rows alone: nothing is pruned.
            let all = GraphConfig { top_k: usize::MAX, ..GraphConfig::default() };
            let (cells, _) =
                gamma_pass(&Executor::new(1), &value_left, &value_right, &views, dirty, &all);
            let mut transposed: Vec<Vec<Candidate>> = vec![Vec::new(); n_right];
            for (a, row) in cells.iter().enumerate() {
                for c in row {
                    transposed[c.entity_id().index()].push(Candidate::new(EntityId(a as u32), c.weight()));
                }
            }
            let select = |rows: Vec<Vec<Candidate>>| -> Rows<Candidate> {
                let cut = |mut row: Vec<Candidate>| {
                    select_top_k(&mut row, top_k, adaptive);
                    row
                };
                rows.into_iter().map(cut).collect()
            };
            let cells = cells.iter().map(<[Candidate]>::to_vec).collect();
            let want = bits_of((select(cells), select(transposed)));

            for workers in [1, 2, 8] {
                for budget in [None, Some(MemoryBudget::new(0, &spill_dir))] {
                    let spilled = budget.is_some();
                    let mut exec = Executor::new(workers);
                    exec.set_memory_budget(budget);
                    let cfg =
                        GraphConfig { top_k, adaptive_pruning: adaptive, ..GraphConfig::default() };
                    let got =
                        bits_of(gamma_pass(&exec, &value_left, &value_right, &views, dirty, &cfg));
                    assert_eq!(
                        got, want,
                        "case {case}: {n_left}x{n_right}, K={top_k}, dirty={dirty}, \
                         adaptive={adaptive}, {workers} workers, spilled={spilled}"
                    );
                }
            }
        }
        assert!(
            std::fs::read_dir(&spill_dir).map_or(true, |mut d| d.next().is_none()),
            "spill scratch must be swept"
        );
        std::fs::remove_dir_all(&spill_dir).ok();
    }

    /// Random value lists for both sides whose two directions disagree on
    /// every weight, so a test sees which copy of a doubly-retained pair
    /// survives the union. Dirty ER lists skip the diagonal.
    fn disagreeing_lists(rng: &mut Rng, n_left: usize, n_right: usize, dirty: bool) -> [Rows<Candidate>; 2] {
        let mut lists = |n: usize, n_other: usize, base: f64| -> Rows<Candidate> {
            (0..n)
                .map(|e| {
                    let ids = random_ids(rng, n_other, dirty.then_some(e));
                    let weight = |rng: &mut Rng| base + rng.gen_range(0..100usize) as f64 / 7.0;
                    ids.into_iter().map(|o| Candidate::new(EntityId(o), weight(rng))).collect::<Vec<_>>()
                })
                .collect()
        };
        [lists(n_left, n_right, 1.0), lists(n_right, n_left, 0.5)]
    }

    /// The union as `(i, j, β bits)`, ascending.
    fn union_triples<T: Copy>(edges: &Rows<T>, edge: impl Fn(T) -> (u32, f64)) -> Vec<(u32, u32, u64)> {
        let mut triples = Vec::new();
        for (i, row) in edges.iter().enumerate() {
            triples.extend(row.iter().map(|&e| {
                let (j, w) = edge(e);
                (i as u32, j, w.to_bits())
            }));
        }
        triples
    }

    /// What `shuffle` holds, checked bucket by bucket against `chunk_r`,
    /// ascending by `(i, j)`.
    fn exchanged(shuffle: SpillShuffle<(u32, u32, f64)>, chunk_r: usize, exec: &Executor) -> Vec<(u32, u32, u64)> {
        let mut exchanged: Vec<(u32, u32, u64)> = Vec::new();
        for p in 0..shuffle.partitions() {
            let buckets = shuffle.take_partition(p).expect("read partition");
            for &(i, j, w) in buckets.iter().flatten() {
                assert_eq!(j as usize / chunk_r, p, "bucket of ({i}, {j})");
                exchanged.push((i, j, w.to_bits()));
            }
        }
        shuffle.finish(exec);
        exchanged.sort_unstable_by_key(|&(i, j, _)| (i, j));
        exchanged
    }

    #[test]
    fn the_p_scan_union_oracle_equals_the_tagged_sort_and_dedup() {
        let mut rng = Rng::seed_from_u64(0xBE7A);
        for case in 0..80 {
            let n_left = rng.gen_range(0..14usize);
            let n_right = rng.gen_range(0..14usize);
            let [value_left, value_right] = disagreeing_lists(&mut rng, n_left, n_right, false);

            // The pre-rewrite union: one sort of the tagged concatenation,
            // left-derived entries first among equals.
            let mut tagged: Vec<(u32, u32, u8, f64)> = Vec::new();
            for (i, cands) in value_left.iter().enumerate() {
                tagged.extend(cands.iter().map(|c| (i as u32, c.entity_id().0, 0, c.weight())));
            }
            for (j, cands) in value_right.iter().enumerate() {
                tagged.extend(cands.iter().map(|c| (c.entity_id().0, j as u32, 1, c.weight())));
            }
            tagged.sort_unstable_by_key(|&(i, j, tag, _)| (i, j, tag));
            tagged.dedup_by(|later, first| later.0 == first.0 && later.1 == first.1);
            let want: Vec<(u32, u32, u64)> =
                tagged.into_iter().map(|(i, j, _, w)| (i, j, w.to_bits())).collect();

            for workers in [1, 2, 8] {
                let exec = Executor::new(workers);
                let chunk = n_left.div_ceil(exec.partitions()).max(1);
                let chunk_r = n_right.div_ceil(exec.partitions()).max(1);
                let shuffle = SpillShuffle::new("union", n_right.div_ceil(chunk_r), None);
                let edges = crate::reference::beta_union_p_scans(&exec, &value_left, &value_right, chunk, chunk_r, &shuffle);
                assert_eq!(union_triples(&edges, |e| e), want, "case {case}: {n_left}x{n_right}, {workers} workers");
                // The same edges went into the exchange, each in the bucket
                // of its right endpoint.
                assert_eq!(exchanged(shuffle, chunk_r, &exec), want, "case {case}: {workers} workers, exchange");
            }
        }
    }

    /// The live-edge exchange against the P-scan union it replaced: the
    /// same union, less exactly the edges no γ cell reads — a left endpoint
    /// no left entity lists among its top-N neighbours, or a right one no
    /// right entity does — and the γ lists and cell count the whole union
    /// gives, summed cell by cell in `(i, j)` order.
    #[test]
    fn the_live_edge_exchange_equals_the_p_scan_union_minus_its_dead_edges() {
        use minoaner_dataflow::MemoryBudget;
        use std::collections::BTreeMap;

        let spill_dir = std::env::temp_dir().join(format!("gamma-live-exchange-{}", std::process::id()));
        minoaner_det::rng::for_each_seed(150, |rng| {
            // Sides of 0–13 entities: below the partition count of 2 and 8
            // workers, and empty now and then.
            let dirty = rng.gen_range(0..3usize) == 0;
            let n_left = rng.gen_range(0..14usize);
            let n_right = if dirty { n_left } else { rng.gen_range(0..14usize) };
            let [value_left, value_right] = disagreeing_lists(rng, n_left, n_right, dirty);
            // Entities without a top-N neighbour list no one, so some have
            // no in-neighbour; now and then a side has none at all.
            let mut view = |n: usize| {
                let mut view = random_views(rng, n);
                if rng.gen_range(0..5usize) == 0 {
                    view = NeighborViews::from_top(std::iter::repeat(Vec::<u32>::new()).take(n).collect());
                }
                view
            };
            let views = if dirty { vec![view(n_left)] } else { vec![view(n_left), view(n_right)] };
            let (left, right) = (&views[0], &views[views.len() - 1]);
            let cfg = GraphConfig {
                top_k: 1 + rng.gen_range(0..4usize),
                adaptive_pruning: rng.gen_range(0..4usize) == 0,
                ..GraphConfig::default()
            };

            let one = Executor::new(1);
            let chunk = n_left.div_ceil(one.partitions()).max(1);
            let chunk_r = n_right.div_ceil(one.partitions()).max(1);
            let shuffle = SpillShuffle::new("oracle", n_right.div_ceil(chunk_r), None);
            let oracle = crate::reference::beta_union_p_scans(&one, &value_left, &value_right, chunk, chunk_r, &shuffle);
            shuffle.finish(&one);
            let union = union_triples(&oracle, |e| e);
            let live = |&(i, j, _): &(u32, u32, u64)| {
                left.incoming.row_len(i as usize) > 0 && right.incoming.row_len(j as usize) > 0
            };
            let want_live: Vec<(u32, u32, u64)> = union.iter().copied().filter(live).collect();

            // Every γ cell from the whole union, edges in `(i, j)` order.
            let mut cells: BTreeMap<(u32, u32), f64> = BTreeMap::new();
            for &(i, j, w) in &union {
                for &a in Rows::row(&left.incoming, i as usize) {
                    for &b in Rows::row(&right.incoming, j as usize) {
                        if !(dirty && a == b) {
                            *cells.entry((a, b)).or_insert(0.0) += f64::from_bits(w);
                        }
                    }
                }
            }
            let (mut by_left, mut by_right) = (vec![Vec::new(); n_left], vec![Vec::new(); n_right]);
            for (&(a, b), &g) in &cells {
                by_left[a as usize].push(Candidate::new(EntityId(b), g));
                by_right[b as usize].push(Candidate::new(EntityId(a), g));
            }
            let cut = |rows: Vec<Vec<Candidate>>| -> Vec<Vec<(u32, u64)>> {
                rows.into_iter()
                    .map(|mut row| {
                        select_top_k(&mut row, cfg.top_k, cfg.adaptive_pruning);
                        row_bits(&row)
                    })
                    .collect()
            };
            let want_gamma = [cut(by_left), cut(by_right)];

            for workers in [1, 2, 8] {
                for budget in [None, Some(MemoryBudget::new(0, &spill_dir))] {
                    let ctx = format!("{n_left}x{n_right}, dirty={dirty}, {workers} workers, spilled={}", budget.is_some());
                    let mut exec = Executor::new(workers);
                    exec.set_memory_budget(budget);
                    let chunk = n_left.div_ceil(exec.partitions()).max(1);
                    let chunk_r = n_right.div_ceil(exec.partitions()).max(1);
                    let shuffle = SpillShuffle::new("live", n_right.div_ceil(chunk_r), exec.memory_budget());
                    let live_views = [&left.incoming, &right.incoming];
                    let (edges, n_union) =
                        beta_union(&exec, &value_left, &value_right, live_views, chunk, chunk_r, &shuffle);
                    assert_eq!(n_union, union.len() as u64, "{ctx}: the whole union is counted");
                    assert_eq!(edges.n_rows(), n_left, "{ctx}");
                    let kept = union_triples(&edges, |e: Candidate| (e.entity_id().0, e.weight()));
                    assert_eq!(kept, want_live, "{ctx}: kept edges");
                    assert_eq!(exchanged(shuffle, chunk_r, &exec), want_live, "{ctx}: exchanged edges");

                    let (got_left, got_right) = gamma_pass(&exec, &value_left, &value_right, &views, dirty, &cfg);
                    assert_eq!([weight_bits(&got_left), weight_bits(&got_right)], want_gamma, "{ctx}: γ lists");
                    let log = exec.stage_log();
                    let gamma = log.find("graph/gamma").expect("γ stage").io;
                    assert_eq!(gamma.items_out, cells.len() as u64, "{ctx}: γ cells");
                    let transpose = log.find("graph/gamma/transpose").expect("transpose stage").io;
                    assert_eq!(transpose.shuffle_bytes, 16 * want_live.len() as u64, "{ctx}: shuffle bytes");
                }
            }
        });
        assert!(
            std::fs::read_dir(&spill_dir).map_or(true, |mut d| d.next().is_none()),
            "spill scratch must be swept"
        );
        std::fs::remove_dir_all(&spill_dir).ok();
    }

    #[test]
    fn alpha_edge_connects_uniquely_named_pair() {
        let pair = figure1_pair();
        let g = build(&pair, GraphConfig::default());
        let chef_l = eid(&pair, Side::Left, "w:JohnLakeA");
        let chef_r = eid(&pair, Side::Right, "d:JonnyLake");
        // "J. Lake" is shared by exactly one entity per KB → α = 1.
        assert!(g.alpha_pairs().contains(&(chef_l, chef_r)));
        assert!(g.has_directed_edge(Side::Left, chef_l, chef_r));
        assert!(g.has_directed_edge(Side::Right, chef_r, chef_l));
    }

    #[test]
    fn beta_edges_reflect_shared_tokens() {
        let pair = figure1_pair();
        let g = build(&pair, GraphConfig::default());
        let r1 = eid(&pair, Side::Left, "w:Restaurant1");
        let r2 = eid(&pair, Side::Right, "d:Restaurant2");
        // "fat" and "duck" are shared → a β edge between the restaurants.
        let beta = g.beta(Side::Left, r1, r2).expect("restaurants share tokens");
        assert!(beta > 0.0);
        // β is symmetric across the two directed edges.
        let back = g.beta(Side::Right, r2, r1).expect("reverse edge");
        assert!((beta - back).abs() < 1e-12);
    }

    #[test]
    fn gamma_edge_connects_entities_with_matching_neighbors() {
        let pair = figure1_pair();
        let g = build(&pair, GraphConfig::default());
        let r1 = eid(&pair, Side::Left, "w:Restaurant1");
        let r2 = eid(&pair, Side::Right, "d:Restaurant2");
        // The chefs (β>0 via shared "chef celebrity lake" tokens and names)
        // are top neighbors of the restaurants → γ(r1, r2) > 0.
        let gamma = g
            .neighbor_candidates(Side::Left, r1)
            .iter()
            .find(|c| c.entity_id() == r2)
            .map(|c| c.weight())
            .expect("restaurants connected by neighbor evidence");
        assert!(gamma > 0.0);
    }

    #[test]
    fn gamma_equals_sum_of_contributing_betas() {
        // Minimal configuration: one β edge between the only neighbors.
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "l:parent", "l:rel", Term::Uri("l:child"));
        b.add_triple(Side::Left, "l:child", "l:p", Term::Literal("unique shared tokens"));
        b.add_triple(Side::Left, "l:parent", "l:p", Term::Literal("nothing common here"));
        b.add_triple(Side::Right, "r:parent", "r:rel", Term::Uri("r:child"));
        b.add_triple(Side::Right, "r:child", "r:p", Term::Literal("unique shared tokens"));
        b.add_triple(Side::Right, "r:parent", "r:p", Term::Literal("totally different words"));
        let pair = b.finish();
        let g = build(&pair, GraphConfig::default());
        let cl = eid(&pair, Side::Left, "l:child");
        let cr = eid(&pair, Side::Right, "r:child");
        let pl = eid(&pair, Side::Left, "l:parent");
        let pr = eid(&pair, Side::Right, "r:parent");
        let beta = g.beta(Side::Left, cl, cr).expect("children share tokens");
        let gamma = g
            .neighbor_candidates(Side::Left, pl)
            .iter()
            .find(|c| c.entity_id() == pr)
            .map(|c| c.weight())
            .expect("parents linked via children");
        assert!((gamma - beta).abs() < 1e-12, "γ must equal the single contributing β");
    }

    #[test]
    fn pruning_bounds_out_degree() {
        let mut b = KbPairBuilder::new();
        // One left entity sharing a token with many right entities.
        b.add_triple(Side::Left, "l", "p", Term::Literal("shared"));
        for i in 0..40 {
            let uri = format!("r{i}");
            b.add_triple(Side::Right, &uri, "p", Term::Literal(&format!("shared extra{i}")));
        }
        let pair = b.finish();
        let cfg = GraphConfig { top_k: 5, n_relations: 3, ..GraphConfig::default() };
        // Skip purging here: with one giant block purging would remove all
        // evidence; the K-pruning is what we are testing.
        let exec = Executor::new(2);
        let rels = RelationStats::compute(&pair);
        let names = NameStats::compute(&pair, 2);
        let tb = build_token_blocks(&pair);
        let nb = build_name_blocks(&pair, &names);
        let g = build_blocking_graph(&exec, &pair, &rels, &tb, &nb, &cfg);
        let l = eid(&pair, Side::Left, "l");
        assert!(g.value_candidates(Side::Left, l).len() <= 5);
    }

    #[test]
    fn candidates_are_sorted_descending() {
        let pair = figure1_pair();
        let g = build(&pair, GraphConfig::default());
        for side in [Side::Left, Side::Right] {
            for (e, _) in pair.kb(side).iter() {
                for list in [g.value_candidates(side, e), g.neighbor_candidates(side, e)] {
                    assert!(list.windows(2).all(|w| w[0].weight() >= w[1].weight()));
                    assert!(list.iter().all(|c| c.weight() > 0.0));
                }
            }
        }
    }

    #[test]
    fn no_edge_between_unrelated_entities() {
        let pair = figure1_pair();
        let g = build(&pair, GraphConfig::default());
        let uk = eid(&pair, Side::Left, "w:UK");
        let chef_r = eid(&pair, Side::Right, "d:JonnyLake");
        assert!(!g.has_directed_edge(Side::Left, uk, chef_r));
        assert_eq!(g.beta(Side::Left, uk, chef_r), None);
    }

    #[test]
    fn pair_weight_matches_beta_scatter_bitwise() {
        let pair = figure1_pair();
        let rels = RelationStats::compute(&pair);
        let names = NameStats::compute(&pair, 2);
        let mut tb = build_token_blocks(&pair);
        purge_blocks(&mut tb, pair.kb(Side::Left).len() + pair.kb(Side::Right).len());
        let nb = build_name_blocks(&pair, &names);
        // β is a raw accumulation: pair_weight must reproduce the scatter
        // pass's edge weight to the last bit.
        let g = build_blocking_graph(&Executor::new(2), &pair, &rels, &tb, &nb, &GraphConfig::default());
        let block_weight: Vec<f64> =
            tb.iter().map(|(_, b)| 1.0 / (b.comparisons() as f64 + 1.0).log2()).collect();
        let index = GraphIndex::build(&pair, &tb);
        let mut checked = 0usize;
        for side in [Side::Left, Side::Right] {
            for (e, _) in pair.kb(side).iter() {
                for c in g.value_candidates(side, e) {
                    let (cand, w) = (c.entity_id(), c.weight());
                    let kernel = index.pair_weight(side, e, cand, &block_weight);
                    assert_eq!(
                        kernel.to_bits(),
                        w.to_bits(),
                        "{side:?} {e:?} → {cand:?}: kernel {kernel} vs scatter {w}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "no retained edges to check");
    }

    #[test]
    fn graph_construction_is_deterministic_across_workers() {
        let pair = figure1_pair();
        let rels = RelationStats::compute(&pair);
        let names = NameStats::compute(&pair, 2);
        let mut tb = build_token_blocks(&pair);
        purge_blocks(&mut tb, pair.kb(Side::Left).len() + pair.kb(Side::Right).len());
        let nb = build_name_blocks(&pair, &names);
        let cfg = GraphConfig::default();
        let g1 = build_blocking_graph(&Executor::new(1), &pair, &rels, &tb, &nb, &cfg);
        let g4 = build_blocking_graph(&Executor::new(4), &pair, &rels, &tb, &nb, &cfg);
        assert_eq!(g1.alpha_pairs(), g4.alpha_pairs());
        for side in [Side::Left, Side::Right] {
            for (e, _) in pair.kb(side).iter() {
                assert_eq!(g1.value_candidates(side, e), g4.value_candidates(side, e));
                assert_eq!(g1.neighbor_candidates(side, e), g4.neighbor_candidates(side, e));
            }
        }
        assert_eq!(g1.weight_digest(), g4.weight_digest());
    }

    #[test]
    fn back_to_back_builds_are_bit_identical() {
        // The pre-rewrite γ pass iterated a randomly-seeded HashMap, so
        // its f64 summation order — and tie-adjacent weights — could vary
        // between two runs in the same process. This regression test pins
        // the fix: two consecutive builds must agree to the last bit.
        let pair = figure1_pair();
        let rels = RelationStats::compute(&pair);
        let names = NameStats::compute(&pair, 2);
        let mut tb = build_token_blocks(&pair);
        purge_blocks(&mut tb, pair.kb(Side::Left).len() + pair.kb(Side::Right).len());
        let nb = build_name_blocks(&pair, &names);
        let exec = Executor::new(3);
        for cfg in [GraphConfig::default(), GraphConfig { adaptive_pruning: true, ..GraphConfig::default() }] {
            let g1 = build_blocking_graph(&exec, &pair, &rels, &tb, &nb, &cfg);
            let g2 = build_blocking_graph(&exec, &pair, &rels, &tb, &nb, &cfg);
            assert_eq!(g1.weight_digest(), g2.weight_digest(), "{cfg:?}");
            for side in [Side::Left, Side::Right] {
                for (e, _) in pair.kb(side).iter() {
                    let (v1, v2) = (row_bits(g1.value_candidates(side, e)), row_bits(g2.value_candidates(side, e)));
                    assert_eq!(v1, v2, "{cfg:?}: value weights must be bit-identical");
                    let (n1, n2) = (row_bits(g1.neighbor_candidates(side, e)), row_bits(g2.neighbor_candidates(side, e)));
                    assert_eq!(n1, n2, "{cfg:?}: neighbor weights must be bit-identical");
                }
            }
        }
    }

    #[test]
    fn partial_selection_matches_full_sort() {
        // Weights engineered with ties so the id tie-break matters.
        let raw: Vec<Candidate> = (0..100u32)
            .map(|i| Candidate::new(EntityId(i), f64::from(i % 7) + 0.5))
            .collect();
        for top_k in [0, 1, 3, 7, 15, 99, 100, 120] {
            let fast = kernel_top_k(&raw, top_k, false);
            // The reference semantics: full sort, then truncate.
            let mut slow = raw.clone();
            slow.sort_unstable_by(by_weight_then_id);
            slow.truncate(top_k);
            assert_eq!(fast, slow, "top_k={top_k}");
        }

        // Hostile rows: the keys rank what the tuple comparator ranks, to
        // the bit, and drop what `w > 0` drops.
        const POOL: [f64; 14] = [
            1.0,
            1.0,
            1.0 + f64::EPSILON,
            0.1 + 0.2,
            0.3,
            f64::MIN_POSITIVE,
            5e-324,
            1e-310,
            f64::MAX,
            f64::INFINITY,
            0.0,
            -0.0,
            -1.5,
            f64::NAN,
        ];
        minoaner_det::rng::for_each_seed(300, |rng| {
            let mut ids: Vec<u32> = vec![0, u32::MAX];
            ids.extend((0..rng.gen_range(0..40usize)).map(|_| 1 + rng.gen_range(0..60usize) as u32));
            ids.sort_unstable();
            ids.dedup();
            rng.shuffle(&mut ids);
            ids.truncate(rng.gen_range(0..ids.len() + 1));
            let raw: Vec<Candidate> = ids
                .into_iter()
                .map(|id| {
                    let w = match rng.gen_range(0..3usize) {
                        0 => rng.gen_range(1..1000usize) as f64 / 7.0,
                        _ => POOL[rng.gen_range(0..POOL.len())],
                    };
                    Candidate::new(EntityId(id), w)
                })
                .collect();
            let len = raw.iter().filter(|c| c.weight() > 0.0).count();
            for top_k in [0, 1, len.saturating_sub(1), len, len + 1, usize::MAX] {
                for adaptive in [false, true] {
                    let mut want = raw.clone();
                    select_top_k(&mut want, top_k, adaptive);
                    assert_eq!(
                        row_bits(&kernel_top_k(&raw, top_k, adaptive)),
                        row_bits(&want),
                        "K={top_k}, adaptive={adaptive}, row {raw:?}"
                    );
                }
            }
        });
    }

    #[test]
    fn top_k_zero_keeps_no_value_or_neighbour_candidate() {
        let pair = figure1_pair();
        for adaptive_pruning in [false, true] {
            let g = build(&pair, GraphConfig { top_k: 0, adaptive_pruning, ..GraphConfig::default() });
            for side in [Side::Left, Side::Right] {
                for (e, _) in pair.kb(side).iter() {
                    assert!(g.value_candidates(side, e).is_empty());
                    assert!(g.neighbor_candidates(side, e).is_empty());
                }
            }
            assert!(!g.alpha_pairs().is_empty(), "name evidence is not pruned by K");
        }
    }

    #[test]
    fn dirty_er_builds_one_neighbour_view_for_both_sides() {
        let pair = dirty_pair();
        let rels = RelationStats::compute(&pair);
        let cfg = GraphConfig::default();
        let exec = Executor::new(2);
        let graph = build_on(&exec, &pair, cfg);
        let stage = exec.stage_log().find("graph/top-in-neighbors").expect("stage recorded").tasks;
        assert_eq!(stage, 1, "one view, computed once");

        // The build with a view per side, as clean-clean ER runs it.
        let [left, right] =
            [Side::Left, Side::Right].map(|side| NeighborViews::compute(&pair, &rels, side, cfg.n_relations));
        assert_eq!((&left.top, &left.incoming), (&right.top, &right.incoming));
        let [value_left, value_right] = graph.value_cands.clone();
        let (neighbor_left, neighbor_right) =
            gamma_pass(&exec, &value_left, &value_right, &[left, right], true, &cfg);
        assert!(neighbor_left.n_items() > 0, "the pair has neighbour evidence");
        let two_views = BlockingGraph::from_parts(
            [value_left, value_right],
            [neighbor_left, neighbor_right],
            graph.alpha.clone(),
        );
        assert_eq!(graph.weight_digest(), two_views.weight_digest());
    }

    /// A hub on each side is every entity's only neighbour, and the two
    /// hubs share the only tokens: one β edge, `n²` γ cells.
    fn hub_pair(n: usize) -> KbPair {
        let mut b = KbPairBuilder::new();
        for (side, p) in [(Side::Left, "l"), (Side::Right, "r")] {
            let hub = format!("{p}:hub");
            b.add_triple(side, &hub, "label", Term::Literal("grand central hub"));
            b.add_triple(side, &hub, "rel", Term::Uri(&hub));
            for e in 1..n {
                b.add_triple(side, &format!("{p}:{e}"), "rel", Term::Uri(&hub));
            }
        }
        b.finish()
    }

    /// The checkpoint part of a graph is its [`Spillable`] encoding. These
    /// are the bytes of two small graphs as the `(EntityId, f64)` tuple
    /// rows encoded them, before the rows became [`Candidate`]s: the
    /// layout changed, the part bytes — and so the `…-v4` fingerprint's
    /// promise — did not.
    #[test]
    fn checkpoint_part_bytes_are_pinned() {
        const FIGURE1: &str = "\
            050000000000000000000000010000000200000003000000030000000300000000000000000000000000000000000040\
            010000000000000000001040020000000000000000000040040000000000000000000000010000000200000003000000\
            030000000000000000000000000000000000004001000000000000000000104002000000000000000000004005000000\
            000000000000000001000000010000000100000001000000010000000000000000000000000000000000184004000000\
            000000000000000001000000010000000100000001000000000000000000000000000000000018400100000000000000\
            0100000001000000";
        const DIRTY: &str = "\
            060000000000000000000000010000000200000003000000040000000400000004000000000000000100000096cbc34e\
            27acf43f0000000096cbc34e27acf43f0300000096cbc34e27acf43f0200000096cbc34e27acf43f0600000000000000\
            00000000010000000200000003000000040000000400000004000000000000000100000096cbc34e27acf43f00000000\
            96cbc34e27acf43f0300000096cbc34e27acf43f0200000096cbc34e27acf43f06000000000000000000000001000000\
            0200000002000000020000000200000002000000000000000100000096cbc34e27acf43f0000000096cbc34e27acf43f\
            060000000000000000000000010000000200000002000000020000000200000002000000000000000100000096cbc34e\
            27acf43f0000000096cbc34e27acf43f0000000000000000";
        for (what, pair, want) in [("figure 1", figure1_pair(), FIGURE1), ("dirty ER", dirty_pair(), DIRTY)] {
            let graph = build(&pair, GraphConfig::default());
            let bytes = minoaner_det::codec::encode_to_vec(&graph);
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, want, "{what}");
            let back: BlockingGraph = minoaner_det::codec::decode_exact(&bytes).expect("decodes");
            assert_eq!(back.weight_digest(), graph.weight_digest(), "{what}: round trip");
        }
    }

    #[test]
    fn gamma_stage_is_annotated_with_item_flow() {
        use minoaner_dataflow::MemoryBudget;

        let edge_bytes = std::mem::size_of::<(u32, u32, f64)>() as u64;
        // The hubs' one β edge fans out into 144 cells: the exchange does
        // not grow with the cells.
        for (what, pair, min_cells, edges) in
            [("figure 1", figure1_pair(), 1, None), ("hub", hub_pair(12), 12 * 12, Some(1))]
        {
            let exec = Executor::new(2);
            build_on(&exec, &pair, GraphConfig::default());
            let log = exec.stage_log();
            let gamma = log.find("graph/gamma").expect("graph/gamma stage recorded").io;
            assert!(gamma.items_in > 0, "{what}: β union edges feed γ");
            assert!(edges.map_or(true, |n| n == gamma.items_in), "{what}: {} edges", gamma.items_in);
            assert!(gamma.items_out >= min_cells, "{what}: γ cells {}", gamma.items_out);
            assert!(log.iter().any(|s| s.name == "graph/index"));

            // The transpose is the shuffle: it moves the β union edges —
            // however many cells they fan out into — and reports that
            // volume and its largest reduce partition, the same whether
            // or not it spilled.
            let transpose =
                log.find("graph/gamma/transpose").expect("transpose stage recorded").io;
            assert_eq!(transpose.items_in, gamma.items_in, "{what}");
            assert_eq!(transpose.items_out, transpose.items_in, "{what}");
            assert_eq!(transpose.shuffle_bytes, gamma.items_in * edge_bytes, "{what}");
            assert!(transpose.max_partition_items > 0, "{what}");
            assert!(transpose.max_partition_items <= transpose.items_in, "{what}");

            let spill_dir = std::env::temp_dir()
                .join(format!("gamma-annotate-test-{}", std::process::id()));
            let mut budgeted = Executor::new(2);
            budgeted.set_memory_budget(Some(MemoryBudget::new(0, &spill_dir)));
            build_on(&budgeted, &pair, GraphConfig::default());
            let spilled = budgeted.stage_log();
            assert_eq!(spilled.find("graph/gamma/transpose").map(|s| s.io), Some(transpose));
            assert_eq!(spilled.find("graph/gamma").map(|s| s.io), Some(gamma), "{what}");
            std::fs::remove_dir_all(&spill_dir).ok();
        }
    }
}
