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
//!   by row range returns one `Rows` part per task and
//!   [`Rows::concat`] joins them: the destination is sized once and each
//!   part is freed as it is appended, so the transient is one part.
//! * Per-entity weight aggregation uses an epoch-stamped dense
//!   sparse-accumulator ([`crate::accum::SparseAccumulator`]); it and the
//!   rank-key buffer belong to the **worker** ([`KernelScratch`]), not the
//!   task, so a row costs no allocation: its live entries are ranked as
//!   packed integer keys ([`rank_key`]; `select_nth_unstable_by` when a row
//!   exceeds K) in that buffer and decoded straight into the task's `Rows`
//!   part.
//! * Sorted-row joins (reciprocal pruning) run on the galloping / 4-wide
//!   intersection kernel ([`crate::intersect`]).
//! * The γ pass runs one row kernel over both sides' rows — left rows walk
//!   the β-union edges by left endpoint, right rows the transposed view, the
//!   only thing exchanged. Each γ cell is one flat sum over the β edges
//!   sorted by `(i, j)`, so the result is bit-identical for every worker
//!   count — and across runs, since no randomly-seeded container is involved.
//!
//! The pre-rewrite kernel is preserved verbatim in `crate::reference`
//! (compiled for tests only); the seeded oracles and equivalence loops
//! pin this kernel to it with exact `f64` equality.

use minoaner_dataflow::{Executor, SpillShuffle, StageIo};
use minoaner_det::spillable_struct;
use minoaner_kb::stats::RelationStats;
use minoaner_kb::{EntityId, KbPair, Rows, Side};

use crate::accum::SparseAccumulator;
use crate::block::{NameBlocks, TokenBlocks};
use crate::name::{alpha_pairs, alpha_pairs_dirty};

/// Weighting scheme for the β (value) evidence pass.
///
/// The paper's valueSim (Def. 2.1) is "a variation of ARCS, a
/// Meta-blocking weighting scheme" (§5); the classic alternatives from
/// the Meta-blocking literature \[27\] are provided for the ablation bench —
/// they share the same candidate generation but rank candidates
/// differently. Note that rule R2's `β ≥ 1` threshold is calibrated for
/// the ARCS-style scale; with other schemes R2 effectively degenerates and
/// R1/R3 carry the workflow, which is part of what the ablation shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BetaWeighting {
    /// The paper's scheme: `Σ_b 1/log2(‖b‖+1)` over common blocks.
    #[default]
    Arcs,
    /// Common Blocks Scheme: the number of common blocks.
    Cbs,
    /// Enhanced CBS: `CBS · ln(|B|/|B_i|) · ln(|B|/|B_j|)` — CBS dampened
    /// for entities that appear in many blocks.
    Ecbs,
    /// Jaccard Scheme: `CBS / (|B_i| + |B_j| − CBS)`.
    Js,
}

/// Configuration of graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphConfig {
    /// `K`: candidates kept per entity, separately for value and neighbor
    /// evidence (paper default 15).
    pub top_k: usize,
    /// `N`: most important relations per entity used for neighbor evidence
    /// (paper default 3).
    pub n_relations: usize,
    /// β weighting scheme (the paper uses [`BetaWeighting::Arcs`]).
    pub beta_weighting: BetaWeighting,
    /// Adaptive pruning — the extension sketched in the paper's
    /// conclusion ("set the parameters of pruning candidate pairs
    /// dynamically, based on the local similarity distributions of each
    /// node's candidates"): instead of a fixed top-K cut, each node keeps
    /// the candidates whose weight stands out from its own candidate
    /// distribution (≥ mean + ½·stddev), still capped at `top_k`.
    pub adaptive_pruning: bool,
    /// Reciprocal pruning, from the enhanced Meta-blocking line of work
    /// the paper cites for its R4 idea \[28\]: a directed candidate edge is
    /// retained only if its reverse also survives the other endpoint's
    /// top-K cut. Stricter than the paper's graph (which defers
    /// reciprocity to rule R4) — measured in the `ablations` bench.
    pub reciprocal_pruning: bool,
}

impl Default for GraphConfig {
    fn default() -> Self {
        Self {
            top_k: 15,
            n_relations: 3,
            beta_weighting: BetaWeighting::Arcs,
            adaptive_pruning: false,
            reciprocal_pruning: false,
        }
    }
}

/// A candidate on the other side, with the evidence weight that ranked it.
pub type Candidate = (EntityId, f64);

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
    pub fn value_candidates(&self, side: Side, e: EntityId) -> &[Candidate] {
        self.value_cands[side.index()].row(e.index())
    }

    /// The entity's neighbor candidates, strongest `γ` first.
    pub fn neighbor_candidates(&self, side: Side, e: EntityId) -> &[Candidate] {
        self.neighbor_cands[side.index()].row(e.index())
    }

    /// The `β` weight of the directed edge `from → to`, if retained.
    pub fn beta(&self, from_side: Side, from: EntityId, to: EntityId) -> Option<f64> {
        self.value_candidates(from_side, from)
            .iter()
            .find(|&&(c, _)| c == to)
            .map(|&(_, w)| w)
    }

    /// Whether the directed edge `from → to` survived pruning (via any of
    /// the three evidence kinds). Rule R4's reciprocity test calls this in
    /// both directions.
    pub fn has_directed_edge(&self, from_side: Side, from: EntityId, to: EntityId) -> bool {
        if self.value_candidates(from_side, from).iter().any(|&(c, _)| c == to)
            || self.neighbor_candidates(from_side, from).iter().any(|&(c, _)| c == to)
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
        lists.map(|rows| rows.data().len()).sum::<usize>() + 2 * self.alpha.len()
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
                for &(e, w) in cands {
                    h = fnv(h, u64::from(e.0));
                    h = fnv(h, w.to_bits());
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
    /// (ascending; entities in no block get an empty row). Row lengths
    /// double as the `|B_i|` block counts of ECBS/JS.
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

    /// The raw β accumulation of one pair — `a` on `side`, `b` on the
    /// other side — as a sorted intersection of the two entities' block
    /// rows, folding `block_weight` in ascending block order: the exact
    /// `f64` addition order of the β scatter pass, so for the
    /// raw-accumulation schemes (ARCS, CBS) the result is bit-identical to
    /// the retained edge weight.
    #[cfg(test)]
    fn pair_weight(&self, side: Side, a: EntityId, b: EntityId, block_weight: &[f64]) -> f64 {
        let ra = self.entity_blocks[side.index()].row(a.index());
        let rb = self.entity_blocks[side.other().index()].row(b.index());
        let mut sum = 0.0;
        crate::intersect::intersect_visit(ra, rb, |bi| sum += block_weight[bi as usize]);
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
    let block_weight: Vec<f64> = match cfg.beta_weighting {
        BetaWeighting::Arcs => token_blocks
            .iter()
            .map(|(_, b)| 1.0 / (b.comparisons() as f64 + 1.0).log2())
            .collect(),
        // The block-count schemes accumulate 1 per common block and apply
        // their transformation when candidates are ranked.
        BetaWeighting::Cbs | BetaWeighting::Ecbs | BetaWeighting::Js => {
            vec![1.0; token_blocks.len()]
        }
    };

    let index = executor.time_stage("graph/index", || GraphIndex::build(pair, token_blocks));

    let [value_left, value_right] = [Side::Left, Side::Right].map(|side| {
        beta_pass(
            executor, pair, side, &index, &block_weight, cfg.top_k, cfg.beta_weighting,
            cfg.adaptive_pruning,
        )
    });

    // --- Neighbor evidence (lines 20-33) ---
    // Dirty ER: both sides mirror one KB, so the left view serves as both.
    let n_views = if pair.is_dirty() { 1 } else { 2 };
    let views = executor.run_stage("graph/top-in-neighbors", n_views, |t| {
        let side = if t == 0 { Side::Left } else { Side::Right };
        NeighborViews::compute(pair, rels, side, cfg.n_relations)
    });
    let (neighbor_left, neighbor_right) =
        gamma_pass(executor, &value_left, &value_right, &views, pair.is_dirty(), cfg);

    let mut graph = BlockingGraph {
        value_cands: [value_left, value_right],
        neighbor_cands: [neighbor_left, neighbor_right],
        alpha,
    };
    if cfg.reciprocal_pruning {
        apply_reciprocal_pruning(&mut graph);
    }
    executor.emit_counter("blocking/alpha_pairs", graph.alpha.len() as u64);
    executor.emit_counter("blocking/graph_directed_edges", graph.num_directed_edges() as u64);
    graph
}

/// Drops every directed candidate edge whose reverse did not survive the
/// other endpoint's cut (enhanced-Meta-blocking-style reciprocity [28]).
///
/// Each evidence kind is pruned as a sorted-adjacency join: one side's
/// lists are transposed into reverse rows (`rev[to]` = ascending `from`
/// ids), then every entity's ascending candidate-id row is intersected with
/// its reverse row on the intersection kernel ([`crate::intersect`]) and
/// exactly the common ids are retained — the weight-descending candidate
/// order is untouched.
pub(crate) fn apply_reciprocal_pruning(graph: &mut BlockingGraph) {
    /// Transposes candidate lists into reverse rows: row `to` holds the
    /// ascending `from` ids with an edge `from → to`. Ascending because
    /// the regroup is stable and walks `from` in order.
    fn transpose(lists: &Rows<Candidate>, n_to: usize) -> Rows<u32> {
        let edges = lists.iter().enumerate().flat_map(|(from, cands)| {
            cands.iter().map(move |&(to, _)| (to.index(), from as u32))
        });
        Rows::build(n_to, edges)
    }
    /// The lists with only the candidates present in the entity's reverse
    /// row.
    fn prune(lists: &Rows<Candidate>, reverse: &Rows<u32>) -> Rows<Candidate> {
        let mut kept = Rows::with_capacity(lists.n_rows(), lists.data().len());
        let mut ids: Vec<u32> = Vec::new();
        let mut common: Vec<u32> = Vec::new();
        for (from, cands) in lists.iter().enumerate() {
            ids.clear();
            ids.extend(cands.iter().map(|&(to, _)| to.0));
            ids.sort_unstable();
            crate::intersect::intersect_into(&ids, reverse.row(from), &mut common);
            kept.push_row(cands.iter().copied().filter(|&(to, _)| common.binary_search(&to.0).is_ok()));
        }
        kept
    }
    for lists in [&mut graph.value_cands, &mut graph.neighbor_cands] {
        // Both transposes are taken before either side is replaced:
        // reciprocity is judged against the pre-prune cut.
        let rev_of_right = transpose(&lists[1], lists[0].n_rows());
        let rev_of_left = transpose(&lists[0], lists[1].n_rows());
        lists[0] = prune(&lists[0], &rev_of_right);
        lists[1] = prune(&lists[1], &rev_of_left);
    }
}

/// Computes each `side` entity's top-K value candidates on the other side:
/// `β[j] += 1/log2(|b1|·|b2|+1)` for every shared block (line 14) — the
/// Meta-blocking-style pass adapted to the paper's value similarity (or
/// one of the alternative schemes, see [`BetaWeighting`]).
///
/// Contributions for one entity arrive in ascending block order (its
/// `entity_blocks` row) and, per block, ascending opposite-entity order — a defined order,
/// identical to the reference kernel's, so every β weight is bit-equal to
/// the reference.
#[allow(clippy::too_many_arguments)]
fn beta_pass(
    executor: &Executor,
    pair: &KbPair,
    side: Side,
    index: &GraphIndex<'_>,
    block_weight: &[f64],
    top_k: usize,
    weighting: BetaWeighting,
    adaptive: bool,
) -> Rows<Candidate> {
    let n = pair.kb(side).len();
    let n_other = pair.kb(side.other()).len();
    let eb_self = &index.entity_blocks[side.index()];
    let eb_other = &index.entity_blocks[side.other().index()];
    let members_other = index.members[side.other().index()];
    let total_blocks = members_other.n_rows() as f64;

    let dirty = pair.is_dirty();
    let tasks = executor.partitions().max(1);
    let chunk = n.div_ceil(tasks).max(1);
    let n_tasks = n.div_ceil(chunk);
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
                match weighting {
                    BetaWeighting::Arcs | BetaWeighting::Cbs => {}
                    BetaWeighting::Ecbs => {
                        let self_factor =
                            (total_blocks / (eb_self.row_len(this).max(1) as f64)).ln().max(1e-9);
                        acc.apply(|o, cbs| {
                            let other_factor = (total_blocks
                                / (eb_other.row_len(o as usize).max(1) as f64))
                                .ln()
                                .max(1e-9);
                            cbs * (self_factor * other_factor)
                        });
                    }
                    BetaWeighting::Js => {
                        let b_self = eb_self.row_len(this).max(1) as f64;
                        acc.apply(|o, cbs| {
                            let b_other = eb_other.row_len(o as usize).max(1) as f64;
                            let denom = b_self + b_other - cbs;
                            if denom > 0.0 { cbs / denom } else { 0.0 }
                        });
                    }
                }
                push_top_k(acc.entries(), keys, top_k, adaptive, &mut out);
            }
        });
        out
    });
    let lists = Rows::concat(partials);
    let retained = lists.data().len() as u64;
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
    (EntityId(!(key as u32)), f64::from_bits((key >> 32) as u64))
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
        let weight = |&key: &u128| ranked(key).1;
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
/// initial weights", §3.3) as rows by left endpoint: row `i` holds
/// `(j, β)` ascending by `j`. Where both directions retained the pair, the
/// left-derived weight wins (they are bit-equal anyway: both passes sum
/// the same block weights in the same ascending-block order).
///
/// Sharded by left-row range (`chunk` rows per task). A task regroups the
/// right-side lists' entries that point into its range by `i` — walked in
/// ascending `j`, so every regrouped row is already ascending — and merges
/// each with the row's own (at most K) left-derived entries: P cheap scans
/// of the right-side lists instead of one serial transpose ahead of the
/// stage. It is also the map side of the γ pass's one exchange: a task adds
/// its edges `(i, j, β)` to `shuffle` as one run, bucketed by `j / chunk_r`.
fn beta_union(
    executor: &Executor,
    value_left: &Rows<Candidate>,
    value_right: &Rows<Candidate>,
    chunk: usize,
    chunk_r: usize,
    shuffle: &SpillShuffle<(u32, u32, f64)>,
) -> Rows<(u32, f64)> {
    let n_left = value_left.n_rows();
    let parts = executor.run_stage("graph/gamma/union", n_left.div_ceil(chunk), |t| {
        let lo = t * chunk;
        let own = value_left.iter().skip(lo).take(chunk);
        let from_right = Rows::build(
            own.len(),
            value_right.iter().enumerate().flat_map(|(j, cands)| {
                cands.iter().filter_map(move |&(i, w)| {
                    let row = (i.0 as usize).checked_sub(lo).filter(|&row| row < chunk)?;
                    Some((row, (j as u32, w)))
                })
            }),
        );
        let upper = own.clone().map(<[Candidate]>::len).sum::<usize>() + from_right.data().len();
        let mut edges = Rows::with_capacity(own.len(), upper);
        let mut buckets: Vec<Vec<(u32, u32, f64)>> = vec![Vec::new(); shuffle.partitions()];
        let mut row: Vec<(u32, f64)> = Vec::new();
        for (r, cands) in own.enumerate() {
            row.clear();
            row.extend(cands.iter().map(|&(j, w)| (j.0, w)));
            row.extend_from_slice(from_right.row(r));
            // Stable: of two copies of one pair the left-derived one was
            // pushed first, sorts first and survives the dedup.
            row.sort_by_key(|&(j, _)| j);
            row.dedup_by_key(|&mut (j, _)| j);
            for &(j, w) in &row {
                if let Some(bucket) = buckets.get_mut(j as usize / chunk_r) {
                    bucket.push(((lo + r) as u32, j, w));
                }
            }
            edges.push_row(row.iter().copied());
        }
        if let Err(e) = shuffle.add_run(t, buckets) {
            std::panic::panic_any(e);
        }
        edges
    });
    Rows::concat(parts)
}

/// The exchange's reduce step: one partition's β edges `(i, j, β)` — its
/// buckets in map-task order — regrouped into rows by right endpoint, row
/// `j - lo` holding `(i, β)`. Map tasks own and emit ascending ranges of `i`,
/// so each row comes out ascending by `i`: what a sort by `(j, i)` produces.
fn regroup_by_right(buckets: &[Vec<(u32, u32, f64)>], lo: usize, width: usize) -> Rows<(u32, f64)> {
    Rows::build(width, buckets.iter().flatten().map(|&(i, j, w)| (j as usize - lo, (i, w))))
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
    edges: &Rows<(u32, f64)>,
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
                    gathered.extend(run.map(|&(i, beta)| (u64::from(i) << 32 | u64::from(j), beta)));
                }
                gathered.sort_unstable_by_key(|&(i_j, _)| i_j);
                for &(i_j, beta) in &gathered {
                    scatter((i_j >> 32) as u32, beta);
                }
            } else {
                for &x in near {
                    for &(far, beta) in edges.row(x as usize) {
                        scatter(far, beta);
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
/// the left-sharded [`beta_union`] is the edge list as rows by `j` — one
/// map→reduce shuffle, resident unless the executor's memory budget makes
/// it spill, with the same buckets in the same order either way.
fn gamma_pass(
    executor: &Executor,
    value_left: &Rows<Candidate>,
    value_right: &Rows<Candidate>,
    views: &[NeighborViews],
    dirty: bool,
    cfg: &GraphConfig,
) -> (Rows<Candidate>, Rows<Candidate>) {
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
    let edges = beta_union(executor, value_left, value_right, chunk_l, chunk_r, &shuffle);
    let n_edges = edges.data().len() as u64;
    executor.emit_counter("blocking/beta_union_edges", n_edges);

    // Transpose: the same edges as rows by right endpoint.
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
        max_partition_items: parts.iter().map(|part| part.data().len() as u64).max().unwrap_or(0),
        ..StageIo::items(n_edges, n_edges)
    };
    executor.annotate_last_stage("graph/gamma/transpose", io);
    let edges_t = Rows::concat(parts);

    // Row passes: the left-row tasks, then the right-row tasks.
    let mut partials = executor.run_stage("graph/gamma", tasks_l + tasks_r, |t| {
        if let Some(t) = t.checked_sub(tasks_l) {
            let rows = t * chunk_r..((t + 1) * chunk_r).min(n_right);
            gamma_rows(rows, &right.top, &edges_t, &left.incoming, true, dirty, cfg)
        } else {
            let rows = t * chunk_l..((t + 1) * chunk_l).min(n_left);
            gamma_rows(rows, &left.top, &edges, &right.incoming, false, dirty, cfg)
        }
    });
    let right_lists = Rows::concat(partials.split_off(tasks_l).into_iter().map(|(lists, _)| lists).collect());
    let left_cells: u64 = partials.iter().map(|&(_, cells)| cells).sum();
    executor.annotate_last_stage("graph/gamma", StageIo::items(n_edges, left_cells));
    executor.emit_counter("blocking/gamma_entries", left_cells);
    (Rows::concat(partials.into_iter().map(|(lists, _)| lists).collect()), right_lists)
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
        cands.retain(|&(_, w)| w > 0.0);
        cands.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        if adaptive && cands.len() > 1 {
            let n = cands.len() as f64;
            let mean = cands.iter().map(|&(_, w)| w).sum::<f64>() / n;
            let var = cands.iter().map(|&(_, w)| (w - mean).powi(2)).sum::<f64>() / n;
            let floor = mean + 0.5 * var.sqrt();
            let keep = cands.iter().take_while(|&&(_, w)| w >= floor).count();
            cands.truncate(keep.max(1));
        }
        cands.truncate(top_k);
    }

    /// The row the kernel keeps of `raw`.
    fn kernel_top_k(raw: &[Candidate], top_k: usize, adaptive: bool) -> Vec<Candidate> {
        let mut out = Rows::default();
        push_top_k(raw.iter().map(|&(e, w)| (e.0, w)), &mut Vec::new(), top_k, adaptive, &mut out);
        out.row(0).to_vec()
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
                let by_j: Rows<(u32, f64)> = regroup_by_right(&buckets, lo, width);
                for row in 0..width {
                    let j = (lo + row) as u32;
                    got.extend(by_j.row(row).iter().map(|&(i, w)| (i, j, w.to_bits())));
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
                    .map(|o| (EntityId(o), (1 + rng.gen_range(0..1000usize)) as f64 / 7.0))
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
        lists.iter().map(|l| l.iter().map(|&(e, w)| (e.0, w.to_bits())).collect()).collect()
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
            let reciprocal = case % 5 == 2;
            let n_left = rng.gen_range(0..13usize);
            let n_right = if dirty { n_left } else { rng.gen_range(0..13usize) };
            let top_k = 1 + rng.gen_range(0..4usize);
            let value_left = random_lists(&mut rng, n_left, n_right, dirty);
            let value_right = random_lists(&mut rng, n_right, n_left, dirty);
            let views = [random_views(&mut rng, n_left), random_views(&mut rng, n_right)];
            let graph_of = |(left, right): (Rows<Candidate>, Rows<Candidate>)| {
                let mut graph = BlockingGraph::from_parts(
                    [value_left.clone(), value_right.clone()],
                    [left, right],
                    Vec::new(),
                );
                if reciprocal {
                    apply_reciprocal_pruning(&mut graph);
                }
                graph.neighbor_cands.map(|lists| weight_bits(&lists))
            };

            // Every cell, from the left rows alone: nothing is pruned.
            let all = GraphConfig { top_k: usize::MAX, ..GraphConfig::default() };
            let (cells, _) =
                gamma_pass(&Executor::new(1), &value_left, &value_right, &views, dirty, &all);
            let mut transposed: Vec<Vec<Candidate>> = vec![Vec::new(); n_right];
            for (a, row) in cells.iter().enumerate() {
                for &(b, g) in row {
                    transposed[b.index()].push((EntityId(a as u32), g));
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
            let want = graph_of((select(cells), select(transposed)));

            for workers in [1, 2, 8] {
                for budget in [None, Some(MemoryBudget::new(0, &spill_dir))] {
                    let spilled = budget.is_some();
                    let mut exec = Executor::new(workers);
                    exec.set_memory_budget(budget);
                    let cfg =
                        GraphConfig { top_k, adaptive_pruning: adaptive, ..GraphConfig::default() };
                    let got =
                        graph_of(gamma_pass(&exec, &value_left, &value_right, &views, dirty, &cfg));
                    assert_eq!(
                        got, want,
                        "case {case}: {n_left}x{n_right}, K={top_k}, dirty={dirty}, \
                         adaptive={adaptive}, reciprocal={reciprocal}, {workers} workers, \
                         spilled={spilled}"
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

    #[test]
    fn beta_union_equals_the_tagged_sort_and_dedup() {
        let mut rng = Rng::seed_from_u64(0xBE7A);
        for case in 0..80 {
            let n_left = rng.gen_range(0..14usize);
            let n_right = rng.gen_range(0..14usize);
            // The two directions disagree on every weight, so the test
            // sees which copy of a doubly-retained pair survives.
            let value_left: Rows<Candidate> = (0..n_left)
                .map(|_| {
                    random_ids(&mut rng, n_right, None)
                        .into_iter()
                        .map(|j| (EntityId(j), 1.0 + rng.gen_range(0..100usize) as f64))
                        .collect::<Vec<_>>()
                })
                .collect();
            let value_right: Rows<Candidate> = (0..n_right)
                .map(|_| {
                    random_ids(&mut rng, n_left, None)
                        .into_iter()
                        .map(|i| (EntityId(i), -1.0 - rng.gen_range(0..100usize) as f64))
                        .collect::<Vec<_>>()
                })
                .collect();

            // The pre-rewrite union: one sort of the tagged concatenation,
            // left-derived entries first among equals.
            let mut tagged: Vec<(u32, u32, u8, f64)> = Vec::new();
            for (i, cands) in value_left.iter().enumerate() {
                for &(j, w) in cands {
                    tagged.push((i as u32, j.0, 0, w));
                }
            }
            for (j, cands) in value_right.iter().enumerate() {
                for &(i, w) in cands {
                    tagged.push((i.0, j as u32, 1, w));
                }
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
                let edges: Rows<(u32, f64)> =
                    beta_union(&exec, &value_left, &value_right, chunk, chunk_r, &shuffle);
                let got: Vec<(u32, u32, u64)> = (0..n_left)
                    .flat_map(|i| {
                        edges.row(i).iter().map(move |&(j, w)| (i as u32, j, w.to_bits()))
                    })
                    .collect();
                assert_eq!(got, want, "case {case}: {n_left}x{n_right}, {workers} workers");

                // The same edges went into the exchange, each in the
                // bucket of its right endpoint, in production order.
                let mut exchanged: Vec<(u32, u32, u64)> = Vec::new();
                for p in 0..shuffle.partitions() {
                    let buckets = shuffle.take_partition(p).expect("resident partition");
                    for &(i, j, w) in buckets.iter().flatten() {
                        assert_eq!(j as usize / chunk_r, p, "case {case}: bucket of ({i}, {j})");
                        exchanged.push((i, j, w.to_bits()));
                    }
                }
                shuffle.finish(&exec);
                exchanged.sort_unstable_by_key(|&(i, j, _)| (i, j));
                assert_eq!(exchanged, want, "case {case}: {workers} workers, exchange");
            }
        }
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
            .find(|&&(c, _)| c == r2)
            .map(|&(_, w)| w)
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
            .find(|&&(c, _)| c == pr)
            .map(|&(_, w)| w)
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
                    assert!(list.windows(2).all(|w| w[0].1 >= w[1].1));
                    assert!(list.iter().all(|&(_, w)| w > 0.0));
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
    fn alternative_beta_weightings_rank_candidates() {
        let pair = figure1_pair();
        let exec = Executor::new(1);
        let rels = RelationStats::compute(&pair);
        let names = NameStats::compute(&pair, 2);
        let tb = build_token_blocks(&pair);
        let nb = build_name_blocks(&pair, &names);
        let r1 = eid(&pair, Side::Left, "w:Restaurant1");
        let r2 = eid(&pair, Side::Right, "d:Restaurant2");
        for scheme in [BetaWeighting::Cbs, BetaWeighting::Ecbs, BetaWeighting::Js] {
            let cfg = GraphConfig { beta_weighting: scheme, ..GraphConfig::default() };
            let g = build_blocking_graph(&exec, &pair, &rels, &tb, &nb, &cfg);
            let beta = g.beta(Side::Left, r1, r2);
            assert!(beta.is_some(), "{scheme:?}: restaurants must stay candidates");
            assert!(beta.unwrap() > 0.0);
        }
        // CBS of the restaurants equals their number of common blocks.
        let cfg = GraphConfig { beta_weighting: BetaWeighting::Cbs, ..GraphConfig::default() };
        let g = build_blocking_graph(&exec, &pair, &rels, &tb, &nb, &cfg);
        let cbs = g.beta(Side::Left, r1, r2).unwrap();
        assert!((cbs - cbs.round()).abs() < 1e-9, "CBS is an integer count");
        assert!(cbs >= 2.0, "fat+duck are common blocks");
    }

    #[test]
    fn js_weights_are_normalized() {
        let pair = figure1_pair();
        let exec = Executor::new(1);
        let rels = RelationStats::compute(&pair);
        let names = NameStats::compute(&pair, 2);
        let tb = build_token_blocks(&pair);
        let nb = build_name_blocks(&pair, &names);
        let cfg = GraphConfig { beta_weighting: BetaWeighting::Js, ..GraphConfig::default() };
        let g = build_blocking_graph(&exec, &pair, &rels, &tb, &nb, &cfg);
        for side in [Side::Left, Side::Right] {
            for (e, _) in pair.kb(side).iter() {
                for &(_, w) in g.value_candidates(side, e) {
                    assert!((0.0..=1.0 + 1e-9).contains(&w), "JS weight out of range: {w}");
                }
            }
        }
    }

    #[test]
    fn reciprocal_pruning_keeps_only_mutual_edges() {
        let pair = figure1_pair();
        let exec = Executor::new(1);
        let rels = RelationStats::compute(&pair);
        let names = NameStats::compute(&pair, 2);
        let tb = build_token_blocks(&pair);
        let nb = build_name_blocks(&pair, &names);
        let cfg = GraphConfig { reciprocal_pruning: true, top_k: 2, ..GraphConfig::default() };
        let g = build_blocking_graph(&exec, &pair, &rels, &tb, &nb, &cfg);
        for (i, cands) in (0..pair.kb(Side::Left).len()).map(|i| {
            (i, g.value_candidates(Side::Left, EntityId(i as u32)).to_vec())
        }) {
            for (to, _) in cands {
                assert!(
                    g.value_candidates(Side::Right, to).iter().any(|&(b, _)| b.0 == i as u32),
                    "edge {i}->{to:?} kept without its reverse"
                );
            }
        }
    }

    #[test]
    fn reciprocal_pruning_matches_bruteforce_reverse_check() {
        let pair = figure1_pair();
        let base = build(&pair, GraphConfig { top_k: 2, ..GraphConfig::default() });
        let mut pruned = base.clone();
        apply_reciprocal_pruning(&mut pruned);
        for side in [Side::Left, Side::Right] {
            for (e, _) in pair.kb(side).iter() {
                let expect_value: Vec<Candidate> = base
                    .value_candidates(side, e)
                    .iter()
                    .copied()
                    .filter(|&(to, _)| {
                        base.value_candidates(side.other(), to).iter().any(|&(back, _)| back == e)
                    })
                    .collect();
                assert_eq!(pruned.value_candidates(side, e), &expect_value[..]);
                let expect_neighbor: Vec<Candidate> = base
                    .neighbor_candidates(side, e)
                    .iter()
                    .copied()
                    .filter(|&(to, _)| {
                        base.neighbor_candidates(side.other(), to)
                            .iter()
                            .any(|&(back, _)| back == e)
                    })
                    .collect();
                assert_eq!(pruned.neighbor_candidates(side, e), &expect_neighbor[..]);
            }
        }
    }

    #[test]
    fn pair_weight_matches_beta_scatter_bitwise() {
        let pair = figure1_pair();
        let rels = RelationStats::compute(&pair);
        let names = NameStats::compute(&pair, 2);
        let mut tb = build_token_blocks(&pair);
        purge_blocks(&mut tb, pair.kb(Side::Left).len() + pair.kb(Side::Right).len());
        let nb = build_name_blocks(&pair, &names);
        // ARCS and CBS are raw accumulations — pair_weight must reproduce
        // the scatter pass's edge weight to the last bit.
        for weighting in [BetaWeighting::Arcs, BetaWeighting::Cbs] {
            let cfg = GraphConfig { beta_weighting: weighting, ..GraphConfig::default() };
            let g = build_blocking_graph(&Executor::new(2), &pair, &rels, &tb, &nb, &cfg);
            let block_weight: Vec<f64> = match weighting {
                BetaWeighting::Arcs => {
                    tb.iter().map(|(_, b)| 1.0 / (b.comparisons() as f64 + 1.0).log2()).collect()
                }
                _ => vec![1.0; tb.len()],
            };
            let index = GraphIndex::build(&pair, &tb);
            let mut checked = 0usize;
            for side in [Side::Left, Side::Right] {
                for (e, _) in pair.kb(side).iter() {
                    for &(cand, w) in g.value_candidates(side, e) {
                        let kernel = index.pair_weight(side, e, cand, &block_weight);
                        assert_eq!(
                            kernel.to_bits(),
                            w.to_bits(),
                            "{weighting:?}: {side:?} {e:?} → {cand:?}: kernel {kernel} vs scatter {w}"
                        );
                        checked += 1;
                    }
                }
            }
            assert!(checked > 0, "{weighting:?}: no retained edges to check");
        }
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
        for cfg in [
            GraphConfig::default(),
            GraphConfig { adaptive_pruning: true, ..GraphConfig::default() },
            GraphConfig { beta_weighting: BetaWeighting::Ecbs, ..GraphConfig::default() },
        ] {
            let g1 = build_blocking_graph(&exec, &pair, &rels, &tb, &nb, &cfg);
            let g2 = build_blocking_graph(&exec, &pair, &rels, &tb, &nb, &cfg);
            assert_eq!(g1.weight_digest(), g2.weight_digest(), "{cfg:?}");
            for side in [Side::Left, Side::Right] {
                for (e, _) in pair.kb(side).iter() {
                    let v1: Vec<(u32, u64)> =
                        g1.value_candidates(side, e).iter().map(|&(c, w)| (c.0, w.to_bits())).collect();
                    let v2: Vec<(u32, u64)> =
                        g2.value_candidates(side, e).iter().map(|&(c, w)| (c.0, w.to_bits())).collect();
                    assert_eq!(v1, v2, "{cfg:?}: value weights must be bit-identical");
                    let n1: Vec<(u32, u64)> = g1
                        .neighbor_candidates(side, e)
                        .iter()
                        .map(|&(c, w)| (c.0, w.to_bits()))
                        .collect();
                    let n2: Vec<(u32, u64)> = g2
                        .neighbor_candidates(side, e)
                        .iter()
                        .map(|&(c, w)| (c.0, w.to_bits()))
                        .collect();
                    assert_eq!(n1, n2, "{cfg:?}: neighbor weights must be bit-identical");
                }
            }
        }
    }

    #[test]
    fn partial_selection_matches_full_sort() {
        // Weights engineered with ties so the id tie-break matters.
        let raw: Vec<Candidate> = (0..100u32)
            .map(|i| (EntityId(i), f64::from(i % 7) + 0.5))
            .collect();
        for top_k in [0, 1, 3, 7, 15, 99, 100, 120] {
            let fast = kernel_top_k(&raw, top_k, false);
            // The reference semantics: full sort, then truncate.
            let mut slow = raw.clone();
            slow.sort_unstable_by(|a, b| {
                b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
            });
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
                    (EntityId(id), w)
                })
                .collect();
            let len = raw.iter().filter(|&&(_, w)| w > 0.0).count();
            let bits = |row: &[Candidate]| -> Vec<(u32, u64)> {
                row.iter().map(|&(e, w)| (e.0, w.to_bits())).collect()
            };
            for top_k in [0, 1, len.saturating_sub(1), len, len + 1, usize::MAX] {
                for adaptive in [false, true] {
                    let mut want = raw.clone();
                    select_top_k(&mut want, top_k, adaptive);
                    assert_eq!(
                        bits(&kernel_top_k(&raw, top_k, adaptive)),
                        bits(&want),
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
        assert_eq!((left.top.data(), left.incoming.data()), (right.top.data(), right.incoming.data()));
        let [value_left, value_right] = graph.value_cands.clone();
        let (neighbor_left, neighbor_right) =
            gamma_pass(&exec, &value_left, &value_right, &[left, right], true, &cfg);
        assert!(!neighbor_left.data().is_empty(), "the pair has neighbour evidence");
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
