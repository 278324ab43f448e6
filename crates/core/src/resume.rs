//! Resumable pipeline execution: the typed layer between the pipeline's
//! stage barriers and the byte-oriented
//! [`CheckpointStore`].
//!
//! The pipeline has three natural barriers (Figure 4's synchronization
//! edges): `blocks` (statistics + composite blocks + purge), `graph` (the
//! pruned disjunctive blocking graph) and `matches` (Algorithm 2's output).
//! Each barrier's state is written as one part per component, in the exact
//! binary record codec spill runs use ([`Spillable`]: little-endian,
//! bit-exact floats, row tables rebuilt through `Rows::from_parts`), each
//! encoded in place into the barrier's one file; the store handles
//! framing, checksums, atomic commit and recovery scanning, while this
//! module owns *what* is stored and how a recovered barrier is turned back
//! into typed pipeline state.
//!
//! A [`run_fingerprint`] binds every checkpoint to the run's configuration
//! and input sizes, so a resume against a different setup is
//! refused by the store's validation rather than silently producing output
//! for the wrong run.

use std::collections::BTreeMap;
use std::path::PathBuf;

use minoaner_blocking::graph::BlockingGraph;
use minoaner_blocking::purge::PurgeReport;
use minoaner_dataflow::vfs::{self, VfsRef};
use minoaner_dataflow::{
    CheckpointError, CheckpointStore, DataflowError, DegradeOnCkptError, Executor,
    RecoveredStage, TraceCollector,
};
use minoaner_det::codec::{decode_exact, Spillable};
use minoaner_det::checksum;
use minoaner_kb::{EntityId, KbPair, Side};

use crate::config::MinoanerConfig;
use crate::matcher::RuleCounts;
use crate::pipeline::PreparedBlocks;

/// Barrier index of the `blocks` checkpoint.
pub const BARRIER_BLOCKS: usize = 0;
/// Barrier index of the `graph` checkpoint.
pub const BARRIER_GRAPH: usize = 1;
/// Barrier index of the `matches` checkpoint.
pub const BARRIER_MATCHES: usize = 2;
/// Barrier names, indexed by barrier.
pub const BARRIER_NAMES: [&str; 3] = ["blocks", "graph", "matches"];

/// How a checkpointed run is configured: where snapshots live and whether
/// to resume from them. Every barrier is written. Set the other fields as
/// a struct literal over [`Self::new`]:
/// `CheckpointSpec { resume: true, ..CheckpointSpec::new(dir) }`.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Root directory for the run's checkpoints.
    pub dir: PathBuf,
    /// Scan `dir` for the newest valid checkpoint of this run and resume
    /// from it instead of recomputing.
    pub resume: bool,
    /// What a checkpoint I/O failure does to the run (default:
    /// [`DegradeOnCkptError::Fail`]). Under
    /// [`DegradeOnCkptError::Continue`] a failed barrier write (or a
    /// failed restore scan) latches checkpointing off for the rest of the
    /// run and bumps the `ckpt/degraded` counter; the run's output is
    /// unaffected — it is merely no longer resumable.
    pub on_error: DegradeOnCkptError,
    /// The filesystem checkpoint I/O goes through — the production
    /// default from [`vfs::default_vfs`] unless a fault-injecting one is
    /// set in its place.
    pub vfs: VfsRef,
}

impl CheckpointSpec {
    /// A spec that checkpoints every barrier under `dir`, without resuming.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            resume: false,
            on_error: DegradeOnCkptError::Fail,
            vfs: vfs::default_vfs(),
        }
    }
}

/// Fingerprint binding a checkpoint to its run: the resolver configuration
/// (θ bit-exact), the input KB dimensions, and — in the domain string — the
/// layout of the checkpointed parts and of the fingerprint itself (`v5`:
/// little-endian [`Spillable`] records, blocks as a key column and two
/// member tables, a plain purge report, everything under [`checksum`];
/// `v4` stored the purge report as an `Option` and hashed seven constant
/// slots for switches since deleted, `v3` held a record per block under
/// FNV-1a, `v2` was JSON), so a directory written with another layout is
/// recomputed, never mis-decoded. A sanity guard against resuming with
/// drifted inputs or settings — not a content hash of the KBs (re-parsing
/// identical input reproduces it; swapping in a different dataset of
/// identical dimensions would not be caught).
pub fn run_fingerprint(config: &MinoanerConfig, pair: &KbPair) -> u64 {
    fingerprint_in(b"minoaner-run-fingerprint-v5", config, pair)
}

/// [`run_fingerprint`] under an explicit layout domain.
fn fingerprint_in(domain: &[u8], config: &MinoanerConfig, pair: &KbPair) -> u64 {
    let mut bytes = Vec::with_capacity(88);
    bytes.extend_from_slice(domain);
    for v in [
        config.name_attrs_k as u64,
        config.top_k as u64,
        config.n_relations as u64,
        config.theta.to_bits(),
        pair.kb(Side::Left).len() as u64,
        pair.kb(Side::Right).len() as u64,
        pair.attr_space() as u64,
    ] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    checksum(&bytes)
}

/// One named part of a barrier: a record the store encodes in place into
/// the barrier's file.
pub(crate) type Part<'a> = (&'static str, &'a dyn Spillable);

/// Decodes the named part of a recovered barrier. The store has already
/// verified the part's content hash, so a part that decodes short, long or
/// to an invalid value (row offsets out of order, say) means the writer
/// and reader disagree on the layout: [`CheckpointError::Corrupt`].
fn decode_part<T: Spillable>(stage: &RecoveredStage, name: &str) -> Result<T, CheckpointError> {
    let bytes = stage.part(name).ok_or_else(|| CheckpointError::Corrupt {
        path: name.to_owned(),
        detail: format!("barrier {:?} is missing part {name:?}", stage.stage),
    })?;
    decode_exact(bytes).ok_or_else(|| CheckpointError::Corrupt {
        path: name.to_owned(),
        detail: format!("part does not decode as exactly one record ({} bytes)", bytes.len()),
    })
}

/// The `blocks` barrier's parts.
pub(crate) fn blocks_parts(blocks: &PreparedBlocks) -> [Part<'_>; 5] {
    [
        ("relation_stats", &blocks.relation_stats),
        ("name_stats", &blocks.name_stats),
        ("token_blocks", &blocks.token_blocks),
        ("name_blocks", &blocks.name_blocks),
        ("purge", &blocks.purge),
    ]
}

/// Rebuilds [`PreparedBlocks`] from a recovered `blocks` barrier.
pub(crate) fn blocks_from_stage(stage: &RecoveredStage) -> Result<PreparedBlocks, CheckpointError> {
    Ok(PreparedBlocks {
        relation_stats: decode_part(stage, "relation_stats")?,
        name_stats: decode_part(stage, "name_stats")?,
        token_blocks: decode_part(stage, "token_blocks")?,
        name_blocks: decode_part(stage, "name_blocks")?,
        purge: decode_part(stage, "purge")?,
    })
}

/// The `graph` barrier's parts; `purge` is the run's report.
pub(crate) fn graph_parts<'a>(graph: &'a BlockingGraph, purge: &'a PurgeReport) -> [Part<'a>; 2] {
    [("graph", graph), ("purge", purge)]
}

/// Rebuilds the graph state from a recovered `graph` barrier.
pub(crate) fn graph_from_stage(stage: &RecoveredStage) -> Result<(BlockingGraph, PurgeReport), CheckpointError> {
    Ok((decode_part(stage, "graph")?, decode_part(stage, "purge")?))
}

/// The `matches` barrier's parts; `purge` is the run's report. `matches`
/// is the `Vec` it decodes as.
#[allow(clippy::ptr_arg)]
pub(crate) fn matches_parts<'a>(
    matches: &'a Vec<(EntityId, EntityId)>,
    counts: &'a RuleCounts,
    graph_digest: &'a u64,
    purge: &'a PurgeReport,
) -> [Part<'a>; 4] {
    [("matches", matches), ("rule_counts", counts), ("graph_digest", graph_digest), ("purge", purge)]
}

/// Rebuilds the final results from a recovered `matches` barrier.
#[allow(clippy::type_complexity)]
pub(crate) fn matches_from_stage(
    stage: &RecoveredStage,
) -> Result<(Vec<(EntityId, EntityId)>, RuleCounts, u64, PurgeReport), CheckpointError> {
    Ok((
        decode_part(stage, "matches")?,
        decode_part(stage, "rule_counts")?,
        decode_part(stage, "graph_digest")?,
        decode_part(stage, "purge")?,
    ))
}

/// The checkpoint side of one pipeline run: opens the store, restores the
/// newest valid barrier and commits barriers as the run passes them.
///
/// `live` is `None` — and every call a no-op — when the request carried no
/// [`CheckpointSpec`], and from the moment a checkpoint failure under
/// [`DegradeOnCkptError::Continue`] latches checkpointing off (counted in
/// `ckpt/degraded`): the run's output is unaffected either way, it is
/// merely not resumable.
pub(crate) struct Barriers<'a> {
    live: Option<LiveBarriers<'a>>,
}

struct LiveBarriers<'a> {
    store: CheckpointStore,
    spec: &'a CheckpointSpec,
    collector: &'a TraceCollector,
    fingerprint: u64,
}

impl<'a> Barriers<'a> {
    /// Opens `spec`'s store for the run identified by `fingerprint`; its
    /// barriers snapshot `collector`'s counters. Without a spec every call
    /// is a no-op.
    pub(crate) fn open(
        spec: Option<&'a CheckpointSpec>,
        collector: &'a TraceCollector,
        executor: &Executor,
        fingerprint: impl FnOnce() -> u64,
    ) -> Result<Self, DataflowError> {
        let Some(spec) = spec else { return Ok(Self { live: None }) };
        let mut barriers = Self { live: None };
        match CheckpointStore::open(&spec.dir, spec.vfs.clone()) {
            Ok(store) => {
                let fingerprint = fingerprint();
                barriers.live = Some(LiveBarriers { store, spec, collector, fingerprint });
            }
            Err(e) => barriers.fail(executor, spec, e)?,
        }
        Ok(barriers)
    }

    /// A failed checkpoint operation: under
    /// [`DegradeOnCkptError::Continue`] it latches checkpointing off and
    /// lets the run continue; under the default policy it propagates.
    fn fail(
        &mut self,
        executor: &Executor,
        spec: &CheckpointSpec,
        e: CheckpointError,
    ) -> Result<(), DataflowError> {
        if spec.on_error != DegradeOnCkptError::Continue {
            return Err(e.into());
        }
        self.live = None;
        executor.emit_counter("ckpt/degraded", 1);
        Ok(())
    }

    /// When the spec asks to resume: the newest valid barrier of this run,
    /// timed as the `ckpt/restore` stage. Re-emits the barrier's counter
    /// snapshot so the resumed run's domain counters match an
    /// uninterrupted run's.
    pub(crate) fn restore(
        &mut self,
        executor: &Executor,
    ) -> Result<Option<RecoveredStage>, DataflowError> {
        let Some(live) = self.live.as_ref().filter(|live| live.spec.resume) else {
            return Ok(None);
        };
        let spec = live.spec;
        let recovery =
            executor.time_stage("ckpt/restore", || live.store.recover_latest(live.fingerprint));
        match recovery {
            Ok(recovery) => {
                executor.emit_counter("ckpt/rejected", recovery.rejected.len() as u64);
                if let Some(stage) = &recovery.stage {
                    executor.emit_counter("ckpt/bytes_restored", stage.total_bytes());
                    executor.emit_counter("ckpt/resumed_from", stage.barrier as u64 + 1);
                    for (name, value) in &stage.counters {
                        executor.emit_counter(name, *value);
                    }
                }
                Ok(recovery.stage)
            }
            // The checkpoint directory is unreadable: recompute from
            // scratch and stop trusting the store.
            Err(e) => self.fail(executor, spec, e).map(|()| None),
        }
    }

    /// Commits barrier `barrier` (`name`), timing the encoding and the write
    /// as a `ckpt/write/<name>` stage and accounting the payload in the
    /// `ckpt/bytes_written` / `ckpt/barriers_written` counters. The
    /// counter snapshot stored with the barrier excludes the `ckpt/*`
    /// namespace: a resumed run re-emits the snapshot, and its own
    /// checkpoint accounting legitimately differs from the interrupted
    /// run's.
    pub(crate) fn commit(
        &mut self,
        executor: &Executor,
        barrier: usize,
        name: &str,
        parts: &[Part<'_>],
    ) -> Result<(), DataflowError> {
        let Some(live) = self.live.as_ref() else { return Ok(()) };
        let spec = live.spec;
        let counters: BTreeMap<String, u64> = live
            .collector
            .counters()
            .into_iter()
            .filter(|(k, _)| !k.starts_with("ckpt/"))
            .collect();
        let written = executor.time_stage(&format!("ckpt/write/{name}"), || {
            live.store.write_parts(barrier, name, live.fingerprint, parts, &counters)
        });
        match written {
            Ok(bytes) => {
                executor.emit_counter("ckpt/bytes_written", bytes);
                executor.emit_counter("ckpt/barriers_written", 1);
                Ok(())
            }
            Err(e) => {
                self.fail(executor, spec, e)?;
                executor.emit_counter("ckpt/degraded_at", barrier as u64 + 1);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Minoaner, ResolveRequest};
    use minoaner_dataflow::RunTrace;
    use minoaner_kb::{KbPairBuilder, Term};

    fn tiny_pair() -> KbPair {
        let mut b = KbPairBuilder::new();
        b.add_triple(Side::Left, "w:A", "w:label", Term::Literal("Alpha"));
        b.add_triple(Side::Right, "d:A", "d:name", Term::Literal("Alpha"));
        b.finish()
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let pair = tiny_pair();
        let config = MinoanerConfig::default();
        let base = run_fingerprint(&config, &pair);
        assert_eq!(base, run_fingerprint(&config, &pair), "deterministic");
        // Pinned: a change to what the fingerprint hashes must come with a
        // new layout domain.
        assert_eq!(base, 2_392_420_899_222_049_233);
        assert_eq!(run_fingerprint(&config, &linked_pair()), 6_580_741_214_374_286_336);
        let other = MinoanerConfig { theta: 0.7, ..config };
        assert_eq!(run_fingerprint(&other, &linked_pair()), 11_973_948_387_660_844_278);
        assert_ne!(base, run_fingerprint(&other, &pair), "the configuration is part of the identity");
    }

    #[test]
    fn spec_defaults_checkpoint_every_barrier() {
        let spec = CheckpointSpec::new("/tmp/ckpt");
        assert!(!spec.resume);
        assert_eq!(spec.on_error, DegradeOnCkptError::Fail);
    }

    /// A pair with value, name and neighbour evidence, so every candidate
    /// table of its graph has rows.
    fn linked_pair() -> KbPair {
        let mut b = KbPairBuilder::new();
        for (id, name, chef) in [("1", "The Fat Duck", "Jonny Lake"), ("2", "Noma", "Rene Redzepi")] {
            b.add_triple(Side::Left, &format!("w:{id}"), "w:label", Term::Literal(name));
            b.add_triple(Side::Left, &format!("w:{id}"), "w:chef", Term::Uri(&format!("w:c{id}")));
            b.add_triple(Side::Left, &format!("w:c{id}"), "w:label", Term::Literal(chef));
            b.add_triple(Side::Right, &format!("d:{id}"), "d:name", Term::Literal(&format!("{name} restaurant")));
            b.add_triple(Side::Right, &format!("d:{id}"), "d:headChef", Term::Uri(&format!("d:c{id}")));
            b.add_triple(Side::Right, &format!("d:c{id}"), "d:name", Term::Literal(chef));
        }
        b.finish()
    }

    /// The `graph` barrier of [`linked_pair`] as recovery would hand it
    /// over, after `damage` to the bytes of its `graph` part.
    fn graph_stage(damage: impl FnOnce(&mut Vec<u8>)) -> (RecoveredStage, u64) {
        let pair = linked_pair();
        let (resolver, exec) = (Minoaner::new(), Executor::new(1));
        let blocks = resolver.prepare_blocks(&exec, &pair);
        let graph = resolver.build_graph_from_blocks(&exec, &pair, &blocks);
        let mut parts: Vec<(String, Vec<u8>)> = graph_parts(&graph, &blocks.purge)
            .iter()
            .map(|&(name, part)| (name.to_owned(), minoaner_det::codec::encode_to_vec(part)))
            .collect();
        damage(&mut parts[0].1);
        let stage =
            RecoveredStage { barrier: BARRIER_GRAPH, stage: "graph".to_owned(), parts, counters: BTreeMap::new() };
        (stage, graph.weight_digest())
    }

    fn assert_corrupt(stage: &RecoveredStage) {
        match graph_from_stage(stage) {
            Err(CheckpointError::Corrupt { path, .. }) => assert_eq!(path, "graph"),
            other => panic!("expected the graph part to be corrupt, got {other:?}"),
        }
    }

    #[test]
    fn an_intact_part_decodes_to_the_bit_identical_graph() {
        let (stage, digest) = graph_stage(|_| {});
        let (graph, purge) = graph_from_stage(&stage).expect("intact parts decode");
        assert!(graph.num_directed_edges() > 0, "the pair has candidates to store");
        assert_eq!(graph.weight_digest(), digest);
        assert_eq!(purge.blocks_before, purge.blocks_after, "nothing to purge in two restaurants");
        assert!(purge.blocks_before > 0);
    }

    #[test]
    fn a_part_that_decodes_short_is_corrupt() {
        assert_corrupt(&graph_stage(|bytes| bytes.truncate(bytes.len() - 1)).0);
    }

    #[test]
    fn a_part_that_decodes_long_is_corrupt() {
        assert_corrupt(&graph_stage(|bytes| bytes.push(0)).0);
    }

    #[test]
    fn a_part_with_bad_row_offsets_is_corrupt() {
        // The part opens with the left value-candidate table: a `u64` count
        // of offsets, then the offsets, the first of which must be 0.
        assert_corrupt(&graph_stage(|bytes| bytes[8] = 1).0);
    }

    /// A part whose encoding is its bytes, unchanged: an old layout's
    /// payload, written as it was. Write-only.
    struct Raw(&'static [u8]);

    impl Spillable for Raw {
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(self.0);
        }

        fn decode(_: &[u8], _: &mut usize) -> Option<Self> {
            None
        }
    }

    /// A directory written under an earlier layout — JSON parts (`…-v2`),
    /// records with a `Vec` per block under FNV-1a (`…-v3`), or an `Option`
    /// purge part (`…-v4`) — is refused by fingerprint and the run
    /// recomputed: its bytes never reach a decoder.
    #[test]
    fn a_directory_in_an_earlier_layout_is_refused_and_recomputed() {
        let pair = linked_pair();
        let plain =
            Minoaner::new().run(ResolveRequest::pair(&pair)).expect("plain run").into_resolution();
        assert!(!plain.matches.is_empty());
        for domain in ["minoaner-run-fingerprint-v2", "minoaner-run-fingerprint-v3", "minoaner-run-fingerprint-v4"] {
            let dir = std::env::temp_dir().join(format!("minoaner-core-{domain}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let old = fingerprint_in(domain.as_bytes(), &MinoanerConfig::default(), &pair);
            let parts: [Part<'_>; 4] = [
                ("matches", &Raw(b"[[0,0]]")),
                ("rule_counts", &Raw(br#"{"r1":1,"r2":0,"r3":0,"removed_by_r4":0}"#)),
                ("graph_digest", &Raw(b"1")),
                ("purge", &Raw(b"null")),
            ];
            CheckpointStore::open(&dir, vfs::default_vfs())
                .and_then(|store| store.write_parts(BARRIER_MATCHES, "matches", old, &parts, &BTreeMap::new()))
                .expect("write the old-layout barrier");

            let spec = CheckpointSpec { resume: true, ..CheckpointSpec::new(&dir) };
            let outcome =
                Minoaner::new().run(ResolveRequest::pair(&pair).checkpoint(&spec)).expect("the run recomputes");
            std::fs::remove_dir_all(&dir).expect("remove scratch");
            let (resumed, trace) = (outcome.resolution, outcome.trace);

            let counter = |name: &str| RunTrace::counter(&trace, name);
            assert_eq!(counter("ckpt/rejected"), 1, "{domain}: the barrier is seen and refused");
            assert_eq!(counter("ckpt/resumed_from"), 0, "{domain}: nothing is restored from it");
            assert_eq!(counter("ckpt/barriers_written"), 3, "{domain}: every barrier is recomputed");
            assert_eq!(resumed.matches, plain.matches, "{domain}");
            assert_eq!(resumed.graph_digest, plain.graph_digest, "{domain}");
        }
    }
}
