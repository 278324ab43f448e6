//! Crash-safe stage checkpointing: a versioned on-disk snapshot format
//! with atomic commits and a recovery scanner.
//!
//! MinoanER inherits lineage-based recovery from Spark (§4.1); a hand-rolled
//! engine gets the MapReduce alternative instead — materialize state at the
//! stage barriers where the engine already synchronizes, and resume from the
//! last *complete* barrier after a crash. The determinism contract
//! (bit-identical stage output for every worker count) is what makes resume
//! correctness checkable: a resumed run must reproduce the uninterrupted
//! run's `weight_digest` exactly.
//!
//! # On-disk format
//!
//! One file per checkpointed barrier, `stage-NNN-<name>`: a
//! [`minoaner_det::segment`] of kind `CK` at [`CHECKPOINT_SCHEMA_VERSION`].
//! Section 0 is the barrier's meta record — the run fingerprint, the barrier
//! index and name, the part names in write order and the cumulative domain
//! counter snapshot — and section `i + 1` is part `i`'s payload, opaque
//! bytes at this layer (typed encoding happens in the pipeline crate, which
//! encodes each part in place into the segment). The segment's checksums
//! cover the header, the table and every section.
//!
//! # Atomicity protocol
//!
//! A barrier is committed by [`vfs::commit_file`]: written to a `.tmp-`
//! sibling, fsynced, renamed into place (atomic on POSIX), and the root
//! fsynced. A crash at any point leaves either no barrier file (a `.tmp-`
//! leftover is ignored, and overwritten by the next commit of that barrier)
//! or a complete one. Recovery verifies every checksum, so a truncated or
//! bit-flipped file is *detected* and the scanner falls back to the
//! previous good barrier — never silently wrong output. A barrier of schema
//! version 1 (a directory of part files and a text `MANIFEST`) is refused
//! with [`CheckpointError::SchemaMismatch`] and recomputed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use minoaner_det::codec::{decode_exact, Spillable};
use minoaner_det::segment::{Kind, Section, Segment, SegmentError, Writer};
use minoaner_det::spillable_struct;
use minoaner_det::vfs::{self, Vfs, VfsRef};

/// Version of the checkpoint barrier layout.
///
/// Mirrors [`crate::trace::TRACE_SCHEMA_VERSION`]: bump on any breaking
/// change; recovery refuses barriers of other versions.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 2;

/// What a pipeline run does when a checkpoint write (or the store open /
/// restore scan) fails.
///
/// Checkpointing is an availability feature: losing it costs resumability,
/// not correctness — the determinism contract guarantees an uncheckpointed
/// rerun produces bit-identical output. `Continue` encodes that tradeoff:
/// on the first checkpoint I/O failure the run latches checkpointing off,
/// emits a `ckpt/degraded` counter into the run trace, and finishes
/// normally. `Fail` (the default) propagates the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradeOnCkptError {
    /// Propagate checkpoint failures as run failures (the default).
    #[default]
    Fail,
    /// Degrade to running uncheckpointed; surface `ckpt/degraded` in the
    /// run trace instead of failing.
    Continue,
}

/// A checkpoint subsystem failure. String-typed context keeps the enum
/// `Eq`-comparable (like the rest of [`crate::error::DataflowError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// An I/O operation on the checkpoint directory failed.
    Io {
        /// The path the operation targeted.
        path: String,
        /// The rendered OS error.
        detail: String,
    },
    /// A checkpoint file failed validation (truncation, checksum mismatch,
    /// an undecodable meta record, fingerprint drift).
    Corrupt {
        /// The file or directory that failed validation.
        path: String,
        /// What exactly did not check out.
        detail: String,
    },
    /// The barrier was written in an incompatible layout version.
    SchemaMismatch {
        /// Version found in the barrier.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => {
                write!(f, "checkpoint I/O failed at {path}: {detail}")
            }
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "checkpoint corrupt at {path}: {detail}")
            }
            CheckpointError::SchemaMismatch { found, expected } => write!(
                f,
                "checkpoint schema version {found} unsupported (expected {expected})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A barrier's meta record, section 0 of its segment.
struct Meta {
    /// Fingerprint of the run's inputs and configuration; resume refuses
    /// checkpoints from a different run setup.
    fingerprint: u64,
    /// 0-based barrier index within the pipeline.
    barrier: usize,
    /// Barrier name (e.g. `graph`).
    stage: String,
    /// Part names, in write order: part `i` is section `i + 1`.
    parts: Vec<String>,
    /// Cumulative domain counters at the time of the checkpoint, re-emitted
    /// on resume so a resumed trace matches an uninterrupted one.
    counters: Vec<(String, u64)>,
}

spillable_struct!(Meta { fingerprint, barrier, stage, parts, counters });

/// The meta record's section id.
const META: u32 = 0;

/// A barrier recovered from disk, fully validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredStage {
    /// 0-based barrier index.
    pub barrier: usize,
    /// Barrier name.
    pub stage: String,
    /// The part payloads, in write order.
    pub parts: Vec<(String, Vec<u8>)>,
    /// The counter snapshot stored with the checkpoint.
    pub counters: BTreeMap<String, u64>,
}

impl RecoveredStage {
    /// The payload of the named part, if present.
    pub fn part(&self, name: &str) -> Option<&[u8]> {
        self.parts.iter().find(|(n, _)| n == name).map(|(_, bytes)| bytes.as_slice())
    }

    /// Total recovered payload bytes.
    pub fn total_bytes(&self) -> u64 {
        self.parts.iter().map(|(_, b)| b.len() as u64).sum()
    }
}

/// Outcome of a recovery scan: the newest barrier that validated, plus
/// every barrier that was found but rejected (and why).
#[derive(Debug, Default)]
pub struct Recovery {
    /// The newest complete, hash-valid barrier, if any.
    pub stage: Option<RecoveredStage>,
    /// Barriers rejected during the scan: `(file, cause)`, newest
    /// first. A non-empty list with `stage: Some(..)` means recovery fell
    /// back past corrupt checkpoints.
    pub rejected: Vec<(String, CheckpointError)>,
}

/// A checkpoint directory: writes barriers atomically, recovers the newest
/// valid one. All filesystem traffic flows through the store's [`Vfs`]
/// handle (`tests/manifests.rs` holds the module to it), so the chaos harness can fail any operation.
#[derive(Debug)]
pub struct CheckpointStore {
    root: PathBuf,
    vfs: VfsRef,
}

impl CheckpointStore {
    /// Opens (creating if necessary, including missing parents) the
    /// checkpoint root directory through `vfs` — [`vfs::default_vfs`] for
    /// the disk, or the chaos sweep's fault-injecting [`Vfs`].
    pub fn open(root: &Path, vfs: VfsRef) -> Result<Self, CheckpointError> {
        vfs.create_dir_all(root).map_err(|e| io_err(root, &e))?;
        Ok(Self { root: root.to_path_buf(), vfs })
    }

    /// The root directory this store writes under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Atomically writes one barrier as the one file `stage-NNN-<name>`:
    /// the meta record, then each part encoded in place into the barrier's
    /// segment (so a part is held once, in the buffer that becomes the
    /// file), committed with [`vfs::commit_file`]. Returns the total
    /// payload bytes of the parts.
    pub fn write_parts(
        &self,
        barrier: usize,
        stage: &str,
        fingerprint: u64,
        parts: &[(&str, &dyn Spillable)],
        counters: &BTreeMap<String, u64>,
    ) -> Result<u64, CheckpointError> {
        let name = stage_file_name(barrier, stage);
        let path = self.root.join(&name);
        let mut segment = Writer::new(Kind::CHECKPOINT, CHECKPOINT_SCHEMA_VERSION, 0, parts.len() + 1);
        let counters = counters.iter().map(|(name, &value)| (name.clone(), value)).collect();
        let names = parts.iter().map(|&(name, _)| name.to_owned()).collect();
        let meta = Meta { fingerprint, barrier, stage: stage.to_owned(), parts: names, counters };
        segment.section(META, |out| meta.encode(out));
        let mut total = 0u64;
        for (id, &(_, part)) in (META + 1..).zip(parts) {
            segment.section(id, |out| {
                let start = out.len();
                part.encode(out);
                total += (out.len() - start) as u64;
            });
        }
        let bytes = segment.finish().map_err(|e| corrupt(&path, e.to_string()))?;
        // A schema-1 barrier of the same name was a directory, and a schema-1
        // commit cut short left its `.tmp-` staging directory behind: a
        // listed name that lists as a directory itself.
        let listed = self.vfs.list_dir(&self.root).map_err(|e| io_err(&self.root, &e))?;
        for stale in [path.clone(), self.root.join(format!(".tmp-{name}"))] {
            if listed.contains(&stale) && self.vfs.list_dir(&stale).is_ok() {
                self.vfs.remove_dir_all(&stale).map_err(|e| io_err(&stale, &e))?;
            }
        }
        vfs::commit_file(&*self.vfs, &path, &bytes).map_err(|(at, e)| io_err(&at, &e))?;
        Ok(total)
    }

    /// Scans for the newest barrier whose segment verifies and whose meta
    /// record names `fingerprint`. Invalid or torn
    /// barriers are recorded in [`Recovery::rejected`] and skipped — the
    /// scan falls back to the previous good checkpoint.
    pub fn recover_latest(&self, fingerprint: u64) -> Result<Recovery, CheckpointError> {
        let mut found: Vec<(usize, PathBuf)> = Vec::new();
        for path in self.vfs.list_dir(&self.root).map_err(|e| io_err(&self.root, &e))? {
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            if let Some(barrier) = parse_stage_file_name(&name) {
                found.push((barrier, path));
            }
        }
        // Newest barrier first; ties (same barrier, different stage name)
        // resolved by path for determinism.
        found.sort_by(|a, b| b.cmp(a));

        let mut recovery = Recovery::default();
        for (barrier, path) in found {
            match load_stage(&*self.vfs, &path, barrier, fingerprint) {
                Ok(stage) => {
                    recovery.stage = Some(stage);
                    break;
                }
                Err(cause) => recovery.rejected.push((path.display().to_string(), cause)),
            }
        }
        Ok(recovery)
    }
}

/// `stage-NNN-<sanitized name>`.
fn stage_file_name(barrier: usize, stage: &str) -> String {
    format!("stage-{barrier:03}-{}", sanitize(stage))
}

/// Parses a committed barrier's file name back to its barrier index.
/// `.tmp-` staging leftovers and foreign names return `None`.
fn parse_stage_file_name(name: &str) -> Option<usize> {
    let rest = name.strip_prefix("stage-")?;
    let digits = rest.get(..3)?;
    if !rest.get(3..4).is_some_and(|c| c == "-") {
        return None;
    }
    digits.parse().ok()
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

fn io_err(path: &Path, e: &std::io::Error) -> CheckpointError {
    CheckpointError::Io { path: path.display().to_string(), detail: e.to_string() }
}

fn corrupt(path: &Path, detail: impl Into<String>) -> CheckpointError {
    CheckpointError::Corrupt { path: path.display().to_string(), detail: detail.into() }
}

fn segment_err(path: &Path, e: SegmentError) -> CheckpointError {
    match e {
        SegmentError::SchemaMismatch { found, expected } => CheckpointError::SchemaMismatch { found, expected },
        other => corrupt(path, other.to_string()),
    }
}

/// Loads and fully validates one committed barrier file.
fn load_stage(
    vfs: &dyn Vfs,
    path: &Path,
    barrier: usize,
    fingerprint: u64,
) -> Result<RecoveredStage, CheckpointError> {
    let bytes = vfs.read(path).map_err(|e| {
        if vfs.list_dir(path).is_ok() {
            // A schema-1 barrier: a directory of part files and a MANIFEST.
            CheckpointError::SchemaMismatch { found: 1, expected: CHECKPOINT_SCHEMA_VERSION }
        } else {
            corrupt(path, format!("barrier unreadable: {e}"))
        }
    })?;
    let segment = Segment::parse(&bytes, Kind::CHECKPOINT, CHECKPOINT_SCHEMA_VERSION)
        .and_then(|segment| segment.verify(&bytes).map(|()| segment))
        .map_err(|e| segment_err(path, e))?;
    let meta: Meta = segment
        .bytes(&bytes, META)
        .ok()
        .and_then(decode_exact)
        .ok_or_else(|| corrupt(path, "meta section does not decode"))?;
    if meta.barrier != barrier {
        return Err(corrupt(path, format!("barrier {} does not match its file name ({barrier})", meta.barrier)));
    }
    if meta.fingerprint != fingerprint {
        return Err(corrupt(
            path,
            format!("run fingerprint mismatch (checkpoint {:016x}, run {fingerprint:016x})", meta.fingerprint),
        ));
    }
    // Section 0 is the meta record; the parts follow it in write order.
    let payloads = segment.sections().get(1..).unwrap_or_default();
    if payloads.len() != meta.parts.len() {
        return Err(corrupt(path, format!("{} parts named, {} stored", meta.parts.len(), payloads.len())));
    }
    let payload = |section: &Section| bytes.get(section.range()).unwrap_or_default().to_vec();
    let parts = meta.parts.into_iter().zip(payloads.iter().map(payload)).collect();
    Ok(RecoveredStage { barrier, stage: meta.stage, parts, counters: meta.counters.into_iter().collect() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Unique scratch directory without entropy: pid + counter.
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "minoaner-ckpt-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_parts() -> Vec<(String, Vec<u8>)> {
        vec![
            ("alpha".to_owned(), b"first payload".to_vec()),
            ("beta".to_owned(), vec![0u8, 1, 2, 255, 254]),
        ]
    }

    /// A part whose encoding is its bytes, unchanged: the tests write the
    /// exact payloads they then read back or damage. Write-only.
    struct Raw<'a>(&'a [u8]);

    impl Spillable for Raw<'_> {
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(self.0);
        }

        fn decode(_: &[u8], _: &mut usize) -> Option<Self> {
            None
        }
    }

    /// [`CheckpointStore::write_parts`] of `(name, bytes)` parts as [`Raw`]
    /// records, with the sample counters.
    fn write_raw(
        store: &CheckpointStore,
        barrier: usize,
        stage: &str,
        fingerprint: u64,
        parts: &[(String, Vec<u8>)],
    ) -> Result<u64, CheckpointError> {
        let raw: Vec<Raw<'_>> = parts.iter().map(|(_, bytes)| Raw(bytes)).collect();
        let parts: Vec<(&str, &dyn Spillable)> =
            parts.iter().zip(&raw).map(|((name, _), raw)| (name.as_str(), raw as &dyn Spillable)).collect();
        store.write_parts(barrier, stage, fingerprint, &parts, &counters())
    }

    fn counters() -> BTreeMap<String, u64> {
        let mut c = BTreeMap::new();
        c.insert("blocking/token_blocks_built".to_owned(), 42);
        c
    }

    /// Where part `i` of the barrier file at `path` lies.
    fn part_range(path: &Path, i: u32) -> std::ops::Range<usize> {
        let bytes = fs::read(path).unwrap();
        let segment = Segment::parse(&bytes, Kind::CHECKPOINT, CHECKPOINT_SCHEMA_VERSION).unwrap();
        segment.section(META + 1 + i).unwrap().range()
    }

    #[test]
    fn write_and_recover_round_trip() {
        let root = scratch("roundtrip");
        let store = CheckpointStore::open(&root, vfs::default_vfs()).unwrap();
        let bytes = write_raw(&store, 0, "blocks", 7, &sample_parts()).unwrap();
        assert_eq!(bytes, 13 + 5);
        let rec = store.recover_latest(7).unwrap();
        assert!(rec.rejected.is_empty());
        let stage = rec.stage.unwrap();
        assert_eq!(stage.barrier, 0);
        assert_eq!(stage.stage, "blocks");
        assert_eq!(stage.parts, sample_parts());
        assert_eq!(stage.part("alpha"), Some(&b"first payload"[..]));
        assert_eq!(stage.counters, counters());
        let names: Vec<String> = fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["stage-000-blocks"], "a barrier is one file");
        assert!(root.join("stage-000-blocks").is_file());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn parts_encoded_in_place_are_the_bytes_of_their_records() {
        let root = scratch("in-place");
        let store = CheckpointStore::open(&root, vfs::default_vfs()).unwrap();
        let (numbers, name) = (vec![1u32, 2, 3], "graph".to_owned());
        let parts: [(&str, &dyn Spillable); 2] = [("numbers", &numbers), ("name", &name)];
        let bytes = store.write_parts(1, "graph", 3, &parts, &counters()).unwrap();
        let stage = store.recover_latest(3).unwrap().stage.unwrap();
        let want = [
            ("numbers".to_owned(), minoaner_det::codec::encode_to_vec(&numbers)),
            ("name".to_owned(), minoaner_det::codec::encode_to_vec(&name)),
        ];
        assert_eq!(stage.parts, want);
        assert_eq!(bytes, stage.total_bytes());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn newest_valid_barrier_wins() {
        let root = scratch("newest");
        let store = CheckpointStore::open(&root, vfs::default_vfs()).unwrap();
        write_raw(&store, 0, "blocks", 1, &sample_parts()).unwrap();
        write_raw(&store, 1, "graph", 1, &sample_parts()).unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert_eq!(rec.stage.unwrap().barrier, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_barrier_falls_back_to_previous_barrier() {
        let root = scratch("trunc");
        let store = CheckpointStore::open(&root, vfs::default_vfs()).unwrap();
        write_raw(&store, 0, "blocks", 1, &sample_parts()).unwrap();
        write_raw(&store, 1, "graph", 1, &sample_parts()).unwrap();
        // Cut the newest barrier inside its last part.
        let path = root.join("stage-001-graph");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert_eq!(rec.rejected.len(), 1);
        assert!(matches!(rec.rejected[0].1, CheckpointError::Corrupt { .. }));
        assert_eq!(rec.stage.unwrap().barrier, 0, "fell back to the previous good barrier");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bit_flip_in_part_is_detected() {
        let root = scratch("bitflip");
        let store = CheckpointStore::open(&root, vfs::default_vfs()).unwrap();
        write_raw(&store, 0, "blocks", 1, &sample_parts()).unwrap();
        let path = root.join("stage-000-blocks");
        let mut bytes = fs::read(&path).unwrap();
        bytes[part_range(&path, 1).start + 2] ^= 0x40; // same length, different content
        fs::write(&path, &bytes).unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert!(rec.stage.is_none());
        assert_eq!(rec.rejected.len(), 1);
        let msg = rec.rejected[0].1.to_string();
        assert!(msg.contains("checksum mismatch"), "got: {msg}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_header_is_rejected() {
        let root = scratch("torn");
        let store = CheckpointStore::open(&root, vfs::default_vfs()).unwrap();
        write_raw(&store, 0, "blocks", 1, &sample_parts()).unwrap();
        let path = root.join("stage-000-blocks");
        fs::write(&path, &fs::read(&path).unwrap()[..20]).unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert!(rec.stage.is_none());
        assert!(matches!(rec.rejected[0].1, CheckpointError::Corrupt { .. }));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let root = scratch("fingerprint");
        let store = CheckpointStore::open(&root, vfs::default_vfs()).unwrap();
        write_raw(&store, 0, "blocks", 1, &sample_parts()).unwrap();
        let rec = store.recover_latest(2).unwrap();
        assert!(rec.stage.is_none());
        assert!(rec.rejected[0].1.to_string().contains("fingerprint"));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn schema_mismatch_is_typed() {
        let root = scratch("schema");
        let store = CheckpointStore::open(&root, vfs::default_vfs()).unwrap();
        write_raw(&store, 0, "blocks", 1, &sample_parts()).unwrap();
        // Bump the version word of the header.
        let path = root.join("stage-000-blocks");
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_ne_bytes());
        fs::write(&path, &bytes).unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert!(rec.stage.is_none());
        assert!(matches!(
            rec.rejected[0].1,
            CheckpointError::SchemaMismatch { found: 99, expected: CHECKPOINT_SCHEMA_VERSION }
        ));
        fs::remove_dir_all(&root).unwrap();
    }

    /// A barrier of schema 1 — a directory of part files and a `MANIFEST` —
    /// is refused by version, and a new commit of that barrier replaces it.
    #[test]
    fn a_schema_1_directory_is_refused_and_replaced() {
        let root = scratch("schema1");
        let old = root.join("stage-000-blocks");
        fs::create_dir_all(&old).unwrap();
        fs::write(old.join("MANIFEST"), b"0000000000000000\nversion 1\n").unwrap();
        fs::write(old.join("part-000-alpha.bin"), b"first payload").unwrap();
        let store = CheckpointStore::open(&root, vfs::default_vfs()).unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert!(rec.stage.is_none());
        assert!(matches!(rec.rejected[0].1, CheckpointError::SchemaMismatch { found: 1, expected: 2 }));
        write_raw(&store, 0, "blocks", 1, &sample_parts()).unwrap();
        assert!(old.is_file(), "the directory was replaced by the barrier file");
        assert_eq!(store.recover_latest(1).unwrap().stage.unwrap().parts, sample_parts());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stale_tmp_dirs_and_files_are_ignored_and_overwritten() {
        let root = scratch("tmp");
        let store = CheckpointStore::open(&root, vfs::default_vfs()).unwrap();
        // Simulate crashes that left staged barriers behind: a schema-1
        // staging directory with a part in it, and a schema-2 staged file.
        let stale_dir = root.join(".tmp-stage-000-blocks");
        fs::create_dir_all(&stale_dir).unwrap();
        fs::write(stale_dir.join("part-000-alpha"), b"junk").unwrap();
        fs::write(root.join(".tmp-stage-001-blocks"), b"junk").unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert!(rec.stage.is_none());
        assert!(rec.rejected.is_empty(), "staging leftovers are not barriers");
        // A fresh write over either leftover succeeds and consumes it.
        for barrier in [0, 1] {
            write_raw(&store, barrier, "blocks", 1, &sample_parts()).unwrap();
            assert_eq!(store.recover_latest(1).unwrap().stage.map(|s| s.barrier), Some(barrier));
        }
        assert_eq!(fs::read_dir(&root).unwrap().count(), 2, "only the two committed barriers are left");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rewrite_of_same_barrier_replaces_it() {
        let root = scratch("rewrite");
        let store = CheckpointStore::open(&root, vfs::default_vfs()).unwrap();
        write_raw(&store, 0, "blocks", 1, &sample_parts()).unwrap();
        let new_parts = vec![("alpha".to_owned(), b"other".to_vec())];
        write_raw(&store, 0, "blocks", 1, &new_parts).unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert_eq!(rec.stage.unwrap().parts, new_parts);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn meta_record_round_trips_exactly() {
        let meta = Meta {
            fingerprint: 0xdead_beef_0123_4567,
            barrier: 2,
            stage: "matches".to_owned(),
            parts: vec!["rule counts".to_owned(), String::new()],
            counters: counters().into_iter().collect(),
        };
        let bytes = minoaner_det::codec::encode_to_vec(&meta);
        let back: Meta = decode_exact(&bytes).expect("decodes");
        assert_eq!(
            (back.fingerprint, back.barrier, back.stage, back.parts, back.counters),
            (meta.fingerprint, meta.barrier, meta.stage, meta.parts, meta.counters)
        );
        assert!(decode_exact::<Meta>(&bytes[..bytes.len() - 1]).is_none(), "short");
    }

    /// A barrier is the root's listing (the schema-1 probe) and one file
    /// committed by `commit_file`: exactly its four ops (write, fsync,
    /// rename, root fsync) after the store's open.
    #[test]
    fn failed_commit_at_every_op_leaves_no_staging_scratch() {
        use minoaner_det::vfs::{FaultFs, FaultKind, FaultPlan, OpClass};
        let root = scratch("chaos-ref");
        let probe = FaultFs::new(FaultPlan::none());
        let store = CheckpointStore::open(&root, probe.clone()).unwrap();
        write_raw(&store, 0, "blocks", 1, &sample_parts()).unwrap();
        let classes: Vec<OpClass> = probe.ops().iter().map(|op| op.class).collect();
        fs::remove_dir_all(&root).unwrap();
        use OpClass::*;
        assert_eq!(classes, [CreateDir, ListDir, Write, SyncFile, Rename, SyncDir]);

        // Fail each op in turn (op 0 is the store-open create_dir): the
        // write must surface a typed error and leave zero `.tmp-` scratch,
        // and a retry against the real filesystem must then succeed.
        for k in 1..classes.len() as u64 {
            for kind in FaultKind::ALL {
                let root = scratch("chaos");
                let ffs = FaultFs::new(FaultPlan::fail_op(k, kind));
                let store = CheckpointStore::open(&root, ffs).unwrap();
                let err = write_raw(&store, 0, "blocks", 1, &sample_parts());
                assert!(matches!(err, Err(CheckpointError::Io { .. })), "op {k} {kind:?}: {err:?}");
                for entry in fs::read_dir(&root).unwrap() {
                    let name = entry.unwrap().file_name().to_string_lossy().into_owned();
                    assert!(!name.starts_with(".tmp-"), "op {k} {kind:?} leaked staging scratch {name}");
                }
                let retry = CheckpointStore::open(&root, vfs::default_vfs()).unwrap();
                write_raw(&retry, 0, "blocks", 1, &sample_parts()).unwrap();
                assert_eq!(retry.recover_latest(1).unwrap().stage.unwrap().parts, sample_parts());
                fs::remove_dir_all(&root).unwrap();
            }
        }
    }

    #[test]
    fn file_name_parser_rejects_foreign_names() {
        assert_eq!(parse_stage_file_name("stage-003-graph"), Some(3));
        assert_eq!(parse_stage_file_name(".tmp-stage-003-graph"), None);
        assert_eq!(parse_stage_file_name("stage-xyz-graph"), None);
        assert_eq!(parse_stage_file_name("stage-003graph"), None);
        assert_eq!(parse_stage_file_name("whatever"), None);
    }
}
