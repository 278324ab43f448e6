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
//! One directory per checkpointed barrier, `stage-NNN-<name>/`, holding one
//! file per serialized part plus a `MANIFEST` written last as the commit
//! point. The manifest's first line is the [`checksum`] of the line-oriented
//! body that follows; the body records the schema version, the run
//! fingerprint, per-part byte lengths and content hashes, and the
//! cumulative domain counter snapshot. The body format is deliberately
//! hand-rolled (one `key value...` record per line) so the commit/recovery
//! machinery carries no serialization dependency — part payloads are opaque
//! bytes at this layer; typed encoding happens in the pipeline crate.
//!
//! # Atomicity protocol
//!
//! Everything is staged in a `.tmp-` sibling directory: parts are written
//! and fsynced, the manifest is written and fsynced, the directory itself
//! is fsynced, and only then is the directory renamed into place (atomic on
//! POSIX) and the parent fsynced. A crash at any point leaves either no
//! final directory (the `.tmp-` leftovers are ignored and reclaimed) or a
//! complete one. Recovery additionally re-validates every content hash, so
//! a truncated or bit-flipped file is *detected* and the scanner falls back
//! to the previous good barrier — never silently wrong output.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use minoaner_det::checksum;
use minoaner_det::vfs::{self, Vfs, VfsRef};

/// Version of the checkpoint directory layout and manifest schema.
///
/// Mirrors [`crate::trace::TRACE_SCHEMA_VERSION`]: bump on any breaking
/// change; recovery refuses manifests from other versions.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

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
    /// A checkpoint file failed validation (torn manifest, hash mismatch,
    /// truncation, fingerprint drift).
    Corrupt {
        /// The file or directory that failed validation.
        path: String,
        /// What exactly did not check out.
        detail: String,
    },
    /// The manifest was written by an incompatible layout version.
    SchemaMismatch {
        /// Version found in the manifest.
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

/// One serialized part inside a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PartEntry {
    /// Logical part name (e.g. `token_blocks`).
    name: String,
    /// File name inside the stage directory.
    file: String,
    /// Exact byte length of the part file.
    bytes: u64,
    /// [`checksum`] of the part file's contents.
    sum: u64,
}

/// The manifest body, serialized line-by-line after the hash line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestBody {
    schema_version: u32,
    /// 0-based barrier index within the pipeline.
    barrier: usize,
    /// Barrier name (e.g. `graph`).
    stage: String,
    /// Fingerprint of the run's inputs and configuration; resume refuses
    /// checkpoints from a different run setup.
    fingerprint: u64,
    parts: Vec<PartEntry>,
    /// Cumulative domain counters at the time of the checkpoint, re-emitted
    /// on resume so a resumed trace matches an uninterrupted one.
    counters: BTreeMap<String, u64>,
}

impl ManifestBody {
    /// Renders the body as its deterministic line-oriented form: one
    /// `key value...` record per line, free-form names last on the line so
    /// they may contain spaces. Example:
    ///
    /// ```text
    /// version 1
    /// barrier 0
    /// stage blocks
    /// fingerprint 0000000000000007
    /// part 13 0b75c843e27fbb4a part-000-alpha.bin alpha
    /// counter 42 blocking/token_blocks_built
    /// ```
    fn encode(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "version {}", self.schema_version);
        let _ = writeln!(s, "barrier {}", self.barrier);
        let _ = writeln!(s, "stage {}", self.stage);
        let _ = writeln!(s, "fingerprint {:016x}", self.fingerprint);
        for p in &self.parts {
            let _ = writeln!(s, "part {} {:016x} {} {}", p.bytes, p.sum, p.file, p.name);
        }
        for (name, value) in &self.counters {
            let _ = writeln!(s, "counter {value} {name}");
        }
        s
    }

    /// Parses the line-oriented form back. Any malformed or missing record
    /// is a hard error — the body is hash-guarded, so damage here means the
    /// hash line itself was forged or the writer was a different version.
    fn decode(text: &str) -> Result<ManifestBody, String> {
        let mut version = None;
        let mut barrier = None;
        let mut stage = None;
        let mut fingerprint = None;
        let mut parts = Vec::new();
        let mut counters = BTreeMap::new();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').ok_or_else(|| format!("bad record {line:?}"))?;
            match key {
                "version" => {
                    version = Some(rest.parse::<u32>().map_err(|_| "bad version".to_owned())?);
                }
                "barrier" => {
                    barrier = Some(rest.parse::<usize>().map_err(|_| "bad barrier".to_owned())?);
                }
                "stage" => stage = Some(rest.to_owned()),
                "fingerprint" => {
                    fingerprint = Some(
                        u64::from_str_radix(rest, 16).map_err(|_| "bad fingerprint".to_owned())?,
                    );
                }
                "part" => {
                    let mut fields = rest.splitn(4, ' ');
                    let bytes = fields
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| "bad part bytes".to_owned())?;
                    let sum = fields
                        .next()
                        .and_then(|v| u64::from_str_radix(v, 16).ok())
                        .ok_or_else(|| "bad part hash".to_owned())?;
                    let file =
                        fields.next().ok_or_else(|| "missing part file".to_owned())?.to_owned();
                    let name =
                        fields.next().ok_or_else(|| "missing part name".to_owned())?.to_owned();
                    parts.push(PartEntry { name, file, bytes, sum });
                }
                "counter" => {
                    let (value, name) =
                        rest.split_once(' ').ok_or_else(|| "bad counter record".to_owned())?;
                    let value = value.parse::<u64>().map_err(|_| "bad counter value".to_owned())?;
                    counters.insert(name.to_owned(), value);
                }
                other => return Err(format!("unknown record kind {other:?}")),
            }
        }
        Ok(ManifestBody {
            schema_version: version.ok_or_else(|| "missing version record".to_owned())?,
            barrier: barrier.ok_or_else(|| "missing barrier record".to_owned())?,
            stage: stage.ok_or_else(|| "missing stage record".to_owned())?,
            fingerprint: fingerprint.ok_or_else(|| "missing fingerprint record".to_owned())?,
            parts,
            counters,
        })
    }
}

/// A barrier recovered from disk, fully validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredStage {
    /// 0-based barrier index.
    pub barrier: usize,
    /// Barrier name.
    pub stage: String,
    /// The deserialized part payloads, in manifest (= write) order.
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
    /// Barriers rejected during the scan: `(directory, cause)`, newest
    /// first. A non-empty list with `stage: Some(..)` means recovery fell
    /// back past corrupt checkpoints.
    pub rejected: Vec<(String, CheckpointError)>,
}

/// A checkpoint directory: writes barriers atomically, recovers the newest
/// valid one. All filesystem traffic flows through the store's [`Vfs`]
/// handle (lint rule R6), so the chaos harness can fail any operation.
#[derive(Debug)]
pub struct CheckpointStore {
    root: PathBuf,
    vfs: VfsRef,
}

impl CheckpointStore {
    /// Opens (creating if necessary, including missing parents) the
    /// checkpoint root directory on the real filesystem.
    pub fn open(root: &Path) -> Result<Self, CheckpointError> {
        Self::open_with(root, vfs::default_vfs())
    }

    /// Opens the store against an explicit [`Vfs`] — the seam the chaos
    /// sweep uses to inject faults into every durable operation.
    pub fn open_with(root: &Path, vfs: VfsRef) -> Result<Self, CheckpointError> {
        vfs.create_dir_all(root).map_err(|e| io_err(root, &e))?;
        Ok(Self { root: root.to_path_buf(), vfs })
    }

    /// The root directory this store writes under.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Atomically writes one barrier: parts land in a `.tmp-` staging
    /// directory, each fsynced, the manifest committed last, the staged
    /// directory fsynced and renamed into place, and the root fsynced.
    /// Returns the total payload bytes written.
    pub fn write_stage(
        &self,
        barrier: usize,
        stage: &str,
        fingerprint: u64,
        parts: &[(String, Vec<u8>)],
        counters: &BTreeMap<String, u64>,
    ) -> Result<u64, CheckpointError> {
        let tmp_dir = self.root.join(format!(".tmp-{}", stage_dir_name(barrier, stage)));
        let result = self.write_stage_inner(&tmp_dir, barrier, stage, fingerprint, parts, counters);
        if result.is_err() {
            // A failed commit must not leak staging scratch: the `.tmp-`
            // directory is removed best-effort (the original error is what
            // the caller needs to see, and on e.g. a full disk the removal
            // is the one operation that still tends to succeed).
            let _ = self.vfs.remove_dir_all(&tmp_dir);
        }
        result
    }

    fn write_stage_inner(
        &self,
        tmp_dir: &Path,
        barrier: usize,
        stage: &str,
        fingerprint: u64,
        parts: &[(String, Vec<u8>)],
        counters: &BTreeMap<String, u64>,
    ) -> Result<u64, CheckpointError> {
        let final_dir = self.root.join(stage_dir_name(barrier, stage));
        if tmp_dir.exists() {
            self.vfs.remove_dir_all(tmp_dir).map_err(|e| io_err(tmp_dir, &e))?;
        }
        self.vfs.create_dir_all(tmp_dir).map_err(|e| io_err(tmp_dir, &e))?;

        let mut entries = Vec::with_capacity(parts.len());
        let mut total = 0u64;
        for (i, (name, bytes)) in parts.iter().enumerate() {
            let file_name = format!("part-{i:03}-{}.bin", sanitize(name));
            let path = tmp_dir.join(&file_name);
            write_synced(&*self.vfs, &path, bytes)?;
            total += bytes.len() as u64;
            entries.push(PartEntry {
                name: name.clone(),
                file: file_name,
                bytes: bytes.len() as u64,
                sum: checksum(bytes),
            });
        }

        let body = ManifestBody {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            barrier,
            stage: stage.to_owned(),
            fingerprint,
            parts: entries,
            counters: counters.clone(),
        };
        let body_text = body.encode();
        let manifest = format!("{:016x}\n{body_text}", checksum(body_text.as_bytes()));
        write_synced(&*self.vfs, &tmp_dir.join("MANIFEST"), manifest.as_bytes())?;
        sync_dir(&*self.vfs, tmp_dir)?;

        if final_dir.exists() {
            self.vfs.remove_dir_all(&final_dir).map_err(|e| io_err(&final_dir, &e))?;
        }
        self.vfs.rename(tmp_dir, &final_dir).map_err(|e| io_err(&final_dir, &e))?;
        sync_dir(&*self.vfs, &self.root)?;
        Ok(total)
    }

    /// Scans for the newest barrier whose manifest and every part validate
    /// against their recorded hashes and `fingerprint`. Invalid or torn
    /// barriers are recorded in [`Recovery::rejected`] and skipped — the
    /// scan falls back to the previous good checkpoint.
    pub fn recover_latest(&self, fingerprint: u64) -> Result<Recovery, CheckpointError> {
        let mut found: Vec<(usize, PathBuf)> = Vec::new();
        for path in self.vfs.list_dir(&self.root).map_err(|e| io_err(&self.root, &e))? {
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            if let Some(barrier) = parse_stage_dir_name(&name) {
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
fn stage_dir_name(barrier: usize, stage: &str) -> String {
    format!("stage-{barrier:03}-{}", sanitize(stage))
}

/// Parses a committed stage directory name back to its barrier index.
/// `.tmp-` staging leftovers and foreign names return `None`.
fn parse_stage_dir_name(name: &str) -> Option<usize> {
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

/// Writes `bytes` and fsyncs the file before returning, converting I/O
/// failures into the checkpoint error type.
pub(crate) fn write_synced(
    vfs: &dyn Vfs,
    path: &Path,
    bytes: &[u8],
) -> Result<(), CheckpointError> {
    vfs::write_synced(vfs, path, bytes).map_err(|e| io_err(path, &e))
}

/// Fsyncs a directory so a committed rename survives power loss.
pub(crate) fn sync_dir(vfs: &dyn Vfs, path: &Path) -> Result<(), CheckpointError> {
    vfs.sync_dir(path).map_err(|e| io_err(path, &e))
}

/// Loads and fully validates one committed barrier directory.
fn load_stage(
    vfs: &dyn Vfs,
    dir: &Path,
    barrier: usize,
    fingerprint: u64,
) -> Result<RecoveredStage, CheckpointError> {
    let manifest_path = dir.join("MANIFEST");
    let manifest = vfs
        .read_to_string(&manifest_path)
        .map_err(|e| corrupt(&manifest_path, format!("manifest unreadable: {e}")))?;
    let (hash_line, body_text) = manifest
        .split_once('\n')
        .ok_or_else(|| corrupt(&manifest_path, "manifest missing hash line"))?;
    let recorded = u64::from_str_radix(hash_line.trim(), 16)
        .map_err(|_| corrupt(&manifest_path, "manifest hash line unparsable"))?;
    let actual = checksum(body_text.as_bytes());
    if recorded != actual {
        return Err(corrupt(
            &manifest_path,
            format!("manifest hash mismatch (recorded {recorded:016x}, actual {actual:016x})"),
        ));
    }
    let body = ManifestBody::decode(body_text)
        .map_err(|e| corrupt(&manifest_path, format!("manifest body unparsable: {e}")))?;
    if body.schema_version != CHECKPOINT_SCHEMA_VERSION {
        return Err(CheckpointError::SchemaMismatch {
            found: body.schema_version,
            expected: CHECKPOINT_SCHEMA_VERSION,
        });
    }
    if body.barrier != barrier {
        return Err(corrupt(
            &manifest_path,
            format!("manifest barrier {} does not match directory ({barrier})", body.barrier),
        ));
    }
    if body.fingerprint != fingerprint {
        return Err(corrupt(
            &manifest_path,
            format!(
                "run fingerprint mismatch (checkpoint {:016x}, run {fingerprint:016x})",
                body.fingerprint
            ),
        ));
    }

    let mut parts = Vec::with_capacity(body.parts.len());
    for entry in &body.parts {
        let path = dir.join(&entry.file);
        let bytes =
            vfs.read(&path).map_err(|e| corrupt(&path, format!("part unreadable: {e}")))?;
        if bytes.len() as u64 != entry.bytes {
            return Err(corrupt(
                &path,
                format!("part truncated: {} bytes on disk, {} in manifest", bytes.len(), entry.bytes),
            ));
        }
        let h = checksum(&bytes);
        if h != entry.sum {
            return Err(corrupt(
                &path,
                format!("part hash mismatch (disk {h:016x}, manifest {:016x})", entry.sum),
            ));
        }
        parts.push((entry.name.clone(), bytes));
    }
    Ok(RecoveredStage { barrier, stage: body.stage, parts, counters: body.counters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Unique scratch directory without entropy (R3): pid + counter.
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

    fn counters() -> BTreeMap<String, u64> {
        let mut c = BTreeMap::new();
        c.insert("blocking/token_blocks_built".to_owned(), 42);
        c
    }

    #[test]
    fn write_and_recover_round_trip() {
        let root = scratch("roundtrip");
        let store = CheckpointStore::open(&root).unwrap();
        let bytes = store.write_stage(0, "blocks", 7, &sample_parts(), &counters()).unwrap();
        assert_eq!(bytes, 13 + 5);
        let rec = store.recover_latest(7).unwrap();
        assert!(rec.rejected.is_empty());
        let stage = rec.stage.unwrap();
        assert_eq!(stage.barrier, 0);
        assert_eq!(stage.stage, "blocks");
        assert_eq!(stage.parts, sample_parts());
        assert_eq!(stage.part("alpha"), Some(&b"first payload"[..]));
        assert_eq!(stage.counters, counters());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn newest_valid_barrier_wins() {
        let root = scratch("newest");
        let store = CheckpointStore::open(&root).unwrap();
        store.write_stage(0, "blocks", 1, &sample_parts(), &counters()).unwrap();
        store.write_stage(1, "graph", 1, &sample_parts(), &counters()).unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert_eq!(rec.stage.unwrap().barrier, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_part_falls_back_to_previous_barrier() {
        let root = scratch("trunc");
        let store = CheckpointStore::open(&root).unwrap();
        store.write_stage(0, "blocks", 1, &sample_parts(), &counters()).unwrap();
        store.write_stage(1, "graph", 1, &sample_parts(), &counters()).unwrap();
        // Truncate a part of the newest barrier.
        let part = root.join("stage-001-graph").join("part-000-alpha.bin");
        fs::write(&part, b"first").unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert_eq!(rec.rejected.len(), 1);
        assert!(matches!(rec.rejected[0].1, CheckpointError::Corrupt { .. }));
        assert_eq!(rec.stage.unwrap().barrier, 0, "fell back to the previous good barrier");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bit_flip_in_part_is_detected() {
        let root = scratch("bitflip");
        let store = CheckpointStore::open(&root).unwrap();
        store.write_stage(0, "blocks", 1, &sample_parts(), &counters()).unwrap();
        let part = root.join("stage-000-blocks").join("part-001-beta.bin");
        let mut bytes = fs::read(&part).unwrap();
        bytes[2] ^= 0x40; // same length, different content
        fs::write(&part, &bytes).unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert!(rec.stage.is_none());
        assert_eq!(rec.rejected.len(), 1);
        let msg = rec.rejected[0].1.to_string();
        assert!(msg.contains("hash mismatch"), "got: {msg}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_manifest_is_rejected() {
        let root = scratch("torn");
        let store = CheckpointStore::open(&root).unwrap();
        store.write_stage(0, "blocks", 1, &sample_parts(), &counters()).unwrap();
        let manifest = root.join("stage-000-blocks").join("MANIFEST");
        let text = fs::read_to_string(&manifest).unwrap();
        fs::write(&manifest, &text[..text.len() / 2]).unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert!(rec.stage.is_none());
        assert!(matches!(rec.rejected[0].1, CheckpointError::Corrupt { .. }));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_manifest_means_barrier_absent() {
        let root = scratch("nomanifest");
        let store = CheckpointStore::open(&root).unwrap();
        store.write_stage(0, "blocks", 1, &sample_parts(), &counters()).unwrap();
        fs::remove_file(root.join("stage-000-blocks").join("MANIFEST")).unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert!(rec.stage.is_none());
        assert_eq!(rec.rejected.len(), 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let root = scratch("fingerprint");
        let store = CheckpointStore::open(&root).unwrap();
        store.write_stage(0, "blocks", 1, &sample_parts(), &counters()).unwrap();
        let rec = store.recover_latest(2).unwrap();
        assert!(rec.stage.is_none());
        assert!(rec.rejected[0].1.to_string().contains("fingerprint"));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn schema_mismatch_is_typed() {
        let root = scratch("schema");
        let store = CheckpointStore::open(&root).unwrap();
        store.write_stage(0, "blocks", 1, &sample_parts(), &counters()).unwrap();
        // Rewrite the manifest with a bumped version and a valid hash.
        let manifest = root.join("stage-000-blocks").join("MANIFEST");
        let text = fs::read_to_string(&manifest).unwrap();
        let (_, body) = text.split_once('\n').unwrap();
        let patched = body.replace("version 1\n", "version 99\n");
        fs::write(&manifest, format!("{:016x}\n{patched}", checksum(patched.as_bytes()))).unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert!(rec.stage.is_none());
        assert!(matches!(
            rec.rejected[0].1,
            CheckpointError::SchemaMismatch { found: 99, expected: CHECKPOINT_SCHEMA_VERSION }
        ));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stale_tmp_dirs_are_ignored_and_overwritten() {
        let root = scratch("tmp");
        let store = CheckpointStore::open(&root).unwrap();
        // Simulate a crash that left a staging dir behind.
        fs::create_dir_all(root.join(".tmp-stage-000-blocks")).unwrap();
        fs::write(root.join(".tmp-stage-000-blocks").join("junk"), b"junk").unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert!(rec.stage.is_none());
        assert!(rec.rejected.is_empty(), "staging leftovers are not barriers");
        // A fresh write over the leftovers succeeds.
        store.write_stage(0, "blocks", 1, &sample_parts(), &counters()).unwrap();
        assert!(store.recover_latest(1).unwrap().stage.is_some());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rewrite_of_same_barrier_replaces_it() {
        let root = scratch("rewrite");
        let store = CheckpointStore::open(&root).unwrap();
        store.write_stage(0, "blocks", 1, &sample_parts(), &counters()).unwrap();
        let new_parts = vec![("alpha".to_owned(), b"other".to_vec())];
        store.write_stage(0, "blocks", 1, &new_parts, &counters()).unwrap();
        let rec = store.recover_latest(1).unwrap();
        assert_eq!(rec.stage.unwrap().parts, new_parts);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn manifest_body_encodes_and_decodes_exactly() {
        let body = ManifestBody {
            schema_version: CHECKPOINT_SCHEMA_VERSION,
            barrier: 2,
            stage: "matches".to_owned(),
            fingerprint: 0xdead_beef_0123_4567,
            parts: vec![PartEntry {
                name: "rule counts".to_owned(), // spaces survive (name is last on the line)
                file: "part-000-rule_counts.bin".to_owned(),
                bytes: 9,
                sum: 7,
            }],
            counters: counters(),
        };
        let text = body.encode();
        assert_eq!(ManifestBody::decode(&text), Ok(body));
        assert!(ManifestBody::decode("version 1\n").is_err(), "missing required records");
        assert!(ManifestBody::decode("bogus record\n").is_err());
    }

    #[test]
    fn failed_commit_at_every_op_leaves_no_staging_scratch() {
        use minoaner_det::vfs::{FaultFs, FaultKind, FaultPlan};
        // Enumerate the ops of one clean open + write_stage.
        let root = scratch("chaos-ref");
        let probe = FaultFs::new(FaultPlan::none());
        let store = CheckpointStore::open_with(&root, probe.clone()).unwrap();
        store.write_stage(0, "blocks", 1, &sample_parts(), &counters()).unwrap();
        let n_ops = probe.op_count();
        fs::remove_dir_all(&root).unwrap();
        assert!(n_ops > 5, "expected a multi-op commit protocol, saw {n_ops}");

        // Fail each op in turn (op 0 is the store-open create_dir): the
        // write must surface a typed error and leave zero `.tmp-` scratch,
        // and a retry against the real filesystem must then succeed.
        for k in 1..n_ops {
            let root = scratch("chaos");
            let ffs = FaultFs::new(FaultPlan::fail_op(k, FaultKind::Enospc));
            let store = CheckpointStore::open_with(&root, ffs).unwrap();
            let err = store.write_stage(0, "blocks", 1, &sample_parts(), &counters());
            assert!(matches!(err, Err(CheckpointError::Io { .. })), "op {k}: {err:?}");
            for entry in fs::read_dir(&root).unwrap() {
                let name = entry.unwrap().file_name().to_string_lossy().into_owned();
                assert!(!name.starts_with(".tmp-"), "op {k} leaked staging scratch {name}");
            }
            let retry = CheckpointStore::open(&root).unwrap();
            retry.write_stage(0, "blocks", 1, &sample_parts(), &counters()).unwrap();
            assert_eq!(retry.recover_latest(1).unwrap().stage.unwrap().parts, sample_parts());
            fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn dir_name_parser_rejects_foreign_names() {
        assert_eq!(parse_stage_dir_name("stage-003-graph"), Some(3));
        assert_eq!(parse_stage_dir_name(".tmp-stage-003-graph"), None);
        assert_eq!(parse_stage_dir_name("stage-xyz-graph"), None);
        assert_eq!(parse_stage_dir_name("stage-003graph"), None);
        assert_eq!(parse_stage_dir_name("whatever"), None);
    }
}
