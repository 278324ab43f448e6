//! Helpers the root integration harnesses share. Each harness compiles
//! its own copy (`mod support;`) and uses a subset of it, hence the
//! `dead_code` allowance.
//!
//! Two canonical forms render a run for byte-for-byte comparison:
//! [`canonical`] is what a user consumes (digest, sorted matches, rule
//! counts); [`canonical_with_counters`] adds every domain counter outside
//! `ckpt/`, the one namespace a resumed run may legitimately differ in.

#![allow(dead_code)]

use std::fmt::Write as _;
use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use minoaner::dataflow::vfs::{self, FaultFs, FaultKind, FaultPlan, OpClass, OpRecord, Vfs, VfsRef};
use minoaner::dataflow::{CancelReason, CancelToken, RunTrace, CHECKPOINT_SCHEMA_VERSION};
use minoaner::det::segment::{Kind, Segment};
use minoaner::{Resolution, ResolveOutcome};

/// A run's outcome, split into its resolution and its trace.
pub fn split_outcome(outcome: ResolveOutcome) -> (Resolution, RunTrace) {
    (outcome.resolution, outcome.trace)
}

/// A scratch directory unique per test without consulting any entropy
/// source: the harness name, the pid and a process-local counter.
pub fn scratch_dir(tag: &str) -> ScratchDir {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "minoaner-{}-{}-{tag}-{n}",
        env!("CARGO_CRATE_NAME"),
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    ScratchDir(dir)
}

/// A directory from [`scratch_dir`], removed when dropped unless its test
/// is failing: a failed case keeps its directory to look at.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl From<&ScratchDir> for PathBuf {
    fn from(dir: &ScratchDir) -> PathBuf {
        dir.0.clone()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// The observable outcome of a run as a canonical text blob: graph digest,
/// sorted match set and rule counts.
pub fn canonical(res: &Resolution) -> String {
    let mut out = format!("digest {:016x}\n", res.graph_digest);
    let mut pairs = res.matches.clone();
    pairs.sort_unstable();
    for (l, r) in pairs {
        let _ = writeln!(out, "match {} {}", l.index(), r.index());
    }
    let c = &res.rule_counts;
    let _ = writeln!(out, "rules {} {} {} {}", c.r1, c.r2, c.r3, c.removed_by_r4);
    out
}

/// [`canonical`] plus every domain counter outside `ckpt/`: the `ckpt/*`
/// counters are the only ones allowed to differ between an uninterrupted
/// and a resumed (or batched) run.
pub fn canonical_with_counters(res: &Resolution, trace: &RunTrace) -> String {
    let mut out = canonical(res);
    for (name, value) in &trace.counters {
        if !name.starts_with("ckpt/") {
            let _ = writeln!(out, "counter {name} {value}");
        }
    }
    out
}

/// Every path under `root` whose file name starts with `.tmp-`, the
/// staging prefix every durable writer in the workspace uses.
pub fn tmp_leaks(root: &Path) -> Vec<PathBuf> {
    let mut leaks = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for path in entries.flatten().map(|e| e.path()) {
            if path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with(".tmp-")) {
                leaks.push(path.clone());
            }
            if path.is_dir() {
                stack.push(path);
            }
        }
    }
    leaks
}

/// The `stage-*` entries under a checkpoint root that are not a whole
/// committed barrier: a barrier is one segment file that `commit_file`
/// renamed into place, so there must never be one, whatever stopped the
/// run.
pub fn uncommitted_barriers(ckpt_dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(ckpt_dir) else {
        return Vec::new(); // the run never reached its first barrier
    };
    let committed = |path: &Path| {
        let Ok(bytes) = std::fs::read(path) else { return false };
        Segment::parse(&bytes, Kind::CHECKPOINT, CHECKPOINT_SCHEMA_VERSION)
            .and_then(|segment| segment.verify(&bytes))
            .is_ok()
    };
    entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("stage-")))
        .filter(|p| !committed(p))
        .collect()
}

/// What a cancelled run (or a resumed one) leaves under its checkpoint
/// root: committed barriers only, and no `.tmp-` staging.
pub fn assert_only_complete_barriers(ckpt_dir: &Path) {
    let torn = uncommitted_barriers(ckpt_dir);
    assert!(torn.is_empty(), "barrier files that are not whole: {torn:?}");
    let leaks = tmp_leaks(ckpt_dir);
    assert!(leaks.is_empty(), "staging leftovers: {leaks:?}");
}

/// The disk of a process killed before its durable op `k`: op `k` fails
/// with `kind`, and so does every op after it, cleanup included, as no
/// destructor tidies up after a SIGKILL. What the disk holds afterwards is
/// what the kill would have left.
pub fn crashing_disk(k: u64, kind: FaultKind) -> Arc<FaultFs> {
    FaultFs::wrapping(vfs::default_vfs(), FaultPlan::fail_from(k, kind))
}

/// How many staged barriers (`.tmp-stage-*`) were renamed into place by
/// the ops before op `k`: the barriers a crash before op `k` leaves
/// committed, so the one a resume restarts past. A kill keeps a rename
/// whether or not the directory fsync after it ran (a power loss might
/// not), so the fsyncs do not count.
pub fn renames_before(ops: &[OpRecord], k: u64) -> u64 {
    let staged_barrier = |op: &&OpRecord| {
        op.class == OpClass::Rename
            && op.path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with(".tmp-stage-"))
    };
    ops.iter().filter(|op| op.index < k).filter(staged_barrier).count() as u64
}

/// A [`Vfs`] that cancels a run right after one of its checkpoint
/// barriers commits. Every operation passes through to the real
/// filesystem; when the `barrier + 1`-th `sync_dir` of the checkpoint root
/// returns — the last step of committing barrier `barrier` — it latches
/// `token` with [`CancelReason::User`]. The pipeline's next barrier poll
/// observes it: the worst-case timing for the invariant that a cancelled
/// run leaves only complete, resumable barriers.
#[derive(Debug)]
pub struct CancelAfterBarrier {
    inner: VfsRef,
    root: PathBuf,
    barrier: usize,
    token: CancelToken,
    root_syncs: AtomicUsize,
}

impl CancelAfterBarrier {
    /// Cancels `token` once barrier `barrier` has committed under `root`.
    pub fn new(root: &Path, barrier: usize, token: CancelToken) -> Arc<Self> {
        Arc::new(Self {
            inner: vfs::default_vfs(),
            root: root.to_path_buf(),
            barrier,
            token,
            root_syncs: AtomicUsize::new(0),
        })
    }
}

impl Vfs for CancelAfterBarrier {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_file(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_file(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_dir(path)?;
        if path == self.root && self.root_syncs.fetch_add(1, Ordering::SeqCst) == self.barrier {
            self.token.cancel(CancelReason::User);
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_dir_all(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.inner.read_range(path, offset, len)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.inner.read_to_string(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list_dir(path)
    }
}
