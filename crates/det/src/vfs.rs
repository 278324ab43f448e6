//! The virtual filesystem seam for every durable path in the workspace.
//!
//! Four subsystems write artifacts that must survive a crash: the
//! checkpoint store (`dataflow/src/checkpoint.rs`), the spill-to-disk
//! shuffle (`dataflow/src/spill.rs`), the `.mkb` compiler
//! (`kb/src/disk.rs`) and the jobs control plane (`jobs/src/control.rs`).
//! Their failure behavior used to be tested only with pre-corrupted files;
//! nothing exercised the filesystem failing *mid-operation* — ENOSPC
//! halfway through a spill run, EIO on a barrier's fsync, a rename that
//! never lands. This module is the injection seam: durable-path code
//! performs every filesystem operation through a [`Vfs`] handle, and
//! `tests/manifests.rs` keeps direct `std::fs` calls out of those modules.
//!
//! Two implementations:
//!
//! * [`RealFs`] — a thin passthrough to `std::fs`. The production default;
//!   [`default_vfs`] hands one out.
//! * [`FaultFs`] — wraps an inner [`Vfs`] and injects faults according to
//!   a deterministic [`FaultPlan`]: fail the k-th operation (by a global
//!   op counter) with ENOSPC, EIO, or a short write that tears the file.
//!   Every operation is recorded in an op trace, so a harness can first
//!   enumerate the operations of a reference run and then re-run it
//!   failing each op in turn (`tests/chaos_vfs.rs`); the trace doubles as
//!   the witness report CI uploads.
//!
//! Because fsyncs, renames and directory creations are ordinary ops in the
//! trace, "fsync failure", "rename failure" and "create_dir failure" are
//! not separate fault kinds — they are the k-th-op faults whose k lands on
//! an op of that class. The sweep over every k therefore covers them all.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::rng::Rng;

/// A shared, thread-safe handle to a [`Vfs`] implementation.
pub type VfsRef = Arc<dyn Vfs>;

/// The production filesystem: a fresh [`RealFs`] handle.
pub fn default_vfs() -> VfsRef {
    Arc::new(RealFs)
}

/// The filesystem operations durable paths are allowed to perform.
///
/// The surface is deliberately small and path-oriented: writes are whole
/// files, syncs reopen by path (POSIX `fsync` flushes the file's data
/// regardless of which descriptor it is called on), and there is no
/// streaming API — every durable artifact in this workspace is written as
/// one buffer. `mmap` reads (the `.mkb` open path) stay outside the trait:
/// `tests/manifests.rs` allows `kb/src/disk.rs` exactly those two direct
/// filesystem calls, and the other durable-path modules none.
pub trait Vfs: fmt::Debug + Send + Sync {
    /// Creates a directory and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Creates (or truncates) `path` and writes `bytes` — no fsync.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Fsyncs the file at `path` (data and metadata).
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs the directory at `path`, making committed renames durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Recursively removes a directory.
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Reads exactly `len` bytes starting at byte `offset`; a file that
    /// ends before `offset + len` is an [`io::ErrorKind::UnexpectedEof`].
    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>>;
    /// Reads a whole file as UTF-8.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;
    /// The entries of a directory, sorted by path for determinism.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

/// Commits `bytes` as the file `path`, atomically and durably — the
/// workspace's single-file commit protocol: write a `.tmp-<name>` sibling,
/// fsync it, rename it over `path`, fsync the parent directory. On failure
/// the sibling is removed (best-effort) so a full disk never leaks scratch,
/// whatever was at `path` before is left untouched unless the rename
/// landed, and the error comes back with the path of the operation that
/// failed.
pub fn commit_file(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> Result<(), (PathBuf, io::Error)> {
    let Some(name) = path.file_name() else {
        return Err((path.to_owned(), io::Error::other("commit path has no file name")));
    };
    let mut tmp_name = std::ffi::OsString::from(".tmp-");
    tmp_name.push(name);
    let tmp = path.with_file_name(tmp_name);
    let committed = vfs
        .write_file(&tmp, bytes)
        .and_then(|()| vfs.sync_file(&tmp))
        .map_err(|e| (tmp.clone(), e))
        .and_then(|()| vfs.rename(&tmp, path).map_err(|e| (path.to_owned(), e)))
        .and_then(|()| match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => {
                vfs.sync_dir(dir).map_err(|e| (dir.to_owned(), e))
            }
            _ => Ok(()),
        });
    if committed.is_err() {
        let _ = vfs.remove_file(&tmp);
    }
    committed
}

/// Raw `ENOSPC` — what a full disk reports on Unix.
pub const ENOSPC: i32 = 28;
/// Raw `EIO` — a generic device-level I/O failure.
pub const EIO: i32 = 5;

/// Whether an I/O error means the disk is full (out of space or quota).
pub fn is_disk_full(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::StorageFull | io::ErrorKind::QuotaExceeded)
        || e.raw_os_error() == Some(ENOSPC)
}

// ───────────────────────────── RealFs ─────────────────────────────

/// The passthrough implementation: every call maps to the `std::fs`
/// operation of the same shape. This is the *only* place durable-path
/// modules' filesystem traffic touches `std::fs` (`tests/manifests.rs`).
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl Vfs for RealFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_dir_all(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = std::fs::File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        let mut bytes = vec![0u8; len];
        file.read_exact(&mut bytes)?;
        Ok(bytes)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries = Vec::new();
        for entry in std::fs::read_dir(path)? {
            entries.push(entry?.path());
        }
        // read_dir order is filesystem-dependent; a sorted listing keeps
        // op traces (and recovery scans) reproducible.
        entries.sort();
        Ok(entries)
    }
}

// ───────────────────────────── FaultFs ─────────────────────────────

/// The class of a filesystem operation, as recorded in the op trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// [`Vfs::create_dir_all`].
    CreateDir,
    /// [`Vfs::write_file`].
    Write,
    /// [`Vfs::sync_file`].
    SyncFile,
    /// [`Vfs::sync_dir`].
    SyncDir,
    /// [`Vfs::rename`].
    Rename,
    /// [`Vfs::remove_file`].
    RemoveFile,
    /// [`Vfs::remove_dir_all`].
    RemoveDir,
    /// [`Vfs::read`] / [`Vfs::read_range`] / [`Vfs::read_to_string`].
    Read,
    /// [`Vfs::list_dir`].
    ListDir,
}

impl OpClass {
    /// A stable lowercase name for witness output.
    pub fn as_str(self) -> &'static str {
        match self {
            OpClass::CreateDir => "create_dir",
            OpClass::Write => "write",
            OpClass::SyncFile => "sync_file",
            OpClass::SyncDir => "sync_dir",
            OpClass::Rename => "rename",
            OpClass::RemoveFile => "remove_file",
            OpClass::RemoveDir => "remove_dir",
            OpClass::Read => "read",
            OpClass::ListDir => "list_dir",
        }
    }
}

/// How an injected fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with `ENOSPC` (disk full).
    Enospc,
    /// The operation fails with `EIO` (device error).
    Eio,
    /// A write lands only half its bytes before failing with `ENOSPC` —
    /// the torn-file case the checksum layers must catch. On non-write
    /// operations this degrades to plain `EIO`.
    ShortWrite,
}

impl FaultKind {
    /// Every fault kind, in sweep order.
    pub const ALL: [FaultKind; 3] = [FaultKind::Enospc, FaultKind::Eio, FaultKind::ShortWrite];

    /// A stable lowercase name for witness output.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Enospc => "enospc",
            FaultKind::Eio => "eio",
            FaultKind::ShortWrite => "short_write",
        }
    }

    fn error(self) -> io::Error {
        match self {
            FaultKind::Enospc | FaultKind::ShortWrite => io::Error::from_raw_os_error(ENOSPC),
            FaultKind::Eio => io::Error::from_raw_os_error(EIO),
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Fail exactly the operation with this index, then behave normally.
    Once { op: u64, kind: FaultKind },
    /// Fail this operation and every one after it (a disk that stays
    /// full, a device that stays broken).
    From { op: u64, kind: FaultKind },
}

/// A deterministic fault schedule for a [`FaultFs`].
///
/// Faults are addressed by the global operation index (0-based, in call
/// order) — the same index an op trace from a fault-free reference run
/// reports, which is what makes the exhaustive k-sweep possible.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    fault: Option<Fault>,
}

impl FaultPlan {
    /// An empty plan: the [`FaultFs`] passes everything through and only
    /// records the op trace.
    pub fn none() -> Self {
        Self::default()
    }

    /// Fails exactly operation `op` with `kind`; all other operations
    /// succeed (a transient fault).
    pub fn fail_op(op: u64, kind: FaultKind) -> Self {
        Self { fault: Some(Fault::Once { op, kind }) }
    }

    /// Fails operation `op` and every operation after it with `kind`
    /// (a persistent fault — e.g. a disk that stays full).
    pub fn fail_from(op: u64, kind: FaultKind) -> Self {
        Self { fault: Some(Fault::From { op, kind }) }
    }

    /// A seeded single-fault plan: [`Rng`] on `seed` picks the failing op
    /// index in `0..horizon` and the fault kind. Same seed, same plan —
    /// the bounded-seed sweep CI runs is reproducible by construction.
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let op = rng.gen_range(0..horizon.max(1));
        #[expect(clippy::indexing_slicing, reason = "bound: `gen_range(0..n)` is below `n`, which \
                  is `ALL.len()`.")]
        let kind = FaultKind::ALL[rng.gen_range(0..FaultKind::ALL.len())];
        Self::fail_op(op, kind)
    }

    fn fault_for(&self, op: u64) -> Option<FaultKind> {
        match self.fault? {
            Fault::Once { op: at, kind } if at == op => Some(kind),
            Fault::From { op: at, kind } if op >= at => Some(kind),
            _ => None,
        }
    }
}

/// One recorded filesystem operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Global 0-based operation index.
    pub index: u64,
    /// What kind of operation this was.
    pub class: OpClass,
    /// The (primary) path the operation targeted.
    pub path: PathBuf,
    /// Payload size for writes, requested length for ranged reads, 0
    /// otherwise.
    pub bytes: u64,
    /// The fault injected at this op, if any.
    pub fault: Option<FaultKind>,
}

#[derive(Debug, Default)]
struct FaultState {
    next_op: u64,
    trace: Vec<OpRecord>,
}

/// A fault-injecting [`Vfs`] wrapper (see the module docs).
#[derive(Debug)]
pub struct FaultFs {
    inner: VfsRef,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl FaultFs {
    /// Wraps the real filesystem with `plan`.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Self::wrapping(default_vfs(), plan)
    }

    /// Wraps an arbitrary inner [`Vfs`] with `plan`.
    pub fn wrapping(inner: VfsRef, plan: FaultPlan) -> Arc<Self> {
        Arc::new(Self { inner, plan, state: Mutex::new(FaultState::default()) })
    }

    /// The operations recorded so far, in execution order.
    pub fn ops(&self) -> Vec<OpRecord> {
        self.lock().trace.clone()
    }

    /// Number of operations recorded so far.
    pub fn op_count(&self) -> u64 {
        self.lock().next_op
    }

    /// The faults that actually fired, in execution order.
    pub fn fired(&self) -> Vec<OpRecord> {
        self.lock().trace.iter().filter(|r| r.fault.is_some()).cloned().collect()
    }

    /// Renders the op trace as the line-oriented witness report the chaos
    /// sweep uploads as a CI artifact.
    pub fn witness(&self) -> String {
        let mut out = String::new();
        for r in self.lock().trace.iter() {
            let fault = match r.fault {
                Some(kind) => format!(" FAULT:{}", kind.as_str()),
                None => String::new(),
            };
            out.push_str(&format!(
                "op {:>4} {:<11} {} ({} bytes){fault}\n",
                r.index,
                r.class.as_str(),
                r.path.display(),
                r.bytes
            ));
        }
        out
    }

    /// A poisoned lock only means another thread panicked mid-record; the
    /// trace itself is append-only and stays usable.
    fn lock(&self) -> MutexGuard<'_, FaultState> {
        crate::lock(&self.state)
    }

    /// Records the op, consults the plan, and either returns the injected
    /// error or hands control back to the caller's passthrough closure.
    fn step(&self, class: OpClass, path: &Path, bytes: u64) -> Result<(), (FaultKind, io::Error)> {
        let mut state = self.lock();
        let index = state.next_op;
        state.next_op += 1;
        let fault = self.plan.fault_for(index);
        state.trace.push(OpRecord { index, class, path: to_owned(path), bytes, fault });
        match fault {
            Some(kind) => Err((kind, kind.error())),
            None => Ok(()),
        }
    }
}

fn to_owned(path: &Path) -> PathBuf {
    path.to_path_buf()
}

impl Vfs for FaultFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.step(OpClass::CreateDir, path, 0).map_err(|(_, e)| e)?;
        self.inner.create_dir_all(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.step(OpClass::Write, path, bytes.len() as u64) {
            Ok(()) => self.inner.write_file(path, bytes),
            Err((FaultKind::ShortWrite, e)) => {
                // Tear the file: land half the payload, then report the
                // disk full. The durable-commit protocols must either
                // clean this up or leave it under a `.tmp-` name the
                // recovery scanners ignore.
                #[expect(clippy::indexing_slicing, reason = "bound: `len / 2 <= len`.")]
                let _ = self.inner.write_file(path, &bytes[..bytes.len() / 2]);
                Err(e)
            }
            Err((_, e)) => Err(e),
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.step(OpClass::SyncFile, path, 0).map_err(|(_, e)| e)?;
        self.inner.sync_file(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.step(OpClass::SyncDir, path, 0).map_err(|(_, e)| e)?;
        self.inner.sync_dir(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.step(OpClass::Rename, from, 0).map_err(|(_, e)| e)?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.step(OpClass::RemoveFile, path, 0).map_err(|(_, e)| e)?;
        self.inner.remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.step(OpClass::RemoveDir, path, 0).map_err(|(_, e)| e)?;
        self.inner.remove_dir_all(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.step(OpClass::Read, path, 0).map_err(|(_, e)| e)?;
        self.inner.read(path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.step(OpClass::Read, path, len as u64).map_err(|(_, e)| e)?;
        self.inner.read_range(path, offset, len)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.step(OpClass::Read, path, 0).map_err(|(_, e)| e)?;
        self.inner.read_to_string(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.step(OpClass::ListDir, path, 0).map_err(|(_, e)| e)?;
        self.inner.list_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Unique scratch directory without entropy (R3): pid + counter.
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "minoaner-vfs-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn real_fs_round_trips_and_lists_sorted() {
        let dir = scratch("real");
        let fs = RealFs;
        fs.create_dir_all(&dir).unwrap();
        for (name, bytes) in [("b.txt", &b"beta"[..]), ("a.txt", b"alpha")] {
            fs.write_file(&dir.join(name), bytes).unwrap();
            fs.sync_file(&dir.join(name)).unwrap();
        }
        assert_eq!(fs.read(&dir.join("a.txt")).unwrap(), b"alpha");
        assert_eq!(fs.read_to_string(&dir.join("b.txt")).unwrap(), "beta");
        let range = |offset, len| fs.read_range(&dir.join("a.txt"), offset, len);
        assert_eq!(range(1, 3).unwrap(), b"lph");
        assert_eq!(range(5, 0).unwrap(), b"");
        assert_eq!(range(3, 3).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        let listed = fs.list_dir(&dir).unwrap();
        assert_eq!(listed, vec![dir.join("a.txt"), dir.join("b.txt")], "sorted listing");
        fs.rename(&dir.join("a.txt"), &dir.join("c.txt")).unwrap();
        fs.sync_dir(&dir).unwrap();
        fs.remove_file(&dir.join("c.txt")).unwrap();
        fs.remove_dir_all(&dir).unwrap();
        assert!(!dir.exists());
    }

    #[test]
    fn fault_fs_fails_exactly_the_kth_op_and_records_it() {
        let dir = scratch("kth");
        RealFs.create_dir_all(&dir).unwrap();
        // Op 0: create_dir, op 1: write, op 2: sync — fail the write.
        let fs = FaultFs::new(FaultPlan::fail_op(1, FaultKind::Enospc));
        fs.create_dir_all(&dir.join("sub")).unwrap();
        let err = fs.write_file(&dir.join("sub/x"), b"payload").unwrap_err();
        assert!(is_disk_full(&err), "got {err:?}");
        // Subsequent ops succeed: the fault was transient.
        fs.write_file(&dir.join("sub/x"), b"payload").unwrap();
        fs.sync_file(&dir.join("sub/x")).unwrap();
        assert_eq!(fs.op_count(), 4);
        let fired = fs.fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].index, 1);
        assert_eq!(fired[0].class, OpClass::Write);
        assert!(fs.witness().contains("FAULT:enospc"), "{}", fs.witness());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_tears_the_file() {
        let dir = scratch("short");
        RealFs.create_dir_all(&dir).unwrap();
        let fs = FaultFs::new(FaultPlan::fail_op(0, FaultKind::ShortWrite));
        let err = fs.write_file(&dir.join("torn"), b"0123456789").unwrap_err();
        assert!(is_disk_full(&err));
        assert_eq!(std::fs::read(dir.join("torn")).unwrap(), b"01234", "half landed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_file_is_atomic_and_names_the_failing_path() {
        let dir = scratch("commit");
        RealFs.create_dir_all(&dir).unwrap();
        let target = dir.join("out.bin");
        let tmp = dir.join(".tmp-out.bin");

        let fs = FaultFs::new(FaultPlan::none());
        commit_file(&*fs, &target, b"v1").unwrap();
        let classes: Vec<OpClass> = fs.ops().iter().map(|op| op.class).collect();
        assert_eq!(
            classes,
            [OpClass::Write, OpClass::SyncFile, OpClass::Rename, OpClass::SyncDir],
            "the commit protocol's op sequence"
        );

        // Failing each op in turn names that op's path, leaves no `.tmp-`
        // sibling, and keeps the old content until the rename has landed.
        for (op, failing, survivor) in [
            (0, &tmp, &b"v1"[..]),
            (1, &tmp, b"v1"),
            (2, &target, b"v1"),
            (3, &dir, b"v2"),
        ] {
            RealFs.write_file(&target, b"v1").unwrap();
            let fs = FaultFs::new(FaultPlan::fail_op(op, FaultKind::Eio));
            let (path, _) = commit_file(&*fs, &target, b"v2").unwrap_err();
            assert_eq!(&path, failing, "op {op}");
            assert_eq!(RealFs.read(&target).unwrap(), survivor, "op {op}");
            assert_eq!(RealFs.list_dir(&dir).unwrap(), vec![target.clone()], "op {op}");
        }

        let (path, e) = commit_file(&RealFs, Path::new("/"), b"").unwrap_err();
        assert_eq!((path.as_path(), e.kind()), (Path::new("/"), io::ErrorKind::Other));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_fault_fails_everything_after_k() {
        let dir = scratch("from");
        RealFs.create_dir_all(&dir).unwrap();
        let fs = FaultFs::new(FaultPlan::fail_from(1, FaultKind::Eio));
        fs.create_dir_all(&dir.join("ok")).unwrap();
        assert!(fs.write_file(&dir.join("x"), b"a").is_err());
        assert!(fs.sync_dir(&dir).is_err());
        assert!(fs.read(&dir.join("x")).is_err());
        assert_eq!(fs.fired().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        for seed in 0..64u64 {
            let a = FaultPlan::seeded(seed, 10);
            let b = FaultPlan::seeded(seed, 10);
            assert_eq!(a.fault, b.fault, "seed {seed} must be deterministic");
            match a.fault {
                Some(Fault::Once { op, .. }) => assert!(op < 10, "op within horizon"),
                other => panic!("seeded plans are single-shot, got {other:?}"),
            }
        }
        // Different seeds explore different ops.
        let ops: std::collections::BTreeSet<u64> = (0..64u64)
            .filter_map(|s| match FaultPlan::seeded(s, 10).fault? {
                Fault::Once { op, .. } | Fault::From { op, .. } => Some(op),
            })
            .collect();
        assert!(ops.len() > 3, "seeds spread over the horizon: {ops:?}");
    }

    #[test]
    fn disk_full_detection_covers_raw_and_kind() {
        assert!(is_disk_full(&io::Error::from_raw_os_error(ENOSPC)));
        assert!(!is_disk_full(&io::Error::from_raw_os_error(EIO)));
        assert!(is_disk_full(&io::Error::new(io::ErrorKind::StorageFull, "full")));
    }
}
