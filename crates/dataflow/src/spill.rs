//! Spill-to-disk shuffle: the data-exchange step of a map→reduce stage,
//! resident by default and out-of-core under a [`MemoryBudget`].
//!
//! A [`SpillShuffle`] collects *runs* — one per map task, each run holding
//! one bucket per reduce partition, records in the order the task
//! produced them. While the budget has headroom (always, when there is no
//! budget), runs stay on the heap; once [`MemoryBudget::try_reserve`]
//! fails, further runs are encoded to a run file, written once and dropped
//! from memory. A run file is a [`minoaner_det::segment`] of kind `SP`, one
//! section per bucket, so every bucket is under its own checksum. It is
//! process-private scratch: only this process reads it,
//! [`SpillShuffle::finish`] deletes it and no recovery path ever opens it,
//! so it is written plainly — no temp name, fsync or rename; a torn write
//! is caught by the bucket checksums. The reduce side takes one
//! partition's buckets in map-task order
//! ([`SpillShuffle::take_partition`]); a disk bucket is one ranged read of
//! exactly its section, located by the run's table as it was written. Any
//! regrouping of the records is the reducer's business — the shuffle
//! neither sorts nor merges.
//!
//! Determinism: which runs spill depends on timing, but *bucket order
//! never does* — buckets come back by map-task index, and each run's
//! contents are identical whether they round-tripped through disk or not
//! (the codec is exact, including `f64` bit patterns). Budgeted and
//! unbudgeted executions therefore produce bit-identical stage output.
//!
//! Records implement [`Spillable`] (`minoaner_det::codec`), the fixed-layout
//! binary codec checkpoint parts are written with too: it round-trips every
//! bit, which the `weight_digest` equality acceptance test depends on. Run
//! files are process-private scratch, never schema-versioned artifacts.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

pub use minoaner_det::codec::Spillable;
use minoaner_det::lock;
use minoaner_det::segment::{Kind, Section, Writer};
use minoaner_det::vfs::{self, Vfs};

use crate::budget::MemoryBudget;
use crate::checkpoint::CheckpointError;
use crate::error::DataflowError;
use crate::pool::Executor;

/// Counter name: run files written by spilling shuffles.
pub const SPILL_RUNS_COUNTER: &str = "spill/runs_written";
/// Counter name: bytes written to spill run files.
pub const SPILL_BYTES_COUNTER: &str = "spill/bytes_written";
/// Counter name: records that round-tripped through disk.
pub const SPILL_RECORDS_COUNTER: &str = "spill/records";

/// One map task's contribution: per-partition buckets, resident or
/// on disk (section `p` of the run file is partition `p`'s bucket).
enum Run<T> {
    Memory { buckets: Vec<Vec<T>>, reserved: u64 },
    Disk { path: PathBuf, sections: Vec<Section> },
}

/// Format version of a run file. Run files never outlive their process,
/// so it only tells them from other segment kinds' versions.
const SPILL_RUN_VERSION: u32 = 1;

/// Process-wide sequence so concurrent shuffles in one process never
/// collide on a spill path (the directory name also carries the pid for
/// cross-process safety).
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A budget-aware shuffle accumulator (see the module docs).
///
/// All filesystem traffic flows through the budget's [`vfs::Vfs`] handle
/// (`tests/manifests.rs` holds the module to it); a write that hits a full disk surfaces as the typed
/// [`DataflowError::DiskFull`]. The spill directory is scratch with a hard
/// cleanup guarantee: [`SpillShuffle::finish`] removes it on success, and
/// the `Drop` guard removes it on every error/unwind path, so a failed run
/// never leaks run files.
pub struct SpillShuffle<T> {
    partitions: usize,
    tag: String,
    budget: MemoryBudget,
    dir: PathBuf,
    /// Ascending by map task, whatever order the tasks finished in.
    runs: Mutex<Vec<(usize, Run<T>)>>,
    runs_written: AtomicU64,
    bytes_written: AtomicU64,
    records_spilled: AtomicU64,
    cleaned: AtomicBool,
}

impl<T: Spillable> SpillShuffle<T> {
    /// A shuffle writing at most `partitions` buckets per run, spilling
    /// into a fresh subdirectory of the budget's spill dir. Without a
    /// budget every run stays resident. `name` tags the directory for
    /// debuggability; it is sanitized to alphanumerics.
    pub fn new(name: &str, partitions: usize, budget: Option<&MemoryBudget>) -> Self {
        let tag: String =
            name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
        // No budget = one that never refuses, so its spill dir stays unused.
        let budget = budget
            .cloned()
            .unwrap_or_else(|| MemoryBudget::new(u64::MAX, std::env::temp_dir()));
        let dir = budget.spill_dir().join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        Self {
            partitions,
            tag,
            budget,
            dir,
            runs: Mutex::new(Vec::new()),
            runs_written: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            records_spilled: AtomicU64::new(0),
            cleaned: AtomicBool::new(false),
        }
    }

    /// Wraps a filesystem failure: a full disk becomes the typed
    /// [`DataflowError::DiskFull`] (the caller-facing contract for spill
    /// ENOSPC), anything else the checkpoint I/O error.
    fn fs_err(&self, path: &Path, e: &std::io::Error) -> DataflowError {
        if vfs::is_disk_full(e) {
            DataflowError::DiskFull {
                stage: self.tag.clone(),
                path: path.display().to_string(),
                detail: e.to_string(),
            }
        } else {
            DataflowError::Checkpoint(CheckpointError::Io {
                path: path.display().to_string(),
                detail: e.to_string(),
            })
        }
    }

    /// Number of reduce partitions.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Adds map task `map_task`'s buckets. Tasks may add out of order and
    /// concurrently; runs are kept ordered by `map_task`, so the outcome
    /// is independent of arrival order. When the memory budget cannot
    /// cover the run's estimated footprint, the run is written to disk.
    pub fn add_run(&self, map_task: usize, buckets: Vec<Vec<T>>) -> Result<(), DataflowError> {
        assert_eq!(buckets.len(), self.partitions, "one bucket per reduce partition");
        let records: u64 = buckets.iter().map(|b| b.len() as u64).sum();
        let estimate = records * std::mem::size_of::<T>() as u64;
        let run = if self.budget.try_reserve(estimate) {
            Run::Memory { buckets, reserved: estimate }
        } else {
            let (path, sections, bytes) = self.write_run(map_task, &buckets)?;
            self.runs_written.fetch_add(1, Ordering::Relaxed);
            self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
            self.records_spilled.fetch_add(records, Ordering::Relaxed);
            Run::Disk { path, sections }
        };
        let mut runs = lock(&self.runs);
        let at = runs.partition_point(|&(task, _)| task < map_task);
        runs.insert(at, (map_task, run));
        Ok(())
    }

    /// Encodes one run to `<dir>/run-<task>.spill` with one
    /// [`Vfs::write_file`]: a segment with bucket `p` as section `p`, each
    /// encoded in place. Returns the run's table, as the writer built it,
    /// and the run's length.
    fn write_run(&self, map_task: usize, buckets: &[Vec<T>]) -> Result<(PathBuf, Vec<Section>, u64), DataflowError> {
        let disk = self.budget.vfs().clone();
        disk.create_dir_all(&self.dir).map_err(|e| self.fs_err(&self.dir, &e))?;
        let path = self.dir.join(format!("run-{map_task}.spill"));
        let mut run = Writer::new(Kind::SPILL, SPILL_RUN_VERSION, 0, buckets.len());
        let records: usize = buckets.iter().map(Vec::len).sum();
        run.reserve(records * std::mem::size_of::<T>() + buckets.len() * 7);
        for (bucket, id) in buckets.iter().zip(0..) {
            run.section(id, |out| bucket.iter().for_each(|record| record.encode(out)));
        }
        let sections = run.sections().to_vec();
        let bytes = run.finish().map_err(|e| spill_corrupt(&path, e.to_string()))?;
        // A failed write may leave a torn run behind: nothing reads it, and
        // the Drop guard removes the whole spill dir on the error path.
        Vfs::write_file(&*disk, &path, &bytes).map_err(|e| self.fs_err(&path, &e))?;
        Ok((path, sections, bytes.len() as u64))
    }

    /// Loads partition `p`'s bucket of one run back — a ranged read of
    /// exactly its section — validating its checksum. A short file or a
    /// mismatch (bit rot, a torn write) fails closed as
    /// [`CheckpointError::Corrupt`].
    fn read_bucket(&self, path: &Path, section: Option<Section>, p: usize) -> Result<Vec<T>, DataflowError> {
        let section = section.ok_or_else(|| spill_corrupt(path, format!("the run has no bucket {p}")))?;
        let range = section.range();
        let bytes = self.budget.vfs().read_range(path, range.start as u64, range.len()).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => {
                spill_corrupt(path, format!("bucket {p} at {range:?} runs past the end of the file"))
            }
            _ => self.fs_err(path, &e),
        })?;
        section.check(&bytes).map_err(|e| spill_corrupt(path, format!("bucket {p}: {e}")))?;
        // A hint that never reserves more bytes than were read; exact where
        // a record encodes to its own size (the γ edges: 16 bytes either way).
        let mut out = Vec::with_capacity(bytes.len() / std::mem::size_of::<T>().max(1));
        let mut pos = 0usize;
        while pos < bytes.len() {
            let record =
                T::decode(&bytes, &mut pos).ok_or_else(|| spill_corrupt(path, "bucket truncated mid-record".to_owned()))?;
            out.push(record);
        }
        Ok(out)
    }

    /// Reduce-side read: partition `p`'s bucket from every run, in
    /// ascending map task order, each bucket in the order its task
    /// produced it. Consumes memory buckets (releasing their share of the
    /// budget) and re-reads disk buckets with checksum validation. The
    /// run table is only locked to snapshot where the buckets are; disk
    /// reads happen outside it, so reduce tasks do not serialise.
    pub fn take_partition(&self, p: usize) -> Result<Vec<Vec<T>>, DataflowError> {
        assert!(p < self.partitions, "partition out of range");
        enum Source<T> {
            Resident(Vec<T>),
            OnDisk(PathBuf, Option<Section>),
        }
        #[expect(clippy::indexing_slicing, reason = "bound: `p < self.partitions` (asserted \
                  above), and every resident run holds one bucket per partition (`add_run` asserts \
                  it).")]
        let sources: Vec<Source<T>> = lock(&self.runs)
            .iter_mut()
            .map(|(_, run)| match run {
                Run::Memory { buckets, reserved } => {
                    let bucket = std::mem::take(&mut buckets[p]);
                    let share = bucket.len() as u64 * std::mem::size_of::<T>() as u64;
                    let share = share.min(*reserved);
                    *reserved -= share;
                    self.budget.release(share);
                    Source::Resident(bucket)
                }
                Run::Disk { path, sections } => Source::OnDisk(path.clone(), sections.get(p).copied()),
            })
            .collect();
        sources
            .into_iter()
            .map(|source| match source {
                Source::Resident(bucket) => Ok(bucket),
                Source::OnDisk(path, section) => self.read_bucket(&path, section, p),
            })
            .collect()
    }

    /// Run files written so far.
    pub fn runs_written(&self) -> u64 {
        self.runs_written.load(Ordering::Relaxed)
    }

    /// Bytes written to run files so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Records that round-tripped through disk.
    pub fn records_spilled(&self) -> u64 {
        self.records_spilled.load(Ordering::Relaxed)
    }

    /// Tears the shuffle down: releases remaining memory reservations,
    /// deletes the spill directory under a timed `spill/cleanup` stage,
    /// and emits the `spill/*` counters into the executor's trace. Call
    /// once after all partitions are read.
    pub fn finish(self, executor: &Executor) {
        let runs = std::mem::take(&mut *lock(&self.runs));
        let mut spilled = false;
        for (_, run) in runs {
            match run {
                Run::Memory { reserved, .. } => self.budget.release(reserved),
                Run::Disk { .. } => spilled = true,
            }
        }
        if spilled {
            executor.time_stage("spill/cleanup", || {
                self.budget.vfs().remove_dir_all(&self.dir).ok();
            });
        }
        self.cleaned.store(true, Ordering::Relaxed);
        executor.emit_counter(SPILL_RUNS_COUNTER, self.runs_written());
        executor.emit_counter(SPILL_BYTES_COUNTER, self.bytes_written());
        executor.emit_counter(SPILL_RECORDS_COUNTER, self.records_spilled());
    }
}

impl<T> Drop for SpillShuffle<T> {
    /// Guaranteed scratch cleanup: whether the stage finished, errored, or
    /// unwound mid-read, the spill directory never outlives the shuffle.
    /// [`SpillShuffle::finish`] already handled the success path; this
    /// guard sweeps the error paths (best-effort — on a still-broken disk
    /// there is nothing more to do than try). A shuffle that wrote no run
    /// has no directory, and the removal's `NotFound` is ignored with the
    /// rest.
    fn drop(&mut self) {
        if !self.cleaned.load(Ordering::Relaxed) {
            let _ = self.budget.vfs().remove_dir_all(&self.dir);
        }
    }
}

/// A spill-file validation failure (bit rot, torn write): fails closed as
/// a checkpoint corruption error.
fn spill_corrupt(path: &Path, detail: String) -> DataflowError {
    DataflowError::Checkpoint(CheckpointError::Corrupt {
        path: path.display().to_string(),
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::TraceCollector;
    use minoaner_det::codec::encode_to_vec;
    use minoaner_det::segment::Segment;
    use minoaner_det::vfs::{FaultFs, FaultKind, FaultPlan, OpClass};
    use std::fs;
    use std::sync::Arc;

    fn tmp_budget(limit: u64, tag: &str) -> MemoryBudget {
        let dir = std::env::temp_dir().join(format!("spill-unit-{}-{tag}", std::process::id()));
        MemoryBudget::new(limit, dir)
    }

    /// A zero budget (every run spills) whose disk is `ffs`.
    fn spilling_budget_on(ffs: &Arc<FaultFs>, tag: &str) -> MemoryBudget {
        tmp_budget(0, tag).with_vfs(ffs.clone())
    }

    fn three_runs() -> Vec<Vec<Vec<(u32, u32, f64)>>> {
        // 2 partitions; buckets in production order, not sorted by anything.
        vec![
            vec![vec![(2, 3, 1.5), (0, 1, 0.5)], vec![(1, 10, 2.5)]],
            vec![vec![(5, 2, 0.25)], vec![(3, 12, 1.25), (0, 11, 0.75)]],
            vec![vec![(1, 2, f64::MIN_POSITIVE), (7, 0, -0.0)], vec![]],
        ]
    }

    /// Partition `p`'s buckets in map-task order, as bit patterns.
    #[allow(clippy::type_complexity)]
    fn expected_partition(
        runs: &[Vec<Vec<(u32, u32, f64)>>],
        p: usize,
    ) -> Vec<Vec<(u32, u32, u64)>> {
        runs.iter().map(|r| bits(&r[p])).collect()
    }

    fn bits(bucket: &[(u32, u32, f64)]) -> Vec<(u32, u32, u64)> {
        bucket.iter().map(|&(a, b, w)| (a, b, w.to_bits())).collect()
    }

    #[test]
    fn unbudgeted_shuffle_stays_resident_and_keeps_production_order() {
        let shuffle = SpillShuffle::new("test", 2, None);
        // Added out of order: reads come back by map task regardless.
        for (i, run) in three_runs().into_iter().enumerate().rev() {
            shuffle.add_run(i, run).expect("in-memory add");
        }
        for p in 0..2 {
            let got: Vec<_> =
                shuffle.take_partition(p).expect("read").iter().map(|b| bits(b)).collect();
            assert_eq!(got, expected_partition(&three_runs(), p));
        }
        assert_eq!(shuffle.runs_written(), 0);
        shuffle.finish(&Executor::new(1));
    }

    #[test]
    fn forced_spill_round_trips_every_bucket_bit_identically() {
        // Zero budget: every run goes to disk and back.
        let shuffle = SpillShuffle::new("test", 2, Some(&tmp_budget(0, "disk")));
        for (i, run) in three_runs().into_iter().enumerate() {
            shuffle.add_run(i, run).expect("spilled add");
        }
        assert_eq!(shuffle.runs_written(), 3);
        assert!(shuffle.bytes_written() > 0);
        for p in 0..2 {
            // Bit-identical floats, not just approximately equal.
            let got: Vec<_> =
                shuffle.take_partition(p).expect("read").iter().map(|b| bits(b)).collect();
            assert_eq!(got, expected_partition(&three_runs(), p));
        }
        shuffle.finish(&Executor::new(1));
    }

    #[test]
    fn partition_reads_fetch_exactly_the_bytes_that_were_written() {
        let probe = FaultFs::new(FaultPlan::none());
        let shuffle = SpillShuffle::new("test", 2, Some(&spilling_budget_on(&probe, "ranged")));
        for (i, run) in three_runs().into_iter().enumerate() {
            shuffle.add_run(i, run).expect("spilled add");
        }
        for p in 0..2 {
            shuffle.take_partition(p).expect("read");
        }
        let reads: Vec<u64> =
            probe.ops().iter().filter(|r| r.class == OpClass::Read).map(|r| r.bytes).collect();
        assert_eq!(reads.len(), 3 * 2, "one ranged read per (run, partition)");
        let payload: usize = three_runs().iter().flatten().flatten().map(|r| encode_to_vec(r).len()).sum();
        assert_eq!(reads.iter().sum::<u64>(), payload as u64, "no read amplification: the buckets' bytes only");
    }

    #[test]
    fn order_is_by_map_task_even_when_spilled_runs_arrive_out_of_order() {
        let shuffle = SpillShuffle::new("test", 1, Some(&tmp_budget(0, "order")));
        shuffle.add_run(2, vec![vec![(9u32, 1u32)]]).expect("add");
        shuffle.add_run(0, vec![vec![(7u32, 1u32)]]).expect("add");
        shuffle.add_run(1, vec![vec![(8u32, 1u32)]]).expect("add");
        let got = shuffle.take_partition(0).expect("read");
        assert_eq!(got, vec![vec![(7, 1)], vec![(8, 1)], vec![(9, 1)]]);
    }

    #[test]
    fn corrupt_or_truncated_run_file_fails_closed() {
        let shuffle: SpillShuffle<(u32, u32)> =
            SpillShuffle::new("test", 1, Some(&tmp_budget(0, "corrupt")));
        shuffle.add_run(0, vec![vec![(1, 2), (3, 4)]]).expect("add");
        let run_path = {
            let runs = lock(&shuffle.runs);
            match &runs[0].1 {
                Run::Disk { path, .. } => path.clone(),
                Run::Memory { .. } => panic!("zero budget must spill"),
            }
        };
        let intact = fs::read(&run_path).expect("read run file");
        // Flip a byte of the bucket, then cut the file short: both must
        // read as corrupt.
        let bucket = Segment::parse(&intact, Kind::SPILL, SPILL_RUN_VERSION).expect("intact").sections()[0].range();
        let mut flipped = intact.clone();
        flipped[bucket.start] ^= 0x40;
        for damaged in [&flipped[..], &intact[..intact.len() - 1]] {
            fs::write(&run_path, damaged).expect("rewrite run file");
            let err = shuffle.take_partition(0).expect_err("must fail closed");
            assert!(
                matches!(err, DataflowError::Checkpoint(CheckpointError::Corrupt { .. })),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn enospc_during_spill_surfaces_typed_disk_full_and_drop_cleans_scratch() {
        // Op 0 is the spill-dir create, op 1 the run payload write: fail
        // the write with ENOSPC.
        let ffs = FaultFs::new(FaultPlan::fail_op(1, FaultKind::Enospc));
        let shuffle: SpillShuffle<u64> =
            SpillShuffle::new("gamma", 1, Some(&spilling_budget_on(&ffs, "enospc")));
        let dir = shuffle.dir.clone();
        let err = shuffle.add_run(0, vec![vec![1, 2, 3]]).expect_err("disk is full");
        assert!(matches!(err, DataflowError::DiskFull { .. }), "got {err:?}");
        drop(shuffle);
        assert!(!dir.exists(), "Drop guard must remove the spill scratch dir");
    }

    #[test]
    fn reduce_phase_read_failure_leaves_no_orphaned_run_files() {
        // Probe run: find the op index of the first reduce-phase read.
        let probe = FaultFs::new(FaultPlan::none());
        let shuffle: SpillShuffle<(u32, u32)> =
            SpillShuffle::new("test", 1, Some(&spilling_budget_on(&probe, "readprobe")));
        shuffle.add_run(0, vec![vec![(1, 2)]]).expect("add");
        shuffle.add_run(1, vec![vec![(3, 4)]]).expect("add");
        shuffle.take_partition(0).expect("clean read");
        let read_op = probe
            .ops()
            .iter()
            .find(|r| r.class == OpClass::Read)
            .map(|r| r.index)
            .expect("the reduce side must read spilled runs");
        drop(shuffle);

        // Real run: fail that read with EIO.
        let ffs = FaultFs::new(FaultPlan::fail_op(read_op, FaultKind::Eio));
        let shuffle: SpillShuffle<(u32, u32)> =
            SpillShuffle::new("test", 1, Some(&spilling_budget_on(&ffs, "readfail")));
        let dir = shuffle.dir.clone();
        shuffle.add_run(0, vec![vec![(1, 2)]]).expect("add");
        shuffle.add_run(1, vec![vec![(3, 4)]]).expect("add");
        assert!(dir.exists(), "runs spilled to disk");
        let err = shuffle.take_partition(0).expect_err("read fails");
        assert!(matches!(err, DataflowError::Checkpoint(CheckpointError::Io { .. })), "{err:?}");
        drop(shuffle);
        assert!(!dir.exists(), "no orphaned run files after a reduce-phase failure");
    }

    #[test]
    fn finish_emits_counters_and_removes_dir() {
        let budget = tmp_budget(0, "finish");
        let shuffle: SpillShuffle<u64> = SpillShuffle::new("test", 1, Some(&budget));
        shuffle.add_run(0, vec![vec![1, 2, 3]]).expect("add");
        let dir = shuffle.dir.clone();
        assert!(dir.exists());
        let mut exec = Executor::new(1);
        let collector = Arc::new(TraceCollector::default());
        exec.set_observer(collector.clone());
        shuffle.finish(&exec);
        assert!(!dir.exists());
        let counters = collector.counters();
        assert_eq!(counters.get(SPILL_RUNS_COUNTER).copied(), Some(1));
        assert_eq!(counters.get(SPILL_RECORDS_COUNTER).copied(), Some(3));
        assert!(counters.get(SPILL_BYTES_COUNTER).copied().unwrap_or(0) > 0);
    }

    #[test]
    fn memory_runs_release_budget_on_read_and_finish() {
        let budget = tmp_budget(1 << 20, "release");
        let shuffle = SpillShuffle::new("test", 2, Some(&budget));
        shuffle.add_run(0, vec![vec![(1u32, 2u32)], vec![(3u32, 4u32)]]).expect("add");
        assert!(budget.used() > 0);
        shuffle.take_partition(0).expect("read p0");
        let after_p0 = budget.used();
        shuffle.take_partition(1).expect("read p1");
        assert!(budget.used() < after_p0 || after_p0 == 0);
        let exec = Executor::new(1);
        shuffle.finish(&exec);
        assert_eq!(budget.used(), 0);
    }
}
