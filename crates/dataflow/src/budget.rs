//! Memory budgeting for out-of-core execution.
//!
//! A [`MemoryBudget`] caps how many bytes of shuffle state a run may hold
//! on the heap at once. Stages that exchange data (the blocking graph's γ
//! pass, [`crate::pdc::Pdc`] shuffles) call [`MemoryBudget::try_reserve`]
//! before buffering a batch; when the reservation fails they write the
//! batch to a run file in [`MemoryBudget::spill_dir`] instead (see
//! [`crate::spill`]) and release nothing. The budget thus converts an OOM
//! into extra disk traffic — results stay bit-identical because map-task
//! order, not residence, determines the order batches are read back in.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use minoaner_det::vfs::{self, VfsRef};

/// A byte budget shared by every stage of one run.
///
/// Cloning is cheap and shares the accounting: the executor, the spill
/// shuffle and any stage helpers all observe the same `used` counter.
/// The budget also carries the [`VfsRef`] spill run files are written
/// through, so fault injection reaches the spill path wherever the budget
/// travels.
#[derive(Debug, Clone)]
pub struct MemoryBudget {
    limit: u64,
    spill_dir: PathBuf,
    used: Arc<AtomicU64>,
    vfs: VfsRef,
}

impl MemoryBudget {
    /// A budget of `limit` bytes, spilling to `spill_dir` when exceeded.
    /// The directory is created lazily by the first spill.
    pub fn new(limit: u64, spill_dir: impl Into<PathBuf>) -> Self {
        Self {
            limit,
            spill_dir: spill_dir.into(),
            used: Arc::new(AtomicU64::new(0)),
            vfs: vfs::default_vfs(),
        }
    }

    /// Replaces the filesystem spills are written through — the chaos
    /// harness's injection point for the spill path.
    pub fn with_vfs(mut self, vfs: VfsRef) -> Self {
        self.vfs = vfs;
        self
    }

    /// The byte ceiling.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Where run files go when a reservation fails.
    pub fn spill_dir(&self) -> &Path {
        &self.spill_dir
    }

    /// The filesystem spill run files are written through.
    pub fn vfs(&self) -> &VfsRef {
        &self.vfs
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::SeqCst)
    }

    /// Attempts to reserve `bytes` against the budget. Returns `false`
    /// (reserving nothing) when the reservation would exceed the limit —
    /// the caller's cue to spill.
    pub fn try_reserve(&self, bytes: u64) -> bool {
        let mut current = self.used.load(Ordering::SeqCst);
        loop {
            let Some(next) = current.checked_add(bytes) else {
                return false;
            };
            if next > self.limit {
                return false;
            }
            match self.used.compare_exchange_weak(current, next, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }

    /// Releases a previous reservation (saturating: releasing more than
    /// was reserved clamps to zero rather than wrapping).
    pub fn release(&self, bytes: u64) {
        let mut current = self.used.load(Ordering::SeqCst);
        loop {
            let next = current.saturating_sub(bytes);
            match self.used.compare_exchange_weak(current, next, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_up_to_limit_then_fail() {
        let b = MemoryBudget::new(100, "/tmp/unused");
        assert!(b.try_reserve(60));
        assert!(b.try_reserve(40));
        assert_eq!(b.used(), 100);
        assert!(!b.try_reserve(1));
        b.release(50);
        assert!(b.try_reserve(50));
    }

    #[test]
    fn release_saturates() {
        let b = MemoryBudget::new(10, "/tmp/unused");
        assert!(b.try_reserve(5));
        b.release(100);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn clones_share_accounting() {
        let a = MemoryBudget::new(10, "/tmp/unused");
        let b = a.clone();
        assert!(a.try_reserve(10));
        assert!(!b.try_reserve(1));
        b.release(10);
        assert!(a.try_reserve(10));
    }

    #[test]
    fn zero_budget_rejects_everything() {
        let b = MemoryBudget::new(0, "/tmp/unused");
        assert!(!b.try_reserve(1));
        assert!(b.try_reserve(0));
    }
}
