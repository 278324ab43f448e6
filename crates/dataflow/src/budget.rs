//! Memory budgeting for out-of-core execution.
//!
//! A [`MemoryBudget`] caps how many bytes of shuffle state a run may hold
//! on the heap at once. Stages that exchange data (the blocking graph's γ
//! pass) call [`MemoryBudget::try_reserve`] before buffering a batch; when
//! the reservation fails they write the batch to a run file in
//! [`MemoryBudget::spill_dir`] instead (see [`crate::spill`]) and release
//! nothing. The budget thus converts an OOM
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

/// Pins glibc's `mmap` threshold at 1 MiB for the rest of the process; the
/// first [`crate::Executor`] built makes the call, later ones and other
/// allocators find nothing to do.
///
/// Left alone, glibc raises the threshold to the size of the first large
/// block a program frees (up to 32 MiB). From then on every stage-sized
/// buffer is carved out of the `brk` heap and stays resident once freed, so
/// a run's peak RSS is its live bytes plus whatever holes its allocation
/// order happened to leave: 105–125 MiB over thirty datasets of one shape
/// whose live peak is 103 MiB, and ±12 MiB between two builds on one
/// dataset. Pinned, a buffer of 1 MiB or more is its own mapping and goes
/// back to the OS at the barrier that drops it — the resident set follows
/// the data, which is what a [`MemoryBudget`] assumes when it counts bytes.
/// (At 4 MiB the spread is back; under 1 MiB the extra page faults of
/// mapping mid-sized scratch vectors afresh buy nothing more.)
pub(crate) fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu", not(miri)))]
    {
        use std::os::raw::c_int;
        // A raw libc symbol, as in `minoaner-kb`'s `disk.rs`: the workspace
        // carries no `libc` dependency.
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_MMAP_THRESHOLD: c_int = -3;
        static PINNED: std::sync::Once = std::sync::Once::new();
        PINNED.call_once(|| {
            // SAFETY: `mallopt` takes two integers by value, locks the main
            // arena itself, and with this parameter only stores the value
            // and turns the dynamic adjustment off; blocks already handed
            // out are not touched. A refusal (return 0) changes nothing.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, 1 << 20);
            }
        });
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
