//! Cooperative cancellation for dataflow runs.
//!
//! The engine cannot preempt a running task (just as Spark cannot kill a
//! task thread mid-flight), so cancellation is a *flag*, observed at the
//! same points the fault machinery already polls: worker claim boundaries,
//! retry loops, and pipeline barriers. A [`CancelToken`] is a cheap,
//! cloneable handle shared between the party requesting the stop (a job
//! scheduler, a CLI signal path, a deadline watchdog) and the executor
//! running the work.
//!
//! Two invariants matter to the checkpointing story (DESIGN.md §14):
//!
//! * a worker never abandons a *claimed* task without either writing its
//!   slot or raising an abort flag — cancellation reuses the exact exit
//!   discipline of the stage-deadline path, so no claim is lost;
//! * cancellation is only observed *between* stages and tasks, never
//!   inside a checkpoint barrier write — a cancelled checkpointed run
//!   therefore leaves only complete, resumable barriers behind.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Why a run was cancelled. The first cancellation to land wins; later
/// requests (for any reason) are no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CancelReason {
    /// An explicit request: a user hit `minoaner jobs cancel`, or a
    /// caller decided the result is no longer needed.
    User,
    /// The job's wall-clock deadline expired (the watchdog path).
    Deadline,
    /// The owning scheduler is shutting down and is draining its jobs.
    Shutdown,
}

impl CancelReason {
    /// Stable lowercase name, used in status files and error text.
    pub fn as_str(self) -> &'static str {
        match self {
            CancelReason::User => "user",
            CancelReason::Deadline => "deadline",
            CancelReason::Shutdown => "shutdown",
        }
    }

    /// Parses the stable name produced by [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "user" => Some(CancelReason::User),
            "deadline" => Some(CancelReason::Deadline),
            "shutdown" => Some(CancelReason::Shutdown),
            _ => None,
        }
    }

    fn code(self) -> u8 {
        match self {
            CancelReason::User => 1,
            CancelReason::Deadline => 2,
            CancelReason::Shutdown => 3,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(CancelReason::User),
            2 => Some(CancelReason::Deadline),
            3 => Some(CancelReason::Shutdown),
            _ => None,
        }
    }
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A shared, cloneable cancellation flag.
///
/// State is a single `AtomicU8`: `0` = live, otherwise the code of the
/// winning [`CancelReason`]. [`Self::cancel`] uses a compare-exchange so
/// exactly one request transitions the token; every clone observes the
/// same reason afterwards. All operations are `SeqCst` — the token
/// participates in the pool's abort-flag protocol, which is modeled under
/// loom (`tools/loom-models/tests/loom_models.rs`).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    state: Arc<AtomicU8>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Returns `true` if this call won the
    /// transition, `false` if the token was already cancelled (in which
    /// case the earlier reason is kept).
    pub fn cancel(&self, reason: CancelReason) -> bool {
        self.state
            .compare_exchange(0, reason.code(), Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Whether cancellation has been requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.state.load(Ordering::SeqCst) != 0
    }

    /// The winning cancellation reason, if any.
    pub fn reason(&self) -> Option<CancelReason> {
        CancelReason::from_code(self.state.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
    }

    #[test]
    fn first_cancel_wins() {
        let t = CancelToken::new();
        assert!(t.cancel(CancelReason::Deadline));
        assert!(!t.cancel(CancelReason::User), "second cancel is a no-op");
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel(CancelReason::User);
        assert!(c.is_cancelled());
        assert_eq!(c.reason(), Some(CancelReason::User));
    }

    #[test]
    fn reason_names_round_trip() {
        for r in [CancelReason::User, CancelReason::Deadline, CancelReason::Shutdown] {
            assert_eq!(CancelReason::parse(r.as_str()), Some(r));
            assert_eq!(r.to_string(), r.as_str());
        }
        assert_eq!(CancelReason::parse("bogus"), None);
    }

    #[test]
    fn concurrent_cancels_agree_on_one_reason() {
        let t = CancelToken::new();
        let winners: usize = std::thread::scope(|s| {
            let handles: Vec<_> = [CancelReason::User, CancelReason::Deadline]
                .into_iter()
                .map(|r| {
                    let t = t.clone();
                    s.spawn(move || usize::from(t.cancel(r)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
        });
        assert_eq!(winners, 1, "exactly one cancel call wins");
        assert!(t.reason().is_some());
    }
}
