//! Cooperative cancellation for dataflow runs.
//!
//! The engine cannot preempt a running task (just as Spark cannot kill a
//! task thread mid-flight), so cancellation is a *flag*, observed at two
//! kinds of points: worker claim boundaries and pipeline barriers. A
//! [`CancelToken`] is a cheap, cloneable handle shared between the party
//! requesting the stop (a job batch's `CANCEL` marker watcher, a caller
//! that no longer needs the result) and the executor running the work. A
//! wall-clock deadline is one more such party: a handle made by
//! [`CancelToken::expiring_after`] latches [`CancelReason::Deadline`] into
//! the shared state the first time it is polled after its budget ran out.
//!
//! Two invariants matter to the checkpointing story (DESIGN.md §14):
//!
//! * a worker never abandons a *claimed* task without either writing its
//!   slot or raising an abort flag — the token is polled only before a
//!   claim, so no claim is lost;
//! * cancellation is only observed *between* stages and tasks, never
//!   inside a checkpoint barrier write — a cancelled checkpointed run
//!   therefore leaves only complete, resumable barriers behind.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a run was cancelled. The first cancellation to land wins; later
/// requests (for any reason) are no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CancelReason {
    /// An explicit request: a user hit `minoaner jobs cancel`, or a
    /// caller decided the result is no longer needed.
    User,
    /// The run's wall-clock budget ran out
    /// ([`CancelToken::expiring_after`]).
    Deadline,
}

impl CancelReason {
    /// Stable lowercase name, used in status files and error text.
    pub fn as_str(self) -> &'static str {
        match self {
            CancelReason::User => "user",
            CancelReason::Deadline => "deadline",
        }
    }

    /// Parses the stable name produced by [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "user" => Some(CancelReason::User),
            "deadline" => Some(CancelReason::Deadline),
            _ => None,
        }
    }

    fn code(self) -> u8 {
        match self {
            CancelReason::User => 1,
            CancelReason::Deadline => 2,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(CancelReason::User),
            2 => Some(CancelReason::Deadline),
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
///
/// A handle may also carry a deadline ([`Self::expiring_after`]): polling
/// it past that instant cancels the shared state with
/// [`CancelReason::Deadline`], through the same compare-exchange, so an
/// earlier cancel still wins.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    state: Arc<AtomicU8>,
    /// The instant past which polling this handle latches
    /// [`CancelReason::Deadline`]; `None` never expires.
    expires: Option<Instant>,
}

impl CancelToken {
    /// A fresh, un-cancelled token that never expires.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle on this token's state that, once `budget` has passed,
    /// latches [`CancelReason::Deadline`] into that state when polled
    /// ([`Self::is_cancelled`], [`Self::reason`]). Every clone sharing the
    /// state then reads the deadline, this token included. A budget too
    /// large to add to the clock never expires.
    // Sanctioned wall-clock use: a deadline decides when a run stops,
    // never what a finished run computes.
    #[allow(clippy::disallowed_methods)]
    pub fn expiring_after(&self, budget: Duration) -> Self {
        Self { state: Arc::clone(&self.state), expires: Instant::now().checked_add(budget) }
    }

    /// Requests cancellation. Returns `true` if this call won the
    /// transition, `false` if the token was already cancelled (in which
    /// case the earlier reason is kept).
    pub fn cancel(&self, reason: CancelReason) -> bool {
        self.state
            .compare_exchange(0, reason.code(), Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Whether cancellation has been requested (or this handle's deadline
    /// has passed).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.reason().is_some()
    }

    /// The winning cancellation reason, if any. Latches
    /// [`CancelReason::Deadline`] first when this handle's deadline has
    /// passed.
    // Sanctioned wall-clock use: see `expiring_after`.
    #[allow(clippy::disallowed_methods)]
    pub fn reason(&self) -> Option<CancelReason> {
        if self.expires.is_some_and(|at| Instant::now() >= at) {
            self.cancel(CancelReason::Deadline);
        }
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
    fn an_expired_handle_latches_deadline_into_every_clone() {
        let t = CancelToken::new();
        let c = t.clone();
        let expiring = t.expiring_after(Duration::ZERO);
        let sibling = expiring.clone();
        assert!(!t.is_cancelled(), "the token itself reads no clock");
        assert_eq!(expiring.reason(), Some(CancelReason::Deadline), "polling the handle latches");
        for handle in [&t, &c, &sibling] {
            assert_eq!(handle.reason(), Some(CancelReason::Deadline));
        }
        assert!(!t.cancel(CancelReason::User), "the deadline already won");
    }

    #[test]
    fn a_user_cancel_before_expiry_wins() {
        let t = CancelToken::new();
        let expiring = t.expiring_after(Duration::from_millis(1));
        assert!(t.cancel(CancelReason::User));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(expiring.reason(), Some(CancelReason::User));
        assert_eq!(t.reason(), Some(CancelReason::User));
    }

    #[test]
    fn a_new_token_never_expires() {
        let t = CancelToken::new();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(t.reason(), None);
        let far = t.expiring_after(Duration::MAX);
        assert_eq!(far.reason(), None, "an unrepresentable deadline never expires");
        assert!(!far.is_cancelled() && !t.is_cancelled());
    }

    #[test]
    fn reason_names_round_trip() {
        for r in [CancelReason::User, CancelReason::Deadline] {
            assert_eq!(CancelReason::parse(r.as_str()), Some(r));
            assert_eq!(r.to_string(), r.as_str());
        }
        assert_eq!(CancelReason::parse("bogus"), None);
        assert_eq!(CancelReason::parse("shutdown"), None);
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
