//! Env-armed crash and cancellation points for the crash-recovery and
//! jobs harnesses. Compiled only with the `fault-inject` feature;
//! production builds carry none of this code.
//!
//! These fire *between* the steps of the checkpoint protocol, in a
//! subprocess the parent test arms through the environment — the one kind
//! of fault the in-process `FaultFs` (`minoaner_det::vfs`) cannot model,
//! because it kills (or cancels) the whole run rather than failing one
//! filesystem operation.

/// A process-level crash point for the crash-recovery harness: firing one
/// **aborts the whole process**, simulating a kill -9 / power loss at a
/// precise spot in the checkpoint protocol.
///
/// Crash points are armed via the `MINOANER_CRASH_POINT` environment
/// variable so a parent test can arm a subprocess without any API
/// plumbing:
///
/// * `after:<k>` — abort immediately after the checkpoint of barrier `k`
///   is fully committed ([`CrashPoint::AfterStage`]).
/// * `during:<stage>` — abort while writing the named barrier's
///   checkpoint, after the parts are staged but before the manifest
///   commits ([`CrashPoint::DuringStage`]) — a torn write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashPoint {
    /// Abort right after barrier `k`'s checkpoint commit.
    AfterStage(usize),
    /// Abort mid-write of the named barrier (torn checkpoint).
    DuringStage(String),
}

impl CrashPoint {
    /// Parses the armed crash point from `MINOANER_CRASH_POINT`, if any.
    pub fn from_env() -> Option<CrashPoint> {
        let spec = std::env::var("MINOANER_CRASH_POINT").ok()?;
        if let Some(k) = spec.strip_prefix("after:") {
            return k.trim().parse().ok().map(CrashPoint::AfterStage);
        }
        if let Some(stage) = spec.strip_prefix("during:") {
            return Some(CrashPoint::DuringStage(stage.trim().to_owned()));
        }
        None
    }
}

/// Fires the `after:<k>` crash point: called by the checkpoint store right
/// after barrier `barrier` commits. Aborts without unwinding (no
/// destructors, no flushing — the closest safe stand-in for SIGKILL).
pub fn maybe_crash_after(barrier: usize) {
    if CrashPoint::from_env() == Some(CrashPoint::AfterStage(barrier)) {
        eprintln!("fault-inject: crashing after barrier {barrier} checkpoint commit");
        std::process::abort();
    }
}

/// Fires the `during:<stage>` crash point: called by the checkpoint store
/// after staging part files but before the manifest commit, leaving a torn
/// checkpoint behind.
pub fn maybe_crash_during(stage: &str) {
    if let Some(CrashPoint::DuringStage(s)) = CrashPoint::from_env() {
        if s == stage {
            eprintln!("fault-inject: crashing during {stage:?} checkpoint write");
            std::process::abort();
        }
    }
}

/// Fires the armed *cancellation* point from `MINOANER_CANCEL_POINT`
/// (same `after:<k>` grammar as [`CrashPoint`]): called by the
/// checkpointed pipeline right after barrier `barrier` commits. Where
/// `MINOANER_CRASH_POINT` models SIGKILL (`std::process::abort`), this
/// models a cooperative `jobs cancel` arriving at the worst possible
/// moment — it latches the run's own [`CancelToken`] with
/// [`CancelReason::User`] so the very next barrier poll observes it,
/// proving a cancelled run leaves only complete, resumable barriers.
pub fn maybe_cancel_after(barrier: usize, token: &crate::CancelToken) {
    let Ok(spec) = std::env::var("MINOANER_CANCEL_POINT") else {
        return;
    };
    let armed = spec.strip_prefix("after:").and_then(|k| k.trim().parse::<usize>().ok());
    if armed == Some(barrier) {
        eprintln!("fault-inject: cancelling after barrier {barrier} checkpoint commit");
        token.cancel(crate::CancelReason::User);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_point_parses_env_specs() {
        // No other test in this binary reads MINOANER_CRASH_POINT, so the
        // set/remove pair here cannot race a concurrent reader.
        std::env::set_var("MINOANER_CRASH_POINT", "after:2");
        assert_eq!(CrashPoint::from_env(), Some(CrashPoint::AfterStage(2)));
        std::env::set_var("MINOANER_CRASH_POINT", "during:graph");
        assert_eq!(CrashPoint::from_env(), Some(CrashPoint::DuringStage("graph".into())));
        std::env::set_var("MINOANER_CRASH_POINT", "bogus");
        assert_eq!(CrashPoint::from_env(), None);
        std::env::remove_var("MINOANER_CRASH_POINT");
        assert_eq!(CrashPoint::from_env(), None);
        // An unarmed process never crashes.
        maybe_crash_after(0);
        maybe_crash_during("blocks");
    }
}
