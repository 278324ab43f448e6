//! Loom model checks for the lock-free protocols in minoaner-dataflow that
//! no static check can reason about: the executor pool's task-claim /
//! fatal-flag / barrier protocol (`pool.rs`) and the cancel token's
//! first-cancel-wins (`cancel.rs`).
//!
//! These are *models*: the real pool borrows its closure environment
//! through `std::thread::scope` and locks `std::sync` primitives, which
//! loom cannot instrument, so each test re-states the protocol with
//! `loom::sync` types and asserts the invariants the real code relies on.
//! The model and `pool.rs` must be kept in sync by hand — each invariant
//! below cites the comment in `pool.rs` it mirrors.
//!
//! This package is its own workspace (loom is the repository's only
//! registry dependency; the main workspace has none and resolves offline).
//! Run with:
//!
//! ```text
//! cargo test --release --manifest-path tools/loom-models/Cargo.toml
//! ```

use loom::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;

/// Outcome written into a slot by the model worker, mirroring the
/// `Result<T, DataflowError>` slots of `pool.rs` (payload elided).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Failed,
}

/// The pool protocol under no faults: two workers claim task indices with
/// `fetch_add` and write their slot before re-checking any flag.
///
/// Invariants (from the comment above `worker_loop` in `pool.rs`):
///   * every index in `0..n` is claimed by exactly one worker;
///   * after the barrier (thread join), every slot is populated — the
///     `assert_eq!(.., "no abort flag set, so every task must have run")`
///     at the end of `try_run_stage` cannot fire.
#[test]
fn pool_claims_each_task_exactly_once_and_fills_every_slot() {
    const N: usize = 3;
    loom::model(|| {
        let next = Arc::new(AtomicUsize::new(0));
        let runs = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0)]);
        let slots: Arc<Vec<Mutex<Option<Outcome>>>> =
            Arc::new((0..N).map(|_| Mutex::new(None)).collect());

        let worker = |next: Arc<AtomicUsize>,
                      runs: Arc<[AtomicUsize; N]>,
                      slots: Arc<Vec<Mutex<Option<Outcome>>>>| {
            move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= N {
                    break;
                }
                runs[i].fetch_add(1, Ordering::Relaxed);
                *slots[i].lock().unwrap() = Some(Outcome::Ok);
            }
        };

        let handles: Vec<_> = (0..2)
            .map(|_| {
                thread::spawn(worker(
                    Arc::clone(&next),
                    Arc::clone(&runs),
                    Arc::clone(&slots),
                ))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        for i in 0..N {
            assert_eq!(runs[i].load(Ordering::Relaxed), 1, "task {i} run count");
            assert!(slots[i].lock().unwrap().is_some(), "slot {i} empty after barrier");
        }
    });
}

/// The fatal-flag path (fail-fast): a worker that sees its
/// task fail writes the slot *first*, then raises `fatal` and exits; other
/// workers stop claiming once they observe the flag.
///
/// Invariants:
///   * a worker never exits between claiming an index and writing its
///     slot, even on the failure path — so every claimed index has a
///     populated slot after the join;
///   * whenever `fatal` is set, at least one slot holds `Failed` — so
///     `try_run_stage` finds the error by scanning the slots and never
///     needs to read the flag after the join.
#[test]
fn pool_fatal_flag_never_loses_a_claimed_task() {
    const N: usize = 3;
    const FAILING: usize = 1;
    loom::model(|| {
        let next = Arc::new(AtomicUsize::new(0));
        let fatal = Arc::new(AtomicBool::new(false));
        let slots: Arc<Vec<Mutex<Option<Outcome>>>> =
            Arc::new((0..N).map(|_| Mutex::new(None)).collect());

        let worker = |next: Arc<AtomicUsize>,
                      fatal: Arc<AtomicBool>,
                      slots: Arc<Vec<Mutex<Option<Outcome>>>>| {
            move || loop {
                if fatal.load(Ordering::SeqCst) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= N {
                    break;
                }
                let outcome = if i == FAILING { Outcome::Failed } else { Outcome::Ok };
                // Claim → run → write slot, unconditionally, THEN flag.
                *slots[i].lock().unwrap() = Some(outcome);
                if outcome == Outcome::Failed {
                    fatal.store(true, Ordering::SeqCst);
                    break;
                }
            }
        };

        let handles: Vec<_> = (0..2)
            .map(|_| {
                thread::spawn(worker(
                    Arc::clone(&next),
                    Arc::clone(&fatal),
                    Arc::clone(&slots),
                ))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let claimed = next.load(Ordering::Relaxed).min(N);
        for i in 0..claimed {
            assert!(
                slots[i].lock().unwrap().is_some(),
                "claimed task {i} has no slot — a worker exited between claim and write"
            );
        }
        assert!(fatal.load(Ordering::SeqCst), "the failing task was claimed, so fatal must be set");
        let any_failed = (0..N).any(|i| *slots[i].lock().unwrap() == Some(Outcome::Failed));
        assert!(any_failed, "fatal flag set without a failed slot");
    });
}

/// The cancellation path (`CancelToken` vs. the claim protocol): workers
/// poll the token *before* claiming an index, never between claiming and
/// writing the slot, and raise the pool's `cancelled` abort flag before
/// exiting early — mirroring the `self.cancel.is_cancelled()` check at the
/// top of `worker_loop` in `pool.rs`.
///
/// Invariants (from the `CancelToken` docs in `cancel.rs`):
///   * cancellation never loses an in-flight claim: every claimed index
///     has a populated slot after the join, cancelled or not;
///   * cancellation never wedges barrier fill: if any slot is empty after
///     the join, the pool's `cancelled` flag is set, so `try_run_stage`
///     returns `DataflowError::Cancelled` instead of reaching the
///     "every task must have run" assertion.
#[test]
fn pool_cancel_never_loses_an_in_flight_claim() {
    const N: usize = 3;
    loom::model(|| {
        let next = Arc::new(AtomicUsize::new(0));
        // 0 = live, non-zero = cancelled-with-reason (CancelToken::state).
        let token = Arc::new(AtomicU8::new(0));
        // The pool-level abort flag a worker raises when it observes the
        // token (the `cancelled` AtomicBool in `try_run_stage`).
        let observed = Arc::new(AtomicBool::new(false));
        let slots: Arc<Vec<Mutex<Option<Outcome>>>> =
            Arc::new((0..N).map(|_| Mutex::new(None)).collect());

        let worker = |next: Arc<AtomicUsize>,
                      token: Arc<AtomicU8>,
                      observed: Arc<AtomicBool>,
                      slots: Arc<Vec<Mutex<Option<Outcome>>>>| {
            move || loop {
                // Poll point: BEFORE the claim, mirroring worker_loop.
                if token.load(Ordering::SeqCst) != 0 {
                    observed.store(true, Ordering::SeqCst);
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= N {
                    break;
                }
                // Once claimed, the task runs and writes its slot
                // unconditionally — cancellation cannot interrupt it here.
                *slots[i].lock().unwrap() = Some(Outcome::Ok);
            }
        };

        let canceller = {
            let token = Arc::clone(&token);
            // CancelToken::cancel: first-cancel-wins compare_exchange.
            thread::spawn(move || {
                let _ = token.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst);
            })
        };
        let handles: Vec<_> = (0..2)
            .map(|_| {
                thread::spawn(worker(
                    Arc::clone(&next),
                    Arc::clone(&token),
                    Arc::clone(&observed),
                    Arc::clone(&slots),
                ))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        canceller.join().unwrap();

        // No lost claims: every claimed index has a populated slot.
        let claimed = next.load(Ordering::Relaxed).min(N);
        for i in 0..claimed {
            assert!(
                slots[i].lock().unwrap().is_some(),
                "claimed task {i} has no slot — cancellation lost an in-flight claim"
            );
        }
        // No wedged barrier: an empty slot implies the pool observed the
        // cancellation and will surface DataflowError::Cancelled.
        let all_full = (0..N).all(|i| slots[i].lock().unwrap().is_some());
        if !all_full {
            assert!(
                observed.load(Ordering::SeqCst),
                "tasks missing but no worker raised the cancelled flag — barrier would wedge"
            );
        }
    });
}

/// `CancelToken::cancel` first-cancel-wins: concurrent cancellations with
/// different reasons agree on exactly one winner, and the stored reason is
/// the winner's — no tearing, no double-win (mirrors the compare_exchange
/// in `cancel.rs`).
#[test]
fn cancel_token_first_cancel_wins_under_races() {
    loom::model(|| {
        let token = Arc::new(AtomicU8::new(0));
        let cancel = |token: Arc<AtomicU8>, reason: u8| {
            thread::spawn(move || {
                token
                    .compare_exchange(0, reason, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            })
        };
        // Reasons 1 (User) and 2 (Deadline) race.
        let a = cancel(Arc::clone(&token), 1);
        let b = cancel(Arc::clone(&token), 2);
        let a_won = a.join().unwrap();
        let b_won = b.join().unwrap();

        assert!(a_won ^ b_won, "exactly one cancel call must win");
        let stored = token.load(Ordering::SeqCst);
        let winner = if a_won { 1 } else { 2 };
        assert_eq!(stored, winner, "the stored reason must be the winner's");
    });
}
