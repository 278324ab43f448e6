//! Chaos VFS harness: seeded filesystem fault injection for every
//! durable path, with graceful-degradation policies (DESIGN.md §18).
//!
//! The sweep is exhaustive by construction: a fault-free *probe* run
//! through a recording [`FaultFs`] enumerates every filesystem operation
//! a checkpointed (or spilling) resolution performs, then the harness
//! re-runs the pipeline once per operation index `k` × fault kind ×
//! worker count, injecting exactly that fault. Every faulted run must
//! end in one of two defensible states:
//!
//! * a **typed error** ([`DataflowError::Checkpoint`] or
//!   [`DataflowError::DiskFull`]) with no `.tmp-` scratch leaked, or
//! * a **recovered/degraded success** whose graph digest, match set and
//!   rule counts are bit-identical to the fault-free reference.
//!
//! Never a silently wrong answer. Runs are compared with
//! `support::canonical` (digest, sorted matches, rule counts). The witness
//! artifact test persists the recorded op traces under `target/chaos-vfs/`;
//! CI's chaos-vfs job runs this file again in release and uploads them.

mod support;

use std::path::{Path, PathBuf};

use minoaner::dataflow::vfs::{FaultFs, FaultKind, FaultPlan, VfsRef};
use minoaner::dataflow::{DegradeOnCkptError, MemoryBudget};
use minoaner::datagen::{generate, profiles, GeneratedDataset};
use minoaner::{CheckpointSpec, DataflowError, Minoaner, Resolution, ResolveRequest};
use support::{canonical, scratch_dir, tmp_leaks};

fn dataset() -> GeneratedDataset {
    generate(&profiles::restaurant().scaled(0.1))
}

/// Immediate children of `dir` (empty if the directory is gone).
fn dir_entries(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .map(|it| it.flatten().map(|e| e.path()).collect())
        .unwrap_or_default()
}

/// One checkpointed run of the pipeline through `vfs`.
fn run_ckpt(
    pair: &minoaner::KbPair,
    dir: &Path,
    workers: usize,
    vfs: VfsRef,
    degrade: bool,
    resume: bool,
) -> Result<(Resolution, minoaner::dataflow::RunTrace), DataflowError> {
    let on_error = if degrade { DegradeOnCkptError::Continue } else { DegradeOnCkptError::Fail };
    let spec = CheckpointSpec { resume, on_error, vfs, ..CheckpointSpec::new(dir) };
    let req = ResolveRequest::pair(pair).checkpoint(&spec).workers(workers);
    Ok(support::split_outcome(Minoaner::new().run(req)?))
}

/// Fault-free reference: the canonical outcome plus the durable op count
/// of a checkpointed run at `workers`.
fn reference(pair: &minoaner::KbPair, workers: usize, tag: &str) -> (String, u64) {
    let dir = scratch_dir(tag);
    let probe = FaultFs::new(FaultPlan::none());
    let (res, _) = run_ckpt(pair, &dir, workers, probe.clone(), false, false)
        .expect("fault-free probe run succeeds");
    assert!(tmp_leaks(&dir).is_empty(), "probe run leaked staging files");
    (canonical(&res), probe.op_count())
}

fn is_typed_io_failure(e: &DataflowError) -> bool {
    matches!(e, DataflowError::Checkpoint(_) | DataflowError::DiskFull { .. })
}

/// The tentpole sweep: inject every fault kind at every durable op index
/// under the fail-fast policy. Full kind coverage at 2 workers, ENOSPC
/// at 1 and 8 workers. Faulted runs either surface a typed error and
/// leak nothing, or succeed bit-identically (a fault on a best-effort
/// op — e.g. stale-staging cleanup — is tolerated by design).
#[test]
fn checkpoint_fault_at_every_op_is_typed_or_tolerated() {
    let d = dataset();
    for &workers in &[1usize, 2, 8] {
        let kinds: &[FaultKind] =
            if workers == 2 { &FaultKind::ALL } else { &[FaultKind::Enospc] };
        let (base, n_ops) = reference(&d.pair, workers, &format!("ref-w{workers}"));
        assert!(n_ops >= 10, "a checkpointed run must perform many durable ops, saw {n_ops}");
        for k in 0..n_ops {
            for &kind in kinds {
                let tag = format!("sweep-w{workers}-k{k}-{}", kind.as_str());
                let dir = scratch_dir(&tag);
                let faulty = FaultFs::new(FaultPlan::fail_op(k, kind));
                let outcome = run_ckpt(&d.pair, &dir, workers, faulty.clone(), false, false);
                assert_eq!(
                    faulty.fired().len(),
                    1,
                    "fault at op {k} ({kind:?}, workers {workers}) must fire exactly once"
                );
                match outcome {
                    Ok((res, _)) => assert_eq!(
                        canonical(&res),
                        base,
                        "tolerated fault at op {k} ({kind:?}, workers {workers}) changed the output"
                    ),
                    Err(e) => assert!(
                        is_typed_io_failure(&e),
                        "fault at op {k} ({kind:?}, workers {workers}) surfaced untyped: {e}"
                    ),
                }
                let leaks = tmp_leaks(&dir);
                assert!(
                    leaks.is_empty(),
                    "fault at op {k} ({kind:?}, workers {workers}) leaked staging files: {leaks:?}"
                );
            }
        }
    }
}

/// After any mid-run checkpoint fault, a healthy `--resume` run over the
/// same directory recovers to the bit-identical reference: whatever the
/// torn run left behind (committed prefix, swept staging) is either a
/// valid resume point or ignored — never mistaken for good state.
#[test]
fn resume_after_fault_recovers_bit_identical_output() {
    let d = dataset();
    let workers = 2;
    let (base, n_ops) = reference(&d.pair, workers, "resume-ref");
    // Early, middle and late fault points cover open, first-barrier and
    // last-barrier failure states without re-running the whole sweep.
    for &k in &[0, n_ops / 2, n_ops - 1] {
        for &kind in &FaultKind::ALL {
            let tag = format!("resume-k{k}-{}", kind.as_str());
            let dir = scratch_dir(&tag);
            let faulty = FaultFs::new(FaultPlan::fail_op(k, kind));
            let _ = run_ckpt(&d.pair, &dir, workers, faulty, false, false);
            let healthy = FaultFs::new(FaultPlan::none());
            let (res, _) = run_ckpt(&d.pair, &dir, workers, healthy, false, true)
                .unwrap_or_else(|e| {
                    panic!("healthy resume after fault at op {k} ({kind:?}) failed: {e}")
                });
            assert_eq!(
                canonical(&res),
                base,
                "resume after fault at op {k} ({kind:?}) diverged from reference"
            );
            assert!(tmp_leaks(&dir).is_empty(), "resume left staging files behind");
        }
    }
}

/// The graceful-degradation policy: with `DegradeOnCkptError::Continue`,
/// a checkpoint fault at ANY durable op never fails the run — the store
/// latches off, `ckpt/degraded` counts the event, and the output stays
/// bit-identical (merely not resumable).
#[test]
fn degrade_policy_survives_every_fault_with_identical_output() {
    let d = dataset();
    let workers = 2;
    let (base, n_ops) = reference(&d.pair, workers, "degrade-ref");
    let mut degraded_runs = 0u64;
    for k in 0..n_ops {
        // ENOSPC exercises the clean-failure path, ShortWrite the torn-
        // file path (half the payload lands, then the error surfaces).
        for &kind in &[FaultKind::Enospc, FaultKind::ShortWrite] {
            let tag = format!("degrade-k{k}-{}", kind.as_str());
            let dir = scratch_dir(&tag);
            let faulty = FaultFs::new(FaultPlan::fail_op(k, kind));
            let (res, trace) = run_ckpt(&d.pair, &dir, workers, faulty, true, false)
                .unwrap_or_else(|e| {
                    panic!("degrade policy must absorb fault at op {k} ({kind:?}), got: {e}")
                });
            assert_eq!(
                canonical(&res),
                base,
                "degraded run (op {k}, {kind:?}) changed the output"
            );
            let degraded = trace.counter("ckpt/degraded");
            // A fault on a best-effort op (staging sweep) is tolerated
            // without degrading; a fault on the commit path must be
            // counted. Either way the run keeps its answer.
            if degraded > 0 {
                degraded_runs += 1;
            } else {
                assert_eq!(
                    trace.counter("ckpt/barriers_written"),
                    3,
                    "op {k} ({kind:?}): no degradation counted but checkpointing was incomplete"
                );
            }
            assert!(tmp_leaks(&dir).is_empty(), "degraded run leaked staging files");
        }
    }
    assert!(
        degraded_runs > 0,
        "the sweep must hit the commit path and count ckpt/degraded at least once"
    );
}

/// A persistent full disk (every op fails from the start) under the
/// degradation policy: the run completes uncheckpointed with the exact
/// reference output.
#[test]
fn persistent_disk_failure_degrades_to_uncheckpointed_run() {
    let d = dataset();
    let workers = 2;
    let (base, _) = reference(&d.pair, workers, "persistent-ref");
    let dir = scratch_dir("persistent");
    let faulty = FaultFs::new(FaultPlan::fail_from(0, FaultKind::Enospc));
    let (res, trace) = run_ckpt(&d.pair, &dir, workers, faulty.clone(), true, false)
        .expect("degrade policy must survive a persistently failing disk");
    assert_eq!(canonical(&res), base, "uncheckpointed degraded run diverged");
    assert!(trace.counter("ckpt/degraded") >= 1, "degradation must be counted");
    assert_eq!(trace.counter("ckpt/barriers_written"), 0, "nothing can have committed");
    assert!(!faulty.fired().is_empty(), "the persistent fault must have fired");
}

/// Spill-path sweep: a memory-budgeted run whose shuffle scratch sits on
/// a faulty disk. Every spill op fault either surfaces as the typed
/// [`DataflowError::DiskFull`] / checkpoint I/O error with the scratch
/// directory swept, or is tolerated with a bit-identical answer.
#[test]
fn spill_fault_at_every_op_is_typed_and_sweeps_scratch() {
    let d = dataset();
    let workers = 2;
    // Reference: an unbudgeted plain run (spilling never changes results).
    let plain = Minoaner::new()
        .run(ResolveRequest::pair(&d.pair).workers(workers))
        .expect("plain run succeeds")
        .into_resolution();
    let base = canonical(&plain);

    // Probe: count the spill ops a 1-byte budget forces.
    let probe_dir = scratch_dir("spill-probe");
    let probe = FaultFs::new(FaultPlan::none());
    let budget = MemoryBudget::new(1, &probe_dir).with_vfs(probe.clone());
    let res = Minoaner::new()
        .run(ResolveRequest::pair(&d.pair).workers(workers).mem_budget(budget))
        .expect("budgeted probe run succeeds")
        .into_resolution();
    assert_eq!(canonical(&res), base, "spilling changed the output");
    let n_ops = probe.op_count();
    assert!(n_ops >= 4, "a 1-byte budget must force spill I/O, saw {n_ops} ops");
    assert!(
        dir_entries(&probe_dir).is_empty(),
        "the Drop guard must sweep the scratch of a healthy spilling run"
    );

    for k in 0..n_ops {
        for &kind in &[FaultKind::Enospc, FaultKind::Eio] {
            let tag = format!("spill-k{k}-{}", kind.as_str());
            let dir = scratch_dir(&tag);
            let faulty = FaultFs::new(FaultPlan::fail_op(k, kind));
            let budget = MemoryBudget::new(1, &dir).with_vfs(faulty.clone());
            let outcome = Minoaner::new().run(ResolveRequest::pair(&d.pair).workers(workers).mem_budget(budget));
            match outcome {
                Ok(done) => assert_eq!(
                    canonical(&done.into_resolution()),
                    base,
                    "tolerated spill fault at op {k} ({kind:?}) changed the output"
                ),
                Err(e) => {
                    assert!(
                        is_typed_io_failure(&e),
                        "spill fault at op {k} ({kind:?}) surfaced untyped: {e}"
                    );
                    if kind == FaultKind::Enospc {
                        assert!(
                            matches!(e, DataflowError::DiskFull { .. }),
                            "ENOSPC on a spill write must surface as DiskFull, got: {e}"
                        );
                    }
                    // A failed run guarantees scratch cleanup: the Drop
                    // guard runs after the fault, on a healthy disk.
                    let residue = dir_entries(&dir);
                    assert!(
                        residue.is_empty(),
                        "spill fault at op {k} ({kind:?}) leaked scratch: {residue:?}"
                    );
                }
            }
            // Error or tolerated, no half-committed staging files ever
            // remain (a fault on the cleanup op itself may leave whole
            // committed run files behind — that is the OS's lie, not a
            // torn artifact — but never a `.tmp-` one).
            let leaks = tmp_leaks(&dir);
            assert!(
                leaks.is_empty(),
                "spill fault at op {k} ({kind:?}) leaked staging files: {leaks:?}"
            );
        }
    }
}

/// Bounded seeded sweep: the same seed always produces the same fault
/// plan, so a CI failure is reproducible from the seed alone. Every
/// seeded run obeys the same typed-or-identical contract.
#[test]
fn seeded_fault_plans_are_reproducible_and_contained() {
    let d = dataset();
    let workers = 2;
    let (base, n_ops) = reference(&d.pair, workers, "seeded-ref");
    for seed in 0..24u64 {
        let plan = FaultPlan::seeded(seed, n_ops);
        let tag = format!("seeded-{seed}");
        let dir = scratch_dir(&tag);
        let faulty = FaultFs::new(plan);
        let outcome = run_ckpt(&d.pair, &dir, workers, faulty.clone(), false, false);
        match outcome {
            Ok((res, _)) => assert_eq!(canonical(&res), base, "seed {seed} changed the output"),
            Err(e) => {
                assert!(is_typed_io_failure(&e), "seed {seed} surfaced untyped: {e}")
            }
        }
        assert!(tmp_leaks(&dir).is_empty(), "seed {seed} leaked staging files");
        // Reproducibility: the same seed fires the same fault at the
        // same op index.
        let rerun_dir = scratch_dir(&format!("seeded-{seed}-rerun"));
        let again = FaultFs::new(FaultPlan::seeded(seed, n_ops));
        let _ = run_ckpt(&d.pair, &rerun_dir, workers, again.clone(), false, false);
        let (a, b) = (faulty.fired(), again.fired());
        assert_eq!(
            a.iter().map(|r| (r.index, r.fault)).collect::<Vec<_>>(),
            b.iter().map(|r| (r.index, r.fault)).collect::<Vec<_>>(),
            "seed {seed} is not reproducible"
        );
    }
}

/// Produces the CI artifact: the probe run's full op trace plus one
/// faulted run's witness under `target/chaos-vfs/` for upload.
#[test]
fn witness_artifact_is_written() {
    let d = dataset();
    let workers = 2;
    let dir = scratch_dir("witness-probe");
    let probe = FaultFs::new(FaultPlan::none());
    run_ckpt(&d.pair, &dir, workers, probe.clone(), false, false)
        .expect("fault-free probe run succeeds");

    let fault_dir = scratch_dir("witness-fault");
    let faulty = FaultFs::new(FaultPlan::seeded(7, probe.op_count()));
    let outcome = run_ckpt(&d.pair, &fault_dir, workers, faulty.clone(), true, false);
    assert!(outcome.is_ok(), "degrade policy must absorb the seeded fault");

    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let out = PathBuf::from(target).join("chaos-vfs");
    std::fs::create_dir_all(&out).expect("create artifact dir");
    std::fs::write(out.join("probe-ops.txt"), probe.witness()).expect("write probe witness");
    std::fs::write(out.join("faulted-run.txt"), faulty.witness()).expect("write fault witness");
    let summary = format!(
        "probe ops: {}\nfaulted ops: {}\nfaults fired: {}\n",
        probe.op_count(),
        faulty.op_count(),
        faulty.fired().len()
    );
    std::fs::write(out.join("summary.txt"), summary).expect("write summary");
}
