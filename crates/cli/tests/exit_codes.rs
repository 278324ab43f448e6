//! End-to-end exit-code contract of the `minoaner` binary: each failure
//! class maps to its own code (documented in `minoaner --help` and the
//! README) so scripts and CI can branch on *why* a run failed.
//!
//! | code | class |
//! |------|-------------------------------------------|
//! | 0    | success                                   |
//! | 1    | I/O (missing/unreadable file)             |
//! | 2    | usage (bad flags/config; cancelling a finished job) |
//! | 3    | parse (malformed N-Triples under --strict)|
//! | 5    | checkpoint (corrupt/incompatible snapshot)|
//! | 6    | cancelled (user request/deadline)         |

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use minoaner_det::json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_minoaner");

/// Unique per-test scratch directory (pid + counter; no entropy).
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("minoaner-exit-codes-{}-{tag}-{n}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write_kbs(dir: &Path) -> (PathBuf, PathBuf) {
    let left = dir.join("left.nt");
    let right = dir.join("right.nt");
    std::fs::write(
        &left,
        "<w:R1> <w:label> \"The Fat Duck\" .\n\
         <w:R1> <w:hasChef> <w:C1> .\n\
         <w:C1> <w:label> \"Jonny Lake\" .\n",
    )
    .expect("write left KB");
    std::fs::write(
        &right,
        "<d:R2> <d:name> \"Fat Duck (Bray)\" .\n\
         <d:R2> <d:headChef> <d:C2> .\n\
         <d:C2> <d:name> \"Jonny Lake\" .\n",
    )
    .expect("write right KB");
    (left, right)
}

/// A third KB for `multi`, describing the same restaurant and chef.
fn write_third_kb(dir: &Path) -> PathBuf {
    let third = dir.join("third.nt");
    std::fs::write(&third, "<t:R3> <t:title> \"The Fat Duck\" .\n<t:C3> <t:title> \"Jonny Lake\" .\n")
        .expect("write third KB");
    third
}

/// One dirty KB for `dedup`: e:1 and e:2 are duplicates.
fn write_dirty_kb(dir: &Path) -> PathBuf {
    let input = dir.join("dirty.nt");
    std::fs::write(
        &input,
        "<e:1> <p:name> \"The Fat Duck\" .\n<e:1> <p:city> \"Bray\" .\n\
         <e:2> <p:label> \"The Fat Duck\" .\n<e:2> <p:place> \"Bray\" .\n\
         <e:3> <p:name> \"Jonny Lake\" .\n",
    )
    .expect("write dirty KB");
    input
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(BIN).args(args).output().expect("spawn minoaner binary")
}

fn code(out: &std::process::Output) -> i32 {
    out.status.code().expect("process exited normally")
}

/// A job directory's `status.json`, parsed.
fn read_status(job_dir: &Path) -> Json {
    let text = std::fs::read_to_string(job_dir.join("status.json")).expect("status persisted");
    Json::parse(&text).expect("status.json is JSON")
}

/// Runs `args` and `args --json`; returns the TSV lines of the first and
/// the parsed array of the second.
fn tsv_and_json(args: &[&str]) -> (Vec<String>, Vec<Json>) {
    let tsv = run(args);
    assert_eq!(code(&tsv), 0, "stderr: {}", String::from_utf8_lossy(&tsv.stderr));
    let lines = String::from_utf8(tsv.stdout).expect("utf8").lines().map(str::to_owned).collect();
    let mut with_json = args.to_vec();
    with_json.push("--json");
    let out = run(&with_json);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let doc = Json::parse(&String::from_utf8(out.stdout).expect("utf8")).expect("--json prints JSON");
    (lines, doc.as_arr().expect("--json prints an array").to_vec())
}

/// `row.key` as a string.
fn text<'a>(row: &'a Json, key: &str) -> &'a str {
    row.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("no string {key:?} in {row:?}"))
}

#[test]
fn successful_resolve_exits_zero() {
    let dir = scratch_dir("ok");
    let (left, right) = write_kbs(&dir);
    let out = run(&["resolve", "--left", left.to_str().expect("utf8"), "--right", right
        .to_str()
        .expect("utf8")]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn missing_input_file_exits_one() {
    let dir = scratch_dir("io");
    let missing = dir.join("nope.nt");
    let (_, right) = write_kbs(&dir);
    let out = run(&["resolve", "--left", missing.to_str().expect("utf8"), "--right", right
        .to_str()
        .expect("utf8")]);
    assert_eq!(code(&out), 1, "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn usage_errors_exit_two() {
    // Missing required flag.
    assert_eq!(code(&run(&["resolve", "--left", "a.nt"])), 2);
    // Unknown flag.
    assert_eq!(code(&run(&["resolve", "--left", "a.nt", "--right", "b.nt", "--bogus"])), 2);
    // --resume without --checkpoint-dir.
    assert_eq!(code(&run(&["resolve", "--left", "a.nt", "--right", "b.nt", "--resume"])), 2);
    // A flag of another command: refused with the command named, not
    // accepted and dropped (the files are never opened — exit 1 would be).
    for args in [
        &["dedup", "--input", "k.nt", "--theta", "0.9", "--mkb", "x.mkb", "--checkpoint-dir", "d"][..],
        &["stats", "--input", "k.nt", "--json", "--workers", "8"],
        &["jobs", "list", "--root", "r", "--job", "left=a,right=b", "--resume"],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), 2, "{args:?}: {stderr}");
        let command = if args[0] == "jobs" { "`jobs list`".to_owned() } else { format!("`{}`", args[0]) };
        assert!(stderr.contains("unknown flag") && stderr.contains(&command), "{args:?}: {stderr}");
    }
}

#[test]
fn malformed_input_under_strict_exits_three() {
    let dir = scratch_dir("parse");
    let (left, right) = write_kbs(&dir);
    std::fs::write(&left, "<w:R1> <w:label> \"ok\" .\nthis line is not a triple\n")
        .expect("corrupt left KB");
    let out = run(&["resolve", "--strict", "--left", left.to_str().expect("utf8"), "--right",
        right.to_str().expect("utf8")]);
    assert_eq!(code(&out), 3, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    // Lenient mode shrugs the same input off.
    let out = run(&["resolve", "--lenient", "--left", left.to_str().expect("utf8"), "--right",
        right.to_str().expect("utf8")]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn checkpoint_failure_exits_five() {
    let dir = scratch_dir("ckpt");
    let (left, right) = write_kbs(&dir);
    // Point --checkpoint-dir at a path whose parent is a *file*, so the
    // store cannot create its root directory.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "not a directory").expect("write blocker file");
    let ckpt = blocker.join("ckpt");
    let out = run(&["resolve", "--left", left.to_str().expect("utf8"), "--right", right
        .to_str()
        .expect("utf8"), "--checkpoint-dir", ckpt.to_str().expect("utf8")]);
    assert_eq!(code(&out), 5, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("checkpoint"), "stderr should name the failure class: {stderr}");
}

#[test]
fn jobs_usage_errors_exit_two() {
    // Missing subcommand / root / id / jobs.
    assert_eq!(code(&run(&["jobs"])), 2);
    assert_eq!(code(&run(&["jobs", "list"])), 2);
    assert_eq!(code(&run(&["jobs", "run", "--root", "/tmp/x"])), 2);
    assert_eq!(code(&run(&["jobs", "status", "--root", "/tmp/x"])), 2);
    // Malformed --job spec and malformed job id.
    assert_eq!(code(&run(&["jobs", "run", "--root", "/tmp/x", "--job", "left=a.nt"])), 2);
    assert_eq!(code(&run(&["jobs", "status", "--root", "/tmp/x", "--id", "zebra"])), 2);
    // Cancelling a job that does not exist is a usage error, not silence.
    let dir = scratch_dir("jobs-usage");
    assert_eq!(code(&run(&["jobs", "cancel", "--root", dir.to_str().expect("utf8"), "--id",
        "j0099"])), 2);
}

#[test]
fn jobs_run_with_missing_input_exits_one() {
    let dir = scratch_dir("jobs-io");
    let missing = dir.join("nope.nt");
    let (_, right) = write_kbs(&dir);
    let spec = format!(
        "left={},right={}",
        missing.to_str().expect("utf8"),
        right.to_str().expect("utf8")
    );
    let root = dir.join("jobs");
    let out = run(&["jobs", "run", "--root", root.to_str().expect("utf8"), "--job", &spec]);
    assert_eq!(code(&out), 1, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    // Later in a batch, the bad file fails its own job with the load
    // error; the jobs around it still resolve.
    let good = format!("left={},right={}", right.to_str().expect("utf8"), right.to_str().expect("utf8"));
    let out = run(&["jobs", "run", "--root", root.to_str().expect("utf8"), "--job", &good, "--job", &spec,
        "--job", &good]);
    assert_eq!(code(&out), 1, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let statuses: Vec<Json> = ["j0000", "j0001", "j0002"].iter().map(|id| read_status(&root.join(format!("job-{id}")))).collect();
    let states: Vec<&str> = statuses.iter().map(|status| text(status, "state")).collect();
    assert_eq!(states, ["completed", "failed", "completed"]);
    assert!(text(&statuses[1], "error").contains("cannot read"), "j0001: {:?}", statuses[1]);
    assert!(statuses[1].get("cancel_reason").and_then(Json::as_str).is_none(), "j0001: {:?}", statuses[1]);
}

#[test]
fn jobs_cancel_drops_a_marker_for_the_owning_batch() {
    let dir = scratch_dir("jobs-cancel");
    let root = dir.join("jobs");
    // Fake a live job directory, as the owning batch would create it.
    std::fs::create_dir_all(root.join("job-j0000")).expect("job dir");
    let out = run(&["jobs", "cancel", "--root", root.to_str().expect("utf8"), "--id", "0"]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let marker =
        std::fs::read_to_string(root.join("job-j0000").join("CANCEL")).expect("marker written");
    assert_eq!(marker, "user");
    // Status of a job with no status file yet is an I/O error (exit 1).
    let out = run(&["jobs", "status", "--root", root.to_str().expect("utf8"), "--id", "j0000"]);
    assert_eq!(code(&out), 1, "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn jobs_run_cancelled_by_deadline_exits_six() {
    let dir = scratch_dir("jobs-deadline");
    let (left, right) = write_kbs(&dir);
    let root = dir.join("jobs");
    // A zero deadline: the job reads its input and its run is cancelled at
    // its first barrier (`barrier:start`), before any pipeline work —
    // deterministic cancellation.
    let spec = format!(
        "left={},right={},deadline-ms=0",
        left.to_str().expect("utf8"),
        right.to_str().expect("utf8")
    );
    let out = run(&["jobs", "run", "--root", root.to_str().expect("utf8"), "--job", &spec]);
    assert_eq!(code(&out), 6, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let status = read_status(&root.join("job-j0000"));
    assert_eq!(status.get("state").and_then(Json::as_str), Some("cancelled"), "status: {status:?}");
    assert_eq!(status.get("cancel_reason").and_then(Json::as_str), Some("deadline"), "status: {status:?}");
    // The control plane sees it too.
    let out = run(&["jobs", "list", "--root", root.to_str().expect("utf8")]);
    assert_eq!(code(&out), 0);
    let listing = String::from_utf8_lossy(&out.stdout);
    assert!(listing.contains("cancelled"), "listing: {listing}");
    let out = run(&["jobs", "status", "--root", root.to_str().expect("utf8"), "--id", "j0000"]);
    assert_eq!(code(&out), 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("deadline"));
}

#[test]
fn a_job_cancelled_at_its_start_leaves_its_input_to_no_other_job() {
    let dir = scratch_dir("jobs-skip");
    let (left, right) = write_kbs(&dir);
    let other = dir.join("other.nt");
    std::fs::write(&other, "<o:R9> <o:title> \"The Fat Duck\" .\n").expect("write other KB");
    let root = dir.join("jobs");
    let (left, right, other) = (left.to_str().expect("utf8"), right.to_str().expect("utf8"), other.to_str().expect("utf8"));
    let doomed = format!("left={left},right={right},deadline-ms=0");
    let last = format!("left={left},right={other}");
    let out = run(&["jobs", "run", "--root", root.to_str().expect("utf8"), "--job", &format!("left={left},right={right}"),
        "--job", &doomed, "--job", &last]);
    assert_eq!(code(&out), 6, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let matches = std::fs::read_to_string(root.join("job-j0002").join("matches.tsv")).expect("j0002 matches");
    assert_eq!(matches, "w:R1\to:R9\n", "j0002 resolved its own input, not j0001's");
}

#[test]
fn jobs_run_batch_completes_and_persists_artifacts() {
    let dir = scratch_dir("jobs-ok");
    let (left, right) = write_kbs(&dir);
    let root = dir.join("jobs");
    let spec_a = format!(
        "left={},right={},name=first",
        left.to_str().expect("utf8"),
        right.to_str().expect("utf8")
    );
    let spec_b = format!(
        "left={},right={},name=second",
        left.to_str().expect("utf8"),
        right.to_str().expect("utf8")
    );
    let out = run(&["jobs", "run", "--root", root.to_str().expect("utf8"), "--job", &spec_a,
        "--job", &spec_b]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    for id in ["j0000", "j0001"] {
        let job_dir = root.join(format!("job-{id}"));
        let status = read_status(&job_dir);
        assert_eq!(status.get("state").and_then(Json::as_str), Some("completed"), "{id}: {status:?}");
        assert!(job_dir.join("matches.tsv").exists(), "{id} should persist matches");
        assert!(job_dir.join("trace.json").exists(), "{id} should persist its trace");
        assert!(job_dir.join("ckpt").is_dir(), "{id} should checkpoint under its own dir");
    }
    let out = run(&["jobs", "list", "--root", root.to_str().expect("utf8")]);
    let listing = String::from_utf8_lossy(&out.stdout);
    assert!(listing.contains("first") && listing.contains("second"), "listing: {listing}");
}

/// A named pipe at `dir/name`: a job reading it as its input waits until
/// the test writes it, so the job is running but cannot finish.
#[cfg(unix)]
fn fifo(dir: &Path, name: &str) -> PathBuf {
    let path = dir.join(name);
    let made = Command::new("mkfifo").arg(&path).status().expect("spawn mkfifo");
    assert!(made.success(), "mkfifo {}", path.display());
    path
}

/// A spawned `jobs run`, killed and reaped when dropped unwaited: a test
/// that fails before it feeds the batch's FIFO then reports its failure,
/// instead of leaving the batch blocked on the FIFO. The batch's stdout
/// (which these tests never read) is not the harness's, so a batch
/// orphaned by an aborted test binary cannot hold the harness's output
/// open either.
#[cfg(unix)]
struct Batch(Option<std::process::Child>);

#[cfg(unix)]
impl Batch {
    fn spawn(args: &[&str]) -> Self {
        let child = Command::new(BIN)
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn the batch");
        Self(Some(child))
    }

    fn wait_with_output(mut self) -> std::process::Output {
        self.0.take().expect("not waited yet").wait_with_output().expect("batch exits")
    }
}

#[cfg(unix)]
impl Drop for Batch {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Polls `jobs status` until job `id` under `root` reports `running`.
#[cfg(unix)]
fn wait_until_running(root: &str, id: &str) {
    let mut polls = 0;
    while !String::from_utf8_lossy(&run(&["jobs", "status", "--root", root, "--id", id]).stdout).contains("running") {
        polls += 1;
        assert!(polls < 2_000, "{id} never reported running");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[cfg(unix)]
#[test]
fn a_second_process_lists_and_cancels_a_running_batch() {
    let dir = scratch_dir("jobs-live");
    let (left, right) = write_kbs(&dir);
    let pipe = fifo(&dir, "left.pipe");
    let root = dir.join("jobs");
    let root = root.to_str().expect("utf8");
    let (left, right) = (left.to_str().expect("utf8"), right.to_str().expect("utf8"));
    let other = dir.join("other.nt");
    std::fs::write(&other, "<o:R9> <o:title> \"The Fat Duck\" .\n").expect("write other KB");
    let waiting = format!("name=waiting,left={},right={right}", pipe.to_str().expect("utf8"));
    let last = format!("name=last,left={left},right={}", other.to_str().expect("utf8"));
    let batch = Batch::spawn(&["jobs", "run", "--root", root, "--job", &waiting, "--job",
        &format!("name=small,left={left},right={right}"), "--job", &last]);
    // j0000 runs and waits for its input, which only this test can give.
    wait_until_running(root, "j0000");
    let out = run(&["jobs", "list", "--root", root]);
    let listing = String::from_utf8_lossy(&out.stdout);
    assert!(listing.contains("j0000  running") && listing.contains("j0001  queued"), "listing: {listing}");
    // The queued job never runs; the running one stops at its next barrier.
    for id in ["1", "0"] {
        let out = run(&["jobs", "cancel", "--root", root, "--id", id]);
        assert_eq!(code(&out), 0, "cancel {id}: {}", String::from_utf8_lossy(&out.stderr));
    }
    // The batch polls the marker every 25 ms; give it ample time to see
    // the marker before j0000 gets its input and starts resolving.
    std::thread::sleep(std::time::Duration::from_millis(300));
    std::fs::write(&pipe, std::fs::read(left).expect("left KB")).expect("feed the pipe");
    let out = batch.wait_with_output();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(code(&out), 6, "stderr: {stderr}");
    for (id, error) in [("j0000", "stage"), ("j0001", "cancelled (user) before start")] {
        let status = read_status(&Path::new(root).join(format!("job-{id}")));
        assert_eq!(status.get("state").and_then(Json::as_str), Some("cancelled"), "{id}: {status:?}");
        assert_eq!(status.get("cancel_reason").and_then(Json::as_str), Some("user"), "{id}: {status:?}");
        assert!(status.get("error").and_then(Json::as_str).is_some_and(|e| e.contains(error)), "{id}: {status:?}");
    }
    // j0001 never took the input loaded for it, so j0002 skips it.
    let matches = std::fs::read_to_string(Path::new(root).join("job-j0002").join("matches.tsv")).expect("j0002 matches");
    assert_eq!(matches, "w:R1\to:R9\n", "j0002 resolved its own input, not j0001's");
}

#[cfg(unix)]
#[test]
fn a_deadline_counts_from_when_the_input_is_in_memory() {
    let dir = scratch_dir("jobs-deadline-after-load");
    let (left, right) = write_kbs(&dir);
    let pipe = fifo(&dir, "left.pipe");
    let root = dir.join("jobs");
    let root = root.to_str().expect("utf8");
    // The input takes longer to arrive than the deadline; the resolve
    // itself takes a few milliseconds.
    let spec = format!("left={},right={},deadline-ms=1000", pipe.to_str().expect("utf8"), right.to_str().expect("utf8"));
    let batch = Batch::spawn(&["jobs", "run", "--root", root, "--job", &spec]);
    wait_until_running(root, "j0000");
    std::thread::sleep(std::time::Duration::from_millis(1_500));
    std::fs::write(&pipe, std::fs::read(&left).expect("left KB")).expect("feed the pipe");
    let out = batch.wait_with_output();
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(text(&read_status(&Path::new(root).join("job-j0000")), "state"), "completed");
}

#[test]
fn a_cancel_after_the_batch_does_not_cancel_its_rerun() {
    let dir = scratch_dir("jobs-rerun");
    let (left, right) = write_kbs(&dir);
    let root = dir.join("jobs");
    let root = root.to_str().expect("utf8");
    let spec = format!("left={},right={}", left.to_str().expect("utf8"), right.to_str().expect("utf8"));
    let state = || read_status(&Path::new(root).join("job-j0000")).get("state").and_then(Json::as_str).map(str::to_owned);
    let out = run(&["jobs", "run", "--root", root, "--job", &spec]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    // Cancelling a finished job is refused and leaves no marker behind …
    let out = run(&["jobs", "cancel", "--root", root, "--id", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(code(&out), 2, "stderr: {stderr}");
    assert!(stderr.contains("already completed"), "stderr: {stderr}");
    assert!(!Path::new(root).join("job-j0000").join("CANCEL").exists());
    let out = run(&["jobs", "run", "--root", root, "--resume", "--job", &spec]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(state().as_deref(), Some("completed"));
    // … and a marker that did land for an earlier run (it finished before
    // the marker was read) is cleared when the job is queued again.
    std::fs::write(Path::new(root).join("job-j0000").join("CANCEL"), "user").expect("stale marker");
    let out = run(&["jobs", "run", "--root", root, "--resume", "--job", &spec]);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(state().as_deref(), Some("completed"));
}

#[test]
fn checkpointed_resolve_writes_snapshots_and_resumes() {
    let dir = scratch_dir("ckpt-ok");
    let (left, right) = write_kbs(&dir);
    let ckpt = dir.join("snaps");
    let report = dir.join("reports").join("run.json");
    let base = &["resolve", "--left", left.to_str().expect("utf8"), "--right", right
        .to_str()
        .expect("utf8")];

    // First run writes checkpoints (and creates missing report parents).
    let mut args = base.to_vec();
    args.extend(["--checkpoint-dir", ckpt.to_str().expect("utf8"), "--report", report
        .to_str()
        .expect("utf8")]);
    let out = run(&args);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(report.exists(), "--report must create missing parent directories");
    let stages: Vec<_> = std::fs::read_dir(&ckpt)
        .expect("checkpoint dir exists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("stage-"))
        .collect();
    assert_eq!(stages.len(), 3, "one committed snapshot per barrier: {stages:?}");

    // Second run resumes from the final barrier.
    let mut args = base.to_vec();
    args.extend(["--checkpoint-dir", ckpt.to_str().expect("utf8"), "--resume"]);
    let out = run(&args);
    assert_eq!(code(&out), 0, "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resumed"), "resume should be reported on stderr: {stderr}");
}

// ───────────── `--json` carries the same rows as the TSV ─────────────

#[test]
fn resolve_json_lists_the_tsv_matches() {
    let dir = scratch_dir("json-resolve");
    let (left, right) = write_kbs(&dir);
    let (tsv, rows) = tsv_and_json(&["resolve", "--left", left.to_str().expect("utf8"), "--right",
        right.to_str().expect("utf8")]);
    assert!(!tsv.is_empty(), "the sample KBs match");
    let from_json: Vec<String> =
        rows.iter().map(|row| format!("{}\t{}", text(row, "left"), text(row, "right"))).collect();
    assert_eq!(from_json, tsv);
}

#[test]
fn multi_json_lists_the_tsv_clusters() {
    let dir = scratch_dir("json-multi");
    let (left, right) = write_kbs(&dir);
    let third = write_third_kb(&dir);
    let (tsv, rows) = tsv_and_json(&["multi", "--kb", left.to_str().expect("utf8"), "--kb",
        right.to_str().expect("utf8"), "--kb", third.to_str().expect("utf8")]);
    assert!(!tsv.is_empty(), "the sample KBs cluster");
    let from_json: Vec<String> = rows
        .iter()
        .map(|cluster| {
            let nodes = cluster.as_arr().expect("a cluster is an array").iter().map(|node| {
                let kb = node.get("kb").and_then(Json::as_u64).expect("kb index");
                format!("{kb}:{}", text(node, "uri"))
            });
            nodes.collect::<Vec<_>>().join("\t")
        })
        .collect();
    assert_eq!(from_json, tsv);
}

#[test]
fn dedup_json_lists_the_tsv_duplicates() {
    let dir = scratch_dir("json-dedup");
    let input = write_dirty_kb(&dir);
    let (tsv, rows) = tsv_and_json(&["dedup", "--input", input.to_str().expect("utf8")]);
    assert!(!tsv.is_empty(), "e:1 and e:2 are duplicates");
    let from_json: Vec<String> =
        rows.iter().map(|row| format!("{}\t{}", text(row, "a"), text(row, "b"))).collect();
    assert_eq!(from_json, tsv);
}

// ───────────── pinned stdout on the fixture KBs ─────────────

const RESOLVE_TSV: &str = "w:C1\td:C2\nw:R1\td:R2\n";

const RESOLVE_JSON: &str = r#"[
  {
    "left": "w:C1",
    "right": "d:C2"
  },
  {
    "left": "w:R1",
    "right": "d:R2"
  }
]
"#;

const DEDUP_TSV: &str = "e:1\te:2\n";

const DEDUP_JSON: &str = r#"[
  {
    "a": "e:1",
    "b": "e:2"
  }
]
"#;

const MULTI_TSV: &str = "0:w:C1\t1:d:C2\t2:t:C3\n0:w:R1\t1:d:R2\t2:t:R3\n";

/// Exact stdout of every result-printing path on the fixture KBs. Tracing,
/// reports and checkpoints change what goes to stderr and to disk, never
/// the printed result, and a resumed run prints what the run it resumes
/// printed.
#[test]
fn result_stdout_is_pinned_on_the_fixture_kbs() {
    let dir = scratch_dir("golden");
    let (left, right) = write_kbs(&dir);
    let (third, dirty) = (write_third_kb(&dir), write_dirty_kb(&dir));
    let (ckpt, report) = (dir.join("ckpt"), dir.join("run.json"));
    let path = |p: &Path| p.to_str().expect("utf8").to_owned();
    let (left, right, third, dirty, ckpt, report) =
        (path(&left), path(&right), path(&third), path(&dirty), path(&ckpt), path(&report));
    let resolve = |extra: &[&str]| -> Vec<String> {
        let mut args = vec!["resolve", "--left", &left, "--right", &right];
        args.extend(extra);
        args.into_iter().map(str::to_owned).collect()
    };
    let cases: Vec<(Vec<String>, &str)> = vec![
        (resolve(&[]), RESOLVE_TSV),
        (resolve(&["--json"]), RESOLVE_JSON),
        (resolve(&["--report", &report]), RESOLVE_TSV),
        (resolve(&["--checkpoint-dir", &ckpt]), RESOLVE_TSV),
        (resolve(&["--checkpoint-dir", &ckpt, "--resume"]), RESOLVE_TSV),
        (resolve(&["--checkpoint-dir", &ckpt, "--resume", "--json"]), RESOLVE_JSON),
        (["dedup", "--input", &dirty].map(str::to_owned).to_vec(), DEDUP_TSV),
        (["dedup", "--input", &dirty, "--json"].map(str::to_owned).to_vec(), DEDUP_JSON),
        (["multi", "--kb", &left, "--kb", &right, "--kb", &third].map(str::to_owned).to_vec(), MULTI_TSV),
    ];
    for (args, want) in cases {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), 0, "{args:?}: {stderr}");
        assert_eq!(String::from_utf8(out.stdout).expect("utf8"), want, "{args:?}: {stderr}");
        if args.contains(&"--resume") {
            assert!(stderr.contains("resumed from checkpoint barrier 2"), "{args:?}: {stderr}");
        }
    }
    assert!(Path::new(&report).is_file(), "--report wrote the trace");
}
