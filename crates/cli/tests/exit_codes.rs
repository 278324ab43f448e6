//! End-to-end exit-code contract of the `minoaner` binary: each failure
//! class maps to its own code (documented in `minoaner --help` and the
//! README) so scripts and CI can branch on *why* a run failed.
//!
//! | code | class |
//! |------|-------------------------------------------|
//! | 0    | success                                   |
//! | 1    | I/O (missing/unreadable file)             |
//! | 2    | usage (bad flags/config; shed submission) |
//! | 3    | parse (malformed N-Triples under --strict)|
//! | 5    | checkpoint (corrupt/incompatible snapshot)|
//! | 6    | cancelled (user request/deadline/shutdown)|

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
}

#[test]
fn jobs_cancel_drops_a_marker_for_the_owning_scheduler() {
    let dir = scratch_dir("jobs-cancel");
    let root = dir.join("jobs");
    // Fake a live job directory, as the owning scheduler would create it.
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
    // An already-expired deadline: the scheduler dooms the job at dispatch,
    // before any pipeline work — deterministic cancellation.
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
fn jobs_run_batch_completes_and_persists_artifacts() {
    let dir = scratch_dir("jobs-ok");
    let (left, right) = write_kbs(&dir);
    let root = dir.join("jobs");
    let spec_a = format!(
        "left={},right={},name=first,priority=high",
        left.to_str().expect("utf8"),
        right.to_str().expect("utf8")
    );
    let spec_b = format!(
        "left={},right={},name=second",
        left.to_str().expect("utf8"),
        right.to_str().expect("utf8")
    );
    let out = run(&["jobs", "run", "--root", root.to_str().expect("utf8"), "--budget-workers",
        "2", "--max-running", "1", "--job", &spec_a, "--job", &spec_b]);
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
    let third = dir.join("third.nt");
    std::fs::write(&third, "<t:R3> <t:title> \"The Fat Duck\" .\n<t:C3> <t:title> \"Jonny Lake\" .\n")
        .expect("write third KB");
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
    let input = dir.join("dirty.nt");
    std::fs::write(
        &input,
        "<e:1> <p:name> \"The Fat Duck\" .\n<e:1> <p:city> \"Bray\" .\n\
         <e:2> <p:label> \"The Fat Duck\" .\n<e:2> <p:place> \"Bray\" .\n\
         <e:3> <p:name> \"Jonny Lake\" .\n",
    )
    .expect("write dirty KB");
    let (tsv, rows) = tsv_and_json(&["dedup", "--input", input.to_str().expect("utf8")]);
    assert!(!tsv.is_empty(), "e:1 and e:2 are duplicates");
    let from_json: Vec<String> =
        rows.iter().map(|row| format!("{}\t{}", text(row, "a"), text(row, "b"))).collect();
    assert_eq!(from_json, tsv);
}
