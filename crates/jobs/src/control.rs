//! The file-based control plane: how `minoaner jobs list|status|cancel`
//! observe and steer a batch running in another process.
//!
//! Layout under a control root:
//!
//! ```text
//! <root>/job-<id>/status.json   # atomic snapshot, rewritten on every transition
//! <root>/job-<id>/CANCEL        # marker dropped by `jobs cancel`, polled by the batch
//! <root>/job-<id>/ckpt/         # the job's checkpoint store (written by the pipeline)
//! <root>/job-<id>/trace.json    # the job's RunTrace (written by the CLI)
//! ```
//!
//! Status files are written atomically (tmp + rename), so a reader never
//! observes a torn snapshot. The status schema — one flat object of
//! strings, unsigned integers and nulls — is this crate's public, versioned
//! contract; the text goes through the workspace's one JSON module,
//! `minoaner_det::json`.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use minoaner_dataflow::vfs::{self, Vfs};
use minoaner_dataflow::CancelReason;
use minoaner_det::json::Json;

use crate::job::{JobId, JobState, JobStatus};

/// Version stamped into every status file; readers reject other versions
/// instead of guessing. Version 2 dropped version 1's `priority` field.
pub const STATUS_SCHEMA_VERSION: u64 = 2;

/// The per-job directory under a control root.
pub fn job_dir(root: &Path, id: JobId) -> PathBuf {
    root.join(format!("job-{id}"))
}

/// A malformed or unreadable control-plane artifact.
#[derive(Debug)]
pub enum ControlError {
    /// Filesystem failure reading or writing an artifact.
    Io(io::Error),
    /// The artifact exists but does not parse as a valid status.
    Malformed {
        /// The offending file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::Io(e) => write!(f, "control plane I/O error: {e}"),
            ControlError::Malformed { path, detail } => {
                write!(f, "malformed control file {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for ControlError {}

impl From<io::Error> for ControlError {
    fn from(e: io::Error) -> Self {
        ControlError::Io(e)
    }
}

/// Atomically writes `status` into its job directory under `root`,
/// creating the directory if needed. `vfs` is [`vfs::RealFs`] in
/// production and a fault-injecting filesystem under the chaos tests.
///
/// Follows the workspace's atomic-commit protocol ([`vfs::commit_file`]):
/// the snapshot is written to a `.tmp-` sibling, fsynced, renamed over
/// `status.json`, and the directory is fsynced so the rename survives a
/// crash. On any failure the temporary is removed best-effort, so a failed
/// transition never leaks scratch into the job directory (`list_statuses` would skip it
/// anyway — recovery scanners ignore `.tmp-` names — but the leak-scan in
/// the chaos sweep holds every durable path to the stronger contract).
pub fn write_status(vfs: &dyn Vfs, root: &Path, status: &JobStatus) -> io::Result<()> {
    let dir = job_dir(root, status.id);
    vfs.create_dir_all(&dir)?;
    vfs::commit_file(vfs, &dir.join("status.json"), status_to_json(status).as_bytes())
        .map_err(|(_, e)| e)
}

/// Reads the status snapshot from a job directory. A file that is not
/// UTF-8 is malformed, like any other body that is not a status.
pub fn read_status(vfs: &dyn Vfs, dir: &Path) -> Result<JobStatus, ControlError> {
    let path = dir.join("status.json");
    let bytes = vfs.read(&path)?;
    let json = std::str::from_utf8(&bytes).map_err(|e| format!("not UTF-8 at byte {}", e.valid_up_to()));
    json.and_then(status_from_json).map_err(|detail| ControlError::Malformed { path, detail })
}

/// All job statuses under a control root, ascending by id. A missing root
/// is an empty listing; entries that are not job directories (or whose
/// status file is torn mid-create) are skipped rather than failing the
/// whole listing.
pub fn list_statuses(vfs: &dyn Vfs, root: &Path) -> io::Result<Vec<JobStatus>> {
    let entries = match vfs.list_dir(root) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut statuses = Vec::new();
    for path in entries {
        let Some(id) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("job-"))
            .and_then(JobId::parse)
        else {
            continue;
        };
        if let Ok(status) = read_status(vfs, &path) {
            if status.id == id {
                statuses.push(status);
            }
        }
    }
    statuses.sort_by_key(|s| s.id);
    Ok(statuses)
}

/// Drops a `CANCEL` marker into the job's directory for the owning
/// [`Batch`](crate::Batch) to pick up: at the job's start, or within one
/// poll while it runs. Returns `false` (writing nothing) when the job
/// directory does not exist. The marker is advisory (re-droppable at
/// will), so it is a plain write with no fsync.
pub fn request_cancel(vfs: &dyn Vfs, root: &Path, id: JobId, reason: CancelReason) -> io::Result<bool> {
    let dir = job_dir(root, id);
    if !dir.is_dir() {
        return Ok(false);
    }
    vfs.write_file(&dir.join("CANCEL"), reason.as_str().as_bytes())?;
    Ok(true)
}

/// The pending cancel request for a job directory, if a marker exists.
/// An unreadable or unrecognized reason degrades to
/// [`CancelReason::User`] — a cancel request must never be dropped on a
/// parse error.
pub fn cancel_request(vfs: &dyn Vfs, dir: &Path) -> Option<CancelReason> {
    let raw = vfs.read_to_string(&dir.join("CANCEL")).ok()?;
    Some(CancelReason::parse(raw.trim()).unwrap_or(CancelReason::User))
}

// ───────────────────────── status JSON ─────────────────────────

fn status_to_json(status: &JobStatus) -> String {
    let opt = |value: Option<&str>| value.map_or(Json::Null, Json::str);
    let doc: Json = Json::obj([
        ("schema_version", Json::Num(STATUS_SCHEMA_VERSION.into())),
        ("id", Json::Num(status.id.ordinal().into())),
        ("name", Json::str(status.name.as_str())),
        ("workers", Json::num(status.workers)),
        ("memory_bytes", Json::Num(status.memory_bytes.into())),
        ("state", Json::str(status.state.as_str())),
        ("cancel_reason", opt(status.cancel_reason.map(CancelReason::as_str))),
        ("error", opt(status.error.as_deref())),
        ("summary", opt(status.summary.as_deref())),
    ]);
    doc.render() + "\n"
}

fn status_from_json(json: &str) -> Result<JobStatus, String> {
    let doc = Json::parse(json)?;
    let get = |key: &str| doc.get(key).ok_or_else(|| format!("missing field {key:?}"));
    let get_uint = |key: &str| -> Result<u64, String> {
        let value = get(key)?;
        value.as_u64().ok_or_else(|| format!("field {key:?} is not an unsigned integer (got {value:?})"))
    };
    let get_str = |key: &str| -> Result<&str, String> {
        let value = get(key)?;
        value.as_str().ok_or_else(|| format!("field {key:?} is not a string (got {value:?})"))
    };
    let get_opt = |key: &str| -> Result<Option<&str>, String> {
        match get(key)? {
            Json::Str(s) => Ok(Some(s.as_str())),
            Json::Null => Ok(None),
            other => Err(format!("field {key:?} is not a string or null (got {other:?})")),
        }
    };

    let version = get_uint("schema_version")?;
    if version != STATUS_SCHEMA_VERSION {
        return Err(format!(
            "status schema version {version} (reader supports {STATUS_SCHEMA_VERSION})"
        ));
    }
    let state_name = get_str("state")?;
    let state =
        JobState::parse(state_name).ok_or_else(|| format!("unknown state {state_name:?}"))?;
    let cancel_reason = match get_opt("cancel_reason")? {
        Some(name) => {
            Some(CancelReason::parse(name).ok_or_else(|| format!("unknown reason {name:?}"))?)
        }
        None => None,
    };
    let workers = get_uint("workers")?;
    Ok(JobStatus {
        id: JobId::from_ordinal(get_uint("id")?),
        name: get_str("name")?.to_owned(),
        workers: workers.try_into().map_err(|_| format!("{workers} workers"))?,
        memory_bytes: get_uint("memory_bytes")?,
        state,
        cancel_reason,
        error: get_opt("error")?.map(str::to_owned),
        summary: get_opt("summary")?.map(str::to_owned),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    use minoaner_dataflow::vfs::{FaultFs, FaultKind, FaultPlan, RealFs};

    fn sample(id: u64, state: JobState) -> JobStatus {
        JobStatus {
            id: JobId::from_ordinal(id),
            name: "dbpedia \"full\" run\nwith newline \\ backslash".to_owned(),
            workers: 3,
            memory_bytes: 1 << 30,
            state,
            cancel_reason: Some(CancelReason::Deadline),
            error: Some("stage \"match\" cancelled".to_owned()),
            summary: None,
        }
    }

    #[test]
    fn status_json_round_trips_exactly() {
        let status = sample(7, JobState::Cancelled);
        let json = status_to_json(&status);
        let back = status_from_json(&json).expect("round trip");
        assert_eq!(back, status);
    }

    #[test]
    fn reader_rejects_drifted_schema_and_junk() {
        assert!(status_from_json("{}").is_err(), "missing fields");
        assert!(status_from_json("not json").is_err());
        let status = sample(1, JobState::Running);
        for old in [1, 9] {
            let json = status_to_json(&status)
                .replace("\"schema_version\": 2", &format!("\"schema_version\": {old}"));
            let err = status_from_json(&json).expect_err("version drift");
            assert!(err.contains(&format!("schema version {old}")), "got: {err}");
        }
        let json = status_to_json(&status).replace("\"state\": \"running\"", "\"state\": \"paused\"");
        assert!(status_from_json(&json).is_err(), "unknown state must be rejected");
    }

    #[test]
    fn write_read_list_are_consistent() {
        let root = std::env::temp_dir().join(format!("minoaner-jobs-ctl-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let a = sample(2, JobState::Running);
        let b = JobStatus { state: JobState::Completed, ..sample(10, JobState::Completed) };
        write_status(&RealFs, &root, &a).expect("write a");
        write_status(&RealFs, &root, &b).expect("write b");
        // Junk the scanner must skip.
        fs::create_dir_all(root.join("job-xyz")).expect("junk dir");
        fs::write(root.join("stray.txt"), b"x").expect("stray file");
        fs::create_dir_all(root.join("job-j0099")).expect("empty job dir");

        let read = read_status(&RealFs, &job_dir(&root, a.id)).expect("read back");
        assert_eq!(read, a);
        let listed = list_statuses(&RealFs, &root).expect("list");
        assert_eq!(listed, vec![a.clone(), b.clone()], "ascending by id, junk skipped");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_status_write_at_every_op_leaks_nothing_and_keeps_the_old_snapshot() {
        let root = std::env::temp_dir().join(format!("minoaner-jobs-chaos-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let old = sample(3, JobState::Running);
        write_status(&RealFs, &root, &old).expect("seed old snapshot");
        let new = JobStatus { state: JobState::Completed, ..old.clone() };

        // Probe run: enumerate the ops one status transition performs.
        let probe = FaultFs::new(FaultPlan::none());
        write_status(&*probe, &root, &new).expect("probe transition");
        let n_ops = probe.op_count();
        assert!(n_ops >= 5, "create_dir + write + sync + rename + sync_dir, got {n_ops}");
        write_status(&RealFs, &root, &old).expect("reset to old snapshot");

        let dir = job_dir(&root, old.id);
        for k in 0..n_ops {
            for kind in FaultKind::ALL {
                let faulty = FaultFs::new(FaultPlan::fail_op(k, kind));
                let result = write_status(&*faulty, &root, &new);
                assert!(result.is_err(), "op {k} fault {kind:?} must surface");
                // No scratch: nothing but status.json (and the CANCEL-free
                // job layout) may remain.
                for entry in fs::read_dir(&dir).expect("scan job dir") {
                    let name = entry.expect("entry").file_name();
                    let name = name.to_string_lossy().into_owned();
                    assert!(
                        !name.starts_with(".tmp-"),
                        "op {k} fault {kind:?} leaked scratch {name}"
                    );
                }
                // A reader still sees a coherent snapshot — old or new,
                // never torn (rename is atomic; the tmp was fsynced).
                let seen = read_status(&RealFs, &dir).expect("snapshot stays readable");
                assert!(seen == old || seen == new, "torn snapshot: {seen:?}");
                // Retry on a healed filesystem lands the transition.
                write_status(&RealFs, &root, &new).expect("retry succeeds");
                write_status(&RealFs, &root, &old).expect("reset for next k");
            }
        }
        let _ = fs::remove_dir_all(&root);
    }

    /// The bytes the loader's hostile-input loops insert
    /// (`kb/tests/lenient_parsing.rs`), and what a status body is made of.
    const NASTY: &[u8] = b"\"<>\\.#@^ \t\r\n\0u\xC3\xA9\xE6\x9D\xF0\x80\xFF{}[]:,-0123456789e";

    #[test]
    fn mutated_status_files_read_as_a_status_or_as_malformed_never_a_panic() {
        use minoaner_det::rng::for_each_seed;
        let root = std::env::temp_dir().join(format!("minoaner-jobs-mutants-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let bodies: Vec<Vec<u8>> = [JobState::Queued, JobState::Running, JobState::Cancelled]
            .into_iter()
            .enumerate()
            .map(|(id, state)| status_to_json(&JobStatus { summary: Some("3 matches".into()), ..sample(id as u64, state) }).into_bytes())
            .collect();
        let dir = job_dir(&root, JobId::from_ordinal(0));
        fs::create_dir_all(&dir).expect("create job dir");
        let (mut read, mut malformed) = (0, 0);
        for_each_seed(3_000, |rng| {
            let mut bytes = bodies[rng.gen_range(0..bodies.len())].clone();
            for _ in 0..1 + rng.gen_range(0..4usize) {
                let at = rng.gen_range(0..bytes.len().max(1)).min(bytes.len().saturating_sub(1));
                let nasty = NASTY[rng.gen_range(0..NASTY.len())];
                match rng.gen_range(0..4usize) {
                    _ if bytes.is_empty() => bytes.push(nasty),
                    0 => bytes[at] ^= 1 << rng.gen_range(0..8usize),
                    1 => bytes.insert(at, nasty),
                    2 => drop(bytes.remove(at)),
                    _ => bytes.truncate(at),
                }
            }
            fs::write(dir.join("status.json"), &bytes).expect("write mutant");
            match read_status(&RealFs, &dir) {
                Ok(_) => read += 1,
                Err(ControlError::Malformed { .. }) => malformed += 1,
                Err(other) => panic!("a readable file is a status or malformed, got {other:?} for {bytes:?}"),
            }
        });
        assert!(read > 100 && malformed > 1_000, "{read} read, {malformed} malformed");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_root_lists_empty() {
        let ghost = std::env::temp_dir().join("minoaner-jobs-ctl-does-not-exist");
        assert!(list_statuses(&RealFs, &ghost).expect("missing root is empty").is_empty());
    }

    #[test]
    fn cancel_markers_round_trip() {
        let root = std::env::temp_dir().join(format!("minoaner-jobs-cxl-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let status = sample(4, JobState::Running);
        write_status(&RealFs, &root, &status).expect("write");
        let dir = job_dir(&root, status.id);
        assert_eq!(cancel_request(&RealFs, &dir), None);
        assert!(request_cancel(&RealFs, &root, status.id, CancelReason::User).expect("request"));
        assert_eq!(cancel_request(&RealFs, &dir), Some(CancelReason::User));
        // Unknown job: nothing written, reported as absent.
        assert!(!request_cancel(&RealFs, &root, JobId::from_ordinal(999), CancelReason::User)
            .expect("unknown job"));
        // A corrupt marker, or one naming a reason that no longer exists,
        // still cancels (degrades to User).
        for marker in ["garbage", "shutdown"] {
            fs::write(dir.join("CANCEL"), marker).expect("odd marker");
            assert_eq!(cancel_request(&RealFs, &dir), Some(CancelReason::User), "{marker}");
        }
        let _ = fs::remove_dir_all(&root);
    }
}
