//! The file-based control plane: how `minoaner jobs list|status|cancel`
//! observe and steer a scheduler running in another process.
//!
//! Layout under a control root:
//!
//! ```text
//! <root>/job-<id>/status.json   # atomic snapshot, rewritten on every transition
//! <root>/job-<id>/CANCEL        # marker dropped by `jobs cancel`, polled by the scheduler
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

use crate::job::{JobId, JobState, JobStatus, Priority};

/// Version stamped into every status file; readers reject other versions
/// instead of guessing.
pub const STATUS_SCHEMA_VERSION: u64 = 1;

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
/// creating the directory if needed.
pub fn write_status(root: &Path, status: &JobStatus) -> io::Result<()> {
    write_status_with(&*vfs::default_vfs(), root, status)
}

/// [`write_status`] through an explicit [`Vfs`] — the chaos harness's
/// injection point.
///
/// Follows the workspace's atomic-commit protocol ([`vfs::commit_file`]):
/// the snapshot is written to a `.tmp-` sibling, fsynced, renamed over
/// `status.json`, and the directory is fsynced so the rename survives a
/// crash. On any failure the temporary is removed best-effort, so a failed
/// transition never leaks scratch into the job directory (`list_statuses` would skip it
/// anyway — recovery scanners ignore `.tmp-` names — but the leak-scan in
/// the chaos sweep holds every durable path to the stronger contract).
pub fn write_status_with(vfs: &dyn Vfs, root: &Path, status: &JobStatus) -> io::Result<()> {
    let dir = job_dir(root, status.id);
    vfs.create_dir_all(&dir)?;
    vfs::commit_file(vfs, &dir.join("status.json"), status_to_json(status).as_bytes())
        .map_err(|(_, e)| e)
}

/// Reads the status snapshot from a job directory.
pub fn read_status(dir: &Path) -> Result<JobStatus, ControlError> {
    read_status_with(&*vfs::default_vfs(), dir)
}

/// [`read_status`] through an explicit [`Vfs`].
pub fn read_status_with(vfs: &dyn Vfs, dir: &Path) -> Result<JobStatus, ControlError> {
    let path = dir.join("status.json");
    let json = vfs.read_to_string(&path)?;
    status_from_json(&json).map_err(|detail| ControlError::Malformed { path, detail })
}

/// All job statuses under a control root, ascending by id. A missing root
/// is an empty listing; entries that are not job directories (or whose
/// status file is torn mid-create) are skipped rather than failing the
/// whole listing.
pub fn list_statuses(root: &Path) -> io::Result<Vec<JobStatus>> {
    list_statuses_with(&*vfs::default_vfs(), root)
}

/// [`list_statuses`] through an explicit [`Vfs`].
pub fn list_statuses_with(vfs: &dyn Vfs, root: &Path) -> io::Result<Vec<JobStatus>> {
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
        if let Ok(status) = read_status_with(vfs, &path) {
            if status.id == id {
                statuses.push(status);
            }
        }
    }
    statuses.sort_by_key(|s| s.id);
    Ok(statuses)
}

/// Drops a `CANCEL` marker into the job's directory for the owning
/// scheduler to pick up on its next
/// [`poll_control`](crate::JobScheduler::poll_control). Returns `false`
/// (writing nothing) when the job directory does not exist.
pub fn request_cancel(root: &Path, id: JobId, reason: CancelReason) -> io::Result<bool> {
    request_cancel_with(&*vfs::default_vfs(), root, id, reason)
}

/// [`request_cancel`] through an explicit [`Vfs`]. The marker is advisory
/// (re-droppable at will), so it is a plain write with no fsync.
pub fn request_cancel_with(
    vfs: &dyn Vfs,
    root: &Path,
    id: JobId,
    reason: CancelReason,
) -> io::Result<bool> {
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
pub fn cancel_request(dir: &Path) -> Option<CancelReason> {
    cancel_request_with(&*vfs::default_vfs(), dir)
}

/// [`cancel_request`] through an explicit [`Vfs`].
pub fn cancel_request_with(vfs: &dyn Vfs, dir: &Path) -> Option<CancelReason> {
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
        ("priority", Json::str(status.priority.as_str())),
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
    let priority_name = get_str("priority")?;
    let priority = Priority::parse(priority_name)
        .ok_or_else(|| format!("unknown priority {priority_name:?}"))?;
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
        priority,
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

    use minoaner_dataflow::vfs::{FaultFs, FaultKind, FaultPlan};

    fn sample(id: u64, state: JobState) -> JobStatus {
        JobStatus {
            id: JobId::from_ordinal(id),
            name: "dbpedia \"full\" run\nwith newline \\ backslash".to_owned(),
            priority: Priority::High,
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
        let json = status_to_json(&status).replace("\"schema_version\": 1", "\"schema_version\": 9");
        let err = status_from_json(&json).expect_err("version drift");
        assert!(err.contains("schema version 9"), "got: {err}");
        let json = status_to_json(&status).replace("\"state\": \"running\"", "\"state\": \"paused\"");
        assert!(status_from_json(&json).is_err(), "unknown state must be rejected");
    }

    #[test]
    fn write_read_list_are_consistent() {
        let root = std::env::temp_dir().join(format!("minoaner-jobs-ctl-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let a = sample(2, JobState::Running);
        let b = JobStatus { state: JobState::Completed, ..sample(10, JobState::Completed) };
        write_status(&root, &a).expect("write a");
        write_status(&root, &b).expect("write b");
        // Junk the scanner must skip.
        fs::create_dir_all(root.join("job-xyz")).expect("junk dir");
        fs::write(root.join("stray.txt"), b"x").expect("stray file");
        fs::create_dir_all(root.join("job-j0099")).expect("empty job dir");

        let read = read_status(&job_dir(&root, a.id)).expect("read back");
        assert_eq!(read, a);
        let listed = list_statuses(&root).expect("list");
        assert_eq!(listed, vec![a.clone(), b.clone()], "ascending by id, junk skipped");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_status_write_at_every_op_leaks_nothing_and_keeps_the_old_snapshot() {
        let root = std::env::temp_dir().join(format!("minoaner-jobs-chaos-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let old = sample(3, JobState::Running);
        write_status(&root, &old).expect("seed old snapshot");
        let new = JobStatus { state: JobState::Completed, ..old.clone() };

        // Probe run: enumerate the ops one status transition performs.
        let probe = FaultFs::new(FaultPlan::none());
        write_status_with(&*probe, &root, &new).expect("probe transition");
        let n_ops = probe.op_count();
        assert!(n_ops >= 5, "create_dir + write + sync + rename + sync_dir, got {n_ops}");
        write_status(&root, &old).expect("reset to old snapshot");

        let dir = job_dir(&root, old.id);
        for k in 0..n_ops {
            for kind in FaultKind::ALL {
                let faulty = FaultFs::new(FaultPlan::fail_op(k, kind));
                let result = write_status_with(&*faulty, &root, &new);
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
                let seen = read_status(&dir).expect("snapshot stays readable");
                assert!(seen == old || seen == new, "torn snapshot: {seen:?}");
                // Retry on a healed filesystem lands the transition.
                write_status(&root, &new).expect("retry succeeds");
                write_status(&root, &old).expect("reset for next k");
            }
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_root_lists_empty() {
        let ghost = std::env::temp_dir().join("minoaner-jobs-ctl-does-not-exist");
        assert!(list_statuses(&ghost).expect("missing root is empty").is_empty());
    }

    #[test]
    fn cancel_markers_round_trip() {
        let root = std::env::temp_dir().join(format!("minoaner-jobs-cxl-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let status = sample(4, JobState::Running);
        write_status(&root, &status).expect("write");
        let dir = job_dir(&root, status.id);
        assert_eq!(cancel_request(&dir), None);
        assert!(request_cancel(&root, status.id, CancelReason::User).expect("request"));
        assert_eq!(cancel_request(&dir), Some(CancelReason::User));
        // Unknown job: nothing written, reported as absent.
        assert!(!request_cancel(&root, JobId::from_ordinal(999), CancelReason::User)
            .expect("unknown job"));
        // A corrupt marker still cancels (degrades to User).
        fs::write(dir.join("CANCEL"), b"garbage").expect("corrupt marker");
        assert_eq!(cancel_request(&dir), Some(CancelReason::User));
        let _ = fs::remove_dir_all(&root);
    }
}
