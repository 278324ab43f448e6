//! Per-stage execution metrics.
//!
//! The MinoanER evaluation (§6.2, Figure 6) reports both end-to-end running
//! time and the share of time spent in the matching phase. Every dataflow
//! stage records its wall-clock duration here so the evaluation harness can
//! break a pipeline run down by stage without external profiling.
//!
//! The observability layer extends each record with data-volume facts
//! ([`StageIo`]): items in/out, bytes moved through shuffles, and the
//! largest partition (the skew signal). Operators annotate these after the
//! stage barrier via [`crate::pool::Executor::annotate_last_stage`], since
//! output sizes are only known once every task has finished.

use std::time::Duration;

/// Data-volume facts about one stage, filled in after its barrier.
///
/// All fields default to zero; a stage nobody annotates reports zeros.
/// The writers are the `annotate_last_stage` calls in
/// `blocking/src/{token,graph}.rs` and `core/src/pipeline.rs`; the γ
/// exchange's `graph/gamma/transpose` is the one stage with
/// `shuffle_bytes` and `max_partition_items`. Annotations *accumulate*
/// ([`StageIo::absorb`]): a second call for one stage adds to the first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageIo {
    /// Elements entering the stage across all partitions.
    pub items_in: u64,
    /// Elements produced by the stage across all partitions.
    pub items_out: u64,
    /// Bytes moved between partitions (shuffle write + read volume),
    /// estimated as `moved records × size_of::<record>()`.
    pub shuffle_bytes: u64,
    /// Size of the largest input partition — divided by the mean partition
    /// size this is the stage's skew factor (cf. the straggler discussion
    /// around the paper's Figure 6 speedups).
    pub max_partition_items: u64,
}

impl StageIo {
    /// Item counts for a stage that neither shuffles nor skews oddly.
    pub fn items(items_in: u64, items_out: u64) -> Self {
        Self { items_in, items_out, ..Self::default() }
    }

    /// Folds another annotation into this one. Counts add; the partition
    /// maximum takes the larger observation.
    pub fn absorb(&mut self, other: StageIo) {
        self.items_in += other.items_in;
        self.items_out += other.items_out;
        self.shuffle_bytes += other.shuffle_bytes;
        self.max_partition_items = self.max_partition_items.max(other.max_partition_items);
    }

    /// Peak-to-mean input partition ratio over `tasks` partitions
    /// (1.0 = perfectly balanced; 0.0 when the stage saw no input).
    pub fn skew(&self, tasks: usize) -> f64 {
        if self.items_in == 0 || tasks == 0 {
            return 0.0;
        }
        let mean = self.items_in as f64 / tasks as f64;
        self.max_partition_items as f64 / mean
    }
}

/// One executed stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageMetric {
    /// Stage name, e.g. `"token-blocking"` or `"rule-r3"`.
    pub name: String,
    /// Wall-clock duration of the stage (including its barrier).
    pub wall: Duration,
    /// Number of parallel tasks the stage was split into.
    pub tasks: usize,
    /// Tasks that ran. Equals `tasks` for a completed stage; smaller only
    /// for a stage that failed or was cancelled. Each task runs once — the
    /// name is kept because trace schema v1 carries it.
    pub attempts: usize,
    /// Always 0: the engine does not retry tasks. Kept for trace schema v1.
    pub retries: usize,
    /// Always 0: the engine never drops a partition. Kept for trace
    /// schema v1.
    pub skipped: usize,
    /// Data-volume annotations (items in/out, shuffle bytes, peak
    /// partition size). Zeroed for stages that were never annotated.
    pub io: StageIo,
}

impl StageMetric {
    /// The record of a stage whose `tasks` tasks all ran.
    pub fn clean(name: &str, wall: Duration, tasks: usize) -> Self {
        Self {
            name: name.to_owned(),
            wall,
            tasks,
            attempts: tasks,
            retries: 0,
            skipped: 0,
            io: StageIo::default(),
        }
    }
}

/// An ordered record of executed stages.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StageLog {
    stages: Vec<StageMetric>,
}

impl StageLog {
    /// Appends a stage record.
    pub fn push(&mut self, metric: StageMetric) {
        self.stages.push(metric);
    }

    /// All recorded stages in execution order.
    pub fn stages(&self) -> &[StageMetric] {
        &self.stages
    }

    /// Iterates over the recorded stages in execution order, without
    /// cloning the stage vector.
    pub fn iter(&self) -> std::slice::Iter<'_, StageMetric> {
        self.stages.iter()
    }

    /// The most recent record for the stage named `name`, if any.
    pub fn find(&self, name: &str) -> Option<&StageMetric> {
        self.stages.iter().rev().find(|s| s.name == name)
    }

    /// Merges `io` into the most recent record for the stage named `name`.
    /// Returns `false` (and does nothing) if no such stage was recorded.
    pub fn annotate_last(&mut self, name: &str, io: StageIo) -> bool {
        match self.stages.iter_mut().rev().find(|s| s.name == name) {
            Some(metric) => {
                metric.io.absorb(io);
                true
            }
            None => false,
        }
    }

    /// Total wall-clock time across stages.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|s| s.wall).sum()
    }

    /// Sum of [`StageMetric::retries`] across stages — always 0; kept for
    /// the repository benchmark's `dataflow.retries` metric.
    pub fn total_retries(&self) -> usize {
        self.stages.iter().map(|s| s.retries).sum()
    }

    /// Total bytes moved through shuffles across stages.
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.io.shuffle_bytes).sum()
    }
}

impl<'a> IntoIterator for &'a StageLog {
    type Item = &'a StageMetric;
    type IntoIter = std::slice::Iter<'a, StageMetric>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_accumulates_and_totals() {
        let mut log = StageLog::default();
        log.push(StageMetric::clean("a", Duration::from_millis(10), 4));
        log.push(StageMetric::clean("b", Duration::from_millis(5), 2));
        assert_eq!(log.stages().len(), 2);
        assert_eq!(log.iter().count(), 2);
        assert_eq!(log.total(), Duration::from_millis(15));
        assert_eq!(log.total_retries(), 0);
        assert_eq!(log.find("b").map(|s| s.tasks), Some(2));
        assert!(log.find("absent").is_none());
    }

    #[test]
    fn annotations_accumulate_on_the_latest_record() {
        let mut log = StageLog::default();
        log.push(StageMetric::clean("s", Duration::from_millis(1), 2));
        log.push(StageMetric::clean("s", Duration::from_millis(1), 2));
        assert!(log.annotate_last("s", StageIo::items(10, 8)));
        assert!(log.annotate_last(
            "s",
            StageIo { shuffle_bytes: 64, max_partition_items: 6, ..StageIo::default() }
        ));
        let latest = log.find("s").unwrap();
        assert_eq!(latest.io, StageIo { items_in: 10, items_out: 8, shuffle_bytes: 64, max_partition_items: 6 });
        // The earlier record with the same name is untouched.
        assert_eq!(log.stages()[0].io, StageIo::default());
        assert!(!log.annotate_last("absent", StageIo::items(1, 1)));
        assert_eq!(log.total_shuffle_bytes(), 64);
    }

    #[test]
    fn skew_is_peak_over_mean() {
        let io = StageIo { items_in: 100, max_partition_items: 50, ..StageIo::default() };
        assert!((io.skew(4) - 2.0).abs() < 1e-9);
        assert_eq!(StageIo::default().skew(4), 0.0);
    }
}
