//! Run observation: a lightweight hook for stage metrics and domain
//! counters.
//!
//! The pipeline layers (blocking, matching) emit named counters — blocks
//! built, comparisons retained, per-rule match counts — through the
//! executor. When no observer is installed the emission path is a single
//! enum-discriminant check on the executor's empty observer slot; no
//! allocation, no locking, no virtual call. Installing an observer
//! (typically a [`TraceCollector`]) turns the same calls into dynamic
//! dispatch on an `Arc<dyn Observer>`.
//!
//! Observers must be `Send + Sync`: counter emissions can come from worker
//! threads inside a running stage.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use minoaner_det::lock;

use crate::metrics::StageMetric;

/// Receives stage completions and domain counters during a run.
///
/// Both methods default to no-ops so observers can implement only what
/// they care about.
pub trait Observer: Send + Sync {
    /// Called once per completed stage, after its barrier, with the metric
    /// as recorded (data-volume annotations applied later by operators are
    /// *not* reflected here — snapshot the [`crate::metrics::StageLog`]
    /// for the annotated view).
    fn on_stage(&self, metric: &StageMetric) {
        let _ = metric;
    }

    /// Called for each named counter emission. Emissions with the same
    /// name are meant to be summed.
    fn on_counter(&self, name: &str, value: u64) {
        let _ = (name, value);
    }
}

/// The executor's observer slot.
///
/// `Off` is the hot-path case: [`ObserverSlot::counter`] and
/// [`ObserverSlot::stage`] cost one discriminant check and return.
#[derive(Default)]
pub(crate) enum ObserverSlot {
    /// No observer installed; emissions are dropped.
    #[default]
    Off,
    /// Emissions are forwarded to the observer.
    On(Arc<dyn Observer>),
}

impl ObserverSlot {
    /// Forwards a completed stage metric, if an observer is installed.
    #[inline]
    pub(crate) fn stage(&self, metric: &StageMetric) {
        if let ObserverSlot::On(observer) = self {
            observer.on_stage(metric);
        }
    }

    /// Forwards a counter emission, if an observer is installed.
    #[inline]
    pub(crate) fn counter(&self, name: &str, value: u64) {
        if let ObserverSlot::On(observer) = self {
            observer.on_counter(name, value);
        }
    }
}

impl fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObserverSlot::Off => f.write_str("ObserverSlot::Off"),
            ObserverSlot::On(_) => f.write_str("ObserverSlot::On(..)"),
        }
    }
}

/// An [`Observer`] that accumulates counters for a [`crate::trace::RunTrace`].
///
/// Counter emissions with the same name are summed; iteration order of the
/// collected map is the counter name's lexicographic order, so serialized
/// reports are deterministic.
#[derive(Debug, Default)]
pub struct TraceCollector {
    counters: Mutex<BTreeMap<String, u64>>,
}

impl TraceCollector {
    /// A fresh collector, ready to install via
    /// [`crate::pool::Executor::set_observer`].
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Snapshot of the accumulated counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        lock(&self.counters).clone()
    }
}

impl Observer for TraceCollector {
    fn on_counter(&self, name: &str, value: u64) {
        *lock(&self.counters).entry(name.to_owned()).or_insert(0) += value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn off_slot_drops_emissions() {
        let slot = ObserverSlot::default();
        assert!(matches!(slot, ObserverSlot::Off));
        slot.counter("x", 1); // must not panic
        slot.stage(&StageMetric::clean("s", Duration::ZERO, 1));
    }

    #[test]
    fn collector_sums_counters_by_name() {
        let collector = TraceCollector::new();
        let slot = ObserverSlot::On(collector.clone());
        slot.counter("blocking/blocks_built", 10);
        slot.counter("blocking/blocks_built", 5);
        slot.counter("matching/r1_matches", 3);
        slot.stage(&StageMetric::clean("s", Duration::ZERO, 2));
        let counters = collector.counters();
        assert_eq!(counters["blocking/blocks_built"], 15);
        assert_eq!(counters["matching/r1_matches"], 3);
        assert_eq!(counters.len(), 2, "a stage completion is no counter");
    }

    #[test]
    fn default_observer_methods_are_noops() {
        struct Silent;
        impl Observer for Silent {}
        let slot = ObserverSlot::On(Arc::new(Silent));
        slot.counter("anything", 7);
        slot.stage(&StageMetric::clean("s", Duration::ZERO, 1));
    }
}
