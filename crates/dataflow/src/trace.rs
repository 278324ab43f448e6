//! Versioned run reports: the serializable view of one pipeline run.
//!
//! A [`RunTrace`] bundles everything the evaluation protocol of the paper's
//! §6.2 needs — per-stage wall times (Figure 5's stacked stage bars), the
//! matching phase's share, worker/partition counts (the Figure 6 speedup
//! axis), fault counters, and the domain counters emitted by blocking and
//! matching (block/comparison cardinalities in the spirit of Table 6).
//!
//! The JSON layout is versioned via [`TRACE_SCHEMA_VERSION`]; consumers
//! must check it ([`RunTrace::validate`] does) before interpreting fields.

use std::collections::BTreeMap;
use std::time::Duration;

use minoaner_det::json::Json;

use crate::metrics::{StageIo, StageLog, StageMetric};

/// Version of the JSON report layout produced by [`RunTrace::to_json`].
///
/// Bump on any breaking change to field names or semantics.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// A complete, serializable record of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Report layout version; equals [`TRACE_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Worker threads the executor ran with.
    pub workers: usize,
    /// Partitions per collection (tasks per stage).
    pub partitions: usize,
    /// End-to-end wall time of the run, barriers included.
    pub total_wall: Duration,
    /// Every executed stage in order, with wall time, task counts, fault
    /// counters, and data-volume annotations.
    pub stages: Vec<StageMetric>,
    /// Domain counters emitted during the run (summed per name), e.g.
    /// `blocking/token_blocks_built` or `matching/r1_matches`.
    pub counters: BTreeMap<String, u64>,
}

impl RunTrace {
    /// Assembles a trace from a finished run: the executor's stage log
    /// snapshot plus the counters a
    /// [`crate::observer::TraceCollector`] accumulated.
    pub fn capture(
        workers: usize,
        partitions: usize,
        total_wall: Duration,
        stages: &StageLog,
        counters: BTreeMap<String, u64>,
    ) -> Self {
        Self {
            schema_version: TRACE_SCHEMA_VERSION,
            workers,
            partitions,
            total_wall,
            stages: stages.iter().cloned().collect(),
            counters,
        }
    }

    /// The trace as pretty-printed JSON, schema v1: the fields in
    /// declaration order, a `Duration` as `{"secs", "nanos"}`, every number
    /// an unsigned integer.
    pub fn to_json(&self) -> String {
        let stages = self.stages.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name.as_str())),
                ("wall", duration_json(s.wall)),
                ("tasks", Json::num(s.tasks)),
                ("attempts", Json::num(s.attempts)),
                ("retries", Json::num(s.retries)),
                ("skipped", Json::num(s.skipped)),
                (
                    "io",
                    Json::obj([
                        ("items_in", Json::Num(s.io.items_in.into())),
                        ("items_out", Json::Num(s.io.items_out.into())),
                        ("shuffle_bytes", Json::Num(s.io.shuffle_bytes.into())),
                        ("max_partition_items", Json::Num(s.io.max_partition_items.into())),
                    ]),
                ),
            ])
        });
        let counters = self.counters.iter().map(|(name, &value)| (name.clone(), Json::Num(value.into())));
        let doc: Json = Json::obj([
            ("schema_version", Json::Num(self.schema_version.into())),
            ("workers", Json::num(self.workers)),
            ("partitions", Json::num(self.partitions)),
            ("total_wall", duration_json(self.total_wall)),
            ("stages", Json::Arr(stages.collect())),
            ("counters", Json::Obj(counters.collect())),
        ]);
        doc.render()
    }

    /// Parses a trace previously produced by [`Self::to_json`]. A stage
    /// without an `io` object reads as unannotated.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let doc = Json::parse(json)?;
        let stages = field(&doc, "stages")?.as_arr().ok_or("`stages` is not an array")?;
        let stages = stages.iter().map(|s| {
            let io = match s.get("io") {
                None => StageIo::default(),
                Some(io) => StageIo {
                    items_in: uint(io, "items_in")?,
                    items_out: uint(io, "items_out")?,
                    shuffle_bytes: uint(io, "shuffle_bytes")?,
                    max_partition_items: uint(io, "max_partition_items")?,
                },
            };
            Ok(StageMetric {
                name: field(s, "name")?.as_str().ok_or("a stage `name` is not a string")?.to_owned(),
                wall: duration(s, "wall")?,
                tasks: uint(s, "tasks")?,
                attempts: uint(s, "attempts")?,
                retries: uint(s, "retries")?,
                skipped: uint(s, "skipped")?,
                io,
            })
        });
        let Json::Obj(counters) = field(&doc, "counters")? else {
            return Err("`counters` is not an object".to_owned());
        };
        let counters = counters.iter().map(|(name, value)| {
            let value = value.as_u64().ok_or_else(|| format!("counter {name:?} is not an unsigned integer"))?;
            Ok((name.clone(), value))
        });
        Ok(Self {
            schema_version: uint(&doc, "schema_version")?,
            workers: uint(&doc, "workers")?,
            partitions: uint(&doc, "partitions")?,
            total_wall: duration(&doc, "total_wall")?,
            stages: stages.collect::<Result<_, String>>()?,
            counters: counters.collect::<Result<_, String>>()?,
        })
    }

    /// The value of a counter, or 0 if it was never emitted.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Structural sanity check used by report consumers (the bench harness
    /// and CI validate every written `BENCH_pipeline.json` through this).
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != TRACE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported trace schema version {} (expected {TRACE_SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.workers == 0 {
            return Err("trace reports zero workers".into());
        }
        if self.partitions == 0 {
            return Err("trace reports zero partitions".into());
        }
        if self.stages.is_empty() {
            return Err("trace records no stages".into());
        }
        for stage in &self.stages {
            if stage.name.is_empty() {
                return Err("trace contains an unnamed stage".into());
            }
            if stage.attempts < stage.tasks.saturating_sub(stage.skipped) {
                return Err(format!(
                    "stage '{}' reports fewer attempts ({}) than completed tasks ({})",
                    stage.name,
                    stage.attempts,
                    stage.tasks.saturating_sub(stage.skipped)
                ));
            }
        }
        Ok(())
    }
}

fn duration_json(d: Duration) -> Json {
    Json::obj([("secs", Json::Num(d.as_secs().into())), ("nanos", Json::Num(d.subsec_nanos().into()))])
}

fn field<'a>(of: &'a Json, key: &str) -> Result<&'a Json, String> {
    of.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

/// The unsigned integer under `key`, in whichever width the field has.
fn uint<T: TryFrom<u64>>(of: &Json, key: &str) -> Result<T, String> {
    field(of, key)?
        .as_u64()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("field `{key}` is not an unsigned integer in range"))
}

fn duration(of: &Json, key: &str) -> Result<Duration, String> {
    let d = field(of, key)?;
    let nanos: u32 = uint(d, "nanos")?;
    if nanos >= 1_000_000_000 {
        return Err(format!("`{key}.nanos` is a second or more"));
    }
    Ok(Duration::new(uint(d, "secs")?, nanos))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunTrace {
        let mut log = StageLog::default();
        log.push(StageMetric::clean("blocking/tokens", Duration::from_micros(1500), 4));
        log.push(StageMetric::clean("matching/r1", Duration::from_micros(700), 4));
        log.annotate_last(
            "blocking/tokens",
            StageIo { items_in: 100, items_out: 80, shuffle_bytes: 640, max_partition_items: 30 },
        );
        let mut counters = BTreeMap::new();
        counters.insert("matching/r1_matches".to_owned(), 12);
        RunTrace::capture(4, 12, Duration::from_micros(3000), &log, counters)
    }

    #[test]
    fn json_round_trip_is_exact() {
        let trace = sample();
        let json = trace.to_json();
        let back = RunTrace::from_json(&json).unwrap();
        assert_eq!(trace, back);
        assert_eq!(back.to_json(), json, "and the text reproduces byte for byte");
        assert_eq!(back.counter("matching/r1_matches"), 12);
        assert_eq!(back.counter("never_emitted"), 0);
        assert_eq!(back.stages[0].io.shuffle_bytes, 640);
    }

    #[test]
    fn validate_accepts_sane_traces_and_rejects_bad_versions() {
        let mut trace = sample();
        trace.validate().unwrap();
        trace.schema_version = 99;
        assert!(trace.validate().unwrap_err().contains("schema version"));
    }

    #[test]
    fn validate_rejects_degenerate_shapes() {
        let mut trace = sample();
        trace.stages.clear();
        assert!(trace.validate().is_err());
        let mut trace = sample();
        trace.workers = 0;
        assert!(trace.validate().is_err());
        let mut trace = sample();
        trace.stages[0].attempts = 0;
        assert!(trace.validate().is_err());
    }
}
