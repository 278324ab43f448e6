//! Runs the benchmark binary in `--smoke` mode (scale 0.2, 2 reps) and
//! checks what it prints against the contract in the root
//! `BENCHMARK.json`: the workloads and metric names are exactly the ones
//! listed there, with their units, inside the schema's limits; every time
//! is finite and non-negative; the three child spans add up to the wall;
//! a seed reproduces its digest and another seed changes it.
//!
//! The JSON reader below is hand-written because the offline stub
//! `serde_json` cannot parse (`from_str` always errors).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser { bytes: text.as_bytes(), at: 0 };
        let value = p.value();
        p.space();
        assert_eq!(p.at, p.bytes.len(), "trailing characters after JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(map) => map,
            other => panic!("{other:?} is not an object"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(token.as_bytes());
        if hit {
            self.at += token.len();
        }
        hit
    }

    fn value(&mut self) -> Json {
        self.space();
        if self.eat("null") {
            Json::Null
        } else if self.eat("true") {
            Json::Bool(true)
        } else if self.eat("false") {
            Json::Bool(false)
        } else if self.eat("\"") {
            Json::Str(self.string())
        } else if self.eat("[") {
            let mut items = Vec::new();
            self.space();
            if !self.eat("]") {
                loop {
                    items.push(self.value());
                    self.space();
                    if self.eat("]") {
                        break;
                    }
                    assert!(self.eat(","), "expected , or ] at byte {}", self.at);
                }
            }
            Json::Arr(items)
        } else if self.eat("{") {
            let mut map = BTreeMap::new();
            self.space();
            if !self.eat("}") {
                loop {
                    self.space();
                    assert!(self.eat("\""), "expected a key at byte {}", self.at);
                    let key = self.string();
                    self.space();
                    assert!(self.eat(":"), "expected : at byte {}", self.at);
                    assert!(map.insert(key, self.value()).is_none(), "duplicate key");
                    self.space();
                    if self.eat("}") {
                        break;
                    }
                    assert!(self.eat(","), "expected , or }} at byte {}", self.at);
                }
            }
            Json::Obj(map)
        } else {
            let start = self.at;
            while self.at < self.bytes.len() && b"+-.eE0123456789".contains(&self.bytes[self.at]) {
                self.at += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
            Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?} at byte {start}")))
        }
    }

    /// The rest of a string whose opening quote is consumed. The files
    /// read here use no escapes beyond `\"` and `\\`.
    fn string(&mut self) -> String {
        let mut out = Vec::new();
        loop {
            match self.bytes[self.at] {
                b'"' => break,
                b'\\' => {
                    self.at += 1;
                    out.push(self.bytes[self.at]);
                }
                b => out.push(b),
            }
            self.at += 1;
        }
        self.at += 1;
        String::from_utf8(out).unwrap()
    }
}

fn contract() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
}

struct Run {
    result: Json,
    samples: Json,
}

fn smoke(workload: &str, seed: u64, trace: bool) -> Run {
    let scratch: PathBuf =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{seed}-{}", u8::from(trace)));
    let output = Command::new(env!("CARGO_BIN_EXE_minoaner-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke", "--scratch"])
        .arg(&scratch)
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload} failed: {stderr}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = Json::parse(lines.pop().expect("a result line"));
    let samples = lines.iter().find_map(|l| l.strip_prefix("samples ")).expect("a samples line");
    if trace {
        assert!(scratch.join(format!("trace-{workload}.json")).exists(), "no Chrome trace written");
    }
    Run { result, samples: Json::parse(samples) }
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Checks one result line against one metric list of the contract.
fn check_metrics(run: &Run, listed: &[Json], workload: &str) {
    let keys: Vec<&str> = run.result.obj().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(run.result.get("correct"), &Json::Bool(true), "{workload}");
    assert_eq!(run.result.get("failed").num(), 0.0, "{workload}");
    assert!(run.result.get("attempted").num() >= 1.0);

    let emitted = run.result.get("metrics").obj();
    let expected: BTreeMap<&str, &str> =
        listed.iter().map(|m| (m.get("name").str(), m.get("unit").str())).collect();
    assert_eq!(
        emitted.keys().map(String::as_str).collect::<Vec<_>>(),
        expected.keys().copied().collect::<Vec<_>>(),
        "{workload}: emitted metric names differ from BENCHMARK.json"
    );
    for (name, metric) in emitted {
        assert!(is_name(name), "{name}");
        assert_eq!(metric.obj().len(), 2, "{name}: exactly value and unit");
        assert_eq!(metric.get("unit").str(), expected[name.as_str()], "{name}: unit");
        let value = metric.get("value").num();
        assert!(value.is_finite(), "{workload} {name} = {value}");
        if name.ends_with("_s") {
            assert!(value >= 0.0, "{workload} {name} = {value}");
        }
    }
}

#[test]
fn smoke_run_emits_exactly_the_contract() {
    let contract = contract();
    let workloads = contract.get("workloads").arr();
    let end_to_end = contract.get("end_to_end").arr();
    let per_layer = contract.get("per_layer").arr();
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!(end_to_end.iter().any(|m| m.get("name").str() == "setup_s" && m.get("unit").str() == "s"));
    for m in end_to_end {
        assert!((0.0..=0.25).contains(&m.get("bound").num()));
    }

    for workload in workloads {
        let name = workload.get("name").str();
        assert!(is_name(name));
        assert!(workload.get("why").str().len() <= 200, "{name}: why is too long");

        let untraced = smoke(name, 0, false);
        check_metrics(&untraced, end_to_end, name);
        for (metric, value) in untraced.result.get("metrics").obj() {
            assert!(value.get("value").num() > 0.0, "{name}: end-to-end {metric} must never be 0");
        }
        // The three child spans account for the wall of every rep.
        let samples =
            |key: &str| -> Vec<f64> { untraced.samples.get(key).arr().iter().map(Json::num).collect() };
        let (load, resolve, write, wall) =
            (samples("load_s"), samples("resolve_s"), samples("write_tsv_s"), samples("e2e_wall_s"));
        assert_eq!(wall.len(), 2, "--smoke makes 2 timed reps");
        for i in 0..wall.len() {
            let sum = load[i] + resolve[i] + write[i];
            assert!((sum - wall[i]).abs() <= 0.02 * wall[i], "{name} rep {i}: {sum} vs {}", wall[i]);
        }

        let traced = smoke(name, 0, true);
        check_metrics(&traced, per_layer, name);
        let value = |metric: &str| traced.result.get("metrics").get(metric).get("value").num();
        // Spill traffic only where a budget forces it.
        assert_eq!(value("dataflow.spill_bytes_written") > 0.0, name.contains("spill"), "{name}");
        // The spans inside the traced resolve reproduce it.
        let parts = [
            "kb.stats_s",
            "blocking.token_blocks_s",
            "blocking.purge_s",
            "blocking.name_blocks_s",
            "blocking.graph_s",
            "core.match_s",
            "core.glue_s",
        ];
        let sum: f64 = parts.iter().map(|p| value(p)).sum();
        assert!((sum - value("core.traced_resolve_s")).abs() < 1e-6, "{name}: {sum}");
        assert_eq!(traced.samples.get("graph_digest"), untraced.samples.get("graph_digest"), "{name}");
    }
}

#[test]
fn a_seed_reproduces_its_digest_and_another_changes_it() {
    let digest = |seed: u64| smoke("yago_mkb_wn", seed, false).samples.get("graph_digest").str().to_owned();
    let first = digest(7);
    assert_eq!(first, digest(7), "the same seed must reproduce the digest");
    assert_ne!(first, digest(8), "a different seed must change the digest");
}
