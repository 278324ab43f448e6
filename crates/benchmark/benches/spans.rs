//! Spans recorded by the benchmark's own code around each call into a
//! layer: name, start, end, and the span that was open when it began.
//! They are kept in memory and written out once, after the clock stops.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span. Times are seconds since the tracer's
/// origin, which is the child's first instruction of interest.
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span called `name`, nested under whichever span
    /// is open on this tracer.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied() });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// (`"ph":"X"`) event per span, microsecond timestamps. The layer is
    /// the part of the span name before the first dot; `run` is the
    /// identifier all spans of one child share. `extra` is appended as
    /// further top-level members (the stage log and counters the program
    /// returned), which trace viewers ignore.
    pub fn chrome_json(&self, run: &str, extra: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{parent},\"run\":\"{run}\"}}}}",
                if id == 0 { "" } else { ",\n" },
                s.name,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
            );
        }
        let _ = write!(out, "\n],\"displayTimeUnit\":\"ms\"{extra}}}\n");
        out
    }
}
