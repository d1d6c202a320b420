//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into a
//! layer (cluster build, submit, run, collect, the checkers, each layer
//! replay). They stay in memory and are written as one Chrome-trace file
//! (`chrome://tracing`, Perfetto) when the run ends. With tracing off every
//! call here is a branch on a bool, which is what the end-to-end run pays.

use std::path::Path;
use std::time::Instant;

use crate::json::Value;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// The layer the call goes into (the Chrome-trace category).
    layer: &'static str,
    start_us: f64,
    dur_us: f64,
    /// The span open when this one began.
    parent: Option<usize>,
    /// The round the span belongs to: spans of one round share it.
    round: u32,
}

/// Handle returned by [`Tracer::begin`]; give it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The recorder. Disabled, it records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Spans begun from now on belong to `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Opens a span around a call into `layer`.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_us: self.now_us(),
            dur_us: 0.0,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Runs `call` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        call: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, layer);
        let result = call();
        self.end(span);
        result
    }

    /// Microseconds since the recorder was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Records a closed span with an explicit placement, as a child of the
    /// span currently open (for sums of calls too many to record one by one).
    pub fn record(&mut self, name: &'static str, layer: &'static str, start_us: f64, dur_us: f64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                layer,
                start_us,
                dur_us,
                parent: self.open.last().copied(),
                round: self.round,
            });
        }
    }

    /// Closes a span. Spans close in the reverse order they opened.
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let now_us = self.now_us();
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].dur_us = now_us - self.spans[index].start_us;
    }

    /// Durations (µs) of every closed span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.dur_us)
            .collect()
    }

    /// The same, of the spans inside measured rounds only (round ≥ 1): the
    /// warm-up and verification rounds are a tenth the size or less.
    pub fn measured_durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name && span.round > 0)
            .map(|span| span.dur_us)
            .collect()
    }

    /// A span's self time: its duration minus what its direct children cover.
    fn self_us(&self, index: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|span| span.parent == Some(index))
            .map(|span| span.dur_us)
            .sum();
        self.spans[index].dur_us - children
    }

    /// The Chrome-trace document: one complete (`"ph": "X"`) event per span.
    pub fn chrome_trace(&self, workload: &str) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                Value::obj([
                    ("name", Value::from(span.name)),
                    ("cat", Value::from(span.layer)),
                    ("ph", Value::from("X")),
                    ("ts", Value::from(span.start_us)),
                    ("dur", Value::from(span.dur_us)),
                    ("pid", Value::from(1u64)),
                    ("tid", Value::from(1u64)),
                    (
                        "args",
                        Value::obj([
                            ("id", Value::from(index as u64)),
                            (
                                "parent",
                                span.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                            ),
                            ("round", Value::from(u64::from(span.round))),
                            ("self_us", Value::from(self.self_us(index))),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("displayTimeUnit", Value::from("ms")),
            (
                "otherData",
                Value::obj([("workload", Value::from(workload))]),
            ),
            ("traceEvents", Value::Arr(events)),
        ])
    }

    /// Writes the Chrome trace to `path`, creating its directory.
    pub fn write(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_trace(workload).to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.begin("harness.build", "harness");
        tracer.end(id);
        assert!(tracer.durations_us("harness.build").is_empty());
    }

    #[test]
    fn nested_spans_carry_parent_round_and_self_time() {
        let mut tracer = Tracer::new(true);
        tracer.set_round(3);
        let outer = tracer.begin("round", "benchmark");
        let inner = tracer.begin("harness.build", "harness");
        tracer.end(inner);
        tracer.end(outer);
        let doc = tracer.chrome_trace("w");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("events");
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(args.get("round").and_then(Value::as_f64), Some(3.0));
        let outer_dur = events[0].get("dur").and_then(Value::as_f64).expect("dur");
        let inner_dur = events[1].get("dur").and_then(Value::as_f64).expect("dur");
        let outer_self = events[0]
            .get("args")
            .and_then(|a| a.get("self_us"))
            .and_then(Value::as_f64)
            .expect("self");
        assert!((outer_self - (outer_dur - inner_dur)).abs() < 1e-6);
        assert_eq!(Value::parse(&doc.to_string()), Ok(doc));
    }
}
