//! In-memory span recorder for the traced pass (choosing-metrics §4).
//!
//! Spans are recorded from the harness, around the public calls into each
//! layer — nothing inside the crates is instrumented. A span carries its
//! parent and the id of the end-to-end *op* it belongs to; counts taken at
//! the same boundary hang off the span. Everything stays in memory until
//! the run ends, then goes to `out/trace-<workload>.json`.
//!
//! A disabled tracer runs the same closures and records nothing, so the
//! traced and untraced variants of an op are the same code.

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub span_id: u64,
    /// 0 = a root span.
    pub parent_id: u64,
    /// 0 = not part of an end-to-end op (a layer probe).
    pub op_id: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(String, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's recorder. Client threads of the served workload each own
/// one (sharing `epoch`) and are merged with [`Tracer::absorb`].
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans, outermost first.
    open: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// Run `f` as a child span of the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.timed(name, f).0
    }

    /// [`Tracer::span`], also returning the measured duration (taken
    /// whether or not the tracer records).
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Duration) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed());
        }
        let index = self.spans.len();
        self.spans.push(Span {
            span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            parent_id: self.open.last().map_or(0, |&i| self.spans[i].span_id),
            op_id: self.op_id,
            name: name.to_owned(),
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(index);
        let out = f(self);
        let dur = start.elapsed();
        self.open.pop();
        self.spans[index].end_ns = self.spans[index].start_ns + dur.as_nanos() as u64;
        (out, dur)
    }

    /// Run `f` as the root span of end-to-end op `op_id`; every span opened
    /// inside carries the id.
    pub fn op<T>(
        &mut self,
        op_id: u64,
        name: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        let outer = std::mem::replace(&mut self.op_id, op_id);
        let out = self.timed(name, f);
        self.op_id = outer;
        out
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, name: &str, value: f64) {
        if let Some(&i) = self.open.last() {
            self.spans[i].counts.push((name.to_owned(), value));
        }
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    json::obj([
                        ("span_id", json::num(s.span_id as f64)),
                        ("parent_id", json::num(s.parent_id as f64)),
                        ("op_id", json::num(s.op_id as f64)),
                        ("name", json::string(&s.name)),
                        ("start_ns", json::num(s.start_ns as f64)),
                        ("end_ns", json::num(s.end_ns as f64)),
                        (
                            "counts",
                            json::obj(s.counts.iter().map(|(k, v)| (k.clone(), json::num(*v)))),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children of one span never overlap — each thread records its
/// own nesting).
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut own: BTreeMap<u64, u64> = spans.iter().map(|s| (s.span_id, s.dur_ns())).collect();
    for s in spans.iter().filter(|s| s.parent_id != 0) {
        if let Some(parent) = own.get_mut(&s.parent_id) {
            *parent = parent.saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Share of the wall time of the root spans named `op_name` that no child
/// span covers.
pub fn unaccounted_frac(spans: &[Span], op_name: &str) -> f64 {
    let own = self_times_ns(spans);
    let (mut uncovered, mut total) = (0u64, 0u64);
    for s in spans
        .iter()
        .filter(|s| s.parent_id == 0 && s.name == op_name)
    {
        uncovered += own[&s.span_id];
        total += s.dur_ns();
    }
    if total == 0 {
        0.0
    } else {
        uncovered as f64 / total as f64
    }
}

/// Per span name: count, total and self time — the layer table the traced
/// pass prints.
pub fn layer_table(spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let row = rows.entry(&s.name).or_default();
        row.0 += 1;
        row.1 += s.dur_ns();
        row.2 += own[&s.span_id];
    }
    let mut out = format!(
        "{:<28} {:>7} {:>12} {:>12} {:>12}\n",
        "span", "n", "total_ms", "mean_ms", "self_ms"
    );
    for (name, (n, total, own)) in rows {
        out.push_str(&format!(
            "{name:<28} {n:>7} {:>12.3} {:>12.4} {:>12.3}\n",
            total as f64 / 1e6,
            total as f64 / 1e6 / n as f64,
            own as f64 / 1e6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span_id: u64, parent_id: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            span_id,
            parent_id,
            op_id: 1,
            name: name.to_owned(),
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(1, 0, "op", 0, 100),
            span(2, 1, "step", 10, 60),
            span(3, 2, "kernel", 20, 50),
            span(4, 1, "dump", 60, 90),
            span(5, 0, "op", 100, 200),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[&1], 100 - 50 - 30);
        assert_eq!(own[&2], 50 - 30);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&5], 100);
        // (20 + 100) uncovered of (100 + 100).
        assert_eq!(unaccounted_frac(&spans, "op"), 0.6);
        assert_eq!(unaccounted_frac(&spans, "absent"), 0.0);
    }

    #[test]
    fn tracer_nests_and_tags_ops() {
        let mut tr = Tracer::new(true, Instant::now());
        tr.op(7, "op", |tr| {
            tr.span("inner", |tr| tr.count("events", 3.0));
        });
        tr.span("probe", |_| ());
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].name.as_str(), s[0].parent_id, s[0].op_id),
            ("op", 0, 7)
        );
        assert_eq!((s[1].parent_id, s[1].op_id), (s[0].span_id, 7));
        assert_eq!(s[1].counts, vec![("events".to_owned(), 3.0)]);
        assert_eq!((s[2].parent_id, s[2].op_id), (0, 0));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].start_ns >= s[0].start_ns);

        let mut off = Tracer::new(false, Instant::now());
        let (v, _) = off.timed("x", |_| 5);
        assert_eq!((v, off.spans().len()), (5, 0));
    }
}
