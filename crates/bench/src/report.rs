//! Machine-readable benchmark reports.
//!
//! Every `fig*` sweep prints human-aligned tables; this module adds the
//! machine half: a [`BenchReport`] collects one [`BenchRecord`] per
//! measured configuration and serialises to a stable, diffable JSON file
//! (hand-rolled — the environment has no serde), so perf results can be
//! committed (`bench/history/BENCH_PR4.json`) instead of living only in
//! terminal scrollback.
//!
//! Usage from a figure binary:
//!
//! ```no_run
//! use neutral_bench::report::{BenchRecord, BenchReport};
//! let mut report = BenchReport::new("fig08_vectorization");
//! report.push(
//!     BenchRecord::new("oe/csp")
//!         .config("case", "csp")
//!         .metric("events_per_s", 1.0e7),
//! );
//! report.write("/tmp/fig08.json").unwrap();
//! ```
//!
//! Pass `--json PATH` to a figure binary (via [`crate::HarnessArgs`] or
//! the binary's own flag handling) to emit the report alongside the
//! printed tables.

use std::collections::BTreeMap;
use std::io::Write;

/// One measured configuration: a stable label, the configuration
/// key/values that produced it, and the measured metrics.
#[derive(Clone, Debug, Default)]
pub struct BenchRecord {
    /// Stable identifier, unique within the report (e.g. `oe/csp/by_cell`).
    pub label: String,
    /// Configuration key → value (driver, case, policy, threads, ...).
    pub config: BTreeMap<String, String>,
    /// Metric name → value (elapsed seconds, events/s, fractions, ...).
    pub metrics: BTreeMap<String, f64>,
}

impl BenchRecord {
    /// Start a record with its label.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            ..Self::default()
        }
    }

    /// Add a configuration key (builder style).
    #[must_use]
    pub fn config(mut self, key: &str, value: impl Into<String>) -> Self {
        self.config.insert(key.to_owned(), value.into());
        self
    }

    /// Add a metric (builder style).
    #[must_use]
    pub fn metric(mut self, key: &str, value: f64) -> Self {
        self.metrics.insert(key.to_owned(), value);
        self
    }
}

/// A figure's worth of records plus provenance.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Which sweep produced this report.
    pub figure: String,
    /// Free-form provenance notes (host, scale, methodology).
    pub notes: Vec<String>,
    /// The measurements.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// Start an empty report for `figure`, stamped with the host's
    /// logical CPU count.
    #[must_use]
    pub fn new(figure: impl Into<String>) -> Self {
        Self {
            figure: figure.into(),
            notes: vec![format!("host_threads={}", crate::host_threads())],
            records: Vec::new(),
        }
    }

    /// Append a provenance note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Append a record.
    pub fn push(&mut self, record: BenchRecord) {
        self.records.push(record);
    }

    /// Serialise to pretty JSON. `f64` metrics print through Rust's
    /// shortest-roundtrip formatting, so re-parsing recovers the exact
    /// measured values; strings are escaped for quotes and backslashes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"figure\": {},\n", json_str(&self.figure)));
        out.push_str("  \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(n));
        }
        out.push_str("],\n  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"label\": {},\n", json_str(&r.label)));
            out.push_str("      \"config\": {");
            for (j, (k, v)) in r.config.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_str(k), json_str(v)));
            }
            out.push_str("},\n      \"metrics\": {");
            for (j, (k, v)) in r.metrics.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_str(k), json_num(*v)));
            }
            out.push_str("}\n");
            out.push_str(if i + 1 == self.records.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Write the JSON report to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(self.to_json().as_bytes())
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare `f64` Display never prints exponents without a dot/int
        // part issue for JSON, but ensure integral values stay valid
        // JSON numbers (they are) and NaN/inf never leak.
        s
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_shape() {
        let mut rep = BenchReport::new("fig_test");
        rep.note("scale=tiny");
        rep.push(
            BenchRecord::new("a/b")
                .config("case", "csp")
                .metric("events_per_s", 1.25e7)
                .metric("elapsed_s", 0.5),
        );
        let json = rep.to_json();
        assert!(json.contains("\"figure\": \"fig_test\""));
        assert!(json.contains("\"label\": \"a/b\""));
        assert!(json.contains("\"events_per_s\": 12500000"));
        assert!(json.contains("\"elapsed_s\": 0.5"));
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
