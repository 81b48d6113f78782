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
//!     BenchRecord::new("oe/csp/off")
//!         .config("case", "csp")
//!         .config("sort", "off")
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

    /// Parse a report previously produced by [`BenchReport::to_json`]
    /// (the perf-regression harness reads committed baselines back with
    /// this). A small hand-rolled JSON reader — the environment has no
    /// serde — tolerant of whitespace, intolerant of schema drift:
    /// unknown top-level keys are an error so a malformed baseline fails
    /// loudly instead of comparing against nothing.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let root = json::parse(text)?;
        let obj = root.as_obj("report")?;
        let mut figure = None;
        let mut notes = Vec::new();
        let mut records = Vec::new();
        for (key, value) in obj {
            match key.as_str() {
                "figure" => figure = Some(value.as_str("figure")?.to_owned()),
                "notes" => {
                    for v in value.as_arr("notes")? {
                        notes.push(v.as_str("note")?.to_owned());
                    }
                }
                "records" => {
                    for v in value.as_arr("records")? {
                        let mut record = BenchRecord::default();
                        for (k, rv) in v.as_obj("record")? {
                            match k.as_str() {
                                "label" => record.label = rv.as_str("label")?.to_owned(),
                                "config" => {
                                    for (ck, cv) in rv.as_obj("config")? {
                                        record.config.insert(
                                            ck.clone(),
                                            cv.as_str("config value")?.to_owned(),
                                        );
                                    }
                                }
                                "metrics" => {
                                    for (mk, mv) in rv.as_obj("metrics")? {
                                        record.metrics.insert(mk.clone(), mv.as_num("metric")?);
                                    }
                                }
                                other => return Err(format!("unknown record key `{other}`")),
                            }
                        }
                        records.push(record);
                    }
                }
                other => return Err(format!("unknown report key `{other}`")),
            }
        }
        Ok(BenchReport {
            figure: figure.ok_or("report missing `figure`")?,
            notes,
            records,
        })
    }
}

/// Minimal JSON value reader backing [`BenchReport::parse`].
mod json {
    /// A parsed JSON value (only the shapes the report format uses).
    pub enum Value {
        /// String.
        Str(String),
        /// Number (always read as `f64`).
        Num(f64),
        /// `null` (written for non-finite metrics).
        Null,
        /// Array.
        Arr(Vec<Value>),
        /// Object, insertion-ordered.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_str(&self, what: &str) -> Result<&str, String> {
            match self {
                Value::Str(s) => Ok(s),
                _ => Err(format!("{what}: expected a string")),
            }
        }

        pub fn as_num(&self, what: &str) -> Result<f64, String> {
            match self {
                Value::Num(v) => Ok(*v),
                Value::Null => Ok(f64::NAN),
                _ => Err(format!("{what}: expected a number")),
            }
        }

        pub fn as_arr(&self, what: &str) -> Result<&[Value], String> {
            match self {
                Value::Arr(v) => Ok(v),
                _ => Err(format!("{what}: expected an array")),
            }
        }

        pub fn as_obj(&self, what: &str) -> Result<&[(String, Value)], String> {
            match self {
                Value::Obj(v) => Ok(v),
                _ => Err(format!("{what}: expected an object")),
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
        skip_ws(b, pos);
        if b.get(*pos) == Some(&ch) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {pos}", ch as char))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b'{') => {
                *pos += 1;
                let mut out = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(out));
                }
                loop {
                    skip_ws(b, pos);
                    let key = string(b, pos)?;
                    expect(b, pos, b':')?;
                    out.push((key, value(b, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(out));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut out = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(out));
                }
                loop {
                    out.push(value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(out));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                    }
                }
            }
            Some(b'n') if b[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                std::str::from_utf8(&b[start..*pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&ch) = b.get(*pos) {
            *pos += 1;
            match ch {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = b
                                .get(*pos..*pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            *pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Re-attach multi-byte UTF-8 sequences whole.
                    let start = *pos - 1;
                    let mut end = *pos;
                    while end < b.len() && b[end] & 0xc0 == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&b[start..end]).map_err(|_| "bad UTF-8 in string")?,
                    );
                    *pos = end;
                }
            }
        }
        Err("unterminated string".to_owned())
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

    #[test]
    fn report_parses_its_own_output_exactly() {
        let mut rep = BenchReport::new("fig_test");
        rep.note("scale=tiny, host \"quoted\" + back\\slash");
        rep.push(
            BenchRecord::new("oe/csp/off")
                .config("case", "csp")
                .config("sort", "off")
                .metric("events_per_s", 1.234567890123e7)
                .metric("elapsed_s", 0.125)
                .metric("bad", f64::NAN),
        );
        rep.push(BenchRecord::new("empty"));
        let back = BenchReport::parse(&rep.to_json()).expect("round trip");
        assert_eq!(back.figure, rep.figure);
        assert_eq!(back.notes, rep.notes);
        assert_eq!(back.records.len(), 2);
        let r = &back.records[0];
        assert_eq!(r.label, "oe/csp/off");
        assert_eq!(r.config, rep.records[0].config);
        // Finite metrics round-trip bit-exactly (shortest-roundtrip
        // formatting); non-finite ones come back as NaN.
        assert_eq!(
            r.metrics["events_per_s"].to_bits(),
            rep.records[0].metrics["events_per_s"].to_bits()
        );
        assert_eq!(r.metrics["elapsed_s"], 0.125);
        assert!(r.metrics["bad"].is_nan());
    }

    #[test]
    fn report_parse_rejects_garbage() {
        assert!(BenchReport::parse("").is_err());
        assert!(BenchReport::parse("{\"figure\": \"x\"} trailing").is_err());
        assert!(BenchReport::parse("{\"figure\": \"x\", \"bogus\": 1}").is_err());
        assert!(
            BenchReport::parse("{\"notes\": []}").is_err(),
            "figure required"
        );
    }
}
