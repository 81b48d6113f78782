//! The metric catalogue: every name the benchmark reports, with its unit.
//!
//! `BENCHMARK.json` lists the same names (a unit test keeps the two in
//! step); later issues state claims as "`metric` on `workload`" using them.

use crate::json::{self, Value};
use crate::stats::Summary;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "scaling_eff",
        unit: "ratio",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "cached_wall_ms",
        unit: "ms",
        better: "lower",
        bound: 0.20,
    },
];

/// The seventh end-to-end metric. It is 0 on a healthy tree, which the
/// benchmark contract's `end_to_end` list cannot hold (a metric there is
/// never 0), so it travels as the contract's `failed`/`attempted` pair and
/// in the harness's own output; any rise is a regression.
pub const FAILED_FRAC: &str = "failed_frac";

/// Per-layer metrics (traced pass), `(name, unit)`; the layer is the part
/// of the name before the first dot.
pub const PER_LAYER: [(&str, &str); 73] = [
    ("xs.build_ms", "ms"),
    ("xs.lookup_hinted_ns", "ns"),
    ("xs.lookup_many_ns", "ns"),
    ("xs.search_steps_per_lookup", "steps/lookup"),
    ("rng.draw_ns", "ns"),
    ("mesh.accum_new_ms", "ms"),
    ("mesh.merge_ms", "ms"),
    ("mesh.deposit_ns", "ns"),
    ("mesh.footprint_mb", "MB"),
    ("mesh.merge_1000_ms", "ms"),
    ("sim.new_ms", "ms"),
    ("sim.spawn_ms", "ms"),
    ("sim.step_ms", "ms"),
    ("sim.step_1w_ms", "ms"),
    ("sim.finish_ms", "ms"),
    ("sim.steps", "count"),
    ("over_particles.ns_per_event", "ns/event"),
    ("over_events.init_ms", "ms"),
    ("over_events.decide_ms", "ms"),
    ("over_events.collision_ms", "ms"),
    ("over_events.facet_ms", "ms"),
    ("over_events.tally_ms", "ms"),
    ("over_events.census_ms", "ms"),
    ("over_events.rounds", "count"),
    ("over_events.unaccounted_ms", "ms"),
    ("counters.total_events", "count"),
    ("counters.collisions", "count"),
    ("counters.facets", "count"),
    ("counters.census", "count"),
    ("counters.tally_flushes", "count"),
    ("counters.cs_lookups", "count"),
    ("counters.density_reads", "count"),
    ("checkpoint.snapshot_ms", "ms"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.decode_ms", "ms"),
    ("checkpoint.resume_ms", "ms"),
    ("checkpoint.saves", "count"),
    ("shard.step_ms", "ms"),
    ("shard.fused_step_ms", "ms"),
    ("shard.overhead_frac", "ratio"),
    ("shard.attempts", "count"),
    ("shard.retries", "count"),
    ("shard.spill_bytes", "B"),
    ("shard.finish_ms", "ms"),
    ("registry.submit_cold_ms", "ms"),
    ("registry.submit_hit_ms", "ms"),
    ("registry.solve_ms", "ms"),
    ("registry.hit_ratio", "ratio"),
    ("registry.coalesced", "count"),
    ("registry.cache_hits", "count"),
    ("registry.chunks_run", "count"),
    ("registry.failed", "count"),
    ("registry.tally_dump_ms", "ms"),
    ("registry.tally_dump_mb_per_s", "MB/s"),
    ("params.parse_build_ms", "ms"),
    ("serve_http.post_cold_ms", "ms"),
    ("serve_http.post_hit_ms", "ms"),
    ("serve_http.status_us", "us"),
    ("serve_http.tallies_ms", "ms"),
    ("serve_http.tallies_bytes", "B"),
    ("minihttp.healthz_rtt_us", "us"),
    ("minihttp.tallies_rtt_ms", "ms"),
    ("serve.submit_rtt_ms", "ms"),
    ("serve.poll_wait_ms", "ms"),
    ("serve.fetch_rtt_ms", "ms"),
    ("serve.polls_per_op", "polls/op"),
    ("serve.wall_p95_s", "s"),
    ("serve.cached_p95_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
];

/// Layer metrics that are counts made by the program (or sizes that follow
/// from them): two runs of one tree must agree on them exactly.
pub fn repeats_exactly(name: &str) -> bool {
    name.starts_with("counters.")
        || matches!(
            name,
            "shard.attempts"
                | "shard.retries"
                | "registry.coalesced"
                | "registry.cache_hits"
                | "registry.chunks_run"
                | "registry.failed"
                | "registry.hit_ratio"
                | "sim.steps"
                | "checkpoint.saves"
                | "checkpoint.bytes"
                | "xs.search_steps_per_lookup"
        )
}

/// `(name, unit)` of every metric the harness reports.
fn catalogue() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER)
        .chain([(FAILED_FRAC, "ratio")])
}

/// The catalogue's own `&'static` name and the unit of metric `name`.
/// Panics on a name the catalogue (and so `BENCHMARK.json`) does not list.
fn entry(name: &str) -> (&'static str, &'static str) {
    catalogue()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}

/// One reported value with the spread of the samples behind it (`n = 1`
/// for a count or a ratio).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: Summary,
}

/// Which block reading an end-to-end timing reports.
#[derive(Clone, Copy, Debug)]
pub enum Pick {
    /// The best one (lowest time, highest rate). For a handful of blocks
    /// of identical work — the ops of a transport workload.
    Best,
    /// The quartile on the good side (first for a time, third for a rate).
    /// For many blocks of similar but not identical work — the served
    /// requests — where the single best block is partly luck.
    Quartile,
}

impl Pick {
    pub fn of(self, readings: &[f64], lower_is_better: bool) -> f64 {
        let s = Summary::of(readings);
        match (self, lower_is_better) {
            (Pick::Best, true) => readings.iter().copied().fold(f64::INFINITY, f64::min),
            (Pick::Best, false) => readings.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            (Pick::Quartile, true) => s.q1,
            (Pick::Quartile, false) => s.q3,
        }
    }
}

/// Ordered collection of a run's metrics.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// The median of `samples` (layer timings).
    pub fn samples(&mut self, name: &str, samples: &[f64]) {
        let samples = Summary::of(samples);
        self.0.push(Metric {
            name: entry(name).0,
            value: samples.median,
            samples,
        });
    }

    /// An end-to-end timing read block by block. `blocks` are runs of
    /// samples taken back to back (one op; the few set-up samples before an
    /// op; five rounds of served requests), `reading` turns a block into one
    /// number, and `pick` says which block reading is the metric — towards
    /// the good end, by the metric's direction. This host slows by a third
    /// or more for seconds at a time (a shared VM), which only ever adds
    /// time: a block from a quiet stretch is what the code does undisturbed,
    /// and it repeats run to run where the median over all samples does
    /// not. The median and quartiles over all samples are reported beside
    /// the value.
    pub fn blocks(
        &mut self,
        name: &str,
        blocks: &[Vec<f64>],
        reading: fn(&[f64]) -> f64,
        pick: Pick,
    ) {
        let m = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("`{name}` is not an end-to-end metric"));
        let filled = blocks.iter().filter(|b| !b.is_empty());
        let readings: Vec<f64> = filled.map(|b| reading(b)).collect();
        let all: Vec<f64> = blocks.iter().flatten().copied().collect();
        self.0.push(Metric {
            name: m.name,
            value: pick.of(&readings, m.better == "lower"),
            samples: Summary::of(&all),
        });
    }

    /// A count or a ratio.
    pub fn value(&mut self, name: &str, value: f64) {
        self.0.push(Metric {
            name: entry(name).0,
            value,
            samples: Summary::single(value),
        });
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        let found = self.0.iter().find(|m| m.name == name);
        found.map_or(f64::NAN, |m| m.value)
    }

    /// `workload metric value unit n=… median=… q1=… q3=…` lines.
    pub fn print(&self, workload: &str) {
        for m in &self.0 {
            let s = &m.samples;
            println!(
                "{workload} {} {} {} n={} median={} q1={} q3={}",
                m.name,
                m.value,
                entry(m.name).1,
                s.n,
                s.median,
                s.q1,
                s.q3
            );
        }
    }

    /// `{"name": {"value", "unit", "n", "median", "q1", "q3"}}`.
    pub fn to_json(&self) -> Value {
        json::obj(self.0.iter().map(|m| {
            let s = &m.samples;
            (
                m.name,
                json::obj([
                    ("value", json::num(m.value)),
                    ("unit", json::string(entry(m.name).1)),
                    ("n", json::num(s.n as f64)),
                    ("median", json::num(s.median)),
                    ("q1", json::num(s.q1)),
                    ("q3", json::num(s.q3)),
                ]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::median;
    use std::collections::HashSet;

    /// `BENCHMARK.json` and the catalogue name the same metrics with the
    /// same units, directions and bounds.
    #[test]
    fn manifest_matches_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| match manifest.get(key) {
            Some(Value::Arr(rows)) => rows.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |row: &Value, k: &str| row.get(k).and_then(Value::as_str).unwrap().to_owned();

        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(row, "name"), m.name);
            assert_eq!(text(row, "unit"), m.unit);
            assert_eq!(text(row, "better"), m.better);
            assert_eq!(row.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                (text(row, "name"), text(row, "unit")),
                (m.0.to_owned(), m.1.to_owned())
            );
        }
        let workloads: Vec<String> = rows("workloads").iter().map(|w| text(w, "name")).collect();
        let ours: Vec<&str> = crate::spec::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn blocks_follow_the_metric_direction() {
        let mut m = Metrics::default();
        // Block medians 2, 5, 3.5: the lowest wins for a time …
        let blocks = vec![vec![1.0, 2.0, 9.0], vec![5.0], vec![], vec![3.0, 4.0]];
        m.blocks("wall_s", &blocks, median, Pick::Best);
        assert_eq!(m.get("wall_s"), 2.0);
        // … the highest for a rate; the spread is over all samples.
        m.blocks("events_per_s", &blocks, median, Pick::Best);
        assert_eq!(m.get("events_per_s"), 5.0);
        assert_eq!((m.0[0].samples.n, m.0[0].samples.median), (6, 3.5));
        // Quartiles of the readings 2, 3.5, 5, on the good side.
        assert_eq!(Pick::Quartile.of(&[2.0, 3.5, 5.0], true), 2.75);
        assert_eq!(Pick::Quartile.of(&[2.0, 3.5, 5.0], false), 4.25);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert_eq!(names.iter().collect::<HashSet<_>>().len(), names.len());
        for (name, unit) in PER_LAYER {
            assert!(name.len() <= 64 && name.contains('.'), "{name}");
            assert!(unit.len() <= 16, "{unit}");
        }
    }
}
