//! The correctness gate: result checksums and the committed reference.
//!
//! A solve's checksum is FNV-1a (the hash the checkpoint format and the
//! golden fixtures already use) over the tally's `f64` bits followed by
//! every `EventCounters` field. Equal checksums across repetitions, worker
//! counts, sharded/resumed/fused execution and — for the default seed —
//! `reference.json` is what `failed` counts against.

use crate::json::{self, Value};
use neutral_core::checkpoint::fnv1a64;
use neutral_core::prelude::*;

pub fn bytes_checksum(bytes: &[u8]) -> u64 {
    fnv1a64(bytes.iter().copied())
}

pub fn result_checksum(tally: &[f64], c: &EventCounters) -> u64 {
    // The two energy counters are compared as `EventCounters`' own `==`
    // compares them, -0.0 equal to 0.0: on a population with no survivor
    // (`scatter`) the fused solve reports `census_energy_ev = -0.0` (an
    // empty `f64` sum) and the sharded coordinator's fold `0.0`. The tally
    // stays strictly bitwise.
    let unsigned_zero = |v: f64| (v + 0.0).to_bits();
    let counts = [
        c.collisions,
        c.facets,
        c.census,
        c.absorptions,
        c.scatters,
        c.reflections,
        c.deaths,
        c.stuck,
        c.tally_flushes,
        c.cs_search_steps,
        c.clustered_flushes,
        c.cs_lookups,
        c.batched_lookups,
        c.density_reads,
        c.material_switches,
        unsigned_zero(c.lost_energy_ev),
        unsigned_zero(c.census_energy_ev),
    ];
    fnv1a64(
        tally
            .iter()
            .map(|v| v.to_bits())
            .chain(counts)
            .flat_map(u64::to_le_bytes),
    )
}

pub fn report_checksum(report: &RunReport) -> u64 {
    result_checksum(&report.tally, &report.counters)
}

/// Tally of failed checks against checks attempted, with the first few
/// failure descriptions kept for the report.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Gate {
    /// Record one check; a failed one keeps `what` (built lazily).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
        ok
    }

    pub fn expect_eq(&mut self, got: u64, want: u64, what: &str) -> bool {
        self.check(got == want, || {
            format!("{what}: checksum {got:016x}, expected {want:016x}")
        })
    }
}

/// The committed per-workload checksums of the default seed, keyed by size
/// mode (`full` / `quick`).
pub struct Reference(Value);

impl Reference {
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self(value))
    }

    pub fn seed(&self) -> Option<u64> {
        self.0.get("seed")?.as_f64().map(|s| s as u64)
    }

    pub fn checksum(&self, mode: &str, workload: &str) -> Option<u64> {
        json::parse_hex(self.0.get(mode)?.get(workload)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_sees_every_bit() {
        let tally = vec![0.0, 1.5, -0.0, 3.25e-7];
        let counters = EventCounters {
            collisions: 3,
            facets: 7,
            ..EventCounters::default()
        };
        let base = result_checksum(&tally, &counters);
        assert_eq!(base, result_checksum(&tally.clone(), &counters));

        // One flipped mantissa bit, a sign-of-zero flip, one counter tick.
        let mut flipped = tally.clone();
        flipped[1] = f64::from_bits(flipped[1].to_bits() ^ 1);
        assert_ne!(base, result_checksum(&flipped, &counters));
        let mut zero = tally.clone();
        zero[2] = 0.0;
        assert_ne!(base, result_checksum(&zero, &counters));
        let ticked = EventCounters {
            census: 1,
            ..counters
        };
        assert_ne!(base, result_checksum(&tally, &ticked));

        // An energy counter's zero has no sign; a tally cell's does.
        let negative = EventCounters {
            census_energy_ev: -0.0,
            ..counters
        };
        assert_eq!(base, result_checksum(&tally, &negative));

        // The empty input is the FNV offset basis hashed over the counters
        // only — pin the plain-bytes helper against the published vector.
        assert_eq!(bytes_checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(bytes_checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn gate_counts_and_keeps_notes() {
        let mut gate = Gate::default();
        assert!(gate.expect_eq(1, 1, "same"));
        assert!(!gate.expect_eq(1, 2, "differs"));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        assert!(gate.notes[0].contains("differs"), "{:?}", gate.notes);
    }
}
