//! Golden-tally fixtures: tiny flat-JSON snapshots of census tallies and
//! counters, locked bitwise via an FNV-1a hash over the merged tally's
//! `f64` bit patterns.
//!
//! Fixtures are generated with the **replicated** tally strategy — the
//! deterministic canonical path — so a snapshot taken at any worker count
//! matches a run at any other worker count bit for bit (see
//! `neutral_mesh::accum` and `DESIGN.md` §11). Regenerate with
//!
//! ```sh
//! NEUTRAL_BLESS=1 cargo test -p neutral-integration --test golden_tallies
//! ```
//!
//! The environment has no serde, so the format is a hand-rolled flat JSON
//! object (string and integer values only; `f64`s are stored as hex bit
//! patterns, which is what "bitwise regression lock" means in practice).

use neutral_core::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Everything a golden fixture records about one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenTally {
    /// Flat key → value map; values are stored stringly but written with
    /// JSON types (numbers unquoted, strings quoted).
    pub fields: BTreeMap<String, String>,
}

/// FNV-1a 64-bit over a byte stream — the tally fingerprint.
#[must_use]
pub fn fnv1a64(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Hash a merged tally mesh: every cell's `f64` bit pattern, in cell
/// order. Bitwise-equal meshes — and only those — collide.
#[must_use]
pub fn tally_hash(tally: &[f64]) -> u64 {
    fnv1a64(tally.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// The tally dump as it was written before the library formatted floats
/// itself: `std`'s `{:e}`, line by line.
#[must_use]
pub fn reference_dump(tally: &[f64], nx: usize) -> Vec<u8> {
    use std::io::Write;
    let mut out = Vec::new();
    for (i, &v) in tally.iter().enumerate() {
        if v != 0.0 {
            writeln!(out, "{} {} {v:e}", i % nx, i / nx).expect("writing to a Vec");
        }
    }
    out
}

/// A fixture's run must also dump to the bytes the reference writer
/// gives: the served and `--dump-tally` formats are pinned with the bits.
pub fn assert_dump_matches_reference(name: &str, report: &RunReport) {
    let nx = report.tally.len().isqrt();
    let mut dump = Vec::new();
    neutral_core::dump::write_tally_dump(&report.tally, nx, &mut dump).expect("writing to a Vec");
    assert!(!dump.is_empty(), "{name}: empty dump");
    assert!(
        dump == reference_dump(&report.tally, nx),
        "{name}: tally dump differs from the `{{:e}}` reference"
    );
}

impl GoldenTally {
    /// Capture a run report into fixture fields.
    #[must_use]
    pub fn capture(config: &str, driver: &str, seed: u64, report: &RunReport) -> Self {
        let c = &report.counters;
        let mut f = BTreeMap::new();
        let mut put = |k: &str, v: String| {
            f.insert(k.to_owned(), v);
        };
        put("config", format!("\"{config}\""));
        put("driver", format!("\"{driver}\""));
        put("strategy", "\"replicated\"".to_owned());
        put("seed", seed.to_string());
        put("collisions", c.collisions.to_string());
        put("facets", c.facets.to_string());
        put("census", c.census.to_string());
        put("absorptions", c.absorptions.to_string());
        put("scatters", c.scatters.to_string());
        put("reflections", c.reflections.to_string());
        put("deaths", c.deaths.to_string());
        put("stuck", c.stuck.to_string());
        put("tally_flushes", c.tally_flushes.to_string());
        put("cs_lookups", c.cs_lookups.to_string());
        put("material_switches", c.material_switches.to_string());
        put("alive", report.alive.to_string());
        put(
            "lost_energy_bits",
            format!("\"{:#018x}\"", c.lost_energy_ev.to_bits()),
        );
        put(
            "census_energy_bits",
            format!("\"{:#018x}\"", c.census_energy_ev.to_bits()),
        );
        put("tally_cells", report.tally.len().to_string());
        put(
            "tally_nonzero",
            report
                .tally
                .iter()
                .filter(|&&v| v != 0.0)
                .count()
                .to_string(),
        );
        put(
            "tally_total_ev",
            format!("\"{:.6e}\"", report.tally_total()),
        );
        put(
            "tally_total_bits",
            format!("\"{:#018x}\"", report.tally_total().to_bits()),
        );
        put(
            "tally_hash",
            format!("\"{:#018x}\"", tally_hash(&report.tally)),
        );
        Self { fields: f }
    }

    /// Serialise as pretty flat JSON (sorted keys, one per line).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut first = true;
        for (k, v) in &self.fields {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("  \"{k}\": {v}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// Parse the flat JSON produced by [`Self::to_json`] (forgiving about
    /// whitespace, intolerant of nesting — fixtures are flat by design).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or("fixture is not a JSON object")?;
        let mut fields = BTreeMap::new();
        for part in split_top_level(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (k, v) = part
                .split_once(':')
                .ok_or_else(|| format!("bad fixture entry `{part}`"))?;
            let key = k
                .trim()
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| format!("bad fixture key `{k}`"))?;
            fields.insert(key.to_owned(), v.trim().to_owned());
        }
        Ok(Self { fields })
    }

    /// A field's raw value with any string quotes stripped.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(|v| v.trim_matches('"'))
    }

    /// A `0x...` bit-pattern field decoded to `u64`.
    #[must_use]
    pub fn get_bits(&self, key: &str) -> Option<u64> {
        let raw = self.get(key)?.strip_prefix("0x")?;
        u64::from_str_radix(raw, 16).ok()
    }
}

/// Split `a: 1, b: "x,y"` on commas outside quotes.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth_quote = false;
    let mut start = 0;
    for (i, ch) in s.char_indices() {
        match ch {
            '"' => depth_quote = !depth_quote,
            ',' if !depth_quote => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// Directory of the committed fixtures (`tests/golden/`).
#[must_use]
pub fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Whether the suite should regenerate fixtures instead of comparing.
#[must_use]
pub fn blessing() -> bool {
    std::env::var("NEUTRAL_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vector() {
        // FNV-1a("a") from the reference implementation.
        assert_eq!(fnv1a64("a".bytes()), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn json_round_trip() {
        let mut fields = BTreeMap::new();
        fields.insert("config".to_owned(), "\"csp\"".to_owned());
        fields.insert("collisions".to_owned(), "42".to_owned());
        fields.insert("tally_hash".to_owned(), "\"0x00000000deadbeef\"".to_owned());
        let g = GoldenTally { fields };
        let back = GoldenTally::from_json(&g.to_json()).unwrap();
        assert_eq!(g, back);
        assert_eq!(back.get("config"), Some("csp"));
        assert_eq!(back.get_bits("tally_hash"), Some(0xdead_beef));
    }

    #[test]
    fn hash_is_bit_sensitive() {
        let a = vec![1.0, 2.0, 0.0];
        let mut b = a.clone();
        assert_eq!(tally_hash(&a), tally_hash(&b));
        b[2] = -0.0; // same value, different bits
        assert_ne!(tally_hash(&a), tally_hash(&b));
    }
}
