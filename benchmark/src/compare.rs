//! `compare A.json B.json`: two runs of one tree must agree.
//!
//! For every (workload, metric): end-to-end metrics may differ by at most
//! their bound (in the worsening direction *or* the other — the same code
//! ran twice, so either sign is noise), exact-count layer metrics must be
//! identical, and the remaining layer timings are printed for the record.
//! `repeat.sh` runs this over both passes' result files.

use crate::json::{self, Value};
use crate::metrics::{repeats_exactly, END_TO_END, FAILED_FRAC};
use std::path::Path;
use std::process::ExitCode;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workloads(doc: &Value) -> &[Value] {
    match doc.get("workloads") {
        Some(Value::Arr(items)) => items,
        _ => &[],
    }
}

/// Relative difference of `b` against `a` (0 when both are 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
    }
}

/// Six significant digits, in plain or exponent form by magnitude.
fn six_digits(v: f64) -> String {
    if v != 0.0 && !(1e-3..1e7).contains(&v.abs()) {
        format!("{v:.5e}")
    } else {
        let whole = v.abs().max(1.0).log10().floor() as usize + 1;
        format!("{v:.*}", 6usize.saturating_sub(whole))
    }
}

/// The verdict on one metric pair: `Ok(note)` or `Err(why)`.
pub fn judge(name: &str, a: f64, b: f64) -> Result<String, String> {
    let diff = rel_diff(a, b);
    if name == FAILED_FRAC {
        return if a == 0.0 && b == 0.0 {
            Ok("exact".to_owned())
        } else {
            Err("failures were counted".to_owned())
        };
    }
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        let worse = (b > a) == (m.better == "lower");
        let side = if worse { "worse" } else { "better" };
        return if diff <= m.bound {
            Ok(format!("{side}, {:.0}% of bound", 100.0 * diff / m.bound))
        } else {
            Err(format!(
                "differs by {:.1}%, bound {:.0}%",
                100.0 * diff,
                100.0 * m.bound
            ))
        };
    }
    if repeats_exactly(name) {
        return if a == b {
            Ok("exact".to_owned())
        } else {
            Err("an exact count differs".to_owned())
        };
    }
    Ok("unbounded".to_owned())
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if [&a, &b]
        .iter()
        .any(|d| d.get("quick").and_then(Value::as_bool) != Some(false))
    {
        eprintln!("error: quick runs are never compared");
        return ExitCode::FAILURE;
    }
    let mut misses = 0;
    println!(
        "{:<16} {:<30} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "first", "second", "diff"
    );
    for wa in workloads(&a) {
        let name = wa.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workloads(&b)
            .iter()
            .find(|w| w.get("workload").and_then(Value::as_str) == Some(name))
        else {
            println!("{name:<16} missing from the second run");
            misses += 1;
            continue;
        };
        let metrics_a = wa.get("metrics").map_or(&[][..], Value::fields);
        for (metric, ma) in metrics_a {
            let value = |m: &Value| m.get("value").and_then(Value::as_f64);
            let (Some(va), Some(vb)) = (
                value(ma),
                wb.get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(value),
            ) else {
                println!("{name:<16} {metric:<30} missing from the second run");
                misses += 1;
                continue;
            };
            let verdict = judge(metric, va, vb);
            misses += usize::from(verdict.is_err());
            let verdict = verdict.unwrap_or_else(|e| format!("MISS: {e}"));
            println!(
                "{name:<16} {metric:<30} {:>14} {:>14} {:>8.2}%  {verdict}",
                six_digits(va),
                six_digits(vb),
                100.0 * rel_diff(va, vb)
            );
        }
    }
    if misses == 0 {
        println!("repeat: every metric within its bound, every exact count identical");
        ExitCode::SUCCESS
    } else {
        println!("repeat: {misses} metric(s) outside their bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_and_exact_counts() {
        for m in &END_TO_END {
            // Either sign of a difference inside the bound passes.
            assert!(
                judge(m.name, 1.0, 1.0 + 0.9 * m.bound).is_ok(),
                "{}",
                m.name
            );
            assert!(
                judge(m.name, 1.0, 1.0 - 0.9 * m.bound).is_ok(),
                "{}",
                m.name
            );
            assert!(
                judge(m.name, 1.0, 1.0 + 1.1 * m.bound).is_err(),
                "{}",
                m.name
            );
        }
        assert!(judge("counters.facets", 5.0, 5.0).is_ok());
        assert!(judge("counters.facets", 5.0, 6.0).is_err());
        assert!(judge("sim.step_ms", 1.0, 3.0).is_ok());
        assert!(judge(FAILED_FRAC, 0.0, 0.0).is_ok());
        assert!(judge(FAILED_FRAC, 0.0, 0.01).is_err());
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(six_digits(36815017.44), "3.68150e7");
        assert_eq!(six_digits(155.496094), "155.496");
        assert_eq!(six_digits(0.005352), "0.00535");
        assert_eq!(six_digits(0.0), "0.00000");
    }
}
