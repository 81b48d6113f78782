//! Order statistics over timing samples.
//!
//! Every timing the harness reports is a median with its sample count and
//! quartiles; a tail percentile is reported only when at least ten samples
//! lie beyond it (choosing-metrics §1), which is why only the served ops
//! have one.

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        Self {
            n: s.len(),
            median: quantile_sorted(&s, 0.5),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
        }
    }

    /// A value that is not a sample median (a count, a ratio of sums).
    pub fn single(value: f64) -> Self {
        Self {
            n: 1,
            median: value,
            q1: value,
            q3: value,
        }
    }
}

/// The `p`th percentile (nearest rank) if at least ten samples lie beyond
/// it, else the maximum — the fallback keeps a reduced-size probe
/// reporting a number, flagged by its sample count.
pub fn percentile_or_max(values: &[f64], p: u32) -> f64 {
    let s = sorted(values);
    let rank = (s.len() * p as usize).div_ceil(100).max(1);
    if s.len() - rank >= 10 {
        s[rank - 1]
    } else {
        s[s.len() - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[5.0, 1.0, 2.0, 4.0, 3.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 400 samples: p95 is the 380th, 20 lie beyond it.
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(percentile_or_max(&v, 95), 380.0);
        // 200 samples leave exactly 10 beyond p95; 199 leave 9.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile_or_max(&v, 95), 190.0);
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile_or_max(&v, 95), 199.0);
        assert_eq!(percentile_or_max(&[3.0, 1.0], 95), 3.0);
    }
}
