//! Order statistics with the sample-count rule the benchmark reports by.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p99 needs 1000 samples and a median 20. Quartiles use
//! the same "exclusive" interpolation as Python's
//! `statistics.quantiles(values, n=4)`, so spreads computed here and by a
//! script over the printed values agree.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Fewest samples for which the `pct` percentile may be reported.
pub fn min_samples(pct: f64) -> usize {
    let beyond_share = 1.0 - pct / 100.0;
    (MIN_BEYOND as f64 / beyond_share - 1e-9).ceil() as usize
}

/// The `pct` percentile of `samples` (nearest rank), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    if samples.is_empty() || samples.len() < min_samples(pct) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest whole percentile (at most `cap`) the rule allows for `n`
/// samples, or `None` when not even a median is allowed.
pub fn tail_pct(n: usize, cap: f64) -> Option<f64> {
    if n < min_samples(50.0) {
        return None;
    }
    let allowed = (100.0 * (1.0 - MIN_BEYOND as f64 / n as f64)).floor();
    Some(allowed.min(cap))
}

/// Median and quartiles of a set of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Number of measurements behind the figures.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// Summarizes `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Spread> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = median_sorted(&sorted);
        let (q1, q3) = if sorted.len() < 2 {
            (median, median)
        } else {
            (quartile(&sorted, 1), quartile(&sorted, 3))
        };
        Some(Spread {
            n: sorted.len(),
            q1,
            median,
            q3,
        })
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Cut point `i` of 4 by Python's `statistics.quantiles` ("exclusive"),
/// including its extrapolation for very small samples. Needs `n >= 2`.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let m = (i * (n + 1)) as i64;
    let j = (m / 4).clamp(1, n as i64 - 1);
    let delta = (m - j * 4) as f64;
    let j = j as usize;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Spread::of(values).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(50.0), 20);
        let few: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&few, 99.0), None);
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&enough, 99.0), Some(990.0));
        // Exactly ten samples lie above the reported p99.
        assert_eq!(enough.iter().filter(|&&v| v > 990.0).count(), MIN_BEYOND);
        assert_eq!(percentile(&enough[..19], 50.0), None);
        assert_eq!(percentile(&enough[..20], 50.0), Some(10.0));
    }

    #[test]
    fn tail_percentile_follows_the_sample_count() {
        assert_eq!(tail_pct(19, 99.0), None);
        assert_eq!(tail_pct(20, 99.0), Some(50.0));
        assert_eq!(tail_pct(100, 99.0), Some(90.0));
        assert_eq!(tail_pct(5000, 99.0), Some(99.0));
        for n in [20, 37, 150, 999, 1000, 4321] {
            let pct = tail_pct(n, 99.0).unwrap();
            let samples: Vec<f64> = (1..=n).map(|v| v as f64).collect();
            assert!(percentile(&samples, pct).is_some(), "n={n} pct={pct}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.0, 2.0, 3.0, 3));
    }
}
