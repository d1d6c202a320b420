//! Exact order statistics.
//!
//! Percentiles here are nearest-rank values of the *sorted raw samples* —
//! not estimates from the log-bucketed histogram behind
//! `TcsCluster::sample_percentile` (≤ 9 % error). A percentile is refused
//! unless at least [`MIN_BEYOND`] samples lie beyond it, so a reported tail
//! is never one or two outliers.

use std::fmt;

/// Samples that must lie strictly beyond a percentile's rank for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewSamples {
    /// The percentile asked for.
    pub pct: u32,
    /// Samples available.
    pub samples: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} refused: {} samples leave fewer than {MIN_BEYOND} beyond it",
            self.pct, self.samples
        )
    }
}

/// Nearest-rank percentile (`1 ≤ pct ≤ 100`) of an ascending slice: the
/// smallest sample with at least `pct` % of the samples at or below it.
pub fn percentile<T: Copy>(sorted: &[T], pct: u32) -> Result<T, TooFewSamples> {
    assert!((1..=100).contains(&pct), "percentile out of range");
    let rank = (sorted.len() * pct as usize).div_ceil(100);
    if rank == 0 || sorted.len() - rank < MIN_BEYOND {
        return Err(TooFewSamples {
            pct,
            samples: sorted.len(),
        });
    }
    Ok(sorted[rank - 1])
}

/// Quartiles `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method) gives
/// them; needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    let n = data.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of the values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    let mid = data.len() / 2;
    if data.len() % 2 == 1 {
        data[mid]
    } else {
        (data[mid - 1] + data[mid]) / 2.0
    }
}

/// Nearest-rank upper quartile: the smallest value with at least three
/// quarters of the values at or below it (the larger of two, the third of
/// four). Wall-clock rates are summarised by it: interference from the host's
/// other tenants only ever slows a round down, so the upper quartile follows
/// the undisturbed rate where the median follows the interference (over ten
/// runs its spread was 4.0 %, 4.7 % and 2.7 % where the median's was 6.3 %,
/// 12.2 % and 3.1 %).
pub fn upper_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "upper quartile of nothing");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
    data[(3 * data.len()).div_ceil(4) - 1]
}

/// Inter-quartile range as a share of the median (0 for fewer than two
/// values, where no spread is observable).
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50), Ok(50));
        assert_eq!(percentile(&samples, 1), Ok(1));
        assert_eq!(percentile(&samples, 90), Ok(90));
        // p91 has only nine samples beyond it.
        assert_eq!(
            percentile(&samples, 91),
            Err(TooFewSamples {
                pct: 91,
                samples: 100
            })
        );
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&samples, 99), Ok(990));
        let short: Vec<u64> = (1..=999).collect();
        // rank = ceil(989.01) = 990, nine beyond.
        assert!(percentile(&short, 99).is_err());
    }

    #[test]
    fn small_and_empty_inputs_are_refused() {
        assert!(percentile::<u64>(&[], 50).is_err());
        let nineteen: Vec<u64> = (1..=19).collect();
        // rank 10, nine beyond.
        assert!(percentile(&nineteen, 50).is_err());
        let twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&twenty, 50), Ok(10));
    }

    #[test]
    fn ties_resolve_to_the_sample_value() {
        let mut samples = vec![5u64; 30];
        samples.extend([9; 10]);
        assert_eq!(percentile(&samples, 50), Ok(5));
        assert_eq!(percentile(&samples, 75), Ok(5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            (15.0, 30.0, 45.0)
        );
    }

    #[test]
    fn upper_quartile_is_nearest_rank() {
        assert_eq!(upper_quartile(&[5.0]), 5.0);
        assert_eq!(upper_quartile(&[2.0, 1.0]), 2.0);
        assert_eq!(upper_quartile(&[3.0, 1.0, 2.0]), 3.0);
        assert_eq!(upper_quartile(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(upper_quartile(&nine), 7.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(iqr_share(&[7.0]), 0.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_share(&ten), 1.0);
    }
}
