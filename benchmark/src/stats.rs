//! Order statistics over timing samples: percentiles, the inter-quartile
//! range, and the value-with-spread summary every metric is reported as.

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice, linearly
/// interpolated between the two nearest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// Ascending copy of `values` (which must be NaN-free).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    out
}

/// One metric's reported value, the inter-quartile range of the per-slice
/// (or per-repetition) values behind it, and the raw sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value: the median of the values given to [`Summary::of`],
    /// or a value taken over the whole window ([`crate::measure`]).
    pub median: f64,
    /// Third quartile minus first quartile of the same values.
    pub iqr: f64,
    /// How many raw samples (requests, repetitions) stand behind the values.
    pub samples: usize,
}

impl Summary {
    /// Summarises `values`; `samples` is the raw count behind them.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64], samples: usize) -> Self {
        let ordered = sorted(values);
        Self {
            median: percentile(&ordered, 0.5),
            iqr: percentile(&ordered, 0.75) - percentile(&ordered, 0.25),
            samples,
        }
    }

    /// A single exact value (a count, a high-water mark): no spread.
    pub fn exact(value: f64) -> Self {
        Self::over(value, 1)
    }

    /// One value computed over `samples` raw samples (a mean, a ratio of
    /// sums): no spread of its own.
    pub fn over(value: f64, samples: usize) -> Self {
        Self {
            median: value,
            iqr: 0.0,
            samples,
        }
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&xs, 0.25), 2.0);
        assert!((percentile(&xs, 0.95) - 4.8).abs() < 1e-12);
        // Even count: the median is the midpoint.
        assert_eq!(percentile(&[1.0, 3.0], 0.5), 2.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn summary_reports_median_and_iqr() {
        // Quartiles of 1..=9 are 3 and 7.
        let values: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        let summary = Summary::of(&values, 900);
        assert_eq!(summary.median, 5.0);
        assert_eq!(summary.iqr, 4.0);
        assert_eq!(summary.samples, 900);
        assert_eq!(Summary::exact(3.5).iqr, 0.0);
    }

    #[test]
    fn one_noisy_slice_does_not_move_the_median() {
        let mut slices = vec![100.0; 9];
        slices.push(10.0);
        assert_eq!(Summary::of(&slices, 10).median, 100.0);
        assert_eq!(Summary::of(&slices, 10).iqr, 0.0);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
