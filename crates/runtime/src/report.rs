//! Latency percentile summaries.

/// Per-request latency percentiles over a set of observations, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyPercentiles {
    /// Median request latency.
    pub p50: f64,
    /// 95th-percentile request latency.
    pub p95: f64,
    /// 99th-percentile request latency.
    pub p99: f64,
    /// Mean request latency.
    pub mean: f64,
    /// Worst request latency.
    pub max: f64,
}

impl LatencyPercentiles {
    /// Computes percentiles from unsorted per-request latencies. An empty
    /// slice yields the zeroed default report.
    pub fn from_latencies(latencies: &[f64]) -> Self {
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN latency"));
        let Some(&max) = sorted.last() else {
            return Self::default();
        };
        // `max(1)` before `min(len)` instead of `clamp(1, len)`: clamp
        // panics when `len == 0`, and this helper must stay total even if
        // the empty guard above is ever bypassed.
        let at = |q: f64| {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.max(1).min(sorted.len()) - 1]
        };
        Self {
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_uniform_ladder() {
        let latencies: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = LatencyPercentiles::from_latencies(&latencies);
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert_eq!(p.p99, 99.0);
        assert_eq!(p.max, 100.0);
        assert!((p.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_of_tiny_sets() {
        let p = LatencyPercentiles::from_latencies(&[2.0]);
        assert_eq!(p.p50, 2.0);
        assert_eq!(p.p99, 2.0);
    }

    #[test]
    fn empty_latencies_yield_a_zeroed_report_without_panicking() {
        // Regression: the percentile rank was clamped with
        // `rank.clamp(1, sorted.len())`, which panics (`min > max`) on an
        // empty latency set — e.g. an engine that has completed nothing yet.
        let p = LatencyPercentiles::from_latencies(&[]);
        assert_eq!(p, LatencyPercentiles::default());
        assert_eq!(p.p50, 0.0);
        assert_eq!(p.max, 0.0);
    }
}
