//! Per-engine drain-rate calibration and latency observation.
//!
//! Deadline admission and `"auto"` dispatch both need to predict how fast a
//! scheduling domain retires work. A single static rate
//! cannot describe heterogeneous substrates (the memoized simulator clears
//! backlogs orders of magnitude faster than real CPU execution), so every
//! engine carries its own [`DrainRate`]: an online exponentially-weighted
//! moving average of *observed* ops/second, seeded from the engine's
//! [`EngineDescriptor`](bishop_engine::EngineDescriptor) before any batch
//! has completed and updated by workers on every batch completion.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use bishop_engine::EngineName;

use crate::report::LatencyPercentiles;

use super::breaker::{BreakerConfig, BreakerSnapshot, CircuitBreaker};
use super::retry::{RetryBudget, RetryPolicy};

/// Weight of the newest observation in the drain-rate EWMA. Low enough to
/// ride out one anomalous batch, high enough to converge from a bad seed
/// within a handful of completions.
const EWMA_ALPHA: f64 = 0.2;

/// Observed per-request latencies retained per engine for the percentile
/// snapshot `GET /v1/engines` publishes.
const LATENCY_WINDOW: usize = 512;

/// Lock-free `f64 += delta` on an `AtomicU64` holding the value's bits.
pub(crate) fn add_f64(cell: &AtomicU64, delta: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(current) + delta).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

/// Lock-free `f64 = max(f64, value)` on an `AtomicU64` holding the bits.
pub(crate) fn max_f64(cell: &AtomicU64, value: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    while value > f64::from_bits(current) {
        match cell.compare_exchange_weak(
            current,
            value.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

/// An online EWMA of one engine's observed drain rate (dense ops retired
/// per wall-clock second), lock-free and shared between the admission path
/// (reads) and the engine's workers (writes).
#[derive(Debug)]
pub(crate) struct DrainRate {
    ops_per_second_bits: AtomicU64,
    observations: AtomicU64,
}

impl DrainRate {
    /// A rate seeded with an a-priori estimate (clamped to ≥ 1 op/s so the
    /// backlog-drain division below can never blow up).
    pub(crate) fn seeded(ops_per_second: f64) -> Self {
        Self {
            ops_per_second_bits: AtomicU64::new(ops_per_second.max(1.0).to_bits()),
            observations: AtomicU64::new(0),
        }
    }

    /// Folds one completed batch into the EWMA: `ops` estimated dense ops
    /// retired over `wall_seconds` of measured wall-clock.
    pub(crate) fn observe(&self, ops: u64, wall_seconds: f64) {
        let sample = ops as f64 / wall_seconds.max(1e-9);
        self.observations.fetch_add(1, Ordering::Relaxed);
        let mut current = self.ops_per_second_bits.load(Ordering::Relaxed);
        loop {
            let blended = (EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * f64::from_bits(current))
                .max(1.0)
                .to_bits();
            match self.ops_per_second_bits.compare_exchange_weak(
                current,
                blended,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// The current calibrated rate, always ≥ 1 op/s.
    pub(crate) fn ops_per_second(&self) -> f64 {
        f64::from_bits(self.ops_per_second_bits.load(Ordering::Relaxed))
    }

    /// How many batch completions have been folded in.
    pub(crate) fn observations(&self) -> u64 {
        self.observations.load(Ordering::Relaxed)
    }
}

/// A bounded ring of recently observed per-request latencies (on the
/// engine's clock — what responses report), for the p50/p95 snapshot.
#[derive(Debug, Default)]
pub(crate) struct LatencyWindow {
    samples: Mutex<std::collections::VecDeque<f64>>,
}

impl LatencyWindow {
    /// Records `count` requests that each observed `latency_seconds` (the
    /// riders of one batch all share the batch's latency).
    pub(crate) fn record(&self, latency_seconds: f64, count: usize) {
        let mut samples = self.samples.lock().expect("latency window lock");
        for _ in 0..count.min(LATENCY_WINDOW) {
            if samples.len() == LATENCY_WINDOW {
                samples.pop_front();
            }
            samples.push_back(latency_seconds);
        }
    }

    /// Percentiles over the retained window (zeroed when empty).
    pub(crate) fn percentiles(&self) -> LatencyPercentiles {
        let samples = self.samples.lock().expect("latency window lock");
        let latencies: Vec<f64> = samples.iter().copied().collect();
        LatencyPercentiles::from_latencies(&latencies)
    }
}

/// The per-engine scheduling state every domain worker feeds and every
/// admission decision reads: queue/backlog gauges, outcome counters, the
/// calibrated [`DrainRate`] and the latency observation window.
#[derive(Debug)]
pub(crate) struct EngineCells {
    pub(crate) name: EngineName,
    pub(crate) pending: AtomicUsize,
    pub(crate) backlog_ops: AtomicU64,
    pub(crate) batches_executed: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) drain: DrainRate,
    pub(crate) latency: LatencyWindow,
    /// The engine's circuit breaker (admission consults, workers feed).
    pub(crate) breaker: CircuitBreaker,
    /// The domain's retry-budget token bucket.
    pub(crate) retry_budget: RetryBudget,
    /// Engine panics contained by `catch_unwind` in this domain's workers.
    pub(crate) panics: AtomicU64,
    /// Retry attempts workers actually slept-and-re-executed.
    pub(crate) retries_attempted: AtomicU64,
    /// Batches that succeeded on a retry attempt.
    pub(crate) retries_recovered: AtomicU64,
    /// Batches that failed after exhausting their retry attempts.
    pub(crate) retries_exhausted: AtomicU64,
    /// Retries denied because the budget was empty.
    pub(crate) retry_budget_denied: AtomicU64,
    /// Step events emitted by this engine's streaming executions.
    pub(crate) stream_events: AtomicU64,
}

impl EngineCells {
    /// Zeroed cells for `name`, with the drain rate seeded at
    /// `seed_ops_per_second` and fault-tolerance per the given tuning.
    pub(crate) fn new(
        name: EngineName,
        seed_ops_per_second: f64,
        breaker: BreakerConfig,
        retry: &RetryPolicy,
    ) -> Self {
        Self {
            name,
            pending: AtomicUsize::new(0),
            backlog_ops: AtomicU64::new(0),
            batches_executed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            drain: DrainRate::seeded(seed_ops_per_second),
            latency: LatencyWindow::default(),
            breaker: CircuitBreaker::new(breaker),
            retry_budget: RetryBudget::new(retry),
            panics: AtomicU64::new(0),
            retries_attempted: AtomicU64::new(0),
            retries_recovered: AtomicU64::new(0),
            retries_exhausted: AtomicU64::new(0),
            retry_budget_denied: AtomicU64::new(0),
            stream_events: AtomicU64::new(0),
        }
    }

    /// A point-in-time public snapshot.
    pub(crate) fn snapshot(&self) -> EngineLoadStats {
        EngineLoadStats {
            latency: self.latency.percentiles(),
            ..self.counters()
        }
    }

    /// The snapshot without the latency percentiles (left zeroed): what
    /// the background sampler takes every sweep, sparing it the window
    /// lock and sort that only `GET /v1/engines` has a reader for.
    pub(crate) fn counters(&self) -> EngineLoadStats {
        EngineLoadStats {
            engine: self.name.clone(),
            queue_depth: self.pending.load(Ordering::Acquire),
            backlog_ops: self.backlog_ops.load(Ordering::Acquire),
            batches_executed: self.batches_executed.load(Ordering::Acquire),
            completed: self.completed.load(Ordering::Acquire),
            failed: self.failed.load(Ordering::Acquire),
            drain_ops_per_second: self.drain.ops_per_second(),
            drain_observations: self.drain.observations(),
            latency: LatencyPercentiles::default(),
            breaker: self.breaker.snapshot(),
            worker_panics: self.panics.load(Ordering::Acquire),
            retries_attempted: self.retries_attempted.load(Ordering::Acquire),
            retries_recovered: self.retries_recovered.load(Ordering::Acquire),
            retries_exhausted: self.retries_exhausted.load(Ordering::Acquire),
            retry_budget_denied: self.retry_budget_denied.load(Ordering::Acquire),
            stream_events: self.stream_events.load(Ordering::Acquire),
        }
    }
}

/// A point-in-time snapshot of one engine's scheduling domain, published
/// through [`OnlineStats::engines`](super::OnlineStats::engines), the
/// gateway's `GET /v1/engines` and the per-engine `/metrics` series.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineLoadStats {
    /// The engine the domain serves.
    pub engine: EngineName,
    /// Requests admitted to this engine but not yet completed.
    pub queue_depth: usize,
    /// Estimated dense ops of the engine's admitted-but-uncompleted backlog.
    pub backlog_ops: u64,
    /// Batches this engine has executed.
    pub batches_executed: u64,
    /// Requests completed on this engine.
    pub completed: u64,
    /// Requests failed on this engine (typed refusals).
    pub failed: u64,
    /// Calibrated drain rate: EWMA of observed dense ops retired per
    /// wall-clock second, seeded from the engine descriptor.
    pub drain_ops_per_second: f64,
    /// How many batch completions the calibration has folded in (0 = the
    /// rate is still the descriptor seed).
    pub drain_observations: u64,
    /// Observed per-request latency percentiles (engine clock) over a
    /// bounded recent window.
    pub latency: LatencyPercentiles,
    /// The engine's circuit-breaker state.
    pub breaker: BreakerSnapshot,
    /// Engine panics contained by the domain's workers.
    pub worker_panics: u64,
    /// Retry attempts the domain's workers executed.
    pub retries_attempted: u64,
    /// Batches that succeeded on a retry.
    pub retries_recovered: u64,
    /// Batches that failed after exhausting retries.
    pub retries_exhausted: u64,
    /// Retries denied by an empty budget.
    pub retry_budget_denied: u64,
    /// Step events this engine's streaming executions emitted (per-timestep
    /// on native, per-layer on the simulator).
    pub stream_events: u64,
}

impl Default for EngineLoadStats {
    fn default() -> Self {
        Self {
            engine: EngineName::default(),
            queue_depth: 0,
            backlog_ops: 0,
            batches_executed: 0,
            completed: 0,
            failed: 0,
            drain_ops_per_second: 1.0,
            drain_observations: 0,
            latency: LatencyPercentiles::default(),
            breaker: BreakerSnapshot::default(),
            worker_panics: 0,
            retries_attempted: 0,
            retries_recovered: 0,
            retries_exhausted: 0,
            retry_budget_denied: 0,
            stream_events: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_cells_accumulate_and_max() {
        let cell = AtomicU64::new(0);
        add_f64(&cell, 1.5);
        add_f64(&cell, 2.25);
        assert_eq!(f64::from_bits(cell.load(Ordering::Relaxed)), 3.75);
        let max_cell = AtomicU64::new(0);
        max_f64(&max_cell, 2.0);
        max_f64(&max_cell, 1.0);
        assert_eq!(f64::from_bits(max_cell.load(Ordering::Relaxed)), 2.0);
    }

    #[test]
    fn drain_rate_converges_toward_observations() {
        let rate = DrainRate::seeded(1.0);
        assert_eq!(rate.ops_per_second(), 1.0);
        assert_eq!(rate.observations(), 0);
        for _ in 0..64 {
            rate.observe(1_000_000, 1.0); // steady 1e6 ops/s
        }
        assert_eq!(rate.observations(), 64);
        let calibrated = rate.ops_per_second();
        assert!(
            (calibrated - 1e6).abs() / 1e6 < 0.01,
            "EWMA should have converged near 1e6, got {calibrated}"
        );
    }

    #[test]
    fn drain_rate_never_drops_below_one() {
        let rate = DrainRate::seeded(0.0);
        assert_eq!(rate.ops_per_second(), 1.0);
        rate.observe(0, 100.0);
        assert!(rate.ops_per_second() >= 1.0);
    }

    #[test]
    fn latency_window_is_bounded_and_reports_percentiles() {
        let window = LatencyWindow::default();
        assert_eq!(window.percentiles(), LatencyPercentiles::default());
        window.record(1.0, 4);
        window.record(3.0, 4);
        let p = window.percentiles();
        assert_eq!(p.p50, 1.0);
        assert_eq!(p.max, 3.0);
        // Flooding past the window keeps only the newest samples.
        window.record(7.0, 10 * LATENCY_WINDOW);
        let p = window.percentiles();
        assert_eq!(p.p50, 7.0);
        assert_eq!(p.p95, 7.0);
    }

    #[test]
    fn engine_cells_snapshot_reflects_counters() {
        let cells = EngineCells::new(
            EngineName::native(),
            123.0,
            BreakerConfig::default(),
            &RetryPolicy::default(),
        );
        cells.pending.store(3, Ordering::Release);
        cells.completed.store(9, Ordering::Release);
        cells.panics.store(2, Ordering::Release);
        cells.retries_attempted.store(5, Ordering::Release);
        let snap = cells.snapshot();
        assert_eq!(snap.engine, EngineName::native());
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.completed, 9);
        assert_eq!(snap.drain_ops_per_second, 123.0);
        assert_eq!(snap.drain_observations, 0);
        assert_eq!(snap.breaker.state.label(), "closed");
        assert_eq!(snap.worker_panics, 2);
        assert_eq!(snap.retries_attempted, 5);
    }
}
