//! The background observability sampler: one thread per server feeding
//! the obs hub's temporal layer.
//!
//! The thread runs two cadences off one loop. Every *profile* tick
//! (default 10 ms) it sweeps the worker/batcher [stage
//! slots](bishop_obs::StageSlot) and attributes the elapsed wall-clock to
//! each thread's published stage. Every *metrics* tick (default 1 s) it
//! takes one counter snapshot of the server and records every row of the
//! [export table](super::export) that names a time series — the same rows
//! `GET /metrics` renders — into the
//! [`TimeSeriesStore`](bishop_obs::TimeSeriesStore) rollups, adds the three
//! derived views (shed/finished sums, router verdict totals, windowed
//! p50/p95/p99 of the stage histograms), and re-evaluates the SLO engine
//! (which emits edge-triggered burn-rate alerts into the event log).
//!
//! The snapshot is a few dozen atomic loads and a short-lived registry
//! lock per engine (no latency-window sort), so the sampler's steady-state
//! cost is independent of request throughput — the overhead bar the `obs`
//! bench holds it to.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bishop_obs::{HistogramSnapshot, ObsHub};
use bishop_session::SessionStore;

use super::export::{record_series, Snapshot};
use super::OnlineStats;

/// Configuration of the background sampler thread.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Whether the sampler thread runs at all. Off, the time-series
    /// store, SLO engine and profiler stay empty (but the endpoints
    /// still serve their empty shapes).
    pub enabled: bool,
    /// Stage-slot sweep period (the profiler's sampling resolution).
    pub profile_interval: Duration,
    /// Counter-scrape / SLO-evaluation period.
    pub metrics_interval: Duration,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            profile_interval: Duration::from_millis(10),
            metrics_interval: Duration::from_secs(1),
        }
    }
}

impl SamplerConfig {
    /// A sampler that never runs (deterministic replay, bare-overhead
    /// benchmarking).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Overrides both cadences (tests shrink them to milliseconds).
    pub fn with_intervals(mut self, profile: Duration, metrics: Duration) -> Self {
        self.profile_interval = profile.max(Duration::from_micros(100));
        self.metrics_interval = metrics.max(Duration::from_millis(1));
        self
    }
}

/// The running sampler: a stop flag plus the thread handle.
#[derive(Debug)]
pub(crate) struct SamplerThread {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl SamplerThread {
    /// Signals the thread and joins it (it runs one final scrape so even
    /// a short-lived server lands its counters in the store).
    pub(crate) fn stop_and_join(self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.handle.join();
    }
}

/// Spawns the sampler thread; `snapshot` takes the server's counters.
pub(crate) fn spawn_sampler(
    config: SamplerConfig,
    obs: Arc<ObsHub>,
    snapshot: impl Fn() -> OnlineStats + Send + 'static,
    sessions: Arc<OnceLock<Arc<SessionStore>>>,
) -> SamplerThread {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut histogram_baseline: BTreeMap<(String, &'static str), HistogramSnapshot> =
            BTreeMap::new();
        let mut last_profile = Instant::now();
        let mut last_metrics = Instant::now();
        while !stop_flag.load(Ordering::Acquire) {
            std::thread::sleep(config.profile_interval);
            let now = Instant::now();
            obs.profiler
                .sample(now.duration_since(last_profile).as_secs_f64());
            last_profile = now;
            if now.duration_since(last_metrics) >= config.metrics_interval {
                scrape(&obs, &snapshot(), &sessions, &mut histogram_baseline);
                obs.slo.evaluate(&obs.timeseries, Some(&obs.events));
                last_metrics = now;
            }
        }
        // Final scrape: a server shut down inside one metrics interval
        // still lands its counters and a final SLO evaluation.
        scrape(&obs, &snapshot(), &sessions, &mut histogram_baseline);
        obs.slo.evaluate(&obs.timeseries, Some(&obs.events));
    });
    SamplerThread { stop, handle }
}

/// One metrics sweep: counters and gauges into the time-series store.
fn scrape(
    obs: &ObsHub,
    stats: &OnlineStats,
    sessions: &OnceLock<Arc<SessionStore>>,
    histogram_baseline: &mut BTreeMap<(String, &'static str), HistogramSnapshot>,
) {
    let ts = &obs.timeseries;
    // The session store lives at the edge; when a gateway registered it
    // with this server its counters join the same temporal layer.
    let sessions = sessions.get().map(|store| store.stats());
    let snapshot = Snapshot {
        server: stats,
        sessions: sessions.as_ref(),
        edge: None,
    };
    record_series(&snapshot, ts);

    // Availability counts every user-visible terminal outcome: successes
    // are good; engine failures plus availability sheds (open breaker,
    // shutdown) are bad. Load-management sheds (queue-full, deadline)
    // count against `shed_rate` instead.
    let shed = &stats.admission;
    let errored = stats.failed + shed.unavailable + shed.shutdown;
    ts.record_counter("requests.shed", shed.total() as f64);
    ts.record_counter("requests.finished", (stats.completed + errored) as f64);

    // Router verdicts, as per-verdict totals across engines.
    let mut verdict_totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ((_, verdict), count) in obs.router.snapshot() {
        *verdict_totals.entry(verdict).or_default() += count;
    }
    for (verdict, total) in verdict_totals {
        ts.record_counter(&format!("router.{verdict}"), total as f64);
    }

    // Stage-latency quantiles: diff each histogram against the previous
    // sweep so the gauges describe *this window's* latency, then merge
    // the per-engine windows into an all-engines series per stage.
    let mut merged_by_stage: BTreeMap<&'static str, HistogramSnapshot> = BTreeMap::new();
    for (key, snapshot) in obs.histograms.snapshot_all() {
        let baseline = histogram_baseline.remove(&key).unwrap_or_default();
        let window = snapshot.diff(&baseline);
        if window.count() > 0 {
            let (engine, stage) = (&key.0, key.1);
            for (q, label) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
                ts.record_gauge(
                    &format!("stage_{label}.{engine}.{stage}"),
                    window.quantile(q),
                );
            }
            merged_by_stage.entry(stage).or_default().merge(&window);
        }
        histogram_baseline.insert(key, snapshot);
    }
    for (stage, window) in merged_by_stage {
        for (q, label) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
            ts.record_gauge(&format!("stage_{label}.all.{stage}"), window.quantile(q));
        }
    }
}
