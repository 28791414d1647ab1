//! Live observability: the gateway's own HTTP and connection counters,
//! and the `GET /metrics` body — the runtime's
//! [export table](bishop_runtime::online::export), which these counters
//! join as [`EdgeStats`], followed by the obs hub's families.

use std::sync::{Mutex, MutexGuard};

use bishop_obs::ObsHub;
use bishop_runtime::online::export::{self, EdgeStats};
use bishop_runtime::OnlineStats;
use bishop_session::SessionStoreStats;

/// HTTP- and connection-level counters maintained by the gateway itself.
/// Runtime-level counters (queue depth, shed totals, simulated work) come
/// from [`OnlineStats`] at render time.
#[derive(Debug, Default)]
pub struct GatewayMetrics {
    stats: Mutex<EdgeStats>,
}

impl GatewayMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    fn stats(&self) -> MutexGuard<'_, EdgeStats> {
        self.stats.lock().expect("gateway counters lock")
    }

    /// Records an accepted connection; pair with [`Self::connection_closed`].
    pub fn connection_opened(&self) {
        let mut stats = self.stats();
        stats.connections_accepted += 1;
        stats.connections_active += 1;
    }

    /// Records a connection turned away at the concurrency cap.
    pub fn connection_rejected(&self) {
        self.stats().connections_rejected += 1;
    }

    /// Records a closed connection.
    pub fn connection_closed(&self) {
        self.stats().connections_active -= 1;
    }

    /// Currently open connections.
    pub fn active_connections(&self) -> u64 {
        self.stats().connections_active
    }

    /// Records one response by status code.
    pub fn response(&self, status: u16) {
        *self.stats().responses_by_status.entry(status).or_insert(0) += 1;
    }

    /// Records a request that failed to parse (a subset also got an error
    /// response).
    pub fn parse_error(&self) {
        self.stats().parse_errors += 1;
    }

    /// Renders `GET /metrics` in Prometheus text format: every family of
    /// the runtime's export table (these HTTP counters, the scheduling
    /// counters, the per-engine series and, when a session store's stats
    /// are provided, the session families), then the obs hub's own —
    /// stage-latency histograms (`bishop_stage_seconds`, the source of
    /// truth for latency distributions), router decision counters, SLO
    /// compliance/burn gauges (`bishop_slo_*`, a pure read of the
    /// sampler-fed time-series store) and profiler self-time totals.
    pub fn render_prometheus(
        &self,
        runtime: &OnlineStats,
        obs: &ObsHub,
        sessions: Option<&SessionStoreStats>,
    ) -> String {
        let edge = self.stats().clone();
        let snapshot = export::Snapshot {
            server: runtime,
            sessions,
            edge: Some(&edge),
        };
        let mut out = String::with_capacity(4096);
        export::render_prometheus(&snapshot, &mut out);
        obs.histograms.render_into(&mut out);
        obs.router.render_into(&mut out);
        obs.slo.render_into(&mut out, &obs.timeseries);
        obs.profiler.render_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_prometheus_text() {
        let metrics = GatewayMetrics::new();
        metrics.connection_opened();
        metrics.response(200);
        metrics.response(200);
        metrics.response(429);
        let runtime = OnlineStats {
            submitted: 3,
            admitted: 2,
            completed: 2,
            queue_depth: 0,
            ..OnlineStats::default()
        };
        let text = metrics.render_prometheus(&runtime, &ObsHub::default(), None);
        assert!(text.contains("# TYPE bishop_gateway_http_responses_total counter"));
        assert!(text.contains("bishop_gateway_http_responses_total{status=\"200\"} 2"));
        assert!(text.contains("bishop_gateway_http_responses_total{status=\"429\"} 1"));
        assert!(text.contains("bishop_runtime_requests_submitted_total 3"));
        assert!(text.contains("bishop_runtime_requests_shed_total{reason=\"queue_full\"} 0"));
        assert!(text
            .contains("bishop_runtime_requests_shed_total{reason=\"no_engine_meets_deadline\"} 0"));
        assert!(text.contains("bishop_gateway_connections_active 1"));
    }

    #[test]
    fn renders_per_engine_scheduling_series() {
        use bishop_runtime::{EngineLoadStats, LatencyPercentiles};
        let metrics = GatewayMetrics::new();
        let runtime = OnlineStats {
            queue_depth: 5,
            engines: vec![
                EngineLoadStats {
                    engine: bishop_engine::EngineName::simulator(),
                    queue_depth: 1,
                    backlog_ops: 10,
                    batches_executed: 4,
                    completed: 8,
                    failed: 0,
                    drain_ops_per_second: 5e9,
                    drain_observations: 4,
                    latency: LatencyPercentiles {
                        p50: 0.001,
                        p95: 0.002,
                        p99: 0.002,
                        mean: 0.001,
                        max: 0.002,
                    },
                    ..EngineLoadStats::default()
                },
                EngineLoadStats {
                    engine: bishop_engine::EngineName::native(),
                    queue_depth: 4,
                    backlog_ops: 999,
                    batches_executed: 2,
                    completed: 3,
                    failed: 1,
                    drain_ops_per_second: 2e9,
                    drain_observations: 2,
                    latency: LatencyPercentiles::default(),
                    worker_panics: 2,
                    retries_attempted: 5,
                    retries_recovered: 3,
                    retries_exhausted: 1,
                    retry_budget_denied: 4,
                    ..EngineLoadStats::default()
                },
            ],
            ..OnlineStats::default()
        };
        let text = metrics.render_prometheus(&runtime, &ObsHub::default(), None);
        // The global gauge and the per-domain labeled samples share one
        // metric family.
        assert!(text.contains("bishop_runtime_queue_depth 5"));
        assert!(text.contains("bishop_runtime_queue_depth{engine=\"simulator\"} 1"));
        assert!(text.contains("bishop_runtime_queue_depth{engine=\"native\"} 4"));
        assert!(text.contains("bishop_runtime_backlog_ops{engine=\"native\"} 999"));
        assert_eq!(
            text.matches("# TYPE bishop_runtime_backlog_ops gauge")
                .count(),
            1,
            "global and per-engine backlog share one metric family"
        );
        assert!(text.contains("bishop_runtime_batches_total{engine=\"simulator\"} 4"));
        assert!(text.contains("bishop_runtime_batches_total{engine=\"native\"} 2"));
        assert!(text.contains("bishop_runtime_drain_ops_per_second{engine=\"native\"} 2000000000"));
        assert!(text.contains("bishop_runtime_engine_failed_total{engine=\"native\"} 1"));
        // The lossy windowed p50/p95 gauges are gone from the scrape; the
        // histogram family is the source of truth for distributions.
        assert!(!text.contains("bishop_runtime_engine_latency_seconds_p"));
        // Fault-tolerance families: breaker state gauge, contained panics,
        // and retry outcomes — one HELP/TYPE header each.
        assert!(text.contains("bishop_breaker_state{engine=\"simulator\"} 0"));
        assert!(text.contains("bishop_worker_panics_total{engine=\"native\"} 2"));
        assert!(text.contains("bishop_retries_total{engine=\"native\",outcome=\"attempted\"} 5"));
        assert!(text.contains("bishop_retries_total{engine=\"native\",outcome=\"recovered\"} 3"));
        assert!(text.contains("bishop_retries_total{engine=\"native\",outcome=\"exhausted\"} 1"));
        assert!(
            text.contains("bishop_retries_total{engine=\"native\",outcome=\"budget_denied\"} 4")
        );
        assert_eq!(
            text.matches("# TYPE bishop_retries_total counter").count(),
            1
        );
        assert!(
            text.contains("bishop_runtime_requests_shed_total{reason=\"engine_unavailable\"} 0")
        );
        // Exactly one HELP/TYPE header per family even with many engines.
        assert_eq!(
            text.matches("# TYPE bishop_runtime_queue_depth gauge")
                .count(),
            1
        );
    }

    #[test]
    fn renders_obs_histograms_and_router_counters() {
        use bishop_obs::{RouterCandidate, RouterDecision, RouterVerdict};
        let metrics = GatewayMetrics::new();
        let obs = ObsHub::default();
        obs.histograms.record("simulator", "engine_execute", 0.002);
        obs.histograms.record("simulator", "queue_wait", 1e-5);
        obs.router.record(&RouterDecision {
            deadline_seconds: Some(0.01),
            candidates: vec![RouterCandidate {
                engine: "native".to_string(),
                eligible: true,
                predicted_seconds: Some(0.001),
                meets_deadline: Some(true),
                breaker_open: false,
            }],
            verdict: RouterVerdict::Chosen {
                engine: "native".to_string(),
                degraded: false,
            },
        });
        let text = metrics.render_prometheus(&OnlineStats::default(), &obs, None);
        // One HELP/TYPE header for the whole histogram family, then the
        // labeled bucket/sum/count series.
        assert_eq!(
            text.matches("# TYPE bishop_stage_seconds histogram")
                .count(),
            1
        );
        assert!(text.contains(
            "bishop_stage_seconds_bucket{engine=\"simulator\",stage=\"engine_execute\",le=\"+Inf\"} 1"
        ));
        assert!(text
            .contains("bishop_stage_seconds_count{engine=\"simulator\",stage=\"queue_wait\"} 1"));
        assert!(
            text.contains("bishop_router_decisions_total{engine=\"native\",verdict=\"chosen\"} 1")
        );
    }

    #[test]
    fn renders_session_and_stream_families() {
        use bishop_runtime::EngineLoadStats;
        let metrics = GatewayMetrics::new();
        let runtime = OnlineStats {
            engines: vec![EngineLoadStats {
                engine: bishop_engine::EngineName::native(),
                stream_events: 12,
                ..EngineLoadStats::default()
            }],
            ..OnlineStats::default()
        };
        // Without a session store the session families are absent but the
        // per-engine stream counter still renders.
        let text = metrics.render_prometheus(&runtime, &ObsHub::default(), None);
        assert!(text.contains("bishop_stream_events_total{engine=\"native\"} 12"));
        assert!(!text.contains("bishop_sessions_active"));

        let stats = SessionStoreStats {
            active: 3,
            evicted_ttl: 2,
            evicted_capacity: 1,
            evicted_explicit: 4,
        };
        let text = metrics.render_prometheus(&runtime, &ObsHub::default(), Some(&stats));
        assert!(text.contains("bishop_sessions_active 3"));
        assert!(text.contains("bishop_sessions_evicted_total{reason=\"ttl\"} 2"));
        assert!(text.contains("bishop_sessions_evicted_total{reason=\"capacity\"} 1"));
        assert!(text.contains("bishop_sessions_evicted_total{reason=\"explicit\"} 4"));
    }
}
