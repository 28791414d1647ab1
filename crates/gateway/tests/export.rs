//! Pins the `/metrics` exposition: for a fixed synthetic snapshot (two
//! engines, a non-zero value in every exported field) the rendered text
//! must equal, line for line once sorted, `fixtures/metrics_export.txt` —
//! captured from the hand-written renderer at e88a949, the commit before
//! the export table replaced it. Never regenerate the fixture from a
//! changed tree: a diff here is a family, help string, label or number
//! format a scraper can see.

use bishop_engine::EngineName;
use bishop_gateway::GatewayMetrics;
use bishop_obs::ObsHub;
use bishop_runtime::{
    AdmissionStats, BreakerSnapshot, BreakerState, EngineLoadStats, LatencyPercentiles,
    OnlineStats, SessionStoreStats,
};

fn gateway_counters() -> GatewayMetrics {
    let metrics = GatewayMetrics::new();
    for _ in 0..3 {
        metrics.connection_opened();
    }
    metrics.connection_closed();
    metrics.connection_rejected();
    metrics.parse_error();
    metrics.parse_error();
    for status in [200, 200, 200, 200, 429, 503, 400, 400] {
        metrics.response(status);
    }
    metrics
}

fn runtime_snapshot() -> OnlineStats {
    let latency = LatencyPercentiles {
        p50: 0.001,
        p95: 0.002,
        p99: 0.003,
        mean: 0.0015,
        max: 0.004,
    };
    OnlineStats {
        submitted: 1_000,
        admitted: 940,
        completed: 900,
        failed: 17,
        admission: AdmissionStats {
            queue_full: 21,
            deadline: 13,
            no_engine: 8,
            unavailable: 11,
            shutdown: 7,
        },
        batches_executed: 460,
        queue_depth: 23,
        backlog_ops: 123_456_789,
        total_simulated_cycles: 9_876_543_210,
        total_energy_mj: 12.625,
        mean_latency_seconds: 0.00125,
        max_latency_seconds: 0.0475,
        engines: vec![
            EngineLoadStats {
                engine: EngineName::simulator(),
                queue_depth: 4,
                backlog_ops: 23_456_789,
                batches_executed: 400,
                completed: 790,
                failed: 2,
                drain_ops_per_second: 5e9,
                drain_observations: 400,
                latency,
                breaker: BreakerSnapshot {
                    state: BreakerState::HalfOpen,
                    consecutive_errors: 1,
                    opened_total: 3,
                    reopen_seconds: None,
                },
                worker_panics: 1,
                retries_attempted: 6,
                retries_recovered: 4,
                retries_exhausted: 2,
                retry_budget_denied: 5,
                stream_events: 31,
            },
            EngineLoadStats {
                engine: EngineName::native(),
                queue_depth: 19,
                backlog_ops: 100_000_000,
                batches_executed: 60,
                completed: 110,
                failed: 15,
                drain_ops_per_second: 123_456.75,
                drain_observations: 60,
                latency,
                breaker: BreakerSnapshot {
                    state: BreakerState::Open,
                    consecutive_errors: 9,
                    opened_total: 2,
                    reopen_seconds: Some(0.25),
                },
                worker_panics: 3,
                retries_attempted: 12,
                retries_recovered: 7,
                retries_exhausted: 3,
                retry_budget_denied: 9,
                stream_events: 480,
            },
        ],
    }
}

#[test]
fn metrics_text_matches_the_fixture_captured_before_the_table() {
    let sessions = SessionStoreStats {
        active: 5,
        evicted_ttl: 4,
        evicted_capacity: 3,
        evicted_explicit: 2,
    };
    let text = gateway_counters().render_prometheus(
        &runtime_snapshot(),
        &ObsHub::default(),
        Some(&sessions),
    );
    let mut rendered: Vec<&str> = text.lines().collect();
    rendered.sort_unstable();
    let expected: Vec<&str> = include_str!("fixtures/metrics_export.txt")
        .lines()
        .collect();
    assert_eq!(rendered, expected);

    // A Prometheus family's samples form one group under one header: every
    // sample line follows the `# TYPE` line of its own family, and no family
    // is opened twice.
    let mut open: Option<&str> = None;
    let mut seen = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let family = rest.split(' ').next().expect("family name");
            assert!(!seen.contains(&family), "{family} opened twice");
            seen.push(family);
            open = Some(family);
        } else if !line.starts_with('#') {
            let family = open.expect("sample before any header");
            assert!(line.starts_with(family), "{line} under {family}");
        }
    }
}
