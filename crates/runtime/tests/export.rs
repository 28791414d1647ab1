//! Pins what the export table is read for besides `/metrics` (whose text
//! `gateway/tests/export.rs` pins).
//!
//! The time series the background sampler writes: after one scrape of a
//! small two-engine server the set of `(kind, series name)` must equal
//! `fixtures/series_export.txt` — captured at e88a949, the commit whose
//! sampler still enumerated the counters by hand — and every series the
//! stock SLOs are phrased over must be among them. Never regenerate the
//! fixture from a changed tree: dashboards and `ObsConfig::default_slos`
//! name these series as string literals.
//!
//! The docs: README and the runbook may only name metric families the
//! table exports.

use std::sync::Arc;
use std::time::Duration;

use bishop_core::{BishopConfig, BishopSimulator};
use bishop_engine::{EngineName, EngineRegistry, NativeEngine, SimulatorEngine};
use bishop_obs::{ObsConfig, SeriesKind, SloSignal, TraceContext};
use bishop_runtime::online::export::{render_prometheus, EdgeStats, Snapshot};
use bishop_runtime::{
    default_mixed_models, BatchPolicy, InferenceRequest, OnlineConfig, OnlineServer, OnlineStats,
    RuntimeConfig, SamplerConfig, SessionStore, SessionStoreConfig, SessionStoreStats,
};

/// Serves one traced simulator request and one `"auto"` request on a
/// simulator + native server with a registered session store, then shuts
/// down: the sampler's metrics interval is an hour, so the shutdown scrape
/// is the only one. Returns every `(kind, series)` it wrote, sorted.
fn scraped_series() -> Vec<String> {
    let registry = EngineRegistry::new()
        .with_engine(Arc::new(SimulatorEngine::new(BishopSimulator::new(
            BishopConfig::default(),
        ))))
        .with_engine(Arc::new(NativeEngine::new()));
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(1)))
            .with_batch_timeout(None)
            .with_registry(Arc::new(registry))
            .with_sampler(
                SamplerConfig::default()
                    .with_intervals(Duration::from_millis(1), Duration::from_secs(3600)),
            ),
    );
    let handle = server.handle();
    let obs = Arc::clone(handle.obs());
    assert!(handle.register_sessions(Arc::new(SessionStore::new(SessionStoreConfig::default()))));

    let entry = default_mixed_models()
        .into_iter()
        .find(|entry| entry.options.ecp_threshold.is_none())
        .expect("a model the native engine can execute");
    let trace = Arc::new(TraceContext::new(0));
    let traced = InferenceRequest::new(0, Arc::clone(&entry), 1).with_trace(Arc::clone(&trace));
    let routed = InferenceRequest::new(1, entry, 2).with_engine(EngineName::auto());
    let tickets = [traced, routed].map(|request| handle.try_submit(request).expect("admitted"));
    handle.flush();
    for ticket in tickets {
        assert!(matches!(ticket.wait(), Some(Ok(_))));
    }
    // What the gateway does once the response is written: the trace's
    // stage spans land in the histograms the sampler takes quantiles of.
    obs.finish(&trace, 200, None);
    server.shutdown();

    let mut series: Vec<String> = obs
        .timeseries
        .series_names()
        .into_iter()
        .map(|name| {
            let kind = match obs.timeseries.kind(&name).expect("listed series") {
                SeriesKind::Counter => "counter",
                SeriesKind::Gauge => "gauge",
            };
            format!("{kind} {name}")
        })
        .collect();
    series.sort_unstable();
    series
}

#[test]
fn scrape_writes_the_series_captured_before_the_table_and_every_slo_input() {
    let series = scraped_series();
    let expected: Vec<&str> = include_str!("fixtures/series_export.txt").lines().collect();
    assert_eq!(series, expected);

    for slo in ObsConfig::default_slos() {
        let (kind, inputs) = match slo.signal {
            SloSignal::GoodRatio { good, total } => ("counter", vec![good, total]),
            SloSignal::BadRatio { bad, total } => ("counter", vec![bad, total]),
            SloSignal::GaugeBelow { series, .. } => ("gauge", vec![series]),
        };
        for input in inputs {
            assert!(
                series.contains(&format!("{kind} {input}")),
                "SLO {} reads {kind} series {input}, which the scrape does not write",
                slo.name
            );
        }
    }
}

#[test]
fn docs_name_only_exported_families() {
    // The obs hub's own `bishop_stage_*` / `bishop_slo_*` / `bishop_profile_*`
    // / `bishop_router_*` families are not the table's to export.
    const PREFIXES: [&str; 7] = [
        "bishop_runtime_",
        "bishop_gateway_",
        "bishop_breaker_",
        "bishop_retries_",
        "bishop_sessions_",
        "bishop_stream_events_",
        "bishop_worker_panics_",
    ];
    let snapshot = Snapshot {
        server: &OnlineStats::default(),
        sessions: Some(&SessionStoreStats::default()),
        edge: Some(&EdgeStats::default()),
    };
    let mut text = String::new();
    render_prometheus(&snapshot, &mut text);
    let exported: Vec<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.split(' ').next())
        .collect();

    let docs = [
        ("README.md", include_str!("../../../README.md")),
        ("docs/runbook.md", include_str!("../../../docs/runbook.md")),
    ];
    let mut checked = 0;
    for (file, doc) in docs {
        let words = doc.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
        for word in words.filter(|word| PREFIXES.iter().any(|p| word.starts_with(p))) {
            assert!(
                exported.contains(&word),
                "{file} names `{word}`, which the export table does not export"
            );
            checked += 1;
        }
    }
    assert!(checked >= 10, "the docs name the families operators read");
}
