//! Temporal-observability suite: drives the background sampler, the SLO
//! engine and the always-on worker profiler against live serving traffic —
//!
//! * a scripted breaker-driven outage burns the availability error budget
//!   (fast-burn alert in the event log, budget < 1 on `/v1/slo`'s data
//!   source) and the objective recovers to `ok` once the outage ages out
//!   of the budget window;
//! * under a saturating flood routed at the native engine, the sampling
//!   profiler attributes at least 80% of the native worker's wall-clock to
//!   `engine_execute` while the idle simulator worker reads as idle;
//! * the sampler's final scrape on shutdown lands the admission/outcome
//!   counters in the time-series store even for a short-lived server.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bishop_core::{BishopConfig, BishopSimulator};
use bishop_engine::{EngineName, EngineRegistry, InferenceEngine, NativeEngine, SimulatorEngine};
use bishop_faults::{FaultInjectingEngine, FaultPlan};
use bishop_obs::{ObsConfig, ObsHub, SloAlert, SloSpec, SloTuning};
use bishop_runtime::{
    default_mixed_models, BatchPolicy, BreakerConfig, InferenceRequest, OnlineConfig, OnlineServer,
    RetryPolicy, RuntimeConfig, SamplerConfig,
};

fn simulator() -> Arc<dyn InferenceEngine> {
    Arc::new(SimulatorEngine::new(BishopSimulator::new(
        BishopConfig::default(),
    )))
}

/// A breaker that opens within a handful of forced failures and re-probes
/// quickly, so an outage → recovery cycle fits in a test.
fn fast_breaker() -> BreakerConfig {
    BreakerConfig {
        window: 8,
        error_threshold: 0.5,
        min_observations: 4,
        cooldown: Duration::from_millis(300),
        half_open_probes: 1,
        ..BreakerConfig::default()
    }
}

/// An event sink that captures the emitted JSON lines for assertions.
#[derive(Clone, Default)]
struct CaptureSink(Arc<Mutex<Vec<u8>>>);

impl CaptureSink {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl std::io::Write for CaptureSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn availability_budget_burns_through_a_forced_outage_and_recovers() {
    // One availability objective over short windows so the whole
    // burn-and-recover arc fits in seconds; alert thresholds low enough
    // that a near-total outage in the fast window trips fast-burn.
    let hub = Arc::new(ObsHub::new(
        ObsConfig::default()
            .with_slos(vec![SloSpec::good_ratio(
                "availability",
                0.999,
                "requests.ok",
                "requests.finished",
            )
            .with_windows(5.0, 2.5)])
            .with_slo_tuning(SloTuning {
                fast_burn_threshold: 8.0,
                slow_burn_threshold: 6.0,
            }),
    ));
    let sink = CaptureSink::default();
    hub.events.set_sink(Box::new(sink.clone()));

    let injector = Arc::new(FaultInjectingEngine::new(simulator(), FaultPlan::new()));
    let registry =
        EngineRegistry::new().with_engine(Arc::clone(&injector) as Arc<dyn InferenceEngine>);
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(1)))
            .with_batch_timeout(Some(Duration::from_millis(2)))
            .with_registry(Arc::new(registry))
            .with_retry_policy(RetryPolicy::disabled())
            .with_breaker(fast_breaker())
            .with_obs(Arc::clone(&hub))
            .with_sampler(
                SamplerConfig::default()
                    .with_intervals(Duration::from_millis(1), Duration::from_millis(25)),
            ),
    );
    let handle = server.handle();
    let entry = default_mixed_models().into_iter().next().expect("catalog");
    let mut next_id = 0u64;
    let mut submit_one = |wait: bool| {
        let request = InferenceRequest::new(next_id, Arc::clone(&entry), next_id % 4);
        next_id += 1;
        if let Ok(ticket) = handle.try_submit(request) {
            if wait {
                let _ = ticket.wait();
            } else {
                let _ = ticket.wait_for(Duration::from_millis(250));
            }
        }
    };

    // Healthy baseline: the objective is met and no alert is active.
    let healthy_until = Instant::now() + Duration::from_millis(800);
    while Instant::now() < healthy_until {
        submit_one(true);
        std::thread::sleep(Duration::from_millis(10));
    }
    let status = &hub.slo.evaluate(&hub.timeseries, None)[0];
    assert_eq!(status.alert, SloAlert::Ok, "healthy baseline: {status:?}");
    assert!(status.compliance > 0.99, "{status:?}");

    // Forced outage: every execution fails until the breaker opens, then
    // admission sheds into the open breaker — both burn availability.
    injector.set_forced(true);
    let tripping = Instant::now();
    loop {
        assert!(
            tripping.elapsed() < Duration::from_secs(10),
            "fast-burn alert never fired; last status {:?}",
            hub.slo.evaluate(&hub.timeseries, None)[0]
        );
        submit_one(false);
        std::thread::sleep(Duration::from_millis(10));
        let status = &hub.slo.evaluate(&hub.timeseries, None)[0];
        if status.alert == SloAlert::FastBurn {
            assert!(status.error_budget_remaining < 1.0, "{status:?}");
            assert!(status.compliance < 1.0, "{status:?}");
            assert!(
                status.burn_rate_fast >= 8.0,
                "fast burn must clear its threshold: {status:?}"
            );
            break;
        }
    }

    // Recovery: the fault lifts, the breaker re-closes off a clean probe,
    // and once the outage ages out of the budget window the alert returns
    // to ok.
    injector.set_forced(false);
    let recovering = Instant::now();
    loop {
        assert!(
            recovering.elapsed() < Duration::from_secs(20),
            "objective never recovered; last status {:?}",
            hub.slo.evaluate(&hub.timeseries, None)[0]
        );
        submit_one(false);
        std::thread::sleep(Duration::from_millis(20));
        if hub.slo.evaluate(&hub.timeseries, None)[0].alert == SloAlert::Ok {
            break;
        }
    }

    server.shutdown();

    // The arc is on the event log: an edge-triggered fast-burn alert and
    // an edge-triggered recovery, tagged with the objective's name.
    let events = sink.text();
    assert!(
        events.contains("\"event\":\"slo_fast_burn\""),
        "missing fast-burn alert: {events}"
    );
    assert!(
        events.contains("\"event\":\"slo_recovered\""),
        "missing recovery event: {events}"
    );
    assert!(events.contains("\"slo\":\"availability\""), "{events}");
}

#[test]
fn profiler_attributes_a_saturating_native_flood_to_engine_execute() {
    // Two engines so the profiler must separate a saturated native worker
    // from an idle simulator worker; a fine profile interval so the flood
    // collects plenty of samples.
    let registry = EngineRegistry::new()
        .with_engine(simulator())
        .with_engine(Arc::new(NativeEngine::new()));
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(8)))
            .with_batch_timeout(Some(Duration::from_millis(2)))
            .with_registry(Arc::new(registry))
            .with_sampler(
                SamplerConfig::default()
                    .with_intervals(Duration::from_micros(500), Duration::from_millis(50)),
            ),
    );
    let handle = server.handle();
    let obs = Arc::clone(handle.obs());
    let entry = default_mixed_models().into_iter().next().expect("catalog");

    // Drop the startup idle time from the tallies, then flood: a backlog
    // deep enough that the native worker never waits for work.
    obs.profiler.reset();
    let tickets: Vec<_> = (0..96)
        .map(|id| {
            handle
                .try_submit(
                    InferenceRequest::new(id, Arc::clone(&entry), id % 8)
                        .with_engine(EngineName::native()),
                )
                .expect("flood admitted")
        })
        .collect();
    for ticket in tickets {
        assert!(matches!(ticket.wait(), Some(Ok(_))), "flood must succeed");
    }
    let report = obs.profiler.report();

    let execute = report.fraction("native", "worker", "engine_execute");
    assert!(
        execute >= 0.8,
        "saturated native worker must spend >= 80% of wall-clock executing, \
         got {execute:.3}; collapsed: {:?}",
        report.collapsed()
    );
    let sim_idle = report.fraction("simulator", "worker", "idle");
    assert!(
        sim_idle >= 0.9,
        "unloaded simulator worker must read idle, got {sim_idle:.3}"
    );
    assert!(
        report
            .collapsed()
            .iter()
            .any(|line| line.starts_with("native/worker;engine_execute ")),
        "collapsed stacks must carry the hot frame: {:?}",
        report.collapsed()
    );

    server.shutdown();
}

#[test]
fn sampler_final_scrape_lands_counters_for_a_short_lived_server() {
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(4)))
            .with_batch_timeout(Some(Duration::from_millis(2)))
            .with_sampler(
                SamplerConfig::default()
                    .with_intervals(Duration::from_millis(1), Duration::from_millis(10)),
            ),
    );
    let handle = server.handle();
    let obs = Arc::clone(handle.obs());
    let entry = default_mixed_models().into_iter().next().expect("catalog");
    // Let the sampler's first scrape establish the zero baseline before
    // traffic, so every finished request lands in the window deltas.
    std::thread::sleep(Duration::from_millis(30));
    let tickets: Vec<_> = (0..8)
        .map(|id| {
            handle
                .try_submit(InferenceRequest::new(id, Arc::clone(&entry), id))
                .expect("admitted")
        })
        .collect();
    for ticket in tickets {
        assert!(matches!(ticket.wait(), Some(Ok(_))));
    }
    server.shutdown();

    // The shutdown-path scrape guarantees the counters landed even if the
    // server lived for less than one metrics interval.
    let names = obs.timeseries.series_names();
    for required in [
        "requests.submitted",
        "requests.ok",
        "requests.finished",
        "queue_depth.all",
        "queue_depth.simulator",
        "engine.completed.simulator",
        "breaker_state.simulator",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "missing series {required}; got {names:?}"
        );
    }
    let now = obs.timeseries.now_seconds();
    assert!(obs.timeseries.window_sum("requests.ok", 120.0, now) >= 8.0);
    assert_eq!(
        obs.timeseries.window_sum("requests.failed", 120.0, now),
        0.0
    );
}

#[test]
fn native_compute_resolution_is_logged_at_boot() {
    // A forced pool width of 3 (independent of the host's core count) must
    // surface in one structured boot line recording the resolved SIMD tier
    // and width.
    let hub = Arc::new(ObsHub::default());
    let sink = CaptureSink::default();
    hub.events.set_sink(Box::new(sink.clone()));
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::sequential()))
            .with_native_compute_workers(3)
            .with_sampler(SamplerConfig::disabled())
            .with_obs(Arc::clone(&hub)),
    );

    let events = sink.text();
    assert_eq!(
        events
            .matches("\"event\":\"native_compute_resolved\"")
            .count(),
        1,
        "exactly one boot event: {events}"
    );
    assert!(events.contains("\"compute_workers\":3"), "{events}");
    assert!(
        ["scalar", "neon", "avx2", "avx512"]
            .iter()
            .any(|tier| events.contains(&format!("\"simd_tier\":\"{tier}\""))),
        "boot event must name a known SIMD tier: {events}"
    );
    server.shutdown();
}
