//! Scheduling-domain behaviour: head-of-line isolation between engine
//! domains and deadline-aware `"auto"` engine selection.
//!
//! The isolation test reproduces the pre-domain failure mode — a flood of
//! slow `native` batches monopolizing the worker pool while cheap
//! `simulator` requests starve behind them — and asserts the per-engine
//! domains prevent it. The autoselection tests pin the dispatch policy: a
//! tight deadline degrades to the fast engine, a loose one gets real
//! execution, and an impossible one sheds typed. The pull tests pin how a
//! domain's workers share its batches: a stalled worker is never handed
//! more work, and the batch timeout closes batches even while every worker
//! is busy.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bishop_core::{BishopConfig, BishopSimulator};
use bishop_engine::{EngineName, EngineRegistry, SimulatorEngine};
use bishop_faults::{FaultInjectingEngine, FaultPlan};
use bishop_runtime::{
    default_mixed_models, BatchPolicy, InferenceRequest, OnlineConfig, OnlineServer, Rejection,
    RuntimeConfig, Ticket,
};

/// The non-ECP catalog entry (cifar10-serve): executable on every engine.
fn baseline_entry() -> Arc<bishop_engine::CatalogEntry> {
    default_mixed_models()
        .into_iter()
        .find(|e| e.options.ecp_threshold.is_none())
        .expect("cifar entry serves baseline options")
}

#[test]
fn native_flood_does_not_head_of_line_block_simulator() {
    // One worker per domain — the configuration where the pre-domain
    // failure mode was total: a single shared worker would serve every
    // queued native batch before touching a simulator batch.
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(4)))
            .with_batch_timeout(Some(Duration::from_millis(1)))
            .with_max_pending(4096),
    );
    let handle = server.handle();
    let entry = baseline_entry();

    // Flood the native domain: 64 real CPU forward passes (batches of ≤ 4)
    // keep its single worker busy for a long stretch.
    let native_tickets: Vec<Ticket> = (0..64)
        .map(|i| {
            let request =
                InferenceRequest::new(i, Arc::clone(&entry), i).with_engine(EngineName::native());
            handle.try_submit(request).expect("admitted")
        })
        .collect();

    // Simulator traffic submitted *behind* the flood must still resolve
    // promptly: it rides its own domain, queue and worker.
    let started = Instant::now();
    let simulator_tickets: Vec<Ticket> = (0..16)
        .map(|i| {
            let request = InferenceRequest::new(1000 + i, Arc::clone(&entry), i)
                .with_engine(EngineName::simulator());
            handle.try_submit(request).expect("admitted")
        })
        .collect();
    for ticket in &simulator_tickets {
        ticket
            .wait_for(Duration::from_secs(10))
            .expect("simulator tickets resolve while the native flood runs")
            .expect("simulator executes");
    }
    let simulator_elapsed = started.elapsed();

    // The native flood must still be in progress when the last simulator
    // ticket resolved — i.e. the simulator traffic did NOT wait for it.
    let native_backlog_at_sim_done: usize = handle
        .engine_stats()
        .iter()
        .find(|e| e.engine == EngineName::native())
        .expect("native domain stats")
        .queue_depth;
    assert!(
        native_backlog_at_sim_done > 0,
        "the native flood should outlast the simulator traffic \
         (native queue drained in {simulator_elapsed:?}; widen the flood if \
          this machine is exceptionally fast)"
    );

    // Every native ticket still completes — isolation, not starvation.
    let native_started = Instant::now();
    for ticket in native_tickets {
        ticket
            .wait_for(Duration::from_secs(60))
            .expect("native tickets resolve")
            .expect("native executes");
    }
    let native_elapsed = native_started.elapsed();
    assert!(
        simulator_elapsed < native_elapsed + Duration::from_millis(1),
        "simulator traffic ({simulator_elapsed:?}) must not wait out the \
         native flood ({native_elapsed:?} more)"
    );

    let stats = server.shutdown();
    assert_eq!(stats.completed, 80);
    assert_eq!(stats.failed, 0);
    let per_engine = |name: &str| {
        stats
            .engines
            .iter()
            .find(|e| e.engine.as_str() == name)
            .expect("engine stats")
            .clone()
    };
    assert_eq!(per_engine("native").completed, 64);
    assert_eq!(per_engine("simulator").completed, 16);
    assert!(
        per_engine("native").drain_observations > 0,
        "native completions must feed calibration"
    );
}

#[test]
fn auto_routes_tight_deadlines_to_simulator_and_loose_ones_to_native() {
    // Pin the calibration seeds so the test controls the predictions:
    // native drains 1e3 ops/s (a cifar request of ~1e8 ops predicts ~1e5 s),
    // simulator drains 1e12 ops/s (the same request predicts ~100 µs).
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(1)))
            .with_batch_timeout(None)
            .with_engine_drain_seed(EngineName::native(), 1e3)
            .with_engine_drain_seed(EngineName::simulator(), 1e12),
    );
    let handle = server.handle();
    let entry = baseline_entry();
    let auto =
        |id: u64| InferenceRequest::new(id, Arc::clone(&entry), id).with_engine(EngineName::auto());

    // Tight deadline: native's predicted completion (~1e5 s) blows it,
    // simulator's (~100 µs) meets it — degrade to simulator.
    let tight = handle
        .try_submit_with_deadline(auto(0), Duration::from_millis(50))
        .expect("simulator meets the tight deadline");
    // Loose deadline: native's predicted completion fits — prefer real
    // execution.
    let loose = handle
        .try_submit_with_deadline(auto(1), Duration::from_secs(1_000_000))
        .expect("native meets the loose deadline");
    // No deadline at all: the most-preferred supporting engine (native).
    let unconstrained = handle.try_submit(auto(2)).expect("admitted");

    handle.flush();
    let tight = tight.wait().expect("resolved").expect("executed");
    let loose = loose.wait().expect("resolved").expect("executed");
    let unconstrained = unconstrained.wait().expect("resolved").expect("executed");
    assert_eq!(tight.engine(), "simulator", "tight deadline degrades");
    assert_eq!(
        loose.engine(),
        "native",
        "loose deadline gets real execution"
    );
    assert_eq!(
        unconstrained.engine(),
        "native",
        "no deadline prefers native"
    );

    let stats = server.shutdown();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.admission.no_engine, 0);
}

#[test]
fn auto_sheds_typed_when_no_engine_meets_the_deadline() {
    // Both candidates seeded at 1 op/s: a ~1e8-op request predicts ~3 years
    // on either engine; any realistic deadline is unmeetable.
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(1)))
            .with_batch_timeout(None)
            .with_engine_drain_seed(EngineName::native(), 1.0)
            .with_engine_drain_seed(EngineName::simulator(), 1.0),
    );
    let handle = server.handle();
    let request = InferenceRequest::new(0, baseline_entry(), 1).with_engine(EngineName::auto());
    assert_eq!(
        handle
            .try_submit_with_deadline(request, Duration::from_secs(1))
            .err(),
        Some(Rejection::NoEngineMeetsDeadline)
    );
    let stats = server.shutdown();
    assert_eq!(stats.admission.no_engine, 1);
    assert_eq!(stats.completed, 0);
    assert_eq!(
        stats.completed + stats.admission.total(),
        stats.submitted,
        "every submission is accounted for"
    );
}

#[test]
fn auto_respects_deadlines_as_calibration_learns() {
    // Acceptance property: an "auto" request never resolves on an engine
    // whose predicted completion exceeded its deadline at admission. Drive
    // a stream of deadline'd auto requests while completions recalibrate
    // the drain rates; every admitted request must have been routed to an
    // engine that predicted in-budget completion (asserted structurally:
    // admission only returns a ticket when the dispatcher found one).
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(4)))
            .with_batch_timeout(Some(Duration::from_millis(1))),
    );
    let handle = server.handle();
    let entry = baseline_entry();
    let mut admitted = Vec::new();
    let mut shed = 0u64;
    for i in 0..32 {
        let request =
            InferenceRequest::new(i, Arc::clone(&entry), i % 4).with_engine(EngineName::auto());
        match handle.try_submit_with_deadline(request, Duration::from_millis(200)) {
            Ok(ticket) => admitted.push(ticket),
            Err(Rejection::NoEngineMeetsDeadline) => shed += 1,
            Err(other) => panic!("unexpected rejection {other}"),
        }
    }
    handle.flush();
    for ticket in admitted {
        let response = ticket
            .wait_for(Duration::from_secs(30))
            .expect("admitted auto requests resolve")
            .expect("executed");
        // Whatever engine won, it is a concrete registered one.
        assert!(
            response.engine() == "native" || response.engine() == "simulator",
            "auto resolved on unexpected engine {}",
            response.engine()
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.admission.no_engine, shed);
    assert_eq!(stats.completed + stats.admission.total(), stats.submitted);
}

#[test]
fn domain_worker_overrides_size_each_pool_independently() {
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(2)))
            .with_batch_timeout(None)
            .with_domain_workers(EngineName::simulator(), 3),
    );
    let handle = server.handle();
    let entry = baseline_entry();
    // 6 simulator singletons across 3 workers: worker indices 0..3 appear.
    let tickets: Vec<Ticket> = (0..6)
        .map(|i| {
            let request = InferenceRequest::new(i, Arc::clone(&entry), i);
            handle.try_submit(request).expect("admitted")
        })
        .collect();
    handle.flush();
    for ticket in tickets {
        let response = ticket.wait().expect("resolved").expect("executed");
        assert!(
            response.worker < 3,
            "worker index {} outside the overridden pool",
            response.worker
        );
    }
    server.shutdown();
}

/// A simulator-only registry whose engine sleeps `delay` inside its first
/// execute call, plus the wrapper (to watch its call count).
fn first_call_delayed(delay: Duration) -> (Arc<EngineRegistry>, Arc<FaultInjectingEngine>) {
    let simulator = Arc::new(SimulatorEngine::new(BishopSimulator::new(
        BishopConfig::default(),
    )));
    let injector = Arc::new(FaultInjectingEngine::new(
        simulator,
        FaultPlan::new().delay_at(0, delay),
    ));
    let registry = EngineRegistry::new().with_engine(Arc::clone(&injector) as _);
    (Arc::new(registry), injector)
}

#[test]
fn a_stalled_worker_is_not_handed_more_work() {
    // Two workers, singleton batches of equal cost, and a first batch that
    // stalls its worker for 600 ms. Later batches must flow through the
    // idle worker: C resolves while A is still executing.
    let (registry, injector) = first_call_delayed(Duration::from_millis(600));
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(2, BatchPolicy::new(1))).with_registry(registry),
    );
    let handle = server.handle();
    let entry = baseline_entry();
    let submit = |id: u64| {
        handle
            .try_submit(InferenceRequest::new(id, Arc::clone(&entry), id))
            .expect("admitted")
    };

    let a = submit(0);
    // A must be the delayed call 0 before B can race it to the engine.
    while injector.calls() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let b = submit(1);
    b.wait().expect("B resolves").expect("B executes");
    let c = submit(2);
    c.wait().expect("C resolves").expect("C executes");
    assert!(
        a.try_wait().is_none(),
        "C queued behind the stalled worker instead of taking the idle one"
    );
    a.wait().expect("A resolves").expect("A executes");
    let stats = server.shutdown();
    assert_eq!(stats.completed, 3);
}

#[test]
fn batch_timeout_closes_batches_while_every_worker_is_busy() {
    // One worker, stuck 300 ms on A's batch. B and C are compatible and
    // arrive 20 ms apart, each past the other's 5 ms timeout: they must
    // ride separate singleton batches, not coalesce when the worker frees.
    let (registry, _) = first_call_delayed(Duration::from_millis(300));
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(4)))
            .with_batch_timeout(Some(Duration::from_millis(5)))
            .with_registry(registry),
    );
    let handle = server.handle();
    let entry = baseline_entry();
    let submit = |id: u64| {
        handle
            .try_submit(InferenceRequest::new(id, Arc::clone(&entry), id))
            .expect("admitted")
    };

    let a = submit(0);
    std::thread::sleep(Duration::from_millis(20));
    let b = submit(1);
    std::thread::sleep(Duration::from_millis(20));
    let c = submit(2);
    let [a, b, c] = [a, b, c].map(|t| t.wait().expect("resolves").expect("executes"));
    assert_eq!(a.batch_size, 1);
    assert_eq!((b.batch_size, c.batch_size), (1, 1));
    assert_ne!(b.batch_id, c.batch_id);
    server.shutdown();
}
