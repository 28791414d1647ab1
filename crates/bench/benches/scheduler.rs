//! Scheduling-domain isolation: cheap simulator probes, solo and beside a
//! native flood.
//!
//! The scenario reproduces the serving stack's heterogeneity problem at the
//! runtime level: a flood of slow `native` batches (real word-parallel CPU
//! forward passes) is queued, and cheap `simulator` probes are submitted
//! open-loop (fixed spacing) *while the flood drains*. Each engine has its
//! own scheduling domain, so a probe rides its own queue and workers and
//! pays only execution (plus, on core-starved machines, OS-level CPU
//! contention, which no queueing policy can remove) — on one shared queue
//! and pool it waited out the remaining native backlog, a mixed p95 10.1×
//! worse on the host that last measured both.
//!
//! Results are printed and written to `BENCH_scheduler.json` at the
//! workspace root. Acceptance: mixed p95 stays within 2× of the solo p95
//! whenever the machine has enough cores for the domains to actually run
//! in parallel (> 2). On smaller machines CPU contention is physically
//! unavoidable and the bench only records; the queueing property itself is
//! pinned on every host by `scheduling.rs`'s
//! `native_flood_does_not_head_of_line_block_simulator`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use bishop_engine::EngineName;
use bishop_runtime::{
    default_mixed_models, BatchPolicy, InferenceRequest, OnlineConfig, OnlineServer, RuntimeConfig,
    Ticket,
};

/// Open-loop simulator probes per phase.
const SIM_PROBES: usize = 32;
/// Spacing between probe submissions (the probe window must sit inside the
/// native flood's drain time).
const SIM_SPACING: Duration = Duration::from_millis(5);
/// Native flood size (submitted up front, drains in the background).
const NATIVE_FLOOD: usize = 96;

fn config() -> OnlineConfig {
    OnlineConfig::new(RuntimeConfig::new(2, BatchPolicy::new(8)).with_queue_capacity(1024))
        .with_batch_timeout(Some(Duration::from_millis(1)))
        .with_max_pending(8192)
}

fn baseline_entry() -> Arc<bishop_engine::CatalogEntry> {
    default_mixed_models()
        .into_iter()
        .find(|e| e.options.ecp_threshold.is_none())
        .expect("cifar entry serves baseline options")
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1).min(sorted.len()) - 1]
}

/// Submits `SIM_PROBES` simulator requests open-loop, `SIM_SPACING` apart
/// (each from its own thread, so a blocked probe never delays the next),
/// and returns the sorted per-request wall latencies in seconds. A fixed
/// trace seed keeps the probes result-cache-warm after the first, so the
/// latency measures *scheduling*, not simulation.
fn probe_loadgen(server: &OnlineServer, base_id: u64) -> Vec<f64> {
    let entry = baseline_entry();
    let probes: Vec<_> = (0..SIM_PROBES)
        .map(|i| {
            let handle = server.handle();
            let entry = Arc::clone(&entry);
            std::thread::spawn(move || {
                std::thread::sleep(SIM_SPACING * i as u32);
                let request = InferenceRequest::new(base_id + i as u64, entry, 7);
                let started = Instant::now();
                let ticket = loop {
                    match handle.try_submit(request.clone()) {
                        Ok(ticket) => break ticket,
                        Err(_) => std::thread::sleep(Duration::from_micros(200)),
                    }
                };
                ticket
                    .wait()
                    .expect("server answers every admitted probe")
                    .expect("simulator executes");
                started.elapsed().as_secs_f64()
            })
        })
        .collect();
    let mut latencies: Vec<f64> = probes
        .into_iter()
        .map(|p| p.join().expect("probe thread"))
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN latency"));
    latencies
}

/// Solo probe p50/p95, then the same probes under a co-located native
/// flood. Returns (solo_p50, solo_p95, mixed_p50, mixed_p95,
/// native_flood_seconds).
fn measure() -> (f64, f64, f64, f64, f64) {
    let server = OnlineServer::start(config());
    let entry = baseline_entry();

    // Warm both engines (simulator result cache, native weight cache) so
    // the measured phases compare scheduling, not first-touch costs.
    let warm_sim = probe_loadgen(&server, 900_000);
    assert_eq!(warm_sim.len(), SIM_PROBES);
    let warm_native =
        InferenceRequest::new(950_000, Arc::clone(&entry), 0).with_engine(EngineName::native());
    server
        .handle()
        .try_submit(warm_native)
        .expect("admitted")
        .wait()
        .expect("resolved")
        .expect("native executes");

    let solo = probe_loadgen(&server, 0);
    let (solo_p50, solo_p95) = (percentile(&solo, 0.5), percentile(&solo, 0.95));

    // Queue the native flood, then probe while it drains.
    let handle = server.handle();
    let flood_started = Instant::now();
    let native_tickets: Vec<Ticket> = (0..NATIVE_FLOOD)
        .map(|i| {
            let request = InferenceRequest::new(100_000 + i as u64, Arc::clone(&entry), i as u64)
                .with_engine(EngineName::native());
            handle.try_submit(request).expect("flood admitted")
        })
        .collect();
    let mixed = probe_loadgen(&server, 10_000);
    let (mixed_p50, mixed_p95) = (percentile(&mixed, 0.5), percentile(&mixed, 0.95));
    for ticket in native_tickets {
        ticket
            .wait()
            .expect("native tickets resolve")
            .expect("native executes");
    }
    let native_seconds = flood_started.elapsed().as_secs_f64();
    server.shutdown();
    (solo_p50, solo_p95, mixed_p50, mixed_p95, native_seconds)
}

fn bench_scheduler(c: &mut Criterion) {
    // Microbench: one deadline'd auto-dispatch round trip on a warm stack
    // (admission + autoselection + batching + execution on the engine the
    // dispatcher picks — native, since the deadline is loose).
    let server = OnlineServer::start(config());
    let handle = server.handle();
    let entry = baseline_entry();
    let mut group = c.benchmark_group("scheduler");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let mut id = 0u64;
    group.bench_function("auto_dispatch_roundtrip", |b| {
        b.iter(|| {
            let request = InferenceRequest::new(id, Arc::clone(&entry), id % 4)
                .with_engine(EngineName::auto());
            id += 1;
            let ticket = handle
                .try_submit_with_deadline(request, Duration::from_secs(5))
                .expect("admitted");
            ticket.wait().expect("resolved").expect("executed");
        })
    });
    group.finish();
    server.shutdown();

    let (solo_p50, solo_p95, mixed_p50, mixed_p95, native_s) = measure();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let blowup = mixed_p95 / solo_p95.max(1e-9);
    println!(
        "scheduler isolation ({cores} cores; simulator probe latency while a native \
         flood of {NATIVE_FLOOD} drains):"
    );
    println!(
        "  solo p50 {:.3} ms p95 {:.3} ms | mixed p50 {:.3} ms p95 {:.3} ms \
         ({blowup:.1}x solo p95; flood drained in {native_s:.2} s)",
        solo_p50 * 1e3,
        solo_p95 * 1e3,
        mixed_p50 * 1e3,
        mixed_p95 * 1e3,
    );

    // Acceptance. With cores to run domains in parallel, co-located native
    // load may cost the simulator at most 2x its solo p95. On one or two
    // cores, queue isolation still works but CPU contention is physically
    // unavoidable, so the numbers are recorded without a bar.
    if cores > 2 {
        assert!(
            mixed_p95 <= 2.0 * solo_p95,
            "mixed p95 {:.3} ms exceeds 2x solo p95 {:.3} ms",
            mixed_p95 * 1e3,
            solo_p95 * 1e3,
        );
    }

    let json = format!(
        "{{\n  \"cores\": {cores},\n  \"native_flood_requests\": {NATIVE_FLOOD},\n  \
         \"sim_probes\": {SIM_PROBES},\n  \
         \"isolated\": {{\"solo_p50_ms\": {:.4}, \"solo_p95_ms\": {:.4}, \
         \"mixed_p50_ms\": {:.4}, \"mixed_p95_ms\": {:.4}, \"blowup_vs_solo\": {:.2}}}\n}}\n",
        solo_p50 * 1e3,
        solo_p95 * 1e3,
        mixed_p50 * 1e3,
        mixed_p95 * 1e3,
        blowup,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scheduler.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
