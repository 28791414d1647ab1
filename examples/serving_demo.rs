//! Serving demo: drive mixed CIFAR-10 / ImageNet-100 traffic through the
//! `bishop-runtime` online server in-process (no HTTP) and compare the
//! pre-runtime status quo (a sequential synthesize-and-simulate loop per
//! request) against batched multi-worker serving, cold and cache-warm.
//!
//! Run with `cargo run --release --example serving_demo`.

use std::time::Instant;

use bishop::prelude::*;
use bishop::runtime::{cache::synthesize, default_mixed_models, mixed_trace};

fn main() {
    // 1. A mixed traffic trace: the paper's two headline image models at
    //    serving scale, with a small seed pool so traffic repeats the way
    //    real retry/replay traffic does.
    let models = default_mixed_models();
    let trace = mixed_trace(&models, 64, 4, 42);
    println!("traffic: {} requests over:", trace.len());
    for entry in &models {
        println!(
            "  - {} ({:?}, ecp={:?})",
            entry.config, entry.regime, entry.options.ecp_threshold
        );
    }

    // 2. The pre-runtime status quo: one workload synthesis and one
    //    simulation per request, sequentially, nothing shared.
    let simulator = BishopSimulator::new(BishopConfig::default());
    let start = Instant::now();
    let mut sequential_cycles = 0;
    for request in &trace {
        let workload = synthesize(request.model(), request.regime, request.seed);
        sequential_cycles += simulator
            .simulate(&workload, &request.options)
            .total_cycles();
    }
    let sequential_rps = trace.len() as f64 / start.elapsed().as_secs_f64();
    println!("\nsequential loop : {sequential_rps:.1} req/s, {sequential_cycles} simulated cycles");

    // 3. The online server: compatible requests coalesce into
    //    Token-Time-Bundle-aligned batches (8 requests or 2 ms) and shard
    //    across 4 simulated Bishop chip instances, with workload + result
    //    memoization. Every submission returns a ticket; nothing blocks.
    let server = OnlineServer::start(OnlineConfig::new(RuntimeConfig::new(
        4,
        BatchPolicy::new(8),
    )));
    let handle = server.handle();
    let serve = |label: &str| {
        let before = handle.stats();
        let start = Instant::now();
        let tickets: Vec<Ticket> = trace
            .iter()
            .map(|request| handle.try_submit(request.clone()).expect("admitted"))
            .collect();
        for ticket in tickets {
            ticket.wait().expect("answered").expect("executed");
        }
        let rps = trace.len() as f64 / start.elapsed().as_secs_f64();
        let after = handle.stats();
        println!(
            "{label} : {rps:.1} req/s ({:.2}x), {} batches, {} simulated cycles",
            rps / sequential_rps,
            after.batches_executed - before.batches_executed,
            after.total_simulated_cycles - before.total_simulated_cycles,
        );
    };
    serve("batched, cold  ");
    // 4. The identical trace again: the result cache now answers every
    //    batch without simulating at all.
    serve("batched, warm  ");

    let stats = server.shutdown();
    let shed = stats.admission.total();
    println!("\nserved {} requests, shed {shed}", stats.completed);
}
