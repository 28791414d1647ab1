//! The runtime's determinism guarantee: with the batch timeout disabled,
//! the same seed and the same traffic trace produce identical per-request
//! batch assignments and simulated results regardless of worker count.

use bishop_runtime::{
    default_mixed_models, mixed_trace, BatchPolicy, InferenceRequest, OnlineConfig, OnlineServer,
    RuntimeConfig, Ticket,
};

/// What one request resolved to: `(request_id, batch_id, batch_size,
/// latency_seconds, output.cycles, output.energy_mj)`.
type Served = (u64, u64, usize, f64, u64, f64);

/// Replays `trace` in order through a timing-free server (batches close on
/// size or the final flush only) and returns the responses in trace order.
fn serve(workers: usize, trace: Vec<InferenceRequest>) -> Vec<Served> {
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(workers, BatchPolicy::new(4)))
            .with_batch_timeout(None),
    );
    let handle = server.handle();
    let tickets: Vec<Ticket> = trace
        .into_iter()
        .map(|request| handle.try_submit(request).expect("admitted"))
        .collect();
    handle.flush();
    let served = tickets
        .into_iter()
        .map(|ticket| {
            let r = ticket
                .wait()
                .expect("every ticket resolves")
                .expect("simulator executes every batch");
            (
                r.request_id,
                r.batch_id,
                r.batch_size,
                r.latency_seconds,
                r.output.cycles,
                r.output.energy_mj,
            )
        })
        .collect();
    server.shutdown();
    served
}

fn serve_with_workers(workers: usize) -> Vec<Served> {
    serve(workers, mixed_trace(&default_mixed_models(), 24, 3, 77))
}

#[test]
fn responses_are_identical_for_1_2_and_4_workers() {
    let one = serve_with_workers(1);
    assert_eq!(one.len(), 24);
    assert_eq!(one, serve_with_workers(2));
    assert_eq!(one, serve_with_workers(4));
}

#[test]
fn repeated_runs_with_the_same_trace_are_identical() {
    assert_eq!(serve_with_workers(2), serve_with_workers(2));
}

#[test]
fn different_seeds_change_the_results() {
    let models = default_mixed_models();
    let cycles = |seed: u64| -> Vec<u64> {
        serve(2, mixed_trace(&models, 8, 2, seed))
            .iter()
            .map(|served| served.4)
            .collect()
    };
    assert_ne!(cycles(1), cycles(2));
}
