//! Backpressure and admission-control behaviour of the bounded submission
//! queue: a full queue must *reject* (never deadlock or block the caller),
//! and every shed request must be accounted for in the serving outcome.

use std::sync::Arc;
use std::time::Duration;

use bishop_engine::EngineName;
use bishop_runtime::{
    default_mixed_models, mixed_trace, BatchPolicy, OnlineConfig, OnlineServer, Rejection,
    RuntimeConfig, Ticket,
};

fn overloaded_config(max_pending: usize) -> OnlineConfig {
    OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(4)).with_queue_capacity(1))
        .with_max_pending(max_pending)
        .with_batch_timeout(Some(Duration::from_millis(1)))
}

#[test]
fn full_queue_rejects_instead_of_deadlocking() {
    let server = OnlineServer::start(overloaded_config(1));
    let handle = server.handle();
    let trace = mixed_trace(&default_mixed_models(), 64, 2, 11);

    let mut tickets: Vec<Ticket> = Vec::new();
    let mut rejected = 0u64;
    for request in trace {
        match handle.try_submit(request) {
            Ok(ticket) => tickets.push(ticket),
            Err(Rejection::QueueFull) => rejected += 1,
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    // One pending request at a time, 64 back-to-back submissions: shedding
    // must kick in long before the pool can drain the earlier admissions.
    assert!(rejected > 0, "overload must shed, not absorb");

    // Every admitted request still completes: no deadlock, no lost ticket.
    let admitted = tickets.len() as u64;
    for ticket in tickets {
        ticket
            .wait()
            .expect("admitted requests complete")
            .expect("simulator engine executes every batch");
    }
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 64);
    assert_eq!(stats.admitted, admitted);
    assert_eq!(stats.completed, admitted);
    assert_eq!(stats.queue_depth, 0, "nothing left pending after shutdown");
    assert_eq!(stats.backlog_ops, 0);

    // The outcome accounts for every submission: completed + shed == offered.
    assert_eq!(stats.admission.queue_full, rejected);
    assert_eq!(stats.completed + stats.admission.total(), stats.submitted);
}

#[test]
fn zero_capacity_sheds_everything() {
    let server = OnlineServer::start(overloaded_config(0));
    let handle = server.handle();
    for request in mixed_trace(&default_mixed_models(), 8, 2, 5) {
        assert_eq!(handle.try_submit(request).err(), Some(Rejection::QueueFull));
    }
    let stats = server.shutdown();
    assert_eq!(stats.admission.queue_full, 8);
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.submitted, 8);
}

#[test]
fn deadline_admission_sheds_when_backlog_outlasts_the_deadline() {
    // A drain rate of 1 op/s makes any non-empty backlog outlast a 1 ms
    // deadline, so the first admission poisons every later deadline submit
    // until it completes.
    let config = OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(8)))
        .with_batch_timeout(None)
        .with_engine_drain_seed(EngineName::simulator(), 1.0);
    let server = OnlineServer::start(config);
    let handle = server.handle();
    let mut trace = mixed_trace(&default_mixed_models(), 2, 1, 21);

    let second = trace.pop().unwrap();
    let first = trace.pop().unwrap();
    let ticket = handle
        .try_submit_with_deadline(first, Duration::from_millis(1))
        .expect("empty backlog admits any deadline");
    assert_eq!(
        handle
            .try_submit_with_deadline(second, Duration::from_millis(1))
            .err(),
        Some(Rejection::DeadlineUnmeetable),
    );

    handle.flush();
    ticket
        .wait()
        .expect("admitted request completes")
        .expect("simulator engine executes the batch");
    let stats = server.shutdown();
    assert_eq!(stats.admission.deadline, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.completed + stats.admission.total(), stats.submitted);
}

#[test]
fn flush_closes_partial_batches() {
    let config =
        OnlineConfig::new(RuntimeConfig::new(2, BatchPolicy::new(8))).with_batch_timeout(None);
    let server = OnlineServer::start(config);
    let handle = server.handle();
    // 3 < max_batch_size compatible requests: without a flush (and with the
    // timeout disabled) these would sit in the former forever.
    let single_model = vec![default_mixed_models().remove(0)];
    let tickets: Vec<Ticket> = mixed_trace(&single_model, 3, 3, 31)
        .into_iter()
        .map(|r| handle.try_submit(r).expect("admitted"))
        .collect();
    handle.flush();
    for ticket in tickets {
        let response = ticket
            .wait()
            .expect("flush closed the batch")
            .expect("simulator engine executes the batch");
        assert_eq!(response.batch_size, 3);
    }
    server.shutdown();
}

#[test]
fn submitters_racing_shutdown_lose_no_ticket() {
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(2, BatchPolicy::new(4)))
            .with_batch_timeout(Some(Duration::from_millis(1))),
    );
    let handle = server.handle();
    let models = Arc::new(default_mixed_models());
    let submitters: Vec<_> = (0..4)
        .map(|_| {
            let handle = server.handle();
            let models = Arc::clone(&models);
            std::thread::spawn(move || {
                mixed_trace(&models, 200, 1, 7)
                    .into_iter()
                    .filter_map(|request| handle.try_submit(request).ok())
                    .collect::<Vec<Ticket>>()
            })
        })
        .collect();
    // Shut down part-way through the submission storm.
    while handle.stats().submitted < 200 {
        std::thread::yield_now();
    }
    server.shutdown();

    for submitter in submitters {
        for ticket in submitter.join().expect("submitter thread") {
            ticket
                .wait()
                .expect("every admitted ticket resolves")
                .expect("simulator engine executes every batch");
        }
    }
    let stats = handle.stats();
    assert_eq!(stats.submitted, 800);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.completed + stats.admission.total(), stats.submitted);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.backlog_ops, 0);
}

#[test]
fn queue_capacity_bounds_riders_waiting_in_the_domain() {
    // `max_pending` has room, but one rider waiting in an open batch fills
    // a capacity-1 domain.
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(4)).with_queue_capacity(1))
            .with_batch_timeout(None),
    );
    let handle = server.handle();
    let mut trace = mixed_trace(&[default_mixed_models().remove(0)], 3, 1, 41).into_iter();
    let first = handle.try_submit(trace.next().unwrap()).expect("admitted");
    assert_eq!(
        handle.try_submit(trace.next().unwrap()).err(),
        Some(Rejection::QueueFull)
    );
    handle.flush();
    first.wait().expect("resolves").expect("executes");
    // The worker took the batch, freeing the slot.
    let third = handle.try_submit(trace.next().unwrap()).expect("admitted");
    handle.flush();
    third.wait().expect("resolves").expect("executes");
    let stats = server.shutdown();
    assert_eq!(stats.admission.queue_full, 1);
    assert_eq!(stats.completed, 2);
}
