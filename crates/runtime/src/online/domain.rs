//! One scheduling domain: a bounded queue, a batcher and a dedicated
//! worker pool serving one engine.
//!
//! Every registered engine gets its own domain, so substrates can never
//! head-of-line-block each other: a multi-millisecond `native` batch
//! occupies only the native domain's workers while `simulator` traffic
//! keeps flowing through its own.

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bishop_engine::{EngineBatch, EngineError, EngineRegistry, StepEvent, StepSink};
use bishop_obs::{EventLevel, EventValue, ObsHub, Stage, StageSlot, WorkerStage};

use crate::batch::{BatchFormer, BatchKey, BatchPolicy, Batchable, RequestBatch};
use crate::request::{InferenceRequest, InferenceResponse};

use super::breaker::BreakerTransition;
use super::calibration::{add_f64, max_f64, EngineCells};
use super::retry::RetryPolicy;
use super::{ServeError, ServeResult, StatsCells};

/// One admitted request travelling through a domain batcher: the request
/// plus its completion channel and cached cost estimate.
#[derive(Debug)]
pub(crate) struct PendingRequest {
    pub(crate) request: InferenceRequest,
    pub(crate) completion: mpsc::Sender<ServeResult>,
    pub(crate) estimated_ops: u64,
    /// Bounded progress channel into the request's ticket, when the caller
    /// asked for streaming. Workers forward engine step events through it
    /// with `try_send` — a slow ticket reader drops events, never blocks
    /// the worker.
    pub(crate) progress: Option<mpsc::SyncSender<StepEvent>>,
}

/// Forwards engine step callbacks into a ticket's bounded progress channel
/// without ever blocking the worker, and counts what flowed (and what a
/// saturated channel dropped).
struct ProgressSink {
    progress: Option<mpsc::SyncSender<StepEvent>>,
    emitted: u64,
    dropped: u64,
}

impl StepSink for ProgressSink {
    fn on_step(&mut self, event: &StepEvent) {
        self.emitted += 1;
        if let Some(tx) = &self.progress {
            if tx.try_send(event.clone()).is_err() {
                self.dropped += 1;
            }
        }
    }
}

impl Batchable for PendingRequest {
    fn request(&self) -> &InferenceRequest {
        &self.request
    }
}

/// Messages flowing from handles into a domain's batcher thread.
pub(crate) enum Submission {
    Request(Box<PendingRequest>),
    Flush(mpsc::Sender<()>),
    Shutdown,
}

/// The thread half of a running domain, joined at shutdown.
#[derive(Debug)]
pub(crate) struct DomainThreads {
    batcher: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl DomainThreads {
    /// Joins the domain's batcher, then its workers (the batcher dropping
    /// its batch senders is what lets the workers drain and exit).
    pub(crate) fn join(self) {
        let _ = self.batcher.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Everything needed to boot one domain.
pub(crate) struct DomainSpec {
    /// The engine this domain serves (`None` only for the one engine-less
    /// domain an empty registry gets).
    pub(crate) engine: Option<Arc<EngineCells>>,
    /// Dedicated worker threads.
    pub(crate) workers: usize,
    /// Capacity of the domain's bounded submission channel.
    pub(crate) queue_capacity: usize,
    /// First batch id this domain's former assigns.
    pub(crate) batch_id_base: u64,
    /// Stride between consecutive batch ids (the domain count), keeping ids
    /// globally unique and deterministic across domains.
    pub(crate) batch_id_stride: u64,
    /// Batch-former policy.
    pub(crate) policy: BatchPolicy,
    /// Size-*or*-timeout batching window (`None` = size/flush only).
    pub(crate) batch_timeout: Option<Duration>,
    /// Bundle shape batches are padded to.
    pub(crate) bundle: bishop_bundle::BundleShape,
    /// Engine resolution for the domain's workers.
    pub(crate) registry: Arc<EngineRegistry>,
    /// Global server counters.
    pub(crate) cells: Arc<StatsCells>,
    /// Observability hub: stage stamps for riders' traces, engine-error
    /// events from the workers.
    pub(crate) obs: Arc<ObsHub>,
    /// Retry loop tuning for the domain's workers.
    pub(crate) retry: RetryPolicy,
}

/// Boots one domain: its batcher thread and worker pool, returning the
/// bounded submission channel every [`ServerHandle`](super::ServerHandle)
/// clone feeds it through.
pub(crate) fn spawn_domain(spec: DomainSpec) -> (mpsc::SyncSender<Submission>, DomainThreads) {
    let (submit_tx, submit_rx) = mpsc::sync_channel::<Submission>(spec.queue_capacity);
    // Profiler attribution label: the name of the engine the domain serves.
    let profile_label = spec
        .engine
        .as_ref()
        .map_or("none", |engine| engine.name.as_str());
    let mut batch_txs = Vec::with_capacity(spec.workers);
    let mut workers = Vec::with_capacity(spec.workers);
    for index in 0..spec.workers {
        let (tx, rx) = mpsc::channel::<RequestBatch<PendingRequest>>();
        batch_txs.push(tx);
        workers.push(spawn_worker(
            index,
            rx,
            Arc::clone(&spec.registry),
            Arc::clone(&spec.cells),
            spec.engine.clone(),
            spec.bundle,
            Arc::clone(&spec.obs),
            spec.retry.clone(),
            spec.obs.profiler.register(profile_label, "worker"),
        ));
    }
    let batcher = spawn_batcher(
        submit_rx,
        batch_txs,
        Arc::clone(&spec.registry),
        spec.policy,
        spec.batch_timeout,
        spec.bundle,
        spec.batch_id_base,
        spec.batch_id_stride,
        spec.obs.profiler.register(profile_label, "batcher"),
    );
    (submit_tx, DomainThreads { batcher, workers })
}

/// Most riders one batch may hold for `request`'s engine: the largest count
/// whose *padded* fold (batched timesteps rounded up to the bundle multiple
/// `BSt`) stays within the engine's folded-timestep limit, so coalescing
/// never builds a batch the engine is known to refuse while each rider
/// alone would execute. (A model whose singleton fold already pads past the
/// limit caps at 1 and surfaces the engine's typed refusal.)
fn engine_batch_cap(
    registry: &EngineRegistry,
    request: &InferenceRequest,
    bundle: bishop_bundle::BundleShape,
) -> usize {
    registry
        .get(request.engine.as_str())
        .and_then(|engine| engine.descriptor().max_folded_timesteps)
        .map(|limit| {
            // Padding rounds folds up to a multiple of BSt, so the usable
            // budget is the largest such multiple at or below the limit.
            let usable = (limit / bundle.timesteps.max(1)) * bundle.timesteps.max(1);
            (usable / request.model().timesteps.max(1)).max(1)
        })
        .unwrap_or(usize::MAX)
}

/// Spawns a domain's batcher thread: drains the domain channel, forms
/// size-or-timeout batches (capped at the target engine's fold limit), and
/// dispatches them least-loaded across the domain's own workers.
#[allow(clippy::too_many_arguments)]
fn spawn_batcher(
    submit_rx: mpsc::Receiver<Submission>,
    batch_txs: Vec<mpsc::Sender<RequestBatch<PendingRequest>>>,
    registry: Arc<EngineRegistry>,
    policy: BatchPolicy,
    batch_timeout: Option<Duration>,
    bundle: bishop_bundle::BundleShape,
    batch_id_base: u64,
    batch_id_stride: u64,
    stage_slot: Arc<StageSlot>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let workers = batch_txs.len();
        let mut former =
            BatchFormer::<PendingRequest>::with_ids(policy, batch_id_base, batch_id_stride);
        // Open keys in arrival order of their oldest member, for the
        // timeout policy. Entries leave when their batch closes.
        let mut ages: Vec<(Instant, BatchKey)> = Vec::new();
        let mut load = vec![0u64; workers];
        let dispatch = |batch: RequestBatch<PendingRequest>, load: &mut [u64]| {
            // The batch just closed: every rider's batch-formation span ends
            // here (it began when the rider left the queue).
            for pending in &batch.requests {
                if let Some(trace) = &pending.request.trace {
                    trace.stamp(Stage::BatchFormation);
                }
            }
            let target = (0..workers)
                .min_by_key(|&w| (load[w], w))
                .expect("at least one worker");
            load[target] += batch.estimated_ops(bundle);
            // A worker hanging up mid-shutdown drops the batch; its tickets
            // resolve to `None` rather than deadlocking.
            let _ = batch_txs[target].send(batch);
        };

        'run: loop {
            // Wait for the next message, or — with a timeout policy and an
            // open batch — until the oldest open batch comes due. The
            // profiler sees the blocking wait as idle and everything after
            // a message (or a timeout tick) lands as batch formation.
            stage_slot.set(WorkerStage::Idle);
            let message = match (batch_timeout, ages.first()) {
                (Some(timeout), Some((opened, _))) => {
                    let due = *opened + timeout;
                    match due.checked_duration_since(Instant::now()) {
                        None => None, // already due: close aged batches below
                        Some(wait) => match submit_rx.recv_timeout(wait) {
                            Ok(message) => Some(message),
                            Err(mpsc::RecvTimeoutError::Timeout) => None,
                            Err(mpsc::RecvTimeoutError::Disconnected) => break 'run,
                        },
                    }
                }
                _ => match submit_rx.recv() {
                    Ok(message) => Some(message),
                    Err(_) => break 'run,
                },
            };

            stage_slot.set(WorkerStage::BatchFormation);
            match message {
                Some(Submission::Request(pending)) => {
                    if let Some(trace) = &pending.request.trace {
                        trace.stamp(Stage::QueueWait);
                    }
                    let key = BatchKey::from(pending.request());
                    // Stateful (session/streaming) requests never coalesce —
                    // membranes are per-sequence state — and must not sit in
                    // an open group waiting for batch-mates that can never
                    // arrive: cap 1 closes their singleton batch immediately.
                    let cap = if pending.request().stateful() {
                        1
                    } else {
                        engine_batch_cap(&registry, pending.request(), bundle)
                    };
                    let newly_opened = former.pending_count(&key) == 0;
                    match former.push_capped(*pending, cap) {
                        Some(batch) => {
                            ages.retain(|(_, k)| *k != key);
                            dispatch(batch, &mut load);
                        }
                        None if newly_opened => ages.push((Instant::now(), key)),
                        None => {}
                    }
                }
                Some(Submission::Flush(ack)) => {
                    for batch in former.flush() {
                        dispatch(batch, &mut load);
                    }
                    ages.clear();
                    let _ = ack.send(());
                }
                Some(Submission::Shutdown) => {
                    // Drain whatever raced in behind the shutdown marker so
                    // already-admitted requests still get served.
                    while let Ok(message) = submit_rx.try_recv() {
                        match message {
                            Submission::Request(pending) => {
                                if let Some(trace) = &pending.request.trace {
                                    trace.stamp(Stage::QueueWait);
                                }
                                let cap = if pending.request().stateful() {
                                    1
                                } else {
                                    engine_batch_cap(&registry, pending.request(), bundle)
                                };
                                if let Some(batch) = former.push_capped(*pending, cap) {
                                    dispatch(batch, &mut load);
                                }
                            }
                            Submission::Flush(ack) => {
                                let _ = ack.send(());
                            }
                            Submission::Shutdown => {}
                        }
                    }
                    break 'run;
                }
                None => {
                    // Timeout tick: close every batch whose oldest member
                    // has waited past the policy timeout.
                    let timeout = batch_timeout.expect("timeout tick implies a timeout policy");
                    let now = Instant::now();
                    while let Some((opened, _)) = ages.first() {
                        if *opened + timeout > now {
                            break;
                        }
                        let (_, key) = ages.remove(0);
                        if let Some(batch) = former.close_key(&key) {
                            dispatch(batch, &mut load);
                        }
                    }
                }
            }
        }

        stage_slot.set(WorkerStage::BatchFormation);
        for batch in former.flush() {
            dispatch(batch, &mut load);
        }
        stage_slot.set(WorkerStage::Idle);
        // Dropping the senders lets every worker drain its queue and exit.
    })
}

/// Emits one structured line for a breaker state transition. Opening is an
/// operator page (traffic is being refused); half-opening and closing are
/// recovery progress.
pub(crate) fn log_breaker_transition(obs: &ObsHub, engine: &str, transition: BreakerTransition) {
    let level = match transition {
        BreakerTransition::Opened => EventLevel::Warn,
        BreakerTransition::HalfOpened | BreakerTransition::Closed => EventLevel::Info,
    };
    obs.events.emit(
        level,
        transition.event(),
        &[("engine", EventValue::Str(engine))],
    );
}

/// Runs one execution attempt of `batch` with engine panics contained: a
/// panic is counted and becomes [`EngineError::Panicked`], so batch-mates
/// resolve to a typed error and the worker keeps draining (the engine is
/// behind an `Arc` and takes `&self`: no worker-local state can be left
/// torn). Stamps every traced rider's execute span and feeds the breaker —
/// health faults only; capability refusals say nothing about the engine.
/// Returns the outcome, its wall-clock seconds and whether it was a fault.
fn contained_attempt<T>(
    batch: &RequestBatch<PendingRequest>,
    engine_name: &'static str,
    engine_cells: Option<&EngineCells>,
    obs: &ObsHub,
    run: impl FnOnce() -> Result<T, EngineError>,
) -> (Result<T, EngineError>, f64, bool) {
    let started = Instant::now();
    let attempt =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|_| {
            if let Some(cells) = engine_cells {
                cells.panics.fetch_add(1, Ordering::AcqRel);
            }
            Err(EngineError::Panicked {
                engine: engine_name,
            })
        });
    let wall_seconds = started.elapsed().as_secs_f64();
    for pending in &batch.requests {
        if let Some(trace) = &pending.request.trace {
            trace.stamp(Stage::EngineExecute);
        }
    }
    let health_fault = attempt.as_ref().is_err_and(|e| e.retryable());
    if let Some(cells) = engine_cells {
        if let Some(transition) = cells.breaker.record(health_fault) {
            log_breaker_transition(obs, engine_name, transition);
        }
    }
    (attempt, wall_seconds, health_fault)
}

/// Settles one rider of an executed batch: takes it off the backlog and
/// queue-depth gauges and counts its outcome, on the global cells and then
/// on its engine's.
fn settle(cells: &StatsCells, engine: Option<&EngineCells>, estimated_ops: u64, ok: bool) {
    let global = (
        &cells.backlog_ops,
        &cells.pending,
        &cells.completed,
        &cells.failed,
    );
    let domain = engine.map(|e| (&e.backlog_ops, &e.pending, &e.completed, &e.failed));
    for (backlog_ops, pending, completed, failed) in [Some(global), domain].into_iter().flatten() {
        backlog_ops.fetch_sub(estimated_ops, Ordering::AcqRel);
        pending.fetch_sub(1, Ordering::AcqRel);
        let outcome = if ok { completed } else { failed };
        outcome.fetch_add(1, Ordering::AcqRel);
    }
}

/// Spawns one domain worker: executes batches on the engine each batch
/// names — containing engine panics with `catch_unwind` and retrying
/// retryable faults per the domain's [`RetryPolicy`] — resolves riders'
/// tickets, feeds the engine's circuit breaker with every attempt outcome,
/// and feeds the drain-rate calibration with the measured wall-clock of
/// every successful attempt.
#[allow(clippy::too_many_arguments)]
fn spawn_worker(
    index: usize,
    batch_rx: mpsc::Receiver<RequestBatch<PendingRequest>>,
    registry: Arc<EngineRegistry>,
    cells: Arc<StatsCells>,
    domain_engine: Option<Arc<EngineCells>>,
    bundle: bishop_bundle::BundleShape,
    obs: Arc<ObsHub>,
    retry: RetryPolicy,
    stage_slot: Arc<StageSlot>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // The blocking receive runs with Idle published; each batch body
        // publishes its stage transitions and restores Idle before the
        // next receive, so the sampling profiler attributes the worker's
        // wall-clock to execute / backoff / fan-out correctly.
        for batch in batch_rx {
            stage_slot.set(WorkerStage::EngineExecute);
            let batch_size = batch.len();
            let batch_ops: u64 = batch.requests.iter().map(|p| p.estimated_ops).sum();
            // Stateful (session/streaming) requests always form singleton
            // batches (the batcher caps them at 1); they execute on the
            // engine's streaming path below instead of `execute`.
            let stateful = batch_size == 1 && batch.requests[0].request.stateful();
            // Requests naming an unregistered engine ride domain 0 and
            // fail typed below; they are not this engine's to account.
            let engine_cells = domain_engine
                .as_deref()
                .filter(|e| e.name == *batch.engine());
            // Annotate every traced rider with where it executes: the batch
            // span id shared with its batch-mates and the concrete engine.
            // The execute span (worker queue + engine run) is stamped once
            // per *attempt* below, so retried requests show one
            // `engine_execute` span per attempt.
            for pending in &batch.requests {
                if let Some(trace) = &pending.request.trace {
                    trace.set_batch_id(batch.id);
                    trace.set_engine(batch.engine().as_str());
                }
            }

            let mut attempts: u32 = 0;
            let mut wall_seconds = 0.0;
            let outcome = match registry.get(batch.engine().as_str()) {
                None => Err(ServeError::UnknownEngine(batch.engine().clone())),
                Some(engine) if stateful => {
                    let engine_name = engine.descriptor().name;
                    let pending = &batch.requests[0];
                    let request = &pending.request;
                    // The streaming path executes the request's *base*
                    // configuration (no batch rename, no timestep padding):
                    // session continuations must resolve the same weights
                    // and the same memoized workload as the single long
                    // request would, or the split stops being bit-identical.
                    let engine_batch = EngineBatch {
                        config: request.entry.config.clone(),
                        regime: request.regime,
                        seed: request.seed,
                        options: request.options,
                        batch_size: 1,
                        batch_id: batch.id,
                    };
                    let steps = request.effective_steps();
                    let resume = request.resume.clone();
                    let mut sink = ProgressSink {
                        progress: pending.progress.clone(),
                        emitted: 0,
                        dropped: 0,
                    };
                    attempts = 1;
                    // One attempt, never retried: step events already
                    // reached the client, and replaying them after a
                    // mid-sequence fault would double-deliver timesteps.
                    let (attempt, seconds, _) =
                        contained_attempt(&batch, engine_name, engine_cells, &obs, || {
                            engine.execute_streaming(
                                &engine_batch,
                                steps,
                                resume.as_deref(),
                                &mut sink,
                            )
                        });
                    wall_seconds = seconds;
                    if let Some(cells) = &engine_cells {
                        cells
                            .stream_events
                            .fetch_add(sink.emitted, Ordering::AcqRel);
                    }
                    if sink.dropped > 0 {
                        obs.events.emit(
                            EventLevel::Warn,
                            "stream_events_dropped",
                            &[
                                ("engine", EventValue::Str(engine_name)),
                                ("batch_id", EventValue::U64(batch.id)),
                                ("dropped", EventValue::U64(sink.dropped)),
                            ],
                        );
                    }
                    match attempt {
                        Ok(streamed) => Ok((
                            streamed.output,
                            Some(Arc::new(streamed.state)),
                            streamed.logits,
                        )),
                        Err(error) => Err(ServeError::Engine(error)),
                    }
                }
                Some(engine) => {
                    let engine_name = engine.descriptor().name;
                    let engine_batch = batch.engine_batch(bundle);
                    loop {
                        attempts += 1;
                        let (attempt, seconds, health_fault) =
                            contained_attempt(&batch, engine_name, engine_cells, &obs, || {
                                engine.execute(&engine_batch)
                            });
                        wall_seconds = seconds;
                        match attempt {
                            Ok(output) => {
                                if let Some(cells) = &engine_cells {
                                    cells.retry_budget.refill();
                                    if attempts > 1 {
                                        cells.retries_recovered.fetch_add(1, Ordering::AcqRel);
                                    }
                                }
                                break Ok((output, None, None));
                            }
                            Err(error) => {
                                if health_fault && attempts < retry.max_attempts.max(1) {
                                    let budget_ok = engine_cells
                                        .as_ref()
                                        .is_some_and(|c| c.retry_budget.try_spend());
                                    if budget_ok {
                                        if let Some(cells) = &engine_cells {
                                            cells.retries_attempted.fetch_add(1, Ordering::AcqRel);
                                        }
                                        stage_slot.set(WorkerStage::RetryBackoff);
                                        std::thread::sleep(retry.backoff(attempts));
                                        stage_slot.set(WorkerStage::EngineExecute);
                                        continue;
                                    }
                                    if let Some(cells) = &engine_cells {
                                        cells.retry_budget_denied.fetch_add(1, Ordering::AcqRel);
                                    }
                                    obs.events.emit(
                                        EventLevel::Warn,
                                        "retry_budget_exhausted",
                                        &[
                                            ("engine", EventValue::Str(engine_name)),
                                            ("batch_id", EventValue::U64(batch.id)),
                                            ("code", EventValue::Str(error.code())),
                                        ],
                                    );
                                } else if health_fault && attempts > 1 {
                                    if let Some(cells) = &engine_cells {
                                        cells.retries_exhausted.fetch_add(1, Ordering::AcqRel);
                                    }
                                }
                                break Err(ServeError::Engine(error));
                            }
                        }
                    }
                }
            };
            if attempts > 1 {
                for pending in &batch.requests {
                    if let Some(trace) = &pending.request.trace {
                        trace.set_retries(attempts - 1);
                    }
                }
            }
            stage_slot.set(WorkerStage::ResponseFanout);
            match outcome {
                Ok((output, session_state, logits)) => {
                    let output = Arc::new(output);
                    let latency = output.latency_seconds;
                    cells.batches_executed.fetch_add(1, Ordering::AcqRel);
                    cells
                        .total_cycles
                        .fetch_add(output.cycles, Ordering::AcqRel);
                    add_f64(&cells.energy_mj_bits, output.energy_mj);
                    add_f64(&cells.latency_sum_bits, latency * batch_size as f64);
                    max_f64(&cells.latency_max_bits, latency);
                    if let Some(engine) = &engine_cells {
                        engine.batches_executed.fetch_add(1, Ordering::AcqRel);
                        engine.drain.observe(batch_ops, wall_seconds);
                        engine.latency.record(latency, batch_size);
                    }

                    for pending in batch.requests {
                        let response = InferenceResponse {
                            request_id: pending.request.id,
                            batch_id: batch.id,
                            batch_size,
                            worker: index,
                            latency_seconds: latency,
                            output: Arc::clone(&output),
                            session_state: session_state.clone(),
                            logits: logits.clone(),
                        };
                        settle(&cells, engine_cells, pending.estimated_ops, true);
                        let _ = pending.completion.send(Ok(response));
                    }
                }
                Err(error) => {
                    // One structured line per failed batch (not per rider):
                    // the operator signal for a refusing or broken backend.
                    obs.events.emit(
                        EventLevel::Error,
                        "engine_error",
                        &[
                            ("engine", EventValue::Str(batch.engine().as_str())),
                            ("batch_id", EventValue::U64(batch.id)),
                            ("batch_size", EventValue::U64(batch_size as u64)),
                            ("code", EventValue::Str(error.code())),
                        ],
                    );
                    for pending in batch.requests {
                        settle(&cells, engine_cells, pending.estimated_ops, false);
                        let _ = pending.completion.send(Err(error.clone()));
                    }
                }
            }
            stage_slot.set(WorkerStage::Idle);
        }
    })
}
