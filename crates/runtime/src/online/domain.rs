//! One scheduling domain: a locked batch former with its ready queue, and
//! a dedicated worker pool serving one engine.
//!
//! Every registered engine gets its own domain, so substrates can never
//! head-of-line-block each other: a multi-millisecond `native` batch
//! occupies only the native domain's workers while `simulator` traffic
//! keeps flowing through its own.
//!
//! There is no dispatcher thread. Submitters push riders into the domain's
//! [`DomainQueue`] under its lock, closing full and timed-out batches onto
//! the ready queue as they go; idle workers wait on the queue's condvar
//! (until the oldest open batch comes due), close due batches the same way
//! and take the oldest ready batch. A stuck worker simply stops taking
//! work — nothing is ever routed to it.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bishop_engine::{EngineBatch, EngineError, EngineRegistry, StepEvent, StepSink};
use bishop_obs::{EventLevel, EventValue, ObsHub, Stage, StageSlot, WorkerStage};

use crate::batch::{BatchFormer, BatchKey, BatchPolicy, Batchable, RequestBatch};
use crate::request::{InferenceRequest, InferenceResponse};

use super::breaker::BreakerTransition;
use super::calibration::{add_f64, max_f64, EngineCells};
use super::retry::RetryPolicy;
use super::{Rejection, ServeError, ServeResult, StatsCells};

/// One admitted request waiting in a domain: the request plus its
/// completion channel and cached cost estimate.
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

/// Everything needed to boot one domain.
pub(crate) struct DomainSpec {
    /// The engine this domain serves (`None` only for the one engine-less
    /// domain an empty registry gets).
    pub(crate) engine: Option<Arc<EngineCells>>,
    /// Dedicated worker threads.
    pub(crate) workers: usize,
    /// Most riders that may wait in the domain (open or ready batches)
    /// before submissions shed [`Rejection::QueueFull`].
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
    /// Engine resolution: batch caps at push, execution on the workers.
    pub(crate) registry: Arc<EngineRegistry>,
    /// Global server counters.
    pub(crate) cells: Arc<StatsCells>,
    /// Observability hub: stage stamps for riders' traces, engine-error
    /// events from the workers.
    pub(crate) obs: Arc<ObsHub>,
    /// Retry loop tuning for the domain's workers.
    pub(crate) retry: RetryPolicy,
}

/// Boots one domain: its queue and worker pool, returning the queue every
/// [`ServerHandle`](super::ServerHandle) clone pushes into and the worker
/// threads, joined at shutdown.
pub(crate) fn spawn_domain(spec: DomainSpec) -> (Arc<DomainQueue>, Vec<JoinHandle<()>>) {
    let queue = Arc::new(DomainQueue {
        state: Mutex::new(QueueState {
            former: BatchFormer::with_ids(spec.policy, spec.batch_id_base, spec.batch_id_stride),
            ages: Vec::new(),
            ready: VecDeque::new(),
            waiting: 0,
            closed: false,
        }),
        work: Condvar::new(),
        capacity: spec.queue_capacity,
        batch_timeout: spec.batch_timeout,
        registry: spec.registry,
        bundle: spec.bundle,
    });
    // Profiler attribution label: the name of the engine the domain serves.
    let profile_label = spec
        .engine
        .as_ref()
        .map_or("none", |engine| engine.name.as_str());
    let workers = (0..spec.workers)
        .map(|index| {
            spawn_worker(
                index,
                Arc::clone(&queue),
                Arc::clone(&spec.cells),
                spec.engine.clone(),
                Arc::clone(&spec.obs),
                spec.retry.clone(),
                spec.obs.profiler.register(profile_label, "worker"),
            )
        })
        .collect();
    (queue, workers)
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

/// A domain's scheduling state, all behind [`DomainQueue`]'s one lock.
#[derive(Debug)]
struct QueueState {
    former: BatchFormer<PendingRequest>,
    /// Open keys in arrival order of their oldest member, for the timeout
    /// policy (tracked only when the domain has one). Entries leave when
    /// their batch closes.
    ages: Vec<(Instant, BatchKey)>,
    /// Closed batches in closing order, waiting for a worker.
    ready: VecDeque<RequestBatch<PendingRequest>>,
    /// Riders in open or ready batches (what `queue_capacity` bounds).
    waiting: usize,
    /// Set at shutdown: no more pushes; workers exit once `ready` drains.
    closed: bool,
}

impl QueueState {
    /// Moves a closed batch onto the ready queue. Every rider's
    /// batch-formation span ends here.
    fn make_ready(&mut self, batch: RequestBatch<PendingRequest>) {
        for pending in &batch.requests {
            if let Some(trace) = &pending.request.trace {
                trace.stamp(Stage::BatchFormation);
            }
        }
        self.ready.push_back(batch);
    }

    /// Closes every open batch whose oldest member has waited `timeout` by
    /// `now`, oldest first.
    fn close_due(&mut self, timeout: Option<Duration>, now: Instant) {
        let Some(timeout) = timeout else { return };
        while let Some((opened, _)) = self.ages.first() {
            if *opened + timeout > now {
                break;
            }
            let (_, key) = self.ages.remove(0);
            if let Some(batch) = self.former.close_key(&key) {
                self.make_ready(batch);
            }
        }
    }

    /// Closes every open batch, in first-submission order.
    fn flush(&mut self) {
        for batch in self.former.flush() {
            self.make_ready(batch);
        }
        self.ages.clear();
    }
}

/// One domain's queue (see the module docs). Submitters and workers both
/// close due batches, so batch composition depends on arrival order and
/// timing alone, never on whether a worker is free.
#[derive(Debug)]
pub(crate) struct DomainQueue {
    state: Mutex<QueueState>,
    /// Signalled when a batch becomes ready, a timed batch opens or the
    /// queue closes.
    work: Condvar,
    capacity: usize,
    batch_timeout: Option<Duration>,
    registry: Arc<EngineRegistry>,
    bundle: bishop_bundle::BundleShape,
}

impl DomainQueue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect("domain queue lock")
    }

    /// Admits one rider into its batch, or refuses it: typed
    /// [`Rejection::ShuttingDown`] once the queue closed,
    /// [`Rejection::QueueFull`] when `queue_capacity` riders already wait.
    pub(crate) fn push(&self, pending: PendingRequest) -> Result<(), Rejection> {
        let mut state = self.lock();
        if state.closed {
            return Err(Rejection::ShuttingDown);
        }
        if state.waiting >= self.capacity {
            return Err(Rejection::QueueFull);
        }
        let now = Instant::now();
        let ready_before = state.ready.len();
        state.close_due(self.batch_timeout, now);
        if let Some(trace) = &pending.request.trace {
            trace.stamp(Stage::QueueWait);
        }
        // Stateful (session/streaming) requests never coalesce — membranes
        // are per-sequence state — and must not sit in an open group
        // waiting for batch-mates that can never arrive: cap 1 closes their
        // singleton batch immediately.
        let cap = if pending.request().stateful() {
            1
        } else {
            engine_batch_cap(&self.registry, pending.request(), self.bundle)
        };
        let key = BatchKey::from(pending.request());
        // A newly opened key starts a timer some idle worker must arm.
        let opens_timer = self.batch_timeout.is_some() && state.former.pending_count(&key) == 0;
        state.waiting += 1;
        if let Some(batch) = state.former.push_capped(pending, cap) {
            state.ages.retain(|(_, k)| *k != key);
            state.make_ready(batch);
        } else if opens_timer {
            state.ages.push((now, key));
        }
        let wake = opens_timer || state.ready.len() > ready_before;
        drop(state);
        if wake {
            self.work.notify_one();
        }
        Ok(())
    }

    /// Blocks until a batch is ready and takes it — closing due batches
    /// first, and waiting no longer than the oldest open batch's due time —
    /// or returns `None` once the queue is closed and drained. `stage`
    /// reads idle while blocked and batch formation while holding the lock.
    fn take(&self, stage: &StageSlot) -> Option<RequestBatch<PendingRequest>> {
        let mut state = self.lock();
        loop {
            stage.set(WorkerStage::BatchFormation);
            let now = Instant::now();
            state.close_due(self.batch_timeout, now);
            if let Some(batch) = state.ready.pop_front() {
                state.waiting -= batch.len();
                // Pass the baton: another idle worker takes the next ready
                // batch, or re-arms the timer of the oldest open one.
                if !state.ready.is_empty() || !state.ages.is_empty() {
                    self.work.notify_one();
                }
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            let due = self
                .batch_timeout
                .zip(state.ages.first())
                .map(|(timeout, (opened, _))| *opened + timeout);
            stage.set(WorkerStage::Idle);
            state = match due {
                Some(due) => {
                    let wait = due.saturating_duration_since(now);
                    self.work
                        .wait_timeout(state, wait)
                        .expect("domain queue lock")
                        .0
                }
                None => self.work.wait(state).expect("domain queue lock"),
            };
        }
    }

    /// Closes every partially-filled batch onto the ready queue. Does not
    /// wait for execution.
    pub(crate) fn flush(&self) {
        self.lock().flush();
        self.work.notify_all();
    }

    /// Refuses further pushes and closes every open batch; the workers
    /// drain the ready queue and exit.
    pub(crate) fn shutdown(&self) {
        let mut state = self.lock();
        state.closed = true;
        state.flush();
        drop(state);
        self.work.notify_all();
    }
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

/// Spawns one domain worker: takes ready batches from its domain's queue
/// and executes them on the engine each batch names — containing engine
/// panics with `catch_unwind` and retrying
/// retryable faults per the domain's [`RetryPolicy`] — resolves riders'
/// tickets, feeds the engine's circuit breaker with every attempt outcome,
/// and feeds the drain-rate calibration with the measured wall-clock of
/// every successful attempt.
fn spawn_worker(
    index: usize,
    queue: Arc<DomainQueue>,
    cells: Arc<StatsCells>,
    domain_engine: Option<Arc<EngineCells>>,
    obs: Arc<ObsHub>,
    retry: RetryPolicy,
    stage_slot: Arc<StageSlot>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // `take` publishes Idle while blocked; each batch body publishes
        // its stage transitions and restores Idle before the next take, so
        // the sampling profiler attributes the worker's wall-clock to
        // execute / backoff / fan-out correctly.
        while let Some(batch) = queue.take(&stage_slot) {
            stage_slot.set(WorkerStage::EngineExecute);
            let batch_size = batch.len();
            let batch_ops: u64 = batch.requests.iter().map(|p| p.estimated_ops).sum();
            // Stateful (session/streaming) requests always form singleton
            // batches (the domain queue caps them at 1); they execute on the
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
            let outcome = match queue.registry.get(batch.engine().as_str()) {
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
                    let engine_batch = batch.engine_batch(queue.bundle);
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
