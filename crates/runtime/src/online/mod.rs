//! Online submission: the always-on serving path.
//!
//! This module keeps a server *running*: clients call
//! [`ServerHandle::try_submit`] at any time and get back a [`Ticket`] that
//! resolves to the request's [`InferenceResponse`] once the batch it rode in
//! has been executed.
//!
//! ```text
//!                      ┌► admission ─► domain: simulator ──► workers
//!  clients ─► dispatch │   control     former + ready queue  (dedicated,
//!             "auto" → │   shed:        …                     pull work)
//!             engine   │   queue/      domain: native    ──► workers
//!             by       │   deadline    former + ready queue      ▼
//!             deadline └──────────────────────────────────► per-ticket
//!                                                           completion
//! ```
//!
//! **Scheduling domains.** Every registered engine gets its own *domain*: a
//! locked queue holding its own [`BatchFormer`](crate::batch::BatchFormer)
//! (capped at that engine's padded fold limit) and the batches it closed,
//! and a dedicated worker pool — so substrates can never head-of-line-block
//! each other (a slow `native` batch occupies only native workers;
//! `simulator` traffic flows on beside it). The submitting thread forms
//! batches under the domain lock; an idle worker takes the oldest closed
//! batch. No thread sits in between.
//!
//! **Admission control** sheds load with explicit [`Rejection`]s instead of
//! blocking: a request is rejected when the pending count reaches
//! `max_pending` (queue-depth shedding), when `queue_capacity` riders
//! already wait in its domain, or when its deadline cannot be met given the
//! *domain's* admitted backlog drained at the engine's **calibrated rate** —
//! an online EWMA of observed ops/second per engine, seeded from the engine
//! descriptor and fed back from every worker completion. A shed request
//! costs the caller a few atomic reads — it never takes a domain lock.
//!
//! **Autoselection.** A request naming [`EngineName::auto`] is routed by the
//! dispatcher to the most-preferred engine whose *predicted completion*
//! (domain backlog + own cost, at the calibrated drain rate) meets its
//! deadline — `native` when the budget allows real execution, degrading to
//! `simulator` under pressure, shedding with
//! [`Rejection::NoEngineMeetsDeadline`] only when nothing fits.
//!
//! **Batching** follows a size-*or-timeout* policy per domain: a batch
//! closes as soon as `max_batch_size` compatible requests arrived, or when
//! its oldest member has waited `batch_timeout` (closed by whichever comes
//! first: the domain's next submission or an idle worker's timer). With
//! `batch_timeout: None` batches close only on size or an explicit
//! [`ServerHandle::flush`] — the timing-free mode in which batch formation
//! depends on submission order alone (what the determinism suite replays
//! traces through).
//! Batch ids are strided across domains (domain *i* of *n* assigns ids
//! `i, i+n, i+2n, …`), keeping them globally unique and deterministic.
//!
//! **Execution** is pluggable: each domain worker resolves the batch's
//! [`EngineName`] through the server's [`EngineRegistry`] and executes it on
//! that backend. An engine refusal is not a crash or a hang — the riders'
//! tickets resolve to a typed [`ServeError`] and the failure is counted in
//! [`OnlineStats::failed`].

mod breaker;
mod calibration;
mod dispatch;
mod domain;
pub mod export;
mod retry;
mod sampler;

pub use breaker::{BreakerConfig, BreakerSnapshot, BreakerState};
pub use calibration::EngineLoadStats;
pub use retry::RetryPolicy;
pub use sampler::SamplerConfig;

use breaker::BreakerAdmit;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use bishop_core::BishopConfig;
use bishop_engine::{
    CalibrationCache, EngineError, EngineName, EngineRegistry, InferenceEngine, NativeEngine,
    NativeEngineConfig, ResultCache, StepEvent,
};
use bishop_model::ComputePool;
use bishop_obs::{EventLevel, EventValue, ObsHub, Stage, TraceContext};
use bishop_session::SessionStore;

use crate::batch::{config_ops, BatchPolicy};
use crate::request::{InferenceRequest, InferenceResponse};

use calibration::EngineCells;
use dispatch::EngineEntry;
use domain::{spawn_domain, DomainQueue, DomainSpec, PendingRequest};

/// The drain rate (dense ops per second) assumed for requests naming an
/// engine the registry does not hold: they fail typed after dispatch, but
/// deadline admission still needs *some* rate.
const UNKNOWN_ENGINE_DRAIN_OPS_PER_SECOND: f64 = 5e9;

/// Why a submitted request failed to produce a response (as opposed to being
/// shed at admission, which is a [`Rejection`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request named an engine the server's registry does not hold.
    UnknownEngine(EngineName),
    /// The engine refused or failed to execute the batch.
    Engine(EngineError),
}

impl ServeError {
    /// A stable machine-readable code (the gateway's wire error codes).
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::UnknownEngine(_) => "unknown_engine",
            ServeError::Engine(error) => error.code(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownEngine(name) => write!(f, "unknown engine \"{name}\""),
            ServeError::Engine(error) => error.fmt(f),
        }
    }
}

impl std::error::Error for ServeError {}

/// What one submitted request ultimately resolved to.
pub type ServeResult = Result<InferenceResponse, ServeError>;

/// Worker, queue, batching and hardware configuration of one scheduling
/// domain — what [`OnlineConfig`] wraps with the online-only knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker threads; each models one execution-substrate
    /// instance.
    pub workers: usize,
    /// Most riders that may wait in one domain's queue, in open or closed
    /// batches not yet taken by a worker (a full queue sheds —
    /// backpressure instead of unbounded memory growth).
    pub queue_capacity: usize,
    /// Batch-former policy.
    pub batching: BatchPolicy,
    /// Hardware configuration shared by every simulated chip instance (and
    /// source of the Token-Time-Bundle shape batches are padded to).
    pub hardware: BishopConfig,
}

impl RuntimeConfig {
    /// A batched multi-worker configuration.
    pub fn new(workers: usize, batching: BatchPolicy) -> Self {
        Self {
            workers: workers.max(1),
            queue_capacity: 256,
            batching,
            hardware: BishopConfig::default(),
        }
    }

    /// Overrides the submission-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self::new(4, BatchPolicy::default())
    }
}

/// Configuration of an [`OnlineServer`], wrapping the batch/worker
/// [`RuntimeConfig`] with the online-only knobs.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Worker pool, queue capacity, batching policy and hardware model.
    /// `runtime.workers` and `runtime.queue_capacity` apply *per domain*
    /// (workers overridable per engine via
    /// [`OnlineConfig::with_domain_workers`]).
    pub runtime: RuntimeConfig,
    /// Close a partially-filled batch once its oldest member has waited
    /// this long. `None` disables the timeout: batches close only on size
    /// or an explicit flush (the deterministic trace-replay mode).
    pub batch_timeout: Option<Duration>,
    /// Queue-depth admission cap: [`ServerHandle::try_submit`] sheds when
    /// this many requests are already admitted but not yet completed
    /// (across all domains). `0` sheds everything (useful for overload
    /// tests).
    pub max_pending: usize,
    /// Execution backends. `None` builds the full default registry
    /// (`simulator`, `native`, `ptb`, `gpu`) over the server's caches.
    pub registry: Option<Arc<EngineRegistry>>,
    /// Width of the native engine's compute-pool handle (`0` = auto-size
    /// to the host's available parallelism). Only applies when the default
    /// registry is built (an injected registry brings its own engines).
    /// The width is reported, not acted on: a batch executes on its
    /// worker's own thread at every width (see `bishop_model::parallel`).
    pub native_compute_workers: usize,
    /// Per-engine worker-pool size overrides (engine name → workers);
    /// engines not listed use `runtime.workers`.
    pub domain_workers: Vec<(EngineName, usize)>,
    /// Per-engine drain-rate seed overrides (engine name → ops/second);
    /// takes precedence over the descriptor seed.
    pub engine_drain_seeds: Vec<(EngineName, f64)>,
    /// The observability hub (stage histograms, trace store, router
    /// decision counters, event log) the server feeds. `None` (the
    /// default) builds a hub with [`bishop_obs::ObsConfig`] defaults;
    /// inject one to share it with a gateway or to tune retention.
    pub obs: Option<Arc<ObsHub>>,
    /// Per-domain retry loop for *retryable* engine errors (transient
    /// faults, contained panics): capped exponential backoff under a
    /// shared retry budget. Defaults on; [`RetryPolicy::disabled`] turns
    /// it off for deterministic replay.
    pub retry: RetryPolicy,
    /// Per-engine circuit breaker: error-rate-over-window trips the engine
    /// open, a cooldown later half-open probes decide recovery. `"auto"`
    /// dispatch skips open engines (degrading to the next candidate);
    /// explicit-engine requests shed typed. Defaults on;
    /// [`BreakerConfig::disabled`] turns it off.
    pub breaker: BreakerConfig,
    /// The background observability sampler: sweeps the worker stage
    /// slots into the profiler and scrapes counters/gauges/quantiles into
    /// the time-series store (which the SLO engine evaluates). Defaults
    /// on; [`SamplerConfig::disabled`] turns the thread off.
    pub sampler: SamplerConfig,
}

impl OnlineConfig {
    /// Online defaults on top of the given runtime configuration: 2 ms
    /// batch timeout, 1024 pending requests, default engine registry.
    pub fn new(runtime: RuntimeConfig) -> Self {
        Self {
            runtime,
            batch_timeout: Some(Duration::from_millis(2)),
            max_pending: 1024,
            registry: None,
            native_compute_workers: 0,
            domain_workers: Vec::new(),
            engine_drain_seeds: Vec::new(),
            obs: None,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            sampler: SamplerConfig::default(),
        }
    }

    /// Overrides the batch timeout (`None` = close on size/flush only).
    pub fn with_batch_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.batch_timeout = timeout;
        self
    }

    /// Overrides the queue-depth admission cap.
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending;
        self
    }

    /// Overrides the engine registry (e.g. to serve a custom backend or to
    /// restrict the served set).
    pub fn with_registry(mut self, registry: Arc<EngineRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Overrides the native engine's compute-pool width (`0` = auto). Only
    /// effective with the default registry.
    pub fn with_native_compute_workers(mut self, workers: usize) -> Self {
        self.native_compute_workers = workers;
        self
    }

    /// Overrides the worker-pool size of one engine's domain.
    pub fn with_domain_workers(mut self, engine: EngineName, workers: usize) -> Self {
        self.domain_workers.retain(|(name, _)| *name != engine);
        self.domain_workers.push((engine, workers.max(1)));
        self
    }

    /// Overrides the drain-rate calibration seed of one engine (clamped to
    /// ≥ 1 op/s).
    pub fn with_engine_drain_seed(mut self, engine: EngineName, ops_per_second: f64) -> Self {
        self.engine_drain_seeds.retain(|(name, _)| *name != engine);
        self.engine_drain_seeds
            .push((engine, ops_per_second.max(1.0)));
        self
    }

    /// Injects an observability hub (to share one with a gateway, or to
    /// tune trace retention and event-log levels).
    pub fn with_obs(mut self, obs: Arc<ObsHub>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Overrides the per-domain retry policy ([`RetryPolicy::disabled`]
    /// turns retries off).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the per-engine circuit-breaker tuning
    /// ([`BreakerConfig::disabled`] turns breakers off).
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Overrides the background sampler ([`SamplerConfig::disabled`]
    /// turns the thread off; tests shrink the intervals).
    pub fn with_sampler(mut self, sampler: SamplerConfig) -> Self {
        self.sampler = sampler;
        self
    }

    /// The drain-rate seed for one engine: an explicit per-engine override
    /// wins over the descriptor seed.
    fn drain_seed(&self, name: &str, descriptor_seed: f64) -> f64 {
        self.engine_drain_seeds
            .iter()
            .find(|(engine, _)| engine.as_str() == name)
            .map_or(descriptor_seed, |(_, rate)| *rate)
            .max(1.0)
    }
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self::new(RuntimeConfig::default())
    }
}

/// Why a submission was shed instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The admitted-but-uncompleted count reached `max_pending`, or the
    /// target domain's queue already held `queue_capacity` riders.
    QueueFull,
    /// The admitted backlog of the named engine's domain is predicted to
    /// outlast the request's deadline.
    DeadlineUnmeetable,
    /// The request asked for `"auto"` and at least one eligible engine
    /// could execute the profile, but none's predicted completion meets
    /// the deadline. Load-transient: the same request may succeed once
    /// backlogs drain.
    NoEngineMeetsDeadline,
    /// The request asked for `"auto"` and no eligible engine can execute
    /// the request profile at all (unsupported options, oversized model,
    /// or an empty candidate set). Permanent for this request shape —
    /// retrying cannot help.
    NoEngineSupportsRequest,
    /// The named engine's circuit breaker is open (for `"auto"`: every
    /// eligible engine's breaker is). Health-transient: retry after the
    /// breaker's cooldown — [`ServerHandle::breaker_reopen_seconds`]
    /// prices the `Retry-After`.
    EngineUnavailable,
    /// The server is shutting down and no longer admits work.
    ShuttingDown,
}

impl Rejection {
    /// A stable machine-readable code (the gateway's wire error codes).
    pub fn code(&self) -> &'static str {
        match self {
            Rejection::QueueFull => "queue_full",
            Rejection::DeadlineUnmeetable => "deadline_unmeetable",
            Rejection::NoEngineMeetsDeadline => "no_engine_meets_deadline",
            Rejection::NoEngineSupportsRequest => "auto_unroutable",
            Rejection::EngineUnavailable => "engine_unavailable",
            Rejection::ShuttingDown => "shutting_down",
        }
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull => f.write_str("submission queue full"),
            Rejection::DeadlineUnmeetable => f.write_str("deadline unmeetable under current load"),
            Rejection::NoEngineMeetsDeadline => {
                f.write_str("no eligible engine's predicted completion meets the deadline")
            }
            Rejection::NoEngineSupportsRequest => {
                f.write_str("no auto-eligible engine can execute the request profile")
            }
            Rejection::EngineUnavailable => {
                f.write_str("engine unavailable: its circuit breaker is open")
            }
            Rejection::ShuttingDown => f.write_str("server shutting down"),
        }
    }
}

impl std::error::Error for Rejection {}

/// Per-reason shed counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Requests shed because the queue (or pending cap) was full.
    pub queue_full: u64,
    /// Requests shed because their deadline was unmeetable on the engine
    /// they named.
    pub deadline: u64,
    /// `"auto"` requests shed because no eligible engine met the deadline
    /// ([`Rejection::NoEngineMeetsDeadline`]) or could execute the profile
    /// at all ([`Rejection::NoEngineSupportsRequest`]).
    pub no_engine: u64,
    /// Requests shed because the target engine's circuit breaker was open
    /// ([`Rejection::EngineUnavailable`]).
    pub unavailable: u64,
    /// Requests shed because the server was shutting down.
    pub shutdown: u64,
}

impl AdmissionStats {
    /// Total shed requests across all reasons.
    pub fn total(&self) -> u64 {
        self.queue_full + self.deadline + self.no_engine + self.unavailable + self.shutdown
    }
}

/// A point-in-time snapshot of an online server's counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OnlineStats {
    /// Requests offered to admission control (admitted + shed).
    pub submitted: u64,
    /// Requests admitted into a domain queue.
    pub admitted: u64,
    /// Requests whose batch executed successfully.
    pub completed: u64,
    /// Requests whose batch failed with a [`ServeError`] (typed refusal;
    /// the tickets resolved, nothing hung).
    pub failed: u64,
    /// Shed counters, by reason.
    pub admission: AdmissionStats,
    /// Batches executed across every domain's worker pool.
    pub batches_executed: u64,
    /// Requests admitted but not yet completed, across all domains.
    pub queue_depth: usize,
    /// Estimated dense ops of the admitted-but-uncompleted backlog, across
    /// all domains.
    pub backlog_ops: u64,
    /// Total busy cycles reported by the engines.
    pub total_simulated_cycles: u64,
    /// Total energy in millijoules reported by the engines.
    pub total_energy_mj: f64,
    /// Mean per-request latency in seconds (on the engines' clocks).
    pub mean_latency_seconds: f64,
    /// Worst per-request latency in seconds.
    pub max_latency_seconds: f64,
    /// Per-engine scheduling-domain snapshots (queue depth, backlog,
    /// calibrated drain rate, observed latency percentiles), in registry
    /// order.
    pub engines: Vec<EngineLoadStats>,
}

/// Shared atomic counters behind every [`ServerHandle`] clone.
#[derive(Debug, Default)]
pub(crate) struct StatsCells {
    pub(crate) submitted: AtomicU64,
    pub(crate) admitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) rejected_queue_full: AtomicU64,
    pub(crate) rejected_deadline: AtomicU64,
    pub(crate) rejected_no_engine: AtomicU64,
    pub(crate) rejected_unavailable: AtomicU64,
    pub(crate) rejected_shutdown: AtomicU64,
    pub(crate) batches_executed: AtomicU64,
    pub(crate) pending: AtomicUsize,
    pub(crate) backlog_ops: AtomicU64,
    pub(crate) total_cycles: AtomicU64,
    pub(crate) energy_mj_bits: AtomicU64,
    pub(crate) latency_sum_bits: AtomicU64,
    pub(crate) latency_max_bits: AtomicU64,
    pub(crate) shutting_down: AtomicBool,
}

impl StatsCells {
    /// A point-in-time snapshot around the given per-engine snapshots.
    fn snapshot(&self, engines: Vec<EngineLoadStats>) -> OnlineStats {
        let completed = self.completed.load(Ordering::Acquire);
        let latency_sum = f64::from_bits(self.latency_sum_bits.load(Ordering::Acquire));
        OnlineStats {
            submitted: self.submitted.load(Ordering::Acquire),
            admitted: self.admitted.load(Ordering::Acquire),
            completed,
            failed: self.failed.load(Ordering::Acquire),
            admission: AdmissionStats {
                queue_full: self.rejected_queue_full.load(Ordering::Acquire),
                deadline: self.rejected_deadline.load(Ordering::Acquire),
                no_engine: self.rejected_no_engine.load(Ordering::Acquire),
                unavailable: self.rejected_unavailable.load(Ordering::Acquire),
                shutdown: self.rejected_shutdown.load(Ordering::Acquire),
            },
            batches_executed: self.batches_executed.load(Ordering::Acquire),
            queue_depth: self.pending.load(Ordering::Acquire),
            backlog_ops: self.backlog_ops.load(Ordering::Acquire),
            total_simulated_cycles: self.total_cycles.load(Ordering::Acquire),
            total_energy_mj: f64::from_bits(self.energy_mj_bits.load(Ordering::Acquire)),
            mean_latency_seconds: if completed == 0 {
                0.0
            } else {
                latency_sum / completed as f64
            },
            max_latency_seconds: f64::from_bits(self.latency_max_bits.load(Ordering::Acquire)),
            engines,
        }
    }

    /// Moves the queue-depth and backlog gauges by one request, on the
    /// global cells and then on its engine's (a request naming an
    /// unregistered engine has none): up when admission charges it, back
    /// down when its enqueue then fails.
    fn book(&self, engine: Option<&EngineCells>, estimated_ops: u64, admit: bool) {
        let domain = engine.map(|engine| (&engine.pending, &engine.backlog_ops));
        for (pending, backlog_ops) in [Some((&self.pending, &self.backlog_ops)), domain]
            .into_iter()
            .flatten()
        {
            if admit {
                pending.fetch_add(1, Ordering::AcqRel);
                backlog_ops.fetch_add(estimated_ops, Ordering::AcqRel);
            } else {
                pending.fetch_sub(1, Ordering::AcqRel);
                backlog_ops.fetch_sub(estimated_ops, Ordering::AcqRel);
            }
        }
    }
}

/// A pending claim on one submitted request's outcome.
#[derive(Debug)]
pub struct Ticket {
    request_id: u64,
    rx: mpsc::Receiver<ServeResult>,
    trace: Option<Arc<TraceContext>>,
    /// Bounded per-step progress events, present when the request asked for
    /// streaming. The sender side lives with the domain worker; it closes
    /// when execution finishes, so draining this receiver to disconnection
    /// and then calling [`Ticket::wait`] never blocks on a dead stream.
    progress: Option<mpsc::Receiver<StepEvent>>,
}

impl Ticket {
    /// The id of the request this ticket tracks.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The trace context riding with the request, if the submitter
    /// attached one — the same context the runtime stamps stage
    /// boundaries into, so the edge can finish it after the response
    /// is written.
    pub fn trace(&self) -> Option<&Arc<TraceContext>> {
        self.trace.as_ref()
    }

    /// Blocks until the outcome is ready. Returns `None` only if the
    /// server dropped the request (shutdown mid-flight).
    pub fn wait(self) -> Option<ServeResult> {
        self.rx.recv().ok()
    }

    /// Waits up to `timeout` for the outcome.
    pub fn wait_for(&self, timeout: Duration) -> Option<ServeResult> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Returns the outcome if it is already available.
    pub fn try_wait(&self) -> Option<ServeResult> {
        self.rx.try_recv().ok()
    }

    /// The per-step progress channel, when the request asked for streaming.
    /// Receive until it disconnects (execution finished), then collect the
    /// terminal outcome with [`Ticket::wait`].
    pub fn progress(&self) -> Option<&mpsc::Receiver<StepEvent>> {
        self.progress.as_ref()
    }
}

/// A cloneable, thread-safe submission endpoint of an [`OnlineServer`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    /// One queue per scheduling domain. Domain `i` serves
    /// `engines_index[i]`; requests naming an engine the registry does not
    /// hold ride domain 0 and fail typed on its worker.
    domains: Arc<Vec<Arc<DomainQueue>>>,
    engines_index: Arc<Vec<EngineEntry>>,
    /// Indices into `engines_index`, most-preferred first, that `"auto"`
    /// requests resolve against.
    auto_order: Arc<Vec<usize>>,
    cells: Arc<StatsCells>,
    registry: Arc<EngineRegistry>,
    max_pending: usize,
    obs: Arc<ObsHub>,
    /// The session store an edge (gateway) registered with this server, if
    /// any — the background sampler scrapes its occupancy/eviction counters
    /// into the time-series store alongside the engine gauges.
    sessions: Arc<OnceLock<Arc<SessionStore>>>,
}

impl ServerHandle {
    /// Submits a request without a deadline; sheds (never blocks) when the
    /// queue-depth cap or the target domain's queue is full.
    pub fn try_submit(&self, request: InferenceRequest) -> Result<Ticket, Rejection> {
        self.submit_inner(request, None)
    }

    /// Submits a request that is only worth serving if it can *start*
    /// within `deadline`: admission predicts the target domain's backlog
    /// drain time (at the engine's calibrated rate) and sheds the request
    /// up front when the deadline is unmeetable. `"auto"` requests are
    /// instead routed to the most-preferred engine whose predicted
    /// *completion* meets the deadline.
    pub fn try_submit_with_deadline(
        &self,
        request: InferenceRequest,
        deadline: Duration,
    ) -> Result<Ticket, Rejection> {
        self.submit_inner(request, Some(deadline))
    }

    /// Counts one shed, under its reason, and logs it: a rate-limited
    /// structured line carrying the request id, the engine it was bound
    /// for and the typed reason — the at-a-glance operator signal for "why
    /// are responses 429ing".
    fn shed(&self, request_id: u64, engine: &EngineName, rejection: Rejection) -> Rejection {
        let cells = &self.cells;
        let counter = match rejection {
            Rejection::QueueFull => &cells.rejected_queue_full,
            Rejection::DeadlineUnmeetable => &cells.rejected_deadline,
            Rejection::NoEngineMeetsDeadline | Rejection::NoEngineSupportsRequest => {
                &cells.rejected_no_engine
            }
            Rejection::EngineUnavailable => &cells.rejected_unavailable,
            Rejection::ShuttingDown => &cells.rejected_shutdown,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.obs.events.emit(
            EventLevel::Warn,
            "request_shed",
            &[
                ("request_id", EventValue::U64(request_id)),
                ("engine", EventValue::Str(engine.as_str())),
                ("reason", EventValue::Str(rejection.code())),
            ],
        );
        rejection
    }

    fn submit_inner(
        &self,
        mut request: InferenceRequest,
        deadline: Option<Duration>,
    ) -> Result<Ticket, Rejection> {
        let cells = &self.cells;
        cells.submitted.fetch_add(1, Ordering::Relaxed);
        if cells.shutting_down.load(Ordering::Acquire) {
            return Err(self.shed(request.id, &request.engine, Rejection::ShuttingDown));
        }
        if cells.pending.load(Ordering::Acquire) >= self.max_pending {
            return Err(self.shed(request.id, &request.engine, Rejection::QueueFull));
        }

        let estimated_ops = config_ops(request.model());

        // Resolve "auto" to a concrete engine before any bookkeeping: the
        // dispatcher picks the most-preferred engine whose predicted
        // completion meets the deadline, or sheds typed. The full decision
        // record — every candidate considered, the prediction each was
        // judged on, the verdict — feeds the router counters and rides on
        // the request's trace.
        let entry_index = if request.engine.is_auto() {
            let (outcome, decision) = dispatch::select_engine(
                &self.engines_index,
                &self.auto_order,
                &request,
                estimated_ops,
                deadline,
                &self.obs,
            );
            self.obs.router.record(&decision);
            if let Some(trace) = &request.trace {
                trace.set_router(decision);
            }
            match outcome {
                Ok(index) => {
                    request.engine = self.engines_index[index].name.clone();
                    Some(index)
                }
                Err(rejection) => {
                    if let Some(trace) = &request.trace {
                        trace.stamp(Stage::Router);
                    }
                    return Err(self.shed(request.id, &request.engine, rejection));
                }
            }
        } else {
            let entry_index = self
                .engines_index
                .iter()
                .position(|entry| entry.name == request.engine);
            // Explicitly-named engines are *not* rerouted around an open
            // breaker — the client asked for this one — but they are shed
            // typed instead of being queued onto a known-unhealthy engine.
            if let Some(index) = entry_index {
                let entry = &self.engines_index[index];
                let (admit, transition) = entry.cells.breaker.admit();
                if let Some(transition) = transition {
                    domain::log_breaker_transition(&self.obs, entry.name.as_str(), transition);
                }
                if let BreakerAdmit::Shed { .. } = admit {
                    return Err(self.shed(
                        request.id,
                        &request.engine,
                        Rejection::EngineUnavailable,
                    ));
                }
            }
            entry_index
        };
        if let Some(trace) = &request.trace {
            trace.set_engine(request.engine.as_str());
            trace.stamp(Stage::Router);
        }

        if let Some(deadline) = deadline {
            // Can the request *start* before its deadline? Predict how
            // long the target domain's admitted backlog takes to drain at
            // the engine's calibrated rate. (For auto requests the stronger
            // completion check above already passed.)
            let (backlog, drain) = match entry_index {
                Some(index) => {
                    let engine = &self.engines_index[index].cells;
                    (
                        engine.backlog_ops.load(Ordering::Acquire),
                        engine.drain.ops_per_second(),
                    )
                }
                // Unknown engine: it will fail typed after dispatch;
                // admission falls back to the global backlog and seed.
                None => (
                    cells.backlog_ops.load(Ordering::Acquire),
                    UNKNOWN_ENGINE_DRAIN_OPS_PER_SECOND,
                ),
            };
            if backlog as f64 / drain.max(1.0) > deadline.as_secs_f64() {
                return Err(self.shed(request.id, &request.engine, Rejection::DeadlineUnmeetable));
            }
        }

        let engine_cells = entry_index.map(|index| &*self.engines_index[index].cells);
        let request_id = request.id;
        let engine_name = request.engine.clone();
        let trace = request.trace.clone();
        if let Some(trace) = &trace {
            trace.stamp(Stage::Admission);
        }
        let (completion, rx) = mpsc::channel();
        // Streaming requests get a bounded progress channel sized for one
        // event per executed timestep (workers `try_send` and drop on a
        // saturated channel rather than block).
        let (progress_tx, progress_rx) = if request.streaming {
            let (tx, rx) = mpsc::sync_channel(request.effective_steps().max(64));
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        cells.book(engine_cells, estimated_ops, true);
        let outcome = self.domains[entry_index.unwrap_or(0)].push(PendingRequest {
            request,
            completion,
            estimated_ops,
            progress: progress_tx,
        });
        match outcome {
            Ok(()) => {
                cells.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(Ticket {
                    request_id,
                    rx,
                    trace,
                    progress: progress_rx,
                })
            }
            Err(rejection) => {
                cells.book(engine_cells, estimated_ops, false);
                Err(self.shed(request_id, &engine_name, rejection))
            }
        }
    }

    /// Closes every partially-filled batch in every domain, handing each
    /// to the domain's workers. Does not wait for execution — use the
    /// tickets.
    pub fn flush(&self) {
        for domain in self.domains.iter() {
            domain.flush();
        }
    }

    /// The engine registry this server executes on (what `GET /v1/engines`
    /// publishes).
    pub fn engines(&self) -> &Arc<EngineRegistry> {
        &self.registry
    }

    /// The engines `"auto"` requests resolve against on *this* server —
    /// [`EngineRegistry::default_auto_preference`] restricted to the
    /// engines actually registered, most-preferred first. Front-ends
    /// preflighting auto routability must consult this so their view
    /// matches the dispatcher's.
    pub fn auto_candidates(&self) -> Vec<EngineName> {
        self.auto_order
            .iter()
            .map(|&index| self.engines_index[index].name.clone())
            .collect()
    }

    /// The observability hub this server feeds: stage-latency histograms,
    /// the recent/slowest trace store, router decision counters and the
    /// structured event log.
    pub fn obs(&self) -> &Arc<ObsHub> {
        &self.obs
    }

    /// Registers the edge's session store with this server so the
    /// background sampler scrapes its occupancy and eviction counters.
    /// Returns `false` (and changes nothing) if a store was already
    /// registered.
    pub fn register_sessions(&self, store: Arc<SessionStore>) -> bool {
        self.sessions.set(store).is_ok()
    }

    /// The registered session store, if an edge attached one.
    pub fn sessions(&self) -> Option<Arc<SessionStore>> {
        self.sessions.get().cloned()
    }

    /// Predicted seconds until the backlog ahead of a *new* request on the
    /// given engine drains at its calibrated rate — what a 429's
    /// `Retry-After` should quote. `"auto"` takes the best (smallest) drain
    /// over the auto candidates; an engine the registry does not hold
    /// falls back to the global backlog at the fallback seed rate.
    pub fn predicted_drain_seconds(&self, engine: &EngineName) -> f64 {
        let drain_of = |entry: &EngineEntry| {
            entry.cells.backlog_ops.load(Ordering::Acquire) as f64
                / entry.cells.drain.ops_per_second().max(1.0)
        };
        if engine.is_auto() {
            let best = self
                .auto_order
                .iter()
                .map(|&index| drain_of(&self.engines_index[index]))
                .fold(f64::INFINITY, f64::min);
            if best.is_finite() {
                return best;
            }
        } else if let Some(entry) = self.engines_index.iter().find(|e| e.name == *engine) {
            return drain_of(entry);
        }
        self.cells.backlog_ops.load(Ordering::Acquire) as f64 / UNKNOWN_ENGINE_DRAIN_OPS_PER_SECOND
    }

    /// Seconds until the named engine's open breaker next admits a
    /// half-open probe — what an `engine_unavailable` 503's `Retry-After`
    /// should quote. `None` when the engine is unknown or its breaker is
    /// not open.
    pub fn breaker_reopen_seconds(&self, engine: &EngineName) -> Option<f64> {
        self.engines_index
            .iter()
            .find(|entry| entry.name == *engine)
            .and_then(|entry| entry.cells.breaker.snapshot().reopen_seconds)
    }

    /// Per-engine scheduling-domain snapshots, in registry order (a cheaper
    /// call than [`ServerHandle::stats`] when only the per-engine view is
    /// needed).
    pub fn engine_stats(&self) -> Vec<EngineLoadStats> {
        self.engines_index
            .iter()
            .map(|entry| entry.cells.snapshot())
            .collect()
    }

    /// A point-in-time snapshot of the server's counters.
    pub fn stats(&self) -> OnlineStats {
        self.cells.snapshot(self.engine_stats())
    }
}

/// The always-on serving stack: per-engine scheduling domains (a bounded
/// batch queue + dedicated workers each) over a pluggable engine
/// registry, fed through cloneable [`ServerHandle`]s with deadline-aware
/// `"auto"` dispatch.
#[derive(Debug)]
pub struct OnlineServer {
    handle: ServerHandle,
    workers: Vec<JoinHandle<()>>,
    sampler: Option<sampler::SamplerThread>,
}

impl OnlineServer {
    /// Starts a server with fresh caches (and, unless the config overrides
    /// it, the default engine registry over those caches).
    pub fn start(config: OnlineConfig) -> Self {
        Self::with_caches(
            config,
            Arc::new(CalibrationCache::new()),
            Arc::new(ResultCache::new()),
        )
    }

    /// Starts a server sharing existing calibration/result caches.
    pub fn with_caches(
        config: OnlineConfig,
        cache: Arc<CalibrationCache>,
        results: Arc<ResultCache>,
    ) -> Self {
        let obs = config
            .obs
            .clone()
            .unwrap_or_else(|| Arc::new(ObsHub::default()));
        let registry = config.registry.clone().unwrap_or_else(|| {
            let native = NativeEngine::with_config(NativeEngineConfig {
                compute_workers: config.native_compute_workers,
                ..NativeEngineConfig::default()
            });
            // One structured boot line: which popcount path the host
            // resolved to and how wide the compute-pool handle is.
            obs.events.emit(
                EventLevel::Info,
                "native_compute_resolved",
                &[
                    (
                        "simd_tier",
                        EventValue::Str(native.descriptor().simd_tier.unwrap_or("scalar")),
                    ),
                    (
                        "compute_workers",
                        EventValue::U64(
                            ComputePool::new(config.native_compute_workers).width() as u64
                        ),
                    ),
                ],
            );
            Arc::new(
                EngineRegistry::serving_default(&config.runtime.hardware, cache, results)
                    // Replace the stock native engine (in place, keeping
                    // its registry position) with the configured one.
                    .with_engine(Arc::new(native)),
            )
        });
        let bundle = config.runtime.hardware.bundle;
        let cells = Arc::new(StatsCells::default());

        // One scheduling domain per registered engine, in registry order
        // (domain `i` serves engine `i`). An empty registry still gets one
        // engine-less domain so unknown-engine requests can ride to a
        // worker and fail typed.
        let descriptors = registry.descriptors();
        let engines_index: Vec<EngineEntry> = descriptors
            .iter()
            .map(|descriptor| EngineEntry {
                name: EngineName::new(descriptor.name),
                descriptor: descriptor.clone(),
                cells: Arc::new(EngineCells::new(
                    EngineName::new(descriptor.name),
                    config.drain_seed(descriptor.name, descriptor.seed_drain_ops_per_second),
                    config.breaker.clone(),
                    &config.retry,
                )),
            })
            .collect();
        let auto_order: Vec<usize> = EngineRegistry::default_auto_preference()
            .iter()
            .filter_map(|preferred| {
                engines_index
                    .iter()
                    .position(|entry| entry.name.as_str() == *preferred)
            })
            .collect();
        let engine_cells: Vec<Arc<EngineCells>> = engines_index
            .iter()
            .map(|entry| Arc::clone(&entry.cells))
            .collect();

        let domain_count = engines_index.len().max(1);
        let mut queues = Vec::with_capacity(domain_count);
        let mut all_workers = Vec::new();
        for domain in 0..domain_count {
            let engine = engine_cells.get(domain).cloned();
            let workers = engine
                .as_ref()
                .and_then(|engine| {
                    config
                        .domain_workers
                        .iter()
                        .find(|(name, _)| *name == engine.name)
                        .map(|(_, workers)| *workers)
                })
                .unwrap_or(config.runtime.workers);
            let (queue, domain_workers) = spawn_domain(DomainSpec {
                engine,
                workers: workers.max(1),
                queue_capacity: config.runtime.queue_capacity,
                batch_id_base: domain as u64,
                batch_id_stride: domain_count as u64,
                policy: config.runtime.batching,
                batch_timeout: config.batch_timeout,
                bundle,
                registry: Arc::clone(&registry),
                cells: Arc::clone(&cells),
                obs: Arc::clone(&obs),
                retry: config.retry.clone(),
            });
            queues.push(queue);
            all_workers.extend(domain_workers);
        }

        let sessions: Arc<OnceLock<Arc<SessionStore>>> = Arc::new(OnceLock::new());
        let sampler_thread = config.sampler.enabled.then(|| {
            let cells = Arc::clone(&cells);
            let counters =
                move || cells.snapshot(engine_cells.iter().map(|e| e.counters()).collect());
            sampler::spawn_sampler(
                config.sampler.clone(),
                Arc::clone(&obs),
                counters,
                Arc::clone(&sessions),
            )
        });
        let handle = ServerHandle {
            domains: Arc::new(queues),
            engines_index: Arc::new(engines_index),
            auto_order: Arc::new(auto_order),
            cells,
            registry,
            max_pending: config.max_pending,
            obs,
            sessions,
        };
        Self {
            handle,
            workers: all_workers,
            sampler: sampler_thread,
        }
    }

    /// A new submission handle; clone freely across threads.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// The engine registry this server executes on.
    pub fn engines(&self) -> &Arc<EngineRegistry> {
        &self.handle.registry
    }

    /// A point-in-time snapshot of the server's counters.
    pub fn stats(&self) -> OnlineStats {
        self.handle.stats()
    }

    /// Graceful shutdown: stop admitting, close every open batch, let the
    /// workers execute every ready batch, join them, and report final
    /// stats.
    pub fn shutdown(self) -> OnlineStats {
        self.handle
            .cells
            .shutting_down
            .store(true, Ordering::Release);
        for domain in self.handle.domains.iter() {
            domain.shutdown();
        }
        for worker in self.workers {
            let _ = worker.join();
        }
        // Stop the sampler after the domains drain so its final scrape
        // sees the fully settled counters.
        if let Some(sampler) = self.sampler {
            sampler.stop_and_join();
        }
        self.handle.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchPolicy;
    use crate::request::{default_mixed_models, mixed_trace};
    use bishop_core::SimOptions;

    fn online(policy: BatchPolicy, timeout: Option<Duration>) -> OnlineServer {
        OnlineServer::start(
            OnlineConfig::new(RuntimeConfig::new(2, policy)).with_batch_timeout(timeout),
        )
    }

    #[test]
    fn ticket_resolves_with_the_request_id() {
        let server = online(BatchPolicy::new(4), None);
        let handle = server.handle();
        let trace = mixed_trace(&default_mixed_models(), 4, 2, 9);
        let tickets: Vec<Ticket> = trace
            .into_iter()
            .map(|r| handle.try_submit(r).expect("admitted"))
            .collect();
        handle.flush();
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(ticket.request_id(), i as u64);
            let response = ticket
                .wait()
                .expect("response delivered")
                .expect("simulator engine never fails");
            assert_eq!(response.request_id, i as u64);
            assert!(response.latency_seconds > 0.0);
            assert_eq!(response.engine(), "simulator");
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.admission, AdmissionStats::default());
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.backlog_ops, 0);
        // The per-engine view attributes everything to the simulator domain.
        let simulator = stats
            .engines
            .iter()
            .find(|e| e.engine == EngineName::simulator())
            .expect("simulator domain");
        assert_eq!(simulator.completed, 4);
        assert_eq!(simulator.queue_depth, 0);
        assert_eq!(simulator.backlog_ops, 0);
        assert!(simulator.drain_observations > 0, "workers fed calibration");
        assert!(simulator.latency.p95 > 0.0);
        for other in stats
            .engines
            .iter()
            .filter(|e| e.engine.as_str() != "simulator")
        {
            assert_eq!(other.completed, 0);
            assert_eq!(other.batches_executed, 0);
        }
    }

    #[test]
    fn timeout_closes_partial_batches_without_flush() {
        let server = online(BatchPolicy::new(64), Some(Duration::from_millis(2)));
        let handle = server.handle();
        let trace = mixed_trace(&default_mixed_models(), 2, 1, 3);
        let tickets: Vec<Ticket> = trace
            .into_iter()
            .map(|r| handle.try_submit(r).expect("admitted"))
            .collect();
        for ticket in tickets {
            let response = ticket
                .wait()
                .expect("timeout closed the batch")
                .expect("executed");
            assert!(response.batch_size < 64);
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_submissions() {
        let server = online(BatchPolicy::new(4), None);
        let handle = server.handle();
        server.shutdown();
        let request = mixed_trace(&default_mixed_models(), 1, 1, 5).pop().unwrap();
        assert_eq!(
            handle.try_submit(request).err(),
            Some(Rejection::ShuttingDown)
        );
        assert_eq!(handle.stats().admission.shutdown, 1);
    }

    #[test]
    fn unknown_engine_resolves_tickets_with_a_typed_error() {
        let server = online(BatchPolicy::new(1), None);
        let handle = server.handle();
        let request = mixed_trace(&default_mixed_models(), 1, 1, 5)
            .pop()
            .unwrap()
            .with_engine(EngineName::from("tpu"));
        let ticket = handle
            .try_submit(request)
            .expect("admission is engine-agnostic");
        handle.flush();
        let outcome = ticket.wait().expect("ticket resolves");
        assert_eq!(
            outcome,
            Err(ServeError::UnknownEngine(EngineName::from("tpu")))
        );
        let stats = server.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.queue_depth, 0, "failures drain the queue");
        assert_eq!(stats.backlog_ops, 0);
        // Unknown engines ride the default domain but are not attributed to
        // any registered engine's scheduling stats.
        assert!(stats.engines.iter().all(|e| e.failed == 0));
    }

    #[test]
    fn engine_refusals_resolve_tickets_with_the_engine_error() {
        // The native engine has no ECP path: requests routing an ECP model
        // there fail typed, not silently and not hanging.
        let server = online(BatchPolicy::new(1), None);
        let handle = server.handle();
        let entry = default_mixed_models()
            .into_iter()
            .find(|e| e.options == SimOptions::with_ecp(6))
            .expect("imagenet entry defaults to ECP");
        let request = InferenceRequest::new(0, entry, 1).with_engine(EngineName::native());
        let ticket = handle.try_submit(request).expect("admitted");
        handle.flush();
        let outcome = ticket.wait().expect("ticket resolves");
        let error = outcome.expect_err("native must refuse ECP");
        assert_eq!(error.code(), "ecp_unsupported");
        let stats = server.shutdown();
        assert_eq!(stats.failed, 1);
        let native = stats
            .engines
            .iter()
            .find(|e| e.engine == EngineName::native())
            .expect("native domain");
        assert_eq!(native.failed, 1, "refusal attributed to the native domain");
    }

    #[test]
    fn domain_caps_coalescing_at_the_engine_fold_limit() {
        // The native engine caps batches at 1024 folded timesteps. A model
        // spanning 300 timesteps may share a batch with at most 3 peers
        // (3 × 300 ≤ 1024 < 4 × 300) even under a much larger batch policy
        // — no request may fail `batch_too_large` because of coalescing.
        use bishop_engine::CatalogEntry;
        use bishop_model::{DatasetKind, ModelConfig};

        let server = online(BatchPolicy::new(8), None);
        let handle = server.handle();
        let entry = CatalogEntry::new(
            ModelConfig::new("fold-cap", DatasetKind::Cifar10, 1, 300, 4, 16, 2),
            bishop_bundle::TrainingRegime::Bsa,
            SimOptions::baseline(),
        );
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                let request = InferenceRequest::new(i, Arc::clone(&entry), i)
                    .with_engine(EngineName::native());
                handle.try_submit(request).expect("admitted")
            })
            .collect();
        handle.flush();
        for ticket in tickets {
            let response = ticket
                .wait()
                .expect("ticket resolves")
                .expect("capped batches stay within the engine's fold limit");
            assert!(
                response.batch_size <= 3,
                "batch of {} exceeds the fold cap",
                response.batch_size
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn auto_requests_resolve_on_a_concrete_engine() {
        // No deadline: auto prefers native for a profile native supports;
        // an ECP profile skips native (no ECP path) and lands on simulator.
        let server = online(BatchPolicy::new(1), None);
        let handle = server.handle();
        let entry = default_mixed_models()
            .into_iter()
            .find(|e| e.options.ecp_threshold.is_none())
            .expect("cifar entry has baseline options");
        let native_bound =
            InferenceRequest::new(0, Arc::clone(&entry), 1).with_engine(EngineName::auto());
        let ecp_bound = InferenceRequest::new(1, entry, 2)
            .with_options(SimOptions::with_ecp(6))
            .with_engine(EngineName::auto());
        let first = handle.try_submit(native_bound).expect("admitted");
        let second = handle.try_submit(ecp_bound).expect("admitted");
        handle.flush();
        assert_eq!(first.wait().unwrap().unwrap().engine(), "native");
        assert_eq!(second.wait().unwrap().unwrap().engine(), "simulator");
        let stats = server.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.admission.no_engine, 0);
    }

    #[test]
    fn drain_seed_resolution_prefers_explicit_overrides() {
        // No override: the descriptor seed wins.
        let config = OnlineConfig::default();
        assert_eq!(config.drain_seed("native", 2e9), 2e9);
        // A per-engine override beats it, for that engine only.
        let config = config.with_engine_drain_seed(EngineName::native(), 7.0);
        assert_eq!(config.drain_seed("native", 2e9), 7.0);
        assert_eq!(config.drain_seed("simulator", 5e9), 5e9);
        // The clamp never lets a seed below 1 op/s through.
        let config = OnlineConfig::default().with_engine_drain_seed(EngineName::native(), 0.0);
        assert_eq!(config.drain_seed("native", 2e9), 1.0);
        assert_eq!(config.drain_seed("simulator", 0.0), 1.0);
    }

    /// Replays `trace` through `server` in order (timing-free: no batch
    /// timeout, one flush) and returns the responses in trace order.
    fn replay(server: &OnlineServer, trace: Vec<InferenceRequest>) -> Vec<InferenceResponse> {
        let handle = server.handle();
        let tickets: Vec<Ticket> = trace
            .into_iter()
            .map(|r| handle.try_submit(r).expect("admitted"))
            .collect();
        handle.flush();
        tickets
            .into_iter()
            .map(|t| t.wait().expect("resolved").expect("executed"))
            .collect()
    }

    #[test]
    fn batching_amortizes_simulated_cost_per_request() {
        // The same trace served sequentially (batch=1) and batched (batch=8):
        // batching folds requests into the timestep axis, paying weight
        // streaming and pipeline overhead once per batch, so the total
        // simulated cycles (summed once per distinct batch) must drop.
        let total_cycles = |cap: usize| {
            let server = online(BatchPolicy::new(cap), None);
            let responses = replay(&server, mixed_trace(&default_mixed_models(), 16, 4, 1000));
            server.shutdown();
            let mut batches: Vec<(u64, u64)> = responses
                .iter()
                .map(|r| (r.batch_id, r.output.cycles))
                .collect();
            batches.sort_unstable();
            batches.dedup();
            assert!(cap == 1 || batches.len() < responses.len());
            batches.iter().map(|(_, cycles)| cycles).sum::<u64>()
        };
        let (sequential, batched) = (total_cycles(1), total_cycles(8));
        assert!(
            batched < sequential,
            "batched {batched} cycles vs sequential {sequential} cycles"
        );
    }

    #[test]
    fn repeated_traffic_hits_the_caches() {
        let cache = Arc::new(CalibrationCache::new());
        let results = Arc::new(ResultCache::new());
        let serve = || {
            let server = OnlineServer::with_caches(
                OnlineConfig::new(RuntimeConfig::new(2, BatchPolicy::new(4)))
                    .with_batch_timeout(None),
                Arc::clone(&cache),
                Arc::clone(&results),
            );
            let responses = replay(&server, mixed_trace(&default_mixed_models(), 8, 4, 1000));
            server.shutdown();
            responses
        };
        let first = serve();
        let (cache_first, results_first) = (cache.stats(), results.stats());
        assert_eq!(cache_first.hits, 0);
        assert!(cache_first.misses > 0);
        assert!(results_first.misses > 0);
        // The identical trace again: every batch result is already memoized,
        // so neither simulation nor workload synthesis runs at all.
        let second = serve();
        let replayed = results.stats().since(&results_first);
        assert_eq!(replayed.misses, 0);
        assert_eq!(replayed.hits, results_first.misses);
        assert_eq!(
            cache.stats().since(&cache_first),
            bishop_engine::CacheStats::default(),
            "result hits short-circuit workload synthesis entirely"
        );
        // And the simulated outputs are unchanged.
        for (a, b) in first.iter().zip(&second) {
            assert_eq!((a.request_id, a.batch_id), (b.request_id, b.batch_id));
            assert_eq!(a.output, b.output);
        }
    }

    #[test]
    fn native_engine_trace_serves_with_real_execution() {
        // Route the non-ECP model to the native CPU backend: every request
        // gets a measured-wall-clock response with a real prediction.
        let requests: Vec<InferenceRequest> = mixed_trace(&default_mixed_models(), 8, 4, 1000)
            .into_iter()
            .filter(|r| r.options.ecp_threshold.is_none())
            .map(|r| r.with_engine(EngineName::native()))
            .collect();
        let count = requests.len();
        let server = online(BatchPolicy::new(4), None);
        let responses = replay(&server, requests);
        assert_eq!(responses.len(), count);
        for response in &responses {
            assert_eq!(response.engine(), "native");
            assert!(response.output.wall_seconds.expect("measured") > 0.0);
            assert!(response.output.prediction.is_some());
        }
        assert_eq!(server.shutdown().failed, 0);
    }
}
