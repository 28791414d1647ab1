//! # bishop-runtime
//!
//! A batched, multi-core inference **serving runtime** in front of the
//! Bishop accelerator simulator — the first subsystem above single-shot
//! simulation, exercising the paper's core premise that Token-Time Bundling
//! turns many small spiking workloads into dense, schedulable batches
//! across heterogeneous cores.
//!
//! The pipeline is: clients submit [`InferenceRequest`]s — each naming an
//! `Arc`-shared catalog entry and an execution engine — to a running
//! [`OnlineServer`] through [`ServerHandle::try_submit`], which hands back
//! a [`Ticket`] per request; admission control sheds load with explicit
//! [`Rejection`]s (queue-depth and deadline based) instead of blocking; and
//! each engine runs its own **scheduling domain** — a bounded queue, a
//! batcher and a dedicated worker pool — so substrates never
//! head-of-line-block each other. The domain's [`BatchFormer`] coalesces
//! compatible requests — same model, training regime, simulation options
//! and engine — into [`RequestBatch`]es on a size-or-timeout policy by
//! folding the batch dimension into the *timestep* axis of the
//! Token-Time-Bundle stream (spiking attention is per-timestep, so the fold
//! is cost-exact while weight streaming and pipeline overhead are paid once
//! per batch); a least-loaded dispatcher shards batches across the domain's
//! workers, which execute each batch on the
//! [`InferenceEngine`](bishop_engine::InferenceEngine) backend it names
//! (the cycle-level Bishop simulator by default, the native CPU kernels or
//! a baseline model on request); workload synthesis is memoized in a shared
//! [`CalibrationCache`] keyed on `(ModelConfig, TrainingRegime, seed)`; and
//! [`OnlineServer::stats`] reports the counters, per-engine latency
//! percentiles and calibrated drain rates at any time.
//!
//! Per-engine **drain-rate calibration** (an online EWMA of observed
//! ops/second fed back from worker completions) drives both deadline
//! admission and `"auto"` engine selection: requests naming
//! [`EngineName::auto`](bishop_engine::EngineName::auto) route to the
//! most-preferred engine whose predicted completion meets their deadline.
//!
//! Determinism guarantee: with the batch timeout disabled
//! ([`OnlineConfig::with_batch_timeout`]`(None)`, batches close on size or
//! [`ServerHandle::flush`] only), every response of a trace executing on a
//! deterministic engine (the default `simulator`) depends only on the
//! trace — submission order and contents — never on worker count, machine
//! speed or scheduling jitter.
//!
//! ```
//! use bishop_runtime::{
//!     default_mixed_models, mixed_trace, BatchPolicy, OnlineConfig, OnlineServer, RuntimeConfig,
//! };
//!
//! let server = OnlineServer::start(
//!     OnlineConfig::new(RuntimeConfig::new(2, BatchPolicy::new(4))).with_batch_timeout(None),
//! );
//! let handle = server.handle();
//! let tickets: Vec<_> = mixed_trace(&default_mixed_models(), 8, 2, 42)
//!     .into_iter()
//!     .map(|request| handle.try_submit(request).expect("admitted"))
//!     .collect();
//! handle.flush();
//! for ticket in tickets {
//!     let response = ticket.wait().expect("answered").expect("executed");
//!     assert!(response.latency_seconds > 0.0);
//! }
//! assert_eq!(server.shutdown().completed, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod online;
pub mod report;
pub mod request;

/// The memoizing workload/result caches, re-exported from
/// [`bishop_engine`] (they back the simulator backend and are shared across
/// serving stacks).
pub use bishop_engine::cache;

pub use batch::{BatchFormer, BatchKey, BatchPolicy, Batchable, RequestBatch};
/// Streaming/session vocabulary appearing in the runtime's public API
/// ([`InferenceRequest::resume`], [`Ticket::progress`],
/// [`ServerHandle::register_sessions`]), re-exported so runtime clients
/// need no direct `bishop-engine`/`bishop-session` dependency.
pub use bishop_engine::{SessionState, StepEvent};
pub use bishop_session::{
    EvictionReason, SessionError, SessionId, SessionSnapshot, SessionStore, SessionStoreConfig,
    SessionStoreStats,
};
pub use cache::{CacheStats, CalibrationCache, ResultCache, ResultKey, WorkloadKey};
pub use online::{
    AdmissionStats, BreakerConfig, BreakerSnapshot, BreakerState, EngineLoadStats, OnlineConfig,
    OnlineServer, OnlineStats, Rejection, RetryPolicy, RuntimeConfig, SamplerConfig, ServeError,
    ServeResult, ServerHandle, Ticket,
};
pub use report::LatencyPercentiles;
pub use request::{default_mixed_models, mixed_trace, InferenceRequest, InferenceResponse};
