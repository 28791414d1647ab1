//! The inference API: model catalog, engine listing, request decoding and
//! response encoding.
//!
//! `POST /v1/infer` accepts a JSON document naming a catalogued model and,
//! optionally, an execution engine:
//!
//! ```json
//! {"model": "cifar10-serve", "engine": "native", "seed": 7,
//!  "regime": "bsa", "ecp_threshold": null, "deadline_ms": 50}
//! ```
//!
//! Only `model` is required. `engine` selects the execution backend (see
//! `GET /v1/engines`; default `simulator`) — or `"auto"`, which lets the
//! runtime's dispatcher pick the cheapest engine whose predicted completion
//! meets the deadline (`native` preferred, `simulator` under pressure);
//! `regime` and `ecp_threshold` override the catalog entry's defaults;
//! `deadline_ms` opts the request into deadline admission (shed up front
//! when the backlog would outlast the deadline). `"stream": true` answers
//! with a chunked NDJSON event stream (one `"step"` event per timestep,
//! then a terminal `"result"` event); `"session": "<id>"` continues a
//! session created on `POST /v1/sessions` from its persisted LIF membrane
//! state; `"timesteps": n` runs a partial prefix of the model's horizon.
//! All three need a concrete engine advertising `supports_streaming`.
//!
//! Errors are machine-readable: every non-2xx body is
//! `{"error": {"code": "<stable_code>", "message": "<human text>",
//! "request_id": <id>}}` — the id is the same one echoed in the
//! `X-Request-Id` header and looked up on `GET /v1/debug/traces/<id>`.

use std::sync::Arc;
use std::time::Duration;

use bishop_bundle::TrainingRegime;
use bishop_core::SimOptions;
use bishop_engine::{EngineName, EngineRegistry, StepEvent};
use bishop_obs::{
    FinishedTrace, ProfileReport, RouterDecision, RouterVerdict, SloStatus, StageStamp,
    TraceContext, TraceSnapshot,
};
use bishop_runtime::{EngineLoadStats, InferenceRequest, InferenceResponse};
use bishop_session::SessionStore;

use crate::json::Json;

pub use bishop_engine::{CatalogEntry, ModelCatalog};

/// A wire-level request failure: a stable machine-readable `code` plus a
/// human-readable message safe to echo back to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Stable error code (API: clients branch on it).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// HTTP status the error maps to (`400` for malformed/unknown inputs,
    /// `422` for well-formed requests the chosen engine cannot execute).
    pub status: u16,
}

impl ApiError {
    /// Builds a `400 Bad Request` error.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
            status: 400,
        }
    }

    /// Builds a `422 Unprocessable` error: syntactically valid, but the
    /// requested engine cannot execute the resolved request profile.
    pub fn unprocessable(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
            status: 422,
        }
    }
}

/// A decoded `/v1/infer` submission: the runtime request plus the optional
/// admission deadline.
#[derive(Debug)]
pub struct InferSubmission {
    /// The runtime inference request (id already assigned by the gateway).
    pub request: InferenceRequest,
    /// Deadline for deadline-based admission, if the client set one.
    pub deadline: Option<Duration>,
    /// Whether the client asked for the `"timings"` breakdown in the
    /// response body (`"trace": true` in the request, or `?trace=1`).
    pub trace_requested: bool,
    /// Whether the client asked for a chunked per-timestep event stream
    /// (`"stream": true`).
    pub stream: bool,
    /// Wire-form session id the request continues (`"session": "<id>"`),
    /// still unresolved — the server leases it against the store.
    pub session: Option<String>,
    /// Explicit timestep count (`"timesteps": n`), for partial execution.
    pub steps: Option<usize>,
}

/// Decodes a `/v1/infer` JSON body into a runtime request, resolving the
/// model against `catalog` and the (optional) engine against `engines`.
///
/// `auto_candidates` is the serving runtime's *configured* `"auto"`
/// preference order (see
/// [`ServerHandle::auto_candidates`](bishop_runtime::ServerHandle::auto_candidates))
/// — the preflight must agree with the dispatcher that will actually route
/// the request, not with the registry default.
pub fn decode_infer(
    body: &Json,
    catalog: &ModelCatalog,
    engines: &EngineRegistry,
    auto_candidates: &[EngineName],
    request_id: u64,
) -> Result<InferSubmission, ApiError> {
    let model_name = body
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::new("bad_request", "missing required string field \"model\""))?;
    let entry = catalog.get(model_name).ok_or_else(|| {
        let known: Vec<&str> = catalog.entries().iter().map(|e| e.name.as_str()).collect();
        ApiError::new(
            "unknown_model",
            format!("unknown model \"{model_name}\" (catalog: {known:?})"),
        )
    })?;

    let seed = match body.get("seed") {
        None => 0,
        Some(value) => value.as_u64().ok_or_else(|| {
            ApiError::new("bad_request", "\"seed\" must be a non-negative integer")
        })?,
    };

    let regime = match body.get("regime").map(|v| (v, v.as_str())) {
        None => entry.regime,
        Some((_, Some("baseline"))) => TrainingRegime::Baseline,
        Some((_, Some("bsa"))) => TrainingRegime::Bsa,
        Some(_) => {
            return Err(ApiError::new(
                "bad_request",
                "\"regime\" must be \"baseline\" or \"bsa\"",
            ))
        }
    };

    let options = match body.get("ecp_threshold") {
        None => entry.options,
        Some(Json::Null) => SimOptions::baseline(),
        Some(value) => {
            let threshold = value
                .as_u64()
                .filter(|&t| t <= u32::MAX as u64)
                .ok_or_else(|| {
                    ApiError::new(
                        "bad_request",
                        "\"ecp_threshold\" must be a non-negative integer",
                    )
                })?;
            SimOptions::with_ecp(threshold as u32)
        }
    };

    let deadline = match body.get("deadline_ms") {
        None => None,
        Some(value) => Some(Duration::from_millis(value.as_u64().ok_or_else(|| {
            ApiError::new(
                "bad_request",
                "\"deadline_ms\" must be a non-negative integer",
            )
        })?)),
    };

    let trace_requested = match body.get("trace") {
        None => false,
        Some(value) => value
            .as_bool()
            .ok_or_else(|| ApiError::new("bad_request", "\"trace\" must be a boolean"))?,
    };

    let stream = match body.get("stream") {
        None => false,
        Some(value) => value
            .as_bool()
            .ok_or_else(|| ApiError::new("bad_request", "\"stream\" must be a boolean"))?,
    };

    let session = match body.get("session") {
        None => None,
        Some(value) => Some(
            value
                .as_str()
                .ok_or_else(|| ApiError::new("bad_request", "\"session\" must be a string"))?
                .to_string(),
        ),
    };

    let steps = match body.get("timesteps") {
        None => None,
        Some(value) => {
            let steps = value.as_u64().filter(|&t| t >= 1).ok_or_else(|| {
                ApiError::new("bad_request", "\"timesteps\" must be a positive integer")
            })?;
            if steps > entry.config.timesteps as u64 {
                return Err(ApiError::unprocessable(
                    "timesteps_out_of_range",
                    format!(
                        "\"timesteps\" ({steps}) exceeds model \"{}\"'s {}-timestep horizon",
                        entry.name, entry.config.timesteps
                    ),
                ));
            }
            Some(steps as usize)
        }
    };

    // Engine resolution. `"auto"` defers the concrete choice to the
    // runtime's deadline-aware dispatcher; everything else resolves (or
    // defaults) to a registered backend here.
    let engine = match body.get("engine") {
        // Engine-less requests run on the registry's default (the first
        // registered engine), not a hardcoded name — a custom registry
        // without a "simulator" entry still serves them.
        None => EngineName::new(
            engines
                .default_engine()
                .ok_or_else(|| ApiError::new("no_engines", "no execution engines are registered"))?
                .descriptor()
                .name,
        ),
        Some(value) => {
            let name = value
                .as_str()
                .ok_or_else(|| ApiError::new("bad_request", "\"engine\" must be a string"))?;
            if name == bishop_engine::AUTO_ENGINE {
                EngineName::auto()
            } else {
                EngineName::new(
                    engines
                        .get(name)
                        .ok_or_else(|| {
                            ApiError::new(
                                "unknown_engine",
                                format!(
                                    "unknown engine \"{name}\" (registered: {:?}, \
                                     or \"auto\" for deadline-aware autoselection)",
                                    engines.names()
                                ),
                            )
                        })?
                        .descriptor()
                        .name,
                )
            }
        }
    };

    // Capability preflight: any refusal knowable from the request profile
    // alone — ECP on a non-ECP engine, or a model whose own timestep count
    // already exceeds the engine's fold limit — is rejected here, before
    // the request consumes a queue slot, a batch and a worker. (The domain
    // queue caps coalescing at the fold limit, so the only worker-side
    // refusals left are bundle-padding edge cases.) An "auto" request is
    // routable as long as *some* auto-eligible engine supports the
    // profile; the runtime dispatcher skips the rest.
    if engine.is_auto() {
        if !auto_candidates
            .iter()
            .filter_map(|name| engines.get(name.as_str()))
            .any(|e| e.descriptor().supports_model(&entry.config, &options))
        {
            let names: Vec<&str> = auto_candidates.iter().map(EngineName::as_str).collect();
            return Err(ApiError::unprocessable(
                "auto_unroutable",
                format!(
                    "no auto-eligible engine (preference {names:?}) can execute model \
                     \"{}\" with the requested options",
                    entry.name
                ),
            ));
        }
    } else if let Some(backend) = engines.get(engine.as_str()) {
        let descriptor = backend.descriptor();
        if !descriptor.supports_options(&options) {
            return Err(ApiError::unprocessable(
                "ecp_unsupported",
                format!(
                    "engine \"{}\" does not support ECP pruning options \
                     (set \"ecp_threshold\": null or pick an engine from /v1/models)",
                    descriptor.name
                ),
            ));
        }
        if let Some(limit) = descriptor.max_folded_timesteps {
            if entry.config.timesteps > limit {
                return Err(ApiError::unprocessable(
                    "batch_too_large",
                    format!(
                        "model \"{}\" spans {} timesteps, above engine \"{}\"'s \
                         {limit}-folded-timestep capacity",
                        entry.name, entry.config.timesteps, descriptor.name
                    ),
                ));
            }
        }
    }

    // Streaming preflight: streamed, session-bound and partial-timestep
    // requests run the stateful execution path, which needs a concrete
    // engine implementing per-step streaming. Refuse here — before any
    // chunked `200` response header could commit to the wire — so the
    // client always gets a typed error. `"auto"` stays blocking-only: the
    // dispatcher's capability model knows nothing about streaming.
    if stream || session.is_some() || steps.is_some() {
        if engine.is_auto() {
            return Err(ApiError::unprocessable(
                "streaming_unsupported",
                "streamed, session-bound and partial-timestep requests need a concrete \
                 \"engine\" (\"auto\" routing cannot guarantee a streaming-capable backend)",
            ));
        }
        if let Some(backend) = engines.get(engine.as_str()) {
            let descriptor = backend.descriptor();
            if !descriptor.supports_streaming {
                return Err(ApiError::unprocessable(
                    "streaming_unsupported",
                    format!(
                        "engine \"{}\" does not implement streamed stateful execution \
                         (see \"supports_streaming\" on GET /v1/engines)",
                        descriptor.name
                    ),
                ));
            }
        }
    }

    let mut request = InferenceRequest::new(request_id, Arc::clone(entry), seed)
        .with_regime(regime)
        .with_options(options)
        .with_engine(engine);
    if stream {
        request = request.with_streaming();
    }
    if let Some(steps) = steps {
        request = request.with_steps(steps);
    }
    Ok(InferSubmission {
        request,
        deadline,
        trace_requested,
        stream,
        session,
        steps,
    })
}

/// Encodes a runtime response for the `/v1/infer` reply body.
pub fn encode_response(response: &InferenceResponse) -> Json {
    let mut fields = vec![
        ("request_id", Json::from_u64(response.request_id)),
        ("engine", Json::string(response.engine())),
        ("batch_id", Json::from_u64(response.batch_id)),
        ("batch_size", Json::from_u64(response.batch_size as u64)),
        ("worker", Json::from_u64(response.worker as u64)),
        ("latency_seconds", Json::Number(response.latency_seconds)),
        ("energy_mj", Json::Number(response.energy_share_mj())),
        ("cycles", Json::from_u64(response.output.cycles)),
    ];
    if let Some(wall) = response.output.wall_seconds {
        fields.push(("wall_seconds", Json::Number(wall)));
    }
    // Named for what it is: the forward pass ran once for the whole batch
    // (folded config, combined seed), so the prediction describes the batch
    // the request rode in, not the request alone.
    if let Some(prediction) = response.output.prediction {
        fields.push(("batch_prediction", Json::from_u64(prediction as u64)));
    }
    Json::object(fields)
}

/// Encodes the catalog for `GET /v1/models`, including which registered
/// engines support each entry's default options.
pub fn models_json(catalog: &ModelCatalog, engines: &EngineRegistry) -> Json {
    Json::Array(
        catalog
            .entries()
            .iter()
            .map(|e| {
                let supported: Vec<Json> = engines
                    .descriptors()
                    .iter()
                    .filter(|d| d.supports_model(&e.config, &e.options))
                    .map(|d| Json::string(d.name))
                    .collect();
                Json::object(vec![
                    ("name", Json::string(&e.name)),
                    ("dataset", Json::string(format!("{}", e.config.dataset))),
                    ("blocks", Json::from_u64(e.config.blocks as u64)),
                    ("timesteps", Json::from_u64(e.config.timesteps as u64)),
                    ("tokens", Json::from_u64(e.config.tokens as u64)),
                    ("features", Json::from_u64(e.config.features as u64)),
                    ("regime", Json::string(regime_name(e.regime))),
                    (
                        "ecp_threshold",
                        match e.options.ecp_threshold {
                            Some(t) => Json::from_u64(t as u64),
                            None => Json::Null,
                        },
                    ),
                    ("engines", Json::Array(supported)),
                ])
            })
            .collect(),
    )
}

/// Encodes the engine registry for `GET /v1/engines`: each backend's name
/// and capability descriptor, in registration (default-first) order, plus
/// — when the serving runtime provides per-engine load stats — the live
/// scheduling-domain view: queue depth, backlog, calibrated drain rate and
/// observed p50/p95 latency.
pub fn engines_json(engines: &EngineRegistry, load: &[EngineLoadStats]) -> Json {
    Json::Array(
        engines
            .descriptors()
            .iter()
            .map(|d| {
                let mut fields = vec![
                    ("name", Json::string(d.name)),
                    ("substrate", Json::string(d.substrate.label())),
                    ("supports_ecp", Json::Bool(d.supports_ecp)),
                    ("deterministic", Json::Bool(d.deterministic)),
                    ("measures_wall_clock", Json::Bool(d.measures_wall_clock)),
                    ("supports_streaming", Json::Bool(d.supports_streaming)),
                    (
                        "max_folded_timesteps",
                        match d.max_folded_timesteps {
                            Some(t) => Json::from_u64(t as u64),
                            None => Json::Null,
                        },
                    ),
                    (
                        "seed_drain_ops_per_second",
                        Json::Number(d.seed_drain_ops_per_second),
                    ),
                    (
                        "simd_tier",
                        match d.simd_tier {
                            Some(tier) => Json::string(tier),
                            None => Json::Null,
                        },
                    ),
                    ("description", Json::string(d.description)),
                ];
                if let Some(stats) = load.iter().find(|s| s.engine.as_str() == d.name) {
                    fields.extend([
                        ("queue_depth", Json::from_u64(stats.queue_depth as u64)),
                        ("backlog_ops", Json::from_u64(stats.backlog_ops)),
                        ("batches_executed", Json::from_u64(stats.batches_executed)),
                        ("completed", Json::from_u64(stats.completed)),
                        ("failed", Json::from_u64(stats.failed)),
                        (
                            "drain_ops_per_second",
                            Json::Number(stats.drain_ops_per_second),
                        ),
                        (
                            "drain_observations",
                            Json::from_u64(stats.drain_observations),
                        ),
                        ("latency_p50_seconds", Json::Number(stats.latency.p50)),
                        ("latency_p95_seconds", Json::Number(stats.latency.p95)),
                        ("breaker_state", Json::string(stats.breaker.state.label())),
                        (
                            "consecutive_errors",
                            Json::from_u64(stats.breaker.consecutive_errors),
                        ),
                        (
                            "breaker_opened_total",
                            Json::from_u64(stats.breaker.opened_total),
                        ),
                        ("worker_panics", Json::from_u64(stats.worker_panics)),
                        ("retries_attempted", Json::from_u64(stats.retries_attempted)),
                        ("retries_recovered", Json::from_u64(stats.retries_recovered)),
                        ("retries_exhausted", Json::from_u64(stats.retries_exhausted)),
                    ]);
                    if let Some(reopen) = stats.breaker.reopen_seconds {
                        fields.push(("breaker_reopen_seconds", Json::Number(reopen)));
                    }
                }
                Json::object(fields)
            })
            .collect(),
    )
}

fn regime_name(regime: TrainingRegime) -> &'static str {
    match regime {
        TrainingRegime::Baseline => "baseline",
        TrainingRegime::Bsa => "bsa",
    }
}

/// Encodes an error body:
/// `{"error": {"code": ..., "message": ..., "request_id": ...}}`. The
/// request id matches the `X-Request-Id` response header, so a failed
/// request can be looked up on `GET /v1/debug/traces/<id>` and correlated
/// with the structured event log.
pub fn error_body(code: &str, message: &str, request_id: u64) -> Json {
    Json::object(vec![(
        "error",
        Json::object(vec![
            ("code", Json::string(code)),
            ("message", Json::string(message)),
            ("request_id", Json::from_u64(request_id)),
        ]),
    )])
}

/// Encodes one recorded stage span of a trace.
fn stamp_json(stamp: &StageStamp) -> Json {
    Json::object(vec![
        ("stage", Json::string(stamp.stage.label())),
        ("start_seconds", Json::Number(stamp.start_seconds)),
        ("end_seconds", Json::Number(stamp.end_seconds)),
        ("seconds", Json::Number(stamp.seconds())),
    ])
}

/// Encodes a router decision record: the candidates the dispatcher walked
/// (with the predicted completion each was judged on) and the verdict.
fn router_json(decision: &RouterDecision) -> Json {
    let candidates = decision
        .candidates
        .iter()
        .map(|c| {
            let mut fields = vec![
                ("engine", Json::string(&c.engine)),
                ("eligible", Json::Bool(c.eligible)),
            ];
            if let Some(predicted) = c.predicted_seconds {
                fields.push(("predicted_seconds", Json::Number(predicted)));
            }
            if let Some(meets) = c.meets_deadline {
                fields.push(("meets_deadline", Json::Bool(meets)));
            }
            if c.breaker_open {
                fields.push(("breaker_open", Json::Bool(true)));
            }
            Json::object(fields)
        })
        .collect();
    let verdict = match &decision.verdict {
        RouterVerdict::Chosen { engine, degraded } => Json::object(vec![
            (
                "outcome",
                Json::string(if *degraded { "degraded" } else { "chosen" }),
            ),
            ("engine", Json::string(engine)),
        ]),
        RouterVerdict::Shed { reason } => Json::object(vec![
            ("outcome", Json::string("shed")),
            ("reason", Json::string(reason)),
        ]),
    };
    let mut fields = Vec::new();
    if let Some(deadline) = decision.deadline_seconds {
        fields.push(("deadline_seconds", Json::Number(deadline)));
    }
    fields.push(("candidates", Json::Array(candidates)));
    fields.push(("verdict", verdict));
    Json::object(fields)
}

/// Encodes a trace snapshot's shared fields (annotations, stage spans,
/// router record) into `fields`.
fn snapshot_fields(snapshot: &TraceSnapshot, fields: &mut Vec<(&'static str, Json)>) {
    if let Some(model) = &snapshot.model {
        fields.push(("model", Json::string(model)));
    }
    if let Some(engine) = &snapshot.engine {
        fields.push(("engine", Json::string(engine)));
    }
    if let Some(session) = &snapshot.session {
        fields.push(("session", Json::string(session)));
    }
    if let Some(batch_id) = snapshot.batch_id {
        fields.push(("batch_id", Json::from_u64(batch_id)));
    }
    fields.push(("retries", Json::from_u64(snapshot.retries as u64)));
    fields.push((
        "stages",
        Json::Array(snapshot.stamps.iter().map(stamp_json).collect()),
    ));
    if let Some(router) = &snapshot.router {
        fields.push(("router", router_json(router)));
    }
}

/// Encodes the opt-in `"timings"` object carried on a `/v1/infer` response
/// (`?trace=1` or `"trace": true`): the stage spans recorded so far, on the
/// trace's own clock. The `response_write` span is necessarily absent — it
/// ends only after these bytes are on the wire; fetch the finished trace
/// from `GET /v1/debug/traces/<id>` for the complete record.
pub fn timings_json(trace: &TraceContext) -> Json {
    let snapshot = trace.snapshot();
    let mut fields = vec![
        ("request_id", Json::from_u64(snapshot.request_id)),
        ("elapsed_seconds", Json::Number(trace.elapsed_seconds())),
    ];
    snapshot_fields(&snapshot, &mut fields);
    Json::object(fields)
}

/// Encodes one finished trace in full, for `GET /v1/debug/traces/<id>`.
pub fn trace_json(trace: &FinishedTrace) -> Json {
    let mut fields = vec![
        ("request_id", Json::from_u64(trace.snapshot.request_id)),
        ("status", Json::from_u64(trace.status as u64)),
        ("total_seconds", Json::Number(trace.total_seconds)),
    ];
    if let Some(code) = &trace.error_code {
        fields.push(("error_code", Json::string(code)));
    }
    snapshot_fields(&trace.snapshot, &mut fields);
    Json::object(fields)
}

/// Encodes the SLO statuses for `GET /v1/slo`: one object per objective
/// with its compliance, remaining error budget, multi-window burn rates
/// and current alert state.
pub fn slo_json(statuses: &[SloStatus]) -> Json {
    Json::Array(
        statuses
            .iter()
            .map(|s| {
                Json::object(vec![
                    ("name", Json::string(&s.name)),
                    ("kind", Json::string(s.kind)),
                    ("objective", Json::Number(s.objective)),
                    ("window_seconds", Json::Number(s.window_seconds)),
                    ("fast_window_seconds", Json::Number(s.fast_window_seconds)),
                    ("compliance", Json::Number(s.compliance)),
                    ("fast_compliance", Json::Number(s.fast_compliance)),
                    (
                        "error_budget_remaining",
                        Json::Number(s.error_budget_remaining),
                    ),
                    ("burn_rate_fast", Json::Number(s.burn_rate_fast)),
                    ("burn_rate_slow", Json::Number(s.burn_rate_slow)),
                    ("alert", Json::string(s.alert.label())),
                    ("good_events", Json::Number(s.good_events)),
                    ("total_events", Json::Number(s.total_events)),
                ])
            })
            .collect(),
    )
}

/// Encodes the profiler report for `GET /v1/debug/profile`: per
/// engine×kind×stage self-time entries plus the collapsed-stack lines a
/// flame-graph tool folds directly.
pub fn profile_json(report: &ProfileReport) -> Json {
    let entries = report
        .entries
        .iter()
        .map(|e| {
            Json::object(vec![
                ("engine", Json::string(&e.engine)),
                ("kind", Json::string(e.kind)),
                ("stage", Json::string(e.stage)),
                ("samples", Json::from_u64(e.samples)),
                ("seconds", Json::Number(e.seconds)),
                ("fraction", Json::Number(e.fraction)),
            ])
        })
        .collect();
    Json::object(vec![
        ("total_samples", Json::from_u64(report.total_samples)),
        ("total_seconds", Json::Number(report.total_seconds)),
        ("entries", Json::Array(entries)),
        (
            "collapsed",
            Json::Array(report.collapsed().iter().map(Json::string).collect()),
        ),
    ])
}

/// Encodes one finished trace as a listing row, for `GET /v1/debug/traces`.
pub fn trace_summary_json(trace: &FinishedTrace) -> Json {
    let mut fields = vec![
        ("request_id", Json::from_u64(trace.snapshot.request_id)),
        ("status", Json::from_u64(trace.status as u64)),
        ("total_seconds", Json::Number(trace.total_seconds)),
    ];
    if let Some(code) = &trace.error_code {
        fields.push(("error_code", Json::string(code)));
    }
    if let Some(model) = &trace.snapshot.model {
        fields.push(("model", Json::string(model)));
    }
    if let Some(engine) = &trace.snapshot.engine {
        fields.push(("engine", Json::string(engine)));
    }
    if let Some(session) = &trace.snapshot.session {
        fields.push(("session", Json::string(session)));
    }
    Json::object(fields)
}

/// Encodes one streamed progress event as one NDJSON line object of the
/// chunked `/v1/infer` response: `{"event": "step", ...}`.
pub fn step_event_json(request_id: u64, event: &StepEvent) -> Json {
    Json::object(vec![
        ("event", Json::string("step")),
        ("request_id", Json::from_u64(request_id)),
        ("index", Json::from_u64(event.index as u64)),
        ("total", Json::from_u64(event.total as u64)),
        ("unit", Json::string(event.unit)),
        ("spikes", Json::from_u64(event.spikes as u64)),
    ])
}

/// Encodes the session store for `GET /v1/sessions`: the store's bounds
/// plus one row per live session.
pub fn sessions_json(store: &SessionStore) -> Json {
    let config = store.config();
    let stats = store.stats();
    let rows = store
        .snapshot()
        .iter()
        .map(|s| {
            Json::object(vec![
                ("id", Json::string(&s.id)),
                ("model", Json::string(&s.model)),
                ("engine", Json::string(&s.engine)),
                ("seed", Json::from_u64(s.seed)),
                ("timesteps_done", Json::from_u64(s.timesteps_done as u64)),
                ("in_flight", Json::Bool(s.in_flight)),
                ("age_seconds", Json::Number(s.age_seconds)),
                (
                    "ttl_remaining_seconds",
                    Json::Number(s.ttl_remaining_seconds),
                ),
            ])
        })
        .collect();
    Json::object(vec![
        ("capacity", Json::from_u64(config.capacity as u64)),
        ("ttl_seconds", Json::Number(config.ttl.as_secs_f64())),
        ("active", Json::from_u64(stats.active)),
        ("sessions", Json::Array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_core::BishopConfig;
    use bishop_engine::{CalibrationCache, ResultCache};

    fn registry() -> EngineRegistry {
        EngineRegistry::serving_default(
            &BishopConfig::default(),
            Arc::new(CalibrationCache::new()),
            Arc::new(ResultCache::new()),
        )
    }

    /// The registry's default auto preference as `EngineName`s — what a
    /// stock `OnlineConfig` would hand `decode_infer`.
    fn auto_names(engines: &EngineRegistry) -> Vec<EngineName> {
        engines
            .auto_candidates()
            .iter()
            .map(|e| EngineName::new(e.descriptor().name))
            .collect()
    }

    /// `decode_infer` with the registry-default auto candidates.
    fn decode(
        body: &Json,
        catalog: &ModelCatalog,
        engines: &EngineRegistry,
        request_id: u64,
    ) -> Result<InferSubmission, ApiError> {
        decode_infer(body, catalog, engines, &auto_names(engines), request_id)
    }

    #[test]
    fn decodes_a_minimal_submission_with_catalog_defaults() {
        let catalog = ModelCatalog::serving_default();
        let body = Json::parse(r#"{"model": "imagenet100-serve"}"#).unwrap();
        let submission = decode(&body, &catalog, &registry(), 41).unwrap();
        assert_eq!(submission.request.id, 41);
        assert_eq!(submission.request.seed, 0);
        assert_eq!(submission.request.regime, TrainingRegime::Bsa);
        assert_eq!(submission.request.options, SimOptions::with_ecp(6));
        assert_eq!(submission.request.engine, EngineName::simulator());
        assert!(submission.deadline.is_none());
        // The request shares the catalog's entry allocation.
        let catalogued = catalog.get("imagenet100-serve").unwrap();
        assert!(Arc::ptr_eq(&submission.request.entry, catalogued));
    }

    #[test]
    fn decodes_overrides_engine_and_deadline() {
        let catalog = ModelCatalog::serving_default();
        let body = Json::parse(
            r#"{"model": "cifar10-serve", "engine": "native", "seed": 9,
                "regime": "baseline", "ecp_threshold": null, "deadline_ms": 25}"#,
        )
        .unwrap();
        let submission = decode(&body, &catalog, &registry(), 1).unwrap();
        assert_eq!(submission.request.seed, 9);
        assert_eq!(submission.request.regime, TrainingRegime::Baseline);
        assert_eq!(submission.request.options, SimOptions::baseline());
        assert_eq!(submission.request.engine, EngineName::native());
        assert_eq!(submission.deadline, Some(Duration::from_millis(25)));
    }

    #[test]
    fn rejects_unknown_models_engines_and_bad_fields() {
        let catalog = ModelCatalog::serving_default();
        let engines = registry();
        for (body, code, needle) in [
            (r#"{}"#, "bad_request", "missing required"),
            (r#"{"model": "nope"}"#, "unknown_model", "unknown model"),
            (r#"{"model": 3}"#, "bad_request", "missing required"),
            (
                r#"{"model": "cifar10-serve", "engine": "tpu"}"#,
                "unknown_engine",
                "unknown engine",
            ),
            (
                r#"{"model": "cifar10-serve", "engine": 4}"#,
                "bad_request",
                "engine",
            ),
            (
                r#"{"model": "cifar10-serve", "seed": -1}"#,
                "bad_request",
                "seed",
            ),
            (
                r#"{"model": "cifar10-serve", "regime": "x"}"#,
                "bad_request",
                "regime",
            ),
            (
                r#"{"model": "cifar10-serve", "ecp_threshold": 1.5}"#,
                "bad_request",
                "ecp_threshold",
            ),
            (
                r#"{"model": "cifar10-serve", "deadline_ms": "soon"}"#,
                "bad_request",
                "deadline_ms",
            ),
        ] {
            let json = Json::parse(body).unwrap();
            let error = decode(&json, &catalog, &engines, 0).unwrap_err();
            assert_eq!(error.code, code, "{body}");
            assert!(error.message.contains(needle), "{body} -> {error:?}");
        }
    }

    #[test]
    fn capability_preflight_rejects_unexecutable_profiles_at_decode() {
        let catalog = ModelCatalog::serving_default();
        let engines = registry();
        // ECP-default model on a non-ECP engine: refused at decode (422,
        // stable code) instead of after admission and worker dispatch.
        let body = Json::parse(r#"{"model": "imagenet100-serve", "engine": "native"}"#).unwrap();
        let error = decode(&body, &catalog, &engines, 0).unwrap_err();
        assert_eq!(error.code, "ecp_unsupported");
        assert_eq!(error.status, 422);
        // Disabling ECP makes the same profile executable.
        let body = Json::parse(
            r#"{"model": "imagenet100-serve", "engine": "native", "ecp_threshold": null}"#,
        )
        .unwrap();
        assert!(decode(&body, &catalog, &engines, 0).is_ok());

        // A model whose own timestep count exceeds the engine's fold limit
        // can never execute there, batched or alone: refused at decode.
        let catalog = catalog.with_model(
            "marathon",
            bishop_model::ModelConfig::new(
                "marathon",
                bishop_model::DatasetKind::Cifar10,
                1,
                2048,
                4,
                16,
                2,
            ),
            TrainingRegime::Bsa,
            SimOptions::baseline(),
        );
        let body = Json::parse(r#"{"model": "marathon", "engine": "native"}"#).unwrap();
        let error = decode(&body, &catalog, &engines, 0).unwrap_err();
        assert_eq!(error.code, "batch_too_large");
        assert_eq!(error.status, 422);
        // The unbounded simulator still takes it.
        let body = Json::parse(r#"{"model": "marathon"}"#).unwrap();
        assert!(decode(&body, &catalog, &engines, 0).is_ok());
    }

    #[test]
    fn engineless_requests_resolve_the_registry_default() {
        let catalog = ModelCatalog::serving_default();
        // A custom registry whose default (first registered) engine is not
        // "simulator": engine-less requests must land on it, not on a
        // hardcoded name the registry does not hold.
        let engines = EngineRegistry::new()
            .with_engine(std::sync::Arc::new(bishop_engine::NativeEngine::new()));
        let body = Json::parse(r#"{"model": "cifar10-serve"}"#).unwrap();
        let submission = decode(&body, &catalog, &engines, 0).unwrap();
        assert_eq!(submission.request.engine.as_str(), "native");
        // An empty registry is a typed failure, not a panic.
        let error = decode(&body, &catalog, &EngineRegistry::new(), 0).unwrap_err();
        assert_eq!(error.code, "no_engines");
    }

    #[test]
    fn catalog_json_lists_models_with_engine_support() {
        let json = models_json(&ModelCatalog::serving_default(), &registry());
        let Json::Array(models) = &json else {
            panic!("expected array")
        };
        assert_eq!(models.len(), 2);
        assert_eq!(
            models[0].get("name").and_then(Json::as_str),
            Some("cifar10-serve")
        );
        // The non-ECP entry is supported everywhere; the ECP entry only by
        // the Bishop simulator.
        let engines_of = |m: &Json| match m.get("engines") {
            Some(Json::Array(items)) => items
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect::<Vec<_>>(),
            _ => panic!("expected engines array"),
        };
        assert_eq!(
            engines_of(&models[0]),
            ["simulator", "native", "ptb", "gpu"]
        );
        assert_eq!(engines_of(&models[1]), ["simulator"]);

        // A model over the native fold limit drops out of native's support
        // list — /v1/models never advertises an engine the preflight would
        // then refuse.
        let catalog = ModelCatalog::serving_default().with_model(
            "marathon",
            bishop_model::ModelConfig::new(
                "marathon",
                bishop_model::DatasetKind::Cifar10,
                1,
                2048,
                4,
                16,
                2,
            ),
            TrainingRegime::Bsa,
            SimOptions::baseline(),
        );
        let json = models_json(&catalog, &registry());
        let Json::Array(models) = &json else {
            panic!("expected array")
        };
        assert_eq!(engines_of(&models[2]), ["simulator", "ptb", "gpu"]);
    }

    #[test]
    fn engines_json_publishes_descriptors() {
        let json = engines_json(&registry(), &[]);
        let Json::Array(engines) = &json else {
            panic!("expected array")
        };
        assert_eq!(engines.len(), 4);
        assert_eq!(
            engines[0].get("name").and_then(Json::as_str),
            Some("simulator")
        );
        assert_eq!(
            engines[0].get("supports_ecp").and_then(Json::as_bool),
            Some(true)
        );
        assert!(engines[0].get("seed_drain_ops_per_second").is_some());
        // Without runtime load stats the live fields are absent.
        assert!(engines[0].get("queue_depth").is_none());
        let native = &engines[1];
        assert_eq!(native.get("name").and_then(Json::as_str), Some("native"));
        assert_eq!(
            native.get("measures_wall_clock").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            native.get("substrate").and_then(Json::as_str),
            Some("host_cpu")
        );
        // The native engine publishes the SIMD tier its kernels resolved
        // to; pure simulators/analytic models publish null.
        let tier = native.get("simd_tier").and_then(Json::as_str);
        assert!(
            matches!(tier, Some("scalar" | "neon" | "avx2" | "avx512")),
            "unexpected simd_tier {tier:?}"
        );
        assert_eq!(engines[0].get("simd_tier"), Some(&Json::Null));
    }

    #[test]
    fn engines_json_merges_live_scheduling_stats() {
        use bishop_runtime::LatencyPercentiles;
        let load = vec![EngineLoadStats {
            engine: EngineName::native(),
            queue_depth: 3,
            backlog_ops: 99,
            batches_executed: 7,
            completed: 21,
            failed: 1,
            drain_ops_per_second: 1234.5,
            drain_observations: 7,
            latency: LatencyPercentiles {
                p50: 0.001,
                p95: 0.005,
                p99: 0.006,
                mean: 0.002,
                max: 0.006,
            },
            ..EngineLoadStats::default()
        }];
        let json = engines_json(&registry(), &load);
        let Json::Array(engines) = &json else {
            panic!("expected array")
        };
        let native = engines
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("native"))
            .expect("native entry");
        assert_eq!(native.get("queue_depth").and_then(Json::as_u64), Some(3));
        assert_eq!(native.get("completed").and_then(Json::as_u64), Some(21));
        assert_eq!(
            native
                .get("drain_ops_per_second")
                .map(|v| matches!(v, Json::Number(n) if *n == 1234.5)),
            Some(true)
        );
        assert!(native.get("latency_p50_seconds").is_some());
        assert!(native.get("latency_p95_seconds").is_some());
        // The fault-tolerance view rides with the load stats: breaker state,
        // consecutive errors and the retry/panic counters.
        assert_eq!(
            native.get("breaker_state").and_then(Json::as_str),
            Some("closed")
        );
        assert_eq!(
            native.get("consecutive_errors").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(native.get("worker_panics").and_then(Json::as_u64), Some(0));
        assert_eq!(
            native.get("retries_attempted").and_then(Json::as_u64),
            Some(0)
        );
        assert!(native.get("breaker_reopen_seconds").is_none());
        // Engines without a load entry keep descriptor-only fields.
        let simulator = engines
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("simulator"))
            .expect("simulator entry");
        assert!(simulator.get("queue_depth").is_none());
    }

    #[test]
    fn auto_engine_decodes_and_preflights_against_candidates() {
        let catalog = ModelCatalog::serving_default();
        let engines = registry();
        // "auto" survives decoding as the auto pseudo-engine: the runtime
        // dispatcher makes the concrete choice at admission.
        let body = Json::parse(r#"{"model": "cifar10-serve", "engine": "auto"}"#).unwrap();
        let submission = decode(&body, &catalog, &engines, 0).unwrap();
        assert!(submission.request.engine.is_auto());
        // An ECP-default model is auto-routable (the simulator candidate
        // supports it), even though native would refuse it.
        let body = Json::parse(r#"{"model": "imagenet100-serve", "engine": "auto"}"#).unwrap();
        assert!(decode(&body, &catalog, &engines, 0).is_ok());
        // With only a non-ECP candidate registered, the same profile is
        // unroutable: typed 422 at decode, before any queue slot.
        let native_only = EngineRegistry::new()
            .with_engine(std::sync::Arc::new(bishop_engine::NativeEngine::new()));
        let error = decode(&body, &catalog, &native_only, 0).unwrap_err();
        assert_eq!(error.code, "auto_unroutable");
        assert_eq!(error.status, 422);

        // The preflight honours the runtime's *configured* candidate list,
        // not the registry default: a server whose auto preference was
        // restricted to native rejects the ECP profile even though the
        // full registry holds an ECP-capable simulator.
        let restricted = [EngineName::native()];
        let error = decode_infer(&body, &catalog, &engines, &restricted, 0).unwrap_err();
        assert_eq!(error.code, "auto_unroutable");
        assert!(error.message.contains("native"), "{}", error.message);
    }

    #[test]
    fn decodes_stream_session_and_timesteps_fields() {
        let catalog = ModelCatalog::serving_default();
        let engines = registry();
        let body = Json::parse(
            r#"{"model": "cifar10-serve", "engine": "native", "stream": true,
                "session": "sess-0-0", "timesteps": 2}"#,
        )
        .unwrap();
        let submission = decode(&body, &catalog, &engines, 3).unwrap();
        assert!(submission.stream);
        assert_eq!(submission.session.as_deref(), Some("sess-0-0"));
        assert_eq!(submission.steps, Some(2));
        assert!(submission.request.streaming);
        assert_eq!(submission.request.steps, Some(2));
        // Plain requests decode with the stateful fields off.
        let body = Json::parse(r#"{"model": "cifar10-serve"}"#).unwrap();
        let submission = decode(&body, &catalog, &engines, 4).unwrap();
        assert!(!submission.stream);
        assert!(submission.session.is_none());
        assert!(submission.steps.is_none());
        assert!(!submission.request.stateful());
        // Malformed stateful fields are typed 400s.
        for body in [
            r#"{"model": "cifar10-serve", "engine": "native", "stream": "yes"}"#,
            r#"{"model": "cifar10-serve", "engine": "native", "session": 7}"#,
            r#"{"model": "cifar10-serve", "engine": "native", "timesteps": 0}"#,
        ] {
            let json = Json::parse(body).unwrap();
            let error = decode(&json, &catalog, &engines, 0).unwrap_err();
            assert_eq!(error.code, "bad_request", "{body}");
        }
        // Timestep counts beyond the model horizon are a 422.
        let body =
            Json::parse(r#"{"model": "cifar10-serve", "engine": "native", "timesteps": 4096}"#)
                .unwrap();
        let error = decode(&body, &catalog, &engines, 0).unwrap_err();
        assert_eq!(error.code, "timesteps_out_of_range");
        assert_eq!(error.status, 422);
    }

    #[test]
    fn streaming_preflight_refuses_auto_and_non_streaming_engines() {
        let catalog = ModelCatalog::serving_default();
        let engines = registry();
        // "auto" cannot guarantee a streaming-capable backend.
        let body =
            Json::parse(r#"{"model": "cifar10-serve", "engine": "auto", "stream": true}"#).unwrap();
        let error = decode(&body, &catalog, &engines, 0).unwrap_err();
        assert_eq!(error.code, "streaming_unsupported");
        assert_eq!(error.status, 422);
        // The baseline engines advertise supports_streaming = false, so a
        // streamed request is refused at decode — before any chunked
        // response header could commit.
        for field in [r#""stream": true"#, r#""session": "sess-0-0""#] {
            let body = Json::parse(&format!(
                r#"{{"model": "cifar10-serve", "engine": "ptb", {field}}}"#
            ))
            .unwrap();
            let error = decode(&body, &catalog, &engines, 0).unwrap_err();
            assert_eq!(error.code, "streaming_unsupported", "{field}");
            assert_eq!(error.status, 422);
        }
        // Both streaming-capable engines accept the same request shape.
        for engine in ["simulator", "native"] {
            let body = Json::parse(&format!(
                r#"{{"model": "cifar10-serve", "engine": "{engine}", "stream": true}}"#
            ))
            .unwrap();
            assert!(decode(&body, &catalog, &engines, 0).is_ok(), "{engine}");
        }
    }

    #[test]
    fn step_events_and_session_listings_encode() {
        let event = StepEvent {
            index: 2,
            total: 6,
            unit: "timestep",
            spikes: 31,
        };
        let json = step_event_json(9, &event);
        assert_eq!(json.get("event").and_then(Json::as_str), Some("step"));
        assert_eq!(json.get("request_id").and_then(Json::as_u64), Some(9));
        assert_eq!(json.get("index").and_then(Json::as_u64), Some(2));
        assert_eq!(json.get("total").and_then(Json::as_u64), Some(6));
        assert_eq!(json.get("unit").and_then(Json::as_str), Some("timestep"));
        assert_eq!(json.get("spikes").and_then(Json::as_u64), Some(31));

        let store = SessionStore::new(bishop_session::SessionStoreConfig::default());
        let id = store.create("cifar10-serve", "native", 7).unwrap();
        let json = sessions_json(&store);
        assert_eq!(json.get("capacity").and_then(Json::as_u64), Some(64));
        assert_eq!(json.get("active").and_then(Json::as_u64), Some(1));
        let Some(Json::Array(rows)) = json.get("sessions") else {
            panic!("expected sessions array");
        };
        assert_eq!(
            rows[0].get("id").and_then(Json::as_str),
            Some(id.to_string().as_str())
        );
        assert_eq!(
            rows[0].get("model").and_then(Json::as_str),
            Some("cifar10-serve")
        );
        assert_eq!(
            rows[0].get("in_flight").and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn error_body_nests_code_message_and_request_id() {
        let body = error_body("queue_full", "submission queue full", 77);
        let error = body.get("error").expect("error object");
        assert_eq!(error.get("code").and_then(Json::as_str), Some("queue_full"));
        assert_eq!(
            error.get("message").and_then(Json::as_str),
            Some("submission queue full")
        );
        assert_eq!(error.get("request_id").and_then(Json::as_u64), Some(77));
    }

    #[test]
    fn decode_accepts_and_validates_the_trace_flag() {
        let catalog = ModelCatalog::serving_default();
        let engines = registry();
        let body = Json::parse(r#"{"model": "cifar10-serve"}"#).unwrap();
        assert!(
            !decode(&body, &catalog, &engines, 0)
                .unwrap()
                .trace_requested
        );
        let body = Json::parse(r#"{"model": "cifar10-serve", "trace": true}"#).unwrap();
        assert!(
            decode(&body, &catalog, &engines, 0)
                .unwrap()
                .trace_requested
        );
        let body = Json::parse(r#"{"model": "cifar10-serve", "trace": "yes"}"#).unwrap();
        let error = decode(&body, &catalog, &engines, 0).unwrap_err();
        assert_eq!(error.code, "bad_request");
        assert!(error.message.contains("trace"));
    }

    #[test]
    fn trace_json_includes_stages_and_router_record() {
        use bishop_obs::{RouterCandidate, Stage};
        let trace = TraceContext::new(5);
        trace.set_model("cifar10-serve");
        trace.stamp(Stage::Parse);
        trace.set_router(RouterDecision {
            deadline_seconds: Some(0.05),
            candidates: vec![RouterCandidate {
                engine: "native".to_string(),
                eligible: true,
                predicted_seconds: Some(0.01),
                meets_deadline: Some(true),
                breaker_open: false,
            }],
            verdict: RouterVerdict::Chosen {
                engine: "native".to_string(),
                degraded: false,
            },
        });
        trace.set_engine("native");
        trace.set_batch_id(42);
        trace.stamp(Stage::Router);

        // The in-flight timings view.
        let timings = timings_json(&trace);
        assert_eq!(timings.get("request_id").and_then(Json::as_u64), Some(5));
        assert_eq!(timings.get("engine").and_then(Json::as_str), Some("native"));
        let Some(Json::Array(stages)) = timings.get("stages") else {
            panic!("expected stages array");
        };
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].get("stage").and_then(Json::as_str), Some("parse"));

        // The finished-trace view carries status and the router record.
        let finished = FinishedTrace {
            snapshot: trace.snapshot(),
            total_seconds: trace.elapsed_seconds(),
            status: 200,
            error_code: None,
        };
        let json = trace_json(&finished);
        assert_eq!(json.get("status").and_then(Json::as_u64), Some(200));
        assert_eq!(json.get("batch_id").and_then(Json::as_u64), Some(42));
        let router = json.get("router").expect("router record");
        let verdict = router.get("verdict").expect("verdict");
        assert_eq!(
            verdict.get("outcome").and_then(Json::as_str),
            Some("chosen")
        );
        assert_eq!(verdict.get("engine").and_then(Json::as_str), Some("native"));
        let Some(Json::Array(candidates)) = router.get("candidates") else {
            panic!("expected candidates array");
        };
        assert_eq!(
            candidates[0].get("meets_deadline").and_then(Json::as_bool),
            Some(true)
        );
        // The summary row keeps the lookup keys.
        let summary = trace_summary_json(&finished);
        assert_eq!(summary.get("request_id").and_then(Json::as_u64), Some(5));
        assert_eq!(
            summary.get("model").and_then(Json::as_str),
            Some("cifar10-serve")
        );
    }
}
