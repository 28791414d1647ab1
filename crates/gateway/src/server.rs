//! The gateway server: TCP acceptor, thread-per-connection handlers,
//! routing, and graceful shutdown.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bishop_obs::{EventLevel, EventValue, Stage, TraceContext};
use bishop_runtime::{Rejection, ServerHandle, Ticket};
use bishop_session::{SessionError, SessionId, SessionLease, SessionStore, SessionStoreConfig};

use crate::api::{
    decode_infer, encode_response, engines_json, error_body, models_json, profile_json,
    sessions_json, slo_json, step_event_json, timings_json, trace_json, trace_summary_json,
    ModelCatalog,
};
use crate::http::{Limits, ParseError, Request, RequestReader, Response};
use crate::json::Json;
use crate::metrics::GatewayMetrics;

/// Configuration of a [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Maximum concurrently open connections; excess connections get `503`.
    pub max_connections: u64,
    /// Socket read timeout: a connection stalling mid-request longer than
    /// this gets `408` and is closed (slow-loris defence).
    pub read_timeout: Duration,
    /// HTTP parser size limits.
    pub limits: Limits,
    /// The models this gateway serves.
    pub catalog: ModelCatalog,
    /// Whether `/v1/infer` requests get an end-to-end trace (stage stamps
    /// through the runtime, a row in the trace store, histogram samples).
    /// On by default; the off position is the A/B knob the observability
    /// overhead bench measures. `X-Request-Id` is assigned either way.
    pub trace_requests: bool,
    /// Session-store bounds: slot capacity and idle TTL.
    pub sessions: SessionStoreConfig,
    /// Socket write timeout while a chunked event stream is in flight: a
    /// client draining slower than this is shed (the stream stops, the
    /// session lease is still checked in) so a stalled peer cannot pin a
    /// connection thread for the stream's whole duration.
    pub stream_write_timeout: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            limits: Limits::default(),
            catalog: ModelCatalog::serving_default(),
            trace_requests: true,
            sessions: SessionStoreConfig::default(),
            stream_write_timeout: Duration::from_secs(5),
        }
    }
}

impl GatewayConfig {
    /// Overrides the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Overrides the read timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Overrides the connection cap.
    pub fn with_max_connections(mut self, max: u64) -> Self {
        self.max_connections = max;
        self
    }

    /// Overrides the parser limits.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Overrides the model catalog.
    pub fn with_catalog(mut self, catalog: ModelCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Enables or disables per-request tracing (the overhead-bench A/B
    /// knob).
    pub fn with_request_tracing(mut self, trace: bool) -> Self {
        self.trace_requests = trace;
        self
    }

    /// Overrides the session-store bounds (capacity, idle TTL).
    pub fn with_session_store(mut self, sessions: SessionStoreConfig) -> Self {
        self.sessions = sessions;
        self
    }

    /// Overrides the streamed-response write timeout (slow-client shed).
    pub fn with_stream_write_timeout(mut self, timeout: Duration) -> Self {
        self.stream_write_timeout = timeout;
        self
    }
}

/// State shared between the acceptor and every connection thread.
#[derive(Debug)]
struct Shared {
    runtime: ServerHandle,
    catalog: ModelCatalog,
    metrics: GatewayMetrics,
    sessions: Arc<SessionStore>,
    limits: Limits,
    read_timeout: Duration,
    stream_write_timeout: Duration,
    shutting_down: AtomicBool,
    next_request_id: AtomicU64,
    trace_requests: bool,
}

/// A running HTTP gateway in front of a Bishop online runtime.
///
/// Serves `POST /v1/infer`, `GET /v1/models`, `GET /metrics` (Prometheus
/// text format) and `GET /healthz` until [`Gateway::shutdown`].
#[derive(Debug)]
pub struct Gateway {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Binds the listener and starts accepting connections. The runtime
    /// handle is where admitted inference requests go.
    pub fn start(config: GatewayConfig, runtime: ServerHandle) -> std::io::Result<Gateway> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let sessions = Arc::new(SessionStore::new(config.sessions));
        // Hand the store to the runtime so the metrics sampler scrapes the
        // session gauge/counters alongside the engine series.
        runtime.register_sessions(Arc::clone(&sessions));
        let shared = Arc::new(Shared {
            runtime,
            catalog: config.catalog,
            metrics: GatewayMetrics::new(),
            sessions,
            limits: config.limits,
            read_timeout: config.read_timeout,
            stream_write_timeout: config.stream_write_timeout,
            shutting_down: AtomicBool::new(false),
            next_request_id: AtomicU64::new(0),
            trace_requests: config.trace_requests,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            let max_connections = config.max_connections;
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutting_down.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if shared.metrics.active_connections() >= max_connections {
                        shared.metrics.connection_rejected();
                        reject_connection(stream, &shared);
                        continue;
                    }
                    shared.metrics.connection_opened();
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        handle_connection(stream, &shared);
                        shared.metrics.connection_closed();
                    });
                }
            })
        };

        Ok(Gateway {
            local_addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Gateway-side metrics (HTTP counters). Runtime counters live on the
    /// [`ServerHandle`] passed to [`Gateway::start`].
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.shared.metrics
    }

    /// The session store backing `/v1/sessions` and `"session"`-bound
    /// inference (shared with the runtime's metrics sampler).
    pub fn sessions(&self) -> &Arc<SessionStore> {
        &self.shared.sessions
    }

    /// Graceful shutdown: stop accepting, let in-flight connections finish
    /// their current request (keep-alive connections are told to close),
    /// and join the acceptor.
    pub fn shutdown(mut self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        // Wake the blocking accept with a no-op connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Connection threads exit on their own: the next request either
        // completes (with `Connection: close`) or times out. Wait bounded
        // by the read timeout plus slack.
        let deadline =
            std::time::Instant::now() + self.shared.read_timeout + Duration::from_secs(2);
        while self.shared.metrics.active_connections() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Turns away a connection over the concurrency cap with `503`.
fn reject_connection(mut stream: TcpStream, shared: &Shared) {
    let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
    let response = Response::json(
        503,
        &error_body("connection_limit", "connection limit reached", request_id),
    )
    .with_header("Retry-After", "1")
    .with_header("X-Request-Id", &request_id.to_string());
    shared.metrics.response(503);
    if response.write_to(&mut stream, false).is_ok() {
        drain_before_close(&stream);
    }
}

/// Lingering close: the peer may still have request bytes in flight that we
/// never read (a rejected upload, a connection-cap 503). Closing with
/// unread data in the receive queue makes the kernel send RST, which can
/// destroy the error response before the client reads it — so shut down our
/// write side and briefly drain the read side first.
fn drain_before_close(stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut read_half = match stream.try_clone() {
        Ok(half) => half,
        Err(_) => return,
    };
    let _ = read_half.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 4096];
    // Bounded drain: up to 256 KiB or until EOF/timeout, whichever first.
    for _ in 0..64 {
        match std::io::Read::read(&mut read_half, &mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// Serves one connection until close, error, timeout or shutdown.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(shared.read_timeout)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = RequestReader::new(read_half, shared.limits);

    loop {
        match reader.read_request() {
            Ok(Some(request)) => {
                // During shutdown finish this request but close after it.
                let keep_alive =
                    request.keep_alive() && !shared.shutting_down.load(Ordering::Acquire);
                match route(&request, shared) {
                    Routed::Plain(handled) => {
                        shared.metrics.response(handled.response.status);
                        let wrote = handled.response.write_to(&mut writer, keep_alive).is_ok();
                        // The response bytes are on the wire (or the write
                        // failed — either way the request is over): close
                        // the trace. The finish feeds the stage histograms
                        // and the trace store.
                        if let Some(trace) = handled.trace {
                            trace.stamp(Stage::ResponseWrite);
                            shared.runtime.obs().finish(
                                &trace,
                                handled.response.status,
                                handled.error_code.as_deref(),
                            );
                        }
                        if !wrote || !keep_alive {
                            return;
                        }
                    }
                    // A streamed inference: the connection thread owns the
                    // chunked event phase end-to-end.
                    Routed::Stream(plan) => {
                        if !stream_response(&mut writer, plan, keep_alive, shared) {
                            return;
                        }
                    }
                }
            }
            Ok(None) => return, // peer closed cleanly between requests
            Err(error) => {
                // Only errors that owe the client a status are parse/limit
                // failures; idle keep-alive expiry and client aborts are
                // routine and must not inflate the error counter.
                if let Some(status) = error.status() {
                    shared.metrics.parse_error();
                    let (code, message) = match &error {
                        ParseError::BadRequest(m) => ("bad_request", m.as_str()),
                        ParseError::HeadTooLarge => ("head_too_large", "request head too large"),
                        ParseError::BodyTooLarge => ("body_too_large", "request body too large"),
                        ParseError::Unsupported(m) => ("unsupported", m.as_str()),
                        ParseError::BadVersion => ("http_version", "unsupported HTTP version"),
                        ParseError::Timeout { .. } => ("timeout", "timed out reading request"),
                        _ => ("aborted", "request aborted"),
                    };
                    let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
                    let response = Response::json(status, &error_body(code, message, request_id))
                        .with_header("X-Request-Id", &request_id.to_string());
                    shared.metrics.response(status);
                    if response.write_to(&mut writer, false).is_ok() {
                        // The failed request's remaining bytes were never
                        // read; drain them so closing doesn't RST the
                        // response out from under the client.
                        drain_before_close(&writer);
                    }
                }
                return;
            }
        }
    }
}

/// The outcome of routing one request: the response to write plus what the
/// connection loop must finish *after* the bytes are on the wire — the
/// request's trace (if `/v1/infer` allocated one) and, for error
/// responses, the stable error code the finished trace records.
struct Handled {
    response: Response,
    trace: Option<Arc<TraceContext>>,
    error_code: Option<String>,
}

impl Handled {
    /// An endpoint response with no per-request trace.
    fn untraced(response: Response) -> Self {
        Self {
            response,
            trace: None,
            error_code: None,
        }
    }
}

/// What routing resolved to: a buffered response the connection loop writes
/// whole, or a streamed inference whose chunked event phase the loop runs.
enum Routed {
    /// A complete response, written in one piece.
    Plain(Handled),
    /// An admitted streamed inference: the connection loop drains the
    /// ticket's progress channel into chunked NDJSON events.
    Stream(StreamPlan),
}

/// Everything the connection loop needs to run one chunked event stream.
struct StreamPlan {
    request_id: u64,
    ticket: Ticket,
    lease: Option<SessionLease>,
    /// Wire-form session id, echoed on the terminal `"result"` event.
    session: Option<String>,
    trace: Option<Arc<TraceContext>>,
    want_timings: bool,
}

/// Routes one parsed request to its endpoint.
fn route(request: &Request, shared: &Shared) -> Routed {
    let plain = |handled: Handled| Routed::Plain(handled);
    match (request.method.as_str(), request.path()) {
        ("POST", "/v1/infer") => infer(request, shared),
        ("GET", "/v1/models") => plain(Handled::untraced(Response::json(
            200,
            &models_json(&shared.catalog, shared.runtime.engines()),
        ))),
        ("GET", "/v1/engines") => plain(Handled::untraced(Response::json(
            200,
            &engines_json(shared.runtime.engines(), &shared.runtime.engine_stats()),
        ))),
        ("POST", "/v1/sessions") => plain(create_session(request, shared)),
        ("GET", "/v1/sessions") => {
            // Expire idled sessions first so the listing never shows a
            // session a continuation request would then find expired.
            shared.sessions.sweep();
            plain(Handled::untraced(Response::json(
                200,
                &sessions_json(&shared.sessions),
            )))
        }
        ("DELETE", path) if path.starts_with("/v1/sessions/") => {
            plain(delete_session(path, shared))
        }
        ("GET", "/metrics") => plain(Handled::untraced(Response::text(
            200,
            "text/plain; version=0.0.4",
            shared.metrics.render_prometheus(
                &shared.runtime.stats(),
                shared.runtime.obs(),
                Some(&shared.sessions.stats()),
            ),
        ))),
        ("GET", "/v1/debug/traces") => plain(Handled::untraced(trace_listing(request, shared))),
        ("GET", path) if path.starts_with("/v1/debug/traces/") => {
            plain(Handled::untraced(trace_detail(path, shared)))
        }
        ("GET", "/v1/slo") => {
            let obs = shared.runtime.obs();
            plain(Handled::untraced(Response::json(
                200,
                &slo_json(&obs.slo.evaluate(&obs.timeseries, None)),
            )))
        }
        ("GET", "/v1/debug/profile") => plain(Handled::untraced(Response::json(
            200,
            &profile_json(&shared.runtime.obs().profiler.report()),
        ))),
        ("GET", "/healthz") => plain(Handled::untraced(healthz(shared))),
        (_, "/v1/infer") => plain(method_not_allowed(shared, "POST")),
        (_, "/v1/sessions") => plain(method_not_allowed(shared, "GET, POST")),
        (_, path) if path.starts_with("/v1/sessions/") => {
            plain(method_not_allowed(shared, "DELETE"))
        }
        (_, "/v1/models" | "/v1/engines" | "/metrics" | "/healthz" | "/v1/slo") => {
            plain(method_not_allowed(shared, "GET"))
        }
        (_, path) if path.starts_with("/v1/debug/traces") || path == "/v1/debug/profile" => {
            plain(method_not_allowed(shared, "GET"))
        }
        _ => {
            let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
            plain(Handled::untraced(
                Response::json(
                    404,
                    &error_body("not_found", "no such endpoint", request_id),
                )
                .with_header("X-Request-Id", &request_id.to_string()),
            ))
        }
    }
}

/// The HTTP status a session-store refusal maps to.
fn session_status(error: &SessionError) -> u16 {
    match error {
        SessionError::NotFound => 404,
        SessionError::Expired => 410,
        SessionError::InFlight => 409,
        SessionError::CapacityExhausted => 503,
    }
}

/// `POST /v1/sessions`: create a persistent session slot pinned to a
/// catalogued model, a streaming-capable engine and an input seed.
fn create_session(request: &Request, shared: &Shared) -> Handled {
    let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
    let request_id_header = request_id.to_string();
    let fail = |status: u16, code: &str, message: &str| {
        Handled::untraced(
            Response::json(status, &error_body(code, message, request_id))
                .with_header("X-Request-Id", &request_id_header),
        )
    };

    let body = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return fail(400, "bad_request", "body is not UTF-8"),
    };
    let json = match Json::parse(body) {
        Ok(json) => json,
        Err(error) => return fail(400, "bad_request", &error.to_string()),
    };
    let Some(model) = json.get("model").and_then(Json::as_str) else {
        return fail(
            400,
            "bad_request",
            "missing required string field \"model\"",
        );
    };
    let Some(entry) = shared.catalog.get(model) else {
        return fail(400, "unknown_model", &format!("unknown model \"{model}\""));
    };
    let seed = match json.get("seed") {
        None => 0,
        Some(value) => match value.as_u64() {
            Some(seed) => seed,
            None => {
                return fail(
                    400,
                    "bad_request",
                    "\"seed\" must be a non-negative integer",
                )
            }
        },
    };
    let engines = shared.runtime.engines();
    let backend = match json.get("engine").map(|v| v.as_str()) {
        None => match engines.default_engine() {
            Some(backend) => backend,
            None => return fail(400, "no_engines", "no execution engines are registered"),
        },
        Some(Some(name)) => match engines.get(name) {
            Some(backend) => backend,
            None => {
                return fail(
                    400,
                    "unknown_engine",
                    &format!(
                        "unknown engine \"{name}\" (registered: {:?})",
                        engines.names()
                    ),
                )
            }
        },
        Some(None) => return fail(400, "bad_request", "\"engine\" must be a string"),
    };
    let descriptor = backend.descriptor();
    if !descriptor.supports_streaming {
        return fail(
            422,
            "streaming_unsupported",
            &format!(
                "engine \"{}\" does not implement streamed stateful execution, so it \
                 cannot host sessions (see \"supports_streaming\" on GET /v1/engines)",
                descriptor.name
            ),
        );
    }
    if !descriptor.supports_model(&entry.config, &entry.options) {
        return fail(
            422,
            "model_unsupported",
            &format!(
                "engine \"{}\" cannot execute model \"{}\" with its default options",
                descriptor.name, entry.name
            ),
        );
    }
    // Expire idled sessions before trying to claim a slot.
    shared.sessions.sweep();
    match shared.sessions.create(&entry.name, descriptor.name, seed) {
        Ok(id) => {
            let config = shared.sessions.config();
            Handled::untraced(
                Response::json(
                    200,
                    &Json::object(vec![
                        ("id", Json::string(id.to_string())),
                        ("model", Json::string(&entry.name)),
                        ("engine", Json::string(descriptor.name)),
                        ("seed", Json::from_u64(seed)),
                        ("ttl_seconds", Json::Number(config.ttl.as_secs_f64())),
                    ]),
                )
                .with_header("X-Request-Id", &request_id_header),
            )
        }
        Err(error) => fail(session_status(&error), error.code(), &error.to_string()),
    }
}

/// `DELETE /v1/sessions/<id>`: explicit eviction. In-flight sessions are a
/// `409`; stale or unknown ids a `404`.
fn delete_session(path: &str, shared: &Shared) -> Handled {
    let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
    let request_id_header = request_id.to_string();
    let token = path
        .strip_prefix("/v1/sessions/")
        .expect("caller matched the prefix");
    let Some(id) = SessionId::parse(token) else {
        return Handled::untraced(
            Response::json(
                400,
                &error_body(
                    "bad_request",
                    "session id must look like \"sess-<slot>-<generation>\"",
                    request_id,
                ),
            )
            .with_header("X-Request-Id", &request_id_header),
        );
    };
    match shared.sessions.evict(id) {
        Ok(()) => Handled::untraced(
            Response::json(200, &Json::object(vec![("evicted", Json::string(token))]))
                .with_header("X-Request-Id", &request_id_header),
        ),
        Err(error) => Handled::untraced(
            Response::json(
                session_status(&error),
                &error_body(error.code(), &error.to_string(), request_id),
            )
            .with_header("X-Request-Id", &request_id_header),
        ),
    }
}

/// `GET /healthz`: real readiness, not liveness theatre. `503 draining`
/// while shutting down; `503 unhealthy` when every registered engine's
/// circuit breaker is open (nothing can serve — a load balancer should
/// stop routing here); `200 ok` otherwise, with the per-engine breaker
/// states so a degraded-but-serving instance is visible at a glance.
fn healthz(shared: &Shared) -> Response {
    let draining = shared.shutting_down.load(Ordering::Acquire);
    let stats = shared.runtime.stats();
    let all_open = !stats.engines.is_empty()
        && stats
            .engines
            .iter()
            .all(|e| e.breaker.state == bishop_runtime::BreakerState::Open);
    let (status, label) = if draining {
        (503, "draining")
    } else if all_open {
        (503, "unhealthy")
    } else {
        (200, "ok")
    };
    let breakers = stats
        .engines
        .iter()
        .map(|e| {
            Json::object(vec![
                ("engine", Json::string(e.engine.as_str())),
                ("breaker_state", Json::string(e.breaker.state.label())),
            ])
        })
        .collect();
    Response::json(
        status,
        &Json::object(vec![
            ("status", Json::string(label)),
            ("queue_depth", Json::from_u64(stats.queue_depth as u64)),
            ("engines", Json::Array(breakers)),
        ]),
    )
}

/// `GET /v1/debug/traces`: the retained recent/slowest listings, optionally
/// narrowed by `?engine=<name>` (the engine the request served on),
/// `?session=<id>` (the session the request continued),
/// `?verdict=<chosen|degraded|shed>` (the router's decision, `"auto"`
/// requests only) and `?min_ms=<float>` (total latency floor). Filters
/// compose; a malformed `min_ms` is a `400`.
fn trace_listing(request: &Request, shared: &Shared) -> Response {
    let min_seconds = match request.query_param("min_ms") {
        Some(raw) => match raw.parse::<f64>() {
            Ok(ms) if ms.is_finite() && ms >= 0.0 => Some(ms / 1000.0),
            _ => {
                let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
                return Response::json(
                    400,
                    &error_body(
                        "bad_request",
                        "min_ms must be a non-negative number",
                        request_id,
                    ),
                )
                .with_header("X-Request-Id", &request_id.to_string());
            }
        },
        None => None,
    };
    let engine = request.query_param("engine");
    let session = request.query_param("session");
    let verdict = request.query_param("verdict");
    let keep = |trace: &bishop_obs::FinishedTrace| -> bool {
        if let Some(engine) = engine {
            if trace.snapshot.engine.as_deref() != Some(engine) {
                return false;
            }
        }
        if let Some(session) = session {
            if trace.snapshot.session.as_deref() != Some(session) {
                return false;
            }
        }
        if let Some(verdict) = verdict {
            let recorded = trace.snapshot.router.as_ref().map(|r| r.verdict.label());
            if recorded != Some(verdict) {
                return false;
            }
        }
        if let Some(floor) = min_seconds {
            if trace.total_seconds < floor {
                return false;
            }
        }
        true
    };
    let traces = &shared.runtime.obs().traces;
    let rows = |list: Vec<Arc<bishop_obs::FinishedTrace>>| {
        Json::Array(
            list.iter()
                .filter(|t| keep(t))
                .map(|t| trace_summary_json(t))
                .collect(),
        )
    };
    Response::json(
        200,
        &Json::object(vec![
            ("recent", rows(traces.recent())),
            ("slowest", rows(traces.slowest())),
        ]),
    )
}

/// `GET /v1/debug/traces/<id>`: one finished trace in full (stage spans,
/// batch span id, router decision record).
fn trace_detail(path: &str, shared: &Shared) -> Response {
    let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
    let id = path
        .strip_prefix("/v1/debug/traces/")
        .expect("caller matched the prefix");
    let Ok(id) = id.parse::<u64>() else {
        return Response::json(
            400,
            &error_body("bad_request", "trace id must be an integer", request_id),
        )
        .with_header("X-Request-Id", &request_id.to_string());
    };
    match shared.runtime.obs().traces.find(id) {
        Some(trace) => Response::json(200, &trace_json(&trace)),
        None => Response::json(
            404,
            &error_body(
                "trace_not_found",
                "no retained trace with that request id (retention is bounded)",
                request_id,
            ),
        )
        .with_header("X-Request-Id", &request_id.to_string()),
    }
}

fn method_not_allowed(shared: &Shared, allow: &str) -> Handled {
    let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
    Handled::untraced(
        Response::json(
            405,
            &error_body("method_not_allowed", "method not allowed", request_id),
        )
        .with_header("Allow", allow)
        .with_header("X-Request-Id", &request_id.to_string()),
    )
}

/// `POST /v1/infer`: allocate the request id and trace, decode, lease the
/// session (if any), admit, then either wait for the ticket (blocking
/// requests) or hand the ticket to the connection loop's chunked event
/// writer (`"stream": true`). Every response — success or failure —
/// carries the id in `X-Request-Id`; failures repeat it in the error body.
fn infer(request: &Request, shared: &Shared) -> Routed {
    let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
    // The trace is born at the edge so its clock covers the whole request:
    // the stamps the runtime adds later all share this origin.
    let trace = shared
        .trace_requests
        .then(|| Arc::new(TraceContext::new(request_id)));
    let request_id_header = request_id.to_string();
    let fail = |status: u16, code: &str, message: &str| Handled {
        response: Response::json(status, &error_body(code, message, request_id))
            .with_header("X-Request-Id", &request_id_header),
        trace: trace.clone(),
        error_code: Some(code.to_string()),
    };

    let body = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Routed::Plain(fail(400, "bad_request", "body is not UTF-8")),
    };
    let json = match Json::parse(body) {
        Ok(json) => json,
        Err(error) => return Routed::Plain(fail(400, "bad_request", &error.to_string())),
    };
    let submission = match decode_infer(
        &json,
        &shared.catalog,
        shared.runtime.engines(),
        &shared.runtime.auto_candidates(),
        request_id,
    ) {
        Ok(submission) => submission,
        Err(error) => return Routed::Plain(fail(error.status, error.code, &error.message)),
    };
    let want_timings = submission.trace_requested || request.query_flag("trace", "1");

    let mut runtime_request = submission.request;

    // Session continuation: lease the slot exclusively, pin the request to
    // the session's identity (model, engine, seed) and import its state.
    let mut lease: Option<SessionLease> = None;
    let mut session_wire: Option<String> = None;
    if let Some(token) = &submission.session {
        let Some(id) = SessionId::parse(token) else {
            return Routed::Plain(fail(
                400,
                "bad_request",
                "session id must look like \"sess-<slot>-<generation>\"",
            ));
        };
        let leased = match shared.sessions.begin(id) {
            Ok(leased) => leased,
            Err(error) => {
                return Routed::Plain(fail(
                    session_status(&error),
                    error.code(),
                    &error.to_string(),
                ))
            }
        };
        if leased.model() != runtime_request.entry.name {
            let message = format!(
                "session {token} is pinned to model \"{}\", not \"{}\"",
                leased.model(),
                runtime_request.entry.name
            );
            shared.sessions.abort(leased);
            return Routed::Plain(fail(422, "session_model_mismatch", &message));
        }
        // The engine the session was created on is authoritative: an
        // explicitly conflicting "engine" field is refused; an absent one
        // adopts the session's.
        if json.get("engine").is_some() && leased.engine() != runtime_request.engine.as_str() {
            let message = format!(
                "session {token} is pinned to engine \"{}\", not \"{}\"",
                leased.engine(),
                runtime_request.engine.as_str()
            );
            shared.sessions.abort(leased);
            return Routed::Plain(fail(422, "session_engine_mismatch", &message));
        }
        match shared.runtime.engines().get(leased.engine()) {
            Some(backend) => {
                runtime_request.engine = bishop_engine::EngineName::new(backend.descriptor().name);
            }
            None => {
                let message = format!(
                    "session {token}'s engine \"{}\" is no longer registered",
                    leased.engine()
                );
                shared.sessions.abort(leased);
                return Routed::Plain(fail(422, "unknown_engine", &message));
            }
        }
        // Weight identity: membranes only continue bit-identically under
        // the weights and inputs the session started with, so the
        // session's seed always wins over the request's.
        runtime_request.seed = leased.seed();
        let total = runtime_request.entry.config.timesteps;
        let done = leased.timesteps_done();
        match submission.steps {
            Some(steps) if done + steps > total => {
                let message = format!(
                    "session {token} has {done}/{total} timesteps done; {steps} more would \
                     overrun the model's horizon"
                );
                shared.sessions.abort(leased);
                return Routed::Plain(fail(422, "timesteps_out_of_range", &message));
            }
            Some(_) => {}
            // Default continuation: run the remainder of the horizon.
            None => {
                let remaining = total.saturating_sub(done);
                if remaining == 0 {
                    let message = format!(
                        "session {token} already covers the model's full {total}-timestep \
                         horizon; delete it or create a new session"
                    );
                    shared.sessions.abort(leased);
                    return Routed::Plain(fail(422, "session_complete", &message));
                }
                runtime_request = runtime_request.with_steps(remaining);
            }
        }
        if let Some(state) = leased.state() {
            runtime_request = runtime_request.with_resume(Arc::clone(state));
        }
        session_wire = Some(token.clone());
        lease = Some(leased);
    }

    // What the client *asked* for ("auto" included) — the engine whose
    // predicted backlog drain prices a 429's Retry-After.
    let asked_engine = runtime_request.engine.clone();
    if let Some(trace) = &trace {
        trace.set_model(&runtime_request.entry.name);
        if let Some(wire) = &session_wire {
            trace.set_session(wire);
        }
        trace.stamp(Stage::Parse);
        runtime_request = runtime_request.with_trace(Arc::clone(trace));
    }

    let admitted = match submission.deadline {
        Some(deadline) => shared
            .runtime
            .try_submit_with_deadline(runtime_request, deadline),
        None => shared.runtime.try_submit(runtime_request),
    };
    let ticket = match admitted {
        Ok(ticket) => ticket,
        Err(rejection) => {
            // Nothing was admitted: the session (if leased) keeps its
            // previous state and becomes resumable again.
            if let Some(lease) = lease {
                shared.sessions.abort(lease);
            }
            return Routed::Plain(match rejection {
                // Load-transient sheds: retrying after backoff can succeed.
                // Retry-After is *priced*, not hardcoded: the predicted
                // seconds for the shedding engine's admitted backlog to
                // drain at its calibrated rate (for "auto", the best
                // candidate's), clamped to [1, 60].
                rejection @ (Rejection::QueueFull
                | Rejection::DeadlineUnmeetable
                | Rejection::NoEngineMeetsDeadline) => {
                    let retry_after = shared
                        .runtime
                        .predicted_drain_seconds(&asked_engine)
                        .ceil()
                        .clamp(1.0, 60.0) as u64;
                    let mut handled = fail(429, rejection.code(), &rejection.to_string());
                    handled.response = handled
                        .response
                        .with_header("Retry-After", &retry_after.to_string());
                    handled
                }
                // No auto candidate can execute this request shape at all:
                // the client must change the request, so no Retry-After —
                // 422 like any other capability refusal. (The decode
                // preflight catches this for stock configurations; a
                // runtime whose auto preference was restricted after boot
                // still sheds here.)
                rejection @ Rejection::NoEngineSupportsRequest => {
                    fail(422, rejection.code(), &rejection.to_string())
                }
                // The named engine's circuit breaker is open (or, for
                // "auto", every eligible engine's is): 503, with
                // Retry-After priced from the breaker's next half-open
                // probe window rather than backlog drain.
                rejection @ Rejection::EngineUnavailable => {
                    let retry_after = shared
                        .runtime
                        .breaker_reopen_seconds(&asked_engine)
                        .unwrap_or(1.0)
                        .ceil()
                        .clamp(1.0, 60.0) as u64;
                    let mut handled = fail(503, rejection.code(), &rejection.to_string());
                    handled.response = handled
                        .response
                        .with_header("Retry-After", &retry_after.to_string());
                    handled
                }
                rejection => fail(503, rejection.code(), &rejection.to_string()),
            });
        }
    };

    // Streamed requests hand the admitted ticket to the connection loop:
    // the chunked response is written event-by-event as execution runs.
    if submission.stream {
        return Routed::Stream(StreamPlan {
            request_id,
            ticket,
            lease,
            session: session_wire,
            trace,
            want_timings,
        });
    }

    Routed::Plain(match ticket.wait() {
        Some(Ok(response)) => {
            let mut encoded = encode_response(&response);
            if let Json::Object(fields) = &mut encoded {
                if let Some(wire) = &session_wire {
                    fields.push(("session".to_string(), Json::string(wire)));
                }
                if let Some(state) = &response.session_state {
                    fields.push((
                        "timesteps_done".to_string(),
                        Json::from_u64(state.timesteps_done() as u64),
                    ));
                }
                if want_timings {
                    if let Some(trace) = &trace {
                        fields.push(("timings".to_string(), timings_json(trace)));
                    }
                }
            }
            if let Some(lease) = lease {
                match &response.session_state {
                    Some(state) => shared.sessions.complete(lease, Arc::clone(state)),
                    None => shared.sessions.abort(lease),
                }
            }
            Handled {
                response: Response::json(200, &encoded)
                    .with_header("X-Request-Id", &request_id_header),
                trace,
                error_code: None,
            }
        }
        // A retryable execution fault that outlived the runtime's own
        // retry loop is server health, not the client's request: 503,
        // retry elsewhere/later. Capability refusals stay 422 — the
        // client must change the request profile.
        Some(Err(bishop_runtime::ServeError::Engine(error))) if error.retryable() => {
            if let Some(lease) = lease {
                shared.sessions.abort(lease);
            }
            let mut handled = fail(503, error.code(), &error.to_string());
            handled.response = handled.response.with_header("Retry-After", "1");
            handled
        }
        Some(Err(error)) => {
            if let Some(lease) = lease {
                shared.sessions.abort(lease);
            }
            fail(422, error.code(), &error.to_string())
        }
        None => {
            if let Some(lease) = lease {
                shared.sessions.abort(lease);
            }
            fail(503, "shutting_down", "server shut down mid-request")
        }
    })
}

/// Runs the chunked event phase of one streamed inference: per-step NDJSON
/// events as execution progresses, then a terminal `"result"` (or in-band
/// `"error"`) event and the `0\r\n\r\n` terminator. Returns whether the
/// connection can stay open for another request.
///
/// A client draining slower than the stream write timeout (or gone) is
/// *shed*: writes stop, a `stream_client_shed` event is logged, but the
/// progress channel keeps draining and the ticket is still waited on, so
/// the session lease always checks back in.
fn stream_response(
    writer: &mut TcpStream,
    plan: StreamPlan,
    keep_alive: bool,
    shared: &Shared,
) -> bool {
    let StreamPlan {
        request_id,
        ticket,
        lease,
        session,
        trace,
        want_timings,
    } = plan;
    shared.metrics.response(200);
    let head = format!(
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\
         Content-Type: application/x-ndjson\r\nConnection: {}\r\n\
         X-Request-Id: {request_id}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    );
    let _ = writer.set_write_timeout(Some(shared.stream_write_timeout));
    let mut healthy = writer
        .write_all(head.as_bytes())
        .and_then(|()| writer.flush())
        .is_ok();
    if let Some(progress) = ticket.progress() {
        let mut delivered = 0u64;
        // recv() until the worker drops its sender at completion.
        while let Ok(event) = progress.recv() {
            if !healthy {
                continue;
            }
            let mut line = step_event_json(request_id, &event).encode();
            line.push('\n');
            if write_chunk(writer, line.as_bytes()).is_ok() {
                delivered += 1;
            } else {
                healthy = false;
                shared.runtime.obs().events.emit(
                    EventLevel::Warn,
                    "stream_client_shed",
                    &[
                        ("request_id", EventValue::U64(request_id)),
                        ("events_delivered", EventValue::U64(delivered)),
                    ],
                );
            }
        }
    }
    if let Some(trace) = &trace {
        trace.stamp(Stage::StreamWrite);
    }

    let (terminal, error_code) = match ticket.wait() {
        Some(Ok(response)) => {
            let mut encoded = encode_response(&response);
            if let Json::Object(fields) = &mut encoded {
                fields.insert(0, ("event".to_string(), Json::string("result")));
                if let Some(wire) = &session {
                    fields.push(("session".to_string(), Json::string(wire)));
                }
                if let Some(state) = &response.session_state {
                    fields.push((
                        "timesteps_done".to_string(),
                        Json::from_u64(state.timesteps_done() as u64),
                    ));
                }
                if let Some(logits) = &response.logits {
                    fields.push((
                        "logits".to_string(),
                        Json::Array(logits.iter().map(|&v| Json::Number(v as f64)).collect()),
                    ));
                }
                if want_timings {
                    if let Some(trace) = &trace {
                        fields.push(("timings".to_string(), timings_json(trace)));
                    }
                }
            }
            if let Some(lease) = lease {
                match &response.session_state {
                    Some(state) => shared.sessions.complete(lease, Arc::clone(state)),
                    None => shared.sessions.abort(lease),
                }
            }
            (encoded, None)
        }
        // The chunked 200 header is already on the wire, so a late typed
        // refusal arrives in-band as a terminal error event. The decode
        // preflight makes this path rare (it catches every refusal knowable
        // from the request profile); this is defence-in-depth.
        Some(Err(error)) => {
            if let Some(lease) = lease {
                shared.sessions.abort(lease);
            }
            let code = error.code();
            (
                Json::object(vec![
                    ("event", Json::string("error")),
                    ("request_id", Json::from_u64(request_id)),
                    ("code", Json::string(code)),
                    ("message", Json::string(error.to_string())),
                ]),
                Some(code.to_string()),
            )
        }
        None => {
            if let Some(lease) = lease {
                shared.sessions.abort(lease);
            }
            (
                Json::object(vec![
                    ("event", Json::string("error")),
                    ("request_id", Json::from_u64(request_id)),
                    ("code", Json::string("shutting_down")),
                    ("message", Json::string("server shut down mid-request")),
                ]),
                Some("shutting_down".to_string()),
            )
        }
    };
    if healthy {
        let mut line = terminal.encode();
        line.push('\n');
        healthy = write_chunk(writer, line.as_bytes())
            .and_then(|()| writer.write_all(b"0\r\n\r\n"))
            .and_then(|()| writer.flush())
            .is_ok();
    }
    let _ = writer.set_write_timeout(None);
    if let Some(trace) = trace {
        trace.stamp(Stage::ResponseWrite);
        shared
            .runtime
            .obs()
            .finish(&trace, 200, error_code.as_deref());
    }
    healthy && keep_alive
}

/// Writes one HTTP/1.1 chunk (`<hex size>\r\n<data>\r\n`) and flushes, so
/// streamed events reach the client as they happen.
fn write_chunk(writer: &mut impl Write, data: &[u8]) -> std::io::Result<()> {
    write!(writer, "{:x}\r\n", data.len())?;
    writer.write_all(data)?;
    writer.write_all(b"\r\n")?;
    writer.flush()
}
