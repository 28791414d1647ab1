//! Per-request trace contexts: a request id plus a monotonic stage clock.
//!
//! A [`TraceContext`] is allocated once per request at the edge (HTTP
//! accept) and carried — as an `Arc` — on the request through admission,
//! the domain queue and the worker. Each layer calls
//! [`TraceContext::stamp`] when it hands the request onward; the span of a
//! stage is the interval since the *previous* stamp, so the recorded spans
//! are monotone and non-overlapping by construction: no layer can produce
//! a stage that starts before the previous one ended, no matter how its
//! clock reads race.

use std::sync::Mutex;
use std::time::Instant;

use crate::router::RouterDecision;

/// The pipeline stages a request passes through, in path order.
///
/// Not every request visits every stage: a shed request stops at
/// [`Stage::Admission`] (or [`Stage::Router`] for `"auto"` requests), and
/// the response-write span exists only for requests served over HTTP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// HTTP read + JSON decode + catalog/engine resolution.
    Parse,
    /// Deadline-aware `"auto"` engine selection (auto requests only).
    Router,
    /// Admission control: queue-depth and deadline checks, backlog
    /// accounting.
    Admission,
    /// Waiting for the domain lock to enter the batch former.
    QueueWait,
    /// Waiting in the batch former for the batch to close (size, timeout
    /// or flush) and be dispatched to a worker.
    BatchFormation,
    /// Worker-side engine execution of the batch the request rode in.
    EngineExecute,
    /// Writing streamed per-step progress chunks to the client (streamed
    /// requests only; spans the whole chunked event phase).
    StreamWrite,
    /// Serializing and writing the HTTP response.
    ResponseWrite,
}

impl Stage {
    /// The stable label used on metrics and in trace JSON.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Router => "router",
            Stage::Admission => "admission",
            Stage::QueueWait => "queue_wait",
            Stage::BatchFormation => "batch_formation",
            Stage::EngineExecute => "engine_execute",
            Stage::StreamWrite => "stream_write",
            Stage::ResponseWrite => "response_write",
        }
    }

    /// Every stage, in path order (the metric label universe).
    pub fn all() -> [Stage; 8] {
        [
            Stage::Parse,
            Stage::Router,
            Stage::Admission,
            Stage::QueueWait,
            Stage::BatchFormation,
            Stage::EngineExecute,
            Stage::StreamWrite,
            Stage::ResponseWrite,
        ]
    }
}

/// One recorded stage span, in seconds since the trace started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageStamp {
    /// Which stage the span covers.
    pub stage: Stage,
    /// Span start, seconds since the trace was allocated.
    pub start_seconds: f64,
    /// Span end, seconds since the trace was allocated.
    pub end_seconds: f64,
}

impl StageStamp {
    /// The span's duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_seconds - self.start_seconds
    }
}

#[derive(Debug, Default)]
struct TraceInner {
    model: Option<String>,
    engine: Option<String>,
    session: Option<String>,
    batch_id: Option<u64>,
    stamps: Vec<StageStamp>,
    /// End offset of the last recorded stamp: the start of the next one.
    last_offset: f64,
    router: Option<RouterDecision>,
    retries: u32,
}

/// The per-request trace: a gateway-assigned request id, the instant the
/// request was accepted, and the stage spans recorded along the path.
///
/// Shared as an `Arc` between the connection thread and the runtime's
/// worker threads; all mutation goes through one short-lived
/// mutex (a handful of lock/unlock pairs per request).
#[derive(Debug)]
pub struct TraceContext {
    request_id: u64,
    started: Instant,
    inner: Mutex<TraceInner>,
}

impl TraceContext {
    /// Starts a trace for one request; the stage clock starts now.
    pub fn new(request_id: u64) -> Self {
        Self {
            request_id,
            started: Instant::now(),
            inner: Mutex::new(TraceInner::default()),
        }
    }

    /// The gateway-assigned request id this trace follows.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Seconds since the trace was allocated.
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Records `stage` as the span from the previous stamp's end to now.
    pub fn stamp(&self, stage: Stage) {
        let now = self.elapsed_seconds();
        let mut inner = self.inner.lock().expect("trace lock");
        // The clock only moves forward, but two racing stamps could read
        // `now` before either appends; clamp so spans stay non-negative
        // and non-overlapping.
        let start = inner.last_offset;
        let end = now.max(start);
        inner.stamps.push(StageStamp {
            stage,
            start_seconds: start,
            end_seconds: end,
        });
        inner.last_offset = end;
    }

    /// Records which catalogued model the request resolved to.
    pub fn set_model(&self, model: &str) {
        self.inner.lock().expect("trace lock").model = Some(model.to_string());
    }

    /// Records the concrete engine the request was routed to.
    pub fn set_engine(&self, engine: &str) {
        self.inner.lock().expect("trace lock").engine = Some(engine.to_string());
    }

    /// Records the wire-form session id the request continued (stateful
    /// requests only) — the `?session=` filter key of the trace listing.
    pub fn set_session(&self, session: &str) {
        self.inner.lock().expect("trace lock").session = Some(session.to_string());
    }

    /// Records the id of the batch the request rode in — the *batch span
    /// id* shared by every batch-mate.
    pub fn set_batch_id(&self, batch_id: u64) {
        self.inner.lock().expect("trace lock").batch_id = Some(batch_id);
    }

    /// Attaches the dispatcher's routing decision (auto requests only).
    pub fn set_router(&self, decision: RouterDecision) {
        self.inner.lock().expect("trace lock").router = Some(decision);
    }

    /// Records how many *extra* execution attempts the request's batch
    /// needed (0 = first attempt succeeded). Each retried attempt also
    /// stamps its own [`Stage::EngineExecute`] span, so a retried request
    /// shows one span per attempt plus this count.
    pub fn set_retries(&self, retries: u32) {
        self.inner.lock().expect("trace lock").retries = retries;
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> TraceSnapshot {
        let inner = self.inner.lock().expect("trace lock");
        TraceSnapshot {
            request_id: self.request_id,
            model: inner.model.clone(),
            engine: inner.engine.clone(),
            session: inner.session.clone(),
            batch_id: inner.batch_id,
            stamps: inner.stamps.clone(),
            router: inner.router.clone(),
            retries: inner.retries,
        }
    }
}

/// An owned copy of a trace's recorded state (what the wire formats and
/// the trace store consume).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSnapshot {
    /// The gateway-assigned request id.
    pub request_id: u64,
    /// Catalogued model name, once resolved.
    pub model: Option<String>,
    /// Concrete engine the request routed to, once resolved.
    pub engine: Option<String>,
    /// Wire-form session id the request continued, for stateful requests.
    pub session: Option<String>,
    /// Id of the batch the request rode in (shared by batch-mates).
    pub batch_id: Option<u64>,
    /// Recorded stage spans, in stamp order.
    pub stamps: Vec<StageStamp>,
    /// The dispatcher's routing decision, for `"auto"` requests.
    pub router: Option<RouterDecision>,
    /// Extra execution attempts the request's batch needed (0 = clean
    /// first attempt).
    pub retries: u32,
}

/// A completed request's trace: the snapshot plus its outcome — what the
/// ring buffer retains and `GET /v1/debug/traces` serves.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedTrace {
    /// Everything recorded along the path.
    pub snapshot: TraceSnapshot,
    /// End-to-end seconds from accept to finish.
    pub total_seconds: f64,
    /// HTTP status the request resolved to.
    pub status: u16,
    /// Stable error code for non-2xx outcomes.
    pub error_code: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_monotone_and_non_overlapping() {
        let trace = TraceContext::new(7);
        trace.stamp(Stage::Parse);
        std::thread::sleep(std::time::Duration::from_millis(2));
        trace.stamp(Stage::Admission);
        trace.stamp(Stage::QueueWait);
        let snapshot = trace.snapshot();
        assert_eq!(snapshot.request_id, 7);
        assert_eq!(snapshot.stamps.len(), 3);
        for pair in snapshot.stamps.windows(2) {
            assert!(pair[0].end_seconds <= pair[1].start_seconds + f64::EPSILON);
            assert_eq!(pair[0].end_seconds, pair[1].start_seconds);
        }
        for stamp in &snapshot.stamps {
            assert!(stamp.end_seconds >= stamp.start_seconds);
        }
        // The sleep landed inside the admission span.
        assert!(snapshot.stamps[1].seconds() >= 0.002);
    }

    #[test]
    fn annotations_survive_into_the_snapshot() {
        let trace = TraceContext::new(1);
        trace.set_model("cifar10-serve");
        trace.set_engine("simulator");
        trace.set_batch_id(42);
        trace.set_session("sess-0-0");
        let snapshot = trace.snapshot();
        assert_eq!(snapshot.model.as_deref(), Some("cifar10-serve"));
        assert_eq!(snapshot.engine.as_deref(), Some("simulator"));
        assert_eq!(snapshot.session.as_deref(), Some("sess-0-0"));
        assert_eq!(snapshot.batch_id, Some(42));
        assert!(snapshot.router.is_none());
        assert_eq!(snapshot.retries, 0);
        trace.set_retries(2);
        assert_eq!(trace.snapshot().retries, 2);
    }

    #[test]
    fn retried_attempts_stamp_one_engine_execute_span_each() {
        // The worker stamps EngineExecute once per attempt; spans must stay
        // monotone and non-overlapping even across the retry loop.
        let trace = TraceContext::new(3);
        trace.stamp(Stage::BatchFormation);
        trace.stamp(Stage::EngineExecute);
        std::thread::sleep(std::time::Duration::from_millis(1));
        trace.stamp(Stage::EngineExecute);
        trace.set_retries(1);
        let snapshot = trace.snapshot();
        let execute_spans: Vec<_> = snapshot
            .stamps
            .iter()
            .filter(|s| s.stage == Stage::EngineExecute)
            .collect();
        assert_eq!(execute_spans.len(), 2);
        assert_eq!(execute_spans[0].end_seconds, execute_spans[1].start_seconds);
        assert_eq!(snapshot.retries, 1);
    }

    #[test]
    fn stage_labels_are_stable() {
        let labels: Vec<&str> = Stage::all().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            [
                "parse",
                "router",
                "admission",
                "queue_wait",
                "batch_formation",
                "engine_execute",
                "stream_write",
                "response_write"
            ]
        );
    }
}
