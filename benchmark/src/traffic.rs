//! The four workloads as closed-loop HTTP traffic, and the golden check that
//! holds the served outputs to an in-process reference.
//!
//! Closed loop because callers of `/v1/infer` wait for their reply: each of
//! the `clients` keep-alive connections sends its next request only after
//! the previous response is complete, so a slower system receives less load.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bishop_core::BishopConfig;
use bishop_engine::{EngineBatch, EngineName, EngineRegistry, ModelCatalog, NullStepSink};
use bishop_gateway::Json;
use bishop_runtime::{CalibrationCache, InferenceRequest, RequestBatch, ResultCache};

use crate::client::{bare, post, Connection, Reply};
use crate::seeds::{derive, Lane};
use crate::spec::{self, Workload};

/// Whether a completion feeds the latency percentiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// A blocking request, or `native_stream`'s one-shot stream (flow A).
    Primary,
    /// `native_stream`'s session-split horizon (flow B): counts towards
    /// throughput only.
    Secondary,
}

/// Benchmark-side span of one `/v1/infer` request (trace mode only).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which client connection sent it.
    pub client: usize,
    /// Request kind (`blocking`, `stream`, `session_step`, `session_resume`).
    pub kind: &'static str,
    /// Send time, seconds since the window started.
    pub send: f64,
    /// Send → first response byte, seconds.
    pub first_byte: f64,
    /// Send → last response byte, seconds.
    pub last_byte: f64,
}

/// Timeline of one streamed response, in seconds from its send.
#[derive(Debug, Clone)]
pub struct StreamTimeline {
    /// First complete step-event chunk.
    pub first_event: f64,
    /// Gaps between consecutive step events.
    pub gaps: Vec<f64>,
    /// Last step event → last byte (terminal result chunk + terminator).
    pub terminal: f64,
    /// Last response byte.
    pub total: f64,
    /// The terminal `result` event line.
    pub result_line: String,
}

/// Everything one client connection observed during one phase.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// HTTP requests sent.
    pub attempted: u64,
    /// Non-200 answers and I/O errors.
    pub failed: u64,
    /// Completed units of work (requests; for `native_stream`, horizons).
    pub completed: u64,
    /// `(latency, time-to-first-event)` in seconds of every primary
    /// completion. Two `f32`s per request keep the load generator's own
    /// footprint out of `peak_rss_mb` at 15 k requests per second.
    pub timings: Vec<(f32, f32)>,
    /// Per-request spans (empty unless tracing).
    pub spans: Vec<Span>,
    /// Σ client-side latency of successful `/v1/infer` requests, seconds.
    pub infer_seconds: f64,
    /// Successful `/v1/infer` requests.
    pub infer_requests: u64,
    /// First failure seen, for the report.
    pub first_error: Option<String>,
}

impl ClientLog {
    /// Folds another client's log into this one.
    pub fn merge(&mut self, other: ClientLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.completed += other.completed;
        self.timings.extend(other.timings);
        self.spans.extend(other.spans);
        self.infer_seconds += other.infer_seconds;
        self.infer_requests += other.infer_requests;
        self.first_error = self.first_error.take().or(other.first_error);
    }
}

/// One closed-loop client: a keep-alive connection plus its log.
pub struct Client {
    addr: SocketAddr,
    connection: Connection,
    workload: Workload,
    run_seed: u64,
    lane: Lane,
    index: usize,
    origin: Instant,
    record_spans: bool,
    sent: u64,
    /// What the client has observed so far.
    pub log: ClientLog,
}

impl Client {
    /// Connects client `index` of `workload`; seeds come from `lane`.
    pub fn connect(
        addr: SocketAddr,
        workload: Workload,
        run_seed: u64,
        lane: Lane,
        index: usize,
    ) -> io::Result<Self> {
        Ok(Self {
            addr,
            connection: Connection::open(addr)?,
            workload,
            run_seed,
            lane,
            index,
            origin: Instant::now(),
            record_spans: false,
            sent: 0,
            log: ClientLog::default(),
        })
    }

    /// Starts a new phase: empties the log and sets the clock span offsets
    /// are measured from. The seed stream continues, so no seed repeats
    /// across phases.
    pub fn begin_phase(&mut self, origin: Instant, record_spans: bool) {
        self.origin = origin;
        self.record_spans = record_spans;
        self.log = ClientLog::default();
    }

    fn next_seed(&mut self) -> u64 {
        let seed = derive(self.run_seed, self.lane, self.sent);
        self.sent += 1;
        seed
    }

    /// Sends one HTTP request; `Some(reply)` only for a `200`.
    fn send(&mut self, bytes: &[u8], infer_kind: Option<&'static str>) -> Option<Reply> {
        self.log.attempted += 1;
        let send = self.origin.elapsed().as_secs_f64();
        let failure = match self.connection.roundtrip(bytes) {
            Ok(reply) if reply.status == 200 => {
                if let Some(kind) = infer_kind {
                    self.log.infer_seconds += reply.total.as_secs_f64();
                    self.log.infer_requests += 1;
                    if self.record_spans {
                        self.log.spans.push(Span {
                            client: self.index,
                            kind,
                            send,
                            first_byte: reply.first_byte.as_secs_f64(),
                            last_byte: reply.total.as_secs_f64(),
                        });
                    }
                }
                return Some(reply);
            }
            Ok(reply) => format!("HTTP {}: {}", reply.status, reply.text()),
            Err(error) => {
                // The connection's framing is unknown after an I/O error.
                if let Ok(fresh) = Connection::open(self.addr) {
                    self.connection = fresh;
                }
                format!("I/O error: {error}")
            }
        };
        self.log.failed += 1;
        self.log.first_error.get_or_insert(failure);
        None
    }

    fn complete(&mut self, latency_seconds: f64, ttfe_seconds: f64, flow: Flow) {
        self.log.completed += 1;
        if flow == Flow::Primary {
            self.log
                .timings
                .push((latency_seconds as f32, ttfe_seconds as f32));
        }
    }

    /// One blocking `/v1/infer`; the reply on success.
    pub fn blocking(&mut self, model: &str, engine: &str, seed: u64) -> Option<Reply> {
        let body = format!("{{\"model\":\"{model}\",\"engine\":\"{engine}\",\"seed\":{seed}}}");
        let reply = self.send(&post("/v1/infer", &body), Some("blocking"))?;
        self.complete(
            reply.total.as_secs_f64(),
            reply.first_event().as_secs_f64(),
            Flow::Primary,
        );
        Some(reply)
    }

    fn streamed(&mut self, body: &str, kind: &'static str) -> Option<StreamTimeline> {
        let reply = self.send(&post("/v1/infer", body), Some(kind))?;
        let timeline = stream_timeline(&reply);
        if timeline.is_none() {
            self.log.failed += 1;
            self.log
                .first_error
                .get_or_insert(format!("stream without a result event: {}", reply.text()));
        }
        timeline
    }

    /// Flow A: one-shot `"stream": true` over the model's full horizon.
    pub fn flow_a(&mut self, seed: u64) -> Option<StreamTimeline> {
        let body = format!(
            "{{\"model\":\"{}\",\"engine\":\"native\",\"seed\":{seed},\"stream\":true}}",
            spec::NATIVE_MODEL
        );
        let timeline = self.streamed(&body, "stream")?;
        self.complete(timeline.total, timeline.first_event, Flow::Primary);
        Some(timeline)
    }

    /// Flow B: create a session, run 2 timesteps blocking, stream the rest
    /// of the horizon from the parked membranes, delete the session. Returns
    /// the streamed continuation's timeline.
    pub fn flow_b(&mut self, seed: u64) -> Option<StreamTimeline> {
        let started = Instant::now();
        let model = spec::NATIVE_MODEL;
        let create = format!("{{\"model\":\"{model}\",\"engine\":\"native\",\"seed\":{seed}}}");
        let created = self.send(&post("/v1/sessions", &create), None)?;
        let Some(id) = string_field(created.text(), "id") else {
            self.log.failed += 1;
            self.log
                .first_error
                .get_or_insert(format!("session create without an id: {}", created.text()));
            return None;
        };
        let step = format!("{{\"model\":\"{model}\",\"session\":\"{id}\",\"timesteps\":2}}");
        self.send(&post("/v1/infer", &step), Some("session_step"))?;
        let resume = format!("{{\"model\":\"{model}\",\"session\":\"{id}\",\"stream\":true}}");
        let timeline = self.streamed(&resume, "session_resume");
        // Delete even when the continuation failed, so slots never leak.
        self.send(&bare("DELETE", &format!("/v1/sessions/{id}")), None);
        let timeline = timeline?;
        self.complete(
            started.elapsed().as_secs_f64(),
            timeline.first_event,
            Flow::Secondary,
        );
        Some(timeline)
    }

    /// Sends the workload's next unit of work.
    pub fn step(&mut self, replay: &[u64]) {
        let turn = self.sent;
        let seed = self.next_seed();
        match self.workload {
            Workload::NativeBlocking => {
                self.blocking(spec::NATIVE_MODEL, "native", seed);
            }
            Workload::SimReplay => {
                let slot = (turn as usize + self.index) % replay.len();
                self.blocking(spec::NATIVE_MODEL, "simulator", replay[slot]);
            }
            Workload::SimCold => {
                let model = if turn.is_multiple_of(2) {
                    spec::NATIVE_MODEL
                } else {
                    spec::ECP_MODEL
                };
                self.blocking(model, "simulator", seed);
            }
            Workload::NativeStream => {
                if turn.is_multiple_of(2) {
                    self.flow_a(seed);
                } else {
                    self.flow_b(seed);
                }
            }
        }
    }
}

/// The seed pool `sim_replay` cycles over.
pub fn replay_seeds(run_seed: u64) -> Vec<u64> {
    (0..spec::REPLAY_SEEDS as u64)
        .map(|i| derive(run_seed, Lane::Replay, i))
        .collect()
}

/// Runs every client's closed loop until `deadline`, one thread per client,
/// and merges their logs. A request in flight at the deadline is finished
/// and counted; span offsets are measured from `origin`.
pub fn run_phase(
    clients: &mut [Client],
    replay: &[u64],
    origin: Instant,
    deadline: Instant,
    record_spans: bool,
) -> ClientLog {
    let mut merged = ClientLog::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    client.begin_phase(origin, record_spans);
                    while Instant::now() < deadline {
                        client.step(replay);
                    }
                    std::mem::take(&mut client.log)
                })
            })
            .collect();
        for handle in handles {
            merged.merge(handle.join().expect("client thread panicked"));
        }
    });
    merged
}

/// Splits a chunked NDJSON reply into its step-event timeline; `None`
/// unless the stream ended with a `result` event.
pub fn stream_timeline(reply: &Reply) -> Option<StreamTimeline> {
    let result_line = reply.text().lines().last()?.to_string();
    if !result_line.contains("\"event\":\"result\"") || reply.chunk_done.len() < 2 {
        return None;
    }
    let times: Vec<f64> = reply.chunk_done.iter().map(Duration::as_secs_f64).collect();
    // Every chunk but the last is a step event; the last is the result.
    let steps = &times[..times.len() - 1];
    let total = reply.total.as_secs_f64();
    Some(StreamTimeline {
        first_event: steps[0],
        gaps: steps.windows(2).map(|pair| pair[1] - pair[0]).collect(),
        terminal: total - steps[steps.len() - 1],
        total,
        result_line,
    })
}

/// The string value of `"key":"..."` in compact JSON text, without a full
/// parse (the load loop reads one field per reply).
pub fn string_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":\"");
    let start = text.find(&marker)? + marker.len();
    text[start..].split('"').next()
}

/// Outcome of the golden check.
#[derive(Debug, Default)]
pub struct Golden {
    /// Requests compared against the reference.
    pub checked: usize,
    /// HTTP requests sent.
    pub attempted: u64,
    /// HTTP failures (non-200, I/O).
    pub failed: u64,
    /// Human-readable description of every mismatch.
    pub mismatches: Vec<String>,
}

fn number(json: &Json, key: &str) -> Option<f64> {
    json.get(key).and_then(Json::as_f64)
}

/// Sends `GOLDEN_REQUESTS` fixed-seed singleton requests down one
/// connection and compares each answer with an in-process reference: the
/// same batch built through the public `RequestBatch::engine_batch` and
/// executed by a registry engine the server never touches.
pub fn golden_check(addr: SocketAddr, workload: Workload, run_seed: u64) -> io::Result<Golden> {
    let catalog = ModelCatalog::serving_default();
    let hardware = BishopConfig::default();
    let registry = EngineRegistry::serving_default(
        &hardware,
        Arc::new(CalibrationCache::new()),
        Arc::new(ResultCache::new()),
    );
    let engine = registry
        .get(workload.engine())
        .expect("stock registry has the workload's engine");
    let mut client = Client::connect(addr, workload, run_seed, Lane::Golden, 0)?;
    let mut golden = Golden::default();

    for i in 0..spec::GOLDEN_REQUESTS {
        let seed = client.next_seed();
        let model = if workload == Workload::SimCold && i % 2 == 1 {
            spec::ECP_MODEL
        } else {
            spec::NATIVE_MODEL
        };
        let entry = catalog.get(model).expect("default catalog entry");
        let request = InferenceRequest::new(0, Arc::clone(entry), seed)
            .with_engine(EngineName::new(workload.engine()));
        golden.checked += 1;
        let mut mismatch = |what: String| golden.mismatches.push(format!("{model}/{seed}: {what}"));

        if workload == Workload::NativeStream {
            // The streamed path executes the request's base configuration.
            let batch = EngineBatch {
                config: entry.config.clone(),
                regime: request.regime,
                seed,
                options: request.options,
                batch_size: 1,
                batch_id: 0,
            };
            let reference = engine
                .execute_streaming(&batch, entry.config.timesteps, None, &mut NullStepSink)
                .map_err(|error| io::Error::other(error.to_string()))?;
            let expected: Vec<f64> = reference
                .logits
                .unwrap_or_default()
                .iter()
                .map(|&v| f64::from(v))
                .collect();
            let one_shot = client.flow_a(seed).map(|t| t.result_line);
            let split = client.flow_b(seed).map(|t| t.result_line);
            for (name, line) in [("one-shot stream", one_shot), ("session split", split)] {
                match line.as_deref().map(wire_logits) {
                    Some(Some(logits)) if logits == expected => {}
                    other => mismatch(format!("{name} logits {other:?} != reference {expected:?}")),
                }
            }
            continue;
        }

        let batch = RequestBatch {
            id: 0,
            requests: vec![request],
        }
        .engine_batch(hardware.bundle);
        let reference = engine
            .execute(&batch)
            .map_err(|error| io::Error::other(error.to_string()))?;
        let Some(reply) = client.blocking(model, workload.engine(), seed) else {
            continue;
        };
        let Ok(json) = Json::parse(reply.text()) else {
            mismatch(format!("unparseable body {}", reply.text()));
            continue;
        };
        if number(&json, "batch_size") != Some(1.0) {
            mismatch(format!("batch_size {:?} != 1", number(&json, "batch_size")));
        }
        if workload.engine() == "native" {
            let expected = reference.prediction.map(|p| p as f64);
            if number(&json, "batch_prediction") != expected {
                mismatch(format!(
                    "batch_prediction {:?} != reference {expected:?}",
                    number(&json, "batch_prediction")
                ));
            }
        } else {
            if number(&json, "cycles") != Some(reference.cycles as f64) {
                mismatch(format!(
                    "cycles {:?} != reference {}",
                    number(&json, "cycles"),
                    reference.cycles
                ));
            }
            if number(&json, "energy_mj") != Some(reference.energy_mj) {
                mismatch(format!(
                    "energy_mj {:?} != reference {}",
                    number(&json, "energy_mj"),
                    reference.energy_mj
                ));
            }
        }
    }
    golden.attempted = client.log.attempted;
    golden.failed = client.log.failed;
    if let Some(error) = client.log.first_error.take() {
        golden.mismatches.push(error);
    }
    Ok(golden)
}

/// The `logits` array of a terminal `result` event line.
fn wire_logits(line: &str) -> Option<Vec<f64>> {
    match Json::parse(line).ok()?.get("logits")? {
        Json::Array(items) => items.iter().map(Json::as_f64).collect(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(chunks_ms: &[u64], total_ms: u64, body: &str) -> Reply {
        Reply {
            status: 200,
            body: body.as_bytes().to_vec(),
            first_byte: Duration::from_millis(1),
            chunk_done: chunks_ms
                .iter()
                .map(|&ms| Duration::from_millis(ms))
                .collect(),
            total: Duration::from_millis(total_ms),
        }
    }

    #[test]
    fn stream_timeline_separates_steps_from_the_result_chunk() {
        let body = "{\"event\":\"step\"}\n{\"event\":\"step\"}\n{\"event\":\"step\"}\n\
                    {\"event\":\"result\",\"logits\":[0.5,-1]}\n";
        let timeline = stream_timeline(&reply(&[2, 3, 5, 6], 7, body)).expect("complete stream");
        assert!((timeline.first_event - 0.002).abs() < 1e-12);
        assert_eq!(timeline.gaps.len(), 2);
        assert!((timeline.gaps[0] - 0.001).abs() < 1e-12);
        assert!((timeline.gaps[1] - 0.002).abs() < 1e-12);
        assert!((timeline.terminal - 0.002).abs() < 1e-12);
        assert_eq!(wire_logits(&timeline.result_line), Some(vec![0.5, -1.0]));
    }

    #[test]
    fn a_stream_ending_in_an_error_event_is_not_a_timeline() {
        let body = "{\"event\":\"step\"}\n{\"event\":\"error\",\"code\":\"x\"}\n";
        assert!(stream_timeline(&reply(&[2, 3], 4, body)).is_none());
    }

    #[test]
    fn string_field_reads_one_value() {
        let text = "{\"id\":\"sess-3-7\",\"model\":\"cifar10-serve\"}";
        assert_eq!(string_field(text, "id"), Some("sess-3-7"));
        assert_eq!(string_field(text, "model"), Some("cifar10-serve"));
        assert_eq!(string_field(text, "engine"), None);
    }

    #[test]
    fn replay_pool_is_fixed_by_the_run_seed() {
        assert_eq!(replay_seeds(5), replay_seeds(5));
        assert_ne!(replay_seeds(5), replay_seeds(6));
        assert_eq!(replay_seeds(5).len(), spec::REPLAY_SEEDS);
    }
}
