//! End-to-end request tracing: unique `X-Request-Id`s under concurrent
//! keep-alive load, monotone non-overlapping stage spans in the opt-in
//! `"timings"` object, batch-mates sharing a batch span id, trace-ring
//! retention tiers, the router decision record on a shed request's trace,
//! and Prometheus text-format conformance of the whole `/metrics` scrape.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bishop_engine::EngineName;
use bishop_gateway::{Gateway, GatewayConfig, Json};
use bishop_obs::{ObsConfig, ObsHub};
use bishop_runtime::{BatchPolicy, OnlineConfig, OnlineServer, RuntimeConfig};

/// The running stack under test.
struct Stack {
    runtime: OnlineServer,
    gateway: Gateway,
}

impl Stack {
    fn boot(online: OnlineConfig, gateway: GatewayConfig) -> Stack {
        let runtime = OnlineServer::start(online);
        let gateway = Gateway::start(gateway, runtime.handle()).expect("bind ephemeral port");
        Stack { runtime, gateway }
    }

    fn default() -> Stack {
        Self::boot(
            OnlineConfig::new(RuntimeConfig::new(2, BatchPolicy::new(4)))
                .with_batch_timeout(Some(Duration::from_millis(10))),
            GatewayConfig::default(),
        )
    }

    fn addr(&self) -> SocketAddr {
        self.gateway.local_addr()
    }

    fn finish(self) -> bishop_runtime::OnlineStats {
        self.gateway.shutdown();
        self.runtime.shutdown()
    }
}

/// Sends raw bytes, reads until EOF, returns (status, full response text).
fn raw_roundtrip(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    (parse_status(&reply), reply)
}

fn parse_status(reply: &str) -> u16 {
    reply
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {reply:?}"))
}

/// The value of `name: ...` in the response head, if present.
fn header_value<'a>(reply: &'a str, name: &str) -> Option<&'a str> {
    let head = reply.split("\r\n\r\n").next().unwrap_or(reply);
    head.lines()
        .find_map(|line| line.strip_prefix(&format!("{name}: ")))
}

/// The parsed JSON body of a response.
fn body_json(reply: &str) -> Json {
    let body = reply
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("");
    Json::parse(body).unwrap_or_else(|e| panic!("unparsable body {e}: {body:?}"))
}

fn infer_raw(body: &str, path: &str, close: bool) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n{}\r\n{body}",
        body.len(),
        if close { "Connection: close\r\n" } else { "" },
    )
    .into_bytes()
}

/// Reads exactly one keep-alive response (head + declared body) off a stream.
fn read_one_response(stream: &mut TcpStream) -> (u16, String) {
    let mut buffer = Vec::new();
    let mut chunk = [0u8; 1024];
    let (head_end, body_len) = loop {
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "peer closed before a full response");
        buffer.extend_from_slice(&chunk[..n]);
        if let Some(end) = buffer.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buffer[..end]).expect("UTF-8 head");
            let body_len = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .map(|v| v.parse::<usize>().unwrap())
                .unwrap_or(0);
            break (end, body_len);
        }
    };
    while buffer.len() < head_end + 4 + body_len {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "peer closed mid-body");
        buffer.extend_from_slice(&chunk[..n]);
    }
    let text = String::from_utf8(buffer[..head_end + 4 + body_len].to_vec()).unwrap();
    let status = parse_status(&text);
    (status, text)
}

/// Pulls the `"timings"` object's stage spans as (label, start, end) triples.
fn stages_of(timings: &Json) -> Vec<(String, f64, f64)> {
    let Some(Json::Array(stages)) = timings.get("stages") else {
        panic!("timings without a stages array: {timings:?}");
    };
    stages
        .iter()
        .map(|stamp| {
            (
                stamp
                    .get("stage")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
                stamp.get("start_seconds").and_then(Json::as_f64).unwrap(),
                stamp.get("end_seconds").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect()
}

#[test]
fn concurrent_traced_clients_get_unique_ids_and_monotone_stage_spans() {
    let stack = Stack::default();
    let addr = stack.addr();
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 3;

    let workers: Vec<_> = (0..CLIENTS)
        .map(|client| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let engine = if client % 2 == 0 {
                    "simulator"
                } else {
                    "native"
                };
                let mut seen = Vec::new();
                for i in 0..PER_CLIENT {
                    let body = format!(
                        "{{\"model\": \"cifar10-serve\", \"seed\": {}, \
                         \"engine\": \"{engine}\", \"trace\": true}}",
                        (client * PER_CLIENT + i) % 3
                    );
                    stream
                        .write_all(&infer_raw(&body, "/v1/infer", false))
                        .expect("send");
                    let (status, reply) = read_one_response(&mut stream);
                    assert_eq!(status, 200, "{reply}");
                    seen.push((engine.to_string(), reply));
                }
                seen
            })
        })
        .collect();

    let mut ids = HashSet::new();
    for worker in workers {
        for (engine, reply) in worker.join().expect("client thread") {
            let header_id: u64 = header_value(&reply, "X-Request-Id")
                .expect("X-Request-Id on every /v1/infer response")
                .parse()
                .expect("numeric request id");
            assert!(ids.insert(header_id), "duplicate request id {header_id}");

            let body = body_json(&reply);
            let timings = body.get("timings").expect("timings when trace: true");
            assert_eq!(
                timings.get("request_id").and_then(Json::as_u64),
                Some(header_id),
                "timings id must match the X-Request-Id header"
            );
            assert_eq!(
                timings.get("engine").and_then(Json::as_str),
                Some(engine.as_str())
            );

            // The stage sequence is the request path in order; spans are
            // monotone and non-overlapping (each starts where the previous
            // ended). response_write is absent by construction — it ends
            // only after these bytes hit the wire.
            let stages = stages_of(timings);
            let labels: Vec<&str> = stages.iter().map(|(l, _, _)| l.as_str()).collect();
            assert_eq!(
                labels,
                [
                    "parse",
                    "router",
                    "admission",
                    "queue_wait",
                    "batch_formation",
                    "engine_execute",
                ],
                "{reply}"
            );
            let mut previous_end = 0.0_f64;
            for (label, start, end) in &stages {
                assert!(
                    *start >= previous_end - 1e-9,
                    "stage {label} starts ({start}) before the previous span ended \
                     ({previous_end})"
                );
                assert!(*end >= *start, "stage {label} ends before it starts");
                previous_end = *end;
            }
        }
    }
    assert_eq!(ids.len(), CLIENTS * PER_CLIENT);

    let stats = stack.finish();
    assert_eq!(stats.completed, (CLIENTS * PER_CLIENT) as u64);
}

#[test]
fn batch_mates_share_a_batch_span_id() {
    let stack = Stack::default();
    let addr = stack.addr();
    const REQUESTS: usize = 8;

    let workers: Vec<_> = (0..REQUESTS)
        .map(|i| {
            std::thread::spawn(move || {
                let body = format!(
                    "{{\"model\": \"cifar10-serve\", \"seed\": {}, \
                     \"engine\": \"simulator\", \"trace\": true}}",
                    i % 3
                );
                let (status, reply) = raw_roundtrip(addr, &infer_raw(&body, "/v1/infer", true));
                assert_eq!(status, 200, "{reply}");
                body_json(&reply)
                    .get("timings")
                    .and_then(|t| t.get("batch_id"))
                    .and_then(Json::as_u64)
                    .expect("executed request's timings carry its batch id")
            })
        })
        .collect();

    let batch_ids: Vec<u64> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();
    let distinct: HashSet<u64> = batch_ids.iter().copied().collect();
    assert!(
        distinct.len() < REQUESTS,
        "concurrent compatible requests must coalesce: {REQUESTS} requests \
         produced {} distinct batch ids",
        distinct.len()
    );

    let stats = stack.finish();
    assert_eq!(stats.completed, REQUESTS as u64);
    assert_eq!(stats.batches_executed as usize, distinct.len());
}

#[test]
fn trace_ring_keeps_recent_and_slowest_tiers() {
    // A deliberately tiny retention (2 recent, 2 slowest) so eviction is
    // exercised by a handful of requests.
    let obs = Arc::new(ObsHub::new(ObsConfig::default().with_trace_retention(2, 2)));
    let stack = Stack::boot(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(2))).with_obs(Arc::clone(&obs)),
        GatewayConfig::default(),
    );
    let addr = stack.addr();

    const REQUESTS: usize = 5;
    let mut issued = Vec::new();
    for seed in 0..REQUESTS {
        let body = format!("{{\"model\": \"cifar10-serve\", \"seed\": {seed}}}");
        let (status, reply) = raw_roundtrip(addr, &infer_raw(&body, "/v1/infer", true));
        assert_eq!(status, 200, "{reply}");
        issued.push(
            header_value(&reply, "X-Request-Id")
                .expect("request id header")
                .parse::<u64>()
                .unwrap(),
        );
    }

    let (status, reply) = raw_roundtrip(
        addr,
        b"GET /v1/debug/traces HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "{reply}");
    let listing = body_json(&reply);
    let tier_ids = |tier: &str| -> Vec<u64> {
        let Some(Json::Array(rows)) = listing.get(tier) else {
            panic!("missing {tier} tier in {reply}");
        };
        rows.iter()
            .map(|row| row.get("request_id").and_then(Json::as_u64).unwrap())
            .collect()
    };

    // The recent ring holds exactly the last two finished requests; the
    // slowest tier is full too, and may retain ids the ring has evicted.
    let recent = tier_ids("recent");
    assert_eq!(recent.len(), 2, "{reply}");
    for id in &issued[REQUESTS - 2..] {
        assert!(recent.contains(id), "recent tier lost {id}: {reply}");
    }
    let slowest = tier_ids("slowest");
    assert_eq!(slowest.len(), 2, "{reply}");

    // A retained trace is fetchable in full; a fully evicted one is a
    // machine-readable 404.
    let (status, reply) = raw_roundtrip(
        addr,
        format!(
            "GET /v1/debug/traces/{} HTTP/1.1\r\nConnection: close\r\n\r\n",
            recent[0]
        )
        .as_bytes(),
    );
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"stages\""), "{reply}");

    let evicted: Vec<u64> = issued
        .iter()
        .copied()
        .filter(|id| !recent.contains(id) && !slowest.contains(id))
        .collect();
    assert!(!evicted.is_empty(), "5 traces cannot fit 2+2 retention");
    let (status, reply) = raw_roundtrip(
        addr,
        format!(
            "GET /v1/debug/traces/{} HTTP/1.1\r\nConnection: close\r\n\r\n",
            evicted[0]
        )
        .as_bytes(),
    );
    assert_eq!(status, 404, "{reply}");
    assert!(reply.contains("\"code\":\"trace_not_found\""), "{reply}");

    stack.finish();
}

#[test]
fn shed_request_trace_records_the_router_decision() {
    // Both auto candidates crawl at 1 op/s: a 10 ms deadline is unmeetable,
    // the shed is a 429 with a drain-priced Retry-After, and the trace keeps
    // the full router decision record for postmortem inspection.
    let stack = Stack::boot(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(2)))
            .with_engine_drain_seed(EngineName::native(), 1.0)
            .with_engine_drain_seed(EngineName::simulator(), 1.0),
        GatewayConfig::default(),
    );
    let addr = stack.addr();

    let body = r#"{"model": "cifar10-serve", "engine": "auto", "deadline_ms": 10}"#;
    let (status, reply) = raw_roundtrip(addr, &infer_raw(body, "/v1/infer", true));
    assert_eq!(status, 429, "{reply}");
    let request_id: u64 = header_value(&reply, "X-Request-Id")
        .expect("sheds carry the request id header too")
        .parse()
        .unwrap();
    let retry_after: u64 = header_value(&reply, "Retry-After")
        .expect("429 must carry Retry-After")
        .parse()
        .expect("Retry-After is whole seconds");
    assert!((1..=60).contains(&retry_after), "{reply}");
    let error = body_json(&reply);
    let error = error.get("error").expect("machine-readable shed body");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("no_engine_meets_deadline")
    );
    assert_eq!(
        error.get("request_id").and_then(Json::as_u64),
        Some(request_id)
    );

    // The shed request's finished trace shows exactly why: every candidate
    // considered, the completion each was predicted to make, and the verdict.
    let (status, reply) = raw_roundtrip(
        addr,
        format!("GET /v1/debug/traces/{request_id} HTTP/1.1\r\nConnection: close\r\n\r\n")
            .as_bytes(),
    );
    assert_eq!(status, 200, "{reply}");
    let trace = body_json(&reply);
    assert_eq!(trace.get("status").and_then(Json::as_u64), Some(429));
    assert_eq!(
        trace.get("error_code").and_then(Json::as_str),
        Some("no_engine_meets_deadline")
    );
    let router = trace.get("router").expect("router record on the trace");
    assert_eq!(
        router.get("deadline_seconds").and_then(Json::as_f64),
        Some(0.01)
    );
    let Some(Json::Array(candidates)) = router.get("candidates") else {
        panic!("router record without candidates: {reply}");
    };
    assert!(!candidates.is_empty(), "{reply}");
    for candidate in candidates {
        assert_eq!(
            candidate.get("eligible").and_then(Json::as_bool),
            Some(true)
        );
        assert!(
            candidate
                .get("predicted_seconds")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.01
        );
        assert_eq!(
            candidate.get("meets_deadline").and_then(Json::as_bool),
            Some(false)
        );
    }
    let verdict = router.get("verdict").expect("verdict on the record");
    assert_eq!(verdict.get("outcome").and_then(Json::as_str), Some("shed"));
    assert_eq!(
        verdict.get("reason").and_then(Json::as_str),
        Some("no_engine_meets_deadline")
    );

    let stats = stack.finish();
    assert_eq!(stats.completed, 0);
}

#[test]
fn metrics_scrape_is_prometheus_text_format_conformant() {
    let stack = Stack::default();
    let addr = stack.addr();

    // Populate every family: two engines, one auto-routed decision.
    for body in [
        r#"{"model": "cifar10-serve", "seed": 1, "engine": "simulator"}"#,
        r#"{"model": "cifar10-serve", "seed": 2, "engine": "native"}"#,
        r#"{"model": "cifar10-serve", "seed": 3, "engine": "auto"}"#,
    ] {
        let (status, reply) = raw_roundtrip(addr, &infer_raw(body, "/v1/infer", true));
        assert_eq!(status, 200, "{reply}");
    }

    let (status, reply) =
        raw_roundtrip(addr, b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 200);
    assert_eq!(
        header_value(&reply, "Content-Type"),
        Some("text/plain; version=0.0.4")
    );
    let scrape = reply.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");

    // A parser-style walk over the whole exposition: every family announces
    // HELP then TYPE exactly once, all of a family's series sit in one
    // contiguous block, every sample belongs to a declared family and its
    // value is a number.
    let mut helped: HashSet<String> = HashSet::new();
    let mut families: HashMap<String, String> = HashMap::new();
    let mut closed: HashSet<String> = HashSet::new();
    let mut current: Option<String> = None;
    let mut samples = 0usize;
    for line in scrape.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap().to_string();
            assert!(helped.insert(name.clone()), "duplicate HELP for {name}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap().to_string();
            let kind = parts
                .next()
                .unwrap_or_else(|| panic!("TYPE without a kind: {line}"));
            assert!(
                ["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind),
                "unknown TYPE kind {kind}"
            );
            assert!(helped.contains(&name), "TYPE before HELP for {name}");
            assert!(
                families.insert(name.clone(), kind.to_string()).is_none(),
                "duplicate TYPE for {name}"
            );
            if let Some(previous) = current.replace(name.clone()) {
                closed.insert(previous);
            }
            assert!(
                !closed.contains(&name),
                "family {name} re-opened after others"
            );
        } else {
            assert!(!line.starts_with('#'), "unexpected comment form: {line}");
            let name_end = line
                .find(['{', ' '])
                .unwrap_or_else(|| panic!("unparsable sample line: {line}"));
            let sample = &line[..name_end];
            // Histogram samples use the family name plus a reserved suffix.
            let family = if families.contains_key(sample) {
                sample.to_string()
            } else {
                let base = ["_bucket", "_sum", "_count"]
                    .iter()
                    .find_map(|suffix| sample.strip_suffix(suffix))
                    .unwrap_or_else(|| panic!("sample {sample} has no declared family"));
                assert_eq!(
                    families.get(base).map(String::as_str),
                    Some("histogram"),
                    "suffixed sample {sample} outside a histogram family"
                );
                base.to_string()
            };
            assert_eq!(
                Some(family.as_str()),
                current.as_deref(),
                "sample {sample} outside its family's contiguous block"
            );
            let value = line.rsplit(' ').next().unwrap();
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("non-numeric sample value: {line}"));
            samples += 1;
        }
    }
    assert!(samples > 0, "empty scrape");
    for name in helped {
        assert!(families.contains_key(&name), "HELP without TYPE for {name}");
    }

    // Histogram internal consistency: per series, the +Inf bucket equals the
    // count sample with the same labels.
    let mut inf_buckets: HashMap<String, f64> = HashMap::new();
    let mut counts: HashMap<String, f64> = HashMap::new();
    for line in scrape.lines() {
        if let Some(rest) = line.strip_prefix("bishop_stage_seconds_bucket{") {
            if let Some((labels, value)) = rest.split_once("} ") {
                if let Some(series) = labels.strip_suffix(",le=\"+Inf\"") {
                    inf_buckets.insert(series.to_string(), value.parse().unwrap());
                }
            }
        } else if let Some(rest) = line.strip_prefix("bishop_stage_seconds_count{") {
            if let Some((labels, value)) = rest.split_once("} ") {
                counts.insert(labels.to_string(), value.parse().unwrap());
            }
        }
    }
    assert!(
        !inf_buckets.is_empty(),
        "no stage histogram series in scrape"
    );
    assert_eq!(
        inf_buckets, counts,
        "+Inf bucket must equal _count per series"
    );

    stack.finish();
}
