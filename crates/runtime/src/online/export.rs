//! The export table: the one place that decides which serving counters
//! leave the process, and what each is called.
//!
//! `FAMILIES` holds one entry per Prometheus family — name, help, kind —
//! and under it one sample per exported quantity: an optional fixed
//! label (`reason`, `outcome`), the name of the time series the background
//! sampler keeps of it (if any), and a getter over a [`Snapshot`]. Both
//! consumers are loops over that table: `GET /metrics`
//! ([`render_prometheus`]) and the sampler's scrape (`record_series`),
//! whose series the SLO engine evaluates. Adding a metric is adding one
//! entry here; nothing else enumerates the counters.

use std::collections::BTreeMap;
use std::fmt::{Display, Write};
use std::sync::LazyLock;

use bishop_obs::{SeriesKind, TimeSeriesStore};
use bishop_session::SessionStoreStats;

use super::{EngineLoadStats, OnlineStats};
use SeriesKind::{Counter, Gauge};
use Source::{Edge, Engine, Server, Sessions, Status};

/// HTTP- and connection-level counts the edge in front of the server (the
/// gateway) contributes to the `/metrics` export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Connections the acceptor admitted.
    pub connections_accepted: u64,
    /// Connections turned away at the concurrency cap.
    pub connections_rejected: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Requests that failed HTTP parsing or violated size limits.
    pub parse_errors: u64,
    /// Responses sent, by HTTP status code.
    pub responses_by_status: BTreeMap<u16, u64>,
}

/// Everything one export reads, taken at one point in time.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot<'a> {
    /// The server's counters, with one entry per engine scheduling domain.
    pub server: &'a OnlineStats,
    /// The session store's counters, when an edge registered a store.
    pub sessions: Option<&'a SessionStoreStats>,
    /// The edge's HTTP counters (absent from the sampler's scrape).
    pub edge: Option<&'a EdgeStats>,
}

/// Where a sample's value comes from — and so how many samples it yields:
/// one, one per engine (labeled `engine`), or one per HTTP status seen
/// (labeled `status`).
enum Source {
    Server(fn(&OnlineStats) -> f64),
    Engine(fn(&EngineLoadStats) -> f64),
    Sessions(fn(&SessionStoreStats) -> f64),
    Edge(fn(&EdgeStats) -> f64),
    Status,
}

/// One emitted value and the label telling per-engine / per-status values
/// apart.
type Yield<'a> = (Option<(&'static str, &'a dyn Display)>, f64);

impl Source {
    /// Every value the source yields from `snapshot`; `None` when the
    /// snapshot does not carry what it reads (no session store, no edge).
    fn values<'a>(&self, snapshot: &Snapshot<'a>) -> Option<Vec<Yield<'a>>> {
        let engine = |e: &'a EngineLoadStats| Some(("engine", &e.engine as &dyn Display));
        let status = |code: &'a u16| Some(("status", code as &dyn Display));
        Some(match self {
            Source::Server(get) => vec![(None, get(snapshot.server))],
            Source::Engine(get) => {
                let engines = snapshot.server.engines.iter();
                engines.map(|e| (engine(e), get(e))).collect()
            }
            Source::Sessions(get) => vec![(None, get(snapshot.sessions?))],
            Source::Edge(get) => vec![(None, get(snapshot.edge?))],
            Source::Status => {
                let statuses = snapshot.edge?.responses_by_status.iter();
                statuses
                    .map(|(code, n)| (status(code), *n as f64))
                    .collect()
            }
        })
    }
}

/// One exported quantity within a family.
struct Sample {
    source: Source,
    /// The fixed label telling this sample from its family siblings.
    label: Option<(&'static str, &'static str)>,
    /// The time series the sampler records it under; per-engine sources
    /// append `.<engine>`. `None`: exported on `/metrics` only.
    series: Option<&'static str>,
}

impl Sample {
    fn of(source: Source) -> Self {
        Self {
            source,
            label: None,
            series: None,
        }
    }

    fn label(mut self, key: &'static str, value: &'static str) -> Self {
        self.label = Some((key, value));
        self
    }

    fn series(mut self, name: &'static str) -> Self {
        self.series = Some(name);
        self
    }
}

/// One Prometheus metric family: its header and the samples grouped under
/// it. The kind is also the kind of every time series the samples name.
struct Family {
    kind: SeriesKind,
    name: &'static str,
    help: &'static str,
    samples: Vec<Sample>,
}

impl Family {
    fn new(kind: SeriesKind, name: &'static str) -> Self {
        Self {
            kind,
            name,
            help: "",
            samples: Vec::new(),
        }
    }

    fn help(mut self, help: &'static str) -> Self {
        self.help = help;
        self
    }

    fn sample(mut self, sample: Sample) -> Self {
        self.samples.push(sample);
        self
    }
}

/// The export table, in `/metrics` order.
static FAMILIES: LazyLock<Vec<Family>> = LazyLock::new(|| {
    vec![
        Family::new(Counter, "bishop_gateway_connections_accepted_total")
            .help("Connections admitted by the acceptor.")
            .sample(Sample::of(Edge(|e| e.connections_accepted as f64))),
        Family::new(Counter, "bishop_gateway_connections_rejected_total")
            .help("Connections turned away at the concurrency cap.")
            .sample(Sample::of(Edge(|e| e.connections_rejected as f64))),
        Family::new(Counter, "bishop_gateway_parse_errors_total")
            .help("Requests that failed HTTP parsing or violated size limits.")
            .sample(Sample::of(Edge(|e| e.parse_errors as f64))),
        Family::new(Counter, "bishop_gateway_http_responses_total")
            .help("Responses sent, by status code.")
            .sample(Sample::of(Status)),
        Family::new(Gauge, "bishop_gateway_connections_active")
            .help("Connections currently open.")
            .sample(Sample::of(Edge(|e| e.connections_active as f64))),
        Family::new(Counter, "bishop_runtime_requests_submitted_total")
            .help("Requests offered to admission control.")
            .sample(Sample::of(Server(|s| s.submitted as f64)).series("requests.submitted")),
        Family::new(Counter, "bishop_runtime_requests_admitted_total")
            .help("Requests admitted into the submission queue.")
            .sample(Sample::of(Server(|s| s.admitted as f64)).series("requests.admitted")),
        Family::new(Counter, "bishop_runtime_requests_completed_total")
            .help("Requests whose batch executed successfully.")
            .sample(Sample::of(Server(|s| s.completed as f64)).series("requests.ok")),
        Family::new(Counter, "bishop_runtime_requests_failed_total")
            .help("Requests whose engine refused the batch (typed ServeError).")
            .sample(Sample::of(Server(|s| s.failed as f64)).series("requests.failed")),
        Family::new(Counter, "bishop_runtime_batches_executed_total")
            .help("Batches executed by the worker pool.")
            .sample(Sample::of(Server(|s| s.batches_executed as f64)).series("batches.total")),
        Family::new(Counter, "bishop_runtime_simulated_cycles_total")
            .help("Total simulated chip-busy cycles.")
            .sample(Sample::of(Server(|s| s.total_simulated_cycles as f64))),
        Family::new(Counter, "bishop_runtime_simulated_energy_millijoules_total")
            .help("Total simulated energy in millijoules.")
            .sample(Sample::of(Server(|s| s.total_energy_mj))),
        Family::new(Counter, "bishop_runtime_requests_shed_total")
            .help("Requests shed by admission control, by reason.")
            .sample(
                Sample::of(Server(|s| s.admission.queue_full as f64)).label("reason", "queue_full"),
            )
            .sample(Sample::of(Server(|s| s.admission.deadline as f64)).label("reason", "deadline"))
            .sample(
                Sample::of(Server(|s| s.admission.no_engine as f64))
                    .label("reason", "no_engine_meets_deadline"),
            )
            .sample(
                Sample::of(Server(|s| s.admission.unavailable as f64))
                    .label("reason", "engine_unavailable"),
            )
            .sample(
                Sample::of(Server(|s| s.admission.shutdown as f64)).label("reason", "shutdown"),
            ),
        // The global gauge and the per-domain labeled samples share one
        // family, so aggregations over either view reconcile (backlog below
        // likewise).
        Family::new(Gauge, "bishop_runtime_queue_depth")
            .help(
                "Requests admitted but not yet completed \
                 (unlabeled: all domains; engine label: one scheduling domain).",
            )
            .sample(Sample::of(Server(|s| s.queue_depth as f64)).series("queue_depth.all"))
            .sample(Sample::of(Engine(|e| e.queue_depth as f64)).series("queue_depth")),
        Family::new(Counter, "bishop_runtime_batches_total")
            .help("Batches executed, by engine scheduling domain.")
            .sample(Sample::of(Engine(|e| e.batches_executed as f64)).series("engine.batches")),
        Family::new(Counter, "bishop_runtime_engine_completed_total")
            .help("Requests completed, by engine.")
            .sample(Sample::of(Engine(|e| e.completed as f64)).series("engine.completed")),
        Family::new(Counter, "bishop_runtime_engine_failed_total")
            .help("Requests failed with a typed engine refusal, by engine.")
            .sample(Sample::of(Engine(|e| e.failed as f64)).series("engine.failed")),
        Family::new(Gauge, "bishop_runtime_drain_ops_per_second")
            .help("Calibrated drain rate (EWMA of observed ops/second), by engine.")
            .sample(Sample::of(Engine(|e| e.drain_ops_per_second)).series("drain_ops_per_second")),
        Family::new(Gauge, "bishop_breaker_state")
            .help("Circuit-breaker state, by engine: 0 = closed, 1 = half-open, 2 = open.")
            .sample(
                Sample::of(Engine(|e| e.breaker.state.metric_value() as f64))
                    .series("breaker_state"),
            ),
        Family::new(Counter, "bishop_breaker_opened_total")
            .help("Circuit-breaker trips since boot, by engine.")
            .sample(Sample::of(Engine(|e| e.breaker.opened_total as f64))),
        Family::new(Counter, "bishop_worker_panics_total")
            .help("Engine panics contained by domain workers, by engine.")
            .sample(Sample::of(Engine(|e| e.worker_panics as f64))),
        Family::new(Counter, "bishop_stream_events_total")
            .help("Per-step progress events forwarded to streamed tickets, by engine.")
            .sample(Sample::of(Engine(|e| e.stream_events as f64)).series("engine.stream_events")),
        Family::new(Gauge, "bishop_sessions_active")
            .help("Live sessions holding a persistent state slot.")
            .sample(Sample::of(Sessions(|s| s.active as f64)).series("sessions.active")),
        Family::new(Counter, "bishop_sessions_evicted_total")
            .help("Sessions evicted, by reason.")
            .sample(
                Sample::of(Sessions(|s| s.evicted_ttl as f64))
                    .label("reason", "ttl")
                    .series("sessions.evicted.ttl"),
            )
            .sample(
                Sample::of(Sessions(|s| s.evicted_capacity as f64))
                    .label("reason", "capacity")
                    .series("sessions.evicted.capacity"),
            )
            .sample(
                Sample::of(Sessions(|s| s.evicted_explicit as f64))
                    .label("reason", "explicit")
                    .series("sessions.evicted.explicit"),
            ),
        // `attempted` counts every re-execution, `recovered` the batches a
        // retry saved, `exhausted` the batches that failed with max_attempts
        // spent, `budget_denied` the retries the shared budget refused
        // (outage anti-amplification).
        Family::new(Counter, "bishop_retries_total")
            .help("Batch execution retries, by engine and outcome.")
            .sample(
                Sample::of(Engine(|e| e.retries_attempted as f64))
                    .label("outcome", "attempted")
                    .series("engine.retries"),
            )
            .sample(
                Sample::of(Engine(|e| e.retries_recovered as f64)).label("outcome", "recovered"),
            )
            .sample(
                Sample::of(Engine(|e| e.retries_exhausted as f64)).label("outcome", "exhausted"),
            )
            .sample(
                Sample::of(Engine(|e| e.retry_budget_denied as f64))
                    .label("outcome", "budget_denied"),
            ),
        Family::new(Gauge, "bishop_runtime_backlog_ops")
            .help(
                "Estimated dense ops of the admitted backlog \
                 (unlabeled: all domains; engine label: one scheduling domain).",
            )
            .sample(Sample::of(Server(|s| s.backlog_ops as f64)).series("backlog_ops.all"))
            .sample(Sample::of(Engine(|e| e.backlog_ops as f64)).series("backlog_ops")),
        Family::new(Gauge, "bishop_runtime_mean_latency_seconds")
            .help("Mean simulated per-request latency.")
            .sample(Sample::of(Server(|s| s.mean_latency_seconds))),
        Family::new(Gauge, "bishop_runtime_max_latency_seconds")
            .help("Worst simulated per-request latency.")
            .sample(Sample::of(Server(|s| s.max_latency_seconds))),
    ]
});

/// Appends every family of the table to `out` in Prometheus text format
/// (version 0.0.4): one `HELP`/`TYPE` header per family, then its samples.
/// A family none of whose sources is in the snapshot is left out whole (no
/// session store, no session families); one whose sources yield nothing
/// (no engines) keeps its header.
pub fn render_prometheus(snapshot: &Snapshot<'_>, out: &mut String) {
    for family in FAMILIES.iter() {
        let samples = family.samples.iter();
        let yields: Vec<_> = samples
            .filter_map(|sample| Some((sample.label, sample.source.values(snapshot)?)))
            .collect();
        if yields.is_empty() {
            continue;
        }
        let name = family.name;
        let kind = match family.kind {
            Counter => "counter",
            Gauge => "gauge",
        };
        let _ = writeln!(out, "# HELP {name} {}\n# TYPE {name} {kind}", family.help);
        for (fixed, values) in yields {
            let fixed = fixed.as_ref().map(|(key, val)| (*key, val as &dyn Display));
            for (subject, value) in values {
                out.push_str(name);
                let mut opener = '{';
                for (key, val) in subject.into_iter().chain(fixed) {
                    let _ = write!(out, "{opener}{key}=\"{val}\"");
                    opener = ',';
                }
                if opener == ',' {
                    out.push('}');
                }
                let _ = writeln!(out, " {value}");
            }
        }
    }
}

/// Records every sample that names a time series into `store`, as the kind
/// of its family.
pub(crate) fn record_series(snapshot: &Snapshot<'_>, store: &TimeSeriesStore) {
    for family in FAMILIES.iter() {
        for sample in &family.samples {
            let Some(series) = sample.series else {
                continue;
            };
            for (subject, value) in sample.source.values(snapshot).unwrap_or_default() {
                let name = match subject {
                    Some((_, engine)) => format!("{series}.{engine}"),
                    None => series.to_string(),
                };
                match family.kind {
                    Counter => store.record_counter(&name, value),
                    Gauge => store.record_gauge(&name, value),
                }
            }
        }
    }
}
