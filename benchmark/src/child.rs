//! The measuring process: boots a fresh stack, runs one workload against
//! it, and prints its report. One process per workload, so caches,
//! allocator state and `VmHWM` never leak from one workload into the next.
//!
//! Protocol with the parent, on stdout: the line `ready` once the first
//! request of the workload's type has answered `200` (the parent stops its
//! set-up clock there); the line `calibrate` whenever the child, idle, wants
//! the host slowdown measured (the parent runs the calibration kernels in
//! its own process, so their memory never shows in this process's `VmHWM`,
//! and answers with one number on the child's stdin); finally one line
//! `report <json>`. Everything the server logs goes to stderr, which the
//! parent points at `out/server.log`.

use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::measure::{
    latency_p95_ms, median_slowdown, peak_rss_mib, run_window, throughput_rps, window_metrics,
};
use crate::report::{MetricValue, WorkloadReport};
use crate::seeds::Lane;
use crate::spec::{self, Workload, END_TO_END, PER_LAYER};
use crate::stack::{stage_sum_count, Stack};
use crate::stats::Summary;
use crate::traffic::{golden_check, replay_seeds, run_phase, Client, ClientLog, Span};
use crate::walk::{layer_walk, WalkReport};

/// What the parent asks of one child.
#[derive(Debug, Clone, Copy)]
pub struct ChildArgs {
    /// The workload to run.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (trace) mode instead of end-to-end mode.
    pub trace: bool,
    /// Exit right after `ready` (a set-up probe).
    pub setup_only: bool,
}

/// Closed-loop client connections on this host.
pub fn client_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(spec::MAX_CLIENTS)
}

/// Stages of the server's own clock that every request of the benchmark's
/// workloads visits (`router` only stamps `"auto"` requests, which no
/// workload sends). `stream_write` is folded into `response_write`: both
/// are "writing the answer", and a blocking request has only the latter.
const STAGES: [(&str, &[&str]); 6] = [
    ("stage.parse_us", &["parse"]),
    ("stage.admission_us", &["admission"]),
    ("stage.queue_wait_us", &["queue_wait"]),
    ("stage.batch_formation_us", &["batch_formation"]),
    ("stage.engine_execute_us", &["engine_execute"]),
    (
        "stage.response_write_us",
        &["stream_write", "response_write"],
    ),
];

/// Runs the child to completion.
pub fn run(args: ChildArgs, out_dir: &Path) -> io::Result<()> {
    let stack = Stack::boot()?;
    let replay = replay_seeds(args.seed);
    let mut stdout = io::stdout();

    let mut first = Client::connect(stack.addr(), args.workload, args.seed, Lane::Setup, 0)?;
    first.step(&replay);
    if first.log.failed > 0 {
        return Err(io::Error::other(format!(
            "set-up request failed: {}",
            first.log.first_error.unwrap_or_default()
        )));
    }
    writeln!(stdout, "ready")?;
    stdout.flush()?;
    if args.setup_only {
        drop(first);
        stack.shutdown();
        return Ok(());
    }
    let mut stdin = io::stdin().lock();
    let mut calibrate = || -> io::Result<f64> {
        let mut stdout = io::stdout().lock();
        writeln!(stdout, "calibrate")?;
        stdout.flush()?;
        let mut answer = String::new();
        stdin.read_line(&mut answer)?;
        answer
            .trim()
            .parse()
            .map_err(|_| io::Error::other(format!("no host slowdown from the parent: {answer:?}")))
    };
    // The host's speed while the parent's set-up clock ran.
    calibrate()?;

    let mut report = WorkloadReport {
        workload: args.workload.name().to_string(),
        attempted: first.log.attempted,
        ..WorkloadReport::default()
    };
    drop(first);

    let golden = golden_check(stack.addr(), args.workload, args.seed)?;
    report.golden_checked = golden.checked as u64;
    report.attempted += golden.attempted;
    report.failed += golden.failed + golden.mismatches.len() as u64;
    report.errors.extend(golden.mismatches);

    let mut clients = (0..client_count())
        .map(|i| Client::connect(stack.addr(), args.workload, args.seed, Lane::Client(i), i))
        .collect::<io::Result<Vec<_>>>()?;
    let warm_start = Instant::now();
    let warm = run_phase(
        &mut clients,
        &replay,
        warm_start,
        warm_start + Duration::from_secs_f64(spec::WARMUP_SECONDS),
        false,
    );
    absorb(&mut report, warm);

    if args.trace {
        trace_mode(
            &args,
            &stack,
            &mut clients,
            &replay,
            &mut report,
            out_dir,
            &mut calibrate,
        )?;
    } else {
        let slices = run_window(
            &mut clients,
            &replay,
            args.seconds,
            spec::SLICES,
            false,
            &mut calibrate,
        )?;
        // Read before the metrics are computed: pooling the window's samples
        // is the benchmark's own memory, not the server's.
        let peak_rss = peak_rss_mib();
        for metric in window_metrics(&slices) {
            let unit = unit_of(metric.name);
            report
                .metrics
                .push(MetricValue::new(metric.name, unit, metric.normalised));
            report
                .raw
                .push(MetricValue::new(metric.name, unit, metric.raw));
        }
        report.metrics.push(MetricValue::new(
            "peak_rss_mb",
            unit_of("peak_rss_mb"),
            Summary::exact(peak_rss),
        ));
        report.raw.push(MetricValue::new(
            "host_slowdown",
            "ratio",
            median_slowdown(&slices),
        ));
        for slice in slices {
            absorb(&mut report, slice.log);
        }
    }

    drop(clients);
    stack.shutdown();
    writeln!(stdout, "report {}", report.to_json().encode())?;
    stdout.flush()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|metric| metric.name == name)
        .map_or("", |metric| metric.unit)
}

fn absorb(report: &mut WorkloadReport, log: ClientLog) {
    report.attempted += log.attempted;
    report.failed += log.failed;
    report.errors.extend(log.first_error);
}

/// Trace mode: one window whose odd slices record client spans (the
/// throughput difference to the even slices is the tracing overhead), the
/// server's stage histograms read around it, a single-client stream probe,
/// and the layer walk.
fn trace_mode(
    args: &ChildArgs,
    stack: &Stack,
    clients: &mut [Client],
    replay: &[u64],
    report: &mut WorkloadReport,
    out_dir: &Path,
    calibrate: &mut dyn FnMut() -> io::Result<f64>,
) -> io::Result<()> {
    let engine = args.workload.engine();
    let mut values: Vec<(&'static str, Summary)> = Vec::new();

    let scrape_before = stack.scrape()?;
    let stats_before = stack.stats();
    let (results_before, workloads_before) = (stack.results.stats(), stack.workloads.stats());
    let mut slices = run_window(clients, replay, args.seconds, spec::SLICES, true, calibrate)?;
    // The connection thread stamps response_write after the last byte
    // leaves; give the final requests' stamps time to land.
    std::thread::sleep(Duration::from_millis(50));
    let scrape_after = stack.scrape()?;
    let stats_after = stack.stats();
    values.push(("host.slowdown", median_slowdown(&slices)));
    values.extend(latency_p95_ms(&slices).map(|p95| ("client.latency_p95_ms", p95)));

    // Tracing overhead: odd slices recorded client spans, even ones did not.
    let parity_rps = |traced: bool| {
        throughput_rps(slices.iter().filter(|slice| slice.traced == traced), true)
            .expect("a window has slices of both parities")
    };
    let (plain_rps, traced_rps) = (parity_rps(false), parity_rps(true));
    values.push((
        "obs.trace_overhead_pct",
        Summary::exact((plain_rps - traced_rps) / plain_rps * 100.0),
    ));

    // Stage ledger: Σ of each stage's histogram over the window, against
    // the clients' own Σ latency over the same requests.
    let delta = |stage: &str| {
        let (sum_after, count_after) = stage_sum_count(&scrape_after, engine, stage);
        let (sum_before, count_before) = stage_sum_count(&scrape_before, engine, stage);
        (sum_after - sum_before, count_after - count_before)
    };
    let requests = delta("parse").1.max(1.0);
    let client_seconds: f64 = slices.iter().map(|s| s.log.infer_seconds).sum();
    let client_requests: usize = slices.iter().map(|s| s.log.infer_requests as usize).sum();
    let mut stage_seconds = 0.0;
    let mut execute_seconds = 0.0;
    for (name, stages) in STAGES {
        let seconds: f64 = stages.iter().map(|stage| delta(stage).0).sum();
        stage_seconds += seconds;
        if name == "stage.engine_execute_us" {
            execute_seconds = seconds;
        }
        values.push((
            name,
            Summary::over(seconds / requests * 1e6, requests as usize),
        ));
    }
    let ratio = stage_seconds / client_seconds;
    let execute_share = execute_seconds / client_seconds;
    values.push(("stage.sum_over_latency", Summary::exact(ratio)));
    values.push(("stage.execute_share", Summary::exact(execute_share)));
    values.push((
        "gateway.wire_us",
        Summary::over(
            (client_seconds - stage_seconds) / requests * 1e6,
            client_requests,
        ),
    ));
    report.notes.push(format!(
        "Σ stages vs client latency: {:.1} us vs {:.1} us per request over {} server / {} client \
         requests (ratio {ratio:.3}, engine_execute share {execute_share:.3})",
        stage_seconds / requests * 1e6,
        client_seconds / client_requests.max(1) as f64 * 1e6,
        requests as u64,
        client_requests,
    ));
    if ratio > 1.05 {
        report.violations.push(format!(
            "stage.sum_over_latency {ratio:.3} > 1.05: a stage is double-counted"
        ));
    }
    match args.workload {
        Workload::SimReplay => {
            if execute_share > 0.25 {
                report.violations.push(format!(
                    "engine_execute is {execute_share:.2} of sim_replay latency (> 0.25): the \
                     workload no longer stresses the wire path"
                ));
            }
        }
        workload => {
            if ratio < 0.90 {
                report.violations.push(format!(
                    "stage.sum_over_latency {ratio:.3} < 0.90: a stage span is missing"
                ));
            }
            if workload == Workload::NativeBlocking && execute_share < 0.85 {
                report.violations.push(format!(
                    "engine_execute is {execute_share:.2} of native_blocking latency (< 0.85)"
                ));
            }
        }
    }

    let completed = (stats_after.completed - stats_before.completed) as f64;
    let batches = (stats_after.batches_executed - stats_before.batches_executed).max(1) as f64;
    let submitted = (stats_after.submitted - stats_before.submitted).max(1) as f64;
    let shed = (stats_after.admission.total() - stats_before.admission.total()) as f64;
    values.push((
        "runtime.batch.mean_size",
        Summary::exact(completed / batches),
    ));
    values.push(("runtime.shed_share", Summary::exact(shed / submitted)));
    values.push((
        "engine.cache.result_hit_rate",
        Summary::exact(stack.results.stats().since(&results_before).hit_rate()),
    ));
    values.push((
        "engine.cache.workload_hit_rate",
        Summary::exact(stack.workloads.stats().since(&workloads_before).hit_rate()),
    ));

    let spans: Vec<Span> = slices
        .iter_mut()
        .flat_map(|slice| std::mem::take(&mut slice.log.spans))
        .collect();
    for slice in slices {
        absorb(report, slice.log);
    }

    // Stream probe: one client, unloaded, against the same stack.
    let mut probe = Client::connect(
        stack.addr(),
        Workload::NativeStream,
        args.seed,
        Lane::Probe,
        0,
    )?;
    let (mut ttfe, mut gaps, mut terminal, mut resume) = (vec![], vec![], vec![], vec![]);
    for turn in 0..spec::PROBE_ITERATIONS as u64 {
        let seed = crate::seeds::derive(args.seed, Lane::Probe, turn);
        if let Some(timeline) = probe.flow_a(seed) {
            ttfe.push(timeline.first_event * 1e6);
            gaps.extend(timeline.gaps.iter().map(|gap| gap * 1e6));
            terminal.push(timeline.terminal * 1e6);
        }
        if let Some(timeline) = probe.flow_b(seed) {
            resume.push(timeline.total * 1e6);
        }
    }
    absorb(report, std::mem::take(&mut probe.log));
    for (name, samples) in [
        ("gateway.stream.ttfe_us", &ttfe),
        ("gateway.stream.event_gap_us", &gaps),
        ("gateway.stream.chunk_us", &terminal),
        ("gateway.stream.resume_us", &resume),
    ] {
        if !samples.is_empty() {
            values.push((name, Summary::of(samples, samples.len())));
        }
    }

    let WalkReport {
        metrics,
        notes,
        violations,
        recorder,
    } = layer_walk(args.seed, &stack.handle());
    values.extend(metrics);
    report.notes.extend(notes);
    report.violations.extend(violations);

    for layer in &PER_LAYER {
        match values.iter().find(|(name, _)| *name == layer.name) {
            Some((_, summary)) => report
                .metrics
                .push(MetricValue::new(layer.name, layer.unit, *summary)),
            None => report
                .violations
                .push(format!("per-layer metric {} was not measured", layer.name)),
        }
    }
    dump_spans(out_dir, args.workload, &spans, &recorder)
}

/// Writes the spans kept in memory during the run to
/// `out/trace-<workload>.json`. Formatted by hand: `sim_replay` records
/// ~150 k client spans and a `Json` tree of them would cost more memory than
/// the run itself.
fn dump_spans(
    out_dir: &Path,
    workload: Workload,
    client_spans: &[Span],
    recorder: &crate::span::Recorder,
) -> io::Result<()> {
    let mut text = String::with_capacity(client_spans.len() * 96 + 4096);
    text.push_str("{\"client_spans\":[");
    for (id, span) in client_spans.iter().enumerate() {
        if id > 0 {
            text.push(',');
        }
        write!(
            text,
            "{{\"id\":{id},\"client\":{},\"kind\":\"{}\",\"send_s\":{},\"first_byte_s\":{},\
             \"last_byte_s\":{}}}",
            span.client,
            span.kind,
            span.send,
            span.send + span.first_byte,
            span.send + span.last_byte
        )
        .expect("writing to a String");
    }
    text.push_str("],\"walk_spans\":[");
    for (id, span) in recorder.spans().iter().enumerate() {
        if id > 0 {
            text.push(',');
        }
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        write!(
            text,
            "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\
             \"end_ns\":{}}}",
            span.request, span.name, span.start_ns, span.end_ns
        )
        .expect("writing to a String");
    }
    text.push_str("]}\n");
    std::fs::write(
        out_dir.join(format!("trace-{}.json", workload.name())),
        text,
    )
}
