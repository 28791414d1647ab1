//! The Bishop serving stack's benchmark: one socket-to-kernel ledger.
//!
//! ```text
//! bishop-benchmark --workload W --seed N --seconds S --trace 0|1   one workload; last line is the
//!                                                                 driver's JSON result
//! bishop-benchmark run     [--seed N] [--seconds S] [--out FILE]   all workloads, end-to-end metrics
//! bishop-benchmark trace   [--seed N] [--seconds S] [--out FILE]   all workloads, per-layer ledger
//! bishop-benchmark compare A.json B.json                           verdict per (workload, metric)
//! ```
//!
//! See `README.md` for the workloads, the metrics and how they interact.

mod calibrate;
mod child;
mod client;
mod compare;
mod measure;
mod report;
mod seeds;
mod span;
mod spec;
mod stack;
mod stats;
mod traffic;
mod walk;

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use bishop_gateway::Json;
use bishop_spiketensor::words::simd;

use child::{client_count, ChildArgs};
use report::{Header, MetricValue, RunFile, WorkloadReport};
use spec::{Workload, END_TO_END, PER_LAYER};
use stats::Summary;

/// Measured seconds per workload when `run` is given no `--seconds`.
const DEFAULT_RUN_SECONDS: u64 = 30;
/// Measured seconds per workload when `trace` is given no `--seconds`.
const DEFAULT_TRACE_SECONDS: u64 = 20;

/// Where spans, the server log and run files go (git-ignored).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn usage() -> String {
    "usage: bishop-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
     bishop-benchmark run|trace [--seed <n>] [--seconds <s>] [--out <file>]\n       \
     bishop-benchmark compare <A.json> <B.json>"
        .to_string()
}

/// `--key value` options after the subcommand.
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    setup_only: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: None,
        trace: false,
        setup_only: false,
        out: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--setup-only" {
            options.setup_only = true;
            continue;
        }
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                options.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => options.seed = parse_seed(value)?,
            "--seconds" => {
                let seconds: u64 = value
                    .parse()
                    .map_err(|_| format!("--seconds takes a whole number, got {value}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            "--out" => options.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}\n{}", usage())),
        }
    }
    Ok(options)
}

/// Decimal or `0x` hexadecimal.
fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("--seed takes a non-negative integer, got {text}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => parse_options(&args[1..]).and_then(|options| {
            let args = ChildArgs {
                workload: options.workload.ok_or("child needs --workload")?,
                seed: options.seed,
                seconds: options.seconds.unwrap_or(DEFAULT_RUN_SECONDS) as f64,
                trace: options.trace,
                setup_only: options.setup_only,
            };
            child::run(args, &out_dir()).map_err(|e| e.to_string())?;
            Ok(true)
        }),
        Some("run") => parse_options(&args[1..]).and_then(|o| all_workloads(&o, false)),
        Some("trace") => parse_options(&args[1..]).and_then(|o| all_workloads(&o, true)),
        Some("compare") => match &args[1..] {
            [a, b] => compare_files(a, b),
            _ => Err(usage()),
        },
        Some(flag) if flag.starts_with("--") => parse_options(&args).and_then(|o| one_workload(&o)),
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bishop-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

fn header(seed: u64, seconds: u64, trace: bool) -> Header {
    Header {
        cores: std::thread::available_parallelism().map_or(1, usize::from) as u64,
        clients: client_count() as u64,
        simd_tier: simd::active().tier().label().to_string(),
        seed,
        seconds,
        trace,
        stack: spec::stack_description(),
    }
}

fn print_header(header: &Header) {
    println!(
        "cores={} clients={} (closed loop, keep-alive) simd_tier={} seed={:#x} window={}s \
         slices={} warmup={}s mode={}",
        header.cores,
        header.clients,
        header.simd_tier,
        header.seed,
        header.seconds,
        spec::SLICES,
        spec::WARMUP_SECONDS,
        if header.trace { "trace" } else { "run" }
    );
    println!("stack: {}", header.stack);
}

/// The driver's entry point: one workload, result on the last line.
fn one_workload(options: &Options) -> Result<bool, String> {
    let workload = options.workload.ok_or_else(usage)?;
    let seconds = options.seconds.ok_or_else(usage)?;
    let report = measure(workload, options.seed, seconds, options.trace)?;
    print_header(&header(options.seed, seconds, options.trace));
    print_report(&report);
    println!("{}", report.driver_line());
    Ok(true)
}

/// `run` / `trace`: every workload in turn, each in its own process.
fn all_workloads(options: &Options, trace: bool) -> Result<bool, String> {
    let seconds = options.seconds.unwrap_or(if trace {
        DEFAULT_TRACE_SECONDS
    } else {
        DEFAULT_RUN_SECONDS
    });
    let header = header(options.seed, seconds, trace);
    print_header(&header);
    let mut file = RunFile {
        header,
        workloads: Vec::new(),
    };
    for workload in Workload::ALL {
        eprintln!("measuring {} ...", workload.name());
        file.workloads
            .push(measure(workload, options.seed, seconds, trace)?);
    }
    if trace {
        print_ledger(&file);
    }
    for report in &file.workloads {
        if trace {
            print_verdict(report);
        } else {
            print_report(report);
        }
    }
    let path = options
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(if trace { "trace.json" } else { "run.json" }));
    std::fs::write(&path, file.to_json().encode() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(file.workloads.iter().all(WorkloadReport::correct))
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<RunFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        RunFile::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    if let Some(reason) = compare::incomparable(&a, &b) {
        return Err(format!("refusing to compare: {reason}"));
    }
    let (table, any_worse) = compare::compare(&a, &b);
    print!("{table}");
    Ok(!any_worse)
}

/// What the parent learns from one child.
struct ChildOutcome {
    /// Seconds from spawn to the child's `ready` line.
    ready_seconds: f64,
    /// Host slowdown measured right after the child became ready.
    slowdown: f64,
    /// The child's report (`None` for a set-up probe).
    report: Option<WorkloadReport>,
}

/// Spawns this executable as a measuring child.
fn spawn_child(args: &ChildArgs, log: &File) -> Result<ChildOutcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("child")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &(args.seconds as u64).to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(log.try_clone().map_err(|e| format!("server log: {e}"))?);
    if args.setup_only {
        command.arg("--setup-only");
    }
    let spawned = Instant::now();
    let mut process = command
        .spawn()
        .map_err(|e| format!("spawning a child: {e}"))?;
    let stdout = process.stdout.take().expect("stdout was piped");
    let mut stdin = process.stdin.take().expect("stdin was piped");
    let mut ready = None;
    let mut slowdown = None;
    let mut report = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading the child's output: {e}"))?;
        if line == "ready" {
            ready.get_or_insert(spawned.elapsed().as_secs_f64());
        } else if line == "calibrate" {
            // The child is idle until it reads the answer.
            let measured = calibrate::host_slowdown(client_count());
            slowdown.get_or_insert(measured);
            writeln!(stdin, "{measured}").map_err(|e| format!("answering the child: {e}"))?;
        } else if let Some(json) = line.strip_prefix("report ") {
            let parsed = Json::parse(json).map_err(|e| e.to_string())?;
            report = Some(WorkloadReport::from_json(&parsed).map_err(|e| e.to_string())?);
        }
    }
    let status = process
        .wait()
        .map_err(|e| format!("waiting for a child: {e}"))?;
    if !status.success() {
        return Err(format!(
            "the {} child exited with {status}; see {}",
            args.workload.name(),
            out_dir().join("server.log").display()
        ));
    }
    if !args.setup_only && report.is_none() {
        return Err("the child printed no report".to_string());
    }
    Ok(ChildOutcome {
        ready_seconds: ready.ok_or("the child never became ready")?,
        // A set-up probe exits at `ready`; the host is measured once it has.
        slowdown: slowdown.unwrap_or_else(|| calibrate::host_slowdown(client_count())),
        report,
    })
}

/// Measures one workload: fresh-process set-up probes, then the measuring
/// child.
fn measure(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<WorkloadReport, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let log = OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("server.log"))
        .map_err(|e| format!("opening the server log: {e}"))?;
    let mut args = ChildArgs {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        setup_only: true,
    };
    // Set-up time is an end-to-end metric; trace mode reports layers only.
    let mut setups = Vec::new();
    if !trace {
        for _ in 1..spec::SETUP_REPEATS {
            setups.push(spawn_child(&args, &log)?);
        }
    }
    args.setup_only = false;
    let mut measured = spawn_child(&args, &log)?;
    let mut report = measured.report.take().expect("a measuring child reports");
    if !trace {
        setups.push(measured);
        let setup = &END_TO_END[0];
        let raw: Vec<f64> = setups.iter().map(|s| s.ready_seconds).collect();
        let normalised: Vec<f64> = setups
            .iter()
            .map(|s| s.ready_seconds / s.slowdown)
            .collect();
        let metric = |values: &[f64]| {
            MetricValue::new(setup.name, setup.unit, Summary::of(values, values.len()))
        };
        report.metrics.insert(0, metric(&normalised));
        report.raw.insert(0, metric(&raw));
    }
    Ok(report)
}

fn print_report(report: &WorkloadReport) {
    let why = Workload::parse(&report.workload).map_or("", Workload::why);
    println!("\n{} — {why}", report.workload);
    for metric in &report.metrics {
        print!(
            "  {:<36} {:>14.4} {:<7} iqr {:>12.4}  n={}",
            metric.name, metric.value, metric.unit, metric.iqr, metric.samples
        );
        match report.raw.iter().find(|raw| raw.name == metric.name) {
            Some(raw) if raw.value != metric.value => println!("  (as measured {:.4})", raw.value),
            _ => println!(),
        }
    }
    if let Some(slowdown) = report.raw.iter().find(|raw| raw.name == "host_slowdown") {
        println!(
            "  host slowdown {:.3} (iqr {:.3}): host-time metrics above are divided by it",
            slowdown.value, slowdown.iqr
        );
    }
    for note in &report.notes {
        println!("  {note}");
    }
    print_verdict(report);
}

fn print_verdict(report: &WorkloadReport) {
    println!(
        "  {}: golden check {}/{} match, attempted {}, failed {} -> {}",
        report.workload,
        report.golden_checked as usize - report.errors.len().min(report.golden_checked as usize),
        report.golden_checked,
        report.attempted,
        report.failed,
        if report.correct() {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    for problem in report.errors.iter().chain(&report.violations) {
        println!("    ! {problem}");
    }
}

/// The per-layer table: one row per metric, one column per workload.
fn print_ledger(file: &RunFile) {
    print!("\n{:<36} {:<7}", "per-layer metric", "unit");
    for report in &file.workloads {
        print!(" {:>16}", report.workload);
    }
    println!();
    for layer in &PER_LAYER {
        print!("{:<36} {:<7}", layer.name, layer.unit);
        for report in &file.workloads {
            match report.metric(layer.name) {
                Some(metric) => print!(" {:>16.4}", metric.value),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
    for report in &file.workloads {
        println!("\n{} reconciliation", report.workload);
        for note in &report.notes {
            println!("  {note}");
        }
    }
    println!();
}
