//! The measured window: closed-loop clients for a fixed time, cut into
//! equal slices. Each slice is bracketed by a host-speed calibration (see
//! [`crate::calibrate`]); every host-time sample is divided by its slice's
//! host slowdown, and each metric is then taken over the whole window.

use std::io;
use std::time::{Duration, Instant};

use crate::stats::{percentile, Summary};
use crate::traffic::{run_phase, Client, ClientLog};

/// Kernel clock ticks per second behind `/proc/self/stat` (`USER_HZ`, 100
/// on every Linux ABI).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process has consumed (every thread: the
/// server's and the load generator's, which share the process).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. the 12th and 13th after `)`.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_name.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks() + ticks()) / TICKS_PER_SECOND
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One slice of a window.
#[derive(Debug)]
pub struct Slice {
    /// What the clients observed.
    pub log: ClientLog,
    /// Wall seconds from the slice's start until its last request finished.
    pub seconds: f64,
    /// Process CPU seconds consumed.
    pub cpu_seconds: f64,
    /// Host slowdown: mean of the calibrations before and after the slice.
    pub slowdown: f64,
    /// Whether the clients recorded spans during the slice.
    pub traced: bool,
}

/// Runs the clients' closed loops for `seconds` in `slices` slices, asking
/// `calibrate` for the host slowdown before the first slice and after every
/// slice (the clients are idle meanwhile). With `trace`, odd slices record
/// client spans and even ones do not, so host drift hits both alike and
/// their throughput difference is the tracing overhead.
pub fn run_window(
    clients: &mut [Client],
    replay: &[u64],
    seconds: f64,
    slices: usize,
    trace: bool,
    calibrate: &mut dyn FnMut() -> io::Result<f64>,
) -> io::Result<Vec<Slice>> {
    let slice_seconds = Duration::from_secs_f64(seconds / slices as f64);
    let origin = Instant::now();
    let mut before = calibrate()?;
    (0..slices)
        .map(|index| {
            let traced = trace && index % 2 == 1;
            let started = Instant::now();
            let cpu_before = cpu_seconds();
            let log = run_phase(clients, replay, origin, started + slice_seconds, traced);
            let seconds = started.elapsed().as_secs_f64();
            let cpu_seconds = cpu_seconds() - cpu_before;
            let after = calibrate()?;
            let slowdown = (before + after) / 2.0;
            before = after;
            Ok(Slice {
                log,
                seconds,
                cpu_seconds,
                slowdown,
                traced,
            })
        })
        .collect()
}

/// One metric of a window: host-normalised (reported) and raw.
#[derive(Debug, Clone, Copy)]
pub struct WindowMetric {
    /// Metric name.
    pub name: &'static str,
    /// Whole-window value after dividing out each slice's host slowdown,
    /// with the inter-quartile range of the per-slice values beside it.
    pub normalised: Summary,
    /// The same as measured.
    pub raw: Summary,
}

/// The slowdown a slice's values are corrected by: durations are divided by
/// it, completions multiplied (a slower host would have completed fewer).
fn correction(slice: &Slice, normalise: bool) -> f64 {
    if normalise {
        slice.slowdown
    } else {
        1.0
    }
}

/// Completions per second over `slices`.
pub fn throughput_rps<'a>(
    slices: impl IntoIterator<Item = &'a Slice>,
    normalise: bool,
) -> Option<f64> {
    let (completed, seconds) = slices.into_iter().fold((0.0, 0.0), |(c, t), slice| {
        (
            c + slice.log.completed as f64 * correction(slice, normalise),
            t + slice.seconds,
        )
    });
    (seconds > 0.0).then(|| completed / seconds)
}

/// Process CPU seconds per 1000 completions over `slices`.
fn cpu_s_per_kreq(slices: &[Slice], normalise: bool) -> Option<f64> {
    let completed: u64 = slices.iter().map(|s| s.log.completed).sum();
    let cpu: f64 = slices
        .iter()
        .map(|s| s.cpu_seconds / correction(s, normalise))
        .sum();
    (completed > 0).then(|| cpu / completed as f64 * 1e3)
}

/// The `q`-quantile, in ms, of one timing of every primary completion in
/// `slices`, pooled.
fn quantile_ms(
    slices: &[Slice],
    normalise: bool,
    q: f64,
    pick: fn(&(f32, f32)) -> f32,
) -> Option<f64> {
    let mut values: Vec<f64> = slices
        .iter()
        .flat_map(|slice| {
            let correction = correction(slice, normalise);
            slice
                .log
                .timings
                .iter()
                .map(move |timing| f64::from(pick(timing)) / correction)
        })
        .collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    (!values.is_empty()).then(|| percentile(&values, q) * 1e3)
}

/// The pooled p95 latency as measured, in ms, over the samples behind it.
/// Trace mode reports it without a bound: on the reference host the slowest
/// twentieth of a window is the share of it the hypervisor ran the VM slow
/// (README.md, "Measured run-to-run spread").
pub fn latency_p95_ms(slices: &[Slice]) -> Option<Summary> {
    let timed = slices.iter().map(|s| s.log.timings.len()).sum();
    quantile_ms(slices, false, 0.95, |t| t.0).map(|p95| Summary::over(p95, timed))
}

/// The window's end-to-end metrics, in report order. Each value is taken over the
/// whole window — totals for the rates, pooled samples for the quantiles —
/// because the host changes speed in episodes shorter than a slice: a
/// slice's value is then one of two modes, the median of ten such values
/// flips between them from run to run, and the whole-window value does not
/// (README.md, "Measured run-to-run spread"). The per-slice values give the
/// inter-quartile range printed beside it.
pub fn window_metrics(slices: &[Slice]) -> Vec<WindowMetric> {
    let completed: usize = slices.iter().map(|s| s.log.completed as usize).sum();
    let timed: usize = slices.iter().map(|s| s.log.timings.len()).sum();
    let metric = |name, samples, value: &dyn Fn(&[Slice], bool) -> Option<f64>| {
        let summary = |normalise| {
            let per_slice: Vec<f64> = slices
                .iter()
                .filter_map(|slice| value(std::slice::from_ref(slice), normalise))
                .collect();
            match value(slices, normalise) {
                Some(whole) => Summary {
                    median: whole,
                    iqr: Summary::of(&per_slice, samples).iqr,
                    samples,
                },
                None => Summary::exact(0.0),
            }
        };
        WindowMetric {
            name,
            normalised: summary(true),
            raw: summary(false),
        }
    };
    vec![
        metric("throughput_rps", completed, &|s, n| throughput_rps(s, n)),
        metric("latency_p50_ms", timed, &|s, n| {
            quantile_ms(s, n, 0.5, |t| t.0)
        }),
        metric("ttfe_p50_ms", timed, &|s, n| {
            quantile_ms(s, n, 0.5, |t| t.1)
        }),
        metric("cpu_s_per_kreq", completed, &cpu_s_per_kreq),
    ]
}

/// Median host slowdown over a window's slices.
pub fn median_slowdown(slices: &[Slice]) -> Summary {
    let values: Vec<f64> = slices.iter().map(|s| s.slowdown).collect();
    Summary::of(&values, values.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(latencies_ms: &[f32], extra: u64, seconds: f64, cpu: f64, slowdown: f64) -> Slice {
        Slice {
            log: ClientLog {
                completed: latencies_ms.len() as u64 + extra,
                timings: latencies_ms.iter().map(|ms| (ms / 1e3, ms / 2e3)).collect(),
                ..ClientLog::default()
            },
            seconds,
            cpu_seconds: cpu,
            slowdown,
            traced: false,
        }
    }

    #[test]
    fn procfs_readers_return_live_values() {
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
    }

    #[test]
    fn window_metrics_are_taken_over_the_whole_window() {
        // Three 1 s slices on a reference-speed host; the middle one is
        // slow. One secondary completion counts for throughput only.
        let slices = [
            slice(&[10.0, 10.0], 0, 1.0, 0.2, 1.0),
            slice(&[50.0, 50.0, 50.0, 50.0], 0, 1.0, 0.4, 1.0),
            slice(&[10.0], 1, 1.0, 0.2, 1.0),
        ];
        let metrics = window_metrics(&slices);
        let get = |name: &str| *metrics.iter().find(|m| m.name == name).unwrap();
        // 8 completions in 3 s; per-slice rates 2, 4, 2.
        assert!((get("throughput_rps").normalised.median - 8.0 / 3.0).abs() < 1e-9);
        assert_eq!(get("throughput_rps").normalised.iqr, 1.0);
        assert_eq!(get("throughput_rps").normalised.samples, 8);
        // Pooled: three samples of 10 ms, four of 50 ms.
        assert!((get("latency_p50_ms").normalised.median - 50.0).abs() < 1e-4);
        assert_eq!(get("latency_p50_ms").normalised.samples, 7);
        assert!((get("ttfe_p50_ms").normalised.median - 25.0).abs() < 1e-4);
        // 0.8 CPU seconds over 8 completions.
        assert!((get("cpu_s_per_kreq").normalised.median - 100.0).abs() < 1e-9);
        assert_eq!(
            get("latency_p50_ms").raw.median,
            get("latency_p50_ms").normalised.median
        );
        assert!((latency_p95_ms(&slices).unwrap().median - 50.0).abs() < 1e-4);
        assert!(window_metrics(&[])
            .iter()
            .all(|m| m.normalised.median == 0.0));
    }

    #[test]
    fn a_slow_host_is_divided_out() {
        // The same program on a host running 1.5x slower: every duration is
        // 1.5x longer, throughput 1.5x lower, and the slowdown says so.
        let fast = [slice(&[10.0; 30], 0, 1.0, 0.3, 1.0)];
        let slow = [slice(&[15.0; 20], 0, 1.0, 0.3, 1.5)];
        let (fast, slow) = (window_metrics(&fast), window_metrics(&slow));
        for (a, b) in fast.iter().zip(&slow) {
            assert!(
                (a.normalised.median - b.normalised.median).abs() < 1e-4 * a.normalised.median,
                "{}: {} vs {}",
                a.name,
                a.normalised.median,
                b.normalised.median
            );
        }
        assert!((slow[1].raw.median - 15.0).abs() < 1e-4);
        assert_eq!(
            median_slowdown(&[slice(&[1.0], 0, 1.0, 0.1, 1.5)]).median,
            1.5
        );
    }
}
