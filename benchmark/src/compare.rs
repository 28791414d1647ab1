//! `compare A.json B.json`: one row per (workload, end-to-end metric) with
//! both medians, both slice IQRs and a verdict. The single checker for "did
//! this change move anything": B is judged against A with the bound each
//! metric fixed in [`crate::spec`].

use std::fmt::Write;

use crate::report::{MetricValue, RunFile};
use crate::spec::{Better, EndToEnd, END_TO_END};

/// What happened to one metric on one workload between two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound and the spread.
    Better,
    /// B is within the bound of A, and the spread is tight enough to say so.
    Same,
    /// B is worse than A by more than the bound and the spread.
    Worse,
    /// The run-to-run spread is wider than the bound and the difference
    /// does not clear it: neither "same" nor "moved" can be claimed.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for the table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a` for one metric.
///
/// `worsening` is the change as a share of A's median, signed so that
/// positive is worse. `spread` is the wider of the two IQRs as a share of
/// its own median. A change counts only when it clears both the metric's
/// bound and the spread.
pub fn judge(metric: &EndToEnd, a: &MetricValue, b: &MetricValue) -> Verdict {
    if a.value == b.value {
        return Verdict::Same;
    }
    let direction = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worsening = direction * (b.value - a.value) / a.value.abs();
    let spread = (a.iqr / a.value.abs()).max(b.iqr / b.value.abs());
    if worsening.abs() > metric.bound.max(spread) {
        if worsening > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        }
    } else if spread > metric.bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// Why two run files cannot be compared, if they cannot.
pub fn incomparable(a: &RunFile, b: &RunFile) -> Option<String> {
    let (ha, hb) = (&a.header, &b.header);
    if ha.cores != hb.cores {
        return Some(format!("cores differ: {} vs {}", ha.cores, hb.cores));
    }
    if ha.clients != hb.clients {
        return Some(format!("clients differ: {} vs {}", ha.clients, hb.clients));
    }
    if ha.simd_tier != hb.simd_tier {
        return Some(format!(
            "simd_tier differs: {} vs {}",
            ha.simd_tier, hb.simd_tier
        ));
    }
    if ha.trace || hb.trace {
        return Some("trace-mode files carry no end-to-end metrics".to_string());
    }
    None
}

/// The comparison table and whether any row is `worse`.
pub fn compare(a: &RunFile, b: &RunFile) -> (String, bool) {
    let mut table = String::new();
    let mut any_worse = false;
    writeln!(
        table,
        "{:<16} {:<16} {:>12} {:>10} {:>12} {:>10} {:>8}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "change"
    )
    .expect("writing to a String");
    for report_a in &a.workloads {
        let Some(report_b) = b.workloads.iter().find(|w| w.workload == report_a.workload) else {
            continue;
        };
        for metric in &END_TO_END {
            let (Some(ma), Some(mb)) = (report_a.metric(metric.name), report_b.metric(metric.name))
            else {
                continue;
            };
            let verdict = judge(metric, ma, mb);
            any_worse |= verdict == Verdict::Worse;
            writeln!(
                table,
                "{:<16} {:<16} {:>12.4} {:>10.4} {:>12.4} {:>10.4} {:>+7.1}%  {}",
                report_a.workload,
                metric.name,
                ma.value,
                ma.iqr,
                mb.value,
                mb.iqr,
                (mb.value - ma.value) / ma.value.abs() * 100.0,
                verdict.label()
            )
            .expect("writing to a String");
        }
        if !report_a.correct() || !report_b.correct() {
            any_worse = true;
            writeln!(
                table,
                "{:<16} outputs incorrect (A failed {}, B failed {})",
                report_a.workload, report_a.failed, report_b.failed
            )
            .expect("writing to a String");
        }
    }
    (table, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Header, WorkloadReport};
    use crate::stats::Summary;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn value(median: f64, iqr: f64) -> MetricValue {
        MetricValue::new(
            "x",
            "ms",
            Summary {
                median,
                iqr,
                samples: 100,
            },
        )
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // latency_p50_ms: lower is better; every bound is 25 %.
        let p50 = metric("latency_p50_ms");
        assert_eq!(
            judge(p50, &value(10.0, 0.2), &value(11.5, 0.2)),
            Verdict::Same
        );
        assert_eq!(
            judge(p50, &value(10.0, 0.2), &value(13.0, 0.2)),
            Verdict::Worse
        );
        assert_eq!(
            judge(p50, &value(10.0, 0.2), &value(7.0, 0.2)),
            Verdict::Better
        );
        // throughput_rps: higher is better.
        let rps = metric("throughput_rps");
        assert_eq!(
            judge(rps, &value(200.0, 4.0), &value(140.0, 4.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(rps, &value(200.0, 4.0), &value(260.0, 4.0)),
            Verdict::Better
        );
        assert_eq!(
            judge(rps, &value(200.0, 4.0), &value(170.0, 4.0)),
            Verdict::Same
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_change_clears_it() {
        let p50 = metric("latency_p50_ms");
        // IQR is 40 % of the median: a 10 % or 30 % move proves nothing.
        assert_eq!(
            judge(p50, &value(10.0, 4.0), &value(11.0, 4.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(p50, &value(10.0, 4.0), &value(13.0, 0.1)),
            Verdict::Unresolved
        );
        // A 2x move clears even that spread.
        assert_eq!(
            judge(p50, &value(10.0, 4.0), &value(20.0, 4.0)),
            Verdict::Worse
        );
        // Bit-identical values are the same whatever the spread.
        assert_eq!(
            judge(p50, &value(10.0, 9.0), &value(10.0, 9.0)),
            Verdict::Same
        );
    }

    fn run_file(cores: u64, tier: &str, p50: f64) -> RunFile {
        let mut latency = value(p50, 0.1);
        latency.name = "latency_p50_ms".to_string();
        RunFile {
            header: Header {
                cores,
                clients: 2,
                simd_tier: tier.to_string(),
                seed: 1,
                seconds: 20,
                trace: false,
                stack: String::new(),
            },
            workloads: vec![WorkloadReport {
                workload: "native_blocking".to_string(),
                attempted: 10,
                metrics: vec![latency],
                ..WorkloadReport::default()
            }],
        }
    }

    #[test]
    fn files_from_different_hosts_are_refused() {
        let a = run_file(2, "avx512", 10.0);
        assert!(incomparable(&a, &run_file(2, "avx512", 11.0)).is_none());
        assert!(incomparable(&a, &run_file(4, "avx512", 10.0))
            .unwrap()
            .contains("cores"));
        assert!(incomparable(&a, &run_file(2, "avx2", 10.0))
            .unwrap()
            .contains("simd_tier"));
    }

    #[test]
    fn the_table_has_a_row_per_shared_metric_and_flags_regressions() {
        let (table, worse) = compare(&run_file(2, "avx512", 10.0), &run_file(2, "avx512", 10.2));
        assert!(!worse);
        assert!(table.contains("native_blocking"));
        assert!(table.contains("latency_p50_ms"));
        assert!(table.contains("same"));
        let (table, worse) = compare(&run_file(2, "avx512", 10.0), &run_file(2, "avx512", 14.0));
        assert!(worse);
        assert!(table.contains("worse"));
    }
}
