//! What a run produces: per-workload reports, the run file `compare` reads,
//! and the one-line result the benchmark driver reads.

use std::io;

use bishop_gateway::Json;

use crate::stats::Summary;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// Metric name (see [`crate::spec`]).
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The value: a slice median, a repetition median, or an exact count.
    pub value: f64,
    /// Inter-quartile range of the values behind the median (0 when exact).
    pub iqr: f64,
    /// Raw samples behind the value.
    pub samples: usize,
}

impl MetricValue {
    /// A metric from its summary.
    pub fn new(name: &str, unit: &str, summary: Summary) -> Self {
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            value: summary.median,
            iqr: summary.iqr,
            samples: summary.samples,
        }
    }
}

/// Everything one workload's child process measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// HTTP requests sent (golden check + warm-up + windows + probe).
    pub attempted: u64,
    /// Non-200 answers, I/O errors and golden mismatches.
    pub failed: u64,
    /// Golden requests compared against the in-process reference.
    pub golden_checked: u64,
    /// Description of each golden mismatch or request failure.
    pub errors: Vec<String>,
    /// Failed reconciliation checks (trace mode).
    pub violations: Vec<String>,
    /// Reconciliation lines for the terminal (trace mode).
    pub notes: Vec<String>,
    /// The metrics, in report order. Host-time end-to-end metrics are
    /// host-normalised (see [`crate::calibrate`]).
    pub metrics: Vec<MetricValue>,
    /// The same end-to-end metrics as measured, plus the host slowdown they
    /// were divided by. For the reader; never compared.
    pub raw: Vec<MetricValue>,
}

impl WorkloadReport {
    /// Whether every output was correct and the ledger reconciled.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.violations.is_empty()
    }

    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Full JSON form (child → parent, and inside run files).
    pub fn to_json(&self) -> Json {
        let strings = |items: &[String]| Json::Array(items.iter().map(Json::string).collect());
        let metrics = |items: &[MetricValue]| {
            Json::Array(
                items
                    .iter()
                    .map(|m| {
                        Json::object(vec![
                            ("name", Json::string(&m.name)),
                            ("unit", Json::string(&m.unit)),
                            ("value", Json::Number(m.value)),
                            ("iqr", Json::Number(m.iqr)),
                            ("samples", Json::from_u64(m.samples as u64)),
                        ])
                    })
                    .collect(),
            )
        };
        Json::object(vec![
            ("workload", Json::string(&self.workload)),
            ("attempted", Json::from_u64(self.attempted)),
            ("failed", Json::from_u64(self.failed)),
            ("golden_checked", Json::from_u64(self.golden_checked)),
            ("errors", strings(&self.errors)),
            ("violations", strings(&self.violations)),
            ("notes", strings(&self.notes)),
            ("metrics", metrics(&self.metrics)),
            ("raw", metrics(&self.raw)),
        ])
    }

    /// Inverse of [`to_json`](Self::to_json).
    pub fn from_json(json: &Json) -> io::Result<Self> {
        let strings = |key: &str| -> io::Result<Vec<String>> {
            array(json, key)?
                .iter()
                .map(|item| {
                    item.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| missing(key))
                })
                .collect()
        };
        let metrics = |key: &str| -> io::Result<Vec<MetricValue>> {
            array(json, key)?
                .iter()
                .map(|m| {
                    Ok(MetricValue {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        value: number(m, "value")?,
                        iqr: number(m, "iqr")?,
                        samples: whole(m, "samples")? as usize,
                    })
                })
                .collect()
        };
        Ok(Self {
            workload: text(json, "workload")?,
            attempted: whole(json, "attempted")?,
            failed: whole(json, "failed")?,
            golden_checked: whole(json, "golden_checked")?,
            errors: strings("errors")?,
            violations: strings("violations")?,
            notes: strings("notes")?,
            metrics: metrics("metrics")?,
            raw: metrics("raw")?,
        })
    }

    /// The single line the benchmark driver parses: exactly `correct`,
    /// `attempted`, `failed` and `metrics` (`name → {value, unit}`).
    pub fn driver_line(&self) -> String {
        Json::object(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from_u64(self.attempted.max(1))),
            ("failed", Json::from_u64(self.failed)),
            (
                "metrics",
                Json::Object(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::object(vec![
                                    ("value", Json::Number(m.value)),
                                    ("unit", Json::string(&m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .encode()
    }
}

/// The host and configuration a set of numbers was measured on. Numbers
/// from different hosts are never compared blind.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// `std::thread::available_parallelism`.
    pub cores: u64,
    /// Closed-loop client connections.
    pub clients: u64,
    /// The SIMD kernel tier the process resolved to.
    pub simd_tier: String,
    /// `--seed`.
    pub seed: u64,
    /// Measured seconds per workload.
    pub seconds: u64,
    /// Whether these are trace-mode (per-layer) numbers.
    pub trace: bool,
    /// The stack configuration under test.
    pub stack: String,
}

/// A complete `run` or `trace` result: header plus one report per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFile {
    /// Where and how the numbers were measured.
    pub header: Header,
    /// One report per workload.
    pub workloads: Vec<WorkloadReport>,
}

impl RunFile {
    /// JSON form.
    pub fn to_json(&self) -> Json {
        let h = &self.header;
        Json::object(vec![
            ("cores", Json::from_u64(h.cores)),
            ("clients", Json::from_u64(h.clients)),
            ("simd_tier", Json::string(&h.simd_tier)),
            ("seed", Json::from_u64(h.seed)),
            ("seconds", Json::from_u64(h.seconds)),
            ("trace", Json::Bool(h.trace)),
            ("stack", Json::string(&h.stack)),
            (
                "workloads",
                Json::Array(self.workloads.iter().map(WorkloadReport::to_json).collect()),
            ),
        ])
    }

    /// Parses a run file's text.
    pub fn parse(source: &str) -> io::Result<Self> {
        let json = Json::parse(source).map_err(|e| invalid(e.to_string()))?;
        Ok(Self {
            header: Header {
                cores: whole(&json, "cores")?,
                clients: whole(&json, "clients")?,
                simd_tier: text(&json, "simd_tier")?,
                seed: whole(&json, "seed")?,
                seconds: whole(&json, "seconds")?,
                trace: json
                    .get("trace")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| missing("trace"))?,
                stack: text(&json, "stack")?,
            },
            workloads: array(&json, "workloads")?
                .iter()
                .map(WorkloadReport::from_json)
                .collect::<io::Result<_>>()?,
        })
    }
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn missing(key: &str) -> io::Error {
    invalid(format!("missing or mistyped field \"{key}\""))
}

fn text(json: &Json, key: &str) -> io::Result<String> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| missing(key))
}

fn number(json: &Json, key: &str) -> io::Result<f64> {
    // Non-finite values are encoded as null; read them back as NaN.
    match json.get(key) {
        Some(Json::Number(n)) => Ok(*n),
        Some(Json::Null) => Ok(f64::NAN),
        _ => Err(missing(key)),
    }
}

fn whole(json: &Json, key: &str) -> io::Result<u64> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| missing(key))
}

fn array<'a>(json: &'a Json, key: &str) -> io::Result<&'a [Json]> {
    match json.get(key) {
        Some(Json::Array(items)) => Ok(items),
        _ => Err(missing(key)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadReport {
        WorkloadReport {
            workload: "sim_replay".to_string(),
            attempted: 1234,
            failed: 0,
            golden_checked: 8,
            errors: vec![],
            violations: vec![],
            notes: vec!["Σ stages 0.75 of client latency".to_string()],
            metrics: vec![
                MetricValue::new(
                    "latency_p50_ms",
                    "ms",
                    Summary {
                        median: 0.10234567,
                        iqr: 0.004,
                        samples: 150_000,
                    },
                ),
                MetricValue::new("peak_rss_mb", "MiB", Summary::exact(41.5)),
            ],
            raw: vec![MetricValue::new(
                "host_slowdown",
                "ratio",
                Summary::exact(1.2),
            )],
        }
    }

    #[test]
    fn reports_survive_a_json_round_trip() {
        let report = sample();
        let text = report.to_json().encode();
        let back = WorkloadReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        let file = RunFile {
            header: Header {
                cores: 2,
                clients: 2,
                simd_tier: "avx512".to_string(),
                seed: 0xB15B0B,
                seconds: 20,
                trace: false,
                stack: "stack".to_string(),
            },
            workloads: vec![report],
        };
        assert_eq!(RunFile::parse(&file.to_json().encode()).unwrap(), file);
        assert!(RunFile::parse("{\"cores\": 2}").is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = sample().driver_line();
        let json = Json::parse(&line).unwrap();
        let Json::Object(fields) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        let p50 = json.get("metrics").unwrap().get("latency_p50_ms").unwrap();
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(0.10234567));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
        let Json::Object(metric_fields) = p50 else {
            panic!("not an object")
        };
        assert_eq!(metric_fields.len(), 2);
        assert!(!line.contains('\n'));
    }

    #[test]
    fn any_failure_or_violation_makes_the_run_incorrect() {
        let mut report = sample();
        assert!(report.correct());
        report.violations.push("stage sum 1.2 > 1.05".to_string());
        assert!(!report.correct());
        let mut report = sample();
        report.failed = 1;
        assert!(!report.correct());
    }
}
