//! An always-on sampling wall-clock profiler for domain workers.
//!
//! Each domain worker thread publishes its *current stage* to one
//! [`StageSlot`] — a single atomic byte, so publishing costs one relaxed
//! store and can run on every transition of the hot loop. A background
//! sampler sweeps the slots at a fixed period and attributes the period to
//! whatever stage each thread was in, accumulating self-time per
//! `engine × thread-kind × stage`. The result is a collapsed-stack-style
//! breakdown ("native workers are 83% engine_execute, simulator workers
//! are 96% idle") with zero instrumentation on the execute path beyond
//! the atomic stores.
//!
//! Sampling error behaves like any wall-clock profiler: stages shorter
//! than the sampling period are seen probabilistically, but their expected
//! share converges on their true share of wall-clock time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// The stages a domain thread publishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum WorkerStage {
    /// Blocked waiting for work.
    Idle = 0,
    /// Closing due batches and taking one, under the domain lock.
    BatchFormation = 1,
    /// Executing a batch on the engine.
    EngineExecute = 2,
    /// Sleeping out a retry backoff.
    RetryBackoff = 3,
    /// Resolving tickets back to waiting clients.
    ResponseFanout = 4,
}

impl WorkerStage {
    /// Stable label used on metrics and in profile JSON.
    pub fn label(self) -> &'static str {
        match self {
            WorkerStage::Idle => "idle",
            WorkerStage::BatchFormation => "batch_formation",
            WorkerStage::EngineExecute => "engine_execute",
            WorkerStage::RetryBackoff => "retry_backoff",
            WorkerStage::ResponseFanout => "response_fanout",
        }
    }

    /// Every stage (the metric label universe).
    pub fn all() -> [WorkerStage; 5] {
        [
            WorkerStage::Idle,
            WorkerStage::BatchFormation,
            WorkerStage::EngineExecute,
            WorkerStage::RetryBackoff,
            WorkerStage::ResponseFanout,
        ]
    }

    fn from_u8(value: u8) -> WorkerStage {
        match value {
            1 => WorkerStage::BatchFormation,
            2 => WorkerStage::EngineExecute,
            3 => WorkerStage::RetryBackoff,
            4 => WorkerStage::ResponseFanout,
            _ => WorkerStage::Idle,
        }
    }
}

/// One thread's published stage: a single atomic byte.
#[derive(Debug, Default)]
pub struct StageSlot {
    stage: AtomicU8,
}

impl StageSlot {
    /// Publishes the thread's current stage (one relaxed store).
    pub fn set(&self, stage: WorkerStage) {
        self.stage.store(stage as u8, Ordering::Relaxed);
    }

    /// The stage last published.
    pub fn get(&self) -> WorkerStage {
        WorkerStage::from_u8(self.stage.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct SlotEntry {
    engine: String,
    kind: &'static str,
    slot: Arc<StageSlot>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    samples: u64,
    seconds: f64,
}

/// The profiler: registered stage slots plus accumulated self-time.
#[derive(Debug, Default)]
pub struct WorkerProfiler {
    slots: Mutex<Vec<SlotEntry>>,
    tallies: Mutex<BTreeMap<(String, &'static str, &'static str), Tally>>,
}

impl WorkerProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one thread's stage slot, starting Idle. `kind` separates
    /// thread roles under one engine (the runtime registers `"worker"`), so
    /// an idle thread of another role can't dilute the workers' execute
    /// share.
    pub fn register(&self, engine: &str, kind: &'static str) -> Arc<StageSlot> {
        let slot = Arc::new(StageSlot::default());
        self.slots
            .lock()
            .expect("profiler slots lock")
            .push(SlotEntry {
                engine: engine.to_string(),
                kind,
                slot: Arc::clone(&slot),
            });
        slot
    }

    /// One sampler sweep: attributes `period_seconds` to every registered
    /// thread's current stage.
    pub fn sample(&self, period_seconds: f64) {
        if period_seconds <= 0.0 || !period_seconds.is_finite() {
            return;
        }
        let slots = self.slots.lock().expect("profiler slots lock");
        let mut tallies = self.tallies.lock().expect("profiler tallies lock");
        for entry in slots.iter() {
            let stage = entry.slot.get().label();
            let tally = tallies
                .entry((entry.engine.clone(), entry.kind, stage))
                .or_default();
            tally.samples += 1;
            tally.seconds += period_seconds;
        }
    }

    /// Clears accumulated tallies (registered slots survive). Lets tests
    /// and benches measure a bounded interval of an always-on profiler.
    pub fn reset(&self) {
        self.tallies.lock().expect("profiler tallies lock").clear();
    }

    /// A point-in-time aggregation of everything sampled so far.
    pub fn report(&self) -> ProfileReport {
        let tallies = self.tallies.lock().expect("profiler tallies lock");
        let mut entries: Vec<ProfileEntry> = Vec::with_capacity(tallies.len());
        let mut group_totals: BTreeMap<(String, &'static str), f64> = BTreeMap::new();
        for ((engine, kind, _), tally) in tallies.iter() {
            *group_totals.entry((engine.clone(), kind)).or_default() += tally.seconds;
        }
        let mut total_samples = 0;
        let mut total_seconds = 0.0;
        for ((engine, kind, stage), tally) in tallies.iter() {
            let group_seconds = group_totals
                .get(&(engine.clone(), *kind))
                .copied()
                .unwrap_or(0.0);
            entries.push(ProfileEntry {
                engine: engine.clone(),
                kind,
                stage,
                samples: tally.samples,
                seconds: tally.seconds,
                fraction: if group_seconds > 0.0 {
                    tally.seconds / group_seconds
                } else {
                    0.0
                },
            });
            total_samples += tally.samples;
            total_seconds += tally.seconds;
        }
        ProfileReport {
            total_samples,
            total_seconds,
            entries,
        }
    }

    /// Renders the `bishop_profile_seconds_total` counter family.
    pub fn render_into(&self, out: &mut String) {
        let report = self.report();
        if report.entries.is_empty() {
            return;
        }
        out.push_str(
            "# HELP bishop_profile_seconds_total Sampled wall-clock self-time per domain \
             thread stage.\n\
             # TYPE bishop_profile_seconds_total counter\n",
        );
        for entry in &report.entries {
            out.push_str(&format!(
                "bishop_profile_seconds_total{{engine=\"{}\",kind=\"{}\",stage=\"{}\"}} {}\n",
                entry.engine, entry.kind, entry.stage, entry.seconds
            ));
        }
    }
}

/// One `engine × kind × stage` row of a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// Engine the thread serves (`"none"` in the engine-less domain an
    /// empty registry gets).
    pub engine: String,
    /// Thread role (`"worker"` for the runtime's domain workers).
    pub kind: &'static str,
    /// Stage label.
    pub stage: &'static str,
    /// Sampler sweeps that saw the stage.
    pub samples: u64,
    /// Attributed wall-clock seconds.
    pub seconds: f64,
    /// Share of the `engine × kind` group's total sampled time, `[0, 1]`.
    pub fraction: f64,
}

/// The aggregated profile: totals plus per-stage rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Total samples across all threads.
    pub total_samples: u64,
    /// Total attributed seconds across all threads.
    pub total_seconds: f64,
    /// Rows, sorted by engine, kind, stage.
    pub entries: Vec<ProfileEntry>,
}

impl ProfileReport {
    /// The share of an `engine × kind` group's sampled time spent in
    /// `stage` (0 when the group was never sampled).
    pub fn fraction(&self, engine: &str, kind: &str, stage: &str) -> f64 {
        self.entries
            .iter()
            .find(|e| e.engine == engine && e.kind == kind && e.stage == stage)
            .map(|e| e.fraction)
            .unwrap_or(0.0)
    }

    /// Collapsed-stack lines (`engine/kind;stage samples`), the format
    /// flame-graph tooling ingests.
    pub fn collapsed(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| format!("{}/{};{} {}", e.engine, e.kind, e.stage, e.samples))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_attributes_self_time_per_engine_kind_and_stage() {
        let profiler = WorkerProfiler::new();
        let worker = profiler.register("native", "worker");
        let other = profiler.register("native", "other");

        worker.set(WorkerStage::EngineExecute);
        for _ in 0..9 {
            profiler.sample(0.01);
        }
        worker.set(WorkerStage::ResponseFanout);
        profiler.sample(0.01);

        let report = profiler.report();
        assert_eq!(report.total_samples, 20); // 2 slots × 10 sweeps
        assert!((report.total_seconds - 0.2).abs() < 1e-9);
        assert!((report.fraction("native", "worker", "engine_execute") - 0.9).abs() < 1e-9);
        assert!((report.fraction("native", "worker", "response_fanout") - 0.1).abs() < 1e-9);
        // The other role never left Idle and doesn't dilute the worker rows.
        assert_eq!(report.fraction("native", "other", "idle"), 1.0);
        assert_eq!(other.get(), WorkerStage::Idle);

        let collapsed = report.collapsed();
        assert!(collapsed.contains(&"native/worker;engine_execute 9".to_string()));
        assert!(collapsed.contains(&"native/other;idle 10".to_string()));
    }

    #[test]
    fn reset_clears_tallies_but_keeps_slots() {
        let profiler = WorkerProfiler::new();
        let slot = profiler.register("simulator", "worker");
        slot.set(WorkerStage::EngineExecute);
        profiler.sample(0.01);
        assert_eq!(profiler.report().total_samples, 1);
        profiler.reset();
        assert_eq!(profiler.report().total_samples, 0);
        profiler.sample(0.01);
        assert_eq!(profiler.report().total_samples, 1);
    }

    #[test]
    fn render_emits_one_counter_family() {
        let profiler = WorkerProfiler::new();
        profiler.register("simulator", "worker");
        // Empty: renders nothing, not an empty family header.
        let mut out = String::new();
        profiler.render_into(&mut out);
        assert!(out.is_empty());
        profiler.sample(0.25);
        profiler.render_into(&mut out);
        assert_eq!(
            out.matches("# TYPE bishop_profile_seconds_total counter")
                .count(),
            1
        );
        assert!(out.contains(
            "bishop_profile_seconds_total{engine=\"simulator\",kind=\"worker\",stage=\"idle\"} 0.25"
        ));
    }

    #[test]
    fn stage_labels_and_roundtrip_are_stable() {
        for stage in WorkerStage::all() {
            assert_eq!(WorkerStage::from_u8(stage as u8), stage);
        }
        let labels: Vec<&str> = WorkerStage::all().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            [
                "idle",
                "batch_formation",
                "engine_execute",
                "retry_backoff",
                "response_fanout"
            ]
        );
        // Unknown bytes degrade to Idle instead of panicking.
        assert_eq!(WorkerStage::from_u8(200), WorkerStage::Idle);
    }
}
