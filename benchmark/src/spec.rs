//! The benchmark's contract in one place: workload names, the fixed stack
//! configuration, run shape, and every metric's name, unit and direction.
//! `BENCHMARK.json` at the repository root repeats these tables; the test
//! at the bottom holds the two equal.

use std::time::Duration;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0xB15B0B;
/// Runtime workers (`RuntimeConfig::new(WORKERS, ..)`).
pub const WORKERS: usize = 2;
/// Batch cap. Equal to the client count on purpose: with a cap of 8 and 2
/// closed-loop clients a batch never fills, every batch closes on the
/// timeout, and `sim_replay` measures a 1 ms sleep instead of the wire path.
pub const BATCH_CAP: usize = 2;
/// Batch-close timeout.
pub const BATCH_TIMEOUT: Duration = Duration::from_millis(1);
/// Admission queue bound (never reached by 2 closed-loop clients).
pub const MAX_PENDING: usize = 4096;
/// Native intra-batch compute lanes.
pub const NATIVE_COMPUTE_WORKERS: usize = 1;
/// Closed-loop keep-alive connections (`min(MAX_CLIENTS, nproc)`).
pub const MAX_CLIENTS: usize = 2;
/// Unmeasured seconds of the workload's own traffic before the window.
pub const WARMUP_SECONDS: f64 = 2.0;
/// Equal slices the measured window is cut into.
pub const SLICES: usize = 10;
/// Fresh-process boots behind `setup_s` (the median is reported).
pub const SETUP_REPEATS: usize = 5;
/// Fixed-seed singleton requests checked against an in-process reference.
pub const GOLDEN_REQUESTS: usize = 8;
/// Generated requests the in-process layer walk replays.
pub const WALK_REQUESTS: usize = 64;
/// Iterations of the single-client stream probe in trace mode.
pub const PROBE_ITERATIONS: usize = 32;
/// Distinct seeds `sim_replay` cycles over.
pub const REPLAY_SEEDS: usize = 4;
/// The model every native workload and the layer walk run.
pub const NATIVE_MODEL: &str = "cifar10-serve";
/// The second catalog model `sim_cold` alternates with (BSA + ECP θp=6).
pub const ECP_MODEL: &str = "imagenet100-serve";

/// One line describing the stack under test, recorded in every report.
pub fn stack_description() -> String {
    format!(
        "OnlineServer(workers={WORKERS}, batch_cap={BATCH_CAP}, batch_timeout={}ms, \
         max_pending={MAX_PENDING}, native_compute_workers={NATIVE_COMPUTE_WORKERS}) + \
         Gateway(default config, default catalog) on 127.0.0.1:0",
        BATCH_TIMEOUT.as_millis()
    )
}

/// The four traffic mixes. Names are the contract later issues cite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Blocking native inference, unique seed per request.
    NativeBlocking,
    /// Simulator requests cycling over a few seeds (result-cache hits).
    SimReplay,
    /// Simulator requests with unique seeds over two models (cache misses).
    SimCold,
    /// Streamed and session-split native inference.
    NativeStream,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::NativeBlocking,
        Workload::SimReplay,
        Workload::SimCold,
        Workload::NativeStream,
    ];

    /// The contract name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NativeBlocking => "native_blocking",
            Workload::SimReplay => "sim_replay",
            Workload::SimCold => "sim_cold",
            Workload::NativeStream => "native_stream",
        }
    }

    /// Parses a contract name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` line of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::NativeBlocking => {
                "unique-seed blocking native requests: engine_execute is ~97% of latency, so \
                 model/spiketensor/neuron/engine.native changes land here, gateway/runtime must not"
            }
            Workload::SimReplay => {
                "simulator requests cycling over 4 seeds: ResultCache hits, so the gateway wire \
                 path, runtime admission/batching and obs cost are the work; kernels must not show"
            }
            Workload::SimCold => {
                "unique-seed simulator requests over 2 models: both caches miss and overrun, so \
                 trace synthesis and core simulation dominate; the miss path beside sim_replay's hit"
            }
            Workload::NativeStream => {
                "streamed and session-split native requests: TransformerStepper, session store, \
                 chunked NDJSON writer and exclusive batches; the second forward path"
            }
        }
    }

    /// The engine the workload's `/v1/infer` requests name (the `engine`
    /// label its stage histograms carry).
    pub fn engine(self) -> &'static str {
        match self {
            Workload::NativeBlocking | Workload::NativeStream => "native",
            Workload::SimReplay | Workload::SimCold => "simulator",
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a caller of the service sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, each defined (and never 0) on every workload.
///
/// Every bound is the contract's ceiling of 25 %: on the reference host the
/// host-normalised run-to-run spread is 2–7 % in calm hours and 5–12 % when
/// the hypervisor is busy (README.md, "Measured run-to-run spread"). The
/// tail, `client.latency_p95_ms`, is a per-layer metric without a bound: the
/// slowest twentieth of a window is the share of it the host ran slow.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ttfe_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_kreq",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric (trace mode; no bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    /// Metric name, prefixed with the crate/module it measures.
    pub name: &'static str,
    /// Unit. `us_sim` is time on the simulated chip's clock, not the host's.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer ledger, in printing order. Layers are this repository's
/// crates and modules.
pub const PER_LAYER: [Layer; 75] = [
    // the client's side of the socket: the tail the end-to-end list cannot bound
    lower("client.latency_p95_ms", "ms"),
    // gateway
    lower("gateway.http.parse_us", "us"),
    lower("gateway.http.write_us", "us"),
    lower("gateway.json.parse_us", "us"),
    lower("gateway.json.encode_us", "us"),
    lower("gateway.api.decode_us", "us"),
    lower("gateway.wire_us", "us"),
    lower("gateway.stream.chunk_us", "us"),
    lower("gateway.stream.ttfe_us", "us"),
    lower("gateway.stream.event_gap_us", "us"),
    lower("gateway.stream.resume_us", "us"),
    // the server's own stage clock
    lower("stage.parse_us", "us"),
    lower("stage.admission_us", "us"),
    lower("stage.queue_wait_us", "us"),
    lower("stage.batch_formation_us", "us"),
    lower("stage.engine_execute_us", "us"),
    lower("stage.response_write_us", "us"),
    higher("stage.sum_over_latency", "ratio"),
    higher("stage.execute_share", "ratio"),
    // runtime
    lower("runtime.submit_us", "us"),
    lower("runtime.ticket_roundtrip_us", "us"),
    higher("runtime.batch.mean_size", "count"),
    lower("runtime.shed_share", "ratio"),
    // engine
    lower("engine.native.execute_us", "us"),
    lower("engine.native.execute_x2_us", "us"),
    lower("engine.native.model_build_ms", "ms"),
    lower("engine.native.stream_step_us", "us"),
    lower("engine.native.stream_overhead_pct", "%"),
    lower("engine.sim.execute_cold_us", "us"),
    lower("engine.sim.execute_warm_us", "us"),
    lower("engine.sim.workload_build_us", "us"),
    higher("engine.cache.result_hit_rate", "ratio"),
    higher("engine.cache.workload_hit_rate", "ratio"),
    // model (the paper's Fig. 11 split)
    lower("model.tokenizer_us", "us"),
    lower("model.block0.P1_us", "us"),
    lower("model.block0.ATN_us", "us"),
    lower("model.block0.P2_us", "us"),
    lower("model.block0.MLP_us", "us"),
    lower("model.block1.P1_us", "us"),
    lower("model.block1.ATN_us", "us"),
    lower("model.block1.P2_us", "us"),
    lower("model.block1.MLP_us", "us"),
    lower("model.readout_us", "us"),
    lower("model.infer_us", "us"),
    lower("model.infer_unattributed_pct", "%"),
    lower("model.stepper.step_us", "us"),
    lower("model.stepper.vs_fused_ratio", "ratio"),
    higher("model.pool.speedup_w2", "ratio"),
    lower("model.block0.in_density", "ratio"),
    lower("model.block1.in_density", "ratio"),
    // neuron
    lower("neuron.lif_step_ns_per_unit", "ns"),
    // spiketensor
    lower("spiketensor.and_popcount_ns", "ns"),
    lower("spiketensor.and_popcount_words", "count"),
    lower("spiketensor.masked_add_ns", "ns"),
    lower("spiketensor.masked_add_bytes", "bytes"),
    lower("spiketensor.generate_us", "us"),
    // bundle
    lower("bundle.ttb_tags_us", "us"),
    lower("bundle.stratify_us", "us"),
    lower("bundle.ecp_apply_us", "us"),
    lower("bundle.active_bundle_share", "ratio"),
    lower("bundle.dense_work_share", "ratio"),
    lower("bundle.ecp_q_retention", "ratio"),
    lower("bundle.ecp_k_retention", "ratio"),
    // core
    lower("core.simulate_us", "us"),
    lower("core.simulate_us_per_layer", "us"),
    lower("core.sim.P1_cycles", "cycles"),
    lower("core.sim.ATN_cycles", "cycles"),
    lower("core.sim.P2_cycles", "cycles"),
    lower("core.sim.MLP_cycles", "cycles"),
    lower("core.sim.dram_bytes", "bytes"),
    lower("core.sim.latency_us", "us_sim"),
    lower("core.sim.energy_uj", "uJ"),
    // session
    lower("session.begin_complete_us", "us"),
    // obs
    lower("obs.trace_overhead_pct", "%"),
    // the host itself (see calibrate.rs): per-layer times are as measured
    lower("host.slowdown", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_gateway::Json;

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
            assert!(workload.why().len() <= 200, "{}", workload.name());
            assert!(!workload.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate metric name");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` must say exactly what this file says.
    #[test]
    fn benchmark_json_matches_the_compiled_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("valid JSON");
        let list = |key: &str| match json.get(key) {
            Some(Json::Array(items)) => items.clone(),
            other => panic!("{key} must be an array, got {other:?}"),
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("missing {key}"))
                .to_string()
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (item, workload) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text_of(item, "name"), workload.name());
            assert_eq!(text_of(item, "why"), workload.why());
        }

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (item, metric) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(text_of(item, "name"), metric.name);
            assert_eq!(text_of(item, "unit"), metric.unit);
            assert_eq!(text_of(item, "better"), metric.better.label());
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(metric.bound));
        }

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (item, metric) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text_of(item, "name"), metric.name);
            assert_eq!(text_of(item, "unit"), metric.unit);
            assert_eq!(text_of(item, "better"), metric.better.label());
        }
        assert_eq!(list("paths"), vec![Json::string("benchmark")]);
    }
}
