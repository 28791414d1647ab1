//! The in-process layer walk: for a set of generated requests the benchmark
//! performs the request's journey itself — wire bytes → parse → decode →
//! submit → execute → encode → write — one timed span per public call into
//! each crate, so every layer of the stack gets a number without a single
//! probe inside the program.
//!
//! The model walk reproduces the paper's Fig. 11 split (P1 / ATN / P2 / MLP
//! per encoder block): one untimed `EncoderBlock::forward` captures the real
//! intermediate activations, then each public sub-call is timed on them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bishop_bundle::{ecp, EcpConfig, Stratifier, TtbTags};
use bishop_core::{BishopConfig, BishopSimulator};
use bishop_engine::{
    EngineBatch, EngineName, EngineRegistry, InferenceEngine, ModelCatalog, NativeEngine,
    NativeEngineConfig, SimulatorEngine, StepEvent, StepSink,
};
use bishop_gateway::api::{decode_infer, encode_response};
use bishop_gateway::{Json, Limits, RequestReader, Response};
use bishop_model::{
    select_accumulate, ComputePool, LayerWorkload, SpikingSelfAttention, SpikingTransformer,
    TransformerStepper,
};
use bishop_neuron::{lif_over_time, LifConfig, LifLayer};
use bishop_runtime::{
    CalibrationCache, InferenceRequest, RequestBatch, ResultCache, ServerHandle, SessionState,
    SessionStore, SessionStoreConfig,
};
use bishop_spiketensor::words::simd;
use bishop_spiketensor::{DenseMatrix, SpikeTraceGenerator, TraceProfile};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::client::post;
use crate::seeds::{derive, Lane};
use crate::span::Recorder;
use crate::spec;
use crate::stats::{mean, Summary};

/// Span names of the per-block layer groups, indexed `[block][group]` with
/// groups in P1, ATN, P2, MLP order.
const BLOCK_SPANS: [[&str; 4]; 2] = [
    [
        "model.block0.P1",
        "model.block0.ATN",
        "model.block0.P2",
        "model.block0.MLP",
    ],
    [
        "model.block1.P1",
        "model.block1.ATN",
        "model.block1.P2",
        "model.block1.MLP",
    ],
];
/// Pool-width comparison repetitions (each runs two whole inferences).
const POOL_REPEATS: usize = 16;
/// Calls per timed kernel loop (one call is a few nanoseconds).
const KERNEL_CALLS: usize = 4096;

/// What the walk produced.
pub struct WalkReport {
    /// `(metric name, summary)` for every walk-sourced per-layer metric.
    pub metrics: Vec<(&'static str, Summary)>,
    /// Reconciliation lines for the terminal.
    pub notes: Vec<String>,
    /// Failed reconciliation checks (empty when the ledger adds up).
    pub violations: Vec<String>,
    /// Every span recorded, for the dump.
    pub recorder: Recorder,
}

/// Collects event arrival times of a streaming execution.
struct TimingSink {
    started: Instant,
    at: Vec<f64>,
}

impl StepSink for TimingSink {
    fn on_step(&mut self, _event: &StepEvent) {
        self.at.push(self.started.elapsed().as_secs_f64());
    }
}

fn micros(values: &[f64], samples: usize) -> Summary {
    let scaled: Vec<f64> = values.iter().map(|v| v * 1e6).collect();
    Summary::of(&scaled, samples)
}

/// Runs the walk over `WALK_REQUESTS` requests generated from `run_seed`.
/// `runtime` is a handle into the already-booted stack (the runtime spans
/// go through its real admission → batcher → worker path).
pub fn layer_walk(run_seed: u64, runtime: &ServerHandle) -> WalkReport {
    let mut rec = Recorder::new();
    let mut exact: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut stream_steps_us: Vec<f64> = Vec::new();
    let seeds: Vec<u64> = (0..spec::WALK_REQUESTS as u64)
        .map(|i| derive(run_seed, Lane::Walk, i))
        .collect();

    let catalog = ModelCatalog::serving_default();
    let hardware = BishopConfig::default();
    let bundle = hardware.bundle;
    let native_entry = Arc::clone(catalog.get(spec::NATIVE_MODEL).expect("catalog entry"));
    let ecp_entry = Arc::clone(catalog.get(spec::ECP_MODEL).expect("catalog entry"));
    let config = native_entry.config.clone();
    assert_eq!(config.blocks, BLOCK_SPANS.len(), "ledger names two blocks");

    let singleton = |entry: &Arc<bishop_engine::CatalogEntry>, engine: &str, seed: u64| {
        RequestBatch {
            id: 0,
            requests: vec![InferenceRequest::new(0, Arc::clone(entry), seed)
                .with_engine(EngineName::new(engine))],
        }
        .engine_batch(bundle)
    };

    // The stack's native engine configuration; its first call builds the
    // model's weights.
    let native = NativeEngine::with_config(NativeEngineConfig {
        compute_workers: spec::NATIVE_COMPUTE_WORKERS,
        ..NativeEngineConfig::default()
    });
    let first = Instant::now();
    native
        .execute(&singleton(&native_entry, "native", seeds[0]))
        .expect("native executes the default catalog");
    let first_call = first.elapsed().as_secs_f64();

    // --- model: fused inference, the Fig. 11 layer split, the stepper ----
    let mut weights_rng = StdRng::seed_from_u64(derive(run_seed, Lane::Walk, u64::MAX));
    let model = SpikingTransformer::random(
        &config,
        config.features,
        config.dataset.classes(),
        &mut weights_rng,
    );
    let head_dim = config.features / config.heads;
    for (index, &seed) in seeds.iter().enumerate() {
        rec.set_request(index as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let patches = DenseMatrix::random_uniform(config.tokens, config.features, 1.0, &mut rng);

        let fused = rec.leaf("model.infer", || model.infer(&patches));
        // Back to back with infer(), so host drift hits both alike.
        let batch = singleton(&native_entry, "native", seed);
        rec.leaf("engine.native.execute", || native.execute(&batch))
            .expect("native execute");

        // Capture pass (untimed): real activations for every sub-call.
        let mut inputs = vec![model.tokenizer().tokenize(&patches)];
        let mut captured = Vec::with_capacity(config.blocks);
        for block in model.blocks() {
            let out = block.forward(inputs.last().expect("tokenizer output"));
            inputs.push(out.output.clone());
            captured.push(out);
        }

        let logits = rec.span("model.layers", |rec| {
            rec.leaf("model.tokenizer", || {
                black_box(model.tokenizer().tokenize(&patches))
            });
            for (b, block) in model.blocks().iter().enumerate() {
                let (x, out, ssa) = (&inputs[b], &captured[b], block.ssa());
                rec.leaf(BLOCK_SPANS[b][0], || {
                    black_box((
                        ssa.wq().forward(x),
                        ssa.wk().forward(x),
                        ssa.wv().forward(x),
                    ))
                });
                rec.leaf(BLOCK_SPANS[b][1], || {
                    let scale = 2.0_f32.powi(-(ssa.scale_shift() as i32));
                    let (q, k, v) = (&out.ssa.q, &out.ssa.k, &out.ssa.v);
                    let planes: Vec<DenseMatrix> = (0..config.timesteps)
                        .map(|t| {
                            let mut plane = DenseMatrix::zeros(config.tokens, config.features);
                            for h in 0..config.heads {
                                let (d0, d1) = (h * head_dim, (h + 1) * head_dim);
                                let s = SpikingSelfAttention::attention_scores_in(q, k, t, d0, d1);
                                select_accumulate(&mut plane, &s, scale, v, t, d0, d1);
                            }
                            plane
                        })
                        .collect();
                    black_box(lif_over_time(&planes, ssa.wq().lif_config()))
                });
                rec.leaf(BLOCK_SPANS[b][2], || {
                    black_box(ssa.wo().forward(&out.ssa.o_temp))
                });
                rec.leaf(BLOCK_SPANS[b][3], || {
                    let merged = x.or(&out.ssa.output).expect("same shape");
                    let mlp = block.mlp().forward(&merged);
                    black_box(merged.or(&mlp.output).expect("same shape"))
                });
            }
            rec.leaf("model.readout", || {
                let pooled = SpikingTransformer::pool(&inputs[config.blocks]);
                DenseMatrix::from_rows(&[pooled])
                    .matmul(model.classifier())
                    .row(0)
                    .to_vec()
            })
        });
        assert_eq!(logits, fused.logits, "layer walk diverged from infer()");

        let stepped = rec.span("model.stepper.horizon", |rec| {
            let mut stepper = TransformerStepper::new(&model, &patches);
            for _ in 0..config.timesteps {
                rec.leaf("model.stepper.step", || stepper.step());
            }
            stepper.finish()
        });
        assert_eq!(
            stepped.logits, fused.logits,
            "stepper diverged from infer()"
        );

        for (b, name) in ["model.block0.in_density", "model.block1.in_density"]
            .into_iter()
            .enumerate()
        {
            exact.entry(name).or_default().push(inputs[b].density());
        }

        if index < POOL_REPEATS {
            let narrow = ComputePool::new(1);
            let wide = ComputePool::new(2);
            rec.leaf("model.pool.w1", || {
                black_box(model.infer_with(&patches, &narrow))
            });
            rec.leaf("model.pool.w2", || {
                black_box(model.infer_with(&patches, &wide))
            });
        }
    }

    // --- engine.native: folded x2 and streamed (fused runs beside infer) ---
    let folded = |a: u64, b: u64| {
        RequestBatch {
            id: 0,
            requests: [a, b]
                .iter()
                .map(|&seed| {
                    InferenceRequest::new(0, Arc::clone(&native_entry), seed)
                        .with_engine(EngineName::native())
                })
                .collect(),
        }
        .engine_batch(bundle)
    };
    // Materialise the folded model's weights before timing it.
    native
        .execute(&folded(seeds[0], seeds[1]))
        .expect("folded batch");
    let base_batch = |seed: u64| EngineBatch {
        config: config.clone(),
        regime: native_entry.regime,
        seed,
        options: native_entry.options,
        batch_size: 1,
        batch_id: 0,
    };
    native
        .execute_streaming(
            &base_batch(seeds[0]),
            config.timesteps,
            None,
            &mut bishop_engine::NullStepSink,
        )
        .expect("streamed horizon");
    for (index, &seed) in seeds.iter().enumerate() {
        rec.set_request(index as u64);
        if index % 2 == 0 {
            let pair = folded(seed, seeds[(index + 1) % seeds.len()]);
            rec.leaf("engine.native.execute_x2", || native.execute(&pair))
                .expect("folded execute");
            let mut sink = TimingSink {
                started: Instant::now(),
                at: Vec::new(),
            };
            rec.leaf("engine.native.stream_horizon", || {
                native.execute_streaming(&base_batch(seed), config.timesteps, None, &mut sink)
            })
            .expect("streamed execute");
            stream_steps_us.extend(sink.at.windows(2).map(|pair| (pair[1] - pair[0]) * 1e6));
        }
    }

    // --- engine.sim, bundle, core: the cold path, then the warm one ------
    let workloads = Arc::new(CalibrationCache::new());
    let results = Arc::new(ResultCache::new());
    let simulator = SimulatorEngine::with_caches(
        BishopSimulator::new(hardware.clone()),
        Arc::clone(&workloads),
        Arc::clone(&results),
    );
    let chip = BishopSimulator::new(hardware.clone());
    let mut simulated_layers: Vec<f64> = Vec::new();
    let build_cache = CalibrationCache::new();
    let generator = SpikeTraceGenerator::new(TraceProfile::new(0.15));
    for (index, &seed) in seeds.iter().enumerate() {
        rec.set_request(index as u64);
        let batch = singleton(&native_entry, "simulator", seed);
        rec.leaf("engine.sim.execute_cold", || simulator.execute(&batch))
            .expect("simulator never refuses");
        rec.leaf("engine.sim.execute_warm", || simulator.execute(&batch))
            .expect("simulator never refuses");

        let workload = rec.leaf("engine.sim.workload_build", || {
            build_cache.get_or_build(&batch.config, batch.regime, batch.seed)
        });
        let run = rec.leaf("core.simulate", || chip.simulate(&workload, &batch.options));
        simulated_layers.push(run.layers.len() as f64);
        for (name, group) in [
            ("core.sim.P1_cycles", "P1"),
            ("core.sim.ATN_cycles", "ATN"),
            ("core.sim.P2_cycles", "P2"),
            ("core.sim.MLP_cycles", "MLP"),
        ] {
            exact
                .entry(name)
                .or_default()
                .push(run.cycles_for_group(group) as f64);
        }
        let traffic = run.total_traffic();
        exact
            .entry("core.sim.dram_bytes")
            .or_default()
            .push((traffic.dram_read_bytes + traffic.dram_write_bytes) as f64);
        exact
            .entry("core.sim.latency_us")
            .or_default()
            .push(run.total_latency_seconds() * 1e6);
        exact
            .entry("core.sim.energy_uj")
            .or_default()
            .push(run.total_energy_mj() * 1e3);

        // bundle: tag, stratify and prune the ECP model's own activations.
        let ecp_batch = singleton(&ecp_entry, "simulator", seed);
        let ecp_workload = build_cache.get_or_build(&ecp_batch.config, ecp_batch.regime, seed);
        let (projection, attention) = first_layers(ecp_workload.layers());
        let tags = rec.leaf("bundle.ttb_tags", || {
            TtbTags::from_tensor(&projection.input, bundle)
        });
        let threshold = Stratifier::threshold_for_dense_fraction(&projection.input, bundle, 0.5);
        let split = rec.leaf("bundle.stratify", || {
            Stratifier::new(threshold).stratify_tags(&projection.input, &tags)
        });
        let theta = ecp_entry.options.ecp_threshold.expect("ECP catalog entry");
        let pruned = rec.leaf("bundle.ecp_apply", || {
            ecp::apply(
                &attention.q,
                &attention.k,
                &attention.v,
                EcpConfig::uniform(theta, bundle),
            )
        });
        for (name, value) in [
            ("bundle.active_bundle_share", tags.active_fraction()),
            ("bundle.dense_work_share", split.dense_work_fraction()),
            ("bundle.ecp_q_retention", pruned.q_retention()),
            ("bundle.ecp_k_retention", pruned.k_retention()),
        ] {
            exact.entry(name).or_default().push(value);
        }

        let mut rng = StdRng::seed_from_u64(seed);
        rec.leaf("spiketensor.generate", || {
            black_box(generator.generate(config.activation_shape(), &mut rng))
        });
    }

    // --- gateway: ingress and egress of one request -----------------------
    let registry = EngineRegistry::serving_default(
        &hardware,
        Arc::new(CalibrationCache::new()),
        Arc::new(ResultCache::new()),
    );
    let auto: Vec<EngineName> = EngineRegistry::default_auto_preference()
        .iter()
        .map(EngineName::new)
        .collect();
    let warm_seed = seeds[0];
    let response = {
        let request = InferenceRequest::new(1, Arc::clone(&native_entry), warm_seed);
        let pair = InferenceRequest::new(2, Arc::clone(&native_entry), warm_seed);
        let (a, b) = (runtime.try_submit(request), runtime.try_submit(pair));
        let _ = b.ok().and_then(|ticket| ticket.wait());
        a.ok()
            .and_then(|ticket| ticket.wait())
            .and_then(Result::ok)
            .expect("the runtime serves a simulator request")
    };
    for (index, &seed) in seeds.iter().enumerate() {
        rec.set_request(index as u64);
        let body = format!(
            "{{\"model\":\"{}\",\"engine\":\"simulator\",\"seed\":{seed}}}",
            spec::NATIVE_MODEL
        );
        let bytes = post("/v1/infer", &body);
        let request = rec
            .leaf("gateway.http.parse", || {
                RequestReader::new(&bytes[..], Limits::default()).read_request()
            })
            .expect("well-formed request")
            .expect("one request");
        let text = std::str::from_utf8(&request.body).expect("UTF-8 body");
        let json = rec
            .leaf("gateway.json.parse", || Json::parse(text))
            .expect("valid JSON");
        rec.leaf("gateway.api.decode", || {
            decode_infer(&json, &catalog, &registry, &auto, index as u64)
        })
        .expect("decodable request");
        let encoded = rec.leaf("gateway.json.encode", || {
            let json = encode_response(&response);
            black_box(json.encode());
            json
        });
        let mut wire = Vec::with_capacity(512);
        rec.leaf("gateway.http.write", || {
            Response::json(200, &encoded).write_to(&mut wire, true)
        })
        .expect("Vec writes never fail");
    }

    // --- runtime: admission and the ticket round trip, no gateway --------
    // Two submissions back to back so the batch closes on its size cap, not
    // on the 1 ms timeout (the round trip would otherwise measure a sleep).
    for (index, _) in seeds.iter().enumerate() {
        rec.set_request(index as u64);
        let request = |id| InferenceRequest::new(id, Arc::clone(&native_entry), warm_seed);
        rec.span("runtime.ticket_roundtrip", |rec| {
            let a = rec.leaf("runtime.submit", || runtime.try_submit(request(10)));
            let b = rec.leaf("runtime.submit", || runtime.try_submit(request(11)));
            for ticket in [a, b].into_iter().flatten() {
                black_box(ticket.wait());
            }
        });
    }

    // --- session: one lease cycle on a parked slot -------------------------
    let store = SessionStore::new(SessionStoreConfig::default());
    let id = store
        .create(spec::NATIVE_MODEL, "simulator", warm_seed)
        .expect("an empty store has a free slot");
    let state = Arc::new(SessionState::Simulated { timesteps_done: 1 });
    for _ in 0..KERNEL_CALLS {
        rec.leaf("session.begin_complete", || {
            let lease = store.begin(id).expect("slot is parked");
            store.complete(lease, Arc::clone(&state));
        });
    }

    // --- neuron + spiketensor kernels at the workload's row widths --------
    let units = config.tokens * config.features;
    let mut rng = StdRng::seed_from_u64(derive(run_seed, Lane::Walk, u64::MAX - 1));
    let charge: Vec<f32> = (0..units).map(|_| rng.gen_range(0.0f32..1.0)).collect();
    let mut lif = LifLayer::new(units, LifConfig::default());
    for _ in 0..spec::WALK_REQUESTS {
        rec.leaf("neuron.lif_step", || black_box(lif.step(&charge)));
    }
    let kernels = simd::active();
    let row_words = config.features.div_ceil(64);
    let a: Vec<u64> = (0..row_words).map(|_| rng.next_u64()).collect();
    let b: Vec<u64> = (0..row_words).map(|_| rng.next_u64()).collect();
    let head_words = head_dim.div_ceil(64);
    let bits: Vec<u64> = (0..head_words).map(|_| rng.next_u64()).collect();
    let mut plane = vec![0.0f32; head_dim];
    for _ in 0..spec::WALK_REQUESTS {
        rec.leaf("spiketensor.and_popcount_x", || {
            let mut acc = 0u64;
            for _ in 0..KERNEL_CALLS {
                acc += kernels.and_popcount(black_box(&a), black_box(&b));
            }
            black_box(acc)
        });
        rec.leaf("spiketensor.masked_add_x", || {
            for _ in 0..KERNEL_CALLS {
                kernels.masked_add(black_box(&mut plane), black_box(&bits), 0.5);
            }
        });
    }

    // --- fold spans into metrics -------------------------------------------
    let durations = rec.durations();
    let median_us = |name: &str| micros(&durations[name], durations[name].len()).median;
    let mut metrics: Vec<(&'static str, Summary)> = Vec::new();
    for (metric, span) in [
        ("gateway.http.parse_us", "gateway.http.parse"),
        ("gateway.http.write_us", "gateway.http.write"),
        ("gateway.json.parse_us", "gateway.json.parse"),
        ("gateway.json.encode_us", "gateway.json.encode"),
        ("gateway.api.decode_us", "gateway.api.decode"),
        ("runtime.submit_us", "runtime.submit"),
        ("runtime.ticket_roundtrip_us", "runtime.ticket_roundtrip"),
        ("engine.native.execute_us", "engine.native.execute"),
        ("engine.native.execute_x2_us", "engine.native.execute_x2"),
        ("engine.sim.execute_cold_us", "engine.sim.execute_cold"),
        ("engine.sim.execute_warm_us", "engine.sim.execute_warm"),
        ("engine.sim.workload_build_us", "engine.sim.workload_build"),
        ("model.tokenizer_us", "model.tokenizer"),
        ("model.block0.P1_us", BLOCK_SPANS[0][0]),
        ("model.block0.ATN_us", BLOCK_SPANS[0][1]),
        ("model.block0.P2_us", BLOCK_SPANS[0][2]),
        ("model.block0.MLP_us", BLOCK_SPANS[0][3]),
        ("model.block1.P1_us", BLOCK_SPANS[1][0]),
        ("model.block1.ATN_us", BLOCK_SPANS[1][1]),
        ("model.block1.P2_us", BLOCK_SPANS[1][2]),
        ("model.block1.MLP_us", BLOCK_SPANS[1][3]),
        ("model.readout_us", "model.readout"),
        ("model.infer_us", "model.infer"),
        ("model.stepper.step_us", "model.stepper.step"),
        ("spiketensor.generate_us", "spiketensor.generate"),
        ("bundle.ttb_tags_us", "bundle.ttb_tags"),
        ("bundle.stratify_us", "bundle.stratify"),
        ("bundle.ecp_apply_us", "bundle.ecp_apply"),
        ("core.simulate_us", "core.simulate"),
        ("session.begin_complete_us", "session.begin_complete"),
    ] {
        let values = &durations[span];
        metrics.push((metric, micros(values, values.len())));
    }
    metrics.push((
        "engine.native.stream_step_us",
        Summary::of(&stream_steps_us, stream_steps_us.len()),
    ));

    let per_call_ns = |span: &str, divisor: f64| {
        let values: Vec<f64> = durations[span].iter().map(|s| s * 1e9 / divisor).collect();
        Summary::of(&values, values.len() * divisor as usize)
    };
    metrics.push((
        "neuron.lif_step_ns_per_unit",
        per_call_ns("neuron.lif_step", units as f64),
    ));
    metrics.push((
        "spiketensor.and_popcount_ns",
        per_call_ns("spiketensor.and_popcount_x", KERNEL_CALLS as f64),
    ));
    metrics.push((
        "spiketensor.masked_add_ns",
        per_call_ns("spiketensor.masked_add_x", KERNEL_CALLS as f64),
    ));
    // Computed from the operand sizes, not measured: two packed rows read
    // per AND+popcount; one f32 head row read and written plus its mask.
    metrics.push((
        "spiketensor.and_popcount_words",
        Summary::exact((2 * row_words) as f64),
    ));
    metrics.push((
        "spiketensor.masked_add_bytes",
        Summary::exact((2 * 4 * head_dim + 8 * head_words) as f64),
    ));

    let infer_us = median_us("model.infer");
    let execute_us = median_us("engine.native.execute");
    let layer_spans: Vec<&str> = ["model.tokenizer", "model.readout"]
        .into_iter()
        .chain(BLOCK_SPANS.iter().flatten().copied())
        .collect();
    let layers_us: f64 = layer_spans.iter().map(|span| median_us(span)).sum();
    let unattributed = (infer_us - layers_us) / infer_us * 100.0;
    let horizon_us = median_us("model.stepper.horizon");
    let streamed_us = median_us("engine.native.stream_horizon");
    let derived = [
        ("model.infer_unattributed_pct", unattributed),
        ("model.stepper.vs_fused_ratio", horizon_us / infer_us),
        (
            "model.pool.speedup_w2",
            median_us("model.pool.w1") / median_us("model.pool.w2"),
        ),
        (
            "engine.native.model_build_ms",
            (first_call * 1e6 - execute_us).max(0.0) / 1e3,
        ),
        (
            "engine.native.stream_overhead_pct",
            (streamed_us - execute_us) / execute_us * 100.0,
        ),
        (
            "core.simulate_us_per_layer",
            median_us("core.simulate") / mean(&simulated_layers),
        ),
    ];
    for (name, value) in derived {
        metrics.push((name, Summary::exact(value)));
    }
    for (name, values) in &exact {
        // Exact-repeat quantities: the mean over the walk's requests is a
        // pure function of --seed.
        metrics.push((name, Summary::over(mean(values), values.len())));
    }

    let glue_us = micros(&rec.self_times()["model.layers"], 1).median;
    let notes = vec![
        format!(
            "Σ model layers {layers_us:.0} us + unattributed {unattributed:.1}% = model.infer_us \
             {infer_us:.0} us (layer-walk glue {glue_us:.1} us)"
        ),
        format!(
            "Σ model layers vs engine.native.execute_us: {layers_us:.0} us vs {execute_us:.0} us \
             ({:.1}%); model.infer_us {infer_us:.0} us is {:+.1}% of execute",
            layers_us / execute_us * 100.0,
            (infer_us - execute_us) / execute_us * 100.0
        ),
    ];
    let mut violations = Vec::new();
    if ((infer_us - execute_us) / execute_us).abs() > 0.10 {
        violations.push(format!(
            "model.infer_us {infer_us:.0} is not within 10% of engine.native.execute_us \
             {execute_us:.0}"
        ));
    }
    WalkReport {
        metrics,
        notes,
        violations,
        recorder: rec,
    }
}

/// The first projection and first attention layer of a workload.
fn first_layers(
    layers: &[LayerWorkload],
) -> (
    &bishop_model::ProjectionWorkload,
    &bishop_model::AttentionWorkload,
) {
    let projection = layers.iter().find_map(|layer| match layer {
        LayerWorkload::Projection(p) => Some(p),
        LayerWorkload::Attention(_) => None,
    });
    let attention = layers.iter().find_map(|layer| match layer {
        LayerWorkload::Attention(a) => Some(a),
        LayerWorkload::Projection(_) => None,
    });
    (
        projection.expect("every block starts with a projection"),
        attention.expect("every block has an attention layer"),
    )
}
