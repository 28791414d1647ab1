//! Micro-benchmarks of the kernels underneath the simulators: bundle
//! tagging, stratification, ECP pruning, the per-core cost models, and
//! before/after pairs (scalar reference vs word-parallel) for the spiking
//! hot-path kernels. The `perf_ratios` group re-measures each pair outside
//! criterion and writes the speedups to `BENCH_kernels.json` at the
//! workspace root so the perf trajectory is tracked across PRs.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;

use bishop_bundle::{ecp, AttentionSummary, BundleShape, EcpConfig, Stratifier, TtbTags};
use bishop_core::{AttentionCoreModel, BishopConfig, BishopSimulator, SimOptions};
use bishop_memsys::EnergyModel;
use bishop_model::workload::SyntheticTraceSpec;
use bishop_model::{
    select_accumulate, select_accumulate_reference, spike_matmul, spike_matmul_into,
    spike_matmul_reference, DatasetKind, ModelConfig, ModelWorkload, SpikingSelfAttention,
};
use bishop_neuron::{LifConfig, LifLayer, LifNeuron};
use bishop_spiketensor::words::simd;
use bishop_spiketensor::{
    DenseMatrix, SpikeTensor, SpikeTraceGenerator, TensorShape, TraceProfile,
};
use rand::Rng;

fn trace(density: f64, shape: TensorShape, seed: u64) -> bishop_spiketensor::SpikeTensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    SpikeTraceGenerator::new(TraceProfile::new(density).with_feature_spread(1.5))
        .generate(shape, &mut rng)
}

/// Shapes of the before/after pairs (Model-3-like attention layer).
fn pair_shapes() -> (TensorShape, BundleShape) {
    (TensorShape::new(4, 196, 128), BundleShape::default())
}

fn bench_attention_scores_pair(c: &mut Criterion) {
    let (shape, _) = pair_shapes();
    let q = trace(0.12, shape, 31);
    let k = trace(0.08, shape, 32);
    let mut group = c.benchmark_group("kernel_attention_scores");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("scalar_reference", |b| {
        b.iter(|| SpikingSelfAttention::attention_scores_reference(black_box(&q), black_box(&k), 0))
    });
    group.bench_function("word_parallel", |b| {
        b.iter(|| SpikingSelfAttention::attention_scores(black_box(&q), black_box(&k), 0))
    });
    group.finish();
}

fn bench_spike_matmul_pair(c: &mut Criterion) {
    let (shape, _) = pair_shapes();
    let spikes = trace(0.12, shape, 33);
    let mut rng = rand::rngs::StdRng::seed_from_u64(34);
    let weight = DenseMatrix::random_uniform(shape.features, shape.features, 0.2, &mut rng);
    let mut group = c.benchmark_group("kernel_spike_matmul");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("scalar_reference", |b| {
        b.iter(|| spike_matmul_reference(black_box(&spikes), 0, black_box(&weight)))
    });
    group.bench_function("word_parallel", |b| {
        b.iter(|| spike_matmul(black_box(&spikes), 0, black_box(&weight)))
    });
    group.finish();
}

fn bench_ttb_tags_pair(c: &mut Criterion) {
    let (shape, bundle) = pair_shapes();
    let tensor = trace(0.15, shape, 35);
    let mut group = c.benchmark_group("kernel_ttb_tags");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("scalar_reference", |b| {
        b.iter(|| TtbTags::from_tensor_reference(black_box(&tensor), bundle))
    });
    group.bench_function("word_parallel", |b| {
        b.iter(|| TtbTags::from_tensor(black_box(&tensor), bundle))
    });
    group.finish();
}

/// The synaptic integration as it ran before the output-stationary kernel:
/// zero the plane, then one dispatched `add_assign` (load-add-store of the
/// whole output row) per spike. Baseline of `spike_matmul_fc1_serve`.
fn spike_matmul_per_spike(spikes: &SpikeTensor, weight: &DenseMatrix, plane: &mut DenseMatrix) {
    let kernels = simd::active();
    plane.as_mut_slice().fill(0.0);
    for n in 0..spikes.shape().tokens {
        for d_in in spikes.row_words(0, n).iter_set_bits() {
            kernels.add_assign(plane.row_mut(n), weight.row(d_in));
        }
    }
}

/// One head's attention scores as they ran before zero-row skipping: head
/// words assembled once per row, then every `(i, j)` pair scored. Baseline
/// of `attention_scores_sparse` (single-word heads only).
fn attention_scores_all_pairs(
    q: &SpikeTensor,
    k: &SpikeTensor,
    d0: usize,
    d1: usize,
) -> DenseMatrix {
    let tokens = q.shape().tokens;
    let head_words = |x: &SpikeTensor| -> Vec<u64> {
        (0..tokens)
            .map(|n| x.row_feature_slice(0, n, d0, d1).word(0))
            .collect()
    };
    let (q_words, k_words) = (head_words(q), head_words(k));
    let mut s = DenseMatrix::zeros(tokens, tokens);
    for (i, qi) in q_words.iter().enumerate() {
        for (out, kj) in s.row_mut(i).iter_mut().zip(&k_words) {
            *out = (qi & kj).count_ones() as f32;
        }
    }
    s
}

/// `DenseMatrix::matmul` as it ran before the `scaled_accumulate` kernel.
/// Baseline of `tokenizer_matmul`.
fn matmul_element_loop(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let x = a.get(i, k);
            if x == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out.add_assign(i, j, x * b.get(k, j));
            }
        }
    }
    out
}

/// Medians a routine's wall time over `samples` timed runs of `iters`
/// iterations each.
fn median_secs<O>(samples: usize, iters: usize, mut routine: impl FnMut() -> O) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN timing"));
    times[times.len() / 2]
}

/// Re-measures the scalar/word kernel pairs and writes the speedup ratios to
/// `BENCH_kernels.json` at the workspace root. Runs as the last "benchmark"
/// so an unfiltered `cargo bench -p bishop-bench --bench kernels` always
/// refreshes the tracked numbers; a command-line filter naming another
/// benchmark skips the re-measurement (and leaves the JSON untouched), like
/// any criterion benchmark would be skipped.
fn bench_perf_ratios(_c: &mut Criterion) {
    // The vendored Criterion applies its substring filter inside
    // bench_function only, so honour the same convention here (same arg
    // parsing as Criterion::configure_from_args): skip the re-measurement
    // unless the filter matches this group's "perf_ratio" prefix.
    let mut filter = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" | "--test" => {}
            "--profile-time" => {
                args.next();
            }
            _ if arg.starts_with("--") => {
                if let Some(next) = args.peek() {
                    if !next.starts_with("--") {
                        args.next();
                    }
                }
            }
            _ => filter = Some(arg),
        }
    }
    if let Some(needle) = filter {
        if !"perf_ratio".contains(needle.as_str()) {
            return;
        }
    }
    let (shape, bundle) = pair_shapes();
    let q = trace(0.12, shape, 31);
    let k = trace(0.08, shape, 32);
    let spikes = trace(0.12, shape, 33);
    let mut rng = rand::rngs::StdRng::seed_from_u64(34);
    let weight = DenseMatrix::random_uniform(shape.features, shape.features, 0.2, &mut rng);
    let tagged = trace(0.15, shape, 35);

    let mut entries = Vec::new();
    let mut measure =
        |name: &str, iters: usize, scalar: &mut dyn FnMut(), word: &mut dyn FnMut()| {
            let scalar_s = median_secs(5, iters, &mut *scalar);
            let word_s = median_secs(5, iters * 8, &mut *word);
            let speedup = scalar_s / word_s.max(1e-12);
            println!(
                "perf_ratio/{name:<30} scalar {:.3} ms  word {:.3} ms  speedup {speedup:.1}x",
                scalar_s * 1e3,
                word_s * 1e3
            );
            entries.push(format!(
            "  \"{name}\": {{\"scalar_ns\": {:.0}, \"word_ns\": {:.0}, \"speedup\": {speedup:.2}}}",
            scalar_s * 1e9,
            word_s * 1e9
        ));
        };

    measure(
        "attention_scores",
        3,
        &mut || {
            black_box(SpikingSelfAttention::attention_scores_reference(&q, &k, 0));
        },
        &mut || {
            black_box(SpikingSelfAttention::attention_scores(&q, &k, 0));
        },
    );
    measure(
        "spike_matmul",
        3,
        &mut || {
            black_box(spike_matmul_reference(&spikes, 0, &weight));
        },
        &mut || {
            black_box(spike_matmul(&spikes, 0, &weight));
        },
    );
    measure(
        "ttb_tags",
        10,
        &mut || {
            black_box(TtbTags::from_tensor_reference(&tagged, bundle));
        },
        &mut || {
            black_box(TtbTags::from_tensor(&tagged, bundle));
        },
    );
    let v = trace(0.18, shape, 36);
    let scores = DenseMatrix::random_uniform(shape.tokens, shape.tokens, 1.0, &mut rng);
    let scale = 1.0 / shape.features as f32;
    measure(
        "sv_select_accumulate",
        3,
        &mut || {
            let mut out = DenseMatrix::zeros(shape.tokens, shape.features);
            select_accumulate_reference(&mut out, &scores, scale, &v, 0, 0, shape.features);
            black_box(out);
        },
        &mut || {
            let mut out = DenseMatrix::zeros(shape.tokens, shape.features);
            select_accumulate(&mut out, &scores, scale, &v, 0, 0, shape.features);
            black_box(out);
        },
    );

    // The spike generator: T = 4 steps of a fresh layer, one `LifNeuron` per
    // position against one dispatched `lif_step` call per step, at the
    // serving model's plane (N·D = 8192) and a 4× larger one.
    for units in [8_192usize, 32_768] {
        let plane = DenseMatrix::random_uniform(1, units, 1.0, &mut rng);
        let input = plane.as_slice();
        let lif = LifConfig::default();
        measure(
            &format!("lif_step_{units}"),
            10,
            &mut || {
                let mut neurons = vec![LifNeuron::new(lif); units];
                let mut spikes = 0usize;
                for _ in 0..4 {
                    for (neuron, &x) in neurons.iter_mut().zip(input) {
                        spikes += usize::from(neuron.step(x));
                    }
                }
                black_box(spikes);
            },
            &mut || {
                let mut layer = LifLayer::new(units, lif);
                let mut fired = vec![0u64; units.div_ceil(64)];
                for _ in 0..4 {
                    layer.step_packed(input, &mut fired);
                }
                black_box(fired);
            },
        );
    }

    // Serving-shape rows (`cifar10-serve`: N = 64, D = 128, 4 heads of 32,
    // MLP hidden 512). Here "scalar" is the loop each kernel replaced, not
    // a scalar reference: both sides run on the active SIMD tier.
    let serve_input =
        SpikeTensor::from_fn(TensorShape::new(1, 64, 128), |_, _, _| rng.gen_bool(0.075));
    let fc1 = DenseMatrix::random_uniform(128, 512, 0.1, &mut rng);
    let mut plane = DenseMatrix::zeros(64, 512);
    let mut plane_after = plane.clone();
    measure(
        "spike_matmul_fc1_serve",
        200,
        &mut || spike_matmul_per_spike(black_box(&serve_input), &fc1, &mut plane),
        &mut || spike_matmul_into(black_box(&serve_input), 0, &fc1, &mut plane_after),
    );
    assert_eq!(
        plane, plane_after,
        "row-accumulate diverged from the per-spike loop"
    );

    // 90 % of Q/K rows empty inside the head, as the served model's are.
    let mut sparse_rows = |density: f64| {
        let live: Vec<bool> = (0..64).map(|_| rng.gen_bool(0.1)).collect();
        SpikeTensor::from_fn(TensorShape::new(1, 64, 128), |_, n, d| {
            let inside_head = (32..64).contains(&d);
            (!inside_head || live[n]) && rng.gen_bool(density)
        })
    };
    let (sparse_q, sparse_k) = (sparse_rows(0.15), sparse_rows(0.15));
    assert_eq!(
        attention_scores_all_pairs(&sparse_q, &sparse_k, 32, 64),
        SpikingSelfAttention::attention_scores_in(&sparse_q, &sparse_k, 0, 32, 64),
        "zero-row skipping diverged from the all-pairs loop"
    );
    measure(
        "attention_scores_sparse",
        200,
        &mut || {
            black_box(attention_scores_all_pairs(&sparse_q, &sparse_k, 32, 64));
        },
        &mut || {
            black_box(SpikingSelfAttention::attention_scores_in(
                &sparse_q, &sparse_k, 0, 32, 64,
            ));
        },
    );

    let patches = DenseMatrix::random_uniform(64, 128, 1.0, &mut rng);
    let embed = DenseMatrix::random_uniform(128, 128, 0.1, &mut rng);
    assert_eq!(
        matmul_element_loop(&patches, &embed),
        patches.matmul(&embed),
        "scaled-accumulate matmul diverged from the element loop"
    );
    measure(
        "tokenizer_matmul",
        20,
        &mut || {
            black_box(matmul_element_loop(&patches, &embed));
        },
        &mut || {
            black_box(patches.matmul(&embed));
        },
    );

    // Record which dispatch tier produced the `word` timings, so numbers
    // from different hosts are comparable.
    let json = format!(
        "{{\n  \"shape\": \"{shape}\",\n  \"simd_tier\": \"{}\",\n{}\n}}\n",
        simd::active().tier().label(),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
}

fn bench_bundle_tagging(c: &mut Criterion) {
    let tensor = trace(0.15, TensorShape::new(10, 64, 384), 1);
    let mut group = c.benchmark_group("kernel_bundle_tagging");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("tag_model1_tensor", |b| {
        b.iter(|| TtbTags::from_tensor(black_box(&tensor), BundleShape::default()))
    });
    group.finish();
}

fn bench_stratifier(c: &mut Criterion) {
    let tensor = trace(0.2, TensorShape::new(4, 196, 128), 2);
    let mut group = c.benchmark_group("kernel_stratifier");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("stratify_model3_layer", |b| {
        b.iter(|| Stratifier::new(4).stratify(black_box(&tensor), BundleShape::default()))
    });
    group.finish();
}

fn bench_ecp(c: &mut Criterion) {
    let shape = TensorShape::new(4, 196, 128);
    let q = trace(0.12, shape, 3);
    let k = trace(0.08, shape, 4);
    let v = trace(0.18, shape, 5);
    let mut group = c.benchmark_group("kernel_ecp");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("prune_model3_attention", |b| {
        b.iter(|| {
            ecp::apply(
                black_box(&q),
                black_box(&k),
                black_box(&v),
                EcpConfig::uniform(6, BundleShape::default()),
            )
        })
    });
    group.finish();
}

fn bench_attention_core_model(c: &mut Criterion) {
    let config = ModelConfig::new("bench", DatasetKind::ImageNet100, 1, 4, 96, 128, 4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let workload = ModelWorkload::synthetic(&config, &SyntheticTraceSpec::uniform(0.12), &mut rng);
    let layer = AttentionSummary::from_workload(
        workload.attention_layers().next().unwrap(),
        BundleShape::default(),
    );
    let core = AttentionCoreModel::new(&BishopConfig::default());
    let energy = EnergyModel::bishop_28nm();
    let mut group = c.benchmark_group("kernel_attention_core_model");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("cost_of_one_layer", |b| {
        b.iter(|| core.process(black_box(&layer), (1.0, 1.0), &energy))
    });
    group.finish();
}

fn bench_full_simulation(c: &mut Criterion) {
    let config = ModelConfig::new("bench-sim", DatasetKind::Cifar10, 2, 4, 64, 128, 4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let workload = ModelWorkload::synthetic(&config, &SyntheticTraceSpec::uniform(0.12), &mut rng);
    let simulator = BishopSimulator::new(BishopConfig::default());
    let mut group = c.benchmark_group("kernel_full_simulation");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("bishop_two_block_model", |b| {
        b.iter(|| simulator.simulate(black_box(&workload), &SimOptions::baseline()))
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_attention_scores_pair,
    bench_spike_matmul_pair,
    bench_ttb_tags_pair,
    bench_bundle_tagging,
    bench_stratifier,
    bench_ecp,
    bench_attention_core_model,
    bench_full_simulation,
    bench_perf_ratios,
);
criterion_main!(kernels);
