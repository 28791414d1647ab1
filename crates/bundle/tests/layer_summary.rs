//! Differential property tests of the counts-level simulator path: a
//! [`LayerSummary`] must carry exactly the counts the tensor-level code
//! derives from [`TtbTags`], ECP's counts-level retentions must equal those
//! of [`ecp::apply`], and the stratifier's one-pass histogram threshold must
//! equal the candidate-by-candidate loop it replaced (kept below as the
//! oracle). Shapes include `D % 64 != 0` and `T`, `N` that are not multiples
//! of the bundle shape, and all-zero and all-one tensors.

use bishop_bundle::{
    ecp, AttentionSummary, BundleShape, EcpConfig, LayerSummary, ProjectionSummary, TtbTags,
};
use bishop_core::{BishopConfig, StratifierUnit, StratifyPolicy};
use bishop_memsys::EnergyModel;
use bishop_model::{AttentionWorkload, LayerKind, LayerWorkload, ProjectionWorkload};
use bishop_spiketensor::{SpikeTensor, TensorShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FEATURES: [usize; 7] = [1, 17, 63, 64, 65, 128, 130];

/// A random tensor for `fill` 0, all zeros for 1, all ones for 2.
fn tensor(shape: TensorShape, fill: usize, density: f64, seed: u64) -> SpikeTensor {
    match fill % 3 {
        0 => {
            let mut rng = StdRng::seed_from_u64(seed);
            SpikeTensor::from_fn(shape, |_, _, _| rng.gen_bool(density))
        }
        1 => SpikeTensor::zeros(shape),
        _ => SpikeTensor::ones(shape),
    }
}

fn projection(input: SpikeTensor) -> ProjectionWorkload {
    ProjectionWorkload {
        block: 1,
        kind: LayerKind::MlpFc2,
        label: "block1.MLP.fc2".to_string(),
        input,
        output_features: 96,
        weight_bits: 8,
    }
}

/// The kept-row test ECP applied before the counts-level path: one
/// `TtbTags::active_in_row` per bundle row.
fn tag_retention(tensor: &SpikeTensor, bundle: BundleShape, theta: u32) -> f64 {
    let tags = TtbTags::from_tensor(tensor, bundle);
    let grid = tags.grid();
    let kept = grid
        .iter_bundles()
        .filter(|&(bt, bn)| tags.active_in_row(bt, bn) as u32 >= theta)
        .count();
    kept as f64 / grid.bundles_per_feature() as f64
}

/// The balanced threshold as an O(candidates × features) loop with `f64`
/// sums, exactly as the stratifier computed it before the histogram pass.
fn candidate_loop_threshold(
    config: &BishopConfig,
    active_per_feature: &[usize],
    spikes_per_feature: &[usize],
    output_features: usize,
    weight_bits: usize,
) -> usize {
    let volume = config.bundle.volume() as f64;
    let dense_peak = config.dense_peak_ops_per_cycle();
    let sparse_peak = config.sparse_peak_ops_per_cycle();
    let row_bytes = (output_features * weight_bits).div_ceil(8) as f64;
    let port_bytes_per_cycle = 64.0;
    let lanes = config.dense_bundle_lanes;

    let mut candidates = active_per_feature.to_vec();
    candidates.push(0);
    candidates.sort_unstable();
    candidates.dedup();

    let mut best_threshold = 0usize;
    let mut best_time = f64::INFINITY;
    for &threshold in &candidates {
        let mut dense_positions = 0.0;
        let mut dense_row_fetches = 0.0;
        let mut sparse_spikes = 0.0;
        let mut sparse_row_fetches = 0.0;
        for d in 0..active_per_feature.len() {
            if active_per_feature[d] > threshold {
                dense_positions += active_per_feature[d] as f64 * volume;
                dense_row_fetches += active_per_feature[d].div_ceil(lanes) as f64;
            } else {
                sparse_spikes += spikes_per_feature[d] as f64;
                sparse_row_fetches += active_per_feature[d] as f64;
            }
        }
        let dense_time = (dense_positions * output_features as f64 / dense_peak)
            .max(dense_row_fetches * row_bytes / port_bytes_per_cycle);
        let sparse_time = (sparse_spikes * output_features as f64 / sparse_peak)
            .max(sparse_row_fetches * row_bytes / port_bytes_per_cycle);
        let time = dense_time.max(sparse_time);
        if time < best_time {
            best_time = time;
            best_threshold = threshold;
        }
    }
    best_threshold
}

/// The threshold the balanced stratifier picks for these counts, and the one
/// the oracle picks.
fn both_thresholds(
    active: Vec<usize>,
    spikes: Vec<usize>,
    output_features: usize,
    weight_bits: usize,
) -> (usize, usize) {
    let config = BishopConfig::default().with_stratify(StratifyPolicy::Balanced);
    let expected =
        candidate_loop_threshold(&config, &active, &spikes, output_features, weight_bits);
    let features = active.len();
    let layer = ProjectionSummary {
        block: 0,
        kind: LayerKind::QkvProjection,
        label: "block0.P1".to_string(),
        shape: TensorShape::new(8, 64, features),
        packed_bytes: (8 * 64 * features).div_ceil(8),
        output_features,
        weight_bits,
        active_per_feature: active,
        spikes_per_feature: spikes,
        total_bundles: 4 * 16 * features,
    };
    let chosen = StratifierUnit::new(&config)
        .stratify(&layer, &EnergyModel::bishop_28nm())
        .threshold;
    (chosen, expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn summary_counts_match_tags(
        t in 1usize..10,
        n in 1usize..14,
        d_index in 0usize..7,
        bt in 1usize..4,
        bn in 1usize..6,
        fill in 0usize..3,
        density in 0.0f64..0.7,
        seed in any::<u64>(),
    ) {
        let shape = TensorShape::new(t, n, FEATURES[d_index % FEATURES.len()]);
        let bundle = BundleShape::new(bt, bn);
        let input = tensor(shape, fill, density, seed);
        let tags = TtbTags::from_tensor(&input, bundle);

        let layer = projection(input.clone());
        let LayerSummary::Projection(p) =
            LayerSummary::summarise(&LayerWorkload::Projection(layer.clone()), bundle)
        else {
            panic!("a projection layer summarises as a projection");
        };
        prop_assert_eq!(&p.active_per_feature, &tags.active_per_feature());
        prop_assert_eq!(&p.spikes_per_feature, &tags.spikes_per_feature());
        prop_assert_eq!(p.total_bundles, tags.total_bundles());
        prop_assert_eq!(p.shape, shape);
        prop_assert_eq!(p.packed_bytes, input.packed_bytes());
        prop_assert_eq!((p.block, p.kind, p.label.as_str()), (layer.block, layer.kind, "block1.MLP.fc2"));
        prop_assert_eq!((p.output_features, p.weight_bits), (96, 8));

        let keys = tensor(shape, fill + 1, density * 0.5, seed ^ 0x5EED);
        let attention = AttentionWorkload {
            block: 1,
            label: "block1.ATN".to_string(),
            q: input.clone(),
            k: keys.clone(),
            v: SpikeTensor::zeros(shape),
            heads: 2,
            score_bits: 6,
        };
        let a = AttentionSummary::from_workload(&attention, bundle);
        prop_assert_eq!(&a.q_active_per_row, &tags.active_per_row());
        prop_assert_eq!(&a.k_active_per_row, &TtbTags::from_tensor(&keys, bundle).active_per_row());
        prop_assert_eq!((a.shape, a.heads, a.score_bits, a.bundle), (shape, 2, 6, bundle));
        prop_assert_eq!(a.score_ops(), attention.score_ops());
    }

    #[test]
    fn counts_level_retentions_match_apply(
        t in 1usize..9,
        n in 1usize..14,
        d_index in 0usize..7,
        bt in 1usize..4,
        bn in 1usize..6,
        fill in 0usize..3,
        density in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let shape = TensorShape::new(t, n, FEATURES[d_index % FEATURES.len()]);
        let bundle = BundleShape::new(bt, bn);
        let q = tensor(shape, fill, density, seed);
        let k = tensor(shape, 0, density * 0.6, seed ^ 0xB0B);
        let v = tensor(shape, 0, 0.3, seed ^ 0xCAFE);
        let attention = AttentionWorkload {
            block: 0,
            label: "block0.ATN".to_string(),
            q: q.clone(),
            k: k.clone(),
            v: v.clone(),
            heads: 2,
            score_bits: 6,
        };
        let rows = AttentionSummary::from_workload(&attention, bundle);
        for theta in [0, 1, 6, u32::MAX] {
            let config = EcpConfig::uniform(theta, bundle);
            let applied = ecp::apply(&q, &k, &v, config);
            let counted = ecp::retentions(&rows.q_active_per_row, &rows.k_active_per_row, config);
            prop_assert_eq!(counted, (applied.q_retention(), applied.k_retention()));
            prop_assert_eq!(
                counted,
                (tag_retention(&q, bundle, theta), tag_retention(&k, bundle, theta))
            );
        }
    }

    #[test]
    fn histogram_threshold_matches_candidate_loop(
        features in 1usize..48,
        max_index in 0usize..5,
        output_index in 0usize..3,
        wide_weights in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Small maxima force ties; 32 and 64 are the bundles per feature of
        // a served T = 4 and T = 8 layer.
        const MAX_COUNT: [usize; 5] = [0, 1, 3, 32, 64];
        const OUTPUTS: [usize; 3] = [16, 128, 384];
        let max_count = MAX_COUNT[max_index % MAX_COUNT.len()];
        let mut rng = StdRng::seed_from_u64(seed);
        let active: Vec<usize> = (0..features).map(|_| rng.gen_range(0..=max_count)).collect();
        // A feature holds at least one spike per active bundle, at most 8.
        let spikes: Vec<usize> = active.iter().map(|&a| rng.gen_range(a..=8 * a)).collect();
        let (chosen, expected) = both_thresholds(
            active,
            spikes,
            OUTPUTS[output_index % OUTPUTS.len()],
            if wide_weights { 8 } else { 4 },
        );
        prop_assert_eq!(chosen, expected);
    }
}

#[test]
fn histogram_threshold_matches_on_edge_counts() {
    let cases: [(Vec<usize>, Vec<usize>); 5] = [
        // All zeros.
        (vec![0; 16], vec![0; 16]),
        // A single feature, silent and busy.
        (vec![0], vec![0]),
        (vec![64], vec![300]),
        // Every feature at the maximum count of a T = 8 layer.
        (vec![64; 40], vec![512; 40]),
        // One feature far above the rest, with ties below it.
        (
            vec![3, 3, 1, 0, 3, 1, 10_000, 2, 2],
            vec![5, 3, 1, 0, 9, 2, 60_000, 2, 4],
        ),
    ];
    for (active, spikes) in cases {
        for (output_features, weight_bits) in [(16, 4), (128, 8), (384, 8)] {
            let (chosen, expected) =
                both_thresholds(active.clone(), spikes.clone(), output_features, weight_bits);
            assert_eq!(chosen, expected, "{active:?} / {spikes:?}");
        }
    }
}
