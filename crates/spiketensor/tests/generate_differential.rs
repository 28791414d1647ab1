//! Differential property tests: the row-wise, integer-threshold trace
//! generators must emit exactly the tensors — and consume exactly the
//! random words — of the per-element reference below, which is the
//! generators' original body (feature densities, cluster flags, then one
//! `gen_bool` per live position through `SpikeTensor::from_fn`).
//!
//! Each case compares both the tensor and the next word of the generator
//! afterwards, so a change in the *number* of draws fails even when the
//! bits happen to agree.

use bishop_spiketensor::{SpikeTensor, SpikeTraceGenerator, TensorShape, TraceProfile};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const DENSITIES: [f64; 5] = [0.0, 1e-6, 0.03, 0.5, 1.0];
const SPREADS: [f64; 2] = [0.0, 2.5];
const SILENT: [f64; 3] = [0.0, 0.52, 1.0];

/// `(timesteps, tokens, boost)`: none, boost 1 with real clusters, and
/// cluster dims that do not divide the shapes' `T` or `N`.
const CLUSTERS: [(usize, usize, f64); 5] = [
    (1, 1, 1.0),
    (2, 4, 1.0),
    (2, 4, 4.0),
    (3, 5, 2.5),
    (4, 8, 4.0),
];

/// `(T, N, D)`: a serving-shaped aligned plane, and planes whose `N·D` is
/// not a multiple of 64 (shifted into place by `from_plane_words`).
const SHAPES: [(usize, usize, usize); 6] = [
    (4, 64, 128),
    (3, 5, 7),
    (5, 3, 21),
    (8, 9, 65),
    (2, 1, 1),
    (7, 13, 130),
];

fn shape(index: usize) -> TensorShape {
    let (t, n, d) = SHAPES[index % SHAPES.len()];
    TensorShape::new(t, n, d)
}

/// The profile's per-feature densities, as `TraceProfile` draws them.
fn reference_feature_densities<R: Rng>(
    mean: f64,
    spread: f64,
    silent: f64,
    features: usize,
    rng: &mut R,
) -> Vec<f64> {
    let mut densities = Vec::with_capacity(features);
    for _ in 0..features {
        if rng.gen_bool(silent.clamp(0.0, 1.0)) {
            densities.push(0.0);
            continue;
        }
        let base = if spread == 0.0 {
            mean
        } else {
            let u: f64 = rng.gen_range(-spread..=spread);
            mean * u.exp()
        };
        densities.push(base.clamp(0.0, 1.0));
    }
    let realised_mean: f64 = densities.iter().sum::<f64>() / features as f64;
    if realised_mean > 0.0 {
        let correction = mean / realised_mean;
        for d in &mut densities {
            *d = (*d * correction).clamp(0.0, 1.0);
        }
    }
    densities
}

/// The per-element reference of `SpikeTraceGenerator::generate`.
fn reference_generate<R: Rng>(
    (mean, spread, silent): (f64, f64, f64),
    (cluster_t, cluster_n, boost): (usize, usize, f64),
    shape: TensorShape,
    rng: &mut R,
) -> SpikeTensor {
    let feature_density = reference_feature_densities(mean, spread, silent, shape.features, rng);
    let clusters_t = shape.timesteps.div_ceil(cluster_t);
    let clusters_n = shape.tokens.div_ceil(cluster_n);
    let mut hot = vec![false; clusters_t * clusters_n];
    let hot_probability = (1.0 / boost).clamp(0.0, 1.0);
    for flag in &mut hot {
        *flag = rng.gen_bool(hot_probability);
    }
    let cold_scale = if boost > 1.0 { 0.15 } else { 1.0 };

    SpikeTensor::from_fn(shape, |t, n, d| {
        let base = feature_density[d];
        if base <= 0.0 {
            return false;
        }
        let cluster_index = (t / cluster_t) * clusters_n + (n / cluster_n);
        let p = if boost <= 1.0 {
            base
        } else if hot[cluster_index] {
            (base * boost).min(1.0)
        } else {
            base * cold_scale
        };
        rng.gen_bool(p.clamp(0.0, 1.0))
    })
}

/// The per-element reference of
/// `SpikeTraceGenerator::generate_with_feature_densities`.
fn reference_with_densities<R: Rng>(
    shape: TensorShape,
    densities: &[f64],
    rng: &mut R,
) -> SpikeTensor {
    SpikeTensor::from_fn(shape, |_, _, d| {
        let p = densities[d].clamp(0.0, 1.0);
        p > 0.0 && rng.gen_bool(p)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn generate_matches_the_per_element_reference(
        density_index in 0usize..5,
        spread_index in 0usize..2,
        silent_index in 0usize..3,
        cluster_index in 0usize..5,
        shape_index in 0usize..6,
        seed in any::<u64>(),
    ) {
        let stats = (
            DENSITIES[density_index],
            SPREADS[spread_index],
            SILENT[silent_index],
        );
        let cluster = CLUSTERS[cluster_index];
        let shape = shape(shape_index);
        let generator = SpikeTraceGenerator::new(
            TraceProfile::new(stats.0)
                .with_feature_spread(stats.1)
                .with_silent_features(stats.2)
                .with_clustering(cluster.0, cluster.1, cluster.2),
        );

        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        let got = generator.generate(shape, &mut rng);
        let expected = reference_generate(stats, cluster, shape, &mut reference_rng);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
    }

    #[test]
    fn explicit_densities_match_the_per_element_reference(
        shape_index in 0usize..6,
        seed in any::<u64>(),
        density_seed in any::<u64>(),
    ) {
        let shape = shape(shape_index);
        // Per-feature densities from the boundary values, out-of-range
        // values the generator clamps, and arbitrary values in between.
        let mut pick = StdRng::seed_from_u64(density_seed);
        let densities: Vec<f64> = (0..shape.features)
            .map(|_| match pick.gen_range(0..4) {
                0 => DENSITIES[pick.gen_range(0..DENSITIES.len())],
                1 => [-0.25, 1.75][pick.gen_range(0..2)],
                _ => pick.gen_range(0.0..1.0),
            })
            .collect();
        let generator = SpikeTraceGenerator::new(TraceProfile::new(0.5));

        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        let got = generator.generate_with_feature_densities(shape, &densities, &mut rng);
        let expected = reference_with_densities(shape, &densities, &mut reference_rng);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
    }
}
