//! Differential property tests: the word-parallel bundle kernels (TTB
//! tagging, sparsity loss, ECP row filtering and error accounting) must be
//! bit-for-bit identical to the retained scalar `*_reference`
//! implementations, including on feature widths that are not a multiple
//! of 64. The stratifier's per-feature counts, read off the tags in one
//! pass, must equal the per-feature walks they replace.

use bishop_bundle::{
    bundle_sparsity_loss, bundle_sparsity_loss_reference, ecp, BundleShape, EcpConfig,
    StratifiedWorkload, Stratifier, TtbTags,
};
use bishop_spiketensor::{SpikeTensor, TensorShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tensor(shape: TensorShape, density: f64, seed: u64) -> SpikeTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    SpikeTensor::from_fn(shape, |_, _, _| rng.gen_bool(density))
}

/// Algorithm 1 as a per-feature walk over the tensor and the tags.
fn reference_split(tensor: &SpikeTensor, tags: &TtbTags, threshold: usize) -> StratifiedWorkload {
    let mut split = StratifiedWorkload {
        dense_features: Vec::new(),
        sparse_features: Vec::new(),
        dense_active_bundles: 0,
        sparse_active_bundles: 0,
        dense_spikes: 0,
        sparse_spikes: 0,
        threshold,
    };
    for d in 0..tensor.shape().features {
        let active = tags.active_for_feature(d);
        let spikes = tensor.feature_count(d);
        if active > threshold {
            split.dense_features.push(d);
            split.dense_active_bundles += active;
            split.dense_spikes += spikes;
        } else {
            split.sparse_features.push(d);
            split.sparse_active_bundles += active;
            split.sparse_spikes += spikes;
        }
    }
    split
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stratifier_counts_match_per_feature_walks(
        t in 1usize..9,
        n in 1usize..12,
        d_index in 0usize..6,
        bt in 1usize..4,
        bn in 1usize..5,
        density in 0.0f64..0.6,
        seed in any::<u64>(),
    ) {
        const FEATURES: [usize; 6] = [1, 17, 63, 64, 65, 130];
        let shape = TensorShape::new(t, n, FEATURES[d_index % FEATURES.len()]);
        let tensor = random_tensor(shape, density, seed);
        let tags = TtbTags::from_tensor(&tensor, BundleShape::new(bt, bn));

        let active = tags.active_per_feature();
        let spikes = tags.spikes_per_feature();
        prop_assert_eq!(&spikes, &tensor.per_feature_counts());
        let walked: Vec<usize> = (0..shape.features).map(|d| tags.active_for_feature(d)).collect();
        prop_assert_eq!(&active, &walked);

        for threshold in [0, 1, 3, usize::MAX] {
            let stratifier = Stratifier::new(threshold);
            let split = stratifier.stratify_tags(&tensor, &tags);
            prop_assert_eq!(&stratifier.partition(&active, &spikes), &split);
            prop_assert_eq!(&split, &reference_split(&tensor, &tags, threshold));
        }
    }

    #[test]
    fn ttb_tags_match_reference(
        t in 1usize..8,
        n in 1usize..12,
        d_index in 0usize..6,
        bt in 1usize..4,
        bn in 1usize..5,
        density in 0.0f64..0.6,
        seed in any::<u64>(),
    ) {
        const FEATURES: [usize; 6] = [1, 17, 63, 64, 65, 130];
        let shape = TensorShape::new(t, n, FEATURES[d_index % FEATURES.len()]);
        let tensor = random_tensor(shape, density, seed);
        let bundle = BundleShape::new(bt, bn);
        let word = TtbTags::from_tensor(&tensor, bundle);
        let scalar = TtbTags::from_tensor_reference(&tensor, bundle);
        prop_assert_eq!(word, scalar);
    }

    #[test]
    fn sparsity_loss_matches_reference(
        t in 1usize..6,
        n in 1usize..10,
        d_index in 0usize..6,
        density in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        const FEATURES: [usize; 6] = [1, 17, 63, 64, 65, 130];
        let shape = TensorShape::new(t, n, FEATURES[d_index % FEATURES.len()]);
        let a = random_tensor(shape, density, seed);
        let b = random_tensor(shape, density * 0.5, seed ^ 0xAA);
        let bundle = BundleShape::default();
        prop_assert_eq!(
            bundle_sparsity_loss(&[&a, &b], bundle),
            bundle_sparsity_loss_reference(&[&a, &b], bundle)
        );
    }

    #[test]
    fn ecp_apply_matches_scalar_row_filter(
        t in 2usize..6,
        n in 4usize..16,
        d_index in 0usize..6,
        theta in 0u32..12,
        density in 0.01f64..0.3,
        seed in any::<u64>(),
    ) {
        const FEATURES: [usize; 6] = [8, 17, 63, 64, 65, 130];
        let shape = TensorShape::new(t, n, FEATURES[d_index % FEATURES.len()]);
        let q = random_tensor(shape, density, seed);
        let k = random_tensor(shape, density, seed ^ 0xB0B);
        let v = random_tensor(shape, 0.3, seed ^ 0xCAFE);
        let config = EcpConfig::uniform(theta, BundleShape::default());
        let result = ecp::apply(&q, &k, &v, config);

        // Scalar reconstruction of the row filter from the kept-row lists.
        let grid = TtbTags::from_tensor_reference(&q, config.bundle).grid();
        let keep = |kept: &[(usize, usize)], source: &SpikeTensor| {
            SpikeTensor::from_fn(source.shape(), |ti, ni, d| {
                kept.contains(&grid.bundle_of(ti, ni)) && source.get(ti, ni, d)
            })
        };
        prop_assert_eq!(&result.pruned_q, &keep(&result.q_kept_rows, &q));
        prop_assert_eq!(&result.pruned_k, &keep(&result.k_kept_rows, &k));
        prop_assert_eq!(&result.pruned_v, &keep(&result.k_kept_rows, &v));

        // Word-parallel error accounting agrees with the scalar loop and
        // still respects the configured bound.
        let word = ecp::max_score_error(&q, &k, &result.pruned_q, &result.pruned_k);
        let scalar = ecp::max_score_error_reference(&q, &k, &result.pruned_q, &result.pruned_k);
        prop_assert_eq!(word, scalar);
        prop_assert!(word < config.error_bound().max(1));
    }
}
