//! Differential property tests: the word-parallel attention and
//! select-accumulate kernels must be bit-for-bit identical to the retained
//! scalar `*_reference` implementations, including on feature widths that
//! are not a multiple of 64 — and the streamed integrate → fire loop to the
//! plane-at-a-time composition it replaced.

use bishop_model::{
    select_accumulate, select_accumulate_reference, spike_matmul, spike_matmul_into,
    spike_matmul_reference, SpikingLinear, SpikingSelfAttention,
};
use bishop_neuron::{lif_over_time, LifConfig};
use bishop_spiketensor::{DenseMatrix, SpikeTensor, TensorShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tensor(shape: TensorShape, density: f64, seed: u64) -> SpikeTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    SpikeTensor::from_fn(shape, |_, _, _| rng.gen_bool(density))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn attention_scores_match_reference(
        t in 1usize..3,
        n in 1usize..10,
        d_index in 0usize..6,
        density in 0.0f64..0.7,
        seed in any::<u64>(),
    ) {
        const FEATURES: [usize; 6] = [1, 17, 63, 64, 65, 130];
        let shape = TensorShape::new(t, n, FEATURES[d_index % FEATURES.len()]);
        let q = random_tensor(shape, density, seed);
        let k = random_tensor(shape, (density + 0.2).min(1.0), seed ^ 0x5A5A);
        for ti in 0..shape.timesteps {
            let word = SpikingSelfAttention::attention_scores(&q, &k, ti);
            let scalar = SpikingSelfAttention::attention_scores_reference(&q, &k, ti);
            prop_assert_eq!(word, scalar);
        }
    }

    #[test]
    fn per_head_scores_match_reference_on_head_slices(
        n in 2usize..8,
        heads in 1usize..5,
        head_dim in 1usize..40,
        density in 0.05f64..0.6,
        seed in any::<u64>(),
    ) {
        // attention_scores_in on zero-copy sub-rows must equal the reference
        // run on materialised head_slice copies.
        let shape = TensorShape::new(2, n, heads * head_dim);
        let q = random_tensor(shape, density, seed);
        let k = random_tensor(shape, density, seed ^ 0xF00D);
        for h in 0..heads {
            let qh = q.head_slice(h, heads);
            let kh = k.head_slice(h, heads);
            for t in 0..shape.timesteps {
                let word = SpikingSelfAttention::attention_scores_in(
                    &q, &k, t, h * head_dim, (h + 1) * head_dim,
                );
                let scalar = SpikingSelfAttention::attention_scores_reference(&qh, &kh, t);
                prop_assert_eq!(word, scalar);
            }
        }
    }

    #[test]
    fn spike_matmul_matches_reference(
        t in 1usize..3,
        n in 1usize..8,
        d_index in 0usize..6,
        d_out in 1usize..20,
        density in 0.0f64..0.8,
        seed in any::<u64>(),
    ) {
        const FEATURES: [usize; 6] = [1, 17, 63, 64, 65, 130];
        let shape = TensorShape::new(t, n, FEATURES[d_index % FEATURES.len()]);
        let spikes = random_tensor(shape, density, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let weight = DenseMatrix::random_uniform(shape.features, d_out, 1.0, &mut rng);
        for ti in 0..shape.timesteps {
            let word = spike_matmul(&spikes, ti, &weight);
            let scalar = spike_matmul_reference(&spikes, ti, &weight);
            // Bit-for-bit: the word-parallel path accumulates the same
            // weights in the same order, so the floats are identical.
            prop_assert_eq!(&word, &scalar);
            // The in-place form overwrites every element of a dirty plane
            // (a surviving NaN would compare unequal).
            let mut dirty = DenseMatrix::from_fn(shape.tokens, d_out, |_, _| f32::NAN);
            spike_matmul_into(&spikes, ti, &weight, &mut dirty);
            prop_assert_eq!(&dirty, &scalar);
        }
    }

    #[test]
    fn zero_skipping_scores_match_reference_on_sparse_heads(
        n in 1usize..12,
        width_index in 0usize..5,
        offset in 1usize..64,
        empty_mode in 0usize..3,
        seed in any::<u64>(),
    ) {
        // One head of `width` features starting at an unaligned bit offset
        // inside a wider row whose other features are dense. Within the
        // head, Q rows, K rows, or a random 60 % of both are entirely
        // empty; the rest are either dense or so sparse that whole words of
        // a multi-word head row are zero while another is not. The rows the
        // kernel skips must score exactly the reference's 0.0, and no row
        // with a spike anywhere in the head may be skipped.
        const WIDTHS: [usize; 5] = [4, 32, 64, 96, 200];
        let width = WIDTHS[width_index];
        let (d0, d1) = (offset, offset + width);
        let shape = TensorShape::new(2, n, d1 + 7);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut operand = |always_empty: bool| {
            let row_density: Vec<f64> = (0..shape.timesteps * n)
                .map(|_| {
                    if always_empty || (empty_mode == 2 && rng.gen_bool(0.6)) {
                        0.0
                    } else if rng.gen_bool(0.5) {
                        0.015
                    } else {
                        0.3
                    }
                })
                .collect();
            SpikeTensor::from_fn(shape, |t, i, d| {
                let inside = (d0..d1).contains(&d);
                rng.gen_bool(if inside { row_density[t * n + i] } else { 0.8 })
            })
        };
        let q = operand(empty_mode == 0);
        let k = operand(empty_mode == 1);
        let head = |x: &SpikeTensor| {
            SpikeTensor::from_fn(TensorShape::new(2, n, width), |t, i, d| x.get(t, i, d0 + d))
        };
        let (qh, kh) = (head(&q), head(&k));
        for t in 0..shape.timesteps {
            let word = SpikingSelfAttention::attention_scores_in(&q, &k, t, d0, d1);
            let scalar = SpikingSelfAttention::attention_scores_reference(&qh, &kh, t);
            prop_assert_eq!(word, scalar);
        }
    }

    #[test]
    fn streamed_forward_matches_lif_over_integration_planes(
        t in 1usize..5,
        n in 1usize..8,
        d_index in 0usize..6,
        d_out_index in 0usize..5,
        density in 0.0f64..0.8,
        seed in any::<u64>(),
    ) {
        // Output planes that are not a whole number of spike words, so each
        // timestep's fired bits are shifted into place: the one-plane
        // streamed loop must equal materialising every integration plane
        // and running the LIF stage over them.
        const FEATURES: [usize; 6] = [1, 17, 63, 64, 65, 130];
        const D_OUT: [usize; 5] = [1, 5, 17, 33, 65];
        let d_out = D_OUT[d_out_index];
        prop_assert!(
            !(n * d_out).is_multiple_of(64),
            "odd widths × n < 64 never fill a word"
        );
        let shape = TensorShape::new(t, n, FEATURES[d_index]);
        let x = random_tensor(shape, density, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11F);
        let weight = DenseMatrix::random_uniform(shape.features, d_out, 1.0, &mut rng);
        let lif = LifConfig::new(0.6, 0.05);
        let planes: Vec<DenseMatrix> = (0..t).map(|ti| spike_matmul(&x, ti, &weight)).collect();
        let expected = lif_over_time(&planes, lif);
        let streamed = SpikingLinear::from_weight(weight, lif).forward(&x);
        prop_assert_eq!(streamed, expected);
    }

    #[test]
    fn select_accumulate_matches_reference(
        n in 1usize..8,
        d_index in 0usize..6,
        head_dim in 1usize..33,
        density in 0.0f64..0.8,
        scale_raw in -4.0f32..4.0,
        seed in any::<u64>(),
    ) {
        // The masked-add path of the dispatch table, driven through the SSA
        // S·V accumulation on a head column window [d0, d1) of a wider value
        // tensor — exactly the slice geometry the parallel stepper uses.
        const FEATURES: [usize; 6] = [1, 17, 63, 64, 65, 130];
        let d_lo = FEATURES[d_index % FEATURES.len()];
        let features = d_lo.max(head_dim);
        let d0 = features - head_dim.min(features);
        let shape = TensorShape::new(1, n, features);
        let v = random_tensor(shape, density, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xACC);
        let s = DenseMatrix::random_uniform(n, n, 1.0, &mut rng);
        let base = DenseMatrix::random_uniform(n, features, 1.0, &mut rng);
        let mut word = base.clone();
        let mut scalar = base.clone();
        select_accumulate(&mut word, &s, scale_raw, &v, 0, d0, features);
        select_accumulate_reference(&mut scalar, &s, scale_raw, &v, 0, d0, features);
        prop_assert_eq!(word, scalar);
    }
}

/// The Q/K a full SSA forward pass produces (sparse, LIF-generated spikes
/// rather than uniform noise) score identically through the zero-skipping
/// word kernel and the scalar reference on materialised head slices.
#[test]
fn forward_qk_scores_match_reference_head_slices() {
    let mut rng = StdRng::seed_from_u64(77);
    for (features, heads) in [(24, 2), (96, 4), (130, 2)] {
        let ssa = SpikingSelfAttention::random(features, heads, 2, LifConfig::default(), &mut rng);
        let shape = TensorShape::new(3, 7, features);
        let x = random_tensor(shape, 0.35, 1000 + features as u64);
        let out = ssa.forward(&x);
        let head_dim = features / heads;
        for h in 0..heads {
            let qh = out.q.head_slice(h, heads);
            let kh = out.k.head_slice(h, heads);
            for t in 0..shape.timesteps {
                let (d0, d1) = (h * head_dim, (h + 1) * head_dim);
                let word = SpikingSelfAttention::attention_scores_in(&out.q, &out.k, t, d0, d1);
                let reference = SpikingSelfAttention::attention_scores_reference(&qh, &kh, t);
                assert_eq!(
                    word, reference,
                    "scores diverged at head {h}, t {t}, features {features}"
                );
            }
        }
    }
}
