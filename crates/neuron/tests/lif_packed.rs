//! The packed spike generator against the per-neuron oracle.
//!
//! `LifLayer::step_packed` (one SIMD `lif_step` kernel call per layer) and
//! everything built on it — `LifLayer::step`, `LifLayer::step_planes`,
//! `lif_over_time` — must reproduce, spike for spike and membrane bit for
//! membrane bit, what one [`LifNeuron`] per position computes. Shapes are
//! drawn so that `N·D % 64 != 0` is the common case: planes then start at
//! varying bit offsets of the output tensor (the shifted deposit) and the
//! final word carries tail bits that must stay clear.

use bishop_neuron::{lif_over_time, LifConfig, LifLayer, LifNeuron};
use bishop_spiketensor::{DenseMatrix, SpikeTensor, TensorShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// LIF configurations: the serving default plus non-zero leak and reset.
fn config(index: usize) -> LifConfig {
    match index {
        0 => LifConfig::default(),
        1 => LifConfig::new(0.75, 0.125),
        _ => LifConfig {
            v_threshold: 1.5,
            v_leak: 0.0625,
            v_reset: -0.25,
            v_floor: -1.0,
        },
    }
}

/// Synaptic inputs around the threshold, salted with exact-threshold sums
/// (0.5 + 0.5, 0.25 + 0.75), deep inhibition (floor clamp), signed zeros
/// and denormals.
fn synaptic_inputs(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.gen_range(0..12) {
            0 => -0.0,
            1 => 0.0,
            2 => f32::MIN_POSITIVE / 2.0,
            3 => 0.5,
            4 => 0.25,
            5 => 0.75,
            6 => -50.0,
            _ => rng.gen_range(-1.0_f32..2.0),
        })
        .collect()
}

fn bits_of(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lif_over_time_equals_the_per_neuron_oracle(
        timesteps in 1usize..6,
        tokens in 1usize..10,
        features in 1usize..80,
        config_index in 0usize..3,
        seed in any::<u64>(),
    ) {
        let config = config(config_index);
        let mut rng = StdRng::seed_from_u64(seed);
        let planes: Vec<DenseMatrix> = (0..timesteps)
            .map(|_| {
                let flat = synaptic_inputs(tokens * features, &mut rng);
                DenseMatrix::from_fn(tokens, features, |n, d| flat[n * features + d])
            })
            .collect();

        let mut neurons = vec![LifNeuron::new(config); tokens * features];
        let mut fired = Vec::with_capacity(timesteps * tokens * features);
        for plane in &planes {
            for (neuron, &input) in neurons.iter_mut().zip(plane.as_slice()) {
                fired.push(neuron.step(input));
            }
        }
        let shape = TensorShape::new(timesteps, tokens, features);
        let expected = SpikeTensor::from_fn(shape, |t, n, d| fired[shape.linear_index(t, n, d)]);

        // Word-for-word equality: also pins the tail bits of the last word.
        let got = lif_over_time(&planes, config);
        prop_assert!(got == expected, "lif_over_time diverged from the oracle for {}", shape);

        // The same planes through a persistent layer, one call per plane,
        // leave the layer on the oracle's membranes.
        let mut layer = LifLayer::new(tokens * features, config);
        for (t, plane) in planes.iter().enumerate() {
            let step = layer.step_planes([plane]);
            for n in 0..tokens {
                for d in 0..features {
                    prop_assert_eq!(step.get(0, n, d), expected.get(t, n, d));
                }
            }
        }
        let oracle_membranes: Vec<f32> = neurons.iter().map(|n| n.membrane_potential()).collect();
        prop_assert_eq!(bits_of(layer.membrane_potentials()), bits_of(&oracle_membranes));
    }

    #[test]
    fn step_packed_equals_step_including_after_resume(
        units in 1usize..200,
        config_index in 0usize..3,
        seed in any::<u64>(),
    ) {
        let config = config(config_index);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut unpacked = LifLayer::new(units, config);
        let mut packed = LifLayer::new(units, config);
        let mut words = vec![u64::MAX; units.div_ceil(64)];
        for step in 0..4 {
            if step == 2 {
                // Park and resume the packed layer mid-trajectory.
                packed = LifLayer::from_potentials(config, packed.into_potentials());
            }
            let input = synaptic_inputs(units, &mut rng);
            let fired = unpacked.step(&input);
            packed.step_packed(&input, &mut words);
            for (i, &bit) in fired.iter().enumerate() {
                prop_assert_eq!((words[i / 64] >> (i % 64)) & 1 == 1, bit);
            }
            if !units.is_multiple_of(64) {
                prop_assert!(words[units / 64] >> (units % 64) == 0, "tail bits set");
            }
            prop_assert_eq!(
                bits_of(packed.membrane_potentials()),
                bits_of(unpacked.membrane_potentials())
            );
        }
    }
}
