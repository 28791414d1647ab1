//! Golden output digests of the serving-scale model.
//!
//! The spike generator and attention kernels may be re-issued (SIMD tiers,
//! packed outputs, hoisted word assembly) but never re-ordered: every served
//! output must stay bit-identical. The constants below were captured from
//! the commit *before* the word-packed `lif_step` kernel existed, so a
//! kernel that changes a single logit bit, the prediction, or one spike of
//! the final encoder output on any of the fixed inputs fails here — on the
//! fused forward pass and on the timestep stepper alike.

use bishop_model::{DatasetKind, ModelConfig, SpikingTransformer, TransformerStepper};
use bishop_spiketensor::DenseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: [u64; 8] = [0, 1, 2, 3, 7, 42, 1234, 0xB15_40F];

/// Expected digests per timestep count, one per entry of [`SEEDS`].
const GOLDEN: [(usize, [u64; 8]); 2] = [
    (
        4,
        [
            0x0fc0_a80a_0c7a_53a7,
            0x0f19_0c84_1532_8eeb,
            0xde8b_6278_50e5_9930,
            0x8160_e594_2f0c_cb40,
            0x1077_8927_89d5_644d,
            0xfc5c_d2f4_7d79_8bc4,
            0x01ff_a21d_c8dc_69d6,
            0xe4db_eeb5_86f7_0e95,
        ],
    ),
    (
        8,
        [
            0xc9cd_f9bc_ca4b_8b17,
            0xfbd9_2351_6835_2c80,
            0xe68a_1da5_7230_d51c,
            0x52c6_f2d4_5368_6d3a,
            0xbf88_8068_50a9_9ccf,
            0x173d_25e5_a2b8_3a78,
            0xefa3_fd68_de91_8b72,
            0x3cdb_88f2_9fc7_c613,
        ],
    ),
];

/// `cifar10-serve`-shaped model: 2 blocks, N = 64, D = 128, 4 heads.
fn model(timesteps: usize) -> SpikingTransformer {
    let config = ModelConfig::new(
        "cifar10-serve",
        DatasetKind::Cifar10,
        2,
        timesteps,
        64,
        128,
        4,
    );
    let mut rng = StdRng::seed_from_u64(0x5EED_0000 + timesteps as u64);
    SpikingTransformer::random(&config, config.features, 10, &mut rng)
}

fn patches(model: &SpikingTransformer, seed: u64) -> DenseMatrix {
    let config = model.config();
    let mut rng = StdRng::seed_from_u64(seed);
    DenseMatrix::random_uniform(config.tokens, config.features, 1.0, &mut rng)
}

/// FNV-1a over the logits' bit patterns, the prediction, and the final
/// encoder output's spike count at every timestep.
fn digest(logits: &[f32], prediction: usize, spikes_per_step: &[usize]) -> u64 {
    let values = logits
        .iter()
        .map(|v| u64::from(v.to_bits()))
        .chain([prediction as u64])
        .chain(spikes_per_step.iter().map(|&s| s as u64));
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in values {
        for byte in value.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn fused_forward_matches_the_golden_digests() {
    for (timesteps, expected) in GOLDEN {
        let model = model(timesteps);
        let got = SEEDS.map(|seed| {
            let result = model.infer(&patches(&model, seed));
            digest(
                &result.logits,
                result.prediction,
                &result.final_spikes.per_timestep_counts(),
            )
        });
        assert_eq!(got, expected, "fused forward diverged at T={timesteps}");
    }
}

#[test]
fn stepper_matches_the_golden_digests() {
    for (timesteps, expected) in GOLDEN {
        let model = model(timesteps);
        let got = SEEDS.map(|seed| {
            let patches = patches(&model, seed);
            let mut stepper = TransformerStepper::new(&model, &patches);
            let spikes: Vec<usize> = (0..timesteps).map(|_| stepper.step().spikes).collect();
            let readout = stepper.finish();
            digest(&readout.logits, readout.prediction, &spikes)
        });
        assert_eq!(got, expected, "stepper diverged at T={timesteps}");
    }
}
