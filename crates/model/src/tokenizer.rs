//! Spiking tokenizer: turns an analog (or event-based) input into the first
//! `T × N × D` spike tensor of the transformer.
//!
//! The paper's tokenizer is a small spiking convolutional stem
//! (complexity `O(T·H·W·C²·K²)`, §2.2); it is not a bottleneck and not a
//! target of the accelerator, so this reproduction models it at the token
//! granularity: the input is presented as an `N × P` matrix of patch feature
//! vectors (one row per token), which a spiking linear layer projects to the
//! embedding dimension `D` at every timestep, with persistent LIF state
//! across timesteps.

use bishop_neuron::{LifConfig, LifLayer};
use bishop_spiketensor::{DenseMatrix, SpikeTensor};
use rand::Rng;

/// Spiking tokenizer mapping patch features to embedded spike tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct SpikingTokenizer {
    weight: DenseMatrix,
    lif: LifConfig,
    timesteps: usize,
}

impl SpikingTokenizer {
    /// Creates a tokenizer with random projection weights.
    pub fn random<R: Rng>(
        patch_features: usize,
        embed_features: usize,
        timesteps: usize,
        lif: LifConfig,
        rng: &mut R,
    ) -> Self {
        assert!(timesteps > 0, "tokenizer needs at least one timestep");
        let scale = 1.0 / (patch_features as f32).sqrt();
        Self {
            weight: DenseMatrix::random_uniform(patch_features, embed_features, scale, rng),
            lif,
            timesteps,
        }
    }

    /// Creates a tokenizer from an explicit weight matrix.
    pub fn from_weight(weight: DenseMatrix, timesteps: usize, lif: LifConfig) -> Self {
        assert!(timesteps > 0, "tokenizer needs at least one timestep");
        Self {
            weight,
            lif,
            timesteps,
        }
    }

    /// Patch feature dimension expected per token.
    pub fn patch_features(&self) -> usize {
        self.weight.rows()
    }

    /// Output embedding dimension `D`.
    pub fn embed_features(&self) -> usize {
        self.weight.cols()
    }

    /// Number of timesteps of the produced spike tensor.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// The projection weight matrix (`P × D`).
    pub fn weight(&self) -> &DenseMatrix {
        &self.weight
    }

    /// The LIF configuration of the tokenizer's spike generator.
    pub fn lif_config(&self) -> LifConfig {
        self.lif
    }

    /// Tokenises the `N × P` patch matrix into a `T × N × D` spike tensor.
    ///
    /// The analog patch features drive the membrane charge identically at
    /// every timestep (direct encoding); LIF state persists across timesteps
    /// so weakly driven positions fire sparsely and strongly driven positions
    /// fire at a high rate — the standard behaviour of direct-encoded SNNs.
    ///
    /// # Panics
    ///
    /// Panics if the patch feature count differs from the tokenizer's
    /// expected width.
    pub fn tokenize(&self, patches: &DenseMatrix) -> SpikeTensor {
        assert_eq!(
            patches.cols(),
            self.patch_features(),
            "patch width {} does not match tokenizer input width {}",
            patches.cols(),
            self.patch_features()
        );
        let charge = patches.matmul(&self.weight);
        LifLayer::new(charge.rows() * charge.cols(), self.lif)
            .step_planes(std::iter::repeat_n(&charge, self.timesteps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_spiketensor::TensorShape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tokenize_produces_expected_shape() {
        let mut rng = StdRng::seed_from_u64(17);
        let tokenizer = SpikingTokenizer::random(12, 8, 4, LifConfig::default(), &mut rng);
        let patches = DenseMatrix::random_uniform(10, 12, 1.0, &mut rng);
        let spikes = tokenizer.tokenize(&patches);
        assert_eq!(spikes.shape(), TensorShape::new(4, 10, 8));
    }

    #[test]
    fn stronger_patches_fire_at_a_higher_rate() {
        let weight = DenseMatrix::identity(2);
        let tokenizer = SpikingTokenizer::from_weight(weight, 10, LifConfig::default());
        // Token 0 drives feature 0 with 1.5/step, token 1 drives feature 1
        // with 0.3/step.
        let patches = DenseMatrix::from_rows(&[vec![1.5, 0.0], vec![0.0, 0.3]]);
        let spikes = tokenizer.tokenize(&patches);
        let strong_rate = (0..10).filter(|&t| spikes.get(t, 0, 0)).count();
        let weak_rate = (0..10).filter(|&t| spikes.get(t, 1, 1)).count();
        assert!(strong_rate > weak_rate);
        assert!(weak_rate >= 1, "weak input should still fire occasionally");
    }

    #[test]
    fn zero_patches_produce_no_spikes() {
        let tokenizer =
            SpikingTokenizer::from_weight(DenseMatrix::identity(3), 5, LifConfig::default());
        let spikes = tokenizer.tokenize(&DenseMatrix::zeros(4, 3));
        assert_eq!(spikes.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "does not match tokenizer input width")]
    fn mismatched_patch_width_rejected() {
        let tokenizer =
            SpikingTokenizer::from_weight(DenseMatrix::identity(3), 5, LifConfig::default());
        tokenizer.tokenize(&DenseMatrix::zeros(4, 2));
    }

    #[test]
    fn accessors_report_dimensions() {
        let tokenizer =
            SpikingTokenizer::from_weight(DenseMatrix::zeros(6, 9), 3, LifConfig::default());
        assert_eq!(tokenizer.patch_features(), 6);
        assert_eq!(tokenizer.embed_features(), 9);
        assert_eq!(tokenizer.timesteps(), 3);
    }
}
