//! Spiking MLP blocks.

use bishop_neuron::LifConfig;
use bishop_spiketensor::SpikeTensor;
use rand::Rng;

use crate::forward::{Forward, Scratch};
use crate::projection::SpikingLinear;

/// The spiking MLP block of an encoder: two spiking linear layers with an
/// expansion ratio (`D → r·D → D`), each followed by its LIF stage.
///
/// Complexity is `O(T · N · D · r·D)` per layer — together with the Q/K/V/O
/// projections these are the layers the Bishop dense/sparse TTB cores
/// process.
#[derive(Debug, Clone, PartialEq)]
pub struct SpikingMlp {
    fc1: SpikingLinear,
    fc2: SpikingLinear,
}

/// Intermediate and final activations of an MLP forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpOutput {
    /// Hidden-layer spikes, `T × N × (r·D)`.
    pub hidden: SpikeTensor,
    /// Output spikes, `T × N × D`.
    pub output: SpikeTensor,
}

impl SpikingMlp {
    /// Creates an MLP block with random weights.
    pub fn random<R: Rng>(features: usize, hidden: usize, lif: LifConfig, rng: &mut R) -> Self {
        let scale1 = 1.0 / (features as f32).sqrt();
        let scale2 = 1.0 / (hidden as f32).sqrt();
        Self {
            fc1: SpikingLinear::random(features, hidden, scale1, lif, rng),
            fc2: SpikingLinear::random(hidden, features, scale2, lif, rng),
        }
    }

    /// Creates an MLP block from explicit layers.
    ///
    /// # Panics
    ///
    /// Panics if the layer widths do not chain (`fc1` output ≠ `fc2` input).
    pub fn from_layers(fc1: SpikingLinear, fc2: SpikingLinear) -> Self {
        assert_eq!(
            fc1.out_features(),
            fc2.in_features(),
            "fc1 output width must equal fc2 input width"
        );
        Self { fc1, fc2 }
    }

    /// Embedding feature dimension `D`.
    pub fn features(&self) -> usize {
        self.fc1.in_features()
    }

    /// Hidden dimension `r·D`.
    pub fn hidden(&self) -> usize {
        self.fc1.out_features()
    }

    /// First linear layer.
    pub fn fc1(&self) -> &SpikingLinear {
        &self.fc1
    }

    /// Second linear layer.
    pub fn fc2(&self) -> &SpikingLinear {
        &self.fc2
    }

    /// Forward pass returning both the hidden and output spike tensors.
    pub fn forward(&self, input: &SpikeTensor) -> MlpOutput {
        self.forward_in(input, &mut Forward::standalone(&mut Scratch::default()))
    }

    /// The forward pass every path runs, in the caller's context.
    pub(crate) fn forward_in(&self, input: &SpikeTensor, ctx: &mut Forward<'_>) -> MlpOutput {
        let hidden = self.fc1.forward_in(input, ctx);
        let output = self.fc2.forward_in(&hidden, ctx);
        MlpOutput { hidden, output }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_spiketensor::{DenseMatrix, TensorShape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes_follow_expansion_ratio() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = SpikingMlp::random(8, 32, LifConfig::default(), &mut rng);
        let x = SpikeTensor::from_fn(TensorShape::new(2, 4, 8), |_, n, d| (n + d) % 2 == 0);
        let out = mlp.forward(&x);
        assert_eq!(out.hidden.shape(), TensorShape::new(2, 4, 32));
        assert_eq!(out.output.shape(), TensorShape::new(2, 4, 8));
        assert_eq!(mlp.features(), 8);
        assert_eq!(mlp.hidden(), 32);
    }

    #[test]
    fn zero_input_stays_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = SpikingMlp::random(4, 16, LifConfig::default(), &mut rng);
        let x = SpikeTensor::zeros(TensorShape::new(3, 3, 4));
        let out = mlp.forward(&x);
        assert_eq!(out.hidden.count_ones(), 0);
        assert_eq!(out.output.count_ones(), 0);
    }

    #[test]
    fn from_layers_validates_widths() {
        let fc1 = SpikingLinear::from_weight(DenseMatrix::zeros(4, 8), LifConfig::default());
        let fc2 = SpikingLinear::from_weight(DenseMatrix::zeros(8, 4), LifConfig::default());
        let mlp = SpikingMlp::from_layers(fc1, fc2);
        assert_eq!(mlp.hidden(), 8);
    }

    #[test]
    #[should_panic(expected = "fc1 output width")]
    fn from_layers_rejects_mismatched_widths() {
        let fc1 = SpikingLinear::from_weight(DenseMatrix::zeros(4, 8), LifConfig::default());
        let fc2 = SpikingLinear::from_weight(DenseMatrix::zeros(9, 4), LifConfig::default());
        SpikingMlp::from_layers(fc1, fc2);
    }

    #[test]
    fn saturating_weights_fire_everything() {
        let fc1 = SpikingLinear::from_weight(
            DenseMatrix::from_fn(2, 4, |_, _| 2.0),
            LifConfig::default(),
        );
        let fc2 = SpikingLinear::from_weight(
            DenseMatrix::from_fn(4, 2, |_, _| 2.0),
            LifConfig::default(),
        );
        let mlp = SpikingMlp::from_layers(fc1, fc2);
        let x = SpikeTensor::ones(TensorShape::new(1, 2, 2));
        let out = mlp.forward(&x);
        assert_eq!(out.output.density(), 1.0);
    }
}
