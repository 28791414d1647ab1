//! Residual encoder blocks (SSA block + MLP block).

use bishop_neuron::LifConfig;
use bishop_spiketensor::SpikeTensor;
use rand::Rng;

use crate::forward::{Forward, Scratch};
use crate::mlp::{MlpOutput, SpikingMlp};
use crate::ssa::{SpikingSelfAttention, SsaOutput};

/// All activations produced by one encoder block forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderOutput {
    /// Intermediate tensors of the spiking self-attention block.
    pub ssa: SsaOutput,
    /// Spike tensor entering the MLP block (attention output merged with the
    /// residual path).
    pub mlp_input: SpikeTensor,
    /// Intermediate tensors of the MLP block.
    pub mlp: MlpOutput,
    /// Block output (MLP output merged with its residual path).
    pub output: SpikeTensor,
}

/// One residual encoder block: multi-head spiking self-attention followed by
/// a spiking MLP, each with a residual connection.
///
/// Residuals between *binary* spike tensors are merged with an elementwise
/// OR. (Spikformer-style models add membrane potentials instead; the OR
/// merge keeps every inter-layer tensor binary, which is the property the
/// Bishop hardware — and the SSA formulation in Eq. 7/8 the paper adopts —
/// relies on. The difference does not affect workload statistics, which is
/// what the accelerator evaluation consumes.)
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderBlock {
    ssa: SpikingSelfAttention,
    mlp: SpikingMlp,
}

impl EncoderBlock {
    /// Creates an encoder block with random weights.
    pub fn random<R: Rng>(
        features: usize,
        heads: usize,
        mlp_hidden: usize,
        scale_shift: u32,
        lif: LifConfig,
        rng: &mut R,
    ) -> Self {
        Self {
            ssa: SpikingSelfAttention::random(features, heads, scale_shift, lif, rng),
            mlp: SpikingMlp::random(features, mlp_hidden, lif, rng),
        }
    }

    /// The block's attention sub-module.
    pub fn ssa(&self) -> &SpikingSelfAttention {
        &self.ssa
    }

    /// The block's MLP sub-module.
    pub fn mlp(&self) -> &SpikingMlp {
        &self.mlp
    }

    /// Forward pass with residual merging.
    pub fn forward(&self, input: &SpikeTensor) -> EncoderOutput {
        self.forward_in(input, &mut Forward::standalone(&mut Scratch::default()))
    }

    /// The forward pass every path runs — the fused pass over all `T`
    /// timesteps with fresh membranes, the stepper over one timestep with
    /// its persistent ones.
    pub(crate) fn forward_in(&self, input: &SpikeTensor, ctx: &mut Forward<'_>) -> EncoderOutput {
        let ssa = self.ssa.forward_in(input, ctx);
        let mlp_input = input
            .or(&ssa.output)
            .expect("SSA output shape matches its input shape");
        let mlp = self.mlp.forward_in(&mlp_input, ctx);
        let output = mlp_input
            .or(&mlp.output)
            .expect("MLP output shape matches its input shape");
        EncoderOutput {
            ssa,
            mlp_input,
            mlp,
            output,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_spiketensor::TensorShape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn block() -> EncoderBlock {
        let mut rng = StdRng::seed_from_u64(21);
        EncoderBlock::random(8, 2, 16, 1, LifConfig::default(), &mut rng)
    }

    #[test]
    fn forward_preserves_activation_shape() {
        let shape = TensorShape::new(2, 6, 8);
        let x = SpikeTensor::from_fn(shape, |t, n, d| (t + n + d) % 3 == 0);
        let out = block().forward(&x);
        assert_eq!(out.output.shape(), shape);
        assert_eq!(out.mlp_input.shape(), shape);
        assert_eq!(out.mlp.hidden.shape(), TensorShape::new(2, 6, 16));
    }

    #[test]
    fn residual_or_never_loses_input_spikes() {
        let shape = TensorShape::new(2, 5, 8);
        let x = SpikeTensor::from_fn(shape, |t, n, d| (t * 7 + n * 3 + d) % 4 == 0);
        let out = block().forward(&x);
        // Every input spike must still be present in the block output because
        // the residual path ORs it through both merges.
        for (t, n, d) in x.iter_active() {
            assert!(out.output.get(t, n, d), "residual lost spike ({t},{n},{d})");
        }
    }

    #[test]
    fn zero_input_produces_zero_output() {
        let x = SpikeTensor::zeros(TensorShape::new(2, 4, 8));
        let out = block().forward(&x);
        assert_eq!(out.output.count_ones(), 0);
        assert_eq!(out.ssa.q.count_ones(), 0);
    }

    #[test]
    fn accessors_expose_submodules() {
        let b = block();
        assert_eq!(b.ssa().heads(), 2);
        assert_eq!(b.mlp().hidden(), 16);
    }
}
