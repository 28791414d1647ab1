//! The complete spiking transformer: tokenizer, encoder blocks, and
//! classification head, with activation-trace capture.

use bishop_neuron::LifConfig;
use bishop_spiketensor::{DenseMatrix, SpikeTensor};
use rand::Rng;

use crate::config::ModelConfig;
use crate::encoder::EncoderBlock;
use crate::forward::{Forward, Membranes, Scratch};
use crate::parallel::ComputePool;
use crate::tokenizer::SpikingTokenizer;
use crate::workload::{
    score_bits_for, AttentionWorkload, LayerKind, LayerWorkload, ModelWorkload, ProjectionWorkload,
};

/// Result of one end-to-end inference: class logits plus the captured
/// per-layer workload (the activation trace the accelerator simulators run).
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResult {
    /// Per-class logits (average firing rate of the pooled representation
    /// through the classifier).
    pub logits: Vec<f32>,
    /// Index of the highest logit.
    pub prediction: usize,
    /// The captured per-layer workload of this inference.
    pub workload: ModelWorkload,
    /// Final encoder output spikes.
    pub final_spikes: SpikeTensor,
}

/// A complete spiking vision/speech transformer (Fig. 2 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct SpikingTransformer {
    config: ModelConfig,
    tokenizer: SpikingTokenizer,
    blocks: Vec<EncoderBlock>,
    classifier: DenseMatrix,
}

impl SpikingTransformer {
    /// Builds a transformer with random weights for the given configuration.
    ///
    /// `patch_features` is the per-token input feature width the tokenizer
    /// expects (e.g. `4·4·3 = 48` for CIFAR with 4×4 patches).
    pub fn random<R: Rng>(
        config: &ModelConfig,
        patch_features: usize,
        classes: usize,
        rng: &mut R,
    ) -> Self {
        let lif = LifConfig::default();
        let tokenizer =
            SpikingTokenizer::random(patch_features, config.features, config.timesteps, lif, rng);
        let blocks = (0..config.blocks)
            .map(|_| {
                EncoderBlock::random(
                    config.features,
                    config.heads,
                    config.mlp_hidden(),
                    config.scale_shift,
                    lif,
                    rng,
                )
            })
            .collect();
        let classifier = DenseMatrix::random_uniform(
            config.features,
            classes,
            1.0 / (config.features as f32).sqrt(),
            rng,
        );
        Self {
            config: config.clone(),
            tokenizer,
            blocks,
            classifier,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classifier.cols()
    }

    /// The tokenizer stage.
    pub fn tokenizer(&self) -> &SpikingTokenizer {
        &self.tokenizer
    }

    /// The encoder blocks.
    pub fn blocks(&self) -> &[EncoderBlock] {
        &self.blocks
    }

    /// The classification head (`D × classes`).
    pub fn classifier(&self) -> &DenseMatrix {
        &self.classifier
    }

    /// Global-average-pools a spike tensor over time and tokens into a
    /// per-feature firing-rate vector.
    pub fn pool(spikes: &SpikeTensor) -> Vec<f32> {
        let shape = spikes.shape();
        let denom = (shape.timesteps * shape.tokens) as f32;
        spikes
            .per_feature_counts()
            .iter()
            .map(|&c| c as f32 / denom)
            .collect()
    }

    /// The classifier readout of a pooled firing-rate vector: per-class
    /// logits and the index of the highest one.
    pub(crate) fn classify(&self, pooled: Vec<f32>) -> (Vec<f32>, usize) {
        let logits_matrix = DenseMatrix::from_rows(&[pooled]).matmul(&self.classifier);
        let logits: Vec<f32> = logits_matrix.row(0).to_vec();
        let prediction = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("logits are finite"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        (logits, prediction)
    }

    /// Runs inference on an `N × P` patch matrix and captures the per-layer
    /// workload. One scratch set (integration plane, score matrix, head-word
    /// lists) is reused across every timestep, head, layer and block of the
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if the patch matrix has the wrong number of tokens or features.
    pub fn infer(&self, patches: &DenseMatrix) -> InferenceResult {
        assert_eq!(
            patches.rows(),
            self.config.tokens,
            "expected {} tokens, got {}",
            self.config.tokens,
            patches.rows()
        );
        let mut workload = ModelWorkload::new(self.config.clone());
        let mut scratch = Scratch::default();
        let mut ctx = Forward {
            scratch: &mut scratch,
            membranes: Membranes::Fresh,
        };
        let mut x = self.tokenizer.tokenize(patches);

        for (block_index, block) in self.blocks.iter().enumerate() {
            // P1: Q/K/V projection operates on the block input.
            workload.push(LayerWorkload::Projection(ProjectionWorkload {
                block: block_index,
                kind: LayerKind::QkvProjection,
                label: format!("block{block_index}.P1"),
                input: x.clone(),
                output_features: 3 * self.config.features,
                weight_bits: self.config.weight_bits,
            }));

            let out = block.forward_in(&x, &mut ctx);

            workload.push(LayerWorkload::Attention(AttentionWorkload {
                block: block_index,
                label: format!("block{block_index}.ATN"),
                q: out.ssa.q.clone(),
                k: out.ssa.k.clone(),
                v: out.ssa.v.clone(),
                heads: self.config.heads,
                score_bits: score_bits_for(&self.config),
            }));

            workload.push(LayerWorkload::Projection(ProjectionWorkload {
                block: block_index,
                kind: LayerKind::OutputProjection,
                label: format!("block{block_index}.P2"),
                input: out.ssa.o_temp.clone(),
                output_features: self.config.features,
                weight_bits: self.config.weight_bits,
            }));

            workload.push(LayerWorkload::Projection(ProjectionWorkload {
                block: block_index,
                kind: LayerKind::MlpFc1,
                label: format!("block{block_index}.MLP.fc1"),
                input: out.mlp_input.clone(),
                output_features: self.config.mlp_hidden(),
                weight_bits: self.config.weight_bits,
            }));

            workload.push(LayerWorkload::Projection(ProjectionWorkload {
                block: block_index,
                kind: LayerKind::MlpFc2,
                label: format!("block{block_index}.MLP.fc2"),
                input: out.mlp.hidden.clone(),
                output_features: self.config.features,
                weight_bits: self.config.weight_bits,
            }));

            x = out.output;
        }

        let (logits, prediction) = self.classify(Self::pool(&x));
        InferenceResult {
            logits,
            prediction,
            workload,
            final_spikes: x,
        }
    }

    /// [`SpikingTransformer::infer`] for callers that hold a
    /// [`ComputePool`]. The forward pass runs on the calling thread at every
    /// pool width (see [`crate::parallel`]), so the result is the same value
    /// computed the same way.
    ///
    /// # Panics
    ///
    /// Panics if the patch matrix has the wrong number of tokens or features.
    pub fn infer_with(&self, patches: &DenseMatrix, _pool: &ComputePool) -> InferenceResult {
        self.infer(patches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetKind;
    use bishop_spiketensor::TensorShape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> (ModelConfig, SpikingTransformer) {
        let config = ModelConfig::new("tiny", DatasetKind::Cifar10, 2, 3, 8, 16, 2);
        let mut rng = StdRng::seed_from_u64(99);
        let model = SpikingTransformer::random(&config, 12, 10, &mut rng);
        (config, model)
    }

    #[test]
    fn inference_produces_logits_and_workload() {
        let (config, model) = tiny_model();
        let mut rng = StdRng::seed_from_u64(100);
        let patches = DenseMatrix::random_uniform(config.tokens, 12, 1.0, &mut rng);
        let result = model.infer(&patches);
        assert_eq!(result.logits.len(), 10);
        assert!(result.prediction < 10);
        assert_eq!(result.workload.layers().len(), 5 * config.blocks);
        assert_eq!(result.final_spikes.shape(), TensorShape::new(3, 8, 16));
    }

    #[test]
    fn captured_workload_matches_model_dimensions() {
        let (config, model) = tiny_model();
        let mut rng = StdRng::seed_from_u64(101);
        let patches = DenseMatrix::random_uniform(config.tokens, 12, 1.0, &mut rng);
        let result = model.infer(&patches);
        for p in result.workload.projection_layers() {
            assert_eq!(p.input.shape().tokens, config.tokens);
            assert_eq!(p.input.shape().timesteps, config.timesteps);
        }
        for a in result.workload.attention_layers() {
            assert_eq!(a.shape(), config.activation_shape());
            assert_eq!(a.heads, config.heads);
        }
    }

    #[test]
    fn pooling_is_mean_firing_rate() {
        let spikes = SpikeTensor::from_fn(TensorShape::new(2, 2, 3), |_, _, d| d == 0);
        let pooled = SpikingTransformer::pool(&spikes);
        assert_eq!(pooled, vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn inference_is_deterministic() {
        let (config, model) = tiny_model();
        let mut rng = StdRng::seed_from_u64(102);
        let patches = DenseMatrix::random_uniform(config.tokens, 12, 1.0, &mut rng);
        let a = model.infer(&patches);
        let b = model.infer(&patches);
        assert_eq!(a.logits, b.logits);
        assert_eq!(a.prediction, b.prediction);
    }

    #[test]
    #[should_panic(expected = "expected 8 tokens")]
    fn wrong_token_count_is_rejected() {
        let (_, model) = tiny_model();
        let patches = DenseMatrix::zeros(4, 12);
        model.infer(&patches);
    }

    #[test]
    fn accessors_expose_structure() {
        let (config, model) = tiny_model();
        assert_eq!(model.blocks().len(), config.blocks);
        assert_eq!(model.classes(), 10);
        assert_eq!(model.tokenizer().embed_features(), config.features);
        assert_eq!(model.config().name, "tiny");
    }
}
