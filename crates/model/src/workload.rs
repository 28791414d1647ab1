//! Layer-by-layer workload descriptions consumed by the accelerator models.
//!
//! A [`ModelWorkload`] is the bridge between the algorithm side (functional
//! spiking transformer execution, or statistically calibrated synthetic
//! traces) and the hardware side (the Bishop and PTB simulators). Each entry
//! carries the binary input operands and the weight geometry of one layer —
//! exactly the information the paper's analytic architecture model traces.

use bishop_spiketensor::{SpikeTensor, TensorShape};
use rand::Rng;

use bishop_spiketensor::{SpikeTraceGenerator, TraceProfile};

use crate::config::ModelConfig;

/// Which stage of an encoder block a layer belongs to.
///
/// The labels mirror Fig. 11 of the paper: `P1` is the Q/K/V projection,
/// `ATN` the spiking self-attention layer, `P2` the attention output
/// projection, and `MLP` the two MLP linear layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Q/K/V linear projections (grouped, `D → 3D`).
    QkvProjection,
    /// The spiking attention computation (`S = Q·Kᵀ`, `Y = S·V`).
    Attention,
    /// Attention output projection `W_O` (`D → D`).
    OutputProjection,
    /// First MLP linear layer (`D → r·D`).
    MlpFc1,
    /// Second MLP linear layer (`r·D → D`).
    MlpFc2,
}

impl LayerKind {
    /// The grouping label used in the paper's per-layer figures
    /// (`P1`/`ATN`/`P2`/`MLP`).
    pub fn group_label(&self) -> &'static str {
        match self {
            LayerKind::QkvProjection => "P1",
            LayerKind::Attention => "ATN",
            LayerKind::OutputProjection => "P2",
            LayerKind::MlpFc1 | LayerKind::MlpFc2 => "MLP",
        }
    }

    /// Whether this layer is executed on the dense/sparse TTB cores (true)
    /// or on the attention core (false).
    pub fn is_projection_like(&self) -> bool {
        !matches!(self, LayerKind::Attention)
    }
}

/// A matrix-multiply-shaped layer (projection or MLP): binary input spikes ×
/// multi-bit weights.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionWorkload {
    /// Encoder block index this layer belongs to.
    pub block: usize,
    /// Stage within the block.
    pub kind: LayerKind,
    /// Human-readable label, e.g. `"block2.P1"`.
    pub label: String,
    /// Binary input activations, `T × N × D_in`.
    pub input: SpikeTensor,
    /// Output feature count `D_out` (weight matrix is `D_in × D_out`).
    pub output_features: usize,
    /// Weight precision in bits.
    pub weight_bits: usize,
}

impl ProjectionWorkload {
    /// Input feature count `D_in`.
    pub fn input_features(&self) -> usize {
        self.input.shape().features
    }

    /// Number of synaptic accumulation operations if no sparsity is
    /// exploited: `T · N · D_in · D_out`.
    pub fn dense_ops(&self) -> u64 {
        let s = self.input.shape();
        (s.timesteps * s.tokens * s.features) as u64 * self.output_features as u64
    }

    /// Number of accumulations when zero input spikes are skipped:
    /// `nnz(input) · D_out`.
    pub fn spike_ops(&self) -> u64 {
        self.input.count_ones() as u64 * self.output_features as u64
    }

    /// Size in bytes of the layer's weight matrix.
    pub fn weight_bytes(&self) -> u64 {
        (self.input_features() * self.output_features * self.weight_bits) as u64 / 8
    }
}

/// A spiking self-attention layer workload: the binary Q/K/V operands of all
/// heads of one block.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionWorkload {
    /// Encoder block index.
    pub block: usize,
    /// Human-readable label, e.g. `"block2.ATN"`.
    pub label: String,
    /// Spiking queries, `T × N × D`.
    pub q: SpikeTensor,
    /// Spiking keys, `T × N × D`.
    pub k: SpikeTensor,
    /// Spiking values, `T × N × D`.
    pub v: SpikeTensor,
    /// Number of attention heads.
    pub heads: usize,
    /// Bit width of the integer attention scores (6–10 bits in the paper).
    pub score_bits: usize,
}

impl AttentionWorkload {
    /// Activation shape shared by Q, K and V.
    pub fn shape(&self) -> TensorShape {
        self.q.shape()
    }

    /// AND-accumulate operations to compute `S = Q·Kᵀ` densely:
    /// `T · N² · D` (summed over heads, since head dims add up to `D`).
    pub fn score_ops(&self) -> u64 {
        let s = self.shape();
        (s.timesteps * s.tokens * s.tokens * s.features) as u64
    }

    /// Select-accumulate operations to compute `Y = S·V` densely:
    /// also `T · N² · D`.
    pub fn output_ops(&self) -> u64 {
        self.score_ops()
    }

    /// Total dense attention operations.
    pub fn dense_ops(&self) -> u64 {
        self.score_ops() + self.output_ops()
    }
}

/// One layer of a model workload.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerWorkload {
    /// Projection/MLP layer executed on the dense/sparse TTB cores.
    Projection(ProjectionWorkload),
    /// Attention layer executed on the TTB attention core.
    Attention(AttentionWorkload),
}

impl LayerWorkload {
    /// The encoder block the layer belongs to.
    pub fn block(&self) -> usize {
        match self {
            LayerWorkload::Projection(p) => p.block,
            LayerWorkload::Attention(a) => a.block,
        }
    }

    /// The layer's stage kind.
    pub fn kind(&self) -> LayerKind {
        match self {
            LayerWorkload::Projection(p) => p.kind,
            LayerWorkload::Attention(_) => LayerKind::Attention,
        }
    }

    /// The layer's label.
    pub fn label(&self) -> &str {
        match self {
            LayerWorkload::Projection(p) => &p.label,
            LayerWorkload::Attention(a) => &a.label,
        }
    }

    /// Dense operation count of the layer (no sparsity exploited).
    pub fn dense_ops(&self) -> u64 {
        match self {
            LayerWorkload::Projection(p) => p.dense_ops(),
            LayerWorkload::Attention(a) => a.dense_ops(),
        }
    }
}

/// Statistical description used to synthesise a [`ModelWorkload`] without
/// running (or training) the functional model. The densities come from the
/// per-dataset calibration tables in `bishop-bundle::calibrate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticTraceSpec {
    /// Firing density of encoder-block inputs (MLP/projection inputs).
    pub input_density: f64,
    /// Firing density of the spiking queries.
    pub q_density: f64,
    /// Firing density of the spiking keys.
    pub k_density: f64,
    /// Firing density of the spiking values.
    pub v_density: f64,
    /// Firing density of the MLP hidden activations.
    pub hidden_density: f64,
    /// Per-feature density spread (0 = uniform; 2–3 = heavy tailed).
    pub feature_spread: f64,
    /// Fraction of completely silent features.
    pub silent_fraction: f64,
    /// Spatiotemporal clustering `(timesteps, tokens, boost)` applied to all
    /// generated traces, mirroring the bundle-friendly firing structure.
    pub cluster: (usize, usize, f64),
}

impl SyntheticTraceSpec {
    /// A uniform spec where every tensor has the same density and no
    /// structure. Useful for unit tests and controlled sweeps.
    pub fn uniform(density: f64) -> Self {
        Self {
            input_density: density,
            q_density: density,
            k_density: density,
            v_density: density,
            hidden_density: density,
            feature_spread: 0.0,
            silent_fraction: 0.0,
            cluster: (1, 1, 1.0),
        }
    }

    fn profile(&self, density: f64) -> TraceProfile {
        TraceProfile::new(density.clamp(0.0, 1.0))
            .with_feature_spread(self.feature_spread)
            .with_silent_features(self.silent_fraction)
            .with_clustering(self.cluster.0, self.cluster.1, self.cluster.2)
    }
}

/// The full per-layer workload of one model inference.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelWorkload {
    /// The model configuration the workload belongs to.
    pub config: ModelConfig,
    /// Layers in execution order.
    pub layers: Vec<LayerWorkload>,
}

impl ModelWorkload {
    /// Creates an empty workload for `config`.
    pub fn new(config: ModelConfig) -> Self {
        Self {
            config,
            layers: Vec::new(),
        }
    }

    /// Generates a synthetic workload whose traces follow `spec`.
    ///
    /// Per encoder block, the generated layers are: `P1` (Q/K/V projection),
    /// `ATN`, `P2` (output projection), `MLP` fc1 and fc2 — the same five
    /// entries the paper's per-layer evaluation (Fig. 11) uses.
    pub fn synthetic<R: Rng>(config: &ModelConfig, spec: &SyntheticTraceSpec, rng: &mut R) -> Self {
        let shape = config.activation_shape();
        let hidden_shape = shape.with_features(config.mlp_hidden());
        let mut layers = Vec::new();
        for block in 0..config.blocks {
            let input =
                SpikeTraceGenerator::new(spec.profile(spec.input_density)).generate(shape, rng);
            layers.push(LayerWorkload::Projection(ProjectionWorkload {
                block,
                kind: LayerKind::QkvProjection,
                label: format!("block{block}.P1"),
                input,
                output_features: 3 * config.features,
                weight_bits: config.weight_bits,
            }));

            let q = SpikeTraceGenerator::new(spec.profile(spec.q_density)).generate(shape, rng);
            let k = SpikeTraceGenerator::new(spec.profile(spec.k_density)).generate(shape, rng);
            let v = SpikeTraceGenerator::new(spec.profile(spec.v_density)).generate(shape, rng);
            layers.push(LayerWorkload::Attention(AttentionWorkload {
                block,
                label: format!("block{block}.ATN"),
                q,
                k,
                v,
                heads: config.heads,
                score_bits: score_bits_for(config),
            }));

            let attn_out =
                SpikeTraceGenerator::new(spec.profile(spec.input_density)).generate(shape, rng);
            layers.push(LayerWorkload::Projection(ProjectionWorkload {
                block,
                kind: LayerKind::OutputProjection,
                label: format!("block{block}.P2"),
                input: attn_out,
                output_features: config.features,
                weight_bits: config.weight_bits,
            }));

            let mlp_in =
                SpikeTraceGenerator::new(spec.profile(spec.input_density)).generate(shape, rng);
            layers.push(LayerWorkload::Projection(ProjectionWorkload {
                block,
                kind: LayerKind::MlpFc1,
                label: format!("block{block}.MLP.fc1"),
                input: mlp_in,
                output_features: config.mlp_hidden(),
                weight_bits: config.weight_bits,
            }));

            let hidden = SpikeTraceGenerator::new(spec.profile(spec.hidden_density))
                .generate(hidden_shape, rng);
            layers.push(LayerWorkload::Projection(ProjectionWorkload {
                block,
                kind: LayerKind::MlpFc2,
                label: format!("block{block}.MLP.fc2"),
                input: hidden,
                output_features: config.features,
                weight_bits: config.weight_bits,
            }));
        }
        Self {
            config: config.clone(),
            layers,
        }
    }

    /// Appends a layer to the workload.
    pub fn push(&mut self, layer: LayerWorkload) {
        self.layers.push(layer);
    }

    /// Layers in execution order.
    pub fn layers(&self) -> &[LayerWorkload] {
        &self.layers
    }

    /// Iterator over the projection-like layers.
    pub fn projection_layers(&self) -> impl Iterator<Item = &ProjectionWorkload> {
        self.layers.iter().filter_map(|l| match l {
            LayerWorkload::Projection(p) => Some(p),
            LayerWorkload::Attention(_) => None,
        })
    }

    /// Iterator over the attention layers.
    pub fn attention_layers(&self) -> impl Iterator<Item = &AttentionWorkload> {
        self.layers.iter().filter_map(|l| match l {
            LayerWorkload::Attention(a) => Some(a),
            LayerWorkload::Projection(_) => None,
        })
    }

    /// Total dense operation count of the workload.
    pub fn total_dense_ops(&self) -> u64 {
        self.layers.iter().map(|l| l.dense_ops()).sum()
    }

    /// Mean firing density across all projection-layer inputs.
    pub fn mean_projection_density(&self) -> f64 {
        let mut total_spikes = 0usize;
        let mut total_positions = 0usize;
        for p in self.projection_layers() {
            total_spikes += p.input.count_ones();
            total_positions += p.input.shape().len();
        }
        if total_positions == 0 {
            0.0
        } else {
            total_spikes as f64 / total_positions as f64
        }
    }
}

/// The paper states attention scores are 6–10-bit integers depending on the
/// model; the maximum possible score is the per-head feature count, so the
/// needed width is `ceil(log2(D/H + 1))` clamped to that range.
pub fn score_bits_for(config: &ModelConfig) -> usize {
    let max_score = config.head_features() as u32;
    ((32 - max_score.leading_zeros()) as usize).clamp(6, 10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_config() -> ModelConfig {
        ModelConfig::new("tiny", crate::DatasetKind::Cifar10, 2, 4, 8, 16, 2)
    }

    #[test]
    fn synthetic_workload_has_five_layers_per_block() {
        let config = tiny_config();
        let mut rng = StdRng::seed_from_u64(1);
        let workload =
            ModelWorkload::synthetic(&config, &SyntheticTraceSpec::uniform(0.2), &mut rng);
        assert_eq!(workload.layers().len(), 5 * config.blocks);
        assert_eq!(workload.projection_layers().count(), 4 * config.blocks);
        assert_eq!(workload.attention_layers().count(), config.blocks);
    }

    #[test]
    fn layer_kinds_follow_paper_grouping() {
        let config = tiny_config();
        let mut rng = StdRng::seed_from_u64(2);
        let workload =
            ModelWorkload::synthetic(&config, &SyntheticTraceSpec::uniform(0.2), &mut rng);
        let labels: Vec<&str> = workload.layers()[..5]
            .iter()
            .map(|l| l.kind().group_label())
            .collect();
        assert_eq!(labels, vec!["P1", "ATN", "P2", "MLP", "MLP"]);
    }

    #[test]
    fn projection_op_counts_match_formula() {
        let config = tiny_config();
        let mut rng = StdRng::seed_from_u64(3);
        let workload =
            ModelWorkload::synthetic(&config, &SyntheticTraceSpec::uniform(0.5), &mut rng);
        let p1 = workload.projection_layers().next().unwrap();
        assert_eq!(
            p1.dense_ops(),
            (4 * 8 * 16) as u64 * (3 * 16) as u64,
            "P1 dense ops = T*N*D * 3D"
        );
        assert!(p1.spike_ops() <= p1.dense_ops());
        assert_eq!(p1.weight_bytes(), (16 * 48) as u64);
    }

    #[test]
    fn attention_op_counts_match_formula() {
        let config = tiny_config();
        let mut rng = StdRng::seed_from_u64(4);
        let workload =
            ModelWorkload::synthetic(&config, &SyntheticTraceSpec::uniform(0.5), &mut rng);
        let attn = workload.attention_layers().next().unwrap();
        assert_eq!(attn.score_ops(), (4 * 8 * 8 * 16) as u64);
        assert_eq!(attn.dense_ops(), 2 * attn.score_ops());
    }

    #[test]
    fn densities_follow_spec() {
        let config = ModelConfig::new("tiny", crate::DatasetKind::Cifar10, 1, 8, 32, 64, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut spec = SyntheticTraceSpec::uniform(0.3);
        spec.k_density = 0.05;
        let workload = ModelWorkload::synthetic(&config, &spec, &mut rng);
        let attn = workload.attention_layers().next().unwrap();
        assert!(attn.q.density() > 0.2);
        assert!(attn.k.density() < 0.12);
        assert!((workload.mean_projection_density() - 0.3).abs() < 0.1);
    }

    #[test]
    fn score_bits_are_clamped_to_paper_range() {
        assert_eq!(score_bits_for(&ModelConfig::model1_cifar10()), 6); // head dim 48 -> 6 bits
        assert_eq!(score_bits_for(&ModelConfig::model3_imagenet100()), 6); // head dim 16 -> 6 (clamped)
        let wide = ModelConfig::new("wide", crate::DatasetKind::Cifar10, 1, 1, 4, 2048, 2);
        assert_eq!(score_bits_for(&wide), 10); // head dim 1024 -> 11 bits clamped to 10
    }

    #[test]
    fn total_dense_ops_sums_layers() {
        let config = tiny_config();
        let mut rng = StdRng::seed_from_u64(6);
        let workload =
            ModelWorkload::synthetic(&config, &SyntheticTraceSpec::uniform(0.2), &mut rng);
        let sum: u64 = workload.layers().iter().map(|l| l.dense_ops()).sum();
        assert_eq!(workload.total_dense_ops(), sum);
        assert!(sum > 0);
    }

    #[test]
    fn kind_predicates() {
        assert!(LayerKind::MlpFc1.is_projection_like());
        assert!(!LayerKind::Attention.is_projection_like());
        assert_eq!(LayerKind::MlpFc2.group_label(), "MLP");
    }
}
