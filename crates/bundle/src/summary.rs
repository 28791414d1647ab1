//! Per-layer count summaries: everything the accelerator cost model reads
//! of a layer's spike tensors.
//!
//! The stratifier routes a projection feature by its count of active
//! bundles, and ECP keeps a Q/K bundle row by its count `n_ab` of active
//! bundles. Those counts, plus the layer's geometry, are all a simulator
//! needs; a [`LayerSummary`] holds exactly them, so scheduling a layer never
//! touches its tensors.
//!
//! Each tensor is read in one pass, one bundle row `(bt, bn)` at a time: the
//! row's `BSt × BSn` feature rows are ORed into one activity row (a feature
//! is active in the bundle exactly when its activity bit is set), and each
//! feature row's set bits add to the per-feature spike counts. The counts
//! equal those [`TtbTags`](crate::TtbTags) derives from its full tag array.

use bishop_model::{AttentionWorkload, LayerKind, LayerWorkload, ProjectionWorkload};
use bishop_spiketensor::words::simd;
use bishop_spiketensor::{SpikeTensor, TensorShape};

use crate::ttb::{BundleShape, TtbGrid};

/// The counts of one projection/MLP layer's input spikes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjectionSummary {
    /// Encoder block index this layer belongs to.
    pub block: usize,
    /// Stage within the block.
    pub kind: LayerKind,
    /// Human-readable label, e.g. `"block2.P1"`.
    pub label: String,
    /// Input activation shape, `T × N × D_in`.
    pub shape: TensorShape,
    /// Size in bytes of the packed input bitmap.
    pub packed_bytes: usize,
    /// Output feature count `D_out`.
    pub output_features: usize,
    /// Weight precision in bits.
    pub weight_bits: usize,
    /// Active bundles per input feature, in feature order.
    pub active_per_feature: Vec<usize>,
    /// Spikes per input feature, in feature order.
    pub spikes_per_feature: Vec<usize>,
    /// Number of bundles across all features.
    pub total_bundles: usize,
}

impl ProjectionSummary {
    /// Summarises `layer` under bundle shape `bundle`.
    pub fn from_workload(layer: &ProjectionWorkload, bundle: BundleShape) -> Self {
        let shape = layer.input.shape();
        let (active_per_feature, spikes_per_feature) = feature_counts(&layer.input, bundle);
        Self {
            block: layer.block,
            kind: layer.kind,
            label: layer.label.clone(),
            shape,
            packed_bytes: layer.input.packed_bytes(),
            output_features: layer.output_features,
            weight_bits: layer.weight_bits,
            active_per_feature,
            spikes_per_feature,
            total_bundles: TtbGrid::new(shape, bundle).total_bundles(),
        }
    }
}

/// The counts of one spiking self-attention layer's queries and keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttentionSummary {
    /// Encoder block index.
    pub block: usize,
    /// Human-readable label, e.g. `"block2.ATN"`.
    pub label: String,
    /// Activation shape shared by Q, K and V.
    pub shape: TensorShape,
    /// Number of attention heads.
    pub heads: usize,
    /// Bit width of the integer attention scores.
    pub score_bits: usize,
    /// The bundle shape the row counts were taken under.
    pub bundle: BundleShape,
    /// Active bundles `n_ab` of every Q bundle row, indexed
    /// `bt * token_bundles + bn`.
    pub q_active_per_row: Vec<usize>,
    /// Active bundles `n_ab` of every K bundle row, indexed like
    /// [`AttentionSummary::q_active_per_row`].
    pub k_active_per_row: Vec<usize>,
}

impl AttentionSummary {
    /// Summarises `layer` under bundle shape `bundle`.
    pub fn from_workload(layer: &AttentionWorkload, bundle: BundleShape) -> Self {
        Self {
            block: layer.block,
            label: layer.label.clone(),
            shape: layer.shape(),
            heads: layer.heads,
            score_bits: layer.score_bits,
            bundle,
            q_active_per_row: row_counts(&layer.q, bundle),
            k_active_per_row: row_counts(&layer.k, bundle),
        }
    }

    /// AND-accumulate operations to compute `S = Q·Kᵀ` densely:
    /// `T · N² · D`.
    pub fn score_ops(&self) -> u64 {
        let s = self.shape;
        (s.timesteps * s.tokens * s.tokens * s.features) as u64
    }
}

/// The counts of one layer of a model workload.
///
/// ```
/// use bishop_bundle::{BundleShape, LayerSummary, TtbTags};
/// use bishop_model::{LayerKind, LayerWorkload, ProjectionWorkload};
/// use bishop_spiketensor::{SpikeTensor, TensorShape};
///
/// let input = SpikeTensor::from_fn(TensorShape::new(4, 8, 3), |t, n, d| (t + n + d) % 5 == 0);
/// let bundle = BundleShape::new(2, 4);
/// let tags = TtbTags::from_tensor(&input, bundle);
/// let layer = LayerWorkload::Projection(ProjectionWorkload {
///     block: 0,
///     kind: LayerKind::QkvProjection,
///     label: "block0.P1".to_string(),
///     input,
///     output_features: 9,
///     weight_bits: 8,
/// });
/// let LayerSummary::Projection(summary) = LayerSummary::summarise(&layer, bundle) else {
///     unreachable!("a projection summarises as a projection");
/// };
/// assert_eq!(summary.active_per_feature, tags.active_per_feature());
/// assert_eq!(summary.spikes_per_feature, tags.spikes_per_feature());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerSummary {
    /// Projection/MLP layer executed on the dense/sparse TTB cores.
    Projection(ProjectionSummary),
    /// Attention layer executed on the TTB attention core.
    Attention(AttentionSummary),
}

impl LayerSummary {
    /// Summarises `layer` under bundle shape `bundle`, reading each of its
    /// counted tensors once.
    pub fn summarise(layer: &LayerWorkload, bundle: BundleShape) -> Self {
        match layer {
            LayerWorkload::Projection(p) => {
                Self::Projection(ProjectionSummary::from_workload(p, bundle))
            }
            LayerWorkload::Attention(a) => {
                Self::Attention(AttentionSummary::from_workload(a, bundle))
            }
        }
    }
}

/// Active bundles and spikes per feature of `tensor`, both in feature
/// order. Equal to [`TtbTags::active_per_feature`] and
/// [`TtbTags::spikes_per_feature`] of the tagged tensor.
///
/// [`TtbTags::active_per_feature`]: crate::TtbTags::active_per_feature
/// [`TtbTags::spikes_per_feature`]: crate::TtbTags::spikes_per_feature
pub(crate) fn feature_counts(
    tensor: &SpikeTensor,
    bundle: BundleShape,
) -> (Vec<usize>, Vec<usize>) {
    let kernels = simd::active();
    let features = tensor.shape().features;
    // A count never exceeds `T · N`, which fits the kernel's u32 lanes for
    // any tensor that fits in memory.
    let mut active = vec![0u32; features];
    let mut spikes = vec![0u32; features];
    for_each_bundle_row(
        tensor,
        bundle,
        |row| kernels.masked_inc(&mut spikes, row),
        |activity| kernels.masked_inc(&mut active, activity),
    );
    let widen = |counts: Vec<u32>| counts.into_iter().map(|c| c as usize).collect();
    (widen(active), widen(spikes))
}

/// Active bundles `n_ab` of every bundle row of `tensor`, counted across
/// all features and indexed `bt * token_bundles + bn`. Equal to
/// [`TtbTags::active_per_row`](crate::TtbTags::active_per_row).
pub(crate) fn row_counts(tensor: &SpikeTensor, bundle: BundleShape) -> Vec<usize> {
    let kernels = simd::active();
    let mut counts = Vec::with_capacity(TtbGrid::new(tensor.shape(), bundle).bundles_per_feature());
    for_each_bundle_row(
        tensor,
        bundle,
        |_| {},
        |activity| counts.push(kernels.popcount(activity) as usize),
    );
    counts
}

/// Walks the bundle rows of `tensor` in index order (`bt` outer, `bn`
/// inner). Each of a bundle row's feature rows goes to `on_row`, then the OR
/// of them to `on_bundle_row`. Both see logical row words with the tail bits
/// beyond `D` clear: direct word slices when `D % 64 == 0` (rows are then
/// word-aligned), words assembled through `RowBits` otherwise.
fn for_each_bundle_row(
    tensor: &SpikeTensor,
    bundle: BundleShape,
    mut on_row: impl FnMut(&[u64]),
    mut on_bundle_row: impl FnMut(&[u64]),
) {
    let shape = tensor.shape();
    let row_len = shape.features.div_ceil(64);
    let aligned = shape.features.is_multiple_of(64);
    let mut activity = vec![0u64; row_len];
    let mut assembled = vec![0u64; row_len];
    for t0 in (0..shape.timesteps).step_by(bundle.timesteps) {
        let t1 = (t0 + bundle.timesteps).min(shape.timesteps);
        for n0 in (0..shape.tokens).step_by(bundle.tokens) {
            let n1 = (n0 + bundle.tokens).min(shape.tokens);
            activity.fill(0);
            for t in t0..t1 {
                for n in n0..n1 {
                    let row: &[u64] = if aligned {
                        let start = (t * shape.tokens + n) * row_len;
                        &tensor.words()[start..start + row_len]
                    } else {
                        let bits = tensor.row_words(t, n);
                        for (i, word) in assembled.iter_mut().enumerate() {
                            *word = bits.word(i);
                        }
                        &assembled
                    };
                    on_row(row);
                    for (active, &word) in activity.iter_mut().zip(row) {
                        *active |= word;
                    }
                }
            }
            on_bundle_row(&activity);
        }
    }
}
