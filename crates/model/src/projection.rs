//! Spiking linear (projection) layers.

use bishop_neuron::LifConfig;
use bishop_spiketensor::words::simd;
use bishop_spiketensor::{DenseMatrix, SpikeTensor, TensorShape};
use rand::Rng;

use crate::forward::{sized, Forward, Scratch};

/// Multiplies the binary spike plane at timestep `t` (an `N × D_in` 0/1
/// matrix) with a dense `D_in × D_out` weight matrix.
///
/// Because the left operand is binary this is exactly the "select
/// accumulate" computation the Bishop dense core performs: for every active
/// spike `(n, d_in)` the weight row `W[d_in, :]` is accumulated into output
/// row `n`. Allocates the output and fills it with [`spike_matmul_into`].
///
/// # Panics
///
/// Panics if the weight row count differs from the spike tensor's feature
/// count or `t` is out of range.
pub fn spike_matmul(spikes: &SpikeTensor, t: usize, weight: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(spikes.shape().tokens, weight.cols());
    spike_matmul_into(spikes, t, weight, &mut out);
    out
}

/// [`spike_matmul`] into a caller-owned `N × D_out` plane, overwriting
/// whatever it held.
///
/// Spike-proportional and output-stationary: each token's active input
/// features come from the `trailing_zeros` set-bit iterator over its packed
/// row, and the active SIMD tier's `row_accumulate` kernel sums those weight
/// rows with the partial sums held in registers, storing each output row
/// once. Per element the additions run in ascending `d_in` order from `0.0`
/// — bit-for-bit identical to [`spike_matmul_reference`].
///
/// # Panics
///
/// Panics if the weight row count differs from the spike tensor's feature
/// count, `t` is out of range, or `plane` is not `N × D_out`.
pub fn spike_matmul_into(
    spikes: &SpikeTensor,
    t: usize,
    weight: &DenseMatrix,
    plane: &mut DenseMatrix,
) {
    assert_eq!(
        (plane.rows(), plane.cols()),
        (spikes.shape().tokens, weight.cols()),
        "integration plane must be tokens × output features"
    );
    integrate_into(spikes, t, weight, plane.as_mut_slice(), &mut Vec::new());
}

/// The spike tensor's shape, once `t` and the weight's row count fit it.
fn checked_shape(spikes: &SpikeTensor, t: usize, weight: &DenseMatrix) -> TensorShape {
    let shape = spikes.shape();
    assert!(t < shape.timesteps, "timestep {t} out of range");
    assert_eq!(
        weight.rows(),
        shape.features,
        "weight rows ({}) must equal input features ({})",
        weight.rows(),
        shape.features
    );
    shape
}

/// [`spike_matmul_into`] on a flat plane; `active` is the reused buffer of
/// one token's active input features.
pub(crate) fn integrate_into(
    spikes: &SpikeTensor,
    t: usize,
    weight: &DenseMatrix,
    plane: &mut [f32],
    active: &mut Vec<usize>,
) {
    let shape = checked_shape(spikes, t, weight);
    let cols = weight.cols();
    assert_eq!(plane.len(), shape.tokens * cols);
    let kernels = simd::active();
    for (n, out) in plane.chunks_exact_mut(cols).enumerate() {
        active.clear();
        active.extend(spikes.row_words(t, n).iter_set_bits());
        kernels.row_accumulate(out, weight.as_slice(), active);
    }
}

/// Scalar reference implementation of [`spike_matmul`], kept for
/// differential testing and the before/after kernel benchmarks.
pub fn spike_matmul_reference(spikes: &SpikeTensor, t: usize, weight: &DenseMatrix) -> DenseMatrix {
    let shape = checked_shape(spikes, t, weight);
    let mut out = DenseMatrix::zeros(shape.tokens, weight.cols());
    for n in 0..shape.tokens {
        for d_in in 0..shape.features {
            if spikes.get(t, n, d_in) {
                for d_out in 0..weight.cols() {
                    out.add_assign(n, d_out, weight.get(d_in, d_out));
                }
            }
        }
    }
    out
}

/// A spiking linear layer: binary input spikes × multi-bit weights, followed
/// by an LIF neuron layer that re-binarises the synaptic integration.
///
/// This models the MLP and Q/K/V/O projection layers of the spiking
/// transformer (§2.2 of the paper: complexity `O(T·N·D²)`).
///
/// ```
/// use bishop_model::SpikingLinear;
/// use bishop_neuron::LifConfig;
/// use bishop_spiketensor::{DenseMatrix, SpikeTensor, TensorShape};
///
/// let weight = DenseMatrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 0.1]]);
/// let layer = SpikingLinear::from_weight(weight, LifConfig::default());
/// let x = SpikeTensor::ones(TensorShape::new(1, 3, 2));
/// let y = layer.forward(&x);
/// // Feature 0 receives 2.0 > threshold and fires; feature 1 receives 0.1.
/// assert!(y.get(0, 0, 0));
/// assert!(!y.get(0, 0, 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpikingLinear {
    weight: DenseMatrix,
    lif: LifConfig,
}

impl SpikingLinear {
    /// Creates a layer from an explicit weight matrix.
    pub fn from_weight(weight: DenseMatrix, lif: LifConfig) -> Self {
        Self { weight, lif }
    }

    /// Creates a layer with random uniform weights in `[-scale, scale]`.
    pub fn random<R: Rng>(
        in_features: usize,
        out_features: usize,
        scale: f32,
        lif: LifConfig,
        rng: &mut R,
    ) -> Self {
        Self {
            weight: DenseMatrix::random_uniform(in_features, out_features, scale, rng),
            lif,
        }
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.weight.rows()
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.weight.cols()
    }

    /// The layer's weight matrix.
    pub fn weight(&self) -> &DenseMatrix {
        &self.weight
    }

    /// The LIF configuration of the layer's neuron stage.
    pub fn lif_config(&self) -> LifConfig {
        self.lif
    }

    /// Full forward pass: synaptic integration followed by the LIF layer.
    pub fn forward(&self, input: &SpikeTensor) -> SpikeTensor {
        self.forward_in(input, &mut Forward::standalone(&mut Scratch::default()))
    }

    /// The forward pass every path runs: per timestep, integrate into the
    /// one reused scratch plane and fire the layer's spike generator (from
    /// `ctx`) straight into the output tensor's words.
    pub(crate) fn forward_in(&self, input: &SpikeTensor, ctx: &mut Forward<'_>) -> SpikeTensor {
        let shape = input.shape();
        let units = shape.tokens * self.out_features();
        let out_shape = TensorShape::new(shape.timesteps, shape.tokens, self.out_features());
        let Scratch { plane, active, .. } = &mut *ctx.scratch;
        let plane = sized(plane, units);
        ctx.membranes.with_next(units, self.lif, |lif| {
            SpikeTensor::from_plane_words(out_shape, |t, fired| {
                integrate_into(input, t, &self.weight, plane, active);
                lif.step_packed(plane, fired);
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_spiketensor::TensorShape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spike_matmul_accumulates_weight_rows_of_active_inputs() {
        let weight =
            DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]]);
        let mut x = SpikeTensor::zeros(TensorShape::new(1, 2, 3));
        x.set(0, 0, 0, true);
        x.set(0, 0, 2, true);
        x.set(0, 1, 1, true);
        let y = spike_matmul(&x, 0, &weight);
        assert_eq!(y.get(0, 0), 101.0);
        assert_eq!(y.get(0, 1), 202.0);
        assert_eq!(y.get(1, 0), 10.0);
        assert_eq!(y.get(1, 1), 20.0);
    }

    #[test]
    fn spike_matmul_of_empty_input_is_zero() {
        let weight = DenseMatrix::from_rows(&[vec![1.0], vec![1.0]]);
        let x = SpikeTensor::zeros(TensorShape::new(1, 4, 2));
        let y = spike_matmul(&x, 0, &weight);
        assert_eq!(y.sum(), 0.0);
    }

    #[test]
    fn spike_matmul_equals_dense_matmul_on_binary_input() {
        let mut rng = StdRng::seed_from_u64(9);
        let weight = DenseMatrix::random_uniform(6, 5, 1.0, &mut rng);
        let x = SpikeTensor::from_fn(TensorShape::new(2, 4, 6), |t, n, d| (t + n + d) % 3 == 0);
        for t in 0..2 {
            let dense_x = DenseMatrix::from_fn(4, 6, |n, d| if x.get(t, n, d) { 1.0 } else { 0.0 });
            let expected = dense_x.matmul(&weight);
            let got = spike_matmul(&x, t, &weight);
            assert!(expected.max_abs_diff(&got) < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "must equal input features")]
    fn spike_matmul_rejects_mismatched_weight() {
        let weight = DenseMatrix::zeros(3, 3);
        let x = SpikeTensor::zeros(TensorShape::new(1, 2, 2));
        spike_matmul(&x, 0, &weight);
    }

    #[test]
    fn forward_produces_binary_output_of_right_shape() {
        let mut rng = StdRng::seed_from_u64(11);
        let layer = SpikingLinear::random(8, 16, 0.5, LifConfig::default(), &mut rng);
        let x = SpikeTensor::from_fn(TensorShape::new(3, 5, 8), |_, n, d| (n + d) % 2 == 0);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), TensorShape::new(3, 5, 16));
        assert_eq!(layer.in_features(), 8);
        assert_eq!(layer.out_features(), 16);
    }

    #[test]
    fn stronger_weights_fire_more() {
        let weak = SpikingLinear::from_weight(
            DenseMatrix::from_fn(4, 4, |_, _| 0.05),
            LifConfig::default(),
        );
        let strong = SpikingLinear::from_weight(
            DenseMatrix::from_fn(4, 4, |_, _| 0.6),
            LifConfig::default(),
        );
        let x = SpikeTensor::ones(TensorShape::new(4, 4, 4));
        assert!(strong.forward(&x).count_ones() > weak.forward(&x).count_ones());
    }
}
