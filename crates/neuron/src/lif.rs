//! Leaky Integrate-and-Fire dynamics (Eq. 1–2 of the paper).

use bishop_spiketensor::words::simd;
use bishop_spiketensor::{DenseMatrix, LifParams, SpikeTensor, TensorShape};

/// Parameters of the discretised LIF neuron.
///
/// The defaults follow the common spiking-transformer setting: unit firing
/// threshold, no leak (`V_leak = 0` is standard for the Spikformer family the
/// paper builds on), hard reset to zero on firing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifConfig {
    /// Firing threshold `V_th`.
    pub v_threshold: f32,
    /// Constant leak subtracted from the membrane potential each step.
    pub v_leak: f32,
    /// Potential the membrane is reset to after a spike.
    pub v_reset: f32,
    /// Lower clamp for the membrane potential (prevents unbounded negative
    /// drift when inputs are inhibitory for long stretches).
    pub v_floor: f32,
}

impl Default for LifConfig {
    fn default() -> Self {
        Self {
            v_threshold: 1.0,
            v_leak: 0.0,
            v_reset: 0.0,
            v_floor: -4.0,
        }
    }
}

impl LifConfig {
    /// Creates a config with the given threshold and leak, hard reset to 0.
    pub fn new(v_threshold: f32, v_leak: f32) -> Self {
        Self {
            v_threshold,
            v_leak,
            ..Self::default()
        }
    }
}

/// A single LIF neuron holding its membrane potential between timesteps.
#[derive(Debug, Clone, PartialEq)]
pub struct LifNeuron {
    config: LifConfig,
    v_mem: f32,
}

impl LifNeuron {
    /// Creates a neuron at the reset potential.
    pub fn new(config: LifConfig) -> Self {
        Self {
            config,
            v_mem: config.v_reset,
        }
    }

    /// The neuron's configuration.
    pub fn config(&self) -> LifConfig {
        self.config
    }

    /// Current membrane potential.
    pub fn membrane_potential(&self) -> f32 {
        self.v_mem
    }

    /// Integrates one timestep of synaptic input and returns whether the
    /// neuron fired.
    pub fn step(&mut self, synaptic_input: f32) -> bool {
        self.v_mem = (self.v_mem + synaptic_input - self.config.v_leak).max(self.config.v_floor);
        if self.v_mem > self.config.v_threshold {
            self.v_mem = self.config.v_reset;
            true
        } else {
            false
        }
    }

    /// Resets the membrane potential to the reset value.
    pub fn reset(&mut self) {
        self.v_mem = self.config.v_reset;
    }
}

/// An LIF layer covering `units` neurons updated in lock step.
///
/// The Bishop spike generator processes up to 512 such neurons in parallel;
/// this type is the functional model the hardware model is validated against.
#[derive(Debug, Clone, PartialEq)]
pub struct LifLayer {
    config: LifConfig,
    v_mem: Vec<f32>,
}

impl LifLayer {
    /// Creates a layer of `units` neurons at the reset potential.
    pub fn new(units: usize, config: LifConfig) -> Self {
        assert!(units > 0, "an LIF layer needs at least one neuron");
        Self {
            config,
            v_mem: vec![config.v_reset; units],
        }
    }

    /// Resumes a layer from previously exported membrane potentials.
    ///
    /// This is the state-import half of stateful (session) serving: a layer
    /// parked between requests is reconstructed bit-identically from the
    /// potentials [`LifLayer::membrane_potentials`] exported, so stepping it
    /// continues the exact trajectory the exporting layer was on.
    ///
    /// # Panics
    ///
    /// Panics if `v_mem` is empty.
    pub fn from_potentials(config: LifConfig, v_mem: Vec<f32>) -> Self {
        assert!(!v_mem.is_empty(), "an LIF layer needs at least one neuron");
        Self { config, v_mem }
    }

    /// Consumes the layer, returning its membrane potentials (the state-export
    /// half of stateful serving).
    pub fn into_potentials(self) -> Vec<f32> {
        self.v_mem
    }

    /// Number of neurons in the layer.
    pub fn units(&self) -> usize {
        self.v_mem.len()
    }

    /// The layer's configuration.
    pub fn config(&self) -> LifConfig {
        self.config
    }

    /// Immutable view of all membrane potentials.
    pub fn membrane_potentials(&self) -> &[f32] {
        &self.v_mem
    }

    /// Integrates one timestep of per-neuron synaptic input and writes the
    /// firing vector packed 64 neurons per word: bit `i % 64` of
    /// `fired[i / 64]` is set iff neuron `i` fired. Every word of `fired` is
    /// overwritten and bits at or beyond [`LifLayer::units`] stay clear.
    ///
    /// This is the spike generator every forward path runs on: one call of
    /// the active SIMD tier's `lif_step` kernel, whose per-neuron operation
    /// order is exactly [`LifNeuron::step`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `synaptic_input.len()` differs from the number of neurons
    /// or `fired` does not hold exactly `units().div_ceil(64)` words.
    pub fn step_packed(&mut self, synaptic_input: &[f32], fired: &mut [u64]) {
        assert_eq!(
            synaptic_input.len(),
            self.v_mem.len(),
            "synaptic input length {} does not match {} neurons",
            synaptic_input.len(),
            self.v_mem.len()
        );
        let params = LifParams {
            leak: self.config.v_leak,
            floor: self.config.v_floor,
            threshold: self.config.v_threshold,
            reset: self.config.v_reset,
        };
        simd::active().lif_step(&mut self.v_mem, synaptic_input, &params, fired);
    }

    /// Integrates one timestep of per-neuron synaptic input and returns the
    /// binary firing vector ([`LifLayer::step_packed`], unpacked).
    ///
    /// # Panics
    ///
    /// Panics if `synaptic_input.len()` differs from the number of neurons.
    pub fn step(&mut self, synaptic_input: &[f32]) -> Vec<bool> {
        let mut fired = vec![0u64; self.v_mem.len().div_ceil(64)];
        self.step_packed(synaptic_input, &mut fired);
        (0..self.v_mem.len())
            .map(|i| (fired[i / 64] >> (i % 64)) & 1 == 1)
            .collect()
    }

    /// Steps the layer once per `N × D` synaptic-integration plane, in
    /// order, and returns the fired bits as a `T × N × D` spike tensor
    /// (neuron `n·D + d` is position `(n, d)` of every plane). Membrane
    /// state persists across the planes and after the call, so a resumed
    /// layer continues its trajectory.
    ///
    /// # Panics
    ///
    /// Panics if `planes` is empty or a plane's dimensions differ from the
    /// first plane's or do not cover exactly [`LifLayer::units`] neurons.
    pub fn step_planes<'a>(
        &mut self,
        planes: impl IntoIterator<Item = &'a DenseMatrix>,
    ) -> SpikeTensor {
        let planes: Vec<&DenseMatrix> = planes.into_iter().collect();
        assert!(!planes.is_empty(), "need at least one timestep of input");
        let (tokens, features) = (planes[0].rows(), planes[0].cols());
        assert!(
            planes
                .iter()
                .all(|m| m.rows() == tokens && m.cols() == features),
            "all timestep matrices must have identical dimensions"
        );
        let shape = TensorShape::new(planes.len(), tokens, features);
        SpikeTensor::from_plane_words(shape, |t, fired| {
            self.step_packed(planes[t].as_slice(), fired);
        })
    }

    /// Resets all membrane potentials.
    pub fn reset(&mut self) {
        for v in &mut self.v_mem {
            *v = self.config.v_reset;
        }
    }
}

/// Applies an LIF layer over a time series of synaptic-integration matrices.
///
/// `inputs[t]` is the `N × D` synaptic integration produced at timestep `t`
/// (e.g. `X[t] · W_Q` for the query projection). Every `(token, feature)`
/// position has its own membrane potential that persists across timesteps.
/// The result is the binary `T × N × D` spike tensor that downstream layers
/// and the accelerator consume.
///
/// # Panics
///
/// Panics if `inputs` is empty or the matrices have inconsistent dimensions.
///
/// ```
/// use bishop_neuron::{lif_over_time, LifConfig};
/// use bishop_spiketensor::DenseMatrix;
///
/// let step = DenseMatrix::from_rows(&[vec![0.6, 1.2]]);
/// let spikes = lif_over_time(&[step.clone(), step], LifConfig::default());
/// // Feature 1 fires on both steps (1.2 > 1.0); feature 0 only on the second
/// // step once its membrane potential has accumulated to 1.2.
/// assert!(!spikes.get(0, 0, 0));
/// assert!(spikes.get(1, 0, 0));
/// assert!(spikes.get(0, 0, 1));
/// ```
pub fn lif_over_time(inputs: &[DenseMatrix], config: LifConfig) -> SpikeTensor {
    assert!(!inputs.is_empty(), "need at least one timestep of input");
    LifLayer::new(inputs[0].rows() * inputs[0].cols(), config).step_planes(inputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neuron_accumulates_and_resets() {
        let mut neuron = LifNeuron::new(LifConfig::default());
        assert!(!neuron.step(0.4));
        assert!(!neuron.step(0.4));
        assert!(neuron.step(0.4));
        assert_eq!(neuron.membrane_potential(), 0.0);
    }

    #[test]
    fn leak_slows_down_firing() {
        let mut leaky = LifNeuron::new(LifConfig::new(1.0, 0.2));
        let mut not_leaky = LifNeuron::new(LifConfig::new(1.0, 0.0));
        let mut leaky_spikes = 0;
        let mut plain_spikes = 0;
        for _ in 0..20 {
            if leaky.step(0.4) {
                leaky_spikes += 1;
            }
            if not_leaky.step(0.4) {
                plain_spikes += 1;
            }
        }
        assert!(leaky_spikes < plain_spikes);
    }

    #[test]
    fn membrane_floor_prevents_unbounded_negative_drift() {
        let mut neuron = LifNeuron::new(LifConfig::default());
        for _ in 0..100 {
            neuron.step(-10.0);
        }
        assert!(neuron.membrane_potential() >= LifConfig::default().v_floor);
        // A strong excitatory input can still trigger a spike promptly.
        assert!(neuron.step(10.0));
    }

    #[test]
    fn strict_threshold_comparison() {
        // The paper uses a strict `>` comparison: input exactly at threshold
        // does not fire.
        let mut neuron = LifNeuron::new(LifConfig::default());
        assert!(!neuron.step(1.0));
        assert!(neuron.step(0.5));
    }

    #[test]
    fn layer_steps_neurons_independently() {
        let mut layer = LifLayer::new(3, LifConfig::default());
        let out = layer.step(&[1.5, 0.2, 0.0]);
        assert_eq!(out, vec![true, false, false]);
        let out = layer.step(&[0.0, 0.9, 0.0]);
        assert_eq!(out, vec![false, true, false]);
        assert_eq!(layer.units(), 3);
    }

    #[test]
    fn layer_reset_clears_state() {
        let mut layer = LifLayer::new(2, LifConfig::default());
        layer.step(&[0.9, 0.9]);
        layer.reset();
        assert_eq!(layer.membrane_potentials(), &[0.0, 0.0]);
        // After reset the neuron must accumulate from scratch again.
        assert_eq!(layer.step(&[0.9, 0.9]), vec![false, false]);
    }

    #[test]
    fn resumed_layer_continues_the_exact_trajectory() {
        // Stepping a fresh layer twice must equal stepping once, exporting
        // the potentials, resuming, and stepping the resumed layer once.
        let mut reference = LifLayer::new(3, LifConfig::default());
        reference.step(&[0.6, 0.3, 0.9]);
        let mut resumed =
            LifLayer::from_potentials(reference.config(), reference.membrane_potentials().to_vec());
        let a = reference.step(&[0.5, 0.5, 0.5]);
        let b = resumed.step(&[0.5, 0.5, 0.5]);
        assert_eq!(a, b);
        assert_eq!(
            reference.membrane_potentials(),
            resumed.membrane_potentials()
        );
        assert_eq!(resumed.into_potentials(), reference.membrane_potentials());
    }

    #[test]
    #[should_panic(expected = "at least one neuron")]
    fn resume_rejects_empty_state() {
        LifLayer::from_potentials(LifConfig::default(), Vec::new());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn layer_rejects_wrong_input_length() {
        let mut layer = LifLayer::new(2, LifConfig::default());
        layer.step(&[1.0]);
    }

    #[test]
    fn lif_over_time_keeps_state_across_timesteps() {
        let step = DenseMatrix::from_rows(&[vec![0.6], vec![1.2]]);
        let spikes = lif_over_time(&[step.clone(), step.clone(), step], LifConfig::default());
        // Token 1 (input 1.2) fires every step; token 0 (0.6) fires on steps
        // 1 and then needs to re-accumulate.
        assert!(!spikes.get(0, 0, 0));
        assert!(spikes.get(1, 0, 0));
        assert!(!spikes.get(2, 0, 0));
        assert!(spikes.get(0, 1, 0));
        assert!(spikes.get(1, 1, 0));
        assert!(spikes.get(2, 1, 0));
    }

    #[test]
    fn lif_over_time_shape_matches_inputs() {
        let step = DenseMatrix::zeros(4, 8);
        let spikes = lif_over_time(&[step.clone(), step], LifConfig::default());
        assert_eq!(spikes.shape(), TensorShape::new(2, 4, 8));
        assert_eq!(spikes.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one timestep")]
    fn lif_over_time_rejects_empty_input() {
        lif_over_time(&[], LifConfig::default());
    }
}
