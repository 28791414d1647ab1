//! Timestep-by-timestep execution of a [`SpikingTransformer`] with
//! exportable LIF state — the model-layer half of streamed, stateful
//! serving.
//!
//! [`SpikingTransformer::infer`] runs the whole `T`-timestep tensor pass in
//! one call and drops every membrane potential at the end. The
//! [`TransformerStepper`] runs the *same arithmetic in the same order* one
//! timestep at a time: all cross-timestep coupling in the model flows
//! through LIF membrane potentials (the attention scores, value mixing and
//! residual ORs are timestep-local), so stepping with persistent
//! [`LifLayer`] state is **bit-identical** to the full-tensor pass — the
//! differential tests below pin that property.
//!
//! Between requests the stepper's state can be exported as a
//! [`ModelState`] (per-layer membrane potentials plus the accumulated
//! spike-count history the pooled classifier readout needs) and resumed
//! later — possibly on a different worker — with
//! [`TransformerStepper::resume`]. A session split across requests
//! therefore produces exactly the logits of one long request.

use bishop_neuron::LifLayer;
use bishop_spiketensor::DenseMatrix;

use crate::parallel::ComputePool;
use crate::projection::{spike_matmul, spike_matmul_with};
use crate::ssa::{select_accumulate, SpikingSelfAttention};
use crate::transformer::SpikingTransformer;

/// Exported LIF membrane state of one encoder block (one vector per spike
/// generator, flattened `token`-major exactly as [`LifLayer`] steps them).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockState {
    /// Q-projection LIF membranes (`N·D`).
    pub wq: Vec<f32>,
    /// K-projection LIF membranes (`N·D`).
    pub wk: Vec<f32>,
    /// V-projection LIF membranes (`N·D`).
    pub wv: Vec<f32>,
    /// Attention-output (`O_temp`, Eq. 7) LIF membranes (`N·D`).
    pub o_temp: Vec<f32>,
    /// Output-projection LIF membranes (`N·D`).
    pub wo: Vec<f32>,
    /// MLP fc1 LIF membranes (`N·(r·D)`).
    pub fc1: Vec<f32>,
    /// MLP fc2 LIF membranes (`N·D`).
    pub fc2: Vec<f32>,
}

/// A parked model execution: every LIF membrane potential plus the
/// accumulated spike history the pooled classifier readout depends on.
///
/// This is the snapshot a session slot stores between requests. It is a
/// pure value (no handles into the model), so it can be checked into a
/// store, moved across workers, and resumed against any transformer with
/// the same architecture and weights.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState {
    /// Tokenizer spike-generator membranes (`N·D`).
    pub tokenizer: Vec<f32>,
    /// Per-encoder-block LIF membranes.
    pub blocks: Vec<BlockState>,
    /// Per-feature spike counts of the final encoder output, summed over
    /// every executed timestep — the integer numerators of the pooled
    /// firing-rate readout (kept exact so a split run reproduces the
    /// single-run logits bit for bit).
    pub pooled_counts: Vec<u64>,
    /// Timesteps executed so far.
    pub timesteps_done: usize,
}

impl ModelState {
    /// Timesteps this state has accumulated.
    pub fn timesteps_done(&self) -> usize {
        self.timesteps_done
    }
}

/// What one executed timestep produced.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Index of the executed timestep (0-based, counting from the start of
    /// the session — a resumed stepper continues the count).
    pub timestep: usize,
    /// Spike count of the final encoder output plane at this timestep.
    pub spikes: usize,
}

/// The classifier readout over everything executed so far.
#[derive(Debug, Clone, PartialEq)]
pub struct PooledReadout {
    /// Per-class logits (mean pooled firing rate through the classifier).
    pub logits: Vec<f32>,
    /// Index of the highest logit.
    pub prediction: usize,
}

/// Per-block LIF layers of a live stepper.
#[derive(Debug)]
struct BlockLayers {
    wq: LifLayer,
    wk: LifLayer,
    wv: LifLayer,
    o_temp: LifLayer,
    wo: LifLayer,
    fc1: LifLayer,
    fc2: LifLayer,
}

/// Executes a [`SpikingTransformer`] one timestep at a time with
/// persistent, exportable LIF state.
#[derive(Debug)]
pub struct TransformerStepper<'a> {
    model: &'a SpikingTransformer,
    /// Tokenizer synaptic charge `patches · W` (`N × D`), fixed across
    /// timesteps under direct encoding.
    charge: DenseMatrix,
    tokenizer: LifLayer,
    blocks: Vec<BlockLayers>,
    pooled_counts: Vec<u64>,
    timesteps_done: usize,
    pool: ComputePool,
}

impl<'a> TransformerStepper<'a> {
    /// Starts a fresh execution (all membranes at the reset potential) for
    /// the given `N × P` patch input.
    ///
    /// # Panics
    ///
    /// Panics if the patch matrix has the wrong number of tokens or
    /// features for the model.
    pub fn new(model: &'a SpikingTransformer, patches: &DenseMatrix) -> Self {
        let config = model.config();
        assert_eq!(
            patches.rows(),
            config.tokens,
            "expected {} tokens, got {}",
            config.tokens,
            patches.rows()
        );
        let charge = patches.matmul(model.tokenizer().weight());
        let units = config.tokens * config.features;
        let hidden_units = config.tokens * config.mlp_hidden();
        let blocks = model
            .blocks()
            .iter()
            .map(|block| {
                let ssa = block.ssa();
                let mlp = block.mlp();
                BlockLayers {
                    wq: LifLayer::new(units, ssa.wq().lif_config()),
                    wk: LifLayer::new(units, ssa.wk().lif_config()),
                    wv: LifLayer::new(units, ssa.wv().lif_config()),
                    // Eq. 7: the O_temp LIF stage shares the Q projection's
                    // neuron configuration (matching `SpikingSelfAttention`).
                    o_temp: LifLayer::new(units, ssa.wq().lif_config()),
                    wo: LifLayer::new(units, ssa.wo().lif_config()),
                    fc1: LifLayer::new(hidden_units, mlp.fc1().lif_config()),
                    fc2: LifLayer::new(units, mlp.fc2().lif_config()),
                }
            })
            .collect();
        Self {
            model,
            charge,
            tokenizer: LifLayer::new(units, model.tokenizer().lif_config()),
            blocks,
            pooled_counts: vec![0; config.features],
            timesteps_done: 0,
            pool: ComputePool::sequential(),
        }
    }

    /// Attaches a compute pool: the Q/K/V integrations, the per-head
    /// score/select stage, and the projection matmuls of each step fan out
    /// across it. Stepping stays bit-for-bit identical to the sequential
    /// stepper (and therefore to the full-tensor pass) at any pool width.
    #[must_use]
    pub fn with_pool(mut self, pool: ComputePool) -> Self {
        self.pool = pool;
        self
    }

    /// Resumes a parked execution from an exported [`ModelState`].
    ///
    /// The patch input must be the same one the exporting stepper ran on
    /// (sessions pin their input seed for exactly this reason); the state's
    /// layer widths must match the model architecture.
    ///
    /// # Panics
    ///
    /// Panics if the state's dimensions do not match the model.
    pub fn resume(model: &'a SpikingTransformer, patches: &DenseMatrix, state: ModelState) -> Self {
        let config = model.config();
        let units = config.tokens * config.features;
        let hidden_units = config.tokens * config.mlp_hidden();
        assert_eq!(
            state.blocks.len(),
            model.blocks().len(),
            "state has {} block snapshots for a {}-block model",
            state.blocks.len(),
            model.blocks().len()
        );
        assert_eq!(
            state.tokenizer.len(),
            units,
            "tokenizer state width does not match the model"
        );
        assert_eq!(
            state.pooled_counts.len(),
            config.features,
            "pooled-count width does not match the model"
        );
        let mut stepper = Self::new(model, patches);
        stepper.tokenizer =
            LifLayer::from_potentials(model.tokenizer().lif_config(), state.tokenizer);
        for ((layers, snapshot), block) in stepper
            .blocks
            .iter_mut()
            .zip(state.blocks)
            .zip(model.blocks())
        {
            let ssa = block.ssa();
            let mlp = block.mlp();
            assert!(
                snapshot.wq.len() == units
                    && snapshot.wk.len() == units
                    && snapshot.wv.len() == units
                    && snapshot.o_temp.len() == units
                    && snapshot.wo.len() == units
                    && snapshot.fc1.len() == hidden_units
                    && snapshot.fc2.len() == units,
                "block state widths do not match the model"
            );
            layers.wq = LifLayer::from_potentials(ssa.wq().lif_config(), snapshot.wq);
            layers.wk = LifLayer::from_potentials(ssa.wk().lif_config(), snapshot.wk);
            layers.wv = LifLayer::from_potentials(ssa.wv().lif_config(), snapshot.wv);
            layers.o_temp = LifLayer::from_potentials(ssa.wq().lif_config(), snapshot.o_temp);
            layers.wo = LifLayer::from_potentials(ssa.wo().lif_config(), snapshot.wo);
            layers.fc1 = LifLayer::from_potentials(mlp.fc1().lif_config(), snapshot.fc1);
            layers.fc2 = LifLayer::from_potentials(mlp.fc2().lif_config(), snapshot.fc2);
        }
        stepper.pooled_counts = state.pooled_counts;
        stepper.timesteps_done = state.timesteps_done;
        stepper
    }

    /// Timesteps executed so far (including any resumed history).
    pub fn timesteps_done(&self) -> usize {
        self.timesteps_done
    }

    /// Executes one timestep through every layer, updating all membrane
    /// state and the pooled spike history.
    pub fn step(&mut self) -> StepOutcome {
        let config = self.model.config();
        let (tokens, features) = (config.tokens, config.features);
        let mut x = self.tokenizer.step_planes([&self.charge]);

        for (block, layers) in self.model.blocks().iter().zip(self.blocks.iter_mut()) {
            let ssa = block.ssa();
            let mlp = block.mlp();
            // The three Q/K/V synaptic integrations read the same input and
            // are independent, so they fan out as a triple; the LIF steps
            // stay on the caller (they mutate per-layer membrane state).
            let weights = [ssa.wq().weight(), ssa.wk().weight(), ssa.wv().weight()];
            let qkv = self.pool.run(3, |i| spike_matmul(&x, 0, weights[i]));
            let q = layers.wq.step_planes([&qkv[0]]);
            let k = layers.wk.step_planes([&qkv[1]]);
            let v = layers.wv.step_planes([&qkv[2]]);

            // One timestep of multi-head attention via the shared
            // score/select-accumulate kernels, accumulated in exactly the
            // order of `SpikingSelfAttention::forward` so the f32 sums match
            // the full-tensor pass bit for bit. Heads write disjoint feature
            // columns, so the parallel path computes per-head planes and
            // copies their exact bits into place.
            let head_dim = features / ssa.heads();
            let scale = 2.0_f32.powi(-(ssa.scale_shift() as i32));
            let mut head_output = DenseMatrix::zeros(tokens, features);
            if self.pool.is_parallel() {
                let partials = self.pool.run(ssa.heads(), |h| {
                    let d0 = h * head_dim;
                    let d1 = d0 + head_dim;
                    let s = SpikingSelfAttention::attention_scores_in(&q, &k, 0, d0, d1);
                    let mut partial = DenseMatrix::zeros(tokens, features);
                    select_accumulate(&mut partial, &s, scale, &v, 0, d0, d1);
                    partial
                });
                for (h, partial) in partials.iter().enumerate() {
                    let d0 = h * head_dim;
                    let d1 = d0 + head_dim;
                    for i in 0..tokens {
                        head_output.row_mut(i)[d0..d1].copy_from_slice(&partial.row(i)[d0..d1]);
                    }
                }
            } else {
                for h in 0..ssa.heads() {
                    let d0 = h * head_dim;
                    let d1 = d0 + head_dim;
                    let s = SpikingSelfAttention::attention_scores_in(&q, &k, 0, d0, d1);
                    select_accumulate(&mut head_output, &s, scale, &v, 0, d0, d1);
                }
            }
            let o_temp = layers.o_temp.step_planes([&head_output]);
            let projected = spike_matmul_with(&o_temp, 0, ssa.wo().weight(), &self.pool);
            let ssa_out = layers.wo.step_planes([&projected]);
            let mlp_input = x
                .or(&ssa_out)
                .expect("SSA output shape matches its input shape");
            let fc1 = spike_matmul_with(&mlp_input, 0, mlp.fc1().weight(), &self.pool);
            let hidden = layers.fc1.step_planes([&fc1]);
            let fc2 = spike_matmul_with(&hidden, 0, mlp.fc2().weight(), &self.pool);
            let mlp_out = layers.fc2.step_planes([&fc2]);
            x = mlp_input
                .or(&mlp_out)
                .expect("MLP output shape matches its input shape");
        }

        let spikes = x.count_ones();
        for (slot, count) in self.pooled_counts.iter_mut().zip(x.per_feature_counts()) {
            *slot += count as u64;
        }
        self.timesteps_done += 1;
        StepOutcome {
            timestep: self.timesteps_done - 1,
            spikes,
        }
    }

    /// Exports the full LIF state and pooled history (the stepper remains
    /// usable).
    pub fn export(&self) -> ModelState {
        ModelState {
            tokenizer: self.tokenizer.membrane_potentials().to_vec(),
            blocks: self
                .blocks
                .iter()
                .map(|layers| BlockState {
                    wq: layers.wq.membrane_potentials().to_vec(),
                    wk: layers.wk.membrane_potentials().to_vec(),
                    wv: layers.wv.membrane_potentials().to_vec(),
                    o_temp: layers.o_temp.membrane_potentials().to_vec(),
                    wo: layers.wo.membrane_potentials().to_vec(),
                    fc1: layers.fc1.membrane_potentials().to_vec(),
                    fc2: layers.fc2.membrane_potentials().to_vec(),
                })
                .collect(),
            pooled_counts: self.pooled_counts.clone(),
            timesteps_done: self.timesteps_done,
        }
    }

    /// The classifier readout over every timestep executed so far: the
    /// pooled mean firing rate through the classification head, exactly as
    /// [`SpikingTransformer::infer`] computes it over a full tensor.
    ///
    /// # Panics
    ///
    /// Panics if no timestep has been executed yet.
    pub fn finish(&self) -> PooledReadout {
        assert!(
            self.timesteps_done > 0,
            "readout needs at least one executed timestep"
        );
        let config = self.model.config();
        let denom = (self.timesteps_done * config.tokens) as f32;
        let pooled: Vec<f32> = self
            .pooled_counts
            .iter()
            .map(|&c| c as f32 / denom)
            .collect();
        let pooled_matrix = DenseMatrix::from_rows(&[pooled]);
        let logits_matrix = pooled_matrix.matmul(self.model.classifier());
        let logits: Vec<f32> = logits_matrix.row(0).to_vec();
        let prediction = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("logits are finite"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        PooledReadout { logits, prediction }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetKind, ModelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model_and_patches(seed: u64) -> (SpikingTransformer, DenseMatrix) {
        let config = ModelConfig::new("stepper", DatasetKind::Cifar10, 2, 4, 8, 16, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = SpikingTransformer::random(&config, 16, 10, &mut rng);
        let patches = DenseMatrix::random_uniform(config.tokens, 16, 1.0, &mut rng);
        (model, patches)
    }

    #[test]
    fn stepping_matches_full_tensor_inference_bit_for_bit() {
        let (model, patches) = model_and_patches(41);
        let reference = model.infer(&patches);
        let mut stepper = TransformerStepper::new(&model, &patches);
        let timesteps = model.config().timesteps;
        let mut spikes_per_step = Vec::new();
        for t in 0..timesteps {
            let outcome = stepper.step();
            assert_eq!(outcome.timestep, t);
            spikes_per_step.push(outcome.spikes);
        }
        let readout = stepper.finish();
        assert_eq!(
            readout.logits, reference.logits,
            "logits must be bit-identical"
        );
        assert_eq!(readout.prediction, reference.prediction);
        // The per-step spike counts are the per-timestep slices of the full
        // pass's final encoder output.
        let final_spikes = &reference.final_spikes;
        for (t, &spikes) in spikes_per_step.iter().enumerate() {
            let shape = final_spikes.shape();
            let expected = (0..shape.tokens)
                .map(|n| final_spikes.row_words(t, n).count_ones())
                .sum::<usize>();
            assert_eq!(spikes, expected, "timestep {t} spike count");
        }
    }

    #[test]
    fn export_resume_split_is_bit_identical_to_one_long_run() {
        let (model, patches) = model_and_patches(42);
        let timesteps = model.config().timesteps;

        let mut single = TransformerStepper::new(&model, &patches);
        for _ in 0..timesteps {
            single.step();
        }

        // Split after every possible prefix length, including resuming the
        // export of a zero-step stepper.
        for split in 0..timesteps {
            let mut first = TransformerStepper::new(&model, &patches);
            for _ in 0..split {
                first.step();
            }
            let parked = first.export();
            assert_eq!(parked.timesteps_done, split);
            let mut second = TransformerStepper::resume(&model, &patches, parked);
            for _ in split..timesteps {
                second.step();
            }
            assert_eq!(second.timesteps_done(), timesteps);
            assert_eq!(
                second.finish(),
                single.finish(),
                "split at {split} diverged from the single run"
            );
            assert_eq!(second.export(), single.export());
        }
    }

    #[test]
    fn resumed_state_matches_full_inference_too() {
        let (model, patches) = model_and_patches(43);
        let reference = model.infer(&patches);
        let mut first = TransformerStepper::new(&model, &patches);
        first.step();
        first.step();
        let mut second = TransformerStepper::resume(&model, &patches, first.export());
        second.step();
        second.step();
        assert_eq!(second.finish().logits, reference.logits);
    }

    #[test]
    #[should_panic(expected = "expected 8 tokens")]
    fn wrong_patch_tokens_are_rejected() {
        let (model, _) = model_and_patches(44);
        TransformerStepper::new(&model, &DenseMatrix::zeros(3, 16));
    }

    #[test]
    #[should_panic(expected = "block state widths")]
    fn mismatched_state_is_rejected() {
        let (model, patches) = model_and_patches(45);
        let mut state = TransformerStepper::new(&model, &patches).export();
        state.blocks[0].wq.pop();
        TransformerStepper::resume(&model, &patches, state);
    }

    #[test]
    #[should_panic(expected = "at least one executed timestep")]
    fn readout_requires_progress() {
        let (model, patches) = model_and_patches(46);
        TransformerStepper::new(&model, &patches).finish();
    }
}
