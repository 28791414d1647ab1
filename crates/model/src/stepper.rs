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

use bishop_neuron::{LifConfig, LifLayer};
use bishop_spiketensor::DenseMatrix;

use crate::encoder::EncoderBlock;
use crate::forward::{Forward, Membranes, Scratch};
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

/// Executes a [`SpikingTransformer`] one timestep at a time with
/// persistent, exportable LIF state.
///
/// A step is the model's own forward pass — the same `EncoderBlock` code
/// [`SpikingTransformer::infer`] runs — over a one-timestep tensor, with
/// this stepper's LIF layers carrying the membranes and its scratch set
/// reused across steps.
#[derive(Debug)]
pub struct TransformerStepper<'a> {
    model: &'a SpikingTransformer,
    /// Tokenizer synaptic charge `patches · W` (`N × D`), fixed across
    /// timesteps under direct encoding.
    charge: DenseMatrix,
    tokenizer: LifLayer,
    /// Seven spike generators per block, in the order the forward pass
    /// fires them (the field order of [`BlockState`]).
    lifs: Vec<LifLayer>,
    pooled_counts: Vec<u64>,
    timesteps_done: usize,
    scratch: Scratch,
}

/// Spike generators per encoder block.
const BLOCK_GENERATORS: usize = 7;

/// The spike generators of `block` in the order its forward pass fires them
/// — the field order of [`BlockState`] — each with its neuron count.
fn generators(tokens: usize, block: &EncoderBlock) -> [(LifConfig, usize); BLOCK_GENERATORS] {
    let (ssa, mlp) = (block.ssa(), block.mlp());
    // Eq. 7: the O_temp stage shares the Q projection's neuron configuration.
    let layers = [
        ssa.wq(),
        ssa.wk(),
        ssa.wv(),
        ssa.wq(),
        ssa.wo(),
        mlp.fc1(),
        mlp.fc2(),
    ];
    layers.map(|layer| (layer.lif_config(), tokens * layer.out_features()))
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
        let at_reset = |(lif, units): (LifConfig, usize)| vec![lif.v_reset; units];
        let blocks = model.blocks().iter().map(|block| {
            let [wq, wk, wv, o_temp, wo, fc1, fc2] = generators(config.tokens, block).map(at_reset);
            BlockState {
                wq,
                wk,
                wv,
                o_temp,
                wo,
                fc1,
                fc2,
            }
        });
        let state = ModelState {
            tokenizer: at_reset((
                model.tokenizer().lif_config(),
                config.tokens * config.features,
            )),
            blocks: blocks.collect(),
            pooled_counts: vec![0; config.features],
            timesteps_done: 0,
        };
        Self::resume(model, patches, state)
    }

    /// Resumes a parked execution from an exported [`ModelState`].
    ///
    /// The patch input must be the same one the exporting stepper ran on
    /// (sessions pin their input seed for exactly this reason); the state's
    /// layer widths must match the model architecture. Widths are checked
    /// and each LIF layer built from its snapshot before any work is done.
    ///
    /// # Panics
    ///
    /// Panics if the patch matrix or the state's dimensions do not match
    /// the model.
    pub fn resume(model: &'a SpikingTransformer, patches: &DenseMatrix, state: ModelState) -> Self {
        let config = model.config();
        assert_eq!(
            patches.rows(),
            config.tokens,
            "expected {} tokens, got {}",
            config.tokens,
            patches.rows()
        );
        assert_eq!(
            state.blocks.len(),
            model.blocks().len(),
            "state has {} block snapshots for a {}-block model",
            state.blocks.len(),
            model.blocks().len()
        );
        assert_eq!(
            state.tokenizer.len(),
            config.tokens * config.features,
            "tokenizer state width does not match the model"
        );
        assert_eq!(
            state.pooled_counts.len(),
            config.features,
            "pooled-count width does not match the model"
        );
        let mut lifs = Vec::with_capacity(BLOCK_GENERATORS * state.blocks.len());
        for (block, snapshot) in model.blocks().iter().zip(state.blocks) {
            let membranes = [
                snapshot.wq,
                snapshot.wk,
                snapshot.wv,
                snapshot.o_temp,
                snapshot.wo,
                snapshot.fc1,
                snapshot.fc2,
            ];
            for ((lif, units), v_mem) in generators(config.tokens, block).into_iter().zip(membranes)
            {
                assert_eq!(
                    v_mem.len(),
                    units,
                    "block state widths do not match the model"
                );
                lifs.push(LifLayer::from_potentials(lif, v_mem));
            }
        }
        Self {
            model,
            charge: patches.matmul(model.tokenizer().weight()),
            tokenizer: LifLayer::from_potentials(model.tokenizer().lif_config(), state.tokenizer),
            lifs,
            pooled_counts: state.pooled_counts,
            timesteps_done: state.timesteps_done,
            scratch: Scratch::default(),
        }
    }

    /// Timesteps executed so far (including any resumed history).
    pub fn timesteps_done(&self) -> usize {
        self.timesteps_done
    }

    /// Executes one timestep through every layer, updating all membrane
    /// state and the pooled spike history.
    pub fn step(&mut self) -> StepOutcome {
        let mut x = self.tokenizer.step_planes([&self.charge]);
        let mut ctx = Forward {
            scratch: &mut self.scratch,
            membranes: Membranes::Kept(self.lifs.iter_mut()),
        };
        for block in self.model.blocks() {
            x = block.forward_in(&x, &mut ctx).output;
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
        let blocks = self.lifs.chunks_exact(BLOCK_GENERATORS).map(|lifs| {
            let [wq, wk, wv, o_temp, wo, fc1, fc2] =
                std::array::from_fn(|i| lifs[i].membrane_potentials().to_vec());
            BlockState {
                wq,
                wk,
                wv,
                o_temp,
                wo,
                fc1,
                fc2,
            }
        });
        ModelState {
            tokenizer: self.tokenizer.membrane_potentials().to_vec(),
            blocks: blocks.collect(),
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
        let denom = (self.timesteps_done * self.model.config().tokens) as f32;
        let pooled = self.pooled_counts.iter().map(|&c| c as f32 / denom);
        let (logits, prediction) = self.model.classify(pooled.collect());
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
