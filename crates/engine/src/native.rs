//! The native backend: the functional spiking transformer executed on the
//! host CPU via the word-parallel popcount kernels.
//!
//! Where the simulator *estimates* what the Bishop chip would do, this engine
//! actually runs the model: it materializes a [`SpikingTransformer`] with
//! deterministic weights for the batched configuration, synthesizes the
//! request's patch input from its trace seed, executes the full forward pass
//! (tokenizer → encoder blocks → classifier) on the bit-packed kernels, and
//! reports the **measured wall-clock** alongside a real class prediction.

use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use bishop_model::{ModelConfig, SpikingTransformer, TransformerStepper};
use bishop_session::SessionState;
use bishop_spiketensor::words::simd;
use bishop_spiketensor::DenseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::api::{
    EngineBatch, EngineDescriptor, EngineOutput, EngineSubstrate, InferenceEngine, StepEvent,
    StepSink, StreamedOutput,
};
use crate::cache::OnceMap;
use crate::error::EngineError;
use crate::NATIVE_ENGINE;

/// Host-execution parameters of a [`NativeEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct NativeEngineConfig {
    /// Assumed package power while executing, used to convert the measured
    /// wall-clock into an energy estimate (a fixed-power host model; the
    /// paper's edge-CPU comparisons use the same simplification).
    pub cpu_power_watts: f64,
    /// Nominal host clock used to express the measured wall-clock as cycles.
    pub clock_hz: f64,
    /// Upper bound on the folded timestep axis of one batch: real execution
    /// cost is linear in it, so unbounded client-controlled batches could
    /// monopolize a worker.
    pub max_folded_timesteps: usize,
    /// Entry bound of the weight cache (one materialized transformer per
    /// distinct batched configuration).
    pub model_cache_capacity: usize,
    /// Width of the compute-pool handle (`0` auto-sizes to the host's
    /// available parallelism). Reported, not acted on: the streamed forward
    /// pass runs each batch on its worker's own thread at every width (see
    /// `bishop_model::parallel`).
    pub compute_workers: usize,
}

impl Default for NativeEngineConfig {
    fn default() -> Self {
        Self {
            cpu_power_watts: 15.0,
            clock_hz: 2.5e9,
            max_folded_timesteps: 1024,
            model_cache_capacity: 32,
            compute_workers: 0,
        }
    }
}

/// [`InferenceEngine`] that executes the forward pass for real on the CPU.
///
/// Weights are pseudo-random but **deterministic per batched configuration**
/// (seeded from the folded config the runtime hands over), and the patch
/// input is deterministic per batch seed — so the *prediction* is a
/// reproducible function of the batch description (`config`, `seed`), even
/// though the measured wall-clock (and therefore the reported
/// latency/energy) is not; the descriptor declares `deterministic: false`
/// accordingly. Note the batch-level granularity: like every
/// [`EngineOutput`], the prediction describes the *batch* — a request
/// coalesced with different riders rides a different folded configuration
/// and combined seed, and so may see a different prediction than it would
/// alone. Per-request prediction stability holds exactly for singleton
/// batches (`BatchPolicy::sequential()`). Materialized transformers are
/// memoized in a bounded build-once cache, so concurrent workers hitting
/// the same configuration build the weights exactly once.
#[derive(Debug)]
pub struct NativeEngine {
    config: NativeEngineConfig,
    models: OnceMap<ModelConfig, SpikingTransformer>,
}

impl NativeEngine {
    /// An engine with the default host parameters.
    pub fn new() -> Self {
        Self::with_config(NativeEngineConfig::default())
    }

    /// An engine with explicit host parameters.
    pub fn with_config(config: NativeEngineConfig) -> Self {
        let capacity = config.model_cache_capacity;
        Self {
            config,
            models: OnceMap::with_capacity(capacity),
        }
    }

    /// The host parameters in use.
    pub fn config(&self) -> &NativeEngineConfig {
        &self.config
    }

    /// The transformer serving `config`, built (with weights seeded from the
    /// configuration) on first use.
    fn model(&self, config: &ModelConfig) -> Arc<SpikingTransformer> {
        self.models.get_or_build(config.clone(), || {
            let mut rng = StdRng::seed_from_u64(weight_seed(config));
            SpikingTransformer::random(config, config.features, config.dataset.classes(), &mut rng)
        })
    }
}

impl Default for NativeEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Deterministic weight seed of a configuration (stable across runs:
/// `DefaultHasher` uses fixed keys).
fn weight_seed(config: &ModelConfig) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    config.hash(&mut hasher);
    hasher.finish()
}

impl InferenceEngine for NativeEngine {
    fn descriptor(&self) -> EngineDescriptor {
        EngineDescriptor {
            name: NATIVE_ENGINE,
            substrate: EngineSubstrate::HostCpu,
            supports_ecp: false,
            deterministic: false,
            measures_wall_clock: true,
            max_folded_timesteps: Some(self.config.max_folded_timesteps),
            supports_streaming: true,
            // Real CPU execution is orders of magnitude slower than the
            // memoized simulator; seed conservatively and let the EWMA of
            // measured batch wall-clocks take over.
            seed_drain_ops_per_second: 2e9,
            simd_tier: Some(simd::active().tier().label()),
            description: "Functional spiking-transformer forward pass on the host CPU \
                          (word-parallel popcount kernels, measured wall-clock)",
        }
    }

    fn execute(&self, batch: &EngineBatch) -> Result<EngineOutput, EngineError> {
        self.descriptor().check(batch)?;
        let model = self.model(&batch.config);

        // The patch input is the native analogue of the simulator's
        // synthesized trace: deterministic in the batch seed, shaped
        // `tokens × features` for the tokenizer.
        let mut rng = StdRng::seed_from_u64(batch.seed);
        let patches =
            DenseMatrix::random_uniform(batch.config.tokens, batch.config.features, 1.0, &mut rng);

        let start = Instant::now();
        let result = model.infer(&patches);
        let wall = start.elapsed().as_secs_f64();

        Ok(EngineOutput {
            engine: NATIVE_ENGINE,
            latency_seconds: wall,
            energy_mj: self.config.cpu_power_watts * wall * 1e3,
            cycles: (wall * self.config.clock_hz) as u64,
            metrics: None,
            wall_seconds: Some(wall),
            prediction: Some(result.prediction),
        })
    }

    fn execute_streaming(
        &self,
        batch: &EngineBatch,
        steps: usize,
        resume: Option<&SessionState>,
        sink: &mut dyn StepSink,
    ) -> Result<StreamedOutput, EngineError> {
        self.descriptor().check(batch)?;
        let model = self.model(&batch.config);

        // Same deterministic patch synthesis as `execute`: the session pins
        // its seed at creation, so every continuation steps the exact input
        // the earlier requests ran on.
        let mut rng = StdRng::seed_from_u64(batch.seed);
        let patches =
            DenseMatrix::random_uniform(batch.config.tokens, batch.config.features, 1.0, &mut rng);

        let start = Instant::now();
        let mut stepper = match resume {
            Some(SessionState::Native(state)) => {
                TransformerStepper::resume(&model, &patches, state.clone())
            }
            // A state exported by a different substrate cannot seed native
            // membranes; treat the coupling as broken rather than guess.
            Some(SessionState::Simulated { .. }) => {
                return Err(EngineError::StreamingUnsupported {
                    engine: NATIVE_ENGINE,
                })
            }
            None => TransformerStepper::new(&model, &patches),
        };
        assert!(
            stepper.timesteps_done() + steps > 0,
            "a streaming execution must cover at least one timestep"
        );
        let total = stepper.timesteps_done() + steps;
        for _ in 0..steps {
            let outcome = stepper.step();
            sink.on_step(&StepEvent {
                index: outcome.timestep,
                total,
                unit: "timestep",
                spikes: outcome.spikes,
            });
        }
        let readout = stepper.finish();
        let state = SessionState::Native(stepper.export());
        let wall = start.elapsed().as_secs_f64();

        Ok(StreamedOutput {
            output: EngineOutput {
                engine: NATIVE_ENGINE,
                latency_seconds: wall,
                energy_mj: self.config.cpu_power_watts * wall * 1e3,
                cycles: (wall * self.config.clock_hz) as u64,
                metrics: None,
                wall_seconds: Some(wall),
                prediction: Some(readout.prediction),
            },
            state,
            logits: Some(readout.logits),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_bundle::TrainingRegime;
    use bishop_core::SimOptions;
    use bishop_model::DatasetKind;

    fn batch(seed: u64, timesteps: usize, options: SimOptions) -> EngineBatch {
        EngineBatch {
            config: ModelConfig::new(
                "native-engine",
                DatasetKind::Cifar10,
                1,
                timesteps,
                8,
                16,
                2,
            ),
            regime: TrainingRegime::Bsa,
            seed,
            options,
            batch_size: 1,
            batch_id: 0,
        }
    }

    #[test]
    fn executes_a_real_forward_pass_with_measured_wall_clock() {
        let engine = NativeEngine::new();
        let output = engine
            .execute(&batch(3, 4, SimOptions::baseline()))
            .expect("baseline options are supported");
        assert_eq!(output.engine, "native");
        assert!(output.wall_seconds.expect("measured") > 0.0);
        assert!(output.latency_seconds > 0.0);
        assert!(output.energy_mj > 0.0);
        let prediction = output.prediction.expect("real classifier output");
        assert!(prediction < DatasetKind::Cifar10.classes());
        assert!(output.metrics.is_none(), "no per-layer simulation metrics");
    }

    #[test]
    fn predictions_are_deterministic_per_seed() {
        let engine = NativeEngine::new();
        let a = engine
            .execute(&batch(9, 4, SimOptions::baseline()))
            .unwrap();
        let b = engine
            .execute(&batch(9, 4, SimOptions::baseline()))
            .unwrap();
        assert_eq!(a.prediction, b.prediction);
        // The weight cache built the transformer once for both calls.
        assert_eq!(engine.models.stats().misses, 1);
        assert_eq!(engine.models.stats().hits, 1);
    }

    #[test]
    fn rejects_ecp_and_oversized_folds_with_typed_errors() {
        let engine = NativeEngine::with_config(NativeEngineConfig {
            max_folded_timesteps: 8,
            ..NativeEngineConfig::default()
        });
        assert_eq!(
            engine.execute(&batch(1, 4, SimOptions::with_ecp(6))),
            Err(EngineError::EcpUnsupported { engine: "native" })
        );
        assert_eq!(
            engine.execute(&batch(1, 16, SimOptions::baseline())),
            Err(EngineError::BatchTooLarge {
                engine: "native",
                folded_timesteps: 16,
                limit: 8
            })
        );
    }
}
