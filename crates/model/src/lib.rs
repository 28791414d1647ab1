//! # bishop-model
//!
//! Spiking transformer model definitions, functional (bit-exact) inference,
//! workload descriptions, and computational-complexity profiling for the
//! Bishop reproduction.
//!
//! The paper evaluates five spiking transformer models (Table 2). This crate
//! provides:
//!
//! * [`ModelConfig`] / [`DatasetKind`] — the architecture hyper-parameters of
//!   Models 1–5 plus arbitrary custom configurations;
//! * functional layers ([`SpikingLinear`], [`SpikingSelfAttention`],
//!   [`SpikingMlp`], [`SpikingTokenizer`], [`EncoderBlock`],
//!   [`SpikingTransformer`]) that execute the model exactly as defined in
//!   Eq. 3–8 of the paper, producing binary activation traces;
//! * [`ModelWorkload`]/[`LayerWorkload`] — the layer-by-layer description of
//!   a model's computation (input spikes, weight shapes, Q/K/V tensors) that
//!   the Bishop and PTB accelerator simulators consume;
//! * [`profile`] — analytic FLOP counting used to reproduce the workload
//!   breakdown of Fig. 3.
//!
//! ```
//! use bishop_model::{ModelConfig, profile::WorkloadProfile};
//!
//! let model3 = ModelConfig::model3_imagenet100();
//! let profile = WorkloadProfile::of(&model3);
//! // Attention and MLP blocks dominate the workload (Fig. 3).
//! assert!(profile.attention_plus_mlp_fraction() > 0.6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod encoder;
mod forward;
pub mod mlp;
pub mod parallel;
pub mod profile;
pub mod projection;
pub mod ssa;
pub mod stepper;
pub mod tokenizer;
pub mod transformer;
pub mod workload;

pub use config::{DatasetKind, ModelConfig};
pub use encoder::EncoderBlock;
pub use mlp::SpikingMlp;
pub use parallel::ComputePool;
pub use projection::{spike_matmul, spike_matmul_into, spike_matmul_reference, SpikingLinear};
pub use ssa::{select_accumulate, select_accumulate_reference, SpikingSelfAttention, SsaOutput};
pub use stepper::{BlockState, ModelState, PooledReadout, StepOutcome, TransformerStepper};
pub use tokenizer::SpikingTokenizer;
pub use transformer::{InferenceResult, SpikingTransformer};
pub use workload::{
    AttentionWorkload, LayerKind, LayerWorkload, ModelWorkload, ProjectionWorkload,
};
