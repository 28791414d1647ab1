//! # bishop-bundle
//!
//! Token-Time Bundles (TTBs) and the HW/SW co-design algorithms built on
//! them: bundle tagging, bundle-level sparsity statistics and the BSA
//! (Bundle-Sparsity-Aware) shaping of activation traces, the dense/sparse
//! workload stratifier (Alg. 1 of the paper), Error-Constrained TTB
//! Pruning (ECP) of spiking queries and keys, and the per-layer count
//! summaries the accelerator cost model schedules.
//!
//! A TTB packs the binary spiking activations of `BSn` tokens over `BSt`
//! timesteps for one feature column (Fig. 4 of the paper). It is the unit of
//! work dispatched to the Bishop cores: an *inactive* bundle (no spike
//! anywhere inside it) is skipped entirely, and the weight row of a feature
//! is fetched once and reused across all tokens/timesteps inside the active
//! bundles.
//!
//! ```
//! use bishop_bundle::{BundleShape, TtbTags};
//! use bishop_spiketensor::{SpikeTensor, TensorShape};
//!
//! let mut spikes = SpikeTensor::zeros(TensorShape::new(4, 8, 2));
//! spikes.set(0, 0, 0, true);
//! let tags = TtbTags::from_tensor(&spikes, BundleShape::new(2, 4));
//! // Only one of the (2 time-bundles × 2 token-bundles × 2 features)
//! // bundles contains a spike.
//! assert_eq!(tags.active_bundles(), 1);
//! assert_eq!(tags.total_bundles(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bsa;
pub mod calibrate;
pub mod ecp;
pub mod sparsity;
pub mod stratify;
mod summary;
pub mod ttb;

pub use bsa::{bundle_sparsity_loss, bundle_sparsity_loss_reference, BsaEffect};
pub use calibrate::{DatasetCalibration, TrainingRegime};
pub use ecp::{EcpConfig, EcpResult};
pub use sparsity::BundleSparsityStats;
pub use stratify::{StratifiedWorkload, Stratifier};
pub use summary::{AttentionSummary, LayerSummary, ProjectionSummary};
pub use ttb::{BundleShape, TtbGrid, TtbTags};
