//! # bishop
//!
//! Facade crate for the **Bishop** reproduction — *"Bishop: Sparsified
//! Bundling Spiking Transformers on Heterogeneous Cores with
//! Error-Constrained Pruning"* (ISCA 2025).
//!
//! The workspace is organised as a stack of crates, re-exported here for
//! convenience:
//!
//! * [`spiketensor`] — bit-packed binary spike tensors and workload
//!   generators;
//! * [`neuron`] — LIF dynamics, surrogate gradients, input encodings;
//! * [`model`] — spiking transformer models (Table 2), functional inference,
//!   workload descriptions, FLOPs profiling;
//! * [`bundle`] — Token-Time Bundles, BSA, the dense/sparse stratifier, and
//!   Error-Constrained TTB Pruning;
//! * [`memsys`] — DRAM/SRAM/energy/area models (28 nm, CACTI-style);
//! * [`core`] — the Bishop heterogeneous accelerator simulator;
//! * [`baseline`] — the PTB accelerator and edge-GPU baselines;
//! * [`engine`] — the pluggable [`InferenceEngine`](bishop_engine::InferenceEngine)
//!   layer: the simulator, native-CPU and baseline execution backends behind
//!   one trait, the engine registry, the model catalog and the memoizing
//!   caches;
//! * [`faults`] — deterministic fault injection for chaos testing: a
//!   seeded [`FaultInjectingEngine`](bishop_faults::FaultInjectingEngine)
//!   wrapper that makes any engine fail, stall or panic on a planned
//!   schedule;
//! * [`train`] — surrogate-gradient training with the BSA loss and ECP-aware
//!   evaluation;
//! * [`runtime`] — the batched multi-core inference serving runtime:
//!   per-engine scheduling domains (bounded queue, Token-Time-Bundle-aligned
//!   dynamic batching, a worker pool executing batches on pluggable
//!   engines), online submission with tickets + admission control;
//! * [`gateway`] — a zero-dependency HTTP/1.1 + JSON gateway over the online
//!   runtime: `POST /v1/infer`, Prometheus `/metrics`, `/healthz`, load
//!   shedding with explicit 429/503;
//! * [`experiments`] — the harness regenerating every table and figure of the
//!   paper's evaluation.
//!
//! ```
//! use bishop::prelude::*;
//! use rand::SeedableRng;
//!
//! // Build a small calibrated workload and compare Bishop against PTB.
//! let config = ModelConfig::new("demo", DatasetKind::Cifar10, 1, 4, 16, 32, 2);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let workload = ModelWorkload::synthetic(&config, &SyntheticTraceSpec::uniform(0.15), &mut rng);
//! let bishop = BishopSimulator::new(BishopConfig::default())
//!     .simulate(&workload, &SimOptions::baseline());
//! let ptb = PtbSimulator::new(PtbConfig::default()).simulate(&workload);
//! assert!(bishop.speedup_vs(&ptb) > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bishop_baseline as baseline;
pub use bishop_bundle as bundle;
pub use bishop_core as core;
pub use bishop_engine as engine;
pub use bishop_experiments as experiments;
pub use bishop_faults as faults;
pub use bishop_gateway as gateway;
pub use bishop_memsys as memsys;
pub use bishop_model as model;
pub use bishop_neuron as neuron;
pub use bishop_runtime as runtime;
pub use bishop_spiketensor as spiketensor;
pub use bishop_train as train;

/// Commonly used types, re-exported flat for examples and quick scripts.
pub mod prelude {
    pub use bishop_baseline::{EdgeGpuModel, PtbConfig, PtbSimulator};
    pub use bishop_bundle::{
        ecp, BsaEffect, BundleShape, BundleSparsityStats, DatasetCalibration, EcpConfig,
        StratifiedWorkload, Stratifier, TrainingRegime, TtbTags,
    };
    pub use bishop_core::{BishopConfig, BishopSimulator, RunMetrics, SimOptions, StratifyPolicy};
    pub use bishop_engine::{
        BaselineEngine, CatalogEntry, EngineBatch, EngineDescriptor, EngineError, EngineName,
        EngineOutput, EngineRegistry, InferenceEngine, NativeEngine, SimulatorEngine,
    };
    pub use bishop_faults::{FaultInjectingEngine, FaultPlan};
    pub use bishop_gateway::{Gateway, GatewayConfig, Json, ModelCatalog};
    pub use bishop_memsys::{AreaPowerBreakdown, DramModel, EnergyModel, MemoryHierarchy};
    pub use bishop_model::workload::SyntheticTraceSpec;
    pub use bishop_model::{
        DatasetKind, LayerWorkload, ModelConfig, ModelWorkload, SpikingTransformer,
    };
    pub use bishop_neuron::{LifConfig, LifNeuron};
    pub use bishop_runtime::{
        BatchPolicy, BreakerConfig, CalibrationCache, EngineLoadStats, InferenceRequest,
        InferenceResponse, OnlineConfig, OnlineServer, RetryPolicy, RuntimeConfig, ServeError,
        ServerHandle, Ticket,
    };
    pub use bishop_spiketensor::{DenseMatrix, SpikeTensor, TensorShape};
    pub use bishop_train::{SpikePatternDataset, SpikingClassifier, Trainer, TrainingConfig};
}
