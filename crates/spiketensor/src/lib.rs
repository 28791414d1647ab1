//! # bishop-spiketensor
//!
//! Foundation data structures for the Bishop spiking-transformer
//! reproduction: bit-packed binary spike tensors laid out as
//! `T (timesteps) × N (tokens) × D (features)`, dense floating-point weight
//! matrices, density-controlled random workload generators, and summary
//! statistics.
//!
//! Spiking transformers operate on *binary* activations: every value produced
//! by a LIF neuron layer is 0 or 1 (Eq. 2 of the paper). The accelerator
//! evaluation only ever needs to know *which* positions fired, so the natural
//! in-memory representation is a bitmap. [`SpikeTensor`] packs 64 positions
//! per machine word (feature axis fastest-varying, each `(t, n)` feature row
//! a contiguous bit range — see the type docs for the full layout guarantee)
//! and provides the slicing/counting primitives that the Token-Time-Bundle
//! machinery in `bishop-bundle` builds on. The [`words`] module exposes the
//! word-parallel kernel layer (zero-copy [`RowBits`] row views, AND+popcount
//! [`RowBits::dot`], `trailing_zeros`-driven set-bit iteration) that the
//! model and accelerator hot paths run on, and [`words::simd`] pushes below
//! it with runtime-dispatched AVX2 / AVX-512 / NEON kernels selected once
//! per process into a [`simd::KernelDispatch`](words::simd::KernelDispatch)
//! table (scalar word fallback everywhere else).
//!
//! ```
//! use bishop_spiketensor::{SpikeTensor, TensorShape};
//!
//! let shape = TensorShape::new(4, 8, 16);
//! let mut spikes = SpikeTensor::zeros(shape);
//! spikes.set(0, 3, 7, true);
//! assert_eq!(spikes.count_ones(), 1);
//! assert!(spikes.get(0, 3, 7));
//! ```

// `deny` rather than `forbid`: the `words::simd` module is the single,
// explicitly-allowed exception — runtime-detected SIMD intrinsics with the
// safety argument documented at the module head. Everything else in the
// crate (and the rest of the workspace) remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod error;
pub mod generate;
pub mod shape;
pub mod stats;
pub mod tensor;
pub mod words;

pub use dense::DenseMatrix;
pub use error::ShapeError;
pub use generate::{SpikeTraceGenerator, TraceProfile};
pub use shape::TensorShape;
pub use stats::{DensitySummary, FeatureDensity};
pub use tensor::SpikeTensor;
pub use words::simd::{KernelDispatch, LifParams, SimdTier};
pub use words::{RowBits, SetBits};
