//! What one forward pass carries besides its input: the working memory it
//! reuses across timesteps, heads, layers and blocks, and the source of its
//! LIF membranes.
//!
//! One [`Scratch`] lives for one `SpikingTransformer::infer` call, or for
//! the life of one `TransformerStepper`. Every buffer is overwritten before
//! it is read; nothing leaks from one use to the next.

use bishop_neuron::{LifConfig, LifLayer};

/// The context every layer's forward pass runs in.
pub(crate) struct Forward<'a> {
    pub(crate) scratch: &'a mut Scratch,
    pub(crate) membranes: Membranes<'a>,
}

impl<'a> Forward<'a> {
    /// The context of a layer's public `forward`: fresh membranes, its own
    /// scratch.
    pub(crate) fn standalone(scratch: &'a mut Scratch) -> Self {
        Forward {
            scratch,
            membranes: Membranes::Fresh,
        }
    }
}

/// Where a forward pass keeps its LIF membranes.
pub(crate) enum Membranes<'a> {
    /// A fresh layer (all membranes at the reset potential) per spike
    /// generator, dropped once its layer has run — the fused pass.
    Fresh,
    /// Persistent layers handed out in forward-pass order: per block Q, K,
    /// V, `O_temp`, `W_O`, fc1, fc2 — the stepper.
    Kept(std::slice::IterMut<'a, LifLayer>),
}

impl Membranes<'_> {
    /// Runs `layer` with the spike generator (`units` neurons) it fires.
    pub(crate) fn with_next<R>(
        &mut self,
        units: usize,
        config: LifConfig,
        layer: impl FnOnce(&mut LifLayer) -> R,
    ) -> R {
        match self {
            Membranes::Fresh => layer(&mut LifLayer::new(units, config)),
            Membranes::Kept(kept) => layer(kept.next().expect("one kept layer per generator")),
        }
    }
}

/// Reused working memory of the native forward pass.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The `N × D_out` synaptic-integration plane of the layer in flight
    /// (and the concatenated head-output plane of the attention stage).
    pub(crate) plane: Vec<f32>,
    /// The active input features of the token row being integrated.
    pub(crate) active: Vec<usize>,
    /// One `N × N` attention score matrix, reused across heads and timesteps.
    pub(crate) scores: Vec<f32>,
    pub(crate) heads: HeadWords,
}

/// Head sub-rows packed for one (timestep, head) of the attention stage:
/// the token indices of the Q and K rows with a spike inside the head and
/// their logical head words back to back, and the words of the V row being
/// accumulated.
#[derive(Debug, Default)]
pub(crate) struct HeadWords {
    pub(crate) q_rows: Vec<usize>,
    pub(crate) q_words: Vec<u64>,
    pub(crate) k_rows: Vec<usize>,
    pub(crate) k_words: Vec<u64>,
    pub(crate) v_bits: Vec<u64>,
}

/// The first `len` elements of `buffer`, grown (never shrunk) to fit;
/// contents are unspecified.
pub(crate) fn sized(buffer: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buffer.len() < len {
        buffer.resize(len, 0.0);
    }
    &mut buffer[..len]
}
