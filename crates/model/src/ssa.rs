//! Multi-head Spiking Self-Attention (SSA), Eq. 3–8 of the paper.

use bishop_neuron::{lif_over_time, LifConfig};
use bishop_spiketensor::words::simd;
use bishop_spiketensor::{DenseMatrix, SpikeTensor, TensorShape};
use rand::Rng;

use crate::parallel::ComputePool;
use crate::projection::SpikingLinear;

/// The SSA `S·V` select-accumulate for one head and one timestep:
/// `head_output[i, d0+d] += S[i, j]·scale` for every token pair `(i, j)`
/// with a non-zero scaled score and every set bit `d` of V's `(t, j)` head
/// sub-row.
///
/// The V sub-row's logical words are materialised once per `j` and each
/// destination row then takes one spike-masked SIMD `masked_add` — blend
/// semantics, so lanes whose V bit is clear keep their exact bit pattern and
/// the result stays bit-for-bit identical to
/// [`select_accumulate_reference`].
///
/// # Panics
///
/// Panics if `s` is not `tokens × tokens` or the feature range is out of
/// bounds for `v`.
pub fn select_accumulate(
    head_output: &mut DenseMatrix,
    s: &DenseMatrix,
    scale: f32,
    v: &SpikeTensor,
    t: usize,
    d0: usize,
    d1: usize,
) {
    let tokens = v.shape().tokens;
    assert_eq!(s.rows(), tokens, "score rows must equal token count");
    assert_eq!(s.cols(), tokens, "score cols must equal token count");
    let kernels = simd::active();
    let mut v_bits: Vec<u64> = Vec::with_capacity((d1 - d0).div_ceil(64));
    for j in 0..tokens {
        let v_row = v.row_feature_slice(t, j, d0, d1);
        v_bits.clear();
        v_bits.extend((0..v_row.word_count()).map(|i| v_row.word(i)));
        if v_bits.iter().all(|&w| w == 0) {
            continue;
        }
        for i in 0..tokens {
            let weight = s.get(i, j) * scale;
            if weight == 0.0 {
                continue;
            }
            kernels.masked_add(&mut head_output.row_mut(i)[d0..d1], &v_bits, weight);
        }
    }
}

/// Scalar reference implementation of [`select_accumulate`] (per-set-bit
/// accumulation), kept for differential testing of the spike-masked SIMD
/// kernel.
pub fn select_accumulate_reference(
    head_output: &mut DenseMatrix,
    s: &DenseMatrix,
    scale: f32,
    v: &SpikeTensor,
    t: usize,
    d0: usize,
    d1: usize,
) {
    let tokens = v.shape().tokens;
    assert_eq!(s.rows(), tokens, "score rows must equal token count");
    assert_eq!(s.cols(), tokens, "score cols must equal token count");
    for j in 0..tokens {
        let v_row = v.row_feature_slice(t, j, d0, d1);
        if v_row.count_ones() == 0 {
            continue;
        }
        for i in 0..tokens {
            let weight = s.get(i, j) * scale;
            if weight == 0.0 {
                continue;
            }
            for d in v_row.iter_set_bits() {
                head_output.add_assign(i, d0 + d, weight);
            }
        }
    }
}

/// Output bundle of an SSA block forward pass.
///
/// Besides the block output it exposes the intermediate binary tensors the
/// accelerator operates on (Q/K/V, the spiking attention output before the
/// final projection), because those are exactly the operands the Bishop
/// attention core loads, the ECP algorithm prunes, and the workload builder
/// captures.
#[derive(Debug, Clone, PartialEq)]
pub struct SsaOutput {
    /// Spiking queries (all heads concatenated), `T × N × D`.
    pub q: SpikeTensor,
    /// Spiking keys, `T × N × D`.
    pub k: SpikeTensor,
    /// Spiking values, `T × N × D`.
    pub v: SpikeTensor,
    /// Binary attention activations `O_temp = LIF(concat(S·V))`, `T × N × D`
    /// (Eq. 7).
    pub o_temp: SpikeTensor,
    /// Block output after the final projection `W_O` and its LIF stage,
    /// `T × N × D`.
    pub output: SpikeTensor,
    /// Integer attention score matrices, indexed `[head][timestep]`, each
    /// `N × N`. Scores are *unscaled* accumulations of AND operations; the
    /// power-of-two scaling is applied when computing `Y`.
    pub scores: Vec<Vec<DenseMatrix>>,
}

impl SsaOutput {
    /// Maximum attention score observed across all heads/timesteps; bounded
    /// by the per-head feature count because Q/K are binary (this is the
    /// property ECP's error bound builds on).
    pub fn max_score(&self) -> f32 {
        self.scores
            .iter()
            .flatten()
            .map(|m| m.as_slice().iter().cloned().fold(0.0, f32::max))
            .fold(0.0, f32::max)
    }
}

/// A multi-head spiking self-attention block.
///
/// The computation follows Eq. 3–8: Q/K/V are produced by spiking linear
/// layers; per head and per timestep the integer score matrix `S = Q·Kᵀ` is
/// computed from binary operands (AND + accumulate in hardware), scaled by a
/// power of two, multiplied with the binary `V` (select + accumulate), the
/// head outputs are concatenated and passed through an LIF layer *before*
/// the final projection `W_O` (the re-ordering relative to Spikformer that
/// keeps the final projection multiplication-free).
#[derive(Debug, Clone, PartialEq)]
pub struct SpikingSelfAttention {
    heads: usize,
    scale_shift: u32,
    wq: SpikingLinear,
    wk: SpikingLinear,
    wv: SpikingLinear,
    wo: SpikingLinear,
}

impl SpikingSelfAttention {
    /// Creates an SSA block with random weights.
    ///
    /// # Panics
    ///
    /// Panics if `heads` does not divide `features`.
    pub fn random<R: Rng>(
        features: usize,
        heads: usize,
        scale_shift: u32,
        lif: LifConfig,
        rng: &mut R,
    ) -> Self {
        assert!(
            heads > 0 && features.is_multiple_of(heads),
            "heads must divide features"
        );
        let scale = 1.0 / (features as f32).sqrt();
        Self {
            heads,
            scale_shift,
            wq: SpikingLinear::random(features, features, scale, lif, rng),
            wk: SpikingLinear::random(features, features, scale, lif, rng),
            wv: SpikingLinear::random(features, features, scale, lif, rng),
            wo: SpikingLinear::random(features, features, scale, lif, rng),
        }
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// The power-of-two scaling exponent applied to attention scores.
    pub fn scale_shift(&self) -> u32 {
        self.scale_shift
    }

    /// The Q projection layer.
    pub fn wq(&self) -> &SpikingLinear {
        &self.wq
    }

    /// The K projection layer.
    pub fn wk(&self) -> &SpikingLinear {
        &self.wk
    }

    /// The V projection layer.
    pub fn wv(&self) -> &SpikingLinear {
        &self.wv
    }

    /// The output projection layer.
    pub fn wo(&self) -> &SpikingLinear {
        &self.wo
    }

    /// Computes the integer attention scores `S = Q·Kᵀ` for one head and one
    /// timestep from binary operands.
    ///
    /// Word-parallel: each score is an AND + popcount over the packed
    /// feature-row words of the Q and K tokens (~64 feature positions per
    /// instruction). Bit-for-bit identical to
    /// [`SpikingSelfAttention::attention_scores_reference`].
    pub fn attention_scores(q: &SpikeTensor, k: &SpikeTensor, t: usize) -> DenseMatrix {
        assert_eq!(q.shape(), k.shape(), "Q and K must have identical shapes");
        let shape = q.shape();
        Self::attention_scores_in(q, k, t, 0, shape.features)
    }

    /// Word-parallel attention scores restricted to the feature range
    /// `d_start..d_end` (one head's features), without materialising head
    /// slices.
    ///
    /// Each Q/K row's logical head words are assembled **once** from its
    /// zero-copy [`bishop_spiketensor::RowBits`] sub-row view
    /// (`N·⌈width/64⌉` words per side), so the `tokens²` pair loop is a
    /// plain AND + popcount over aligned words whatever the head's bit
    /// offset — a 32-feature head never sits on a word boundary.
    pub fn attention_scores_in(
        q: &SpikeTensor,
        k: &SpikeTensor,
        t: usize,
        d_start: usize,
        d_end: usize,
    ) -> DenseMatrix {
        assert_eq!(q.shape(), k.shape(), "Q and K must have identical shapes");
        let tokens = q.shape().tokens;
        let mut s = DenseMatrix::zeros(tokens, tokens);
        let row_words = (d_end - d_start).div_ceil(64);
        if row_words == 0 {
            return s;
        }
        let head_words = |x: &SpikeTensor| -> Vec<u64> {
            (0..tokens)
                .flat_map(|n| {
                    let row = x.row_feature_slice(t, n, d_start, d_end);
                    (0..row_words).map(move |i| row.word(i))
                })
                .collect()
        };
        let (q_words, k_words) = (head_words(q), head_words(k));
        let kernels = simd::active();
        let long = row_words >= simd::DISPATCH_MIN_WORDS;
        for (i, qi) in q_words.chunks_exact(row_words).enumerate() {
            let pairs = s.row_mut(i).iter_mut().zip(k_words.chunks_exact(row_words));
            for (out, kj) in pairs {
                let overlap = if long {
                    kernels.and_popcount(qi, kj) as u32
                } else {
                    qi.iter().zip(kj).map(|(a, b)| (a & b).count_ones()).sum()
                };
                *out = overlap as f32;
            }
        }
        s
    }

    /// Scalar reference implementation of
    /// [`SpikingSelfAttention::attention_scores`], kept for differential
    /// testing and the before/after kernel benchmarks.
    pub fn attention_scores_reference(q: &SpikeTensor, k: &SpikeTensor, t: usize) -> DenseMatrix {
        assert_eq!(q.shape(), k.shape(), "Q and K must have identical shapes");
        let shape = q.shape();
        let mut s = DenseMatrix::zeros(shape.tokens, shape.tokens);
        for i in 0..shape.tokens {
            for j in 0..shape.tokens {
                let mut acc = 0.0;
                for d in 0..shape.features {
                    // Binary AND of q[i,d] and k[j,d], accumulated.
                    if q.get(t, i, d) && k.get(t, j, d) {
                        acc += 1.0;
                    }
                }
                s.set(i, j, acc);
            }
        }
        s
    }

    /// Full forward pass of the SSA block.
    pub fn forward(&self, x: &SpikeTensor) -> SsaOutput {
        self.forward_with(x, &ComputePool::sequential())
    }

    /// Pool-parallel [`SpikingSelfAttention::forward`].
    ///
    /// The score + select-accumulate stage fans out over *timesteps*: each
    /// task computes every head's `S` matrix (ascending head order) and the
    /// full concatenated head-output plane for its timestep. Heads write
    /// disjoint feature columns and timesteps are independent before the
    /// `O_temp` LIF stage, so any pool width produces bit-for-bit the same
    /// activations as the sequential pass.
    pub fn forward_with(&self, x: &SpikeTensor, pool: &ComputePool) -> SsaOutput {
        let shape = x.shape();
        let q = self.wq.forward_with(x, pool);
        let k = self.wk.forward_with(x, pool);
        let v = self.wv.forward_with(x, pool);

        let head_dim = shape.features / self.heads;
        let scale = 2.0_f32.powi(-(self.scale_shift as i32));
        let heads = self.heads;

        let per_timestep = pool.run(shape.timesteps, |t| {
            // Synaptic input to the O_temp LIF layer: concatenated head
            // outputs for this timestep.
            let mut head_output = DenseMatrix::zeros(shape.tokens, shape.features);
            let mut timestep_scores = Vec::with_capacity(heads);
            for h in 0..heads {
                let d0 = h * head_dim;
                let d1 = d0 + head_dim;
                // Q/K/V head sub-rows are zero-copy word views; no
                // head_slice copies on the hot path.
                let s = Self::attention_scores_in(&q, &k, t, d0, d1);
                // Y[t] = (S · s) · V[t]  — V is binary, so this is the
                // spike-masked select-accumulate kernel.
                select_accumulate(&mut head_output, &s, scale, &v, t, d0, d1);
                timestep_scores.push(s);
            }
            (timestep_scores, head_output)
        });

        let mut scores: Vec<Vec<DenseMatrix>> = (0..heads)
            .map(|_| Vec::with_capacity(shape.timesteps))
            .collect();
        let mut head_outputs: Vec<DenseMatrix> = Vec::with_capacity(shape.timesteps);
        for (timestep_scores, head_output) in per_timestep {
            for (h, s) in timestep_scores.into_iter().enumerate() {
                scores[h].push(s);
            }
            head_outputs.push(head_output);
        }

        // Eq. 7: LIF over the concatenated head outputs.
        let o_temp = lif_over_time(&head_outputs, self.wq.lif_config());
        // Eq. 8 + re-binarisation by the next stage's spike generator.
        let output = self.wo.forward_with(&o_temp, pool);

        SsaOutput {
            q,
            k,
            v,
            o_temp,
            output,
            scores,
        }
    }

    /// Shape of the activations this block expects, given a token count and
    /// timestep count.
    pub fn expected_shape(&self, timesteps: usize, tokens: usize) -> TensorShape {
        TensorShape::new(timesteps, tokens, self.wq.in_features())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn block(features: usize, heads: usize) -> SpikingSelfAttention {
        let mut rng = StdRng::seed_from_u64(5);
        SpikingSelfAttention::random(features, heads, 2, LifConfig::default(), &mut rng)
    }

    #[test]
    fn attention_scores_count_common_active_features() {
        let shape = TensorShape::new(1, 2, 4);
        let q = SpikeTensor::from_fn(shape, |_, n, d| n == 0 && d < 3);
        let k = SpikeTensor::from_fn(shape, |_, n, d| n == 1 && d >= 1);
        let s = SpikingSelfAttention::attention_scores(&q, &k, 0);
        // q token 0 active on {0,1,2}; k token 1 active on {1,2,3} -> overlap 2.
        assert_eq!(s.get(0, 1), 2.0);
        assert_eq!(s.get(0, 0), 0.0);
        assert_eq!(s.get(1, 0), 0.0);
        assert_eq!(s.get(1, 1), 0.0);
    }

    #[test]
    fn scores_are_bounded_by_head_features() {
        let ssa = block(16, 4);
        let shape = TensorShape::new(2, 6, 16);
        let x = SpikeTensor::ones(shape);
        let out = ssa.forward(&x);
        // Per-head feature count is 4, so no score can exceed 4.
        assert!(out.max_score() <= 4.0);
    }

    #[test]
    fn forward_shapes_are_consistent() {
        let ssa = block(8, 2);
        let shape = TensorShape::new(3, 5, 8);
        let x = SpikeTensor::from_fn(shape, |t, n, d| (t + n + d) % 2 == 0);
        let out = ssa.forward(&x);
        assert_eq!(out.q.shape(), shape);
        assert_eq!(out.k.shape(), shape);
        assert_eq!(out.v.shape(), shape);
        assert_eq!(out.o_temp.shape(), shape);
        assert_eq!(out.output.shape(), shape);
        assert_eq!(out.scores.len(), 2);
        assert_eq!(out.scores[0].len(), 3);
        assert_eq!(out.scores[0][0].rows(), 5);
    }

    #[test]
    fn empty_input_produces_empty_attention() {
        let ssa = block(8, 2);
        let x = SpikeTensor::zeros(TensorShape::new(2, 4, 8));
        let out = ssa.forward(&x);
        assert_eq!(out.q.count_ones(), 0);
        assert_eq!(out.k.count_ones(), 0);
        assert_eq!(out.o_temp.count_ones(), 0);
        assert_eq!(out.max_score(), 0.0);
    }

    #[test]
    fn all_outputs_are_binary_tensors() {
        // By construction SpikeTensor is binary; this checks the densities
        // are sane (not everything fires).
        let ssa = block(16, 4);
        let shape = TensorShape::new(2, 8, 16);
        let x = SpikeTensor::from_fn(shape, |t, n, d| (t * 31 + n * 17 + d * 7) % 5 == 0);
        let out = ssa.forward(&x);
        assert!(out.output.density() <= 1.0);
        assert!(out.q.density() <= 1.0);
    }

    #[test]
    fn expected_shape_uses_projection_width() {
        let ssa = block(8, 2);
        assert_eq!(ssa.expected_shape(4, 10), TensorShape::new(4, 10, 8));
        assert_eq!(ssa.heads(), 2);
        assert_eq!(ssa.scale_shift(), 2);
    }

    #[test]
    #[should_panic(expected = "heads must divide features")]
    fn heads_must_divide_features() {
        let mut rng = StdRng::seed_from_u64(1);
        SpikingSelfAttention::random(10, 3, 1, LifConfig::default(), &mut rng);
    }
}
