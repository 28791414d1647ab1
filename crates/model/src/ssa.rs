//! Multi-head Spiking Self-Attention (SSA), Eq. 3–8 of the paper.

use bishop_neuron::LifConfig;
use bishop_spiketensor::words::simd;
use bishop_spiketensor::{DenseMatrix, SpikeTensor, TensorShape};
use rand::Rng;

use crate::forward::{sized, Forward, HeadWords, Scratch};
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
    let cols = head_output.cols();
    let plane = head_output.as_mut_slice();
    let words = &mut HeadWords::default();
    select_accumulate_into(plane, cols, s.as_slice(), scale, v, t, d0..d1, words);
}

/// [`select_accumulate`] on flat buffers (`plane` is `tokens × cols`, `s`
/// is `tokens × tokens`) with caller-owned word lists.
#[allow(clippy::too_many_arguments)]
fn select_accumulate_into(
    plane: &mut [f32],
    cols: usize,
    s: &[f32],
    scale: f32,
    v: &SpikeTensor,
    t: usize,
    head: std::ops::Range<usize>,
    words: &mut HeadWords,
) {
    let tokens = v.shape().tokens;
    let kernels = simd::active();
    let v_bits = &mut words.v_bits;
    for j in 0..tokens {
        let v_row = v.row_feature_slice(t, j, head.start, head.end);
        v_bits.clear();
        v_bits.extend((0..v_row.word_count()).map(|i| v_row.word(i)));
        if v_bits.iter().all(|&w| w == 0) {
            continue;
        }
        for i in 0..tokens {
            let weight = s[i * tokens + j] * scale;
            if weight == 0.0 {
                continue;
            }
            let row = &mut plane[i * cols..][head.clone()];
            kernels.masked_add(row, v_bits, weight);
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

/// Gathers the rows of `x` with at least one spike inside `head` at
/// timestep `t`: their token indices into `rows`, their logical head words
/// back to back into `words`.
fn gather_head_rows(
    x: &SpikeTensor,
    t: usize,
    head: &std::ops::Range<usize>,
    rows: &mut Vec<usize>,
    words: &mut Vec<u64>,
) {
    rows.clear();
    words.clear();
    for n in 0..x.shape().tokens {
        let row = x.row_feature_slice(t, n, head.start, head.end);
        let at = words.len();
        words.extend((0..row.word_count()).map(|i| row.word(i)));
        if words[at..].iter().all(|&w| w == 0) {
            words.truncate(at);
        } else {
            rows.push(n);
        }
    }
}

/// [`SpikingSelfAttention::attention_scores_in`] into a flat
/// `tokens × tokens` buffer, overwriting it, with caller-owned word lists.
fn scores_into(
    q: &SpikeTensor,
    k: &SpikeTensor,
    t: usize,
    head: std::ops::Range<usize>,
    s: &mut [f32],
    words: &mut HeadWords,
) {
    assert_eq!(q.shape(), k.shape(), "Q and K must have identical shapes");
    let tokens = q.shape().tokens;
    s.fill(0.0);
    gather_head_rows(q, t, &head, &mut words.q_rows, &mut words.q_words);
    gather_head_rows(k, t, &head, &mut words.k_rows, &mut words.k_words);
    let row_words = head.len().div_ceil(64).max(1);
    let kernels = simd::active();
    let long = row_words >= simd::DISPATCH_MIN_WORDS;
    let live_q = (words.q_rows.iter()).zip(words.q_words.chunks_exact(row_words));
    for (&i, qi) in live_q {
        let live_k = (words.k_rows.iter()).zip(words.k_words.chunks_exact(row_words));
        for (&j, kj) in live_k {
            let overlap = if long {
                kernels.and_popcount(qi, kj) as u32
            } else {
                qi.iter().zip(kj).map(|(a, b)| (a & b).count_ones()).sum()
            };
            s[i * tokens + j] = overlap as f32;
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
    /// Work is proportional to the rows that spiked — the software form of
    /// the attention core's zero-bundle skip. The Q and K rows with a spike
    /// inside the head are gathered **once** into packed word lists and only
    /// those pairs are scored: a plain AND + popcount over aligned logical
    /// words whatever the head's bit offset. A skipped pair is exactly the
    /// `0.0` it would have scored.
    pub fn attention_scores_in(
        q: &SpikeTensor,
        k: &SpikeTensor,
        t: usize,
        d_start: usize,
        d_end: usize,
    ) -> DenseMatrix {
        let tokens = q.shape().tokens;
        let mut s = DenseMatrix::zeros(tokens, tokens);
        let head = d_start..d_end;
        scores_into(q, k, t, head, s.as_mut_slice(), &mut HeadWords::default());
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
        self.forward_in(x, &mut Forward::standalone(&mut Scratch::default()))
    }

    /// The forward pass every path runs, over whatever timesteps `x` holds.
    ///
    /// Per timestep every head's `S` lands in the one reused score matrix,
    /// its `S·V` in the head's columns of the one head-output plane, and
    /// the `O_temp` spike generator (Eq. 7; it shares the Q projection's
    /// neuron configuration) fires that plane into the output words —
    /// heads in ascending order whether `x` holds one timestep or `T`.
    pub(crate) fn forward_in(&self, x: &SpikeTensor, ctx: &mut Forward<'_>) -> SsaOutput {
        let shape = x.shape();
        let q = self.wq.forward_in(x, ctx);
        let k = self.wk.forward_in(x, ctx);
        let v = self.wv.forward_in(x, ctx);

        let head_dim = shape.features / self.heads;
        let scale = 2.0_f32.powi(-(self.scale_shift as i32));
        let d = shape.features;
        let units = shape.tokens * d;
        let plane = sized(&mut ctx.scratch.plane, units);
        let scores = sized(&mut ctx.scratch.scores, shape.tokens * shape.tokens);
        let words = &mut ctx.scratch.heads;
        let o_temp = ctx.membranes.with_next(units, self.wq.lif_config(), |lif| {
            SpikeTensor::from_plane_words(shape, |t, fired| {
                plane.fill(0.0);
                for h in 0..self.heads {
                    let head = h * head_dim..(h + 1) * head_dim;
                    scores_into(&q, &k, t, head.clone(), scores, words);
                    // Y[t] = (S · s) · V[t]  — V is binary, so this is the
                    // spike-masked select-accumulate kernel.
                    select_accumulate_into(plane, d, scores, scale, &v, t, head, words);
                }
                lif.step_packed(plane, fired);
            })
        });
        // Eq. 8 + re-binarisation by the next stage's spike generator.
        let output = self.wo.forward_in(&o_temp, ctx);

        SsaOutput {
            q,
            k,
            v,
            o_temp,
            output,
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
        for (t, h) in [(0, 0), (1, 3)] {
            let s = SpikingSelfAttention::attention_scores_in(&out.q, &out.k, t, h * 4, h * 4 + 4);
            assert!(s.as_slice().iter().all(|&score| score <= 4.0));
        }
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
    }

    #[test]
    fn empty_input_produces_empty_attention() {
        let ssa = block(8, 2);
        let x = SpikeTensor::zeros(TensorShape::new(2, 4, 8));
        let out = ssa.forward(&x);
        assert_eq!(out.q.count_ones(), 0);
        assert_eq!(out.k.count_ones(), 0);
        assert_eq!(out.o_temp.count_ones(), 0);
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
