//! Bit-packed binary spike tensor.

use crate::words::{simd, RowBits};
use crate::{ShapeError, TensorShape};

/// A binary spiking activation tensor of shape `T × N × D`, bit-packed 64
/// positions per `u64` word.
///
/// The tensor stores the output of an LIF neuron layer: position `(t, n, d)`
/// is `true` when token `n` fired on feature `d` at timestep `t`. All the
/// Token-Time-Bundle machinery (`bishop-bundle`) as well as the accelerator
/// simulators consume this type.
///
/// # Bit layout guarantee
///
/// The packing is row-major with the **feature axis fastest-varying**: bit
/// `(t, n, d)` lives at linear bit index `((t·N) + n)·D + d`, packed
/// little-endian into `u64` words (bit `i` is bit `i % 64` of word
/// `i / 64`). Two consequences every consumer may rely on:
///
/// * the feature vector of one `(t, n)` position — a *feature row* — is a
///   contiguous range of `D` bits, exposed zero-copy via
///   [`SpikeTensor::row_words`] and the word-parallel kernels of
///   [`crate::words`];
/// * bits at linear indices `>= len()` in the final word are always zero
///   (the *tail invariant*), so bulk word operations (`popcount`, AND, OR)
///   over [`SpikeTensor::words`] are exact without masking.
///
/// Rows are **not** padded to word boundaries: when `D % 64 != 0`,
/// consecutive rows straddle words at varying bit offsets, which
/// [`RowBits`] handles by assembling aligned logical words on the fly.
///
/// ```
/// use bishop_spiketensor::{SpikeTensor, TensorShape};
///
/// let mut q = SpikeTensor::zeros(TensorShape::new(2, 4, 8));
/// q.set(1, 2, 3, true);
/// q.set(0, 0, 0, true);
/// assert_eq!(q.count_ones(), 2);
/// assert!((q.density() - 2.0 / 64.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpikeTensor {
    shape: TensorShape,
    words: Vec<u64>,
}

impl SpikeTensor {
    /// Creates an all-zero spike tensor of the given shape.
    pub fn zeros(shape: TensorShape) -> Self {
        let words = vec![0u64; shape.len().div_ceil(64)];
        Self { shape, words }
    }

    /// Creates an all-one spike tensor of the given shape (every position
    /// fired). Mostly useful for worst-case workload modelling and tests.
    pub fn ones(shape: TensorShape) -> Self {
        let mut tensor = Self::zeros(shape);
        for word in &mut tensor.words {
            *word = u64::MAX;
        }
        tensor.clear_tail();
        tensor.debug_assert_tail_invariant();
        tensor
    }

    /// Builds a tensor by evaluating `f` on every coordinate.
    ///
    /// ```
    /// use bishop_spiketensor::{SpikeTensor, TensorShape};
    /// let t = SpikeTensor::from_fn(TensorShape::new(2, 2, 2), |t, n, d| (t + n + d) % 2 == 0);
    /// assert_eq!(t.count_ones(), 4);
    /// ```
    pub fn from_fn<F>(shape: TensorShape, mut f: F) -> Self
    where
        F: FnMut(usize, usize, usize) -> bool,
    {
        // Assemble each word locally instead of calling `set` per coordinate:
        // the coordinates are visited in layout order, so bits stream into
        // one register-resident word at a time (no per-bit index math or
        // read-modify-write of the words vector).
        let mut words = Vec::with_capacity(shape.len().div_ceil(64));
        let mut word = 0u64;
        let mut filled = 0u32;
        for t in 0..shape.timesteps {
            for n in 0..shape.tokens {
                for d in 0..shape.features {
                    if f(t, n, d) {
                        word |= 1 << filled;
                    }
                    filled += 1;
                    if filled == 64 {
                        words.push(word);
                        word = 0;
                        filled = 0;
                    }
                }
            }
        }
        if filled > 0 {
            words.push(word);
        }
        let tensor = Self { shape, words };
        tensor.debug_assert_tail_invariant();
        tensor
    }

    /// Builds a tensor one timestep plane at a time from already-packed
    /// words — the constructor spike generators use, so a layer's fired bits
    /// go from the kernel into the tensor without a per-bit `set`.
    ///
    /// For every timestep `t`, `fill(t, plane)` receives a zeroed buffer of
    /// `(N·D).div_ceil(64)` words and writes that timestep's `N·D` spike
    /// bits into it, token-major (bit `n·D + d`, little-endian as in the
    /// type's layout guarantee). When `N·D` is a multiple of 64 the buffer
    /// *is* the plane's slice of the tensor storage; otherwise planes start
    /// at varying bit offsets and each filled buffer is shifted into place.
    ///
    /// # Panics
    ///
    /// Panics if `fill` leaves a bit at or beyond `N·D` set in a plane
    /// buffer (which would corrupt the next plane or the tail invariant).
    pub fn from_plane_words(shape: TensorShape, mut fill: impl FnMut(usize, &mut [u64])) -> Self {
        let plane = shape.tokens * shape.features;
        let plane_words = plane.div_ceil(64);
        let mut words = vec![0u64; shape.len().div_ceil(64)];
        if plane.is_multiple_of(64) {
            for (t, out) in words.chunks_exact_mut(plane_words).enumerate() {
                fill(t, out);
            }
        } else {
            let mut scratch = vec![0u64; plane_words];
            for t in 0..shape.timesteps {
                scratch.fill(0);
                fill(t, &mut scratch);
                assert!(
                    scratch[plane_words - 1] >> (plane % 64) == 0,
                    "plane {t} has bits set beyond its {plane} positions"
                );
                deposit_row(&mut words, t * plane, plane, |i| scratch[i]);
            }
        }
        let tensor = Self { shape, words };
        tensor.debug_assert_tail_invariant();
        tensor
    }

    /// The tensor's shape.
    pub fn shape(&self) -> TensorShape {
        self.shape
    }

    /// Reads the spike at `(t, n, d)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, t: usize, n: usize, d: usize) -> bool {
        let idx = self.shape.linear_index(t, n, d);
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Writes the spike at `(t, n, d)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, t: usize, n: usize, d: usize, value: bool) {
        let idx = self.shape.linear_index(t, n, d);
        let word = &mut self.words[idx / 64];
        if value {
            *word |= 1 << (idx % 64);
        } else {
            *word &= !(1 << (idx % 64));
        }
        self.debug_assert_tail_invariant();
    }

    /// The packed word storage. Bits beyond `shape().len()` in the final
    /// word are guaranteed zero (the tail invariant), so bulk word
    /// operations over this slice are exact.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Zero-copy word view of the feature row of `(t, n)`: the `D`
    /// contiguous bits holding that position's feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `n` is out of bounds.
    #[inline]
    pub fn row_words(&self, t: usize, n: usize) -> RowBits<'_> {
        assert!(
            t < self.shape.timesteps && n < self.shape.tokens,
            "row ({t}, {n}) out of bounds for shape {}",
            self.shape
        );
        let start = (t * self.shape.tokens + n) * self.shape.features;
        RowBits::new(&self.words, start, self.shape.features)
    }

    /// Zero-copy view of features `d_start..d_end` of the feature row of
    /// `(t, n)` — e.g. one attention head's sub-row. Replaces the copying
    /// [`SpikeTensor::head_slice`] in hot paths.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates or feature range are out of bounds.
    #[inline]
    pub fn row_feature_slice(
        &self,
        t: usize,
        n: usize,
        d_start: usize,
        d_end: usize,
    ) -> RowBits<'_> {
        self.row_words(t, n).slice(d_start, d_end)
    }

    /// Number of active spikes in the whole tensor. Runs on the active SIMD
    /// popcount tier — exact without masking thanks to the tail invariant.
    pub fn count_ones(&self) -> usize {
        simd::active().popcount(&self.words) as usize
    }

    /// Fraction of positions that fired, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        self.count_ones() as f64 / self.shape.len() as f64
    }

    /// Fraction of positions that did *not* fire, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.density()
    }

    /// Number of active spikes on feature column `d` across all timesteps and
    /// tokens.
    pub fn feature_count(&self, d: usize) -> usize {
        assert!(d < self.shape.features, "feature {d} out of bounds");
        let mut count = 0;
        for t in 0..self.shape.timesteps {
            for n in 0..self.shape.tokens {
                if self.get(t, n, d) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Firing density of feature column `d`.
    pub fn feature_density(&self, d: usize) -> f64 {
        self.feature_count(d) as f64 / self.shape.spatiotemporal_len() as f64
    }

    /// Number of active spikes for token `n` at timestep `t` across all
    /// features (the length of the token's active feature vector).
    pub fn token_count(&self, t: usize, n: usize) -> usize {
        self.row_words(t, n).count_ones()
    }

    /// Counts active spikes inside the axis-aligned region
    /// `[t0, t1) × [n0, n1)` of feature `d`.
    ///
    /// This is the `L0` norm used for Token-Time-Bundle activity tags
    /// (Eq. 9 of the paper). Ranges are clamped to the tensor bounds.
    pub fn count_in_region(
        &self,
        t_range: (usize, usize),
        n_range: (usize, usize),
        d: usize,
    ) -> usize {
        let (t0, t1) = (t_range.0, t_range.1.min(self.shape.timesteps));
        let (n0, n1) = (n_range.0, n_range.1.min(self.shape.tokens));
        let mut count = 0;
        for t in t0..t1 {
            for n in n0..n1 {
                if self.get(t, n, d) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Counts active spikes inside the three-dimensional region
    /// `[t0, t1) × [n0, n1) × [d0, d1)`, word-wise along the feature axis
    /// (partial tail words of each row slice are masked exactly). Ranges are
    /// clamped to the tensor bounds.
    ///
    /// This is the bundle-region popcount underneath Token-Time-Bundle
    /// activity accounting: the tag of bundle `(bt, bn, d)` is this count
    /// with a single-feature `d` range, and a bundle row's total activity is
    /// this count over the full feature range.
    pub fn count_in_region_features(
        &self,
        t_range: (usize, usize),
        n_range: (usize, usize),
        d_range: (usize, usize),
    ) -> usize {
        let (t0, t1) = (t_range.0, t_range.1.min(self.shape.timesteps));
        let (n0, n1) = (n_range.0, n_range.1.min(self.shape.tokens));
        let (d0, d1) = (d_range.0, d_range.1.min(self.shape.features));
        if t0 >= t1 || n0 >= n1 || d0 >= d1 {
            return 0;
        }
        let mut count = 0;
        for t in t0..t1 {
            for n in n0..n1 {
                count += self.row_feature_slice(t, n, d0, d1).count_ones();
            }
        }
        count
    }

    /// Scalar reference implementation of
    /// [`SpikeTensor::count_in_region_features`], kept for differential
    /// testing of the word-parallel region popcount.
    pub fn count_in_region_features_reference(
        &self,
        t_range: (usize, usize),
        n_range: (usize, usize),
        d_range: (usize, usize),
    ) -> usize {
        let (t0, t1) = (t_range.0, t_range.1.min(self.shape.timesteps));
        let (n0, n1) = (n_range.0, n_range.1.min(self.shape.tokens));
        let (d0, d1) = (d_range.0, d_range.1.min(self.shape.features));
        let mut count = 0;
        for t in t0..t1 {
            for n in n0..n1 {
                for d in d0..d1 {
                    if self.get(t, n, d) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    /// Iterates over the coordinates of all active spikes in layout order.
    ///
    /// Driven by `trailing_zeros` over the packed words; allocation-free and
    /// proportional to the number of spikes (plus one load per word).
    pub fn iter_active(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        ActiveBits {
            shape: self.shape,
            words: &self.words,
            next_word: 0,
            current: 0,
            base: 0,
        }
    }

    /// Elementwise logical AND of two tensors of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn and(&self, other: &SpikeTensor) -> Result<SpikeTensor, ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new("elementwise and", self.shape, other.shape));
        }
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        let result = SpikeTensor {
            shape: self.shape,
            words,
        };
        result.debug_assert_tail_invariant();
        Ok(result)
    }

    /// Elementwise logical OR of two tensors of identical shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn or(&self, other: &SpikeTensor) -> Result<SpikeTensor, ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::new("elementwise or", self.shape, other.shape));
        }
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        let result = SpikeTensor {
            shape: self.shape,
            words,
        };
        result.debug_assert_tail_invariant();
        Ok(result)
    }

    /// Returns a copy restricted to the given feature columns (all other
    /// columns cleared). Used by the stratifier to split a workload into its
    /// dense-routed and sparse-routed halves while keeping the original
    /// feature indexing.
    pub fn masked_by_features(&self, features: &[usize]) -> SpikeTensor {
        // Build the feature-keep mask once as a logical row of D bits, then
        // AND every feature row against it word-wise.
        let row_words = self.shape.features.div_ceil(64);
        let mut mask = vec![0u64; row_words];
        for &d in features {
            assert!(d < self.shape.features, "feature {d} out of bounds");
            mask[d / 64] |= 1 << (d % 64);
        }
        let mut result = SpikeTensor::zeros(self.shape);
        for t in 0..self.shape.timesteps {
            for n in 0..self.shape.tokens {
                let row = self.row_words(t, n);
                let start = (t * self.shape.tokens + n) * self.shape.features;
                deposit_row(&mut result.words, start, self.shape.features, |i| {
                    row.word(i) & mask[i]
                });
            }
        }
        result.debug_assert_tail_invariant();
        result
    }

    /// Extracts the feature sub-tensor for attention head `head` out of
    /// `heads` equally sized heads. Feature `d` of the result corresponds to
    /// feature `head * (D / heads) + d` of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `heads` does not divide `D` or `head >= heads`.
    /// For hot paths prefer [`SpikeTensor::row_feature_slice`], which views
    /// the same head sub-rows zero-copy instead of materialising them.
    pub fn head_slice(&self, head: usize, heads: usize) -> SpikeTensor {
        let head_shape = self.shape.per_head(heads);
        assert!(head < heads, "head index {head} out of range 0..{heads}");
        let offset = head * head_shape.features;
        let mut result = SpikeTensor::zeros(head_shape);
        for t in 0..head_shape.timesteps {
            for n in 0..head_shape.tokens {
                let sub = self.row_feature_slice(t, n, offset, offset + head_shape.features);
                let start = (t * head_shape.tokens + n) * head_shape.features;
                deposit_row(&mut result.words, start, head_shape.features, |i| {
                    sub.word(i)
                });
            }
        }
        result.debug_assert_tail_invariant();
        result
    }

    /// Per-timestep view: number of spikes at each timestep.
    pub fn per_timestep_counts(&self) -> Vec<usize> {
        (0..self.shape.timesteps)
            .map(|t| {
                (0..self.shape.tokens)
                    .map(|n| self.row_words(t, n).count_ones())
                    .sum()
            })
            .collect()
    }

    /// Per-token firing count of the token's features summed over time; a
    /// proxy for "how busy" a token is, used by ECP statistics.
    pub fn per_token_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.shape.tokens];
        for t in 0..self.shape.timesteps {
            for (n, count) in counts.iter_mut().enumerate() {
                *count += self.row_words(t, n).count_ones();
            }
        }
        counts
    }

    /// Per-feature firing counts across all timesteps and tokens.
    pub fn per_feature_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.shape.features];
        for t in 0..self.shape.timesteps {
            for n in 0..self.shape.tokens {
                for d in self.row_words(t, n).iter_set_bits() {
                    counts[d] += 1;
                }
            }
        }
        counts
    }

    /// Clears the entire feature row of `(t, n)` word-wise (all `D` bits at
    /// once). Used by the pruning paths that drop whole bundle rows.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `n` is out of bounds.
    pub fn clear_row(&mut self, t: usize, n: usize) {
        assert!(
            t < self.shape.timesteps && n < self.shape.tokens,
            "row ({t}, {n}) out of bounds for shape {}",
            self.shape
        );
        let start = (t * self.shape.tokens + n) * self.shape.features;
        let end = start + self.shape.features;
        for w in start / 64..end.div_ceil(64) {
            let lo = (w * 64).max(start) - w * 64;
            let hi = ((w + 1) * 64).min(end) - w * 64;
            // Mask covering row bits [lo, hi) of this word.
            let mask = if hi - lo == 64 {
                u64::MAX
            } else {
                ((1u64 << (hi - lo)) - 1) << lo
            };
            self.words[w] &= !mask;
        }
        self.debug_assert_tail_invariant();
    }

    /// Overwrites the feature row of `(t, n)` from logical 64-bit source
    /// words: bit `d` of the row becomes bit `d % 64` of `source(d / 64)`.
    /// Source bits at or beyond `D` in the final logical word are ignored,
    /// so the tail invariant is preserved unconditionally.
    ///
    /// This is the word-wise dual of [`SpikeTensor::row_words`]; the pruning
    /// and masking paths use it to write a whole transformed row per
    /// iteration instead of one bit at a time.
    ///
    /// # Panics
    ///
    /// Panics if `t` or `n` is out of bounds.
    pub fn set_row_words(&mut self, t: usize, n: usize, mut source: impl FnMut(usize) -> u64) {
        self.clear_row(t, n);
        let features = self.shape.features;
        let start = (t * self.shape.tokens + n) * features;
        deposit_row(&mut self.words, start, features, |i| {
            let value = source(i);
            let remaining = features - i * 64;
            if remaining >= 64 {
                value
            } else {
                value & ((1u64 << remaining) - 1)
            }
        });
        self.debug_assert_tail_invariant();
    }

    /// Size in bytes of the packed representation (what the accelerator would
    /// move for this tensor when stored as a bitmap).
    pub fn packed_bytes(&self) -> usize {
        self.shape.len().div_ceil(8)
    }

    /// Clears bits beyond the logical length in the final word so that
    /// `count_ones` stays exact after bulk word operations.
    fn clear_tail(&mut self) {
        let valid = self.shape.len();
        let last_bits = valid % 64;
        if last_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << last_bits) - 1;
            }
        }
    }

    /// Debug check of the documented tail invariant: bits at linear indices
    /// `>= len()` in the final word are zero. Every mutation site asserts
    /// this so SIMD tail-handling bugs fail loudly in debug builds instead
    /// of silently corrupting bulk word kernels.
    #[inline]
    fn debug_assert_tail_invariant(&self) {
        debug_assert!(
            self.tail_is_zero(),
            "tail invariant violated: bits beyond len() set in final word of shape {}",
            self.shape
        );
    }

    /// Whether the tail invariant currently holds.
    fn tail_is_zero(&self) -> bool {
        let last_bits = self.shape.len() % 64;
        if last_bits == 0 {
            return true;
        }
        match self.words.last() {
            Some(&last) => last & !((1u64 << last_bits) - 1) == 0,
            None => true,
        }
    }
}

/// Writes a row of `len` bits into `words` starting at absolute bit `start`,
/// taking logical 64-bit source words from `source(i)`. The target bits must
/// currently be zero (rows are written at most once), so an OR deposit
/// suffices; source words must have bits `>= len - 64·i` cleared, which
/// [`RowBits::word`] guarantees.
fn deposit_row(words: &mut [u64], start: usize, len: usize, mut source: impl FnMut(usize) -> u64) {
    let offset = (start % 64) as u32;
    let first = start / 64;
    for i in 0..len.div_ceil(64) {
        let value = source(i);
        let w = first + i;
        words[w] |= value << offset;
        let bits_here = 64.min(len - i * 64);
        if offset > 0 && offset as usize + bits_here > 64 {
            words[w + 1] |= value >> (64 - offset);
        }
    }
}

/// Allocation-free iterator over active spike coordinates, in layout order.
struct ActiveBits<'a> {
    shape: TensorShape,
    words: &'a [u64],
    next_word: usize,
    current: u64,
    base: usize,
}

impl Iterator for ActiveBits<'_> {
    type Item = (usize, usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize, usize)> {
        while self.current == 0 {
            if self.next_word >= self.words.len() {
                return None;
            }
            self.base = self.next_word * 64;
            self.current = self.words[self.next_word];
            self.next_word += 1;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        let linear = self.base + bit;
        // The tail invariant guarantees no bits at or beyond len().
        debug_assert!(linear < self.shape.len());
        Some(self.shape.coordinates(linear))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SpikeTensor {
        let mut t = SpikeTensor::zeros(TensorShape::new(2, 3, 4));
        t.set(0, 0, 0, true);
        t.set(0, 1, 2, true);
        t.set(1, 2, 3, true);
        t
    }

    #[test]
    fn zeros_has_no_spikes() {
        let t = SpikeTensor::zeros(TensorShape::new(3, 5, 7));
        assert_eq!(t.count_ones(), 0);
        assert_eq!(t.density(), 0.0);
        assert_eq!(t.sparsity(), 1.0);
    }

    #[test]
    fn ones_covers_every_position_exactly() {
        let shape = TensorShape::new(3, 5, 7);
        let t = SpikeTensor::ones(shape);
        assert_eq!(t.count_ones(), shape.len());
        assert_eq!(t.density(), 1.0);
    }

    #[test]
    fn set_get_round_trip() {
        let mut t = SpikeTensor::zeros(TensorShape::new(4, 4, 4));
        t.set(3, 3, 3, true);
        assert!(t.get(3, 3, 3));
        t.set(3, 3, 3, false);
        assert!(!t.get(3, 3, 3));
    }

    #[test]
    fn count_in_region_matches_manual_count() {
        let t = small();
        assert_eq!(t.count_in_region((0, 1), (0, 2), 0), 1);
        assert_eq!(t.count_in_region((0, 1), (0, 2), 2), 1);
        assert_eq!(t.count_in_region((0, 2), (0, 3), 3), 1);
        assert_eq!(t.count_in_region((0, 2), (0, 3), 1), 0);
    }

    #[test]
    fn count_in_region_clamps_ranges() {
        let t = small();
        assert_eq!(t.count_in_region((0, 100), (0, 100), 3), 1);
    }

    #[test]
    fn iter_active_yields_exactly_set_positions() {
        let t = small();
        let active: Vec<_> = t.iter_active().collect();
        assert_eq!(active, vec![(0, 0, 0), (0, 1, 2), (1, 2, 3)]);
    }

    #[test]
    fn feature_and_token_counts() {
        let t = small();
        assert_eq!(t.feature_count(0), 1);
        assert_eq!(t.feature_count(1), 0);
        assert_eq!(t.token_count(0, 1), 1);
        assert_eq!(t.token_count(1, 2), 1);
        assert_eq!(t.per_feature_counts(), vec![1, 0, 1, 1]);
        assert_eq!(t.per_token_counts(), vec![1, 1, 1]);
        assert_eq!(t.per_timestep_counts(), vec![2, 1]);
    }

    #[test]
    fn and_or_respect_shapes() {
        let a = small();
        let mut b = SpikeTensor::zeros(a.shape());
        b.set(0, 0, 0, true);
        b.set(1, 1, 1, true);
        let and = a.and(&b).unwrap();
        assert_eq!(and.count_ones(), 1);
        assert!(and.get(0, 0, 0));
        let or = a.or(&b).unwrap();
        assert_eq!(or.count_ones(), 4);

        let c = SpikeTensor::zeros(TensorShape::new(1, 1, 1));
        assert!(a.and(&c).is_err());
        assert!(a.or(&c).is_err());
    }

    #[test]
    fn masked_by_features_keeps_only_selected_columns() {
        let t = small();
        let masked = t.masked_by_features(&[2, 3]);
        assert_eq!(masked.count_ones(), 2);
        assert!(!masked.get(0, 0, 0));
        assert!(masked.get(0, 1, 2));
    }

    #[test]
    fn head_slice_extracts_contiguous_features() {
        let shape = TensorShape::new(1, 2, 8);
        let t = SpikeTensor::from_fn(shape, |_, _, d| d >= 4);
        let head0 = t.head_slice(0, 2);
        let head1 = t.head_slice(1, 2);
        assert_eq!(head0.count_ones(), 0);
        assert_eq!(head1.count_ones(), 2 * 4);
    }

    #[test]
    fn packed_bytes_rounds_up() {
        let t = SpikeTensor::zeros(TensorShape::new(1, 1, 9));
        assert_eq!(t.packed_bytes(), 2);
    }

    #[test]
    fn from_plane_words_matches_from_fn_aligned_and_shifted() {
        // 4×16 planes are one word each; 3×7 planes start at bit offsets
        // 0, 21, 42, 63, 84 and straddle words.
        for shape in [TensorShape::new(3, 4, 16), TensorShape::new(5, 3, 7)] {
            let predicate = |t: usize, n: usize, d: usize| (t * 5 + n * 3 + d) % 4 != 1;
            let plane = shape.tokens * shape.features;
            let packed = SpikeTensor::from_plane_words(shape, |t, out| {
                assert_eq!(out.len(), plane.div_ceil(64));
                assert!(out.iter().all(|&w| w == 0), "buffer arrives zeroed");
                for i in 0..plane {
                    if predicate(t, i / shape.features, i % shape.features) {
                        out[i / 64] |= 1 << (i % 64);
                    }
                }
            });
            assert_eq!(packed, SpikeTensor::from_fn(shape, predicate));
        }
    }

    #[test]
    #[should_panic(expected = "bits set beyond")]
    fn from_plane_words_rejects_bits_past_the_plane() {
        SpikeTensor::from_plane_words(TensorShape::new(2, 3, 7), |_, out| out[0] = 1 << 21);
    }

    #[test]
    fn from_fn_matches_predicate() {
        let shape = TensorShape::new(2, 2, 2);
        let t = SpikeTensor::from_fn(shape, |t, n, d| t == 1 && n == 0 && d == 1);
        assert_eq!(t.count_ones(), 1);
        assert!(t.get(1, 0, 1));
    }
}
