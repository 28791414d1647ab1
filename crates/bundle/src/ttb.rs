//! Token-Time Bundle geometry and activity tags.

use bishop_spiketensor::words::simd;
use bishop_spiketensor::{SpikeTensor, TensorShape};

/// Shape of a Token-Time Bundle: `BSn` tokens × `BSt` timesteps.
///
/// The paper's design-space exploration (Fig. 16) finds bundle volumes
/// (`BSt · BSn`) between 4 and 8 to be near optimal; [`BundleShape::default`]
/// uses `(BSt, BSn) = (2, 4)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BundleShape {
    /// Number of timesteps packed per bundle (`BSt`).
    pub timesteps: usize,
    /// Number of tokens packed per bundle (`BSn`).
    pub tokens: usize,
}

impl Default for BundleShape {
    fn default() -> Self {
        Self {
            timesteps: 2,
            tokens: 4,
        }
    }
}

impl BundleShape {
    /// Creates a bundle shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(timesteps: usize, tokens: usize) -> Self {
        assert!(
            timesteps > 0 && tokens > 0,
            "bundle dimensions must be non-zero"
        );
        Self { timesteps, tokens }
    }

    /// The bundle volume `BSt · BSn` (number of spatiotemporal positions per
    /// bundle).
    pub fn volume(&self) -> usize {
        self.timesteps * self.tokens
    }
}

/// The grid of bundles covering a `T × N × D` activation tensor.
///
/// There are `⌈T/BSt⌉ × ⌈N/BSn⌉` bundles per feature column; bundles at the
/// upper edges may be partial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TtbGrid {
    tensor: TensorShape,
    bundle: BundleShape,
}

impl TtbGrid {
    /// Creates the bundle grid for `tensor` with bundle shape `bundle`.
    pub fn new(tensor: TensorShape, bundle: BundleShape) -> Self {
        Self { tensor, bundle }
    }

    /// The underlying tensor shape.
    pub fn tensor_shape(&self) -> TensorShape {
        self.tensor
    }

    /// The bundle shape.
    pub fn bundle_shape(&self) -> BundleShape {
        self.bundle
    }

    /// Number of bundle rows along the time axis (`⌈T/BSt⌉`).
    pub fn time_bundles(&self) -> usize {
        self.tensor.timesteps.div_ceil(self.bundle.timesteps)
    }

    /// Number of bundle rows along the token axis (`⌈N/BSn⌉`).
    pub fn token_bundles(&self) -> usize {
        self.tensor.tokens.div_ceil(self.bundle.tokens)
    }

    /// Number of bundles per feature column.
    pub fn bundles_per_feature(&self) -> usize {
        self.time_bundles() * self.token_bundles()
    }

    /// Total number of bundles across all features.
    pub fn total_bundles(&self) -> usize {
        self.bundles_per_feature() * self.tensor.features
    }

    /// The (clamped) timestep and token ranges covered by bundle `(bt, bn)`.
    ///
    /// # Panics
    ///
    /// Panics if the bundle coordinates are out of range.
    pub fn bundle_region(&self, bt: usize, bn: usize) -> ((usize, usize), (usize, usize)) {
        assert!(
            bt < self.time_bundles() && bn < self.token_bundles(),
            "bundle ({bt}, {bn}) out of range"
        );
        let t0 = bt * self.bundle.timesteps;
        let t1 = (t0 + self.bundle.timesteps).min(self.tensor.timesteps);
        let n0 = bn * self.bundle.tokens;
        let n1 = (n0 + self.bundle.tokens).min(self.tensor.tokens);
        ((t0, t1), (n0, n1))
    }

    /// The bundle coordinates containing position `(t, n)`.
    pub fn bundle_of(&self, t: usize, n: usize) -> (usize, usize) {
        assert!(
            t < self.tensor.timesteps && n < self.tensor.tokens,
            "position ({t}, {n}) out of range"
        );
        (t / self.bundle.timesteps, n / self.bundle.tokens)
    }

    /// Iterates over all `(bt, bn)` bundle coordinates.
    pub fn iter_bundles(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let token_bundles = self.token_bundles();
        (0..self.time_bundles()).flat_map(move |bt| (0..token_bundles).map(move |bn| (bt, bn)))
    }
}

/// Activity tags of every Token-Time Bundle of a spike tensor.
///
/// The tag of bundle `(bt, bn, d)` is the `L0` norm (spike count) of the
/// activations falling inside it (Eq. 9 of the paper). A bundle is *active*
/// when its tag is non-zero; inactive bundles are skipped by the Bishop
/// dataflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TtbTags {
    grid: TtbGrid,
    /// Tags indexed `((bt * token_bundles) + bn) * features + d`.
    tags: Vec<u32>,
}

impl TtbTags {
    /// Computes the tags of `tensor` under bundle shape `bundle`.
    ///
    /// Word-parallel: walks each `(t, n)` feature row once, resolves the
    /// row's bundle coordinates a single time, and enumerates the row's
    /// active features with the `trailing_zeros` set-bit iterator — no
    /// per-spike coordinate division. Bit-for-bit identical to
    /// [`TtbTags::from_tensor_reference`].
    pub fn from_tensor(tensor: &SpikeTensor, bundle: BundleShape) -> Self {
        let shape = tensor.shape();
        let grid = TtbGrid::new(shape, bundle);
        let features = shape.features;
        let kernels = simd::active();
        let mut tags = vec![0u32; grid.bundles_per_feature() * features];
        // Per-row logical words, reused across rows; the row view's masked
        // logical reads keep tail bits clear, satisfying the masked_inc
        // contract.
        let mut row_bits: Vec<u64> = Vec::with_capacity(features.div_ceil(64));
        for t in 0..shape.timesteps {
            for n in 0..shape.tokens {
                let (bt, bn) = grid.bundle_of(t, n);
                let base = (bt * grid.token_bundles() + bn) * features;
                let row = tensor.row_words(t, n);
                row_bits.clear();
                row_bits.extend((0..row.word_count()).map(|i| row.word(i)));
                kernels.masked_inc(&mut tags[base..base + features], &row_bits);
            }
        }
        Self { grid, tags }
    }

    /// Scalar reference implementation of [`TtbTags::from_tensor`], kept for
    /// differential testing and the before/after kernel benchmarks.
    pub fn from_tensor_reference(tensor: &SpikeTensor, bundle: BundleShape) -> Self {
        let grid = TtbGrid::new(tensor.shape(), bundle);
        let features = tensor.shape().features;
        let mut tags = vec![0u32; grid.bundles_per_feature() * features];
        for (t, n, d) in tensor.iter_active() {
            let (bt, bn) = grid.bundle_of(t, n);
            let idx = (bt * grid.token_bundles() + bn) * features + d;
            tags[idx] += 1;
        }
        Self { grid, tags }
    }

    /// The bundle grid the tags are defined on.
    pub fn grid(&self) -> TtbGrid {
        self.grid
    }

    fn index(&self, bt: usize, bn: usize, d: usize) -> usize {
        let features = self.grid.tensor_shape().features;
        assert!(
            bt < self.grid.time_bundles() && bn < self.grid.token_bundles() && d < features,
            "bundle tag index ({bt}, {bn}, {d}) out of range"
        );
        (bt * self.grid.token_bundles() + bn) * features + d
    }

    /// Spike count of bundle `(bt, bn, d)`.
    pub fn tag(&self, bt: usize, bn: usize, d: usize) -> u32 {
        self.tags[self.index(bt, bn, d)]
    }

    /// Whether bundle `(bt, bn, d)` contains at least one spike.
    pub fn is_active(&self, bt: usize, bn: usize, d: usize) -> bool {
        self.tag(bt, bn, d) > 0
    }

    /// Total number of bundles.
    pub fn total_bundles(&self) -> usize {
        self.tags.len()
    }

    /// Number of active bundles.
    pub fn active_bundles(&self) -> usize {
        self.tags.iter().filter(|&&t| t > 0).count()
    }

    /// Fraction of bundles that are active ("TTB density").
    pub fn active_fraction(&self) -> f64 {
        self.active_bundles() as f64 / self.total_bundles() as f64
    }

    /// Sum of all tags — the bundle-level sparsity loss contribution of this
    /// tensor (Eq. 10 uses the sum of `L0` tags; here each tag already *is*
    /// the bundle's spike count, so this equals the total spike count).
    pub fn tag_sum(&self) -> u64 {
        self.tags.iter().map(|&t| u64::from(t)).sum()
    }

    /// Number of active bundles per feature column, in feature order.
    pub fn active_per_feature(&self) -> Vec<usize> {
        self.sum_per_feature(|tag| usize::from(tag > 0))
    }

    /// Number of spikes per feature column, in feature order: the sum of the
    /// feature's tags. Equal to [`SpikeTensor::per_feature_counts`] of the
    /// tagged tensor, because every spike lies in exactly one bundle.
    pub fn spikes_per_feature(&self) -> Vec<usize> {
        self.sum_per_feature(|tag| tag as usize)
    }

    /// Per-feature sums of `term(tag)`, one bundle at a time: a bundle's
    /// tags are `features` consecutive entries, so each adds element-wise
    /// onto the counts.
    fn sum_per_feature(&self, term: impl Fn(u32) -> usize) -> Vec<usize> {
        let features = self.grid.tensor_shape().features;
        let mut counts = vec![0usize; features];
        for bundle in self.tags.chunks_exact(features) {
            for (count, &tag) in counts.iter_mut().zip(bundle) {
                *count += term(tag);
            }
        }
        counts
    }

    /// Number of active bundles of feature `d`.
    pub fn active_for_feature(&self, d: usize) -> usize {
        let mut count = 0;
        for bt in 0..self.grid.time_bundles() {
            for bn in 0..self.grid.token_bundles() {
                if self.is_active(bt, bn, d) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Number of features with no active bundle at all (BSA pushes a large
    /// fraction of features into this regime — Fig. 5).
    pub fn silent_features(&self) -> usize {
        self.active_per_feature()
            .iter()
            .filter(|&&c| c == 0)
            .count()
    }

    /// Number of active bundles in bundle row `(bt, bn)` counted across all
    /// features. This is the `n_ab` quantity ECP compares against the pruning
    /// threshold: because Q/K are binary, every attention score produced by
    /// the tokens inside this bundle row is bounded by this count.
    pub fn active_in_row(&self, bt: usize, bn: usize) -> usize {
        let features = self.grid.tensor_shape().features;
        (0..features).filter(|&d| self.is_active(bt, bn, d)).count()
    }

    /// Per-bundle-row active-bundle counts, indexed `[bt][bn]` flattened as
    /// `bt * token_bundles + bn`.
    pub fn active_per_row(&self) -> Vec<usize> {
        let mut counts = Vec::with_capacity(self.grid.bundles_per_feature());
        for bt in 0..self.grid.time_bundles() {
            for bn in 0..self.grid.token_bundles() {
                counts.push(self.active_in_row(bt, bn));
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tensor() -> SpikeTensor {
        // 4 timesteps, 8 tokens, 2 features.
        let mut t = SpikeTensor::zeros(TensorShape::new(4, 8, 2));
        t.set(0, 0, 0, true);
        t.set(1, 1, 0, true); // same bundle as above for (2,4) bundling
        t.set(3, 7, 1, true);
        t
    }

    #[test]
    fn grid_dimensions_round_up() {
        let grid = TtbGrid::new(TensorShape::new(10, 64, 384), BundleShape::new(4, 6));
        assert_eq!(grid.time_bundles(), 3);
        assert_eq!(grid.token_bundles(), 11);
        assert_eq!(grid.bundles_per_feature(), 33);
        assert_eq!(grid.total_bundles(), 33 * 384);
    }

    #[test]
    fn bundle_region_clamps_at_edges() {
        let grid = TtbGrid::new(TensorShape::new(10, 64, 4), BundleShape::new(4, 6));
        let ((t0, t1), (n0, n1)) = grid.bundle_region(2, 10);
        assert_eq!((t0, t1), (8, 10));
        assert_eq!((n0, n1), (60, 64));
    }

    #[test]
    fn bundle_of_and_region_are_consistent() {
        let grid = TtbGrid::new(TensorShape::new(10, 64, 4), BundleShape::new(3, 5));
        for t in 0..10 {
            for n in 0..64 {
                let (bt, bn) = grid.bundle_of(t, n);
                let ((t0, t1), (n0, n1)) = grid.bundle_region(bt, bn);
                assert!(t0 <= t && t < t1, "t={t} not in [{t0},{t1})");
                assert!(n0 <= n && n < n1, "n={n} not in [{n0},{n1})");
            }
        }
    }

    #[test]
    fn iter_bundles_enumerates_grid() {
        let grid = TtbGrid::new(TensorShape::new(4, 6, 1), BundleShape::new(2, 4));
        let bundles: Vec<_> = grid.iter_bundles().collect();
        assert_eq!(bundles.len(), grid.bundles_per_feature());
        assert_eq!(bundles[0], (0, 0));
        assert_eq!(*bundles.last().unwrap(), (1, 1));
    }

    #[test]
    fn tags_count_spikes_per_bundle() {
        let tags = TtbTags::from_tensor(&sample_tensor(), BundleShape::new(2, 4));
        // Spikes (0,0,0) and (1,1,0) fall in bundle (0,0) of feature 0.
        assert_eq!(tags.tag(0, 0, 0), 2);
        assert!(tags.is_active(0, 0, 0));
        // Spike (3,7,1) falls in bundle (1,1) of feature 1.
        assert_eq!(tags.tag(1, 1, 1), 1);
        assert_eq!(tags.active_bundles(), 2);
        assert_eq!(tags.total_bundles(), 2 * 2 * 2);
        assert_eq!(tags.tag_sum(), 3);
    }

    #[test]
    fn active_fraction_matches_definition() {
        let tags = TtbTags::from_tensor(&sample_tensor(), BundleShape::new(2, 4));
        assert!((tags.active_fraction() - 2.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn per_feature_and_silent_counts() {
        let tags = TtbTags::from_tensor(&sample_tensor(), BundleShape::new(2, 4));
        assert_eq!(tags.active_per_feature(), vec![1, 1]);
        assert_eq!(tags.spikes_per_feature(), vec![2, 1]);
        assert_eq!(tags.silent_features(), 0);
        assert_eq!(tags.active_for_feature(0), 1);

        let empty = SpikeTensor::zeros(TensorShape::new(4, 8, 3));
        let tags = TtbTags::from_tensor(&empty, BundleShape::default());
        assert_eq!(tags.silent_features(), 3);
        assert_eq!(tags.active_bundles(), 0);
    }

    #[test]
    fn row_counts_bound_token_activity() {
        let tags = TtbTags::from_tensor(&sample_tensor(), BundleShape::new(2, 4));
        // Row (0,0) has an active bundle only on feature 0.
        assert_eq!(tags.active_in_row(0, 0), 1);
        assert_eq!(tags.active_in_row(1, 1), 1);
        assert_eq!(tags.active_in_row(0, 1), 0);
        assert_eq!(tags.active_per_row(), vec![1, 0, 0, 1]);
    }

    #[test]
    fn full_tensor_has_all_bundles_active() {
        let tensor = SpikeTensor::ones(TensorShape::new(4, 8, 2));
        let tags = TtbTags::from_tensor(&tensor, BundleShape::new(3, 3));
        assert_eq!(tags.active_bundles(), tags.total_bundles());
        assert_eq!(tags.active_fraction(), 1.0);
        assert_eq!(tags.silent_features(), 0);
    }

    #[test]
    fn every_spike_lands_in_exactly_one_bundle() {
        let tensor = sample_tensor();
        let tags = TtbTags::from_tensor(&tensor, BundleShape::new(2, 4));
        assert_eq!(tags.tag_sum(), tensor.count_ones() as u64);
    }

    #[test]
    fn default_bundle_shape_is_in_the_papers_sweet_spot() {
        let shape = BundleShape::default();
        assert!(shape.volume() >= 4 && shape.volume() <= 8);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bundle_dimension_rejected() {
        BundleShape::new(0, 4);
    }
}
