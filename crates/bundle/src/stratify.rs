//! The dense/sparse workload stratifier (Algorithm 1 of the paper).
//!
//! Per input feature, the stratifier counts how many of that feature's TTBs
//! are active and compares the count against a stratification threshold
//! `θs`: features with more active bundles than the threshold are routed to
//! the TT-Bundle *dense* core, the rest to the TT-Bundle *sparse* core. The
//! recorded feature index lists are used to permute the weight-matrix rows so
//! each core receives the matching weights.

use bishop_spiketensor::SpikeTensor;

use crate::summary;
use crate::ttb::{BundleShape, TtbTags};

/// The dense/sparse partition produced by the stratifier for one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratifiedWorkload {
    /// Indices of features routed to the dense core (`R_D` in Alg. 1).
    pub dense_features: Vec<usize>,
    /// Indices of features routed to the sparse core (`R_S` in Alg. 1).
    pub sparse_features: Vec<usize>,
    /// Number of active bundles routed to the dense core.
    pub dense_active_bundles: usize,
    /// Number of active bundles routed to the sparse core.
    pub sparse_active_bundles: usize,
    /// Number of spikes routed to the dense core.
    pub dense_spikes: usize,
    /// Number of spikes routed to the sparse core.
    pub sparse_spikes: usize,
    /// The threshold that produced this partition.
    pub threshold: usize,
}

impl StratifiedWorkload {
    /// Total number of features.
    pub fn total_features(&self) -> usize {
        self.dense_features.len() + self.sparse_features.len()
    }

    /// Fraction of features routed to the dense core.
    pub fn dense_feature_fraction(&self) -> f64 {
        self.dense_features.len() as f64 / self.total_features() as f64
    }

    /// Fraction of *spikes* (actual work) routed to the dense core.
    pub fn dense_work_fraction(&self) -> f64 {
        let total = self.dense_spikes + self.sparse_spikes;
        if total == 0 {
            0.0
        } else {
            self.dense_spikes as f64 / total as f64
        }
    }

    /// Checks that the partition covers every feature exactly once.
    pub fn is_partition(&self, features: usize) -> bool {
        let mut seen = vec![false; features];
        for &d in self.dense_features.iter().chain(&self.sparse_features) {
            if d >= features || seen[d] {
                return false;
            }
            seen[d] = true;
        }
        seen.into_iter().all(|s| s)
    }
}

/// The workload stratifier.
///
/// ```
/// use bishop_bundle::{BundleShape, Stratifier};
/// use bishop_spiketensor::{SpikeTensor, TensorShape};
///
/// // Feature 0 fires everywhere (dense), feature 1 never (sparse).
/// let tensor = SpikeTensor::from_fn(TensorShape::new(4, 8, 2), |_, _, d| d == 0);
/// let split = Stratifier::new(2).stratify(&tensor, BundleShape::default());
/// assert_eq!(split.dense_features, vec![0]);
/// assert_eq!(split.sparse_features, vec![1]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stratifier {
    threshold: usize,
}

impl Stratifier {
    /// Creates a stratifier with stratification threshold `θs` (a feature is
    /// dense when its active-bundle count is strictly greater than `θs`).
    pub fn new(threshold: usize) -> Self {
        Self { threshold }
    }

    /// The stratification threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Runs Algorithm 1 on `tensor`.
    pub fn stratify(&self, tensor: &SpikeTensor, bundle: BundleShape) -> StratifiedWorkload {
        let tags = TtbTags::from_tensor(tensor, bundle);
        self.stratify_tags(tensor, &tags)
    }

    /// Runs Algorithm 1 from pre-computed tags of `tensor`.
    pub fn stratify_tags(&self, tensor: &SpikeTensor, tags: &TtbTags) -> StratifiedWorkload {
        debug_assert_eq!(tensor.shape(), tags.grid().tensor_shape());
        self.partition(&tags.active_per_feature(), &tags.spikes_per_feature())
    }

    /// Runs Algorithm 1 from per-feature counts: `active[d]` active bundles
    /// and `spikes[d]` spikes of feature `d` (as produced by
    /// [`TtbTags::active_per_feature`] and [`TtbTags::spikes_per_feature`]).
    /// Both feature lists come out in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub fn partition(&self, active: &[usize], spikes: &[usize]) -> StratifiedWorkload {
        assert_eq!(active.len(), spikes.len(), "one count of each per feature");
        let mut split = StratifiedWorkload {
            dense_features: Vec::new(),
            sparse_features: Vec::new(),
            dense_active_bundles: 0,
            sparse_active_bundles: 0,
            dense_spikes: 0,
            sparse_spikes: 0,
            threshold: self.threshold,
        };
        for (d, (&active, &spikes)) in active.iter().zip(spikes).enumerate() {
            if active > self.threshold {
                split.dense_features.push(d);
                split.dense_active_bundles += active;
                split.dense_spikes += spikes;
            } else {
                split.sparse_features.push(d);
                split.sparse_active_bundles += active;
                split.sparse_spikes += spikes;
            }
        }
        split
    }

    /// Picks the smallest threshold whose stratification routes at most
    /// `target_dense_fraction` of the *features* of `tensor` to the dense
    /// core: [`Stratifier::threshold_for_dense_fraction_counts`] of its
    /// per-feature active-bundle counts.
    pub fn threshold_for_dense_fraction(
        tensor: &SpikeTensor,
        bundle: BundleShape,
        target_dense_fraction: f64,
    ) -> usize {
        let (active, _) = summary::feature_counts(tensor, bundle);
        Self::threshold_for_dense_fraction_counts(&active, target_dense_fraction)
    }

    /// Picks the smallest threshold whose stratification routes at most
    /// `target_dense_fraction` of the features to the dense core, given
    /// `active[d]` active bundles of feature `d`. This is how the
    /// design-space exploration of Fig. 15 produces different dense-to-sparse
    /// split ratios.
    ///
    /// # Panics
    ///
    /// Panics if `target_dense_fraction` is outside `[0, 1]`.
    pub fn threshold_for_dense_fraction_counts(
        active: &[usize],
        target_dense_fraction: f64,
    ) -> usize {
        assert!(
            (0.0..=1.0).contains(&target_dense_fraction),
            "target fraction must be in [0, 1]"
        );
        let mut counts = active.to_vec();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let dense_target = (target_dense_fraction * counts.len() as f64).round() as usize;
        if dense_target == 0 {
            return counts.first().copied().unwrap_or(0);
        }
        if dense_target >= counts.len() {
            return 0;
        }
        // Features with count > threshold are dense; choose the count at the
        // boundary so approximately `dense_target` features exceed it.
        counts[dense_target.saturating_sub(1)]
            .saturating_sub(1)
            .max(counts[dense_target])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_spiketensor::{SpikeTraceGenerator, TensorShape, TraceProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mixed_tensor() -> SpikeTensor {
        // Features 0..4 hot, 4..16 cold.
        SpikeTensor::from_fn(TensorShape::new(8, 16, 16), |t, n, d| {
            if d < 4 {
                (t + n) % 2 == 0
            } else {
                t == 0 && n == d - 4
            }
        })
    }

    #[test]
    fn stratification_is_a_partition() {
        let tensor = mixed_tensor();
        for threshold in 0..10 {
            let split = Stratifier::new(threshold).stratify(&tensor, BundleShape::default());
            assert!(
                split.is_partition(16),
                "threshold {threshold} broke the partition"
            );
        }
    }

    #[test]
    fn hot_features_go_dense_cold_features_go_sparse() {
        let split = Stratifier::new(2).stratify(&mixed_tensor(), BundleShape::default());
        for d in 0..4 {
            assert!(
                split.dense_features.contains(&d),
                "hot feature {d} should be dense"
            );
        }
        for d in 4..16 {
            assert!(
                split.sparse_features.contains(&d),
                "cold feature {d} should be sparse"
            );
        }
        assert!(split.dense_work_fraction() > 0.8);
    }

    #[test]
    fn zero_threshold_routes_every_active_feature_dense() {
        let split = Stratifier::new(0).stratify(&mixed_tensor(), BundleShape::default());
        // Every feature with at least one active bundle is "dense" at θs=0.
        assert!(split
            .sparse_features
            .iter()
            .all(|&d| { mixed_tensor().feature_count(d) == 0 || d >= 4 }));
        assert_eq!(split.threshold, 0);
    }

    #[test]
    fn huge_threshold_routes_everything_sparse() {
        let split = Stratifier::new(usize::MAX).stratify(&mixed_tensor(), BundleShape::default());
        assert!(split.dense_features.is_empty());
        assert_eq!(split.sparse_features.len(), 16);
        assert_eq!(split.dense_work_fraction(), 0.0);
    }

    #[test]
    fn work_conservation_across_the_split() {
        let tensor = mixed_tensor();
        let split = Stratifier::new(3).stratify(&tensor, BundleShape::default());
        assert_eq!(
            split.dense_spikes + split.sparse_spikes,
            tensor.count_ones()
        );
        let tags = TtbTags::from_tensor(&tensor, BundleShape::default());
        assert_eq!(
            split.dense_active_bundles + split.sparse_active_bundles,
            tags.active_bundles()
        );
    }

    #[test]
    fn threshold_selection_hits_target_fraction_roughly() {
        let mut rng = StdRng::seed_from_u64(11);
        let tensor = SpikeTraceGenerator::new(TraceProfile::new(0.15).with_feature_spread(2.0))
            .generate(TensorShape::new(8, 64, 128), &mut rng);
        for target in [0.25, 0.5, 0.75] {
            let threshold =
                Stratifier::threshold_for_dense_fraction(&tensor, BundleShape::default(), target);
            let split = Stratifier::new(threshold).stratify(&tensor, BundleShape::default());
            let fraction = split.dense_feature_fraction();
            assert!(
                (fraction - target).abs() < 0.25,
                "target {target}, got {fraction} (threshold {threshold})"
            );
        }
    }

    #[test]
    fn empty_tensor_routes_everything_sparse() {
        let tensor = SpikeTensor::zeros(TensorShape::new(4, 8, 8));
        let split = Stratifier::new(0).stratify(&tensor, BundleShape::default());
        assert!(split.dense_features.is_empty());
        assert_eq!(split.sparse_features.len(), 8);
        assert_eq!(split.dense_work_fraction(), 0.0);
    }
}
