//! The hardware stratifier: routes each input feature of an MLP/projection
//! layer to the dense or the sparse TT-Bundle core (§5.3, Alg. 1).

use bishop_bundle::{BundleShape, StratifiedWorkload, Stratifier, TtbTags};
use bishop_memsys::{EnergyModel, MemoryTraffic};
use bishop_spiketensor::SpikeTensor;

use crate::config::{BishopConfig, StratifyPolicy};
use crate::metrics::CoreCost;

/// Aggregate description of the part of a layer's workload routed to one
/// core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoutedSlice {
    /// Number of input features routed to this core.
    pub feature_count: usize,
    /// Number of active TTBs among those features.
    pub active_bundles: usize,
    /// Number of spikes among those features.
    pub spikes: usize,
    /// Bundle volume (`BSt · BSn`) used for packing.
    pub bundle_volume: usize,
    /// Sum over routed features of `ceil(active_bundles(d) / bundle_lanes)` —
    /// the number of times each feature's weight row must be streamed from
    /// the weight GLB given `bundle_lanes` bundles share a fetched row.
    pub weight_row_fetches: usize,
}

/// Result of stratifying one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct StratifiedLayer {
    /// The feature partition.
    pub split: StratifiedWorkload,
    /// Aggregates of the dense-routed part.
    pub dense: RoutedSlice,
    /// Aggregates of the sparse-routed part.
    pub sparse: RoutedSlice,
    /// Cost of running the stratifier itself.
    pub cost: CoreCost,
}

/// The stratifier unit model.
#[derive(Debug, Clone, PartialEq)]
pub struct StratifierUnit {
    config: BishopConfig,
    bundle: BundleShape,
    policy: StratifyPolicy,
    bundle_lanes: usize,
}

impl StratifierUnit {
    /// Creates a stratifier from the accelerator configuration.
    pub fn new(config: &BishopConfig) -> Self {
        Self {
            bundle: config.bundle,
            policy: config.stratify,
            bundle_lanes: config.dense_bundle_lanes,
            config: config.clone(),
        }
    }

    /// The active stratification policy.
    pub fn policy(&self) -> StratifyPolicy {
        self.policy
    }

    /// For the [`StratifyPolicy::Balanced`] policy: picks the stratification
    /// threshold whose split minimises the larger of the two cores' estimated
    /// completion times. The estimate covers both compute throughput and
    /// weight-streaming bandwidth (the sparse core re-fetches a feature's
    /// weight row once per active bundle, the dense core once per group of
    /// `dense_bundle_lanes` bundles), so workloads with no genuinely sparse
    /// features are simply kept on the dense core.
    fn balanced_threshold(
        &self,
        active_per_feature: &[usize],
        spikes_per_feature: &[usize],
        output_features: usize,
        weight_bits: usize,
    ) -> usize {
        let volume = self.bundle.volume() as f64;
        let dense_peak = self.config.dense_peak_ops_per_cycle();
        let sparse_peak = self.config.sparse_peak_ops_per_cycle();
        let row_bytes = (output_features * weight_bits).div_ceil(8) as f64;
        // One 512-bit GLB port per core.
        let port_bytes_per_cycle = 64.0;

        // Candidate thresholds are the distinct active-bundle counts; a
        // feature is dense when its count exceeds the threshold.
        let mut candidates = active_per_feature.to_vec();
        candidates.push(0);
        candidates.sort_unstable();
        candidates.dedup();

        let mut best_threshold = 0usize;
        let mut best_time = f64::INFINITY;
        for &threshold in &candidates {
            let mut dense_positions = 0.0;
            let mut dense_row_fetches = 0.0;
            let mut sparse_spikes = 0.0;
            let mut sparse_row_fetches = 0.0;
            for d in 0..active_per_feature.len() {
                if active_per_feature[d] > threshold {
                    dense_positions += active_per_feature[d] as f64 * volume;
                    dense_row_fetches += active_per_feature[d].div_ceil(self.bundle_lanes) as f64;
                } else {
                    sparse_spikes += spikes_per_feature[d] as f64;
                    sparse_row_fetches += active_per_feature[d] as f64;
                }
            }
            let dense_time = (dense_positions * output_features as f64 / dense_peak)
                .max(dense_row_fetches * row_bytes / port_bytes_per_cycle);
            let sparse_time = (sparse_spikes * output_features as f64 / sparse_peak)
                .max(sparse_row_fetches * row_bytes / port_bytes_per_cycle);
            let time = dense_time.max(sparse_time);
            if time < best_time {
                best_time = time;
                best_threshold = threshold;
            }
        }
        best_threshold
    }

    /// Stratifies one layer's input activations for a projection into
    /// `output_features` columns of `weight_bits`-bit weights.
    pub fn stratify(
        &self,
        input: &SpikeTensor,
        output_features: usize,
        weight_bits: usize,
        energy: &EnergyModel,
    ) -> StratifiedLayer {
        // Each per-feature count is computed once, from the tags: every
        // spike lies in exactly one bundle, so a feature's tags sum to its
        // spike count.
        let tags = TtbTags::from_tensor(input, self.bundle);
        let features = input.shape().features;
        let active_per_feature = tags.active_per_feature();
        let spikes_per_feature = tags.spikes_per_feature();

        let threshold = match self.policy {
            StratifyPolicy::Balanced => self.balanced_threshold(
                &active_per_feature,
                &spikes_per_feature,
                output_features,
                weight_bits,
            ),
            StratifyPolicy::Fixed(threshold) => threshold,
            StratifyPolicy::TargetDenseFraction(fraction) => {
                Stratifier::threshold_for_dense_fraction(input, self.bundle, fraction)
            }
            // Threshold 0 makes every feature with an active bundle dense;
            // the rest are moved over below (a feature with zero active
            // bundles contributes no work either way).
            StratifyPolicy::AllDense => 0,
            StratifyPolicy::AllSparse => usize::MAX,
        };
        let mut split =
            Stratifier::new(threshold).partition(&active_per_feature, &spikes_per_feature);
        if matches!(self.policy, StratifyPolicy::AllDense) {
            let sparse = std::mem::take(&mut split.sparse_features);
            split.dense_features.extend(sparse);
            split.dense_features.sort_unstable();
            split.dense_active_bundles += split.sparse_active_bundles;
            split.dense_spikes += split.sparse_spikes;
            split.sparse_active_bundles = 0;
            split.sparse_spikes = 0;
        }

        let slice = |feature_list: &[usize], active: usize, spikes: usize| RoutedSlice {
            feature_count: feature_list.len(),
            active_bundles: active,
            spikes,
            bundle_volume: self.bundle.volume(),
            weight_row_fetches: feature_list
                .iter()
                .map(|&d| active_per_feature[d].div_ceil(self.bundle_lanes))
                .sum(),
        };
        let dense = slice(
            &split.dense_features,
            split.dense_active_bundles,
            split.dense_spikes,
        );
        let sparse = slice(
            &split.sparse_features,
            split.sparse_active_bundles,
            split.sparse_spikes,
        );

        // Stratifier hardware cost: it scans the per-feature active-bundle
        // counters (one small counter per feature) and performs one compare
        // per feature; the tag counters themselves are produced for free as a
        // by-product of writing the spike TTBs into the GLB.
        let cost = CoreCost {
            compute_cycles: (features as u64).div_ceil(64),
            ops: features as u64,
            compute_energy_pj: features as f64 * energy.accumulate_pj,
            traffic: MemoryTraffic {
                local_read_bytes: (tags.total_bundles() as u64) / 4,
                ..MemoryTraffic::new()
            },
        };

        StratifiedLayer {
            split,
            dense,
            sparse,
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_spiketensor::{SpikeTraceGenerator, TensorShape, TraceProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn input() -> SpikeTensor {
        let mut rng = StdRng::seed_from_u64(5);
        SpikeTraceGenerator::new(TraceProfile::new(0.15).with_feature_spread(2.0))
            .generate(TensorShape::new(8, 32, 64), &mut rng)
    }

    fn unit(policy: StratifyPolicy) -> StratifierUnit {
        StratifierUnit::new(&BishopConfig::default().with_stratify(policy))
    }

    #[test]
    fn work_is_conserved_across_the_split() {
        let input = input();
        let energy = EnergyModel::bishop_28nm();
        for policy in [
            StratifyPolicy::Balanced,
            StratifyPolicy::Fixed(3),
            StratifyPolicy::TargetDenseFraction(0.5),
            StratifyPolicy::AllDense,
            StratifyPolicy::AllSparse,
        ] {
            let result = unit(policy).stratify(&input, 128, 8, &energy);
            assert_eq!(
                result.dense.spikes + result.sparse.spikes,
                input.count_ones(),
                "{policy:?} lost spikes"
            );
            assert_eq!(
                result.dense.feature_count + result.sparse.feature_count,
                input.shape().features
            );
            assert!(result.split.is_partition(input.shape().features));
        }
    }

    #[test]
    fn all_dense_routes_everything_to_the_dense_core() {
        let input = input();
        let result =
            unit(StratifyPolicy::AllDense).stratify(&input, 128, 8, &EnergyModel::bishop_28nm());
        assert_eq!(result.sparse.spikes, 0);
        assert_eq!(result.sparse.feature_count, 0);
        assert_eq!(result.dense.spikes, input.count_ones());
    }

    #[test]
    fn all_sparse_routes_everything_to_the_sparse_core() {
        let input = input();
        let result =
            unit(StratifyPolicy::AllSparse).stratify(&input, 128, 8, &EnergyModel::bishop_28nm());
        assert_eq!(result.dense.spikes, 0);
        assert_eq!(result.sparse.spikes, input.count_ones());
    }

    #[test]
    fn target_fraction_routes_roughly_that_many_features_dense() {
        let input = input();
        let result = unit(StratifyPolicy::TargetDenseFraction(0.5)).stratify(
            &input,
            128,
            8,
            &EnergyModel::bishop_28nm(),
        );
        let fraction = result.split.dense_feature_fraction();
        assert!((fraction - 0.5).abs() < 0.3, "got {fraction}");
        // Dense-routed features are the busy ones, so they carry the majority
        // of the spikes even when they are only half the features.
        assert!(result.dense.spikes >= result.sparse.spikes);
    }

    #[test]
    fn weight_row_fetches_reflect_bundle_lane_sharing() {
        let input = SpikeTensor::ones(TensorShape::new(8, 32, 4));
        let result =
            unit(StratifyPolicy::AllDense).stratify(&input, 128, 8, &EnergyModel::bishop_28nm());
        // Every feature has 4x8 = 32 active bundles; with 16 bundle lanes the
        // weight row is fetched twice per feature.
        assert_eq!(result.dense.weight_row_fetches, 4 * 2);
    }

    #[test]
    fn stratifier_cost_is_small() {
        let input = input();
        let result =
            unit(StratifyPolicy::Fixed(2)).stratify(&input, 128, 8, &EnergyModel::bishop_28nm());
        assert!(result.cost.compute_cycles < 10);
        assert!(result.cost.compute_energy_pj < 100.0);
    }
}
