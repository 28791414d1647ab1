//! The hardware stratifier: routes each input feature of an MLP/projection
//! layer to the dense or the sparse TT-Bundle core (§5.3, Alg. 1).

use std::ops::Range;

use bishop_bundle::{BundleShape, ProjectionSummary, Stratifier};
use bishop_memsys::{EnergyModel, MemoryTraffic};

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
    /// The stratification threshold: features with more active bundles go
    /// to the dense core (under [`StratifyPolicy::AllDense`], every feature
    /// does).
    pub threshold: usize,
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
    ///
    /// Candidate thresholds are 0 and the distinct active-bundle counts, in
    /// ascending order, and a later candidate wins only if strictly faster.
    /// One pass over the histogram visits them all: raising the threshold to
    /// `c` moves the features with exactly `c` active bundles from the dense
    /// to the sparse side. Every sum is an integer below 2^53, so it converts
    /// to the same `f64` whatever order it was added up in.
    fn balanced_threshold(
        &self,
        histogram: &CountHistogram,
        output_features: usize,
        weight_bits: usize,
    ) -> usize {
        let dense_peak = self.config.dense_peak_ops_per_cycle();
        let sparse_peak = self.config.sparse_peak_ops_per_cycle();
        let row_bytes = (output_features * weight_bits).div_ceil(8) as f64;
        // One 512-bit GLB port per core.
        let port_bytes_per_cycle = 64.0;

        // Below every count, every feature is dense.
        let mut dense = self.slice(histogram, 0..histogram.buckets());
        let mut sparse = RoutedSlice::default();
        let mut best_threshold = 0usize;
        let mut best_time = f64::INFINITY;
        for threshold in 0..histogram.buckets() {
            if threshold > 0 && histogram.features[threshold] == 0 {
                continue;
            }
            let moved = self.slice(histogram, threshold..threshold + 1);
            dense.remove(&moved);
            sparse.add(&moved);

            let dense_positions = (dense.active_bundles * dense.bundle_volume) as f64;
            let dense_time = (dense_positions * output_features as f64 / dense_peak)
                .max(dense.weight_row_fetches as f64 * row_bytes / port_bytes_per_cycle);
            let sparse_time = (sparse.spikes as f64 * output_features as f64 / sparse_peak)
                .max(sparse.active_bundles as f64 * row_bytes / port_bytes_per_cycle);
            let time = dense_time.max(sparse_time);
            if time < best_time {
                best_time = time;
                best_threshold = threshold;
            }
        }
        best_threshold
    }

    /// The aggregates of the features whose active-bundle counts lie in
    /// `counts`.
    fn slice(&self, histogram: &CountHistogram, counts: Range<usize>) -> RoutedSlice {
        let mut slice = RoutedSlice {
            bundle_volume: self.bundle.volume(),
            ..RoutedSlice::default()
        };
        for count in counts {
            let features = histogram.features[count];
            slice.feature_count += features;
            slice.active_bundles += count * features;
            slice.spikes += histogram.spikes[count];
            slice.weight_row_fetches += count.div_ceil(self.bundle_lanes) * features;
        }
        slice
    }

    /// Stratifies one projection layer from its count summary: a feature is
    /// routed dense when its active-bundle count exceeds the policy's
    /// threshold. Only the per-count totals of the two sides matter, so they
    /// are read off a histogram of the counts.
    pub fn stratify(&self, layer: &ProjectionSummary, energy: &EnergyModel) -> StratifiedLayer {
        let histogram = CountHistogram::new(&layer.active_per_feature, &layer.spikes_per_feature);
        let threshold = match self.policy {
            StratifyPolicy::Balanced => {
                self.balanced_threshold(&histogram, layer.output_features, layer.weight_bits)
            }
            StratifyPolicy::Fixed(threshold) => threshold,
            StratifyPolicy::TargetDenseFraction(fraction) => {
                Stratifier::threshold_for_dense_fraction_counts(&layer.active_per_feature, fraction)
            }
            StratifyPolicy::AllDense => 0,
            StratifyPolicy::AllSparse => usize::MAX,
        };
        // All-dense also routes the features without an active bundle to the
        // dense core; they contribute no work either way.
        let first_dense = match self.policy {
            StratifyPolicy::AllDense => 0,
            _ => threshold.saturating_add(1),
        }
        .min(histogram.buckets());
        let dense = self.slice(&histogram, first_dense..histogram.buckets());
        let sparse = self.slice(&histogram, 0..first_dense);

        // Stratifier hardware cost: it scans the per-feature active-bundle
        // counters (one small counter per feature) and performs one compare
        // per feature; the tag counters themselves are produced for free as a
        // by-product of writing the spike TTBs into the GLB.
        let features = layer.shape.features;
        let cost = CoreCost {
            compute_cycles: (features as u64).div_ceil(64),
            ops: features as u64,
            compute_energy_pj: features as f64 * energy.accumulate_pj,
            traffic: MemoryTraffic {
                local_read_bytes: (layer.total_bundles as u64) / 4,
                ..MemoryTraffic::new()
            },
        };

        StratifiedLayer {
            threshold,
            dense,
            sparse,
            cost,
        }
    }
}

/// Features bucketed by active-bundle count: bucket `c` holds how many
/// features have exactly `c` active bundles, and their spikes.
struct CountHistogram {
    features: Vec<usize>,
    spikes: Vec<usize>,
}

impl CountHistogram {
    fn new(active_per_feature: &[usize], spikes_per_feature: &[usize]) -> Self {
        let buckets = active_per_feature.iter().copied().max().unwrap_or(0) + 1;
        let mut histogram = Self {
            features: vec![0; buckets],
            spikes: vec![0; buckets],
        };
        for (&active, &spikes) in active_per_feature.iter().zip(spikes_per_feature) {
            histogram.features[active] += 1;
            histogram.spikes[active] += spikes;
        }
        histogram
    }

    /// One past the largest active-bundle count.
    fn buckets(&self) -> usize {
        self.features.len()
    }
}

impl RoutedSlice {
    fn add(&mut self, other: &RoutedSlice) {
        self.feature_count += other.feature_count;
        self.active_bundles += other.active_bundles;
        self.spikes += other.spikes;
        self.weight_row_fetches += other.weight_row_fetches;
    }

    fn remove(&mut self, other: &RoutedSlice) {
        self.feature_count -= other.feature_count;
        self.active_bundles -= other.active_bundles;
        self.spikes -= other.spikes;
        self.weight_row_fetches -= other.weight_row_fetches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_bundle::TtbTags;
    use bishop_model::{LayerKind, ProjectionWorkload};
    use bishop_spiketensor::{SpikeTensor, SpikeTraceGenerator, TensorShape, TraceProfile};
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

    /// The counts of `input` feeding a 128-column layer of 8-bit weights.
    fn summary(input: &SpikeTensor) -> ProjectionSummary {
        let layer = ProjectionWorkload {
            block: 0,
            kind: LayerKind::MlpFc1,
            label: "block0.MLP".to_string(),
            input: input.clone(),
            output_features: 128,
            weight_bits: 8,
        };
        ProjectionSummary::from_workload(&layer, BishopConfig::default().bundle)
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
            let result = unit(policy).stratify(&summary(&input), &energy);
            assert_eq!(
                result.dense.spikes + result.sparse.spikes,
                input.count_ones(),
                "{policy:?} lost spikes"
            );
            assert_eq!(
                result.dense.feature_count + result.sparse.feature_count,
                input.shape().features
            );
        }
    }

    #[test]
    fn routed_slices_match_the_feature_partition() {
        let input = input();
        let bundle = BishopConfig::default().bundle;
        let active = TtbTags::from_tensor(&input, bundle).active_per_feature();
        for policy in [
            StratifyPolicy::Balanced,
            StratifyPolicy::Fixed(0),
            StratifyPolicy::Fixed(3),
            StratifyPolicy::TargetDenseFraction(0.5),
            StratifyPolicy::AllSparse,
        ] {
            let unit = unit(policy);
            let result = unit.stratify(&summary(&input), &EnergyModel::bishop_28nm());
            let split = Stratifier::new(result.threshold).stratify(&input, bundle);
            let routed = |features: &[usize], active_bundles: usize, spikes: usize| RoutedSlice {
                feature_count: features.len(),
                active_bundles,
                spikes,
                bundle_volume: bundle.volume(),
                weight_row_fetches: features
                    .iter()
                    .map(|&d| active[d].div_ceil(unit.bundle_lanes))
                    .sum(),
            };
            assert_eq!(
                result.dense,
                routed(
                    &split.dense_features,
                    split.dense_active_bundles,
                    split.dense_spikes
                ),
                "{policy:?}"
            );
            assert_eq!(
                result.sparse,
                routed(
                    &split.sparse_features,
                    split.sparse_active_bundles,
                    split.sparse_spikes
                ),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn all_dense_routes_everything_to_the_dense_core() {
        let input = input();
        let result =
            unit(StratifyPolicy::AllDense).stratify(&summary(&input), &EnergyModel::bishop_28nm());
        assert_eq!(result.sparse.spikes, 0);
        assert_eq!(result.sparse.feature_count, 0);
        assert_eq!(result.dense.spikes, input.count_ones());
    }

    #[test]
    fn all_sparse_routes_everything_to_the_sparse_core() {
        let input = input();
        let result =
            unit(StratifyPolicy::AllSparse).stratify(&summary(&input), &EnergyModel::bishop_28nm());
        assert_eq!(result.dense.spikes, 0);
        assert_eq!(result.sparse.spikes, input.count_ones());
    }

    #[test]
    fn target_fraction_routes_roughly_that_many_features_dense() {
        let input = input();
        let result = unit(StratifyPolicy::TargetDenseFraction(0.5))
            .stratify(&summary(&input), &EnergyModel::bishop_28nm());
        let fraction = result.dense.feature_count as f64 / input.shape().features as f64;
        assert!((fraction - 0.5).abs() < 0.3, "got {fraction}");
        // Dense-routed features are the busy ones, so they carry the majority
        // of the spikes even when they are only half the features.
        assert!(result.dense.spikes >= result.sparse.spikes);
    }

    #[test]
    fn weight_row_fetches_reflect_bundle_lane_sharing() {
        let input = SpikeTensor::ones(TensorShape::new(8, 32, 4));
        let result =
            unit(StratifyPolicy::AllDense).stratify(&summary(&input), &EnergyModel::bishop_28nm());
        // Every feature has 4x8 = 32 active bundles; with 16 bundle lanes the
        // weight row is fetched twice per feature.
        assert_eq!(result.dense.weight_row_fetches, 4 * 2);
    }

    #[test]
    fn stratifier_cost_is_small() {
        let input = input();
        let result =
            unit(StratifyPolicy::Fixed(2)).stratify(&summary(&input), &EnergyModel::bishop_28nm());
        assert!(result.cost.compute_cycles < 10);
        assert!(result.cost.compute_energy_pj < 100.0);
    }
}
