//! Layer-to-core scheduling: maps each workload layer onto the Bishop cores
//! and combines the per-core costs into layer metrics.

use bishop_bundle::{ecp, AttentionSummary, EcpConfig, LayerSummary, ProjectionSummary};
use bishop_memsys::{EnergyModel, MemoryHierarchy, MemoryTraffic};

use crate::attention_core::AttentionCoreModel;
use crate::config::BishopConfig;
use crate::dense_core::DenseCoreModel;
use crate::metrics::{combine_layer, CoreCost, LayerMetrics};
use crate::sparse_core::SparseCoreModel;
use crate::spike_generator::SpikeGeneratorModel;
use crate::stratifier_unit::StratifierUnit;

/// Schedules individual layers onto the heterogeneous cores.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerScheduler {
    config: BishopConfig,
    energy: EnergyModel,
    hierarchy: MemoryHierarchy,
    dense: DenseCoreModel,
    sparse: SparseCoreModel,
    attention: AttentionCoreModel,
    spike_generator: SpikeGeneratorModel,
    stratifier: StratifierUnit,
}

impl LayerScheduler {
    /// Creates a scheduler for the given hardware configuration and models.
    pub fn new(config: BishopConfig, energy: EnergyModel, hierarchy: MemoryHierarchy) -> Self {
        Self {
            dense: DenseCoreModel::new(&config),
            sparse: SparseCoreModel::new(&config),
            attention: AttentionCoreModel::new(&config),
            spike_generator: SpikeGeneratorModel::new(&config),
            stratifier: StratifierUnit::new(&config),
            config,
            energy,
            hierarchy,
        }
    }

    /// The hardware configuration in use.
    pub fn config(&self) -> &BishopConfig {
        &self.config
    }

    /// Memory-side cycles of a traffic record: the DRAM channel and the GLB
    /// ports work concurrently, so the slower of the two is the visible
    /// memory time for a (double-buffered) layer. The weight GLB and the
    /// spike TTB GLBs have independent 512-bit ports, so on-chip streaming
    /// sustains two port-widths per cycle in aggregate.
    pub fn memory_cycles(&self, traffic: &MemoryTraffic) -> u64 {
        let dram = self
            .hierarchy
            .dram
            .transfer_cycles(traffic.dram_bytes(), self.config.clock_hz);
        let glb = self
            .hierarchy
            .spike_glb0
            .access_cycles(traffic.glb_bytes())
            .div_ceil(2);
        dram.max(glb)
    }

    /// Schedules any layer from its count summary, dispatching to the
    /// projection or attention path. `ecp_config` only applies to attention
    /// layers.
    ///
    /// This is the reusable per-layer entry point the serving runtime (and
    /// any other multi-tenant driver) uses: a `LayerScheduler` is immutable
    /// after construction, so one instance can be cloned per worker thread
    /// and fed layers from different requests concurrently.
    pub fn schedule_layer(
        &self,
        layer: &LayerSummary,
        ecp_config: Option<EcpConfig>,
    ) -> LayerMetrics {
        match layer {
            LayerSummary::Projection(p) => self.schedule_projection(p),
            LayerSummary::Attention(a) => self.schedule_attention(a, ecp_config),
        }
    }

    /// Schedules an MLP/projection layer across the stratifier, dense core,
    /// sparse core and spike generator.
    pub fn schedule_projection(&self, layer: &ProjectionSummary) -> LayerMetrics {
        let strat = self.stratifier.stratify(layer, &self.energy);

        let dense_cost = self.dense.process(
            &strat.dense,
            layer.output_features,
            layer.weight_bits,
            &self.energy,
        );
        let sparse_cost = self.sparse.process(
            &strat.sparse,
            layer.output_features,
            layer.weight_bits,
            &self.energy,
        );

        let shape = layer.shape;
        let neuron_updates = (shape.timesteps * shape.tokens * layer.output_features) as u64;
        let streams = usize::from(dense_cost.ops > 0) + usize::from(sparse_cost.ops > 0);
        let generator_cost =
            self.spike_generator
                .process(neuron_updates, streams.max(1), &self.energy);

        // Layer-level traffic not attributed to a specific core: the input
        // spike bitmap comes from DRAM once (packed TTBs), and the output
        // spike bitmap of the layer goes back out.
        let io_traffic = MemoryTraffic {
            dram_read_bytes: layer.packed_bytes as u64,
            dram_write_bytes: neuron_updates.div_ceil(8),
            ..MemoryTraffic::new()
        };
        let io_cost = CoreCost {
            traffic: io_traffic,
            ..CoreCost::zero()
        };

        let total = dense_cost
            .add(&sparse_cost)
            .add(&generator_cost)
            .add(&strat.cost)
            .add(&io_cost);

        // The dense and sparse cores run concurrently; the spike generator
        // and the stratifier are (short) serial stages.
        let compute_cycles = dense_cost.compute_cycles.max(sparse_cost.compute_cycles)
            + generator_cost.compute_cycles
            + strat.cost.compute_cycles;
        let memory_cycles = self.memory_cycles(&total.traffic);

        combine_layer(
            layer.label.clone(),
            layer.block,
            layer.kind.group_label(),
            compute_cycles,
            memory_cycles,
            self.config.pipeline_overhead_cycles,
            &total,
            &self.energy,
        )
    }

    /// Schedules a spiking self-attention layer on the attention core,
    /// optionally pruning it with ECP under the given configuration first.
    ///
    /// # Panics
    ///
    /// Panics if `ecp_config` forms bundle rows of another shape than the
    /// summary's row counts.
    pub fn schedule_attention(
        &self,
        layer: &AttentionSummary,
        ecp_config: Option<EcpConfig>,
    ) -> LayerMetrics {
        let retention = ecp_config.map_or((1.0, 1.0), |cfg| {
            assert_eq!(
                cfg.bundle, layer.bundle,
                "ECP rows must match the summary's"
            );
            ecp::retentions(&layer.q_active_per_row, &layer.k_active_per_row, cfg)
        });
        let attention_cost = self.attention.process(layer, retention, &self.energy);

        let shape = layer.shape;
        let neuron_updates = (shape.len() as f64 * attention_cost.q_fraction).ceil() as u64;
        let generator_cost = self
            .spike_generator
            .process(neuron_updates, 1, &self.energy);

        let total = attention_cost.cost.add(&generator_cost);
        let compute_cycles = attention_cost.cost.compute_cycles + generator_cost.compute_cycles;
        let memory_cycles = self.memory_cycles(&total.traffic);

        combine_layer(
            layer.label.clone(),
            layer.block,
            "ATN",
            compute_cycles,
            memory_cycles,
            self.config.pipeline_overhead_cycles,
            &total,
            &self.energy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StratifyPolicy;
    use bishop_bundle::BundleShape;
    use bishop_model::workload::SyntheticTraceSpec;
    use bishop_model::{DatasetKind, ModelConfig, ModelWorkload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scheduler(config: BishopConfig) -> LayerScheduler {
        LayerScheduler::new(
            config,
            EnergyModel::bishop_28nm(),
            MemoryHierarchy::bishop_default(),
        )
    }

    fn workload(density: f64) -> ModelWorkload {
        let config = ModelConfig::new("sched", DatasetKind::Cifar10, 1, 4, 32, 64, 2);
        let mut rng = StdRng::seed_from_u64(3);
        ModelWorkload::synthetic(&config, &SyntheticTraceSpec::uniform(density), &mut rng)
    }

    fn first_projection(w: &ModelWorkload) -> ProjectionSummary {
        ProjectionSummary::from_workload(
            w.projection_layers().next().unwrap(),
            BundleShape::default(),
        )
    }

    fn first_attention(w: &ModelWorkload) -> AttentionSummary {
        AttentionSummary::from_workload(
            w.attention_layers().next().unwrap(),
            BundleShape::default(),
        )
    }

    #[test]
    fn projection_metrics_are_positive_and_labelled() {
        let w = workload(0.2);
        let metrics = scheduler(BishopConfig::default()).schedule_projection(&first_projection(&w));
        assert!(metrics.latency_cycles > 0);
        assert!(metrics.total_energy_pj() > 0.0);
        assert_eq!(metrics.group, "P1");
        assert_eq!(metrics.block, 0);
        assert!(metrics.latency_cycles >= metrics.compute_cycles.max(metrics.memory_cycles));
    }

    #[test]
    fn denser_workloads_cost_more() {
        let sched = scheduler(BishopConfig::default());
        let sparse = sched.schedule_projection(&first_projection(&workload(0.05)));
        let dense = sched.schedule_projection(&first_projection(&workload(0.4)));
        assert!(dense.compute_cycles > sparse.compute_cycles);
        assert!(dense.total_energy_pj() > sparse.total_energy_pj());
    }

    #[test]
    fn heterogeneous_split_beats_all_dense_on_mixed_workloads() {
        let config = ModelConfig::new("mixed", DatasetKind::ImageNet100, 1, 4, 64, 128, 4);
        let mut rng = StdRng::seed_from_u64(9);
        let spec = SyntheticTraceSpec {
            input_density: 0.2,
            q_density: 0.1,
            k_density: 0.1,
            v_density: 0.2,
            hidden_density: 0.15,
            feature_spread: 2.0,
            silent_fraction: 0.05,
            cluster: (2, 4, 2.5),
        };
        let w = ModelWorkload::synthetic(&config, &spec, &mut rng);
        let layer = &first_projection(&w);

        let split = scheduler(
            BishopConfig::default().with_stratify(StratifyPolicy::TargetDenseFraction(0.5)),
        )
        .schedule_projection(layer);
        let all_dense = scheduler(BishopConfig::default().with_stratify(StratifyPolicy::AllDense))
            .schedule_projection(layer);
        assert!(
            split.compute_cycles <= all_dense.compute_cycles,
            "heterogeneous split ({}) should not be slower than all-dense ({})",
            split.compute_cycles,
            all_dense.compute_cycles
        );
    }

    #[test]
    fn attention_with_ecp_is_cheaper() {
        let w = workload(0.08);
        let sched = scheduler(BishopConfig::default());
        let layer = &first_attention(&w);
        let baseline = sched.schedule_attention(layer, None);
        let pruned =
            sched.schedule_attention(layer, Some(EcpConfig::uniform(6, BundleShape::default())));
        assert!(pruned.compute_cycles <= baseline.compute_cycles);
        assert!(pruned.total_energy_pj() <= baseline.total_energy_pj());
        assert_eq!(pruned.group, "ATN");
    }

    #[test]
    fn layer_latency_accounts_for_memory_boundness() {
        let w = workload(0.01);
        let sched = scheduler(BishopConfig::default());
        let metrics = sched.schedule_projection(&first_projection(&w));
        // With almost no spikes the layer is memory bound: latency tracks the
        // memory cycles, not the (tiny) compute.
        assert!(metrics.memory_cycles >= metrics.compute_cycles);
        assert_eq!(
            metrics.latency_cycles,
            metrics.memory_cycles + sched.config().pipeline_overhead_cycles
        );
    }

    #[test]
    fn every_workload_layer_can_be_scheduled() {
        let w = workload(0.15);
        let sched = scheduler(BishopConfig::default());
        for layer in w.layers() {
            let metrics = sched.schedule_layer(
                &LayerSummary::summarise(layer, BundleShape::default()),
                None,
            );
            assert!(
                metrics.latency_cycles > 0,
                "{} had zero latency",
                layer.label()
            );
        }
    }
}
