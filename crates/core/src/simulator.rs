//! End-to-end Bishop simulation of a model workload.

use bishop_bundle::{EcpConfig, LayerSummary};
use bishop_memsys::{EnergyModel, MemoryHierarchy};
use bishop_model::ModelWorkload;

use crate::config::BishopConfig;
use crate::metrics::RunMetrics;
use crate::scheduler::LayerScheduler;

/// Options controlling one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SimOptions {
    /// When set, Error-Constrained TTB Pruning with this threshold is applied
    /// to every attention layer before it is executed (the bundle shape is
    /// taken from the hardware configuration).
    pub ecp_threshold: Option<u32>,
}

impl SimOptions {
    /// No ECP (plain Bishop).
    pub fn baseline() -> Self {
        Self {
            ecp_threshold: None,
        }
    }

    /// ECP with the given pruning threshold.
    pub fn with_ecp(threshold: u32) -> Self {
        Self {
            ecp_threshold: Some(threshold),
        }
    }
}

/// The Bishop accelerator simulator.
///
/// The simulator owns one [`LayerScheduler`], built once at construction, so
/// repeated `simulate` calls (and clones handed to worker threads — a
/// `BishopSimulator` models one chip instance) do not re-derive the per-core
/// cost models. Cloning is cheap: the scheduler state is a handful of small
/// plain-data tables.
#[derive(Debug, Clone, PartialEq)]
pub struct BishopSimulator {
    scheduler: LayerScheduler,
}

impl BishopSimulator {
    /// Creates a simulator with the default 28 nm energy table and the
    /// paper's memory hierarchy.
    pub fn new(config: BishopConfig) -> Self {
        Self::with_models(
            config,
            EnergyModel::bishop_28nm(),
            MemoryHierarchy::bishop_default(),
        )
    }

    /// Creates a simulator with explicit energy/memory models.
    pub fn with_models(
        config: BishopConfig,
        energy: EnergyModel,
        hierarchy: MemoryHierarchy,
    ) -> Self {
        Self {
            scheduler: LayerScheduler::new(config, energy, hierarchy),
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &BishopConfig {
        self.scheduler.config()
    }

    /// The per-layer scheduler backing this simulator. Exposed so drivers
    /// that manage their own run loop (e.g. the serving runtime) can schedule
    /// individual layers without paying for a fresh scheduler per call.
    pub fn scheduler(&self) -> &LayerScheduler {
        &self.scheduler
    }

    /// The ECP configuration implied by `options` for attention layers under
    /// this simulator's bundle shape.
    pub fn ecp_config_for(&self, options: &SimOptions) -> Option<EcpConfig> {
        options
            .ecp_threshold
            .map(|theta| EcpConfig::uniform(theta, self.config().bundle))
    }

    /// Simulates one inference of `workload` and returns the per-layer and
    /// end-to-end metrics. Each layer is summarised into its counts under
    /// the configured bundle shape and scheduled from them.
    pub fn simulate(&self, workload: &ModelWorkload, options: &SimOptions) -> RunMetrics {
        let name = match options.ecp_threshold {
            Some(theta) => format!("Bishop+ECP(θp={theta})"),
            None => "Bishop".to_string(),
        };
        self.simulate_named(workload, options, name)
    }

    /// Like [`simulate`](Self::simulate) with an explicit run name.
    pub fn simulate_named(
        &self,
        workload: &ModelWorkload,
        options: &SimOptions,
        name: impl Into<String>,
    ) -> RunMetrics {
        let ecp_config = self.ecp_config_for(options);
        let mut run = RunMetrics::new(name, self.config().clock_hz);
        for layer in workload.layers() {
            let summary = LayerSummary::summarise(layer, self.config().bundle);
            run.push(self.scheduler.schedule_layer(&summary, ecp_config));
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StratifyPolicy;
    use bishop_model::workload::SyntheticTraceSpec;
    use bishop_model::{DatasetKind, ModelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload(blocks: usize, density: f64, seed: u64) -> ModelWorkload {
        let config = ModelConfig::new("sim", DatasetKind::Cifar10, blocks, 4, 32, 64, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        ModelWorkload::synthetic(&config, &SyntheticTraceSpec::uniform(density), &mut rng)
    }

    #[test]
    fn simulation_produces_one_metric_per_layer() {
        let w = workload(2, 0.15, 1);
        let run =
            BishopSimulator::new(BishopConfig::default()).simulate(&w, &SimOptions::baseline());
        assert_eq!(run.layers.len(), w.layers().len());
        assert!(run.total_latency_seconds() > 0.0);
        assert!(run.total_energy_mj() > 0.0);
        assert_eq!(run.accelerator, "Bishop");
    }

    #[test]
    fn more_blocks_take_longer() {
        let simulator = BishopSimulator::new(BishopConfig::default());
        let small = simulator.simulate(&workload(1, 0.2, 2), &SimOptions::baseline());
        let large = simulator.simulate(&workload(4, 0.2, 2), &SimOptions::baseline());
        assert!(large.total_cycles() > small.total_cycles());
        assert!(large.total_energy_pj() > small.total_energy_pj());
    }

    #[test]
    fn ecp_helps_attention_heavy_models() {
        let config = ModelConfig::new("attn-heavy", DatasetKind::ImageNet100, 2, 4, 96, 32, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let mut spec = SyntheticTraceSpec::uniform(0.12);
        spec.q_density = 0.05;
        spec.k_density = 0.04;
        spec.feature_spread = 1.5;
        let w = ModelWorkload::synthetic(&config, &spec, &mut rng);
        let simulator = BishopSimulator::new(BishopConfig::default());
        let baseline = simulator.simulate(&w, &SimOptions::baseline());
        let with_ecp = simulator.simulate(&w, &SimOptions::with_ecp(6));
        assert!(with_ecp.total_cycles() <= baseline.total_cycles());
        assert!(with_ecp.total_energy_pj() <= baseline.total_energy_pj());
        assert!(with_ecp.accelerator.contains("ECP"));
    }

    #[test]
    fn stratification_policy_changes_results() {
        let w = workload(1, 0.2, 7);
        let balanced =
            BishopSimulator::new(BishopConfig::default()).simulate(&w, &SimOptions::baseline());
        let all_dense =
            BishopSimulator::new(BishopConfig::default().with_stratify(StratifyPolicy::AllDense))
                .simulate(&w, &SimOptions::baseline());
        // They must at least differ; the balanced split should not be slower.
        assert!(balanced.total_cycles() <= all_dense.total_cycles());
    }

    #[test]
    fn average_power_is_below_the_synthesized_peak() {
        let w = workload(2, 0.2, 9);
        let run =
            BishopSimulator::new(BishopConfig::default()).simulate(&w, &SimOptions::baseline());
        // 627 mW peak power for the synthesized design; the analytic model
        // should not wildly exceed it (DRAM power excluded from the peak).
        assert!(run.average_power_watts() < 2.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let w = workload(2, 0.15, 11);
        let simulator = BishopSimulator::new(BishopConfig::default());
        let a = simulator.simulate(&w, &SimOptions::baseline());
        let b = simulator.simulate(&w, &SimOptions::baseline());
        assert_eq!(a, b);
    }
}
