//! Fig. 14 — accuracy vs. energy efficiency and speedup of the spiking
//! self-attention layers under different ECP pruning thresholds.

use bishop_bundle::{ecp, AttentionSummary, BundleShape, EcpConfig, TrainingRegime};
use bishop_core::{AttentionCoreModel, BishopConfig};
use bishop_memsys::EnergyModel;
use bishop_model::ModelConfig;
use bishop_train::{
    accuracy_under_pruning, SpikePatternDataset, SpikingClassifier, Trainer, TrainingConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{percent, ratio, Table};
use crate::workloads::{build_workload, ExperimentScale};

/// One point of the hardware-side sweep for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct EcpHardwarePoint {
    /// Model name.
    pub model: String,
    /// Pruning threshold `θp`.
    pub threshold: u32,
    /// Fraction of Q bundle rows retained.
    pub q_retention: f64,
    /// Fraction of K bundle rows retained.
    pub k_retention: f64,
    /// Speedup of the SSA layers relative to `θp = 0`.
    pub ssa_speedup: f64,
    /// Energy-efficiency improvement of the SSA layers relative to `θp = 0`.
    pub ssa_energy_improvement: f64,
}

/// Thresholds swept (the paper sweeps a comparable range).
pub const THRESHOLDS: [u32; 7] = [0, 2, 4, 6, 8, 12, 16];

/// Models shown in Fig. 14.
fn fig14_models() -> Vec<ModelConfig> {
    vec![
        ModelConfig::model1_cifar10(),
        ModelConfig::model2_cifar100(),
        ModelConfig::model3_imagenet100(),
        ModelConfig::model4_dvs_gesture(),
    ]
}

/// Runs the hardware-side threshold sweep.
pub fn run_hardware(scale: ExperimentScale) -> Vec<EcpHardwarePoint> {
    let core = AttentionCoreModel::new(&BishopConfig::default());
    let energy = EnergyModel::bishop_28nm();
    let bundle = BundleShape::default();
    let mut rows = Vec::new();

    for config in fig14_models() {
        let config = scale.scale_config(&config);
        let workload = build_workload(&config, TrainingRegime::Bsa, 77);
        let layers: Vec<AttentionSummary> = workload
            .attention_layers()
            .map(|layer| AttentionSummary::from_workload(layer, bundle))
            .collect();

        // Reference cost at θp = 0 (no pruning).
        let mut reference_cycles = 0u64;
        let mut reference_energy = 0.0f64;
        for layer in &layers {
            let cost = core.process(layer, (1.0, 1.0), &energy);
            reference_cycles += cost.cost.compute_cycles;
            reference_energy += cost.cost.compute_energy_pj + cost.cost.traffic.energy_pj(&energy);
        }

        for &threshold in &THRESHOLDS {
            let mut cycles = 0u64;
            let mut total_energy = 0.0f64;
            let mut q_retention = 0.0;
            let mut k_retention = 0.0;
            for layer in &layers {
                // θp = 0 keeps every row: both retentions are exactly 1.
                let retention = ecp::retentions(
                    &layer.q_active_per_row,
                    &layer.k_active_per_row,
                    EcpConfig::uniform(threshold, bundle),
                );
                let cost = core.process(layer, retention, &energy);
                cycles += cost.cost.compute_cycles;
                total_energy += cost.cost.compute_energy_pj + cost.cost.traffic.energy_pj(&energy);
                q_retention += retention.0;
                k_retention += retention.1;
            }
            rows.push(EcpHardwarePoint {
                model: config.name.clone(),
                threshold,
                q_retention: q_retention / layers.len() as f64,
                k_retention: k_retention / layers.len() as f64,
                ssa_speedup: reference_cycles as f64 / cycles.max(1) as f64,
                ssa_energy_improvement: reference_energy / total_energy.max(1e-9),
            });
        }
    }
    rows
}

/// Runs the accuracy proxy: a spiking classifier trained on the synthetic
/// task is evaluated with bundle-row pruning at each threshold.
pub fn run_accuracy_proxy() -> Vec<bishop_train::EcpSweepPoint> {
    let mut rng = StdRng::seed_from_u64(33);
    let dataset = SpikePatternDataset::generate(4, 30, 4, 8, 24, 0.05, &mut rng);
    let mut model = SpikingClassifier::random(24, 32, 4, &mut rng);
    Trainer::new(TrainingConfig {
        epochs: 10,
        learning_rate: 0.08,
        ..TrainingConfig::default()
    })
    .train(&mut model, &dataset, &mut rng);
    accuracy_under_pruning(&model, &dataset.test, &THRESHOLDS, BundleShape::default())
}

/// Renders the experiment as markdown.
pub fn report(scale: ExperimentScale) -> String {
    let mut hardware = Table::new(
        "Fig. 14 — SSA-layer efficiency vs ECP pruning threshold",
        &[
            "Model",
            "θp",
            "Q retained",
            "K retained",
            "SSA speedup",
            "SSA energy improvement",
        ],
    );
    for row in run_hardware(scale) {
        hardware.push_row(vec![
            row.model.clone(),
            row.threshold.to_string(),
            percent(row.q_retention),
            percent(row.k_retention),
            ratio(row.ssa_speedup),
            ratio(row.ssa_energy_improvement),
        ]);
    }
    hardware.push_note(
        "Paper: at the chosen thresholds the SSA layers see up to 170x speedup (DVS-Gesture) \
         and on average only 15.5% of the attention computation remains.",
    );

    let mut accuracy = Table::new(
        "Fig. 14 (accuracy axis) — synthetic-task accuracy under bundle-row pruning",
        &["θp", "Accuracy", "Δ vs unpruned"],
    );
    for point in run_accuracy_proxy() {
        accuracy.push_row(vec![
            point.threshold.to_string(),
            percent(point.accuracy),
            format!("{:+.1} pp", point.accuracy_delta() * 100.0),
        ]);
    }
    accuracy.push_note(
        "Accuracy proxy measured on the bishop-train synthetic task (the paper's CIFAR/DVS \
         accuracies require the original datasets); moderate thresholds preserve accuracy, \
         extreme thresholds destroy it.",
    );
    format!("{}\n{}", hardware.to_markdown(), accuracy.to_markdown())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_decreases_and_speedup_increases_with_threshold() {
        let rows = run_hardware(ExperimentScale::Quick);
        for model in ["Model 1", "Model 3"] {
            let series: Vec<&EcpHardwarePoint> =
                rows.iter().filter(|r| r.model.starts_with(model)).collect();
            assert!(!series.is_empty());
            for pair in series.windows(2) {
                assert!(
                    pair[1].q_retention <= pair[0].q_retention + 1e-9,
                    "{model}: Q retention should not increase with θp"
                );
                assert!(
                    pair[1].ssa_speedup + 1e-9 >= pair[0].ssa_speedup,
                    "{model}: speedup should not decrease with θp"
                );
            }
        }
    }

    #[test]
    fn zero_threshold_is_the_reference_point() {
        let rows = run_hardware(ExperimentScale::Quick);
        for row in rows.iter().filter(|r| r.threshold == 0) {
            assert!((row.ssa_speedup - 1.0).abs() < 1e-9);
            assert!((row.q_retention - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sparser_datasets_prune_more_aggressively() {
        let rows = run_hardware(ExperimentScale::Quick);
        let at = |model: &str, theta: u32| {
            rows.iter()
                .find(|r| r.model.starts_with(model) && r.threshold == theta)
                .unwrap()
        };
        // DVS-Gesture (Model 4) is far sparser than CIFAR-10 (Model 1), so at
        // the same threshold it retains fewer Q rows.
        assert!(at("Model 4", 8).q_retention <= at("Model 1", 8).q_retention + 1e-9);
    }
}
