//! The TT-Bundle attention core (§5.5): a reconfigurable 512-PE systolic
//! array that computes spiking self-attention with AND-accumulate (mode 1)
//! and select-accumulate (mode 2) units under an S-stationary dataflow.

use bishop_bundle::AttentionSummary;
use bishop_memsys::{EnergyModel, MemoryTraffic};

use crate::config::BishopConfig;
use crate::metrics::CoreCost;

/// Analytic model of the attention core.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionCoreModel {
    config: BishopConfig,
}

/// Cost of one attention layer split by mode, plus the retention fractions
/// the cost was computed with.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionCost {
    /// Mode-1 (score computation) + mode-2 (output computation) cost.
    pub cost: CoreCost,
    /// Fraction of Q bundle rows processed (1.0 without ECP).
    pub q_fraction: f64,
    /// Fraction of K bundle rows processed (1.0 without ECP).
    pub k_fraction: f64,
    /// AND-accumulate operations of mode 1.
    pub score_ops: u64,
    /// Select-accumulate operations of mode 2.
    pub output_ops: u64,
}

impl AttentionCoreModel {
    /// Creates the model for a hardware configuration.
    pub fn new(config: &BishopConfig) -> Self {
        Self {
            config: config.clone(),
        }
    }

    /// Cost of executing one spiking self-attention layer that keeps
    /// `q_fraction` of its Q bundle rows and `k_fraction` of its K bundle
    /// rows: both 1.0 without ECP, the retentions of
    /// [`ecp::retentions`](bishop_bundle::ecp::retentions) with it. The
    /// retentions shrink every term.
    pub fn process(
        &self,
        layer: &AttentionSummary,
        (q_fraction, k_fraction): (f64, f64),
        energy: &EnergyModel,
    ) -> AttentionCost {
        let shape = layer.shape;

        // Dense op counts: T · N² · D for S = Q·Kᵀ and the same for Y = S·V;
        // ECP scales rows by the Q retention and columns/V rows by the K
        // retention.
        let dense_ops = layer.score_ops() as f64;
        let score_ops = (dense_ops * q_fraction * k_fraction).ceil() as u64;
        let output_ops = (dense_ops * q_fraction * k_fraction).ceil() as u64;

        let peak = self.config.attention_peak_ops_per_cycle();
        let compute_cycles = ((score_ops + output_ops) as f64 / peak).ceil() as u64;

        let compute_energy_pj = score_ops as f64 * energy.aac_pj()
            + output_ops as f64 * energy.sac_pj()
            + compute_cycles as f64
                * self.config.attention_pes as f64
                * energy.pe_idle_pj_per_cycle;

        // Operand traffic. Q/K/V are binary bitmaps; thanks to ECP only the
        // retained bundle rows are ever loaded from the GLBs (and DRAM). The
        // score matrix S stays in the PE registers (S-stationary), so it
        // never touches the memory hierarchy; the integer outputs Y are
        // handed to the spike generator through the Y TT-bundle buffers.
        let bitmap_bytes = (shape.len() as u64).div_ceil(8);
        let q_bytes = (bitmap_bytes as f64 * q_fraction).ceil() as u64;
        let k_bytes = (bitmap_bytes as f64 * k_fraction).ceil() as u64;
        let v_bytes = k_bytes;
        // K and V are re-streamed once per wave of Q bundle columns mapped
        // onto the array (inter-Q-bundle reuse limits this to a small
        // factor).
        let q_token_bundles = shape.tokens.div_ceil(self.config.bundle.tokens) as f64 * q_fraction;
        let k_reuse_waves = (q_token_bundles / self.config.dense_bundle_lanes as f64)
            .ceil()
            .max(1.0) as u64;
        let score_bytes = (layer.score_bits as u64).div_ceil(8);
        let y_bytes =
            (shape.len() as u64 as f64 * q_fraction).ceil() as u64 * score_bytes.max(1) * 2;

        let traffic = MemoryTraffic {
            dram_read_bytes: q_bytes + k_bytes + v_bytes,
            glb_read_bytes: q_bytes + (k_bytes + v_bytes) * k_reuse_waves,
            glb_write_bytes: (shape.len() as u64).div_ceil(8),
            local_read_bytes: q_bytes + k_bytes + v_bytes,
            local_write_bytes: y_bytes,
            register_bytes: (score_ops + output_ops).div_ceil(16),
            ..MemoryTraffic::new()
        };

        AttentionCost {
            cost: CoreCost {
                compute_cycles,
                ops: score_ops + output_ops,
                compute_energy_pj,
                traffic,
            },
            q_fraction,
            k_fraction,
            score_ops,
            output_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_bundle::{ecp, BundleShape, EcpConfig};
    use bishop_model::AttentionWorkload;
    use bishop_spiketensor::{SpikeTraceGenerator, TensorShape, TraceProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn attention_workload(q_density: f64, k_density: f64) -> AttentionWorkload {
        let shape = TensorShape::new(4, 32, 64);
        let mut rng = StdRng::seed_from_u64(13);
        let gen = |d: f64, rng: &mut StdRng| {
            SpikeTraceGenerator::new(TraceProfile::new(d).with_feature_spread(1.0))
                .generate(shape, rng)
        };
        AttentionWorkload {
            block: 0,
            label: "block0.ATN".to_string(),
            q: gen(q_density, &mut rng),
            k: gen(k_density, &mut rng),
            v: gen(0.2, &mut rng),
            heads: 4,
            score_bits: 6,
        }
    }

    fn summary(layer: &AttentionWorkload) -> AttentionSummary {
        AttentionSummary::from_workload(layer, BundleShape::default())
    }

    /// The retentions ECP reaches on `layer` at threshold `theta`.
    fn retentions(layer: &AttentionWorkload, theta: u32) -> (f64, f64) {
        let summary = summary(layer);
        ecp::retentions(
            &summary.q_active_per_row,
            &summary.k_active_per_row,
            EcpConfig::uniform(theta, BundleShape::default()),
        )
    }

    fn model() -> AttentionCoreModel {
        AttentionCoreModel::new(&BishopConfig::default())
    }

    #[test]
    fn without_ecp_the_full_dense_work_is_done() {
        let layer = attention_workload(0.1, 0.1);
        let result = model().process(&summary(&layer), (1.0, 1.0), &EnergyModel::bishop_28nm());
        assert_eq!(result.q_fraction, 1.0);
        assert_eq!(result.k_fraction, 1.0);
        assert_eq!(result.score_ops, layer.score_ops());
        assert_eq!(result.cost.ops, layer.dense_ops());
    }

    #[test]
    fn ecp_shrinks_compute_and_traffic() {
        let layer = attention_workload(0.05, 0.03);
        let energy = EnergyModel::bishop_28nm();
        let baseline = model().process(&summary(&layer), (1.0, 1.0), &energy);
        // At these densities a 64-feature bundle row carries ~21 (Q) / ~14 (K)
        // active bundles on average, so the threshold must sit above that for
        // the pruning path to actually remove rows.
        let with_ecp = model().process(&summary(&layer), retentions(&layer, 24), &energy);
        assert!(with_ecp.cost.ops < baseline.cost.ops);
        assert!(with_ecp.cost.compute_cycles <= baseline.cost.compute_cycles);
        assert!(with_ecp.cost.traffic.dram_read_bytes <= baseline.cost.traffic.dram_read_bytes);
        assert!(with_ecp.cost.compute_energy_pj < baseline.cost.compute_energy_pj);
    }

    #[test]
    fn compute_scales_with_retention_product() {
        let layer = attention_workload(0.08, 0.08);
        let energy = EnergyModel::bishop_28nm();
        let (q_retention, k_retention) = retentions(&layer, 6);
        let with_ecp = model().process(&summary(&layer), (q_retention, k_retention), &energy);
        let expected = (layer.score_ops() as f64 * q_retention * k_retention).ceil() as u64;
        assert_eq!(with_ecp.score_ops, expected);
        assert_eq!(with_ecp.output_ops, expected);
    }

    #[test]
    fn cycles_respect_attention_core_throughput() {
        let config = BishopConfig::default();
        let layer = attention_workload(0.2, 0.2);
        let result = model().process(&summary(&layer), (1.0, 1.0), &EnergyModel::bishop_28nm());
        let min_cycles =
            (result.cost.ops as f64 / config.attention_peak_ops_per_cycle()).floor() as u64;
        assert!(result.cost.compute_cycles >= min_cycles);
        assert!(result.cost.compute_cycles <= min_cycles + 2);
    }

    #[test]
    fn scores_never_touch_dram() {
        // S-stationary: score traffic shows up only in registers/local
        // buffers, DRAM traffic is just the binary operands.
        let layer = attention_workload(0.15, 0.15);
        let result = model().process(&summary(&layer), (1.0, 1.0), &EnergyModel::bishop_28nm());
        let bitmap_bytes = (layer.shape().len() as u64).div_ceil(8);
        assert_eq!(result.cost.traffic.dram_read_bytes, 3 * bitmap_bytes);
    }
}
