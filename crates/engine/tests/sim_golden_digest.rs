//! Golden output digests of the cold simulator path.
//!
//! A cold simulator request synthesises a calibrated spike trace and then
//! simulates it layer by layer. Both steps may be re-issued (row-wise
//! synthesis, a one-pass stratifier) but every spike, cycle, byte and pJ must
//! stay bit-identical. The constants below were captured with the code of
//! commit 160b41d — before either step was rewritten — on a separate copy of
//! that tree; never regenerate them from a changed tree.
//!
//! Each digest is FNV-1a over every layer tensor's packed words (from
//! `cache::synthesize`) followed by, per layer, the latency, every
//! `MemoryTraffic` field and the bit patterns of both energies reported by
//! `SimulatorEngine::execute`.

use bishop_bundle::TrainingRegime;
use bishop_core::{BishopConfig, BishopSimulator, RunMetrics};
use bishop_engine::cache::synthesize;
use bishop_engine::{EngineBatch, InferenceEngine, ModelCatalog, SimulatorEngine};
use bishop_model::{LayerWorkload, ModelWorkload};

const SEEDS: [u64; 8] = [0, 1, 2, 3, 7, 42, 1234, 0xB15_40F];

/// `(catalog entry, timesteps, regime override, digests per seed)`. T = 8
/// is the shape of a folded batch of two T = 4 requests.
type GoldenRow = (&'static str, usize, Option<TrainingRegime>, [u64; 8]);

const GOLDEN: [GoldenRow; 5] = [
    (
        "cifar10-serve",
        4,
        None,
        [
            0x5627_cba8_9901_359e,
            0xb07e_5f2d_f0cf_5cef,
            0x1541_f979_e216_27cd,
            0x14a5_99ce_4c4e_8da7,
            0x7b2d_27c6_2e54_ddc8,
            0x986c_b483_718e_caeb,
            0x41ab_5158_8209_5c73,
            0x0f27_57ab_f960_20b6,
        ],
    ),
    (
        "cifar10-serve",
        8,
        None,
        [
            0x05d3_1601_885f_171e,
            0xbda5_b03a_c25f_c269,
            0xd06b_ec1e_cad8_bade,
            0xbc45_9228_9b57_287c,
            0x0ef8_f9e5_188d_2cb1,
            0xd020_93b2_6992_7aac,
            0xd9ef_46a6_0228_8840,
            0x749b_e505_d23e_3d9d,
        ],
    ),
    (
        "imagenet100-serve",
        4,
        None,
        [
            0x9427_4032_85b7_daf8,
            0xdeb0_05c4_e579_ad4a,
            0x6b47_e067_4b10_0c94,
            0xe181_bd6e_cb29_c69b,
            0x0f41_b5d1_a85b_3734,
            0x0ead_e19f_625e_baa5,
            0xd22f_4bc9_32cf_1c0f,
            0x8b1e_e00b_0dcd_7452,
        ],
    ),
    (
        "imagenet100-serve",
        8,
        None,
        [
            0x6f6f_2a6c_ee43_1bc5,
            0x2219_7f4a_d174_b43c,
            0xd5bf_bffd_ab43_bfff,
            0xb8eb_9d57_75a5_f4b1,
            0x4b63_39ed_5239_77e1,
            0x32b5_10fd_6b69_3a8a,
            0x980e_5429_7d1e_ff92,
            0x51a6_aa72_64c6_2e8f,
        ],
    ),
    (
        "imagenet100-serve",
        4,
        Some(TrainingRegime::Baseline),
        [
            0xea1b_9caf_eaac_62ab,
            0x763a_3aca_9e8e_bcf3,
            0x29b7_674e_f0ce_f045,
            0x9884_d483_a573_1f49,
            0x29e4_2222_8758_6caa,
            0xb7a9_99eb_ed39_ea17,
            0x7733_2144_3ece_8752,
            0x89f1_d912_b95c_1af2,
        ],
    ),
];

fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in values {
        for byte in value.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn digest(workload: &ModelWorkload, metrics: &RunMetrics) -> u64 {
    let mut values = Vec::new();
    for layer in workload.layers() {
        match layer {
            LayerWorkload::Projection(p) => values.extend_from_slice(p.input.words()),
            LayerWorkload::Attention(a) => {
                for tensor in [&a.q, &a.k, &a.v] {
                    values.extend_from_slice(tensor.words());
                }
            }
        }
    }
    for layer in &metrics.layers {
        let t = &layer.traffic;
        values.extend([
            layer.latency_cycles,
            t.dram_read_bytes,
            t.dram_write_bytes,
            t.glb_read_bytes,
            t.glb_write_bytes,
            t.local_read_bytes,
            t.local_write_bytes,
            t.register_bytes,
            layer.compute_energy_pj.to_bits(),
            layer.memory_energy_pj.to_bits(),
        ]);
    }
    fnv1a(values)
}

#[test]
fn cold_simulator_path_matches_the_golden_digests() {
    let catalog = ModelCatalog::serving_default();
    let mut mismatches = Vec::new();
    for (name, timesteps, regime, expected) in GOLDEN {
        let entry = catalog.get(name).expect("catalogued model");
        let config = entry.config.clone().with_timesteps(timesteps);
        let regime = regime.unwrap_or(entry.regime);
        // A fresh engine per row: every execute below is a cache miss.
        let engine = SimulatorEngine::new(BishopSimulator::new(BishopConfig::default()));
        let got = SEEDS.map(|seed| {
            let batch = EngineBatch {
                config: config.clone(),
                regime,
                seed,
                options: entry.options,
                batch_size: 1,
                batch_id: 0,
            };
            let output = engine.execute(&batch).expect("simulator never fails");
            let metrics = output.metrics.expect("simulator reports per-layer metrics");
            digest(&synthesize(&config, regime, seed), &metrics)
        });
        if got != expected {
            mismatches.push(format!("{name} T={timesteps} {regime:?}: {got:#018x?}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "simulator outputs diverged:\n{}",
        mismatches.join("\n")
    );
}
