//! Per-tier SIMD differential suite: every kernel of every SIMD tier the
//! executing host supports must be bit-for-bit identical to the scalar
//! reference tier — on unaligned lengths, partial tail words, empty rows,
//! and f32 payloads that include negative zeros and denormals.
//!
//! Tiers the host cannot run are skipped (with a log line, so CI output
//! records which paths were actually exercised); the scalar tier is always
//! available, so the suite never silently degenerates to zero comparisons.

use bishop_spiketensor::words::simd::{self, LifParams, SimdTier};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The tiers to differentially test: everything the host supports beyond
/// the scalar reference itself.
fn tiers_under_test() -> Vec<SimdTier> {
    SimdTier::available()
        .into_iter()
        .filter(|&tier| tier != SimdTier::Scalar)
        .collect()
}

fn scalar() -> &'static simd::KernelDispatch {
    simd::kernels_for(SimdTier::Scalar).expect("scalar tier is always available")
}

/// Word-vector lengths covering empty input, sub-threshold rows, the
/// dispatch threshold itself, full SIMD vectors (4/8 words) and ragged
/// remainders beyond them.
const WORD_LENGTHS: [usize; 9] = [0, 1, 3, 4, 5, 8, 11, 16, 33];

fn random_words(len: usize, density: f64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let mut word = 0u64;
            for bit in 0..64 {
                if rng.gen_bool(density) {
                    word |= 1 << bit;
                }
            }
            word
        })
        .collect()
}

/// A masked-kernel bit vector for a row of `len` lanes: `len.div_ceil(64)`
/// words with the tail-zero invariant upheld.
fn random_mask(len: usize, density: f64, seed: u64) -> Vec<u64> {
    let mut bits = random_words(len.div_ceil(64), density, seed);
    if !len.is_multiple_of(64) {
        if let Some(last) = bits.last_mut() {
            *last &= (1u64 << (len % 64)) - 1;
        }
    }
    bits
}

/// Random f32 payload including sign flips, negative zero and denormals —
/// the values whose bit patterns an unfaithful kernel corrupts first.
fn random_f32s(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0..10) {
            0 => -0.0,
            1 => 0.0,
            2 => f32::MIN_POSITIVE / 2.0, // denormal
            3 => -f32::MIN_POSITIVE / 2.0,
            _ => rng.gen_range(-1.0e3_f32..1.0e3),
        })
        .collect()
}

fn bits_of(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Neuron-layer lengths for `lif_step`: empty, sub-vector, one AVX-512
/// vector ± 1, one spike word ± 1, a ragged multi-word layer, and the
/// serving model's `N·D = 8192` plane.
const LIF_LENGTHS: [usize; 10] = [0, 1, 15, 16, 17, 63, 64, 65, 130, 8192];

/// LIF scalar sets: the serving default, non-zero leak and reset, and a
/// zero floor (where the clamp meets signed zeros).
const LIF_PARAMS: [LifParams; 4] = [
    LifParams {
        leak: 0.0,
        floor: -4.0,
        threshold: 1.0,
        reset: 0.0,
    },
    LifParams {
        leak: 0.125,
        floor: -1.5,
        threshold: 0.75,
        reset: -0.25,
    },
    LifParams {
        leak: 0.0,
        floor: 0.0,
        threshold: 1.0,
        reset: 0.5,
    },
    LifParams {
        leak: -0.0,
        floor: -0.0,
        threshold: 2.0,
        reset: -0.0,
    },
];

/// Membrane/input payloads for `lif_step`: mostly values around the
/// threshold, salted with the cases an unfaithful kernel gets wrong —
/// sums landing exactly on the threshold (must not fire), values far below
/// the floor, signed zeros, denormals, infinities and NaN.
fn random_lif_f32s(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0..16) {
            0 => -0.0,
            1 => 0.0,
            2 => f32::MIN_POSITIVE / 2.0,
            3 => -f32::MIN_POSITIVE / 2.0,
            4 => 0.5, // 0.5 + 0.5 and 0.25 + 0.75 hit the threshold 1.0 exactly
            5 => 0.25,
            6 => 0.75,
            7 => -100.0,
            8 => f32::NAN,
            9 => f32::INFINITY,
            _ => rng.gen_range(-2.0_f32..2.0),
        })
        .collect()
}

/// Output widths for the accumulate kernels: below one vector, one AVX-512
/// vector ± 1, one eight-vector AVX-512 tile ± 1 (sixteen NEON tiles), the
/// serving model's `fc1` width, and that plus half a vector.
const ACCUMULATE_COLS: [usize; 9] = [1, 15, 16, 17, 127, 128, 129, 512, 520];

/// Weight/coefficient payloads for the accumulate kernels: ordinary values
/// salted with signed zeros, denormals, infinities (so `inf − inf` arises)
/// and NaN.
fn random_accumulate_f32s(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0..24) {
            0 => -0.0,
            1 => 0.0,
            2 => f32::MIN_POSITIVE / 2.0,
            3 => -f32::MIN_POSITIVE / 2.0,
            4 => f32::INFINITY,
            5 => f32::NEG_INFINITY,
            6 => f32::NAN,
            _ => rng.gen_range(-4.0_f32..4.0),
        })
        .collect()
}

/// Bit patterns with every NaN mapped to one pattern: which operand's NaN
/// payload an addition propagates depends on operand order, which the
/// compiler may commute, so NaN-ness is compared per lane and every other
/// value bit for bit.
fn canonical_bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| {
            if v.is_nan() {
                f32::NAN.to_bits()
            } else {
                v.to_bits()
            }
        })
        .collect()
}

/// The row lists the accumulate kernels must handle: empty, a single row,
/// a repeated index, every row in order, and a random multiset.
fn row_list(kind: usize, weight_rows: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    match kind {
        0 => Vec::new(),
        1 => vec![rng.gen_range(0..weight_rows)],
        2 => vec![rng.gen_range(0..weight_rows); 3],
        3 => (0..weight_rows).collect(),
        _ => (0..rng.gen_range(1..2 * weight_rows))
            .map(|_| rng.gen_range(0..weight_rows))
            .collect(),
    }
}

#[test]
fn host_tier_coverage_is_logged() {
    let available = SimdTier::available();
    assert_eq!(available.first(), Some(&SimdTier::Scalar));
    for tier in [
        SimdTier::Scalar,
        SimdTier::Neon,
        SimdTier::Avx2,
        SimdTier::Avx512,
    ] {
        if tier.is_available() {
            println!("simd_differential: exercising tier `{}`", tier.label());
            assert!(simd::kernels_for(tier).is_some());
        } else {
            println!(
                "simd_differential: tier `{}` unavailable on this host, skipped",
                tier.label()
            );
            assert!(simd::kernels_for(tier).is_none());
        }
    }
    // The active table is the widest available tier.
    assert_eq!(
        simd::active().tier(),
        *available.last().expect("scalar is always present")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn popcount_matches_scalar_on_every_tier(
        len_index in 0usize..WORD_LENGTHS.len(),
        density in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let words = random_words(WORD_LENGTHS[len_index], density, seed);
        let expected = scalar().popcount(&words);
        for tier in tiers_under_test() {
            let kernels = simd::kernels_for(tier).expect("tier listed as available");
            prop_assert!(
                kernels.popcount(&words) == expected,
                "popcount diverged on tier {}", tier.label()
            );
        }
    }

    #[test]
    fn and_popcount_matches_scalar_on_every_tier(
        len_index in 0usize..WORD_LENGTHS.len(),
        density in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let len = WORD_LENGTHS[len_index];
        let a = random_words(len, density, seed);
        let b = random_words(len, 1.0 - density * 0.5, seed ^ 0xBEEF);
        let expected = scalar().and_popcount(&a, &b);
        for tier in tiers_under_test() {
            let kernels = simd::kernels_for(tier).expect("tier listed as available");
            prop_assert!(
                kernels.and_popcount(&a, &b) == expected,
                "and_popcount diverged on tier {}", tier.label()
            );
        }
    }

    #[test]
    fn add_assign_is_bitwise_identical_on_every_tier(
        len in 0usize..300,
        seed in any::<u64>(),
    ) {
        let src = random_f32s(len, seed);
        let dst = random_f32s(len, seed ^ 0xD15EA5E);
        let mut expected = dst.clone();
        scalar().add_assign(&mut expected, &src);
        for tier in tiers_under_test() {
            let kernels = simd::kernels_for(tier).expect("tier listed as available");
            let mut got = dst.clone();
            kernels.add_assign(&mut got, &src);
            prop_assert!(
                bits_of(&got) == bits_of(&expected),
                "add_assign diverged on tier {}", tier.label()
            );
        }
    }

    #[test]
    fn masked_add_is_bitwise_identical_on_every_tier(
        len in 0usize..300,
        density in 0.0f64..1.0,
        weight_sel in 0usize..4,
        weight_raw in -10.0f32..10.0,
        seed in any::<u64>(),
    ) {
        let weight = match weight_sel {
            0 => 0.25,
            1 => -1.5,
            2 => -0.0,
            _ => weight_raw,
        };
        let bits = random_mask(len, density, seed);
        let dst = random_f32s(len, seed ^ 0xCAFE);
        let mut expected = dst.clone();
        scalar().masked_add(&mut expected, &bits, weight);
        // Scalar blend semantics: unset lanes keep their exact bits.
        for d in 0..len {
            if bits[d / 64] & (1 << (d % 64)) == 0 {
                prop_assert_eq!(expected[d].to_bits(), dst[d].to_bits());
            }
        }
        for tier in tiers_under_test() {
            let kernels = simd::kernels_for(tier).expect("tier listed as available");
            let mut got = dst.clone();
            kernels.masked_add(&mut got, &bits, weight);
            prop_assert!(
                bits_of(&got) == bits_of(&expected),
                "masked_add diverged on tier {}", tier.label()
            );
        }
    }

    #[test]
    fn masked_inc_matches_scalar_on_every_tier(
        len in 0usize..300,
        density in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let bits = random_mask(len, density, seed);
        let dst: Vec<u32> = {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF0F0);
            (0..len).map(|_| rng.gen_range(0..1000)).collect()
        };
        let mut expected = dst.clone();
        scalar().masked_inc(&mut expected, &bits);
        for tier in tiers_under_test() {
            let kernels = simd::kernels_for(tier).expect("tier listed as available");
            let mut got = dst.clone();
            kernels.masked_inc(&mut got, &bits);
            prop_assert!(
                got == expected,
                "masked_inc diverged on tier {}", tier.label()
            );
        }
    }

    #[test]
    fn lif_step_is_bitwise_identical_on_every_tier(
        len_index in 0usize..LIF_LENGTHS.len(),
        params_index in 0usize..LIF_PARAMS.len(),
        seed in any::<u64>(),
    ) {
        let len = LIF_LENGTHS[len_index];
        let params = LIF_PARAMS[params_index];
        let start = random_lif_f32s(len, seed);
        let inputs: Vec<Vec<f32>> = (1..=3).map(|step| random_lif_f32s(len, seed ^ step)).collect();
        let mut expected_v = start.clone();
        let mut expected_words = vec![u64::MAX; len.div_ceil(64)];
        let mut tiers: Vec<_> = tiers_under_test()
            .into_iter()
            .map(|tier| (tier, start.clone(), vec![u64::MAX; len.div_ceil(64)]))
            .collect();
        // Three consecutive steps, so membranes a tier wrote feed its next step.
        for input in &inputs {
            scalar().lif_step(&mut expected_v, input, &params, &mut expected_words);
            if !len.is_multiple_of(64) {
                prop_assert!(expected_words[len / 64] >> (len % 64) == 0, "tail bits set");
            }
            for (tier, v_mem, words) in &mut tiers {
                let kernels = simd::kernels_for(*tier).expect("tier listed as available");
                kernels.lif_step(v_mem, input, &params, words);
                prop_assert!(
                    *words == expected_words,
                    "lif_step fired words diverged on tier {}", tier.label()
                );
                prop_assert!(
                    bits_of(v_mem) == bits_of(&expected_v),
                    "lif_step membranes diverged on tier {}", tier.label()
                );
            }
        }
    }

    #[test]
    fn row_accumulate_is_bitwise_identical_on_every_tier(
        cols_index in 0usize..ACCUMULATE_COLS.len(),
        weight_rows in 1usize..12,
        list_kind in 0usize..5,
        seed in any::<u64>(),
    ) {
        let cols = ACCUMULATE_COLS[cols_index];
        let weight = random_accumulate_f32s(weight_rows * cols, seed);
        let rows = row_list(list_kind, weight_rows, seed ^ 0x0707);
        // The kernel overwrites: start every tier from a dirty row.
        let mut expected = vec![f32::NAN; cols];
        scalar().row_accumulate(&mut expected, &weight, &rows);
        for tier in tiers_under_test() {
            let kernels = simd::kernels_for(tier).expect("tier listed as available");
            let mut got = vec![f32::NAN; cols];
            kernels.row_accumulate(&mut got, &weight, &rows);
            prop_assert!(
                canonical_bits(&got) == canonical_bits(&expected),
                "row_accumulate diverged on tier {}", tier.label()
            );
        }
    }

    #[test]
    fn scaled_accumulate_is_bitwise_identical_on_every_tier(
        cols_index in 0usize..ACCUMULATE_COLS.len(),
        weight_rows in 0usize..12,
        seed in any::<u64>(),
    ) {
        let cols = ACCUMULATE_COLS[cols_index];
        let weight = random_accumulate_f32s(weight_rows * cols, seed);
        let coeffs = random_accumulate_f32s(weight_rows, seed ^ 0xC0EF);
        let mut expected = vec![f32::NAN; cols];
        scalar().scaled_accumulate(&mut expected, &weight, &coeffs);
        for tier in tiers_under_test() {
            let kernels = simd::kernels_for(tier).expect("tier listed as available");
            let mut got = vec![f32::NAN; cols];
            kernels.scaled_accumulate(&mut got, &weight, &coeffs);
            prop_assert!(
                canonical_bits(&got) == canonical_bits(&expected),
                "scaled_accumulate diverged on tier {}", tier.label()
            );
        }
    }

    #[test]
    fn empty_and_all_zero_rows_are_neutral_on_every_tier(
        len_index in 0usize..WORD_LENGTHS.len(),
    ) {
        let zeros = vec![0u64; WORD_LENGTHS[len_index]];
        for tier in SimdTier::available() {
            let kernels = simd::kernels_for(tier).expect("tier listed as available");
            prop_assert_eq!(kernels.popcount(&zeros), 0);
            prop_assert_eq!(kernels.and_popcount(&zeros, &zeros), 0);
            prop_assert_eq!(kernels.popcount(&[]), 0);
            let mut empty_f32: [f32; 0] = [];
            kernels.add_assign(&mut empty_f32, &[]);
            kernels.masked_add(&mut empty_f32, &[], 1.0);
            let mut empty_u32: [u32; 0] = [];
            kernels.masked_inc(&mut empty_u32, &[]);
            kernels.lif_step(&mut empty_f32, &[], &LIF_PARAMS[0], &mut []);
            kernels.row_accumulate(&mut empty_f32, &[], &[]);
            kernels.scaled_accumulate(&mut empty_f32, &[], &[]);
        }
    }
}

/// The operation-order contract itself, on every tier (scalar included):
/// a sum landing exactly on the threshold does not fire, the floor clamps
/// before the comparison, a fired lane is reset, and spike bits land at
/// their lane's position across word boundaries.
#[test]
fn lif_step_semantics_hold_on_every_tier() {
    let params = LIF_PARAMS[0];
    for tier in SimdTier::available() {
        let kernels = simd::kernels_for(tier).expect("tier listed as available");
        for len in [5usize, 64, 70, 130] {
            let mut v_mem = vec![0.25f32; len];
            let mut input = vec![0.0f32; len];
            input[0] = 0.75; // 0.25 + 0.75 == threshold: strict `>` must not fire
            input[1] = 0.75 + f32::EPSILON; // one ulp above: fires
            input[2] = -100.0; // clamps to the floor
            input[len - 1] = 3.0; // last lane, possibly in a partial word
            let mut fired = vec![u64::MAX; len.div_ceil(64)];
            kernels.lif_step(&mut v_mem, &input, &params, &mut fired);
            let spikes: Vec<usize> = (0..len)
                .filter(|i| (fired[i / 64] >> (i % 64)) & 1 == 1)
                .collect();
            assert_eq!(spikes, vec![1, len - 1], "tier {} len {len}", tier.label());
            assert_eq!(fired.iter().map(|w| w.count_ones()).sum::<u32>(), 2);
            assert_eq!(v_mem[0], 1.0, "tier {}", tier.label());
            assert_eq!(v_mem[1], params.reset);
            assert_eq!(v_mem[2], params.floor);
            assert_eq!(v_mem[3], 0.25);
            assert_eq!(v_mem[len - 1], params.reset);
        }
    }
}

/// The accumulate kernels' operation-order contract, on every tier (scalar
/// included), against sums written out by hand: every element starts from
/// `+0.0` (so an empty list, or a lone `-0.0`, yields `+0.0`), rows are
/// added in list order with repeats, zero coefficients are skipped rather
/// than multiplied (`0·inf` never appears), and the product is rounded
/// before the add — inputs where a fused multiply-add rounds differently
/// make a kernel that fuses fail here.
#[test]
fn accumulate_semantics_hold_on_every_tier() {
    // a·w = 1 + 2⁻¹¹ + 2⁻²⁴ rounds (ties-to-even) to 1 + 2⁻¹¹; adding
    // −(1 + 2⁻¹¹) then gives exactly 0.0, where an FMA keeps the 2⁻²⁴.
    let a = 1.0 + 2.0_f32.powi(-12);
    let cancel = -(1.0 + 2.0_f32.powi(-11));
    assert_ne!(
        a.mul_add(a, cancel),
        a * a + cancel,
        "inputs must be FMA-sensitive"
    );
    for tier in SimdTier::available() {
        let kernels = simd::kernels_for(tier).expect("tier listed as available");
        for cols in ACCUMULATE_COLS {
            let label = format!("tier {} cols {cols}", tier.label());
            // Rows: 0 = ones, 1 = -0.0, 2 = 0.1 (inexact sums), 3 = 1e30, 4 = inf.
            let values = [1.0, -0.0, 0.1, 1e30, f32::INFINITY];
            let weight: Vec<f32> = values.iter().flat_map(|&v| vec![v; cols]).collect();
            let row = |rows: &[usize]| {
                let mut out = vec![f32::NAN; cols];
                kernels.row_accumulate(&mut out, &weight, rows);
                out
            };
            assert_eq!(bits_of(&row(&[])), bits_of(&vec![0.0; cols]), "{label}");
            assert_eq!(bits_of(&row(&[1])), bits_of(&vec![0.0; cols]), "{label}");
            assert_eq!(
                bits_of(&row(&[2, 2, 2])),
                bits_of(&vec![0.1 + 0.1 + 0.1; cols]),
                "{label}"
            );
            // List order matters: (1e30 + 1) − … ≠ (1 + 1e30) only in
            // rounding, but (0.1 + 1e30) + 0.1 ≠ (0.1 + 0.1) + 1e30.
            let ordered = vec![(0.0 + 0.1 + 1e30) + 0.1_f32; cols];
            assert_eq!(bits_of(&row(&[2, 3, 2])), bits_of(&ordered), "{label}");
            assert_eq!(
                bits_of(&row(&[0, 1, 2, 3, 4])),
                bits_of(&vec![f32::INFINITY; cols]),
                "{label}"
            );

            let scaled = |coeffs: &[f32; 5]| {
                let mut out = vec![f32::NAN; cols];
                kernels.scaled_accumulate(&mut out, &weight, coeffs);
                out
            };
            // Zero coefficients of either sign skip their row — the inf row
            // included.
            let skipped = scaled(&[0.0, 2.0, -0.0, 0.0, -0.0]);
            assert_eq!(bits_of(&skipped), bits_of(&vec![0.0; cols]), "{label}");
            let weighted = scaled(&[0.5, 0.0, 3.0, 0.0, 0.0]);
            assert_eq!(
                bits_of(&weighted),
                bits_of(&vec![0.0 + 0.5 * 1.0 + 3.0 * 0.1; cols]),
                "{label}"
            );

            // The inexact product must meet a non-zero partial sum.
            let fma_weight: Vec<f32> = [1.0, a].iter().flat_map(|&v| vec![v; cols]).collect();
            let mut out = vec![f32::NAN; cols];
            kernels.scaled_accumulate(&mut out, &fma_weight, &[cancel, a]);
            assert_eq!(
                bits_of(&out),
                bits_of(&vec![0.0; cols]),
                "{label}: product must round before the add"
            );
        }
    }
}

/// Row indices are checked against the weight matrix before any kernel
/// runs, on every tier.
#[test]
fn row_accumulate_rejects_out_of_range_rows_on_every_tier() {
    for tier in SimdTier::available() {
        let kernels = simd::kernels_for(tier).expect("tier listed as available");
        let weight = vec![1.0_f32; 3 * 16];
        for rows in [vec![3], vec![0, usize::MAX]] {
            let attempt = std::panic::catch_unwind(|| {
                let mut out = vec![0.0_f32; 16];
                kernels.row_accumulate(&mut out, &weight, &rows);
            });
            assert!(
                attempt.is_err(),
                "tier {} accepted rows {rows:?}",
                tier.label()
            );
        }
        // A ragged weight slice has no partial last row to address.
        let attempt = std::panic::catch_unwind(|| {
            let mut out = vec![0.0_f32; 16];
            kernels.row_accumulate(&mut out, &weight[..40], &[2]);
        });
        assert!(attempt.is_err(), "tier {} read a partial row", tier.label());
    }
}
