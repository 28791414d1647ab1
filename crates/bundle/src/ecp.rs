//! Error-Constrained Token-Time-Bundle Pruning (ECP, §5.1 / Fig. 7 of the
//! paper).
//!
//! ECP exploits the binary nature of spiking queries and keys: the number of
//! *active bundles* in a Q (or K) bundle row, counted across all features, is
//! an upper bound on every attention score any token in that bundle row can
//! produce, because each score is a sum of at most one `1` per feature. A
//! bundle row whose active-bundle count is below the pruning threshold `θp`
//! can therefore be removed *before* computing the attention map while
//! guaranteeing that every score lost is smaller than `θp`.
//!
//! Pruning compounds: removing Q bundle rows removes rows of the score matrix
//! `S` and rows of the output `Y`; removing K bundle rows removes columns of
//! `S` and the corresponding rows of `V` that would have been loaded.

use bishop_spiketensor::SpikeTensor;

use crate::summary;
use crate::ttb::{BundleShape, TtbGrid};

/// ECP configuration: the pruning thresholds for queries and keys and the
/// bundle shape used to form bundle rows.
///
/// The paper uses `θp = 6` for the static-image and speech models and
/// `θp = 10` for DVS-Gesture, with the same threshold applied to Q and K.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcpConfig {
    /// Pruning threshold `θ_{p,Q}` applied to query bundle rows.
    pub theta_q: u32,
    /// Pruning threshold `θ_{p,K}` applied to key bundle rows.
    pub theta_k: u32,
    /// Bundle shape used to form bundle rows.
    pub bundle: BundleShape,
}

impl EcpConfig {
    /// Creates a configuration with the same threshold for Q and K.
    pub fn uniform(theta: u32, bundle: BundleShape) -> Self {
        Self {
            theta_q: theta,
            theta_k: theta,
            bundle,
        }
    }

    /// The error bound guaranteed by this configuration: every pruned
    /// attention-score entry is strictly smaller than this value.
    pub fn error_bound(&self) -> u32 {
        self.theta_q.max(self.theta_k)
    }
}

/// The outcome of applying ECP to one attention layer's Q/K/V tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct EcpResult {
    /// Bundle-row coordinates `(bt, bn)` of Q kept after pruning.
    pub q_kept_rows: Vec<(usize, usize)>,
    /// Bundle-row coordinates `(bt, bn)` of K kept after pruning.
    pub k_kept_rows: Vec<(usize, usize)>,
    /// Total number of bundle rows per tensor.
    pub total_rows: usize,
    /// Q with pruned bundle rows zeroed out.
    pub pruned_q: SpikeTensor,
    /// K with pruned bundle rows zeroed out.
    pub pruned_k: SpikeTensor,
    /// V with the bundle rows corresponding to pruned K rows zeroed out
    /// (those rows of V would never be read when computing `Y = S·V`).
    pub pruned_v: SpikeTensor,
    /// The configuration that produced this result.
    pub config: EcpConfig,
}

impl EcpResult {
    /// Fraction of Q bundle rows retained.
    pub fn q_retention(&self) -> f64 {
        self.q_kept_rows.len() as f64 / self.total_rows as f64
    }

    /// Fraction of K bundle rows retained.
    pub fn k_retention(&self) -> f64 {
        self.k_kept_rows.len() as f64 / self.total_rows as f64
    }

    /// Fraction of the attention-score computation (`S = Q·Kᵀ`) that remains
    /// after pruning: retained rows × retained columns.
    pub fn score_work_fraction(&self) -> f64 {
        self.q_retention() * self.k_retention()
    }

    /// Fraction of the `Y = S·V` computation that remains: retained score
    /// rows × retained V rows.
    pub fn output_work_fraction(&self) -> f64 {
        self.q_retention() * self.k_retention()
    }

    /// Fraction of Q/K/V/Y memory traffic that remains. Q and Y scale with
    /// the Q retention, K and V with the K retention.
    pub fn memory_access_fraction(&self) -> f64 {
        0.5 * self.q_retention() + 0.5 * self.k_retention()
    }

    /// The guaranteed bound on any attention-score value lost to pruning.
    pub fn error_bound(&self) -> u32 {
        self.config.error_bound()
    }
}

/// Applies ECP to the Q/K/V tensors of one attention layer.
///
/// # Panics
///
/// Panics if the three tensors do not share the same shape.
///
/// ```
/// use bishop_bundle::{BundleShape, EcpConfig, ecp};
/// use bishop_spiketensor::{SpikeTensor, TensorShape};
///
/// let shape = TensorShape::new(4, 8, 16);
/// // Tokens 0..4 are busy, tokens 4..8 almost silent.
/// let q = SpikeTensor::from_fn(shape, |_, n, d| n < 4 && d % 2 == 0);
/// let k = q.clone();
/// let v = SpikeTensor::ones(shape);
/// let result = ecp::apply(&q, &k, &v, EcpConfig::uniform(4, BundleShape::new(2, 4)));
/// // The silent token bundle is pruned away, keeping half of the rows.
/// assert!(result.q_retention() <= 0.5 + 1e-9);
/// ```
pub fn apply(q: &SpikeTensor, k: &SpikeTensor, v: &SpikeTensor, config: EcpConfig) -> EcpResult {
    assert_eq!(q.shape(), k.shape(), "Q and K must have the same shape");
    assert_eq!(q.shape(), v.shape(), "Q and V must have the same shape");

    let grid = TtbGrid::new(q.shape(), config.bundle);
    let keep_mask = |tensor: &SpikeTensor, theta: u32| -> Vec<bool> {
        summary::row_counts(tensor, config.bundle)
            .into_iter()
            .map(|n_ab| keeps(n_ab, theta))
            .collect()
    };
    let kept_rows = |mask: &[bool]| -> Vec<(usize, usize)> {
        grid.iter_bundles()
            .zip(mask)
            .filter_map(|(row, &kept)| kept.then_some(row))
            .collect()
    };
    let q_mask = keep_mask(q, config.theta_q);
    let k_mask = keep_mask(k, config.theta_k);

    // Pruning drops whole feature rows, so the filter clears the packed row
    // words of every (t, n) in a pruned bundle row and copies nothing else.
    let shape = q.shape();
    let filter = |tensor: &SpikeTensor, mask: &[bool]| {
        let mut pruned = tensor.clone();
        for t in 0..shape.timesteps {
            for n in 0..shape.tokens {
                let (bt, bn) = grid.bundle_of(t, n);
                if !mask[bt * grid.token_bundles() + bn] {
                    pruned.clear_row(t, n);
                }
            }
        }
        pruned
    };

    let pruned_q = filter(q, &q_mask);
    let pruned_k = filter(k, &k_mask);
    // V rows correspond to K tokens in Y = S·V: rows whose K bundle row was
    // pruned are never accessed.
    let pruned_v = filter(v, &k_mask);

    EcpResult {
        q_kept_rows: kept_rows(&q_mask),
        k_kept_rows: kept_rows(&k_mask),
        total_rows: grid.bundles_per_feature(),
        pruned_q,
        pruned_k,
        pruned_v,
        config,
    }
}

/// Whether a bundle row with `n_ab` active bundles survives threshold
/// `theta`: its scores can reach `theta` only if `n_ab >= theta`.
fn keeps(n_ab: usize, theta: u32) -> bool {
    n_ab >= theta as usize
}

/// The Q and K retentions ECP reaches under `config`, from the per-row
/// active-bundle counts of Q and K (as in
/// [`AttentionSummary`](crate::AttentionSummary)). Equal to
/// `apply(q, k, v, config).{q,k}_retention()` of the tensors the counts were
/// taken from, without touching them.
///
/// # Panics
///
/// Panics if the two count slices differ in length.
pub fn retentions(q_rows: &[usize], k_rows: &[usize], config: EcpConfig) -> (f64, f64) {
    assert_eq!(
        q_rows.len(),
        k_rows.len(),
        "Q and K must have the same rows"
    );
    let retention = |rows: &[usize], theta: u32| {
        rows.iter().filter(|&&n_ab| keeps(n_ab, theta)).count() as f64 / rows.len() as f64
    };
    (
        retention(q_rows, config.theta_q),
        retention(k_rows, config.theta_k),
    )
}

/// Computes, by brute force, the maximum absolute error that pruning
/// introduced into any attention-score entry: `max |Q·Kᵀ − Q'·K'ᵀ|` over all
/// timesteps and token pairs (full feature dimension). Used by tests and the
/// experiment harness to verify the ECP error bound empirically.
///
/// Word-parallel: both the full and the pruned score of a token pair are
/// AND+popcount [`RowBits`](bishop_spiketensor::RowBits) dots over the
/// packed feature rows, instead of four scalar `get` calls per
/// `(t, i, j, d)`. Bit-for-bit identical to [`max_score_error_reference`].
pub fn max_score_error(
    q: &SpikeTensor,
    k: &SpikeTensor,
    pruned_q: &SpikeTensor,
    pruned_k: &SpikeTensor,
) -> u32 {
    assert_eq!(q.shape(), k.shape(), "Q and K must share a shape");
    assert_eq!(q.shape(), pruned_q.shape(), "pruned Q must share Q's shape");
    assert_eq!(k.shape(), pruned_k.shape(), "pruned K must share K's shape");
    let shape = q.shape();
    let mut max_err = 0u32;
    for t in 0..shape.timesteps {
        for i in 0..shape.tokens {
            let q_row = q.row_words(t, i);
            let pq_row = pruned_q.row_words(t, i);
            for j in 0..shape.tokens {
                let full = q_row.dot(&k.row_words(t, j));
                let pruned = pq_row.dot(&pruned_k.row_words(t, j));
                max_err = max_err.max(full - pruned.min(full));
            }
        }
    }
    max_err
}

/// Scalar reference implementation of [`max_score_error`], kept for
/// differential testing of the word-parallel ECP error accounting.
pub fn max_score_error_reference(
    q: &SpikeTensor,
    k: &SpikeTensor,
    pruned_q: &SpikeTensor,
    pruned_k: &SpikeTensor,
) -> u32 {
    assert_eq!(q.shape(), k.shape(), "Q and K must share a shape");
    let shape = q.shape();
    let mut max_err = 0u32;
    for t in 0..shape.timesteps {
        for i in 0..shape.tokens {
            for j in 0..shape.tokens {
                let mut full = 0u32;
                let mut pruned = 0u32;
                for d in 0..shape.features {
                    if q.get(t, i, d) && k.get(t, j, d) {
                        full += 1;
                    }
                    if pruned_q.get(t, i, d) && pruned_k.get(t, j, d) {
                        pruned += 1;
                    }
                }
                max_err = max_err.max(full - pruned.min(full));
            }
        }
    }
    max_err
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_spiketensor::{SpikeTraceGenerator, TensorShape, TraceProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_qkv(
        density_q: f64,
        density_k: f64,
        seed: u64,
    ) -> (SpikeTensor, SpikeTensor, SpikeTensor) {
        let shape = TensorShape::new(4, 16, 32);
        let mut rng = StdRng::seed_from_u64(seed);
        let q = SpikeTraceGenerator::new(TraceProfile::new(density_q).with_feature_spread(1.5))
            .generate(shape, &mut rng);
        let k = SpikeTraceGenerator::new(TraceProfile::new(density_k).with_feature_spread(1.5))
            .generate(shape, &mut rng);
        let v = SpikeTraceGenerator::new(TraceProfile::new(0.2)).generate(shape, &mut rng);
        (q, k, v)
    }

    #[test]
    fn zero_threshold_prunes_nothing() {
        let (q, k, v) = random_qkv(0.1, 0.1, 1);
        let result = apply(&q, &k, &v, EcpConfig::uniform(0, BundleShape::default()));
        assert_eq!(result.q_retention(), 1.0);
        assert_eq!(result.k_retention(), 1.0);
        assert_eq!(result.pruned_q, q);
        assert_eq!(result.pruned_k, k);
        assert_eq!(result.pruned_v, v);
    }

    #[test]
    fn huge_threshold_prunes_everything() {
        let (q, k, v) = random_qkv(0.1, 0.1, 2);
        let result = apply(
            &q,
            &k,
            &v,
            EcpConfig::uniform(10_000, BundleShape::default()),
        );
        assert_eq!(result.q_kept_rows.len(), 0);
        assert_eq!(result.k_kept_rows.len(), 0);
        assert_eq!(result.pruned_q.count_ones(), 0);
        assert_eq!(result.score_work_fraction(), 0.0);
    }

    #[test]
    fn pruning_is_monotone_in_threshold() {
        let (q, k, v) = random_qkv(0.08, 0.05, 3);
        let mut previous = f64::INFINITY;
        for theta in [0u32, 2, 4, 8, 16, 32] {
            let result = apply(
                &q,
                &k,
                &v,
                EcpConfig::uniform(theta, BundleShape::default()),
            );
            let kept = result.q_retention() + result.k_retention();
            assert!(
                kept <= previous + 1e-12,
                "retention should not increase with the threshold"
            );
            previous = kept;
        }
    }

    #[test]
    fn error_bound_holds_empirically() {
        for seed in 0..5 {
            let (q, k, v) = random_qkv(0.06, 0.04, 100 + seed);
            for theta in [2u32, 4, 6, 10] {
                let config = EcpConfig::uniform(theta, BundleShape::default());
                let result = apply(&q, &k, &v, config);
                let err = max_score_error(&q, &k, &result.pruned_q, &result.pruned_k);
                assert!(
                    err < config.error_bound().max(1),
                    "seed {seed}, θ={theta}: error {err} exceeded the bound {}",
                    config.error_bound()
                );
            }
        }
    }

    #[test]
    fn sparser_keys_are_pruned_more_than_queries() {
        // The paper observes K retains fewer tokens than Q after ECP because
        // K tends to be sparser.
        let (q, k, v) = random_qkv(0.12, 0.03, 7);
        let result = apply(&q, &k, &v, EcpConfig::uniform(6, BundleShape::default()));
        assert!(result.k_retention() <= result.q_retention());
    }

    #[test]
    fn compounding_reduces_score_work_quadratically() {
        let (q, k, v) = random_qkv(0.05, 0.05, 9);
        let result = apply(&q, &k, &v, EcpConfig::uniform(8, BundleShape::default()));
        let expected = result.q_retention() * result.k_retention();
        assert!((result.score_work_fraction() - expected).abs() < 1e-12);
        assert!(result.score_work_fraction() <= result.q_retention());
    }

    #[test]
    fn pruned_v_follows_k_rows() {
        let shape = TensorShape::new(2, 8, 8);
        let q = SpikeTensor::ones(shape);
        // K active only on the first token bundle.
        let k = SpikeTensor::from_fn(shape, |_, n, _| n < 4);
        let v = SpikeTensor::ones(shape);
        let result = apply(&q, &k, &v, EcpConfig::uniform(1, BundleShape::new(2, 4)));
        // K bundle row 1 is pruned; the corresponding V rows must be zeroed.
        for t in 0..2 {
            for n in 4..8 {
                for d in 0..8 {
                    assert!(!result.pruned_v.get(t, n, d));
                }
            }
        }
        // Retained rows of V are untouched.
        assert!(result.pruned_v.get(0, 0, 0));
    }

    #[test]
    fn retention_fractions_are_consistent_with_kept_rows() {
        let (q, k, v) = random_qkv(0.1, 0.08, 13);
        let result = apply(&q, &k, &v, EcpConfig::uniform(4, BundleShape::default()));
        assert!(
            (result.q_retention() * result.total_rows as f64 - result.q_kept_rows.len() as f64)
                .abs()
                < 1e-9
        );
        assert!(result.memory_access_fraction() <= 1.0);
        assert_eq!(result.error_bound(), 4);
    }

    #[test]
    #[should_panic(expected = "same shape")]
    fn mismatched_shapes_are_rejected() {
        let q = SpikeTensor::zeros(TensorShape::new(2, 4, 4));
        let k = SpikeTensor::zeros(TensorShape::new(2, 4, 8));
        let v = SpikeTensor::zeros(TensorShape::new(2, 4, 4));
        apply(&q, &k, &v, EcpConfig::uniform(1, BundleShape::default()));
    }
}
