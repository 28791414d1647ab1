//! Density-controlled synthetic spike-trace generators.
//!
//! The paper evaluates Bishop on activation traces of spiking transformers
//! trained on CIFAR10/100, ImageNet-100, DVS-Gesture-128, and Google Speech
//! Commands. Those datasets and the PyTorch training stack are substituted
//! here (see `DESIGN.md`) by generators that reproduce the *statistics* of
//! those traces that the accelerator actually depends on:
//!
//! * overall firing density,
//! * the per-feature spread of densities (some features nearly silent, some
//!   hot — Fig. 10(a) of the paper),
//! * spatiotemporal clustering of spikes into bundles (firing is correlated
//!   across adjacent tokens/timesteps, which is what makes Token-Time
//!   Bundles effective).
//!
//! # Draw-order contract
//!
//! Every served simulator number (`core.sim.*` cycles, bytes and pJ) is a
//! function of the exact bits these generators emit, so the random draws
//! are part of their interface. [`SpikeTraceGenerator::generate`] consumes
//! the generator's stream in this order and no other:
//!
//! 1. the feature densities, feature by feature (one silent-feature draw,
//!    then one spread draw when the profile has a spread);
//! 2. one hot/cold draw per spatiotemporal cluster, time-cluster-major;
//! 3. one `next_u64` per position `(t, n, d)` whose feature density is
//!    `> 0`, in the tensor's layout order (`t`, then `n`, then `d`).
//!    Positions of silent features draw nothing.
//!
//! [`SpikeTraceGenerator::generate_with_feature_densities`] makes only the
//! draws of step 3. A change may reorganise the work around the draws, but
//! not add, drop or reorder one.
//!
//! # Threshold identity
//!
//! A position fires when `rng.gen_bool(p)` would return `true`, and
//! `gen_bool(p)` is `unit_f64(x) < p` with `unit_f64(x) = (x >> 11) · 2⁻⁵³`.
//! Both sides scale exactly by powers of two, so for every `p ∈ [0, 1]`
//!
//! ```text
//! unit_f64(x) < p  ⇔  (x >> 11) < p · 2⁵³  ⇔  (x >> 11) < ⌈p · 2⁵³⌉
//! ```
//!
//! The generators therefore turn each live feature's probability into an
//! integer threshold once per tensor and compare raw words against it —
//! no float conversion and no division per position.

use rand::{Rng, RngCore};

use crate::{SpikeTensor, TensorShape};

/// Statistical profile describing how a synthetic spike trace should look.
///
/// ```
/// use bishop_spiketensor::{SpikeTraceGenerator, TraceProfile, TensorShape};
/// use rand::SeedableRng;
///
/// let profile = TraceProfile::new(0.2).with_feature_spread(2.0);
/// let generator = SpikeTraceGenerator::new(profile);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let trace = generator.generate(TensorShape::new(4, 64, 128), &mut rng);
/// assert!((trace.density() - 0.2).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    mean_density: f64,
    feature_spread: f64,
    cluster_tokens: usize,
    cluster_timesteps: usize,
    cluster_boost: f64,
    silent_feature_fraction: f64,
}

impl TraceProfile {
    /// A profile with the given mean firing density and no feature-level or
    /// spatiotemporal structure.
    ///
    /// # Panics
    ///
    /// Panics if `mean_density` is not in `[0, 1]`.
    pub fn new(mean_density: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&mean_density),
            "mean density must be in [0, 1], got {mean_density}"
        );
        Self {
            mean_density,
            feature_spread: 0.0,
            cluster_tokens: 1,
            cluster_timesteps: 1,
            cluster_boost: 1.0,
            silent_feature_fraction: 0.0,
        }
    }

    /// Mean firing density of the profile.
    pub fn mean_density(&self) -> f64 {
        self.mean_density
    }

    /// Adds a per-feature density spread: feature densities are drawn from a
    /// distribution whose coefficient of variation grows with `spread`
    /// (0 = uniform; 2–3 ≈ the heavy-tailed distribution in Fig. 10(a)).
    pub fn with_feature_spread(mut self, spread: f64) -> Self {
        assert!(spread >= 0.0, "feature spread must be non-negative");
        self.feature_spread = spread;
        self
    }

    /// Makes a fraction of features completely silent (no spikes at all);
    /// BSA training pushes many features into this regime (Fig. 5: 9.3 % →
    /// 52.2 % of Q features with zero active bundles on Model 1).
    pub fn with_silent_features(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "silent feature fraction must be in [0, 1]"
        );
        self.silent_feature_fraction = fraction;
        self
    }

    /// Clusters firing into `(timesteps × tokens)` spatiotemporal blocks:
    /// within an "active" block the firing probability is multiplied by
    /// `boost`, outside it is lowered to preserve the overall mean density.
    /// This models the clustered firing that makes bundle-level skipping
    /// worthwhile.
    pub fn with_clustering(mut self, timesteps: usize, tokens: usize, boost: f64) -> Self {
        assert!(timesteps > 0 && tokens > 0, "cluster dims must be non-zero");
        assert!(boost >= 1.0, "cluster boost must be >= 1");
        self.cluster_timesteps = timesteps;
        self.cluster_tokens = tokens;
        self.cluster_boost = boost;
        self
    }

    /// Expands the profile into a per-feature density vector.
    fn feature_densities<R: Rng>(&self, features: usize, rng: &mut R) -> Vec<f64> {
        let mut densities = Vec::with_capacity(features);
        for _ in 0..features {
            if rng.gen_bool(self.silent_feature_fraction.clamp(0.0, 1.0)) {
                densities.push(0.0);
                continue;
            }
            let base = if self.feature_spread == 0.0 {
                self.mean_density
            } else {
                // Log-uniform multiplier around the mean: exp(U(-s, s)),
                // renormalised below so the realised mean stays on target.
                let u: f64 = rng.gen_range(-self.feature_spread..=self.feature_spread);
                self.mean_density * u.exp()
            };
            densities.push(base.clamp(0.0, 1.0));
        }
        // Renormalise so the mean over *all* features (including silent ones)
        // matches the requested mean density as closely as possible.
        let realised_mean: f64 = densities.iter().sum::<f64>() / features as f64;
        if realised_mean > 0.0 {
            let correction = self.mean_density / realised_mean;
            for d in &mut densities {
                *d = (*d * correction).clamp(0.0, 1.0);
            }
        }
        densities
    }
}

/// Generator that materialises [`TraceProfile`]s into [`SpikeTensor`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct SpikeTraceGenerator {
    profile: TraceProfile,
}

impl SpikeTraceGenerator {
    /// Creates a generator for the given profile.
    pub fn new(profile: TraceProfile) -> Self {
        Self { profile }
    }

    /// The profile this generator materialises.
    pub fn profile(&self) -> &TraceProfile {
        &self.profile
    }

    /// Generates a spike trace with the profile's statistics.
    pub fn generate<R: Rng>(&self, shape: TensorShape, rng: &mut R) -> SpikeTensor {
        let feature_density = self.profile.feature_densities(shape.features, rng);
        let cluster_t = self.profile.cluster_timesteps;
        let cluster_n = self.profile.cluster_tokens;
        let boost = self.profile.cluster_boost;

        // Decide which spatiotemporal clusters are "hot". A cluster is hot
        // with probability 1/boost so that hot-cluster boosting keeps the
        // expected density unchanged: E[p] = (1/boost)*boost*p + (1-1/boost)*~0.
        let clusters_t = shape.timesteps.div_ceil(cluster_t);
        let clusters_n = shape.tokens.div_ceil(cluster_n);
        let mut hot = vec![false; clusters_t * clusters_n];
        let hot_probability = (1.0 / boost).clamp(0.0, 1.0);
        for flag in &mut hot {
            *flag = rng.gen_bool(hot_probability);
        }
        let cold_scale = if boost > 1.0 { 0.15 } else { 1.0 };

        // Each live feature's firing probability in a hot and in a cold
        // cluster, as `gen_bool` thresholds.
        let mut live = Vec::new();
        let mut hot_thresholds = Vec::new();
        let mut cold_thresholds = Vec::new();
        for (d, &base) in feature_density.iter().enumerate() {
            if base <= 0.0 {
                continue;
            }
            let (p_hot, p_cold) = if boost <= 1.0 {
                (base, base)
            } else {
                ((base * boost).min(1.0), base * cold_scale)
            };
            live.push(d);
            hot_thresholds.push(bool_threshold(p_hot.clamp(0.0, 1.0)));
            cold_thresholds.push(bool_threshold(p_cold.clamp(0.0, 1.0)));
        }

        fill_rows(shape, &live, rng, |t, n| {
            if hot[(t / cluster_t) * clusters_n + n / cluster_n] {
                &hot_thresholds
            } else {
                &cold_thresholds
            }
        })
    }

    /// Generates a trace whose per-feature densities are given explicitly;
    /// the profile is ignored (no spread and no clustering). Used to replay
    /// measured per-feature statistics.
    pub fn generate_with_feature_densities<R: Rng>(
        &self,
        shape: TensorShape,
        densities: &[f64],
        rng: &mut R,
    ) -> SpikeTensor {
        assert_eq!(
            densities.len(),
            shape.features,
            "need one density per feature"
        );
        let mut live = Vec::new();
        let mut thresholds = Vec::new();
        for (d, density) in densities.iter().enumerate() {
            let p = density.clamp(0.0, 1.0);
            if p > 0.0 {
                live.push(d);
                thresholds.push(bool_threshold(p));
            }
        }
        fill_rows(shape, &live, rng, |_, _| &thresholds)
    }
}

/// `2⁵³`, the resolution of `gen_bool`'s unit sample.
const UNIT_SCALE: f64 = (1u64 << 53) as f64;

/// The integer form of `gen_bool(p)`: for every word `x`,
/// `(x >> 11) < bool_threshold(p)` exactly when `gen_bool(p)` drawing `x`
/// returns `true` (see the module's threshold identity).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`, as `gen_bool` does.
fn bool_threshold(p: f64) -> u64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "gen_bool probability {p} not in [0, 1]"
    );
    (p * UNIT_SCALE).ceil() as u64
}

/// Fills a tensor one `(t, n)` feature row at a time: each `live` feature
/// (ascending) of the row draws one word and fires when it falls under the
/// row's threshold for that feature (`thresholds(t, n)[i]` belongs to
/// `live[i]`). Features not in `live` draw nothing and stay silent.
///
/// The live features of one 64-feature word of the row are assembled in a
/// register and deposited into the plane with one OR (two when the word
/// straddles plane words), so the per-position work is one draw, one
/// compare and one shift.
fn fill_rows<'a, R: RngCore + ?Sized>(
    shape: TensorShape,
    live: &[usize],
    rng: &mut R,
    thresholds: impl Fn(usize, usize) -> &'a [u64],
) -> SpikeTensor {
    // `(row word, end)`: `live[previous end..end]` lie in that row word.
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for (i, &d) in live.iter().enumerate() {
        match runs.last_mut() {
            Some((word, end)) if *word == d / 64 => *end = i + 1,
            _ => runs.push((d / 64, i + 1)),
        }
    }
    SpikeTensor::from_plane_words(shape, |t, plane| {
        for n in 0..shape.tokens {
            let thresholds = thresholds(t, n);
            let row = n * shape.features;
            let mut start = 0;
            for &(word, end) in &runs {
                let mut bits = 0u64;
                for (&d, &threshold) in live[start..end].iter().zip(&thresholds[start..end]) {
                    let fired = (rng.next_u64() >> 11) < threshold;
                    bits |= u64::from(fired) << (d % 64);
                }
                start = end;
                let at = row + word * 64;
                let (index, shift) = (at / 64, at % 64);
                plane[index] |= bits << shift;
                if shift != 0 {
                    if let Some(next) = plane.get_mut(index + 1) {
                        *next |= bits >> (64 - shift);
                    }
                }
            }
        }
    })
}

/// Convenience: a purely Bernoulli trace with the given density (no feature
/// or spatiotemporal structure).
pub fn bernoulli_trace<R: Rng>(shape: TensorShape, density: f64, rng: &mut R) -> SpikeTensor {
    SpikeTraceGenerator::new(TraceProfile::new(density)).generate(shape, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2025)
    }

    #[test]
    fn bernoulli_density_is_close_to_target() {
        let shape = TensorShape::new(8, 64, 128);
        let trace = bernoulli_trace(shape, 0.25, &mut rng());
        assert!((trace.density() - 0.25).abs() < 0.02);
    }

    #[test]
    fn zero_density_means_no_spikes() {
        let shape = TensorShape::new(4, 16, 32);
        let trace = bernoulli_trace(shape, 0.0, &mut rng());
        assert_eq!(trace.count_ones(), 0);
    }

    #[test]
    fn full_density_means_all_spikes() {
        let shape = TensorShape::new(2, 8, 8);
        let trace = bernoulli_trace(shape, 1.0, &mut rng());
        assert_eq!(trace.count_ones(), shape.len());
    }

    #[test]
    fn feature_spread_creates_uneven_columns_but_keeps_mean() {
        let shape = TensorShape::new(10, 64, 64);
        let profile = TraceProfile::new(0.2).with_feature_spread(2.5);
        let trace = SpikeTraceGenerator::new(profile).generate(shape, &mut rng());
        assert!((trace.density() - 0.2).abs() < 0.05);
        let densities: Vec<f64> = (0..shape.features)
            .map(|d| trace.feature_density(d))
            .collect();
        let max = densities.iter().cloned().fold(0.0, f64::max);
        let min = densities.iter().cloned().fold(1.0, f64::min);
        assert!(
            max - min > 0.2,
            "expected a wide per-feature spread, got {min}..{max}"
        );
    }

    #[test]
    fn silent_features_are_really_silent() {
        let shape = TensorShape::new(6, 32, 64);
        let profile = TraceProfile::new(0.3).with_silent_features(0.5);
        let trace = SpikeTraceGenerator::new(profile).generate(shape, &mut rng());
        let silent = (0..shape.features)
            .filter(|&d| trace.feature_count(d) == 0)
            .count();
        assert!(
            silent >= shape.features / 4,
            "expected a large number of silent features, got {silent}"
        );
    }

    #[test]
    fn clustering_concentrates_spikes_into_blocks() {
        let shape = TensorShape::new(8, 32, 32);
        let clustered = SpikeTraceGenerator::new(TraceProfile::new(0.1).with_clustering(4, 8, 4.0))
            .generate(shape, &mut rng());
        let uniform = SpikeTraceGenerator::new(TraceProfile::new(0.1)).generate(shape, &mut rng());

        // Count how many 4x8 blocks (per feature) are completely empty; the
        // clustered trace should have clearly more empty blocks.
        let count_empty = |trace: &SpikeTensor| {
            let mut empty = 0usize;
            for d in 0..shape.features {
                for bt in 0..shape.timesteps / 4 {
                    for bn in 0..shape.tokens / 8 {
                        if trace.count_in_region((bt * 4, bt * 4 + 4), (bn * 8, bn * 8 + 8), d) == 0
                        {
                            empty += 1;
                        }
                    }
                }
            }
            empty
        };
        assert!(
            count_empty(&clustered) > count_empty(&uniform),
            "clustered trace should have more empty bundles"
        );
    }

    #[test]
    fn explicit_feature_densities_are_respected() {
        let shape = TensorShape::new(10, 50, 4);
        let generator = SpikeTraceGenerator::new(TraceProfile::new(0.5));
        let trace =
            generator.generate_with_feature_densities(shape, &[0.0, 0.1, 0.5, 0.9], &mut rng());
        assert_eq!(trace.feature_count(0), 0);
        assert!(trace.feature_density(3) > trace.feature_density(1));
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let shape = TensorShape::new(4, 16, 16);
        let generator = SpikeTraceGenerator::new(TraceProfile::new(0.3).with_feature_spread(1.0));
        let a = generator.generate(shape, &mut StdRng::seed_from_u64(1));
        let b = generator.generate(shape, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
    }

    #[test]
    fn bool_threshold_agrees_with_gen_bool() {
        // The vendored `gen_bool` is the definition; this pins the identity
        // against a change on either side, at the boundary probabilities and
        // one ulp either side of one half.
        let half = 0.5f64;
        let probabilities = [
            0.0,
            f64::from_bits(1),
            1.0 / UNIT_SCALE,
            f64::from_bits(half.to_bits() - 1),
            half,
            f64::from_bits(half.to_bits() + 1),
            1.0 - 1.0 / UNIT_SCALE,
            1.0,
        ];
        /// Hands `gen_bool` one chosen word.
        struct Word(u64);
        impl RngCore for Word {
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }

        let mut words = StdRng::seed_from_u64(0x7E57);
        for p in probabilities {
            let threshold = bool_threshold(p);
            // The words whose unit sample sits right at the threshold.
            let edges = [threshold.saturating_sub(1), threshold, threshold + 1]
                .into_iter()
                .filter(|&k| k < 1 << 53)
                .flat_map(|k| [k << 11, (k << 11) | 0x7FF]);
            let random = (0..100_000).map(|_| words.next_u64());
            for x in edges.chain(random) {
                assert_eq!(
                    (x >> 11) < threshold,
                    Word(x).gen_bool(p),
                    "p = {p:e}, x = {x:#x}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_density_is_rejected() {
        TraceProfile::new(1.5);
    }
}
