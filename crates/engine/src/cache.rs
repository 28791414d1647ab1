//! Memoizing caches for workload synthesis and batch simulation.
//!
//! Building a [`ModelWorkload`] is the most expensive step of serving a
//! request: every layer's spike trace is synthesized from the dataset
//! calibration. Traffic is heavily repetitive — retries, replays and
//! identically-seeded batches recur — so the runtime memoizes synthesis in a
//! [`CalibrationCache`] keyed on `(ModelConfig, TrainingRegime, seed)`, and,
//! because the simulator is a pure function of `(workload, options)`, whole
//! batch results in a [`ResultCache`] one level above it.
//!
//! Both caches build each key exactly once: a lookup racing an in-flight
//! build blocks on it and is counted as a hit. This keeps the hit/miss
//! counters deterministic for a given traffic trace no matter how many
//! workers hammer the caches concurrently — the runtime's determinism
//! guarantee includes the cache statistics it reports. Both caches are also
//! bounded (FIFO eviction of the oldest completed entry) so a long-lived
//! server cannot grow without limit; note that *when the working set
//! exceeds the bound*, eviction order — and therefore the hit/miss split —
//! can vary with worker timing.
//!
//! The bounds are memory budgets, not hit-rate targets. Under unique-seed
//! traffic neither cache ever hits, so what a bound buys is only the
//! resident set it pins: a cache fills at the rate requests arrive, and a
//! process's peak RSS then tracks how many requests it has served until the
//! bound is reached. [`DEFAULT_WORKLOAD_CAPACITY`] says why the workload
//! bound is small.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

use bishop_bundle::{DatasetCalibration, TrainingRegime};
use bishop_core::{RunMetrics, SimOptions};
use bishop_model::{ModelConfig, ModelWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default entry bound of a [`CalibrationCache`].
///
/// Full workloads are the largest objects the runtime holds: about 160 KB
/// each for a serving-scale model at T = 8, so 256 entries pinned some
/// 41 MB plus the heap fragmentation their churn leaves behind. The bound
/// is sized to what reuse the cache actually gets, not to the request
/// rate: unique-seed traffic never hits it, and a miss re-synthesises a
/// workload in about a millisecond. 64 entries still cover reuse of a
/// seed within a burst — the same workload simulated by another
/// accelerator engine or under other ECP options. The result cache one
/// level up keeps its larger bound ([`DEFAULT_RESULT_CAPACITY`]); its
/// entries are per-layer metric vectors.
pub const DEFAULT_WORKLOAD_CAPACITY: usize = 64;

/// Default entry bound of a [`ResultCache`] (per-layer metric vectors;
/// much smaller than workloads).
pub const DEFAULT_RESULT_CAPACITY: usize = 4096;

/// Cache key of one synthesized workload.
///
/// Keys embed the full [`ModelConfig`] (which is `Eq + Hash`) rather than a
/// mirrored subset of its fields, so new configuration fields can never
/// silently alias cache entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkloadKey {
    /// The model configuration.
    pub config: ModelConfig,
    /// The training regime the trace statistics come from.
    pub regime: TrainingRegime,
    /// The trace seed.
    pub seed: u64,
}

impl WorkloadKey {
    /// Builds the key for `(config, regime, seed)`.
    pub fn new(config: &ModelConfig, regime: TrainingRegime, seed: u64) -> Self {
        Self {
            config: config.clone(),
            regime,
            seed,
        }
    }
}

/// Cache key of one simulated batch: the workload plus the full simulation
/// options that shaped the run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// The workload identity.
    pub workload: WorkloadKey,
    /// The simulation options applied.
    pub options: SimOptions,
}

/// Hit/miss counters of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of lookups answered from the cache (including lookups that
    /// waited on an in-flight build of the same key).
    pub hits: u64,
    /// Number of lookups that had to build the value.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference `self - earlier` (for per-run accounting on a
    /// long-lived cache).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

#[derive(Debug)]
enum Slot<V> {
    /// A thread is building this value.
    Building,
    /// The value is available.
    Ready(Arc<V>),
}

#[derive(Debug)]
struct OnceMapState<K, V> {
    entries: HashMap<K, Slot<V>>,
    /// Completed keys in insertion order (eviction order).
    order: VecDeque<K>,
    hits: u64,
    misses: u64,
}

/// A bounded, concurrent, build-each-key-exactly-once memoization map. The
/// map lock is not held while building, so distinct keys build in parallel;
/// lookups of a key under construction block until it is ready and count as
/// hits. When the number of completed entries exceeds `capacity`, the oldest
/// completed entry is evicted (in-flight builds are never evicted).
///
/// Crate-visible so other engines (e.g. the native backend's weight cache)
/// can reuse the build-once semantics without re-deriving them.
#[derive(Debug)]
pub(crate) struct OnceMap<K, V> {
    state: Mutex<OnceMapState<K, V>>,
    ready: Condvar,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> OnceMap<K, V> {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            state: Mutex::new(OnceMapState {
                entries: HashMap::new(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        {
            let mut state = self.state.lock().expect("cache lock");
            loop {
                match state.entries.get(&key) {
                    Some(Slot::Ready(value)) => {
                        let value = Arc::clone(value);
                        state.hits += 1;
                        return value;
                    }
                    Some(Slot::Building) => {
                        state = self.ready.wait(state).expect("cache lock");
                    }
                    None => {
                        state.entries.insert(key.clone(), Slot::Building);
                        state.misses += 1;
                        break;
                    }
                }
            }
        }

        // If `build` panics, the guard removes the Building slot and wakes
        // every waiter so they retry (or observe the panic in their own
        // build) instead of blocking forever on an orphaned reservation.
        let mut guard = BuildGuard {
            map: self,
            key: Some(key.clone()),
        };
        let value = Arc::new(build());
        let mut state = self.state.lock().expect("cache lock");
        guard.key = None;
        state
            .entries
            .insert(key.clone(), Slot::Ready(Arc::clone(&value)));
        state.order.push_back(key);
        while state.order.len() > self.capacity {
            if let Some(oldest) = state.order.pop_front() {
                state.entries.remove(&oldest);
            }
        }
        drop(state);
        self.ready.notify_all();
        value
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let state = self.state.lock().expect("cache lock");
        CacheStats {
            hits: state.hits,
            misses: state.misses,
        }
    }

    fn len(&self) -> usize {
        self.state.lock().expect("cache lock").entries.len()
    }

    fn clear(&self) {
        let mut state = self.state.lock().expect("cache lock");
        // Keep in-flight reservations: their builders will insert Ready
        // entries when they finish.
        state
            .entries
            .retain(|_, slot| matches!(slot, Slot::Building));
        state.order.clear();
    }
}

/// Removes an orphaned `Building` reservation if the build panics.
struct BuildGuard<'a, K: Eq + Hash + Clone, V> {
    map: &'a OnceMap<K, V>,
    key: Option<K>,
}

impl<K: Eq + Hash + Clone, V> Drop for BuildGuard<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            // The build closure runs without the map lock held, so the lock
            // cannot be poisoned by the panic unwinding through us.
            if let Ok(mut state) = self.map.state.lock() {
                state.entries.remove(&key);
            }
            self.map.ready.notify_all();
        }
    }
}

/// Thread-safe memoizing store of synthesized workloads.
#[derive(Debug)]
pub struct CalibrationCache {
    map: OnceMap<WorkloadKey, ModelWorkload>,
}

impl Default for CalibrationCache {
    fn default() -> Self {
        Self::bounded(DEFAULT_WORKLOAD_CAPACITY)
    }
}

impl CalibrationCache {
    /// Creates a cache with the default entry bound
    /// ([`DEFAULT_WORKLOAD_CAPACITY`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache evicting (FIFO) beyond `capacity` entries.
    pub fn bounded(capacity: usize) -> Self {
        Self {
            map: OnceMap::with_capacity(capacity),
        }
    }

    /// Returns the workload for `(config, regime, seed)`, synthesizing and
    /// memoizing it on first use.
    pub fn get_or_build(
        &self,
        config: &ModelConfig,
        regime: TrainingRegime,
        seed: u64,
    ) -> Arc<ModelWorkload> {
        self.map
            .get_or_build(WorkloadKey::new(config, regime, seed), || {
                synthesize(config, regime, seed)
            })
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.map.stats()
    }

    /// Number of memoized (or in-flight) workloads.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized workload (counters are kept).
    pub fn clear(&self) {
        self.map.clear()
    }
}

/// Thread-safe memoizing store of simulated batch results.
///
/// The simulator is deterministic: identical `(workload, options)` pairs
/// produce identical [`RunMetrics`]. Replayed or retried batches therefore
/// skip simulation entirely — the serving-path analogue of an idempotent
/// response cache.
#[derive(Debug)]
pub struct ResultCache {
    map: OnceMap<ResultKey, RunMetrics>,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::bounded(DEFAULT_RESULT_CAPACITY)
    }
}

impl ResultCache {
    /// Creates a cache with the default entry bound
    /// ([`DEFAULT_RESULT_CAPACITY`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache evicting (FIFO) beyond `capacity` entries.
    pub fn bounded(capacity: usize) -> Self {
        Self {
            map: OnceMap::with_capacity(capacity),
        }
    }

    /// Returns the metrics for `key`, running `simulate` and memoizing the
    /// result on first use.
    pub fn get_or_simulate(
        &self,
        key: ResultKey,
        simulate: impl FnOnce() -> RunMetrics,
    ) -> Arc<RunMetrics> {
        self.map.get_or_build(key, simulate)
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.map.stats()
    }

    /// Number of memoized (or in-flight) results.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized result (counters are kept).
    pub fn clear(&self) {
        self.map.clear()
    }
}

/// Builds a calibrated workload: the dataset's [`DatasetCalibration`] picks
/// the trace statistics for `regime`, and `seed` drives the deterministic
/// trace synthesis.
pub fn synthesize(config: &ModelConfig, regime: TrainingRegime, seed: u64) -> ModelWorkload {
    let calibration = DatasetCalibration::for_model(config);
    let spec = calibration.spec(regime);
    let mut rng = StdRng::seed_from_u64(seed);
    ModelWorkload::synthetic(config, spec, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_model::DatasetKind;

    fn config() -> ModelConfig {
        ModelConfig::new("cache-test", DatasetKind::Cifar10, 1, 2, 16, 32, 2)
    }

    #[test]
    fn second_identical_request_hits_the_cache() {
        let cache = CalibrationCache::new();
        let first = cache.get_or_build(&config(), TrainingRegime::Bsa, 7);
        let second = cache.get_or_build(&config(), TrainingRegime::Bsa, 7);
        assert!(
            Arc::ptr_eq(&first, &second),
            "second lookup must reuse the entry"
        );
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_seed_regime_or_config_miss() {
        let cache = CalibrationCache::new();
        cache.get_or_build(&config(), TrainingRegime::Bsa, 7);
        cache.get_or_build(&config(), TrainingRegime::Bsa, 8);
        cache.get_or_build(&config(), TrainingRegime::Baseline, 7);
        cache.get_or_build(&config().with_timesteps(4), TrainingRegime::Bsa, 7);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 4 });
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn concurrent_same_key_lookups_build_once() {
        let cache = Arc::new(CalibrationCache::new());
        let results: Vec<Arc<ModelWorkload>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    scope.spawn(move || cache.get_or_build(&config(), TrainingRegime::Bsa, 3))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        for pair in results.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 7, misses: 1 },
            "exactly one build regardless of racing lookups"
        );
    }

    #[test]
    fn result_cache_skips_repeat_simulation() {
        let cache = ResultCache::new();
        let key = ResultKey {
            workload: WorkloadKey::new(&config(), TrainingRegime::Bsa, 5),
            options: SimOptions::with_ecp(6),
        };
        let mut simulations = 0;
        for _ in 0..3 {
            cache.get_or_simulate(key.clone(), || {
                simulations += 1;
                RunMetrics::new("test", 500e6)
            });
        }
        assert_eq!(simulations, 1, "only the first lookup simulates");
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1 });
        // Different options are a different result.
        let other = ResultKey {
            options: SimOptions::baseline(),
            ..key
        };
        cache.get_or_simulate(other, || RunMetrics::new("test", 500e6));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn bounded_cache_evicts_oldest_first() {
        let cache = CalibrationCache::bounded(2);
        cache.get_or_build(&config(), TrainingRegime::Bsa, 1);
        cache.get_or_build(&config(), TrainingRegime::Bsa, 2);
        cache.get_or_build(&config(), TrainingRegime::Bsa, 3); // evicts seed 1
        assert_eq!(cache.len(), 2);
        // Seed 1 was evicted: this lookup is a miss again.
        cache.get_or_build(&config(), TrainingRegime::Bsa, 1);
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 0, misses: 4 },
            "evicted entries rebuild"
        );
        // Seed 3 survived (it was newer).
        cache.get_or_build(&config(), TrainingRegime::Bsa, 3);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = CalibrationCache::new();
        cache.get_or_build(&config(), TrainingRegime::Bsa, 1);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        cache.get_or_build(&config(), TrainingRegime::Bsa, 1);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn panicking_build_releases_waiters() {
        let cache = Arc::new(ResultCache::new());
        let key = ResultKey {
            workload: WorkloadKey::new(&config(), TrainingRegime::Bsa, 9),
            options: SimOptions::baseline(),
        };
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_simulate(key.clone(), || panic!("synthetic build failure"));
        }));
        assert!(panicked.is_err());
        // The reservation is gone: a second lookup builds successfully
        // instead of deadlocking on an orphaned Building slot.
        let metrics = cache.get_or_simulate(key, || RunMetrics::new("recovered", 500e6));
        assert_eq!(metrics.accelerator, "recovered");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = synthesize(&config(), TrainingRegime::Baseline, 42);
        let b = synthesize(&config(), TrainingRegime::Baseline, 42);
        assert_eq!(a, b);
        let c = synthesize(&config(), TrainingRegime::Baseline, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn stats_since_diffs_counters() {
        let before = CacheStats { hits: 2, misses: 5 };
        let after = CacheStats { hits: 6, misses: 7 };
        assert_eq!(after.since(&before), CacheStats { hits: 4, misses: 2 });
        assert!((CacheStats { hits: 3, misses: 1 }.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
