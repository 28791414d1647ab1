//! Dynamic batch formation.
//!
//! Requests are compatible when they ask for the same model, regime,
//! simulation options *and execution engine* — then their activation traces
//! can ride one Token-Time-Bundle stream on one substrate. The batch
//! dimension folds into the *timestep* axis: spiking self-attention is
//! computed independently per timestep, so `B` requests of `T` timesteps are
//! exactly one workload of `B·T` timesteps (rounded up to the bundle
//! timestep multiple `BSt`), and per-layer weight streaming plus pipeline
//! fill/drain are paid once per batch instead of once per request.

use std::collections::HashMap;
use std::sync::Arc;

use bishop_bundle::BundleShape;
use bishop_core::SimOptions;
use bishop_engine::{CatalogEntry, EngineBatch, EngineName};
use bishop_model::ModelConfig;

use crate::request::InferenceRequest;

/// Compatibility key: requests with equal keys may share a batch.
///
/// Keys embed the `Arc`-shared [`CatalogEntry`] (compared by content, so
/// separately-built but identical entries still coalesce — at the cost of
/// one refcount bump, not a `ModelConfig` clone) plus the full `SimOptions`
/// and the engine name, so new fields on any of them can never silently
/// coalesce incompatible requests.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BatchKey {
    entry: Arc<CatalogEntry>,
    regime: bishop_bundle::TrainingRegime,
    options: SimOptions,
    engine: EngineName,
    /// Exclusivity discriminator: `Some(request id)` for stateful
    /// (streaming/session) requests, whose membrane state is per-sequence
    /// and must never fold into a shared timestep axis. Distinct per
    /// request, so stateful requests always form singleton batches — even
    /// against an open compatible group.
    exclusive: Option<u64>,
}

impl From<&InferenceRequest> for BatchKey {
    fn from(request: &InferenceRequest) -> Self {
        Self {
            entry: Arc::clone(&request.entry),
            regime: request.regime,
            options: request.options,
            engine: request.engine.clone(),
            exclusive: request.stateful().then_some(request.id),
        }
    }
}

/// Items the [`BatchFormer`] can coalesce: anything wrapping (or being) an
/// [`InferenceRequest`]. The online submission path batches requests
/// *together with* their per-ticket completion channels, so the former is
/// generic over the carried item instead of hard-coding `InferenceRequest`.
pub trait Batchable {
    /// The underlying request driving compatibility and cost decisions.
    fn request(&self) -> &InferenceRequest;
}

impl Batchable for InferenceRequest {
    fn request(&self) -> &InferenceRequest {
        self
    }
}

/// Batch-former policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum number of requests coalesced into one batch. `1` disables
    /// batching (every request is served alone).
    pub max_batch_size: usize,
}

impl BatchPolicy {
    /// A policy batching up to `max_batch_size` requests.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch_size` is zero.
    pub fn new(max_batch_size: usize) -> Self {
        assert!(max_batch_size > 0, "batch size must be non-zero");
        Self { max_batch_size }
    }

    /// The no-batching policy (sequential single-request serving).
    pub fn sequential() -> Self {
        Self::new(1)
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self::new(8)
    }
}

/// A closed batch of compatible requests, ready for dispatch.
///
/// Generic over the carried item (see [`Batchable`]); plain traces use the
/// default `T = InferenceRequest`, the online path uses items that also
/// carry the per-ticket completion channel.
#[derive(Debug, Clone)]
pub struct RequestBatch<T = InferenceRequest> {
    /// Sequential batch identifier (assignment order = formation order).
    pub id: u64,
    /// The coalesced requests, in submission order.
    pub requests: Vec<T>,
}

impl<T: Batchable> RequestBatch<T> {
    /// Number of requests riding this batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the batch is empty (never true for formed batches).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Simulation options shared by every request of the batch.
    pub fn options(&self) -> SimOptions {
        self.requests[0].request().options
    }

    /// Engine name shared by every request of the batch.
    pub fn engine(&self) -> &EngineName {
        &self.requests[0].request().engine
    }

    /// The model configuration describing the whole batch: the members'
    /// configuration with the batch folded into the timestep axis, padded up
    /// to the bundle timestep multiple `BSt` so the packed TTB stream stays
    /// aligned.
    pub fn batched_config(&self, bundle: BundleShape) -> ModelConfig {
        let base = &self.requests[0].request().entry.config;
        let folded = base.timesteps * self.len();
        let padded = folded.div_ceil(bundle.timesteps) * bundle.timesteps;
        base.clone()
            .with_name(format!("{}[x{}]", base.name, self.len()))
            .with_timesteps(padded)
    }

    /// The substrate-neutral description of this batch handed to an
    /// [`InferenceEngine`](bishop_engine::InferenceEngine).
    pub fn engine_batch(&self, bundle: BundleShape) -> EngineBatch {
        EngineBatch {
            config: self.batched_config(bundle),
            regime: self.requests[0].request().regime,
            seed: self.combined_seed(),
            options: self.options(),
            batch_size: self.len(),
            batch_id: self.id,
        }
    }

    /// Deterministic seed of the batch's combined trace, folded from the
    /// member seeds in submission order.
    pub fn combined_seed(&self) -> u64 {
        self.requests.iter().fold(0x243F6A8885A308D3, |acc, r| {
            acc.rotate_left(17) ^ r.request().seed.wrapping_mul(0x9E3779B97F4A7C15)
        })
    }
}

/// Analytic dense-operation estimate of one workload configuration — the
/// admission controller's backlog estimate. Cheap (no trace synthesis): per
/// block, `P1 + P2 + MLP` contribute `T·N·D·(3D + D + 8·D)` accumulations
/// and attention contributes `2·T·N²·D`.
pub(crate) fn config_ops(c: &ModelConfig) -> u64 {
    let t = c.timesteps as u64;
    let n = c.tokens as u64;
    let d = c.features as u64;
    let projections = t * n * d * (3 * d + d + 2 * (c.mlp_hidden() as u64));
    let attention = 2 * t * n * n * d;
    c.blocks as u64 * (projections + attention)
}

/// Groups submitted requests into compatible batches.
///
/// The former is deliberately timing-free: batches depend only on the
/// submission *order*, never on arrival timing or worker count, so a given
/// trace always forms the same batches — the property the runtime's
/// determinism guarantee rests on.
#[derive(Debug)]
pub struct BatchFormer<T = InferenceRequest> {
    policy: BatchPolicy,
    pending: HashMap<BatchKey, Vec<T>>,
    insertion_order: Vec<BatchKey>,
    next_batch_id: u64,
    batch_id_stride: u64,
}

impl<T: Batchable> BatchFormer<T> {
    /// Creates an empty former with the given policy, assigning batch ids
    /// `0, 1, 2, …`.
    pub fn new(policy: BatchPolicy) -> Self {
        Self::with_ids(policy, 0, 1)
    }

    /// Creates an empty former assigning batch ids `first_id, first_id +
    /// stride, first_id + 2·stride, …`. The per-engine scheduling domains
    /// each run their own former with `first_id` = the domain index and
    /// `stride` = the domain count, so batch ids stay globally unique *and*
    /// deterministic (each domain's formation order is deterministic given
    /// its submission order) without any cross-domain coordination.
    pub fn with_ids(policy: BatchPolicy, first_id: u64, stride: u64) -> Self {
        Self {
            policy,
            pending: HashMap::new(),
            insertion_order: Vec::new(),
            next_batch_id: first_id,
            batch_id_stride: stride.max(1),
        }
    }

    /// Accepts one request; returns a batch if this request filled one.
    ///
    /// Closed keys are removed entirely — the former's footprint is bounded
    /// by the *open* (partially-filled) batches, never by how many distinct
    /// keys it has ever seen. That matters for the long-lived online
    /// domain queue, where the key space (model × options × engine) is
    /// client-controlled.
    pub fn push(&mut self, request: T) -> Option<RequestBatch<T>> {
        self.push_capped(request, usize::MAX)
    }

    /// Like [`push`](Self::push), but closes the batch at
    /// `min(policy.max_batch_size, max_batch_size)` requests. The online
    /// domain queue derives the cap from the target engine's folded-timestep
    /// limit, so coalescing can never build a batch the engine is known to
    /// refuse (each rider alone being executable).
    pub fn push_capped(&mut self, request: T, max_batch_size: usize) -> Option<RequestBatch<T>> {
        let effective = self.policy.max_batch_size.min(max_batch_size).max(1);
        let key = BatchKey::from(request.request());
        let slot = match self.pending.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(entry) => entry.into_mut(),
            std::collections::hash_map::Entry::Vacant(entry) => {
                self.insertion_order.push(key.clone());
                entry.insert(Vec::new())
            }
        };
        slot.push(request);
        if slot.len() >= effective {
            self.close_key(&key)
        } else {
            None
        }
    }

    /// Number of requests currently pending under `key`.
    pub fn pending_count(&self, key: &BatchKey) -> usize {
        self.pending.get(key).map_or(0, Vec::len)
    }

    /// Total number of requests waiting in partially-filled batches.
    pub fn pending_requests(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }

    /// Number of currently open (partially-filled) batches.
    pub fn open_batches(&self) -> usize {
        self.pending.len()
    }

    /// Closes the partially-filled batch pending under `key`, if any, and
    /// forgets the key. Used by the online domain queue's size-*or-timeout*
    /// policy: a batch whose oldest member has waited past the timeout is
    /// closed early.
    pub fn close_key(&mut self, key: &BatchKey) -> Option<RequestBatch<T>> {
        let requests = self.pending.remove(key)?;
        self.insertion_order.retain(|k| k != key);
        if requests.is_empty() {
            None
        } else {
            Some(self.close(requests))
        }
    }

    /// Closes every partially-filled batch, in first-submission order.
    pub fn flush(&mut self) -> Vec<RequestBatch<T>> {
        let mut batches = Vec::new();
        for key in std::mem::take(&mut self.insertion_order) {
            if let Some(requests) = self.pending.remove(&key) {
                if !requests.is_empty() {
                    batches.push(self.close(requests));
                }
            }
        }
        batches
    }

    fn close(&mut self, requests: Vec<T>) -> RequestBatch<T> {
        let id = self.next_batch_id;
        self.next_batch_id += self.batch_id_stride;
        RequestBatch { id, requests }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_bundle::TrainingRegime;
    use bishop_model::DatasetKind;

    fn entry(name: &str) -> Arc<CatalogEntry> {
        CatalogEntry::new(
            ModelConfig::new(name, DatasetKind::Cifar10, 1, 4, 16, 32, 2),
            TrainingRegime::Bsa,
            SimOptions::baseline(),
        )
    }

    fn request(id: u64, name: &str, seed: u64, options: SimOptions) -> InferenceRequest {
        InferenceRequest::new(id, entry(name), seed).with_options(options)
    }

    #[test]
    fn compatible_requests_coalesce_up_to_the_policy_limit() {
        let mut former = BatchFormer::new(BatchPolicy::new(3));
        assert!(former
            .push(request(0, "m", 1, SimOptions::baseline()))
            .is_none());
        assert!(former
            .push(request(1, "m", 2, SimOptions::baseline()))
            .is_none());
        let batch = former
            .push(request(2, "m", 3, SimOptions::baseline()))
            .expect("third compatible request closes the batch");
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.id, 0);
        let ids: Vec<u64> = batch.requests.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn incompatible_requests_do_not_coalesce() {
        let mut former = BatchFormer::new(BatchPolicy::new(2));
        // Different model, options, regime, engine: five distinct keys.
        assert!(former
            .push(request(0, "a", 1, SimOptions::baseline()))
            .is_none());
        assert!(former
            .push(request(1, "b", 1, SimOptions::baseline()))
            .is_none());
        assert!(former
            .push(request(2, "a", 1, SimOptions::with_ecp(6)))
            .is_none());
        let other_regime =
            request(3, "a", 1, SimOptions::baseline()).with_regime(TrainingRegime::Baseline);
        assert!(former.push(other_regime).is_none());
        let other_engine =
            request(4, "a", 1, SimOptions::baseline()).with_engine(EngineName::native());
        assert!(former.push(other_engine).is_none());
        let batches = former.flush();
        assert_eq!(batches.len(), 5, "five incompatible singleton batches");
        assert!(batches.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn flush_preserves_first_submission_order() {
        let mut former = BatchFormer::new(BatchPolicy::new(8));
        former.push(request(0, "z", 1, SimOptions::baseline()));
        former.push(request(1, "a", 1, SimOptions::baseline()));
        former.push(request(2, "z", 2, SimOptions::baseline()));
        let batches = former.flush();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].requests[0].model().name, "z");
        assert_eq!(batches[0].len(), 2);
        assert_eq!(batches[1].requests[0].model().name, "a");
    }

    #[test]
    fn batched_config_folds_timesteps_with_bundle_padding() {
        let mut former = BatchFormer::new(BatchPolicy::new(3));
        former.push(request(0, "m", 1, SimOptions::baseline()));
        former.push(request(1, "m", 2, SimOptions::baseline()));
        let batch = former
            .push(request(2, "m", 3, SimOptions::baseline()))
            .unwrap();
        // 3 requests x T=4 = 12 timesteps; BSt=8 pads to 16.
        let config = batch.batched_config(BundleShape::new(8, 4));
        assert_eq!(config.timesteps, 16);
        assert_eq!(config.tokens, 16, "token axis is untouched");
        assert!(config.name.contains("[x3]"));
        // The engine-facing description carries the same fold.
        let engine_batch = batch.engine_batch(BundleShape::new(8, 4));
        assert_eq!(engine_batch.config, config);
        assert_eq!(engine_batch.batch_size, 3);
        assert_eq!(engine_batch.seed, batch.combined_seed());
    }

    #[test]
    fn combined_seed_depends_on_members_and_order() {
        let mut a = BatchFormer::new(BatchPolicy::new(2));
        a.push(request(0, "m", 1, SimOptions::baseline()));
        let ab = a.push(request(1, "m", 2, SimOptions::baseline())).unwrap();
        let mut b = BatchFormer::new(BatchPolicy::new(2));
        b.push(request(0, "m", 2, SimOptions::baseline()));
        let ba = b.push(request(1, "m", 1, SimOptions::baseline())).unwrap();
        assert_ne!(ab.combined_seed(), ba.combined_seed());

        let mut c = BatchFormer::new(BatchPolicy::new(2));
        c.push(request(5, "m", 1, SimOptions::baseline()));
        let cab = c.push(request(9, "m", 2, SimOptions::baseline())).unwrap();
        assert_eq!(
            ab.combined_seed(),
            cab.combined_seed(),
            "seed folds member seeds, not request ids"
        );
    }

    #[test]
    fn closed_keys_are_forgotten_entirely() {
        // Regression: closing a batch used to leave an empty slot (and an
        // insertion-order entry) behind per distinct key — unbounded growth
        // in a long-lived domain queue whose key space clients control.
        let mut former = BatchFormer::new(BatchPolicy::new(2));
        for i in 0..100u64 {
            // 100 distinct keys via distinct ECP thresholds, two pushes each.
            former.push(request(2 * i, "m", 1, SimOptions::with_ecp(i as u32)));
            let closed = former.push(request(2 * i + 1, "m", 2, SimOptions::with_ecp(i as u32)));
            assert!(closed.is_some(), "second compatible push closes the batch");
        }
        assert_eq!(former.open_batches(), 0);
        assert_eq!(former.pending_requests(), 0);
        assert!(former.flush().is_empty());

        // Same via the explicit close path.
        former.push(request(200, "m", 1, SimOptions::baseline()));
        let key = BatchKey::from(&request(201, "m", 1, SimOptions::baseline()));
        assert!(former.close_key(&key).is_some());
        assert_eq!(former.open_batches(), 0);
    }

    #[test]
    fn close_key_forgets_client_controlled_keys_without_filling_batches() {
        // The timeout path closes batches via `close_key` long before they
        // fill. A hostile (or merely diverse) client population churning
        // through distinct keys must leave no residue behind — neither a
        // pending slot nor an insertion-order entry per retired key.
        let mut former = BatchFormer::new(BatchPolicy::new(64));
        for i in 0..500u64 {
            let singleton = request(i, "m", i, SimOptions::with_ecp(i as u32));
            let key = BatchKey::from(&singleton);
            assert!(former.push(singleton).is_none(), "far below the size cap");
            let closed = former.close_key(&key).expect("one pending request");
            assert_eq!(closed.len(), 1);
            assert_eq!(former.pending_count(&key), 0, "key {i} was not forgotten");
            assert_eq!(former.open_batches(), 0);
            assert_eq!(former.pending_requests(), 0);
        }
        // Closing an already-forgotten key is a no-op, not a phantom batch.
        let key = BatchKey::from(&request(0, "m", 0, SimOptions::with_ecp(0)));
        assert!(former.close_key(&key).is_none());
        assert!(former.flush().is_empty());
    }

    #[test]
    fn strided_ids_interleave_across_formers() {
        // Two domain formers over a 3-domain layout: ids never collide and
        // each former's sequence is deterministic.
        let mut a = BatchFormer::with_ids(BatchPolicy::new(1), 0, 3);
        let mut b = BatchFormer::with_ids(BatchPolicy::new(1), 1, 3);
        let a_ids: Vec<u64> = (0..3)
            .map(|i| {
                a.push(request(i, "m", i, SimOptions::baseline()))
                    .expect("singleton closes")
                    .id
            })
            .collect();
        let b_ids: Vec<u64> = (0..3)
            .map(|i| {
                b.push(request(i, "m", i, SimOptions::baseline()))
                    .expect("singleton closes")
                    .id
            })
            .collect();
        assert_eq!(a_ids, vec![0, 3, 6]);
        assert_eq!(b_ids, vec![1, 4, 7]);
    }

    #[test]
    fn estimated_ops_grow_with_batch_size() {
        let mut former = BatchFormer::new(BatchPolicy::new(4));
        former.push(request(0, "m", 1, SimOptions::baseline()));
        let singles = former.flush();
        let ops = |batch: &RequestBatch| config_ops(&batch.batched_config(BundleShape::default()));
        let single_ops = ops(&singles[0]);

        let mut former = BatchFormer::new(BatchPolicy::new(4));
        let mut closed = None;
        for i in 0..4 {
            closed = former.push(request(i, "m", i, SimOptions::baseline()));
        }
        let batch = closed.expect("fourth push fills the batch");
        assert!(ops(&batch) >= 4 * single_ops);
    }
}
