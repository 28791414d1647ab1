//! Deadline-aware engine autoselection.
//!
//! A request submitted with [`EngineName::auto`] does not name a substrate;
//! the dispatcher resolves one at admission time from the per-engine
//! scheduling state: it walks the auto-eligible engines in preference order
//! (most-preferred first — `native` before `simulator` by default, so
//! requests get real execution whenever their budget allows it), skips
//! engines whose descriptor cannot execute the request profile at all, and
//! picks the first whose **predicted completion** — the domain's queued
//! backlog plus the request's own cost, divided by the engine's calibrated
//! [`DrainRate`](super::calibration::DrainRate) — fits the request's
//! deadline. A deadline no eligible engine can meet sheds the request with
//! the typed [`Rejection::NoEngineMeetsDeadline`](super::Rejection), before
//! it consumes a queue slot anywhere.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use bishop_engine::{EngineDescriptor, EngineName};
use bishop_obs::{ObsHub, RouterCandidate, RouterDecision, RouterVerdict};

use crate::request::InferenceRequest;

use super::breaker::BreakerAdmit;
use super::calibration::EngineCells;
use super::domain::log_breaker_transition;
use super::Rejection;

/// One resolvable engine: its identity and descriptor and the scheduling
/// cells of the domain serving it (whose backlog is this engine's alone).
#[derive(Debug)]
pub(crate) struct EngineEntry {
    pub(crate) name: EngineName,
    pub(crate) descriptor: EngineDescriptor,
    pub(crate) cells: Arc<EngineCells>,
}

/// Predicted seconds until a request submitted *now* completes on an
/// engine: everything already queued ahead of it in the engine's domain
/// plus its own cost, drained at the engine's calibrated rate.
pub(crate) fn predicted_completion_seconds(
    domain_backlog_ops: u64,
    request_ops: u64,
    drain_ops_per_second: f64,
) -> f64 {
    (domain_backlog_ops as f64 + request_ops as f64) / drain_ops_per_second.max(1.0)
}

/// Resolves an `"auto"` request to the index (into `entries`) of the
/// most-preferred eligible engine whose predicted completion meets the
/// deadline. Without a deadline every eligible engine qualifies, so the
/// most-preferred one wins outright.
///
/// Alongside the outcome, returns the full [`RouterDecision`] record:
/// every candidate actually considered (in preference order, up to and
/// including the chosen one) with the predicted completion it was judged
/// on — the evidence a trace needs to explain *why* this request landed
/// where it did, or why it was shed.
pub(crate) fn select_engine(
    entries: &[EngineEntry],
    auto_order: &[usize],
    request: &InferenceRequest,
    estimated_ops: u64,
    deadline: Option<Duration>,
    obs: &ObsHub,
) -> (Result<usize, Rejection>, RouterDecision) {
    let mut candidates = Vec::with_capacity(auto_order.len());
    let mut any_supports = false;
    let mut any_admitted = false;
    let mut skipped_eligible = false;
    let mut chosen = None;
    for &index in auto_order {
        let entry = &entries[index];
        // Never route onto an engine the descriptor says would refuse the
        // profile (ECP on a non-ECP engine, oversized fold): a typed
        // refusal after dispatch would waste the queue slot the request
        // was admitted into.
        let eligible = entry
            .descriptor
            .supports_model(request.model(), &request.options);
        if !eligible {
            candidates.push(RouterCandidate {
                engine: entry.name.as_str().to_string(),
                eligible: false,
                predicted_seconds: None,
                meets_deadline: None,
                breaker_open: false,
            });
            continue;
        }
        any_supports = true;
        // Health-aware degradation: an engine whose breaker refuses
        // admission is passed over exactly like a deadline miss — the next
        // candidate absorbs the traffic instead of the client seeing a
        // 5xx. (An open breaker past its cooldown flips to half-open here,
        // so auto traffic is what probes a recovering engine.)
        let (admit, transition) = entry.cells.breaker.admit();
        if let Some(transition) = transition {
            log_breaker_transition(obs, entry.name.as_str(), transition);
        }
        if let BreakerAdmit::Shed { .. } = admit {
            candidates.push(RouterCandidate {
                engine: entry.name.as_str().to_string(),
                eligible: true,
                predicted_seconds: None,
                meets_deadline: None,
                breaker_open: true,
            });
            skipped_eligible = true;
            continue;
        }
        any_admitted = true;
        let (predicted, meets) = match deadline {
            // No deadline: nothing to predict — the most-preferred
            // eligible engine wins outright.
            None => (None, None),
            Some(deadline) => {
                let predicted = predicted_completion_seconds(
                    entry.cells.backlog_ops.load(Ordering::Acquire),
                    estimated_ops,
                    entry.cells.drain.ops_per_second(),
                );
                (Some(predicted), Some(predicted <= deadline.as_secs_f64()))
            }
        };
        candidates.push(RouterCandidate {
            engine: entry.name.as_str().to_string(),
            eligible: true,
            predicted_seconds: predicted,
            meets_deadline: meets,
            breaker_open: false,
        });
        if meets != Some(false) {
            chosen = Some(index);
            break;
        }
        skipped_eligible = true;
    }

    // Three distinct sheds: a profile no candidate can execute is permanent
    // (retrying cannot help — the client must change the request); a
    // deadline no candidate meets is load-transient; every eligible
    // candidate breaker-blocked is health-transient (retry after the
    // breakers' cooldown).
    let outcome = match chosen {
        Some(index) => Ok(index),
        None if any_admitted => Err(Rejection::NoEngineMeetsDeadline),
        None if any_supports => Err(Rejection::EngineUnavailable),
        None => Err(Rejection::NoEngineSupportsRequest),
    };
    let verdict = match &outcome {
        Ok(index) => RouterVerdict::Chosen {
            engine: entries[*index].name.as_str().to_string(),
            // Degraded: a more-preferred eligible engine was passed over
            // because its predicted completion missed the deadline.
            degraded: skipped_eligible,
        },
        Err(rejection) => RouterVerdict::Shed {
            reason: rejection.code().to_string(),
        },
    };
    let decision = RouterDecision {
        deadline_seconds: deadline.map(|d| d.as_secs_f64()),
        candidates,
        verdict,
    };
    (outcome, decision)
}

#[cfg(test)]
mod tests {
    use super::super::breaker::BreakerConfig;
    use super::super::retry::RetryPolicy;
    use super::*;
    use bishop_core::SimOptions;
    use bishop_engine::{CatalogEntry, EngineSubstrate};
    use bishop_model::{DatasetKind, ModelConfig};
    use bishop_obs::assert_verdict;

    fn entry(name: &str, seed_rate: f64, supports_ecp: bool) -> EngineEntry {
        let cells = Arc::new(EngineCells::new(
            EngineName::from(name),
            seed_rate,
            BreakerConfig::default(),
            &RetryPolicy::default(),
        ));
        let descriptor = EngineDescriptor {
            name: if name == "native" {
                "native"
            } else {
                "simulator"
            },
            substrate: EngineSubstrate::HostCpu,
            supports_ecp,
            deterministic: true,
            measures_wall_clock: false,
            max_folded_timesteps: None,
            supports_streaming: false,
            seed_drain_ops_per_second: seed_rate,
            simd_tier: None,
            description: "test",
        };
        EngineEntry {
            name: EngineName::from(name),
            descriptor,
            cells,
        }
    }

    fn request(options: SimOptions) -> InferenceRequest {
        let entry = CatalogEntry::new(
            ModelConfig::new("m", DatasetKind::Cifar10, 1, 4, 16, 32, 2),
            bishop_bundle::TrainingRegime::Bsa,
            options,
        );
        InferenceRequest::new(0, entry, 1).with_engine(EngineName::auto())
    }

    #[test]
    fn prefers_the_first_engine_that_meets_the_deadline() {
        let entries = [entry("native", 1e3, false), entry("simulator", 1e12, true)];
        let request = request(SimOptions::baseline());
        let ops = 1_000_000;

        let obs = ObsHub::default();
        // No deadline: most-preferred (first) engine wins.
        let chosen = select_engine(&entries, &[0, 1], &request, ops, None, &obs)
            .0
            .expect("eligible");
        assert_eq!(chosen, 0);
        // Tight deadline: 1e6 ops at 1e3 ops/s is 1000 s — the slow engine
        // cannot meet 1 ms, the fast one predicts 1 µs and wins.
        let (outcome, decision) = select_engine(
            &entries,
            &[0, 1],
            &request,
            ops,
            Some(Duration::from_millis(1)),
            &obs,
        );
        assert_eq!(outcome.expect("fast engine fits"), 1);
        // The decision record captures both candidates, the miss and the
        // hit, and flags the choice as degraded (a more-preferred engine
        // was passed over for deadline reasons).
        assert_eq!(decision.candidates.len(), 2);
        assert_eq!(decision.candidates[0].meets_deadline, Some(false));
        assert_eq!(decision.candidates[1].meets_deadline, Some(true));
        assert_verdict!(decision.verdict, chosen = "simulator", degraded = true);
        // Loose deadline: the slow-but-preferred engine fits again, and the
        // walk stops at it — only one candidate is recorded, undegraded.
        let (outcome, decision) = select_engine(
            &entries,
            &[0, 1],
            &request,
            ops,
            Some(Duration::from_secs(2000)),
            &obs,
        );
        assert_eq!(outcome.expect("slow engine fits"), 0);
        assert_eq!(decision.candidates.len(), 1);
        assert_eq!(decision.verdict.label(), "chosen");
        assert_eq!(decision.verdict.engine_label(), "native");
    }

    #[test]
    fn sheds_when_no_engine_meets_the_deadline() {
        let entries = [entry("native", 1.0, false)];
        let (outcome, decision) = select_engine(
            &entries,
            &[0],
            &request(SimOptions::baseline()),
            1_000_000,
            Some(Duration::from_millis(1)),
            &ObsHub::default(),
        );
        assert_eq!(outcome, Err(Rejection::NoEngineMeetsDeadline));
        // The shed verdict carries the same wire code the client sees.
        assert_eq!(decision.verdict.label(), "shed");
        assert_eq!(decision.verdict.engine_label(), "none");
        assert_verdict!(decision.verdict, shed = "no_engine_meets_deadline");
    }

    #[test]
    fn skips_engines_that_cannot_execute_the_profile() {
        // ECP request: the non-ECP preferred engine is ineligible even with
        // no deadline; the ECP-capable one is chosen.
        let entries = [entry("native", 1e12, false), entry("simulator", 1e12, true)];
        let obs = ObsHub::default();
        let (outcome, decision) = select_engine(
            &entries,
            &[0, 1],
            &request(SimOptions::with_ecp(6)),
            1000,
            None,
            &obs,
        );
        assert_eq!(outcome.expect("ECP-capable engine eligible"), 1);
        // The ineligible engine still appears in the record, marked so.
        assert!(!decision.candidates[0].eligible);
        assert!(decision.candidates[1].eligible);
        // Skipping an *ineligible* engine is not degradation — no eligible
        // candidate was passed over.
        assert_verdict!(decision.verdict, chosen = "simulator", degraded = false);
        // No candidate supports the profile at all: the *permanent* shed,
        // distinct from a transient unmeetable deadline.
        let (outcome, _) = select_engine(
            &entries,
            &[0],
            &request(SimOptions::with_ecp(6)),
            1000,
            None,
            &obs,
        );
        assert_eq!(outcome, Err(Rejection::NoEngineSupportsRequest));
    }

    /// Trips one entry's breaker open by feeding its window hard failures.
    fn trip_breaker(entry: &EngineEntry) {
        let config = BreakerConfig::default();
        for _ in 0..config.window {
            entry.cells.breaker.record(true);
        }
        assert_eq!(
            entry.cells.breaker.snapshot().state,
            super::super::breaker::BreakerState::Open
        );
    }

    #[test]
    fn routes_around_an_open_breaker_and_sheds_when_all_are_open() {
        let entries = [entry("native", 1e12, false), entry("simulator", 1e12, true)];
        trip_breaker(&entries[0]);
        let obs = ObsHub::default();
        // The preferred engine's breaker is open: auto degrades to the next
        // candidate and the decision record says why.
        let (outcome, decision) = select_engine(
            &entries,
            &[0, 1],
            &request(SimOptions::baseline()),
            1000,
            None,
            &obs,
        );
        assert_eq!(outcome.expect("healthy engine absorbs the traffic"), 1);
        assert!(decision.candidates[0].eligible);
        assert!(decision.candidates[0].breaker_open);
        assert!(!decision.candidates[1].breaker_open);
        assert_verdict!(decision.verdict, chosen = "simulator", degraded = true);
        // Every eligible breaker open: the health-transient shed, distinct
        // from both deadline and capability sheds.
        trip_breaker(&entries[1]);
        let (outcome, decision) = select_engine(
            &entries,
            &[0, 1],
            &request(SimOptions::baseline()),
            1000,
            None,
            &obs,
        );
        assert_eq!(outcome, Err(Rejection::EngineUnavailable));
        assert_verdict!(decision.verdict, shed = "engine_unavailable");
    }

    #[test]
    fn prediction_accounts_for_queued_backlog() {
        let engine = entry("native", 1e6, false);
        // Empty domain: 1e3 ops at 1e6 ops/s = 1 ms, meets a 10 ms deadline.
        assert!(select_engine(
            std::slice::from_ref(&engine),
            &[0],
            &request(SimOptions::baseline()),
            1_000,
            Some(Duration::from_millis(10)),
            &ObsHub::default(),
        )
        .0
        .is_ok());
        // 1e6 ops of backlog pushes predicted completion past the deadline.
        engine.cells.backlog_ops.store(1_000_000, Ordering::Release);
        assert_eq!(
            select_engine(
                &[engine],
                &[0],
                &request(SimOptions::baseline()),
                1_000,
                Some(Duration::from_millis(10)),
                &ObsHub::default(),
            )
            .0,
            Err(Rejection::NoEngineMeetsDeadline)
        );
    }
}
