//! Per-engine circuit breakers: closed → open on error-rate-over-window →
//! half-open probe → closed.
//!
//! A breaker guards one engine's scheduling domain. Workers feed it the
//! outcome of every *execution attempt* (only retryable execution faults
//! count as failures — capability refusals like `ecp_unsupported` say
//! nothing about engine health); the admission path consults it before
//! routing new work at the engine. While open, explicit-engine requests are
//! shed with a typed `engine_unavailable` and `"auto"` requests degrade to
//! the next candidate; after a cooldown the breaker admits a bounded number
//! of half-open probes whose outcomes decide between reopening and closing.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tuning of one engine's circuit breaker.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Master switch; a disabled breaker admits everything and records
    /// nothing (the hardening-off arm of the faults bench uses this).
    pub enabled: bool,
    /// Sliding window of recent attempt outcomes the error rate is
    /// computed over.
    pub window: usize,
    /// Error rate (failures / window) at or above which the breaker opens.
    pub error_threshold: f64,
    /// Minimum outcomes in the window before the rate is meaningful; the
    /// breaker never opens on fewer.
    pub min_observations: usize,
    /// How long an open breaker waits before admitting half-open probes.
    pub cooldown: Duration,
    /// Consecutive probe successes needed to close from half-open (and the
    /// cap on concurrently admitted probes).
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            window: 32,
            error_threshold: 0.5,
            min_observations: 16,
            cooldown: Duration::from_secs(5),
            half_open_probes: 2,
        }
    }
}

impl BreakerConfig {
    /// A breaker that never trips (admits everything, records nothing).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// The breaker's position in its state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: everything is admitted, outcomes feed the error window.
    #[default]
    Closed,
    /// Probing: a bounded number of requests are admitted; their outcomes
    /// decide between closing and reopening.
    HalfOpen,
    /// Tripped: nothing is admitted until the cooldown elapses.
    Open,
}

impl BreakerState {
    /// Stable lowercase label for wire encodings.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::HalfOpen => "half_open",
            BreakerState::Open => "open",
        }
    }

    /// Numeric encoding for the `bishop_breaker_state` gauge:
    /// 0 = closed, 1 = half-open, 2 = open.
    pub fn metric_value(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

/// A state-machine transition worth logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerTransition {
    /// Closed/half-open → open.
    Opened,
    /// Open → half-open (cooldown elapsed, probes admitted).
    HalfOpened,
    /// Half-open → closed (probes succeeded).
    Closed,
}

impl BreakerTransition {
    /// The event name the transition is logged under.
    pub(crate) fn event(self) -> &'static str {
        match self {
            BreakerTransition::Opened => "breaker_open",
            BreakerTransition::HalfOpened => "breaker_half_open",
            BreakerTransition::Closed => "breaker_close",
        }
    }
}

/// The admission verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum BreakerAdmit {
    /// Route the request at the engine.
    Allow,
    /// Refuse: the breaker is open (or half-open with its probe quota
    /// spent). `retry_after` is the time until the next half-open probe
    /// window — what the gateway prices `Retry-After` from.
    Shed {
        /// Seconds until the breaker will admit a probe again.
        retry_after: Duration,
    },
}

/// A point-in-time public view of one breaker.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Consecutive failed attempts, resetting on any success.
    pub consecutive_errors: u64,
    /// How many times the breaker has opened since boot.
    pub opened_total: u64,
    /// Seconds until an open breaker admits half-open probes (`None`
    /// unless open).
    pub reopen_seconds: Option<f64>,
}

#[derive(Debug, Default)]
struct BreakerInner {
    state: BreakerState,
    window: VecDeque<bool>,
    opened_at: Option<Instant>,
    consecutive_errors: u64,
    half_open_admitted: u32,
    half_open_successes: u32,
    opened_total: u64,
}

/// One engine's circuit breaker. Admission checks and outcome recording
/// both run under one short-lived mutex (a handful of ns on the request
/// path; the breaker is consulted once per request, not per byte).
#[derive(Debug)]
pub(crate) struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub(crate) fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            inner: Mutex::new(BreakerInner::default()),
        }
    }

    /// Decides whether new work may be routed at the engine right now.
    /// An open breaker whose cooldown has elapsed flips to half-open here
    /// (admission is what probes), reporting the transition for logging.
    pub(crate) fn admit(&self) -> (BreakerAdmit, Option<BreakerTransition>) {
        if !self.config.enabled {
            return (BreakerAdmit::Allow, None);
        }
        let mut inner = self.inner.lock().expect("breaker lock");
        match inner.state {
            BreakerState::Closed => (BreakerAdmit::Allow, None),
            BreakerState::Open => {
                let elapsed = inner
                    .opened_at
                    .map(|at| at.elapsed())
                    .unwrap_or(Duration::ZERO);
                if elapsed >= self.config.cooldown {
                    inner.state = BreakerState::HalfOpen;
                    inner.half_open_admitted = 1;
                    inner.half_open_successes = 0;
                    (BreakerAdmit::Allow, Some(BreakerTransition::HalfOpened))
                } else {
                    (
                        BreakerAdmit::Shed {
                            retry_after: self.config.cooldown - elapsed,
                        },
                        None,
                    )
                }
            }
            BreakerState::HalfOpen => {
                if inner.half_open_admitted < self.config.half_open_probes.max(1) {
                    inner.half_open_admitted += 1;
                    (BreakerAdmit::Allow, None)
                } else {
                    // Probes are in flight; further traffic waits for their
                    // verdict (one cooldown is the conservative price).
                    (
                        BreakerAdmit::Shed {
                            retry_after: self.config.cooldown,
                        },
                        None,
                    )
                }
            }
        }
    }

    /// Feeds one execution-attempt outcome into the state machine.
    /// `failure` must already be filtered to *health* faults (retryable
    /// errors), never capability refusals.
    pub(crate) fn record(&self, failure: bool) -> Option<BreakerTransition> {
        if !self.config.enabled {
            return None;
        }
        let mut inner = self.inner.lock().expect("breaker lock");
        if failure {
            inner.consecutive_errors += 1;
        } else {
            inner.consecutive_errors = 0;
        }
        match inner.state {
            BreakerState::Closed => {
                if inner.window.len() == self.config.window.max(1) {
                    inner.window.pop_front();
                }
                inner.window.push_back(failure);
                let observed = inner.window.len();
                let failures = inner.window.iter().filter(|&&f| f).count();
                if observed >= self.config.min_observations.max(1)
                    && failures as f64 / observed as f64 >= self.config.error_threshold
                {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Some(Instant::now());
                    inner.opened_total += 1;
                    inner.window.clear();
                    Some(BreakerTransition::Opened)
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => {
                // A verdict came back: free its probe slot. Without this,
                // probes that coalesce into one batch (one recorded outcome
                // for several admissions) would strand the breaker half-open
                // with its quota spent and no further outcome ever due.
                inner.half_open_admitted = inner.half_open_admitted.saturating_sub(1);
                if failure {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Some(Instant::now());
                    inner.opened_total += 1;
                    inner.half_open_admitted = 0;
                    inner.half_open_successes = 0;
                    Some(BreakerTransition::Opened)
                } else {
                    inner.half_open_successes += 1;
                    if inner.half_open_successes >= self.config.half_open_probes.max(1) {
                        inner.state = BreakerState::Closed;
                        inner.opened_at = None;
                        inner.half_open_admitted = 0;
                        inner.half_open_successes = 0;
                        Some(BreakerTransition::Closed)
                    } else {
                        None
                    }
                }
            }
            // Late completions of batches admitted before the trip carry no
            // new admission-relevant signal.
            BreakerState::Open => None,
        }
    }

    /// A point-in-time public view.
    pub(crate) fn snapshot(&self) -> BreakerSnapshot {
        let inner = self.inner.lock().expect("breaker lock");
        let reopen_seconds = match inner.state {
            BreakerState::Open => Some(
                inner
                    .opened_at
                    .map(|at| {
                        self.config
                            .cooldown
                            .saturating_sub(at.elapsed())
                            .as_secs_f64()
                    })
                    .unwrap_or(0.0),
            ),
            _ => None,
        };
        BreakerSnapshot {
            state: inner.state,
            consecutive_errors: inner.consecutive_errors,
            opened_total: inner.opened_total,
            reopen_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> BreakerConfig {
        BreakerConfig {
            enabled: true,
            window: 8,
            error_threshold: 0.5,
            min_observations: 4,
            cooldown: Duration::from_millis(20),
            half_open_probes: 2,
        }
    }

    fn trip(breaker: &CircuitBreaker) {
        for _ in 0..3 {
            assert_eq!(breaker.record(true), None);
        }
        assert_eq!(breaker.record(true), Some(BreakerTransition::Opened));
    }

    #[test]
    fn opens_on_error_rate_after_min_observations() {
        let breaker = CircuitBreaker::new(fast_config());
        assert_eq!(breaker.admit().0, BreakerAdmit::Allow);
        trip(&breaker);
        let snapshot = breaker.snapshot();
        assert_eq!(snapshot.state, BreakerState::Open);
        assert_eq!(snapshot.consecutive_errors, 4);
        assert_eq!(snapshot.opened_total, 1);
        assert!(snapshot.reopen_seconds.is_some());
        match breaker.admit().0 {
            BreakerAdmit::Shed { retry_after } => {
                assert!(retry_after <= Duration::from_millis(20));
            }
            other => panic!("open breaker must shed, got {other:?}"),
        }
    }

    #[test]
    fn successes_keep_the_breaker_closed() {
        let breaker = CircuitBreaker::new(fast_config());
        for _ in 0..100 {
            assert_eq!(breaker.record(false), None);
        }
        // Sub-threshold error rate never trips.
        for _ in 0..3 {
            assert_eq!(breaker.record(true), None);
            for _ in 0..7 {
                assert_eq!(breaker.record(false), None);
            }
        }
        assert_eq!(breaker.snapshot().state, BreakerState::Closed);
    }

    #[test]
    fn half_open_probes_close_on_success_and_reopen_on_failure() {
        let breaker = CircuitBreaker::new(fast_config());
        trip(&breaker);
        std::thread::sleep(Duration::from_millis(25));
        // Cooldown elapsed: the next admit flips to half-open.
        let (admit, transition) = breaker.admit();
        assert_eq!(admit, BreakerAdmit::Allow);
        assert_eq!(transition, Some(BreakerTransition::HalfOpened));
        // Second probe fits the quota, a third is shed.
        assert_eq!(breaker.admit().0, BreakerAdmit::Allow);
        assert!(matches!(breaker.admit().0, BreakerAdmit::Shed { .. }));
        // Both probes succeed → closed.
        assert_eq!(breaker.record(false), None);
        assert_eq!(breaker.record(false), Some(BreakerTransition::Closed));
        assert_eq!(breaker.snapshot().state, BreakerState::Closed);
        assert_eq!(breaker.snapshot().reopen_seconds, None);

        // Trip again; a failing probe reopens immediately.
        trip(&breaker);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(breaker.admit().1, Some(BreakerTransition::HalfOpened));
        assert_eq!(breaker.record(true), Some(BreakerTransition::Opened));
        assert_eq!(breaker.snapshot().state, BreakerState::Open);
        // Two window trips plus the half-open reopen: three opens in all.
        assert_eq!(breaker.snapshot().opened_total, 3);
    }

    #[test]
    fn coalesced_probes_cannot_strand_the_breaker_half_open() {
        // Two probes are admitted but coalesce into one batch, so only ONE
        // outcome is recorded. The freed slot must let a further probe in,
        // and its success must close the breaker — not strand it half-open
        // with a spent quota and no outcome ever due.
        let breaker = CircuitBreaker::new(fast_config());
        trip(&breaker);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(breaker.admit().1, Some(BreakerTransition::HalfOpened));
        assert_eq!(breaker.admit().0, BreakerAdmit::Allow);
        assert_eq!(breaker.record(false), None);
        assert_eq!(breaker.admit().0, BreakerAdmit::Allow);
        assert_eq!(breaker.record(false), Some(BreakerTransition::Closed));
    }

    #[test]
    fn disabled_breaker_is_inert() {
        let breaker = CircuitBreaker::new(BreakerConfig::disabled());
        for _ in 0..64 {
            assert_eq!(breaker.record(true), None);
        }
        assert_eq!(breaker.admit(), (BreakerAdmit::Allow, None));
        assert_eq!(breaker.snapshot().state, BreakerState::Closed);
    }

    #[test]
    fn state_labels_and_metric_values_are_stable() {
        assert_eq!(BreakerState::Closed.label(), "closed");
        assert_eq!(BreakerState::HalfOpen.label(), "half_open");
        assert_eq!(BreakerState::Open.label(), "open");
        assert_eq!(BreakerState::Closed.metric_value(), 0);
        assert_eq!(BreakerState::HalfOpen.metric_value(), 1);
        assert_eq!(BreakerState::Open.metric_value(), 2);
        assert_eq!(BreakerTransition::Opened.event(), "breaker_open");
        assert_eq!(BreakerTransition::HalfOpened.event(), "breaker_half_open");
        assert_eq!(BreakerTransition::Closed.event(), "breaker_close");
    }
}
