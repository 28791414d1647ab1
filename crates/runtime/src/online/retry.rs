//! Per-domain retry policy: capped exponential backoff plus a retry budget
//! so retries cannot amplify an outage.
//!
//! Workers re-submit *retryable* engine errors (transient faults, contained
//! panics — never capability refusals) up to
//! [`RetryPolicy::max_attempts`], sleeping a capped exponential backoff
//! between attempts. Every retry first spends a token from the engine's
//! [`RetryBudget`]; the budget refills a configurable fraction per
//! *successful* batch (not per wall-clock second), so during a full outage
//! the budget drains once and stays empty — the retry amplification factor
//! over an outage converges to `1 + budget/traffic` instead of
//! `max_attempts`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Tuning of one domain's retry loop.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total execution attempts per batch, including the first
    /// (`1` disables retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; attempt `n` waits
    /// `base_backoff · 2^(n−1)`, capped at [`max_backoff`](Self::max_backoff).
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Initial (and maximum) retry-budget tokens; each retry spends one.
    pub budget: f64,
    /// Tokens restored per successful batch, up to the budget cap.
    pub budget_refill_per_success: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            budget: 64.0,
            budget_refill_per_success: 0.1,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn disabled() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Whether the policy allows any retries at all.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// The backoff to sleep before retry number `retry` (1-based):
    /// `base · 2^(retry−1)`, capped.
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.saturating_sub(1).min(16);
        (self.base_backoff.saturating_mul(factor)).min(self.max_backoff)
    }
}

/// Token budget in fixed-point milli-tokens on one atomic, shared by every
/// worker of an engine's domain. Lock-free: spend and refill are CAS loops.
#[derive(Debug)]
pub(crate) struct RetryBudget {
    millitokens: AtomicU64,
    cap: u64,
    refill: u64,
}

const MILLI: f64 = 1000.0;

impl RetryBudget {
    /// A full budget per `policy`.
    pub(crate) fn new(policy: &RetryPolicy) -> Self {
        let cap = (policy.budget.max(0.0) * MILLI) as u64;
        Self {
            millitokens: AtomicU64::new(cap),
            cap,
            refill: (policy.budget_refill_per_success.max(0.0) * MILLI) as u64,
        }
    }

    /// Spends one token if available; `false` denies the retry.
    pub(crate) fn try_spend(&self) -> bool {
        let mut current = self.millitokens.load(Ordering::Relaxed);
        loop {
            let Some(next) = current.checked_sub(MILLI as u64) else {
                return false;
            };
            match self.millitokens.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }

    /// Restores the per-success refill fraction, capped at the budget.
    pub(crate) fn refill(&self) {
        let mut current = self.millitokens.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(self.refill).min(self.cap);
            if next == current {
                return;
            }
            match self.millitokens.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Remaining whole tokens (diagnostic).
    #[cfg(test)]
    pub(crate) fn tokens(&self) -> f64 {
        self.millitokens.load(Ordering::Relaxed) as f64 / MILLI
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(18),
            ..RetryPolicy::default()
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(5));
        assert_eq!(policy.backoff(2), Duration::from_millis(10));
        assert_eq!(policy.backoff(3), Duration::from_millis(18));
        assert_eq!(policy.backoff(30), Duration::from_millis(18));
        assert!(RetryPolicy::default().enabled());
        assert!(!RetryPolicy::disabled().enabled());
    }

    #[test]
    fn budget_spends_refills_and_caps() {
        let budget = RetryBudget::new(&RetryPolicy {
            budget: 2.0,
            budget_refill_per_success: 0.5,
            ..RetryPolicy::default()
        });
        assert!(budget.try_spend());
        assert!(budget.try_spend());
        assert!(!budget.try_spend(), "budget exhausted");
        // Two successes restore two half-tokens → one whole retry token.
        budget.refill();
        assert!(!budget.try_spend());
        budget.refill();
        assert!(budget.try_spend());
        // Refill never exceeds the cap.
        for _ in 0..100 {
            budget.refill();
        }
        assert_eq!(budget.tokens(), 2.0);
    }

    #[test]
    fn zero_budget_denies_every_retry() {
        let budget = RetryBudget::new(&RetryPolicy {
            budget: 0.0,
            ..RetryPolicy::default()
        });
        assert!(!budget.try_spend());
        budget.refill();
        assert_eq!(budget.tokens(), 0.0);
    }
}
