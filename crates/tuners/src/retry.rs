//! Retry-with-backoff for transiently failing evaluations.
//!
//! On a real cluster a configuration run can die for reasons that have
//! nothing to do with the configuration: the submit gateway times out, an
//! executor fails to launch, the measurement harness loses the timing.
//! Treating those as ordinary failures both wastes an observation and
//! teaches the surrogate that a perfectly good region is bad. The retry
//! policy re-runs *transient* failures a bounded number of times, charging
//! every attempt's burned time — plus the exponential backoff a real
//! resubmission loop would sleep through — to the evaluation's search
//! cost, so resilience never makes a tuner look cheaper than it is.
//!
//! Deterministic failures (OOM from an oversized heap, invalid configs)
//! are never retried: the same point would die the same way.

use robotune_space::Configuration;

use crate::objective::{Evaluation, Objective};

/// Bounded retry-with-exponential-backoff for transient failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per evaluation, including the first (≥ 1).
    pub max_attempts: u32,
    /// Simulated sleep before the first retry, in seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied to the backoff after each failed retry.
    pub backoff_multiplier: f64,
}

impl RetryPolicy {
    /// No retries at all: every failure is final. This reproduces the
    /// pre-resilience behaviour exactly.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        backoff_base_s: 0.0,
        backoff_multiplier: 1.0,
    };

    /// The simulated sleep before retry number `retry` (1-based), in
    /// seconds: `base · multiplier^(retry − 1)`.
    pub fn backoff_s(&self, retry: u32) -> f64 {
        if retry == 0 {
            return 0.0;
        }
        self.backoff_base_s * self.backoff_multiplier.powi(retry as i32 - 1)
    }
}

impl Default for RetryPolicy {
    /// Three attempts with a 5 s → 10 s backoff, mirroring common Spark
    /// submit-retry settings.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_s: 5.0,
            backoff_multiplier: 2.0,
        }
    }
}

/// One evaluation's retry bookkeeping under a [`RetryPolicy`].
///
/// Feed it every attempt's outcome with [`RetryState::attempt`]: it
/// answers `None` while the caller should run the same configuration
/// again, and the final budget-charged [`Evaluation`] once the outcome
/// stands. [`evaluate_with_retry`] is a loop over it; an ask/tell driver
/// re-asks the configuration instead of looping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryState {
    policy: RetryPolicy,
    burned_s: f64,
    attempt: u32,
}

impl RetryState {
    /// Starts an evaluation's first attempt.
    pub fn new(policy: RetryPolicy) -> Self {
        RetryState { policy, burned_s: 0.0, attempt: 1 }
    }

    /// Records one attempt's outcome. Returns the final evaluation — its
    /// `time_s` includes every earlier attempt's burned time plus all
    /// backoff sleeps, and `attempts` counts the runs — or `None` when
    /// the failure was transient and attempts remain.
    pub fn attempt(&mut self, eval: Evaluation) -> Option<Evaluation> {
        if !(eval.failed && eval.transient) || self.attempt >= self.policy.max_attempts.max(1) {
            if self.attempt > 1 {
                robotune_obs::incr("retry.evals_retried", 1);
                if eval.completed {
                    robotune_obs::incr("retry.recovered", 1);
                } else {
                    robotune_obs::incr("retry.exhausted", 1);
                }
            }
            return Some(Evaluation {
                time_s: eval.time_s + self.burned_s,
                attempts: self.attempt,
                ..eval
            });
        }
        let backoff = self.policy.backoff_s(self.attempt);
        robotune_obs::incr("retry.attempt", 1);
        robotune_obs::record("retry.backoff_s", backoff);
        self.burned_s += eval.time_s + backoff;
        self.attempt += 1;
        None
    }
}

/// Evaluates `config`, retrying transient failures under `policy`.
///
/// The returned [`Evaluation`] is a single budget-charged record: its
/// `time_s` includes every attempt's burned time plus all backoff sleeps,
/// and `attempts` counts how many runs it took. Deterministic failures,
/// capped runs and completions are returned as-is (plus any earlier burned
/// time) — only `failed && transient` outcomes trigger another attempt.
pub fn evaluate_with_retry(
    objective: &mut dyn Objective,
    config: &Configuration,
    cap_s: f64,
    policy: &RetryPolicy,
) -> Evaluation {
    let mut state = RetryState::new(*policy);
    loop {
        if let Some(eval) = state.attempt(objective.evaluate(config, cap_s)) {
            return eval;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robotune_space::ParamValue;

    fn cfg() -> Configuration {
        Configuration::new(vec![ParamValue::Int(1)])
    }

    /// Fails transiently `fail_first` times, then completes in `time_s`.
    struct FlakyObjective {
        fail_first: u32,
        calls: u32,
        time_s: f64,
    }

    impl Objective for FlakyObjective {
        fn evaluate(&mut self, _config: &Configuration, _cap_s: f64) -> Evaluation {
            self.calls += 1;
            if self.calls <= self.fail_first {
                Evaluation::transient_failure(3.0)
            } else {
                Evaluation::completed(self.time_s)
            }
        }
    }

    #[test]
    fn transient_failures_recover_and_charge_the_budget() {
        let mut obj = FlakyObjective { fail_first: 2, calls: 0, time_s: 40.0 };
        let e = evaluate_with_retry(&mut obj, &cfg(), 480.0, &RetryPolicy::default());
        assert!(e.completed);
        assert_eq!(e.attempts, 3);
        // 2 failed attempts × 3 s + backoffs 5 s and 10 s + final 40 s run.
        assert!((e.time_s - (3.0 + 5.0 + 3.0 + 10.0 + 40.0)).abs() < 1e-9, "{}", e.time_s);
    }

    #[test]
    fn retries_are_bounded() {
        let mut obj = FlakyObjective { fail_first: 99, calls: 0, time_s: 40.0 };
        let e = evaluate_with_retry(&mut obj, &cfg(), 480.0, &RetryPolicy::default());
        assert!(e.failed && e.transient && !e.completed);
        assert_eq!(e.attempts, 3);
        assert_eq!(obj.calls, 3);
        // All three burns plus two backoffs are accounted.
        assert!((e.time_s - (3.0 * 3.0 + 5.0 + 10.0)).abs() < 1e-9, "{}", e.time_s);
    }

    #[test]
    fn deterministic_failures_are_never_retried() {
        struct AlwaysOom;
        impl Objective for AlwaysOom {
            fn evaluate(&mut self, _c: &Configuration, _cap: f64) -> Evaluation {
                Evaluation::failed(7.0)
            }
        }
        let e = evaluate_with_retry(&mut AlwaysOom, &cfg(), 480.0, &RetryPolicy::default());
        assert_eq!(e.attempts, 1);
        assert_eq!(e.time_s, 7.0);
    }

    #[test]
    fn none_policy_reproduces_single_attempt_semantics() {
        let mut obj = FlakyObjective { fail_first: 1, calls: 0, time_s: 40.0 };
        let e = evaluate_with_retry(&mut obj, &cfg(), 480.0, &RetryPolicy::NONE);
        assert!(e.failed && e.transient);
        assert_eq!(e.attempts, 1);
        assert_eq!(e.time_s, 3.0);
    }

    #[test]
    fn zero_max_attempts_is_treated_as_one() {
        let mut obj = FlakyObjective { fail_first: 0, calls: 0, time_s: 12.0 };
        let p = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        let e = evaluate_with_retry(&mut obj, &cfg(), 480.0, &p);
        assert!(e.completed);
        assert_eq!(e.attempts, 1);
    }

    #[test]
    fn backoff_schedule_is_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_s(1), 5.0);
        assert_eq!(p.backoff_s(2), 10.0);
        assert_eq!(p.backoff_s(3), 20.0);
        assert_eq!(p.backoff_s(0), 0.0);
    }
}
