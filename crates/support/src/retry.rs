//! Deadline-aware retry with exponential backoff and jitter.
//!
//! One policy type serves every tier that needs to try again:
//!
//! * the **stream** tier retransmits annotation/picture packets lost on
//!   the wireless hop (`annolight_stream::faults`);
//! * the **serve** tier's admission front-end tells rejected tenants to
//!   back off (`annolight_serve::ServeError::Overloaded`) — and
//!   `AnnotationService::call_with_retry` actually implements that
//!   advice with this policy.
//!
//! Delays follow the classic truncated exponential schedule
//! `base · multiplier^attempt`, capped at `max_delay_s`, optionally
//! spread by symmetric multiplicative jitter (so synchronized losers
//! don't retry in lock-step), and cut off by both an attempt budget and
//! a wall-clock deadline. All randomness comes from a caller-supplied
//! [`SmallRng`], so retry schedules replay exactly from a seed.

use crate::rng::SmallRng;

/// A truncated-exponential-backoff retry policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retry, seconds.
    pub base_delay_s: f64,
    /// Multiplier applied per attempt (2.0 = classic doubling).
    pub multiplier: f64,
    /// Upper bound on any single delay, seconds.
    pub max_delay_s: f64,
    /// Maximum number of retries (attempts beyond the first try).
    pub max_retries: u32,
    /// Symmetric jitter fraction: the delay is scaled by a uniform
    /// factor in `[1 - jitter_frac, 1 + jitter_frac]`.
    pub jitter_frac: f64,
    /// Total time budget from first failure, seconds. Retries whose
    /// delay would land past the deadline are not attempted. Use
    /// [`RetryPolicy::NO_DEADLINE`] for an effectively unbounded budget.
    pub deadline_s: f64,
}

crate::impl_json!(struct RetryPolicy { base_delay_s, multiplier, max_delay_s, max_retries, jitter_frac, deadline_s });

impl RetryPolicy {
    /// A deadline so far out it never binds (kept finite so the policy
    /// serialises cleanly).
    pub const NO_DEADLINE: f64 = 1e30;

    /// Streaming-annotation default: fast first retry (one RTT-ish),
    /// doubling, capped at 200 ms, up to 6 retries, ±25 % jitter.
    /// The deadline is set per-packet by the caller (scene start time).
    #[must_use]
    pub fn annotation() -> Self {
        Self {
            base_delay_s: 0.010,
            multiplier: 2.0,
            max_delay_s: 0.200,
            max_retries: 6,
            jitter_frac: 0.25,
            deadline_s: Self::NO_DEADLINE,
        }
    }

    /// Reliable-transport default for picture data: generous attempt
    /// budget so a stream survives deep loss, no deadline (the player
    /// buffers).
    #[must_use]
    pub fn reliable() -> Self {
        Self { max_retries: 32, ..Self::annotation() }
    }

    /// Service-admission default (the `Overloaded` path): 1 ms first
    /// retry, doubling to 50 ms, 8 retries, ±50 % jitter.
    #[must_use]
    pub fn service() -> Self {
        Self {
            base_delay_s: 0.001,
            multiplier: 2.0,
            max_delay_s: 0.050,
            max_retries: 8,
            jitter_frac: 0.5,
            deadline_s: Self::NO_DEADLINE,
        }
    }

    /// Returns `self` with a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        self.deadline_s = deadline_s;
        self
    }

    /// The un-jittered delay before retry `attempt` (0-based), seconds:
    /// `min(base · multiplier^attempt, max_delay)`. These are the golden
    /// values the unit tests pin.
    #[must_use]
    pub fn delay_s(&self, attempt: u32) -> f64 {
        (self.base_delay_s * self.multiplier.powi(attempt.min(64) as i32)).min(self.max_delay_s)
    }

    /// The jittered delay before retry `attempt`: [`Self::delay_s`]
    /// scaled by a uniform factor in `[1 − jitter_frac, 1 + jitter_frac]`
    /// drawn from `rng`, floored at zero. With `jitter_frac == 0` this
    /// still consumes one draw, so enabling jitter never shifts other
    /// consumers' RNG streams (callers hand each concern its own split
    /// stream; see [`SmallRng::split`]).
    #[must_use]
    pub fn jittered_delay_s(&self, attempt: u32, rng: &mut SmallRng) -> f64 {
        let u = rng.gen_f64(); // always one draw, even when jitter is off
        let factor = 1.0 + self.jitter_frac * (2.0 * u - 1.0);
        (self.delay_s(attempt) * factor).max(0.0)
    }

    /// Whether retry `attempt` (0-based) may be attempted given
    /// `elapsed_s` since the first failure: inside both the attempt
    /// budget and the deadline.
    #[must_use]
    pub fn allows(&self, attempt: u32, elapsed_s: f64) -> bool {
        attempt < self.max_retries && elapsed_s + self.delay_s(attempt) <= self.deadline_s
    }

    /// The delay for retry `attempt` if the policy allows it, `None`
    /// once the attempt budget or deadline is exhausted.
    #[must_use]
    pub fn next_delay_s(&self, attempt: u32, elapsed_s: f64, rng: &mut SmallRng) -> Option<f64> {
        if !self.allows(attempt, elapsed_s) {
            return None;
        }
        Some(self.jittered_delay_s(attempt, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_sequence_golden_values() {
        let p = RetryPolicy::annotation();
        // 10 ms, 20, 40, 80, 160, then capped at 200.
        let golden = [0.010, 0.020, 0.040, 0.080, 0.160, 0.200, 0.200];
        for (attempt, want) in golden.iter().enumerate() {
            let got = p.delay_s(attempt as u32);
            assert!((got - want).abs() < 1e-12, "attempt {attempt}: {got} vs {want}");
        }
    }

    #[test]
    fn service_policy_golden_values() {
        let p = RetryPolicy::service();
        let golden = [0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.050, 0.050];
        for (attempt, want) in golden.iter().enumerate() {
            let got = p.delay_s(attempt as u32);
            assert!((got - want).abs() < 1e-12, "attempt {attempt}: {got} vs {want}");
        }
    }

    #[test]
    fn deadline_cuts_off_retries() {
        let p = RetryPolicy::annotation().with_deadline(0.050);
        // attempt 0 at elapsed 0: 10 ms delay, inside the 50 ms budget.
        assert!(p.allows(0, 0.0));
        // attempt 2 (40 ms delay) after 30 ms elapsed: 70 ms > 50 ms.
        assert!(!p.allows(2, 0.030));
        // Past the deadline entirely.
        assert!(!p.allows(0, 0.060));
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(p.next_delay_s(0, 0.060, &mut rng).is_none());
    }

    #[test]
    fn attempt_budget_cuts_off_retries() {
        let p = RetryPolicy { max_retries: 3, ..RetryPolicy::annotation() };
        assert!(p.allows(2, 0.0));
        assert!(!p.allows(3, 0.0));
    }

    #[test]
    fn jitter_bounds_under_fixed_seed() {
        let p = RetryPolicy::annotation();
        let mut rng = SmallRng::seed_from_u64(42);
        for attempt in 0..32 {
            let base = p.delay_s(attempt % 7);
            let j = p.jittered_delay_s(attempt % 7, &mut rng);
            assert!(
                j >= base * 0.75 - 1e-12 && j <= base * 1.25 + 1e-12,
                "attempt {attempt}: jittered {j} outside ±25 % of {base}"
            );
        }
        // Same seed, same schedule: replayable.
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for attempt in 0..8 {
            assert_eq!(p.jittered_delay_s(attempt, &mut a), p.jittered_delay_s(attempt, &mut b));
        }
    }

    #[test]
    fn zero_jitter_is_exact_but_still_draws() {
        let p = RetryPolicy { jitter_frac: 0.0, ..RetryPolicy::annotation() };
        let mut rng = SmallRng::seed_from_u64(3);
        let before = rng.clone();
        let j = p.jittered_delay_s(0, &mut rng);
        assert!((j - p.delay_s(0)).abs() < 1e-15);
        assert_ne!(rng, before, "one draw must be consumed regardless");
    }

    #[test]
    fn total_backoff_bounds_the_schedule() {
        let p = RetryPolicy::annotation();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut total = 0.0;
        let mut attempt = 0;
        while let Some(d) = p.next_delay_s(attempt, total, &mut rng) {
            total += d;
            attempt += 1;
        }
        assert_eq!(attempt, p.max_retries);
        // The un-jittered schedule's sum, stretched by the ±25 % jitter.
        let unjittered: f64 = (0..p.max_retries).map(|a| p.delay_s(a)).sum();
        assert!(total <= unjittered * 1.25 + 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let p = RetryPolicy::service().with_deadline(1.5);
        let json = crate::json::to_string(&p);
        let back: RetryPolicy = crate::json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
