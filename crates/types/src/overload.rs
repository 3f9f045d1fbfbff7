//! Overload-resilience configuration for the decision service: bounded
//! queues, deadlines, tick budgets, the brownout ladder, and client retry.
//!
//! PR 8's `bap serve` has no overload story: a burst of clients queues
//! unboundedly and every request waits behind every solve. This module
//! defines the knobs of the resilience layer that drops that assumption:
//!
//! * [`OverloadConfig`] — server-side demand regulation: a bounded request
//!   queue, a per-session in-flight cap, a per-tick wall-clock budget, and
//!   the hysteretic brownout ladder that answers from last-good plans
//!   under sustained pressure instead of collapsing.
//! * [`RetryConfig`] — client-side back-off: jittered exponential retry
//!   that honors the server's `retry_after_ms` hints, with bounded
//!   attempts and a typed give-up error.
//!
//! Like [`crate::ControlConfig`], the layer is **behaviour-neutral when
//! unset**: `ServeConfig.overload` is an `Option`, and `None` (the
//! default) leaves the service byte-identical to the unregulated PR 8
//! server. The knobs here therefore default to the *tuned* production
//! values, so enabling the layer with `OverloadConfig::default()` alone
//! gives a sensible machine.

use serde::{Deserialize, Serialize};

/// Server-side overload regulation. Individual limits are *disabled at
/// zero*, mirroring [`crate::DecisionBudget`]; the brownout thresholds
/// are tick counts and must be at least 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Maximum requests a dequeue sweep may admit into one tick before
    /// the excess is shed with `overloaded` (0 = unlimited). This bounds
    /// the backlog a burst can build: everything past the cap is answered
    /// immediately with a retry hint instead of queueing behind solves.
    pub max_queue_depth: usize,
    /// Maximum requests a single session may have admitted into one tick
    /// (0 = unlimited). A chatty tenant sheds before it can starve the
    /// others — the serving-tier analogue of per-bank bandwidth
    /// regulation.
    pub max_session_inflight: usize,
    /// Wall-clock budget for one epoch tick in milliseconds
    /// (0 = unlimited). Admission is capped so the predicted batch cost
    /// (recent per-request tick cost × batch size) fits the budget, and
    /// ticks that overrun anyway feed the brownout ladder.
    pub tick_budget_ms: u64,
    /// Consecutive over-budget ticks before the brownout ladder steps
    /// down one level (normal → budgeted solves → last-good answers).
    pub brownout_enter_ticks: u32,
    /// Consecutive within-budget ticks before the ladder steps back up
    /// one level. Kept larger than `brownout_enter_ticks` so the ladder
    /// exits hysteretically instead of flapping.
    pub brownout_exit_ticks: u32,
}

impl Default for OverloadConfig {
    /// The tuned production preset (presence of the config is the master
    /// switch; see the module docs).
    fn default() -> Self {
        OverloadConfig {
            max_queue_depth: 256,
            max_session_inflight: 8,
            tick_budget_ms: 50,
            brownout_enter_ticks: 2,
            brownout_exit_ticks: 4,
        }
    }
}

impl OverloadConfig {
    /// Brownout enter threshold, floored at one tick.
    pub fn enter_ticks(&self) -> u32 {
        self.brownout_enter_ticks.max(1)
    }

    /// Brownout exit threshold, floored at one tick.
    pub fn exit_ticks(&self) -> u32 {
        self.brownout_exit_ticks.max(1)
    }
}

/// Client-side retry policy for `overloaded` responses: jittered
/// exponential back-off that honors the server's `retry_after_ms` hint.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RetryConfig {
    /// Total attempts including the first send (≥ 1). Exhaustion is a
    /// typed give-up error, never a silent drop.
    pub max_attempts: u32,
    /// Base back-off in milliseconds for the first retry; doubles per
    /// attempt.
    pub base_backoff_ms: u64,
    /// Upper bound on the exponential back-off (before jitter).
    pub max_backoff_ms: u64,
    /// Jitter fraction in `[0, 1]`: the final delay is scaled by a
    /// deterministic factor drawn from `[1 - jitter, 1 + jitter]`, so
    /// synchronized clients desynchronize instead of re-stampeding.
    pub jitter_frac: f64,
    /// Seed of the jitter stream (deterministic per client).
    pub seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 4,
            base_backoff_ms: 5,
            max_backoff_ms: 250,
            jitter_frac: 0.3,
            seed: 0x0BAD_CAFE,
        }
    }
}

/// One splitmix64 step — the jitter stream's deterministic generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryConfig {
    /// Total attempts, floored at one.
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// The delay before retry number `retry` (1-based), in milliseconds.
    ///
    /// The base is `max(server hint, base_backoff_ms × 2^(retry-1))`
    /// capped at `max_backoff_ms` — the server's `retry_after_ms` hint is
    /// honored as a floor, never ignored. Jitter then scales the delay by
    /// a deterministic factor from `[1 - jitter_frac, 1 + jitter_frac]`
    /// drawn from the `(seed, salt, retry)` stream, so two clients with
    /// different salts spread out while any one schedule stays exactly
    /// reproducible.
    pub fn backoff_ms(&self, retry: u32, hint_ms: Option<u64>, salt: u64) -> u64 {
        let shift = retry.saturating_sub(1).min(32);
        let expo = self
            .base_backoff_ms
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_ms);
        let base = expo.max(hint_ms.unwrap_or(0));
        let jitter = self.jitter_frac.clamp(0.0, 1.0);
        if jitter == 0.0 || base == 0 {
            return base;
        }
        let mut state = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x0100_0000_01B3))
            .wrapping_add(u64::from(retry).wrapping_mul(0x9E37_79B9));
        let unit = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 - jitter + 2.0 * jitter * unit;
        ((base as f64 * factor).round() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_tuned_preset() {
        let c = OverloadConfig::default();
        assert!(c.exit_ticks() > c.enter_ticks(), "exit must be hysteretic");
    }

    #[test]
    fn zeroed_limits_regulate_nothing() {
        let c = OverloadConfig {
            max_queue_depth: 0,
            max_session_inflight: 0,
            tick_budget_ms: 0,
            ..OverloadConfig::default()
        };
        assert!(c.enter_ticks() >= 1);
    }

    #[test]
    fn backoff_doubles_caps_and_honors_hints() {
        let r = RetryConfig {
            jitter_frac: 0.0,
            ..RetryConfig::default()
        };
        assert_eq!(r.backoff_ms(1, None, 0), 5);
        assert_eq!(r.backoff_ms(2, None, 0), 10);
        assert_eq!(r.backoff_ms(3, None, 0), 20);
        assert_eq!(r.backoff_ms(10, None, 0), r.max_backoff_ms);
        // The server hint is a floor.
        assert_eq!(r.backoff_ms(1, Some(40), 0), 40);
        assert_eq!(r.backoff_ms(4, Some(7), 0), 40);
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_salted() {
        let r = RetryConfig::default();
        let a = r.backoff_ms(2, None, 1);
        let b = r.backoff_ms(2, None, 1);
        assert_eq!(a, b, "same (seed, salt, retry) gives the same delay");
        let expo = 10.0;
        let lo = (expo * (1.0 - r.jitter_frac)).floor() as u64;
        let hi = (expo * (1.0 + r.jitter_frac)).ceil() as u64;
        for salt in 0..32u64 {
            let d = r.backoff_ms(2, None, salt);
            assert!((lo..=hi).contains(&d), "delay {d} outside [{lo}, {hi}]");
        }
        assert!(
            (0..32u64).map(|s| r.backoff_ms(2, None, s)).any(|d| d != a),
            "salts must spread the schedule"
        );
    }
}
