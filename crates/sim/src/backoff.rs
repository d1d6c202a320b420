//! Seeded, deterministic exponential backoff with jitter.
//!
//! A fixed-interval retry timer that re-drives *every* pending transaction
//! is the congestive-collapse mechanism of an open-loop flood: once the work
//! added per tick exceeds the work the cluster can absorb per tick, the
//! backlog grows without bound. A [`BackoffPolicy`] spaces each source's
//! retries on a capped exponential schedule instead, and decorrelates retry
//! cohorts with deterministic jitter: the
//! jitter fraction is a pure hash of `(salt, attempt)`, so a simulated run is
//! bit-identical for a given seed (no RNG is consulted) while two
//! transactions that started together stop retrying in lockstep.
//!
//! The policy is pure arithmetic over [`SimDuration`]s and is therefore
//! backend-agnostic: the simulator checks deadlines against virtual time, the
//! threaded runtime against the wall clock, both through the same
//! `Context::set_timer` seam.

use crate::time::SimDuration;

/// A capped exponential-backoff schedule with deterministic jitter.
///
/// `delay(attempt, salt)` is `base * multiplier^attempt`, capped at `max`,
/// then jittered by up to ±`jitter_pct`% using a hash of `(salt, attempt)`.
/// Attempt 0 always returns exactly `base` (no jitter), so the *first* retry
/// of a transaction falls on the stacks' fixed 20 ms tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Upper bound on the (pre-jitter) delay.
    pub max: SimDuration,
    /// Growth factor per attempt.
    pub multiplier: u32,
    /// Jitter amplitude in percent of the delay (0 = none).
    pub jitter_pct: u32,
}

impl BackoffPolicy {
    /// The default retry schedule of the flow-control layer: 20 ms doubling
    /// to a 320 ms cap, ±25% jitter from the second attempt on.
    pub fn exponential() -> Self {
        BackoffPolicy {
            base: SimDuration::from_millis(20),
            max: SimDuration::from_millis(320),
            multiplier: 2,
            jitter_pct: 25,
        }
    }

    /// The delay before retry number `attempt` (0-based). Deterministic in
    /// `(self, attempt, salt)`; see the type docs for the schedule.
    pub fn delay(&self, attempt: u32, salt: u64) -> SimDuration {
        let base = self.base.as_micros().max(1);
        let max = self.max.as_micros().max(base);
        let mut micros = base;
        if self.multiplier > 1 {
            for _ in 0..attempt.min(63) {
                micros = micros.saturating_mul(u64::from(self.multiplier));
                if micros >= max {
                    break;
                }
            }
        }
        micros = micros.min(max);
        if attempt > 0 && self.jitter_pct > 0 {
            // Jitter in [-jitter_pct, +jitter_pct]% from a pure hash, so the
            // schedule is seeded by the salt rather than by a shared RNG.
            let h = splitmix64(salt ^ (u64::from(attempt) << 32) ^ 0x9e37_79b9_7f4a_7c15);
            let span = micros * u64::from(self.jitter_pct) / 100;
            if span > 0 {
                let offset = h % (2 * span + 1);
                micros = micros - span + offset;
            }
        }
        SimDuration::from_micros(micros.max(1))
    }
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy::exponential()
    }
}

/// Per-retry-source bookkeeping: which attempt is next and when it is due.
///
/// The owner checks `due(now)` on its (coarse, fixed-interval) retry tick and
/// calls [`BackoffState::fired`] after re-driving, which schedules the next
/// attempt per the policy. [`BackoffState::reset`] is called on progress, so
/// a source that starts making headway returns to the fast schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackoffState {
    /// Retries fired since the last reset.
    pub attempt: u32,
    /// Virtual (or wall-clock-mapped) time before which the next retry must
    /// not fire, as microseconds since the time origin.
    pub next_micros: u64,
}

impl BackoffState {
    /// A fresh state whose first retry is due `policy.delay(0, salt)` after
    /// `now_micros`.
    pub fn armed(policy: &BackoffPolicy, salt: u64, now_micros: u64) -> Self {
        BackoffState {
            attempt: 0,
            next_micros: now_micros + policy.delay(0, salt).as_micros(),
        }
    }

    /// `true` if the next retry is due at `now_micros`.
    pub fn due(&self, now_micros: u64) -> bool {
        now_micros >= self.next_micros
    }

    /// Records that a retry fired at `now_micros` and schedules the next one.
    pub fn fired(&mut self, policy: &BackoffPolicy, salt: u64, now_micros: u64) {
        self.attempt = self.attempt.saturating_add(1);
        self.next_micros = now_micros + policy.delay(self.attempt, salt).as_micros();
    }

    /// Progress was made: return to the fast schedule.
    pub fn reset(&mut self, policy: &BackoffPolicy, salt: u64, now_micros: u64) {
        *self = BackoffState::armed(policy, salt, now_micros);
    }
}

/// SplitMix64: a tiny, well-distributed integer hash (public domain
/// constants), used for jitter so no shared RNG state is consumed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_attempt_is_exactly_base_and_growth_is_capped() {
        let p = BackoffPolicy::exponential();
        assert_eq!(p.delay(0, 99), p.base, "attempt 0 is not jittered");
        let mut prev = p.delay(0, 99).as_micros();
        for attempt in 1..12 {
            let d = p.delay(attempt, 99).as_micros();
            // Never above cap + jitter span.
            let bound = p.max.as_micros() * (100 + u64::from(p.jitter_pct)) / 100;
            assert!(d <= bound, "attempt {attempt}: {d} > {bound}");
            // Grows (up to jitter) until the cap.
            if prev * 2 < p.max.as_micros() / 2 {
                assert!(d > prev, "attempt {attempt} did not grow: {d} <= {prev}");
            }
            prev = d;
        }
    }

    #[test]
    fn jitter_is_deterministic_and_salt_dependent() {
        let p = BackoffPolicy::exponential();
        assert_eq!(p.delay(3, 1), p.delay(3, 1), "same inputs, same delay");
        let distinct = (0..32u64)
            .map(|salt| p.delay(3, salt).as_micros())
            .collect::<std::collections::BTreeSet<_>>();
        assert!(
            distinct.len() > 8,
            "jitter decorrelates salts: {distinct:?}"
        );
    }

    #[test]
    fn state_walks_the_schedule_and_resets() {
        let p = BackoffPolicy::exponential();
        let mut s = BackoffState::armed(&p, 5, 1_000);
        assert!(!s.due(1_000));
        assert!(s.due(1_000 + p.base.as_micros()));
        let fire_at = s.next_micros;
        s.fired(&p, 5, fire_at);
        assert_eq!(s.attempt, 1);
        assert!(s.next_micros > fire_at + p.base.as_micros() / 2);
        s.reset(&p, 5, fire_at);
        assert_eq!(s.attempt, 0);
        assert_eq!(s.next_micros, fire_at + p.base.as_micros());
    }
}
