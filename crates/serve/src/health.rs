//! Per-shard health tracking: a lock-free `Healthy → Suspect → Down`
//! state machine driven by consecutive health-relevant failures
//! (worker panics, internal errors, deadline overruns) and healed by
//! consecutive successes or a supervisor respawn.
//!
//! All transitions go through relaxed atomics — the query path reads
//! health with a single `AtomicU8` load and never takes a lock, so
//! R10/R11 stay clean. The streak counters tolerate benign races
//! between workers of the same shard: a lost increment can only delay
//! a transition by one observation, never corrupt the state machine.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Health states of one shard, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShardHealth {
    /// Serving normally; owns its key range.
    Healthy,
    /// Recently failing (or freshly respawned); still serving, but one
    /// more failure streak demotes it to `Down`.
    Suspect,
    /// Quarantined: its requests are re-routed to a live shard.
    Down,
}

impl ShardHealth {
    /// Stable wire byte for this state (`MetricsSnapshot` packing).
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            ShardHealth::Healthy => 0,
            ShardHealth::Suspect => 1,
            ShardHealth::Down => 2,
        }
    }

    /// Inverse of [`code`](Self::code); unknown bytes clamp to `Down`
    /// (the conservative reading for a health byte we cannot parse).
    #[must_use]
    pub fn from_code(code: u8) -> Self {
        match code {
            0 => ShardHealth::Healthy,
            1 => ShardHealth::Suspect,
            _ => ShardHealth::Down,
        }
    }
}

/// Lock-free health cell for one shard.
#[derive(Debug, Default)]
pub struct HealthCell {
    /// Current [`ShardHealth`] as its `code()` byte.
    state: AtomicU8,
    /// Consecutive health-relevant failures since the last success.
    fail_streak: AtomicU64,
    /// Consecutive successes observed while not `Healthy`.
    ok_streak: AtomicU64,
}

/// Consecutive failures that demote `Healthy` to `Suspect`.
const SUSPECT_AFTER: u64 = 3;
/// Consecutive failures that demote to `Down`.
const DOWN_AFTER: u64 = 8;
/// Consecutive successes that promote one level back up.
const RECOVER_AFTER: u64 = 4;

impl HealthCell {
    /// Current state (single relaxed load; safe on the query path).
    #[must_use]
    pub fn get(&self) -> ShardHealth {
        ShardHealth::from_code(self.state.load(Ordering::Relaxed))
    }

    /// Forces a state and clears both streaks. Used by the respawn
    /// supervisor and by scripted failure injection in tests/chaos.
    pub fn set(&self, next: ShardHealth) {
        self.fail_streak.store(0, Ordering::Relaxed);
        self.ok_streak.store(0, Ordering::Relaxed);
        self.state.store(next.code(), Ordering::Relaxed);
    }

    /// Records a health-relevant failure (panic, internal error, or
    /// deadline overrun). Returns the new state if this observation
    /// demoted the shard, `None` if the state is unchanged.
    pub fn record_failure(&self) -> Option<ShardHealth> {
        let streak = self.fail_streak.fetch_add(1, Ordering::Relaxed) + 1;
        self.ok_streak.store(0, Ordering::Relaxed);
        let next = match self.get() {
            ShardHealth::Healthy if streak >= DOWN_AFTER => ShardHealth::Down,
            ShardHealth::Healthy if streak >= SUSPECT_AFTER => ShardHealth::Suspect,
            ShardHealth::Suspect if streak >= DOWN_AFTER => ShardHealth::Down,
            _ => return None,
        };
        self.state.store(next.code(), Ordering::Relaxed);
        Some(next)
    }

    /// Records a successful query. Resets the failure streak; while
    /// demoted, `RECOVER_AFTER` consecutive successes promote the
    /// shard one level (`Down → Suspect → Healthy`). Returns the new
    /// state if this observation promoted the shard.
    pub fn record_success(&self) -> Option<ShardHealth> {
        self.fail_streak.store(0, Ordering::Relaxed);
        let current = self.get();
        if current == ShardHealth::Healthy {
            return None;
        }
        let streak = self.ok_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak < RECOVER_AFTER {
            return None;
        }
        self.ok_streak.store(0, Ordering::Relaxed);
        let next = match current {
            ShardHealth::Down => ShardHealth::Suspect,
            _ => ShardHealth::Healthy,
        };
        self.state.store(next.code(), Ordering::Relaxed);
        Some(next)
    }

    /// Immediate quarantine (caught worker panic with a respawn
    /// snapshot configured). Returns `true` if the shard was not
    /// already `Down`.
    pub fn quarantine(&self) -> bool {
        let was = self.state.swap(ShardHealth::Down.code(), Ordering::Relaxed);
        self.fail_streak.store(0, Ordering::Relaxed);
        self.ok_streak.store(0, Ordering::Relaxed);
        was != ShardHealth::Down.code()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_streaks_walk_healthy_suspect_down() {
        let cell = HealthCell::default();
        for streak in 1..=DOWN_AFTER {
            let want = match streak {
                SUSPECT_AFTER => Some(ShardHealth::Suspect),
                DOWN_AFTER => Some(ShardHealth::Down),
                _ => None,
            };
            assert_eq!(cell.record_failure(), want, "failure {streak}");
        }
        assert_eq!((SUSPECT_AFTER, DOWN_AFTER), (3, 8));
        assert_eq!(cell.get(), ShardHealth::Down);
    }

    #[test]
    fn a_success_resets_the_failure_streak() {
        let cell = HealthCell::default();
        for _ in 0..2 * DOWN_AFTER {
            for _ in 1..SUSPECT_AFTER {
                assert_eq!(cell.record_failure(), None);
            }
            assert_eq!(cell.record_success(), None);
        }
        assert_eq!(cell.get(), ShardHealth::Healthy);
    }

    #[test]
    fn success_streaks_promote_one_level_at_a_time() {
        let cell = HealthCell::default();
        cell.set(ShardHealth::Down);
        for next in [ShardHealth::Suspect, ShardHealth::Healthy] {
            for _ in 1..RECOVER_AFTER {
                assert_eq!(cell.record_success(), None);
            }
            assert_eq!(cell.record_success(), Some(next));
        }
        assert_eq!(RECOVER_AFTER, 4);
    }

    #[test]
    fn quarantine_is_idempotent_and_reports_the_first_transition() {
        let cell = HealthCell::default();
        assert!(cell.quarantine());
        assert!(!cell.quarantine());
        assert_eq!(cell.get(), ShardHealth::Down);
    }

    #[test]
    fn codes_round_trip_and_unknown_bytes_clamp_to_down() {
        for h in [
            ShardHealth::Healthy,
            ShardHealth::Suspect,
            ShardHealth::Down,
        ] {
            assert_eq!(ShardHealth::from_code(h.code()), h);
        }
        assert_eq!(ShardHealth::from_code(0xff), ShardHealth::Down);
    }
}
