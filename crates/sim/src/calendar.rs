//! Event calendar for the fast-path simulation loop: one wake cycle per
//! component token, kept in a flat array.
//!
//! The fast-path loop (see [`crate::system::Soc`]) keeps one token per
//! schedulable component: each master (which folds in its gate's window
//! edges and its source's issue points), the DRAM controller (bank
//! timing, bus drain, refresh), the crossbar backlog and every software
//! controller. A token's *wake* is the earliest cycle at which ticking
//! that component could change simulation state; the calendar answers
//! "which cycle executes next?" and "who is due now?".
//!
//! A SoC has only a handful of tokens (5 to 8 in the shipped
//! scenarios), and an executed cycle usually has one or two of them due.
//! At that size a linear min-scan over the wake array beats any ordered
//! structure: it needs no bookkeeping on reschedule, no stale-entry
//! pruning and no sort, and the whole array fits in a cache line or two.

/// Wake cycle meaning "never".
pub const NEVER: u64 = u64::MAX;

/// A flat event calendar over dense component tokens.
#[derive(Debug)]
pub struct EventCalendar {
    /// Earliest wake per token; `NEVER` = unscheduled.
    wake: Vec<u64>,
    /// The last cycle the calendar was queried at. No wake may lie
    /// before it (checked in debug builds).
    now: u64,
}

impl EventCalendar {
    /// Creates a calendar for `tokens` components with all wakes at
    /// `NEVER`, starting at cycle `start`.
    pub fn new(tokens: usize, start: u64) -> Self {
        EventCalendar {
            wake: vec![NEVER; tokens],
            now: start,
        }
    }

    /// The wake of `token` (`NEVER` when unscheduled).
    #[cfg(test)]
    pub fn wake_of(&self, token: u32) -> u64 {
        self.wake[token as usize]
    }

    /// Schedules `token` at exactly `cycle`, superseding any previous
    /// wake (earlier or later).
    #[inline]
    pub fn set(&mut self, token: u32, cycle: u64) {
        debug_assert!(cycle >= self.now, "cannot schedule in the past");
        self.wake[token as usize] = cycle;
    }

    /// Schedules `token` at `cycle` only if that is earlier than its
    /// current wake.
    #[inline]
    pub fn set_min(&mut self, token: u32, cycle: u64) {
        let wake = &mut self.wake[token as usize];
        if cycle < *wake {
            debug_assert!(cycle >= self.now, "cannot schedule in the past");
            *wake = cycle;
        }
    }

    /// Unschedules `token`.
    #[cfg(test)]
    pub fn clear(&mut self, token: u32) {
        self.wake[token as usize] = NEVER;
    }

    /// Earliest cycle `>= now` at which any token is due, or `None` when
    /// nothing is scheduled.
    pub fn next_due(&mut self, now: u64) -> Option<u64> {
        debug_assert!(now >= self.now, "time cannot move backwards");
        self.now = now;
        let min = self.wake.iter().copied().min().unwrap_or(NEVER);
        debug_assert!(min >= now, "a wake lies in the past");
        (min != NEVER).then_some(min)
    }

    /// Collects every token due at exactly `now` into `out` (ascending
    /// token order) and marks them taken (`wake = NEVER`): the caller
    /// ticks them and re-schedules from their fresh `next_activity`.
    pub fn take_due(&mut self, now: u64, out: &mut Vec<u32>) {
        debug_assert!(now >= self.now, "time cannot move backwards");
        self.now = now;
        out.clear();
        for (token, wake) in self.wake.iter_mut().enumerate() {
            debug_assert!(*wake >= now, "a wake lies in the past");
            if *wake == now {
                *wake = NEVER;
                out.push(token as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Width of the timing wheel an earlier calendar used. The edge cases
    /// below straddle it, so they stay as regression tests.
    const NEAR_SLOTS: usize = 256;

    fn due_at(cal: &mut EventCalendar, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        cal.take_due(now, &mut out);
        out
    }

    #[test]
    fn near_and_far_scheduling() {
        let mut cal = EventCalendar::new(4, 0);
        cal.set(0, 3);
        cal.set(1, 300); // beyond the wheel: far heap
        cal.set(2, 70_000);
        assert_eq!(cal.next_due(0), Some(3));
        assert_eq!(due_at(&mut cal, 3), [0]);
        assert_eq!(cal.next_due(4), Some(300));
        assert_eq!(due_at(&mut cal, 300), [1]);
        assert_eq!(cal.next_due(301), Some(70_000));
        assert_eq!(due_at(&mut cal, 70_000), [2]);
        assert_eq!(cal.next_due(70_001), None);
    }

    #[test]
    fn reschedule_supersedes_lazily() {
        let mut cal = EventCalendar::new(2, 0);
        cal.set(0, 10);
        cal.set(0, 5); // earlier
        assert_eq!(cal.next_due(0), Some(5));
        assert_eq!(due_at(&mut cal, 5), [0]);
        // The stale entry at 10 must not resurface.
        assert_eq!(cal.next_due(6), None);

        cal.set(1, 20);
        cal.set(1, 40); // later: old entry at 20 is stale
        assert_eq!(cal.next_due(6), Some(40));
        assert!(due_at(&mut cal, 20).is_empty());
        assert_eq!(due_at(&mut cal, 40), [1]);
    }

    #[test]
    fn set_min_keeps_earlier_wake() {
        let mut cal = EventCalendar::new(1, 0);
        cal.set(0, 8);
        cal.set_min(0, 12); // no-op
        assert_eq!(cal.wake_of(0), 8);
        cal.set_min(0, 4);
        assert_eq!(cal.next_due(0), Some(4));
    }

    #[test]
    fn duplicate_set_same_cycle_fires_once() {
        let mut cal = EventCalendar::new(1, 0);
        cal.set(0, 7);
        cal.set(0, 7);
        assert_eq!(due_at(&mut cal, 7), [0]);
        assert_eq!(cal.next_due(8), None);
    }

    #[test]
    fn clear_unschedules() {
        let mut cal = EventCalendar::new(2, 0);
        cal.set(0, 9);
        cal.set(1, 500);
        cal.clear(0);
        cal.clear(1);
        assert_eq!(cal.next_due(0), None);
        assert!(due_at(&mut cal, 9).is_empty());
    }

    #[test]
    fn take_due_returns_tokens_sorted() {
        let mut cal = EventCalendar::new(5, 0);
        for t in [4u32, 1, 3, 0] {
            cal.set(t, 11);
        }
        assert_eq!(due_at(&mut cal, 11), [0, 1, 3, 4]);
    }

    #[test]
    fn wheel_wraparound_does_not_alias() {
        let mut cal = EventCalendar::new(2, 0);
        // Two wakes NEAR_SLOTS apart share a slot index.
        cal.set(0, 10);
        cal.set(1, 10 + NEAR_SLOTS as u64);
        assert_eq!(cal.next_due(0), Some(10));
        assert_eq!(due_at(&mut cal, 10), [0]);
        assert_eq!(cal.next_due(11), Some(10 + NEAR_SLOTS as u64));
        assert_eq!(due_at(&mut cal, 10 + NEAR_SLOTS as u64), [1]);
    }

    #[test]
    fn far_events_migrate_into_wheel() {
        let mut cal = EventCalendar::new(1, 0);
        cal.set(0, 1_000);
        // Cursor moves close enough that the wake enters the wheel.
        assert_eq!(cal.next_due(900), Some(1_000));
        assert_eq!(due_at(&mut cal, 1_000), [0]);
    }

    #[test]
    fn wake_exactly_on_wheel_boundary_waits_in_far_heap() {
        let mut cal = EventCalendar::new(3, 0);
        // With the cursor at 0 the wheel covers [0, NEAR_SLOTS): the last
        // in-window cycle is NEAR_SLOTS-1, and a wake at exactly
        // NEAR_SLOTS is the first far cycle. Both map to adjacent slots,
        // and the boundary one must not be visible a full lap early.
        let edge = NEAR_SLOTS as u64;
        cal.set(0, edge - 1);
        cal.set(1, edge);
        cal.set(2, edge); // two tokens sharing the boundary cycle
        assert_eq!(cal.next_due(0), Some(edge - 1));
        assert_eq!(due_at(&mut cal, edge - 1), [0]);
        // Advancing one cycle pulls the window forward; the boundary
        // wakes migrate out of the heap and fire exactly once.
        assert_eq!(cal.next_due(edge), Some(edge));
        assert_eq!(due_at(&mut cal, edge), [1, 2]);
        assert_eq!(cal.next_due(edge + 1), None);
    }

    #[test]
    fn boundary_reschedule_across_the_window_edge() {
        let mut cal = EventCalendar::new(1, 0);
        // Push a token back and forth across the window edge: the final
        // wake is authoritative, the superseded entries (one in the
        // wheel, one in the heap) must both be dropped lazily.
        let edge = NEAR_SLOTS as u64;
        cal.set(0, edge - 1); // wheel
        cal.set(0, edge + 5); // heap — supersedes the wheel entry
        cal.set(0, edge - 2); // wheel again — supersedes the heap entry
        assert_eq!(cal.next_due(0), Some(edge - 2));
        assert_eq!(due_at(&mut cal, edge - 2), [0]);
        assert!(due_at(&mut cal, edge - 1).is_empty());
        assert_eq!(cal.next_due(edge), None);
        assert!(due_at(&mut cal, edge + 5).is_empty());
    }

    #[test]
    fn far_promotion_into_wrapped_slot() {
        let mut cal = EventCalendar::new(2, 0);
        cal.set(0, 300); // far from cursor 0
        cal.set(1, 2_000); // stays far

        // At cursor 200 the window is [200, 456): cycle 300 is promoted
        // into slot 300 % 256 = 44, numerically *behind* the cursor's own
        // slot (200 % 256 = 200) — the wrapped half of the wheel. The
        // scan must still find it at the right cycle.
        assert_eq!(cal.next_due(200), Some(300));
        assert_eq!(due_at(&mut cal, 300), [0]);
        // And the wrapped entry must not resurface a lap later.
        assert_eq!(cal.next_due(301), Some(2_000));
        assert_eq!(due_at(&mut cal, 2_000), [1]);
        assert_eq!(cal.next_due(2_001), None);
    }

    #[test]
    fn dense_steady_state() {
        // Simulates the contended regime: one token rescheduled every few
        // cycles for a long stretch, interleaved with a periodic far wake.
        let mut cal = EventCalendar::new(2, 0);
        let mut now = 0;
        cal.set(1, 10_000);
        let mut fired = 0;
        while now < 12_000 {
            cal.set(0, now + 3);
            let next = cal.next_due(now + 1).unwrap();
            let mut due = Vec::new();
            cal.take_due(next, &mut due);
            for t in due {
                if t == 1 {
                    fired += 1;
                    assert_eq!(next, 10_000);
                }
            }
            now = next;
        }
        assert_eq!(fired, 1);
    }

    #[test]
    fn near_and_far_wakes_fire_in_order() {
        let mut cal = EventCalendar::new(3, 0);
        cal.set(0, 5);
        cal.set(1, 5);
        cal.set(2, 100_000);
        assert_eq!(cal.next_due(0), Some(5));
        assert_eq!(due_at(&mut cal, 5), [0, 1]);
        assert_eq!(cal.wake_of(0), NEVER, "taken tokens must be rescheduled");
        assert_eq!(cal.next_due(6), Some(100_000));
    }

    /// Random operation sequences against a `BTreeSet<(cycle, token)>`
    /// reference holding each scheduled token once.
    #[test]
    fn matches_an_ordered_set_model() {
        for seed in 0..200u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let tokens = rng.gen_range(1..=64u32);
            let mut cal = EventCalendar::new(tokens as usize, 0);
            let mut model: BTreeSet<(u64, u32)> = BTreeSet::new();
            let mut wake = vec![NEVER; tokens as usize];
            let mut now = 0u64;
            let mut due = Vec::new();
            for _ in 0..400 {
                let token = rng.gen_range(0..tokens);
                // Mostly near wakes, so tokens collide on the same cycle.
                let horizon = rng.gen_range(1..=600u64);
                let cycle = now + rng.gen_range(0..=horizon);
                let op = rng.gen_range(0..5u32);
                let before = wake[token as usize];
                let after = match op {
                    0 => {
                        cal.set(token, cycle);
                        cycle
                    }
                    1 => {
                        cal.set_min(token, cycle);
                        cycle.min(before)
                    }
                    2 => {
                        cal.clear(token);
                        NEVER
                    }
                    _ => before,
                };
                model.remove(&(before, token));
                if after != NEVER {
                    model.insert((after, token));
                }
                wake[token as usize] = after;
                match op {
                    0..=2 => {}
                    3 => {
                        let expect = model.first().map(|&(c, _)| c);
                        assert_eq!(cal.next_due(now), expect, "seed {seed}");
                    }
                    _ => {
                        let Some(&(next, _)) = model.first() else {
                            continue;
                        };
                        now = next;
                        cal.take_due(now, &mut due);
                        let expect: Vec<u32> = model
                            .iter()
                            .take_while(|&&(c, _)| c == now)
                            .map(|&(_, t)| t)
                            .collect();
                        assert_eq!(due, expect, "seed {seed}");
                        for &t in &expect {
                            model.remove(&(now, t));
                            wake[t as usize] = NEVER;
                        }
                    }
                }
                for t in 0..tokens {
                    assert_eq!(cal.wake_of(t), wake[t as usize], "seed {seed}");
                }
            }
        }
    }
}
