//! Periodic steady-state detection and algebraic leaping.
//!
//! A saturated regulated run executes millions of byte-identical window
//! periods: the machine returns to the *same architectural state, one
//! period later*. This module detects that recurrence at quiesced
//! boundaries (zero transactions in flight — the same boundaries
//! `fgqos-snap` snapshots at) and then advances the clock by `k` whole
//! periods in one step, applying every per-period counter delta `×k`
//! instead of simulating the cycles.
//!
//! # How a leap is proven legal
//!
//! 1. At an eligible boundary the full snapshot stream is captured
//!    through [`fgqos_snap::StateHasher::typed_recording`] and keyed by its
//!    [`TypedSnapshot::rebased_key`] — a fingerprint invariant under
//!    time translation (cycle stamps rebased to the boundary, counter
//!    values excluded) plus the per-component pending-wake structure.
//! 2. A key hit against an earlier boundary proposes a period `P`;
//!    [`TypedSnapshot::lockstep_deltas`] then verifies the two records
//!    differ *only* as a time translation — byte-identical plain state,
//!    every cycle stamp frozen or advanced by exactly `P` — and yields
//!    the per-period delta of every counter.
//! 3. Deterministic evolution is a function of `(state, absolute
//!    time)`. The state part repeats by (2); the absolute-time part is
//!    bounded by the [`LeapSupport`] constraints each component
//!    declares: one-shot calendar events (phase writes, fault
//!    boundaries, refresh storms) bound the landing via `until`,
//!    modular behaviors (burst shaping) force `P` to a multiple of
//!    their modulus, and finite sources bound `k` so no source
//!    exhausts mid-leap. Anything the engine cannot reason about
//!    (traces, window series, custom components) denies leaping
//!    outright — the default.
//! 4. `k` is clamped so the landing stays at or before the run
//!    deadline and strictly before every `until` horizon, then the
//!    merged stream from [`TypedSnapshot::leap`] is loaded back — the
//!    exact bytes a cycle-by-cycle run would reach at `c + k·P`.
//!
//! `FGQOS_NO_LEAP=1` disables the engine, and the naive core
//! (`FGQOS_NAIVE=1`) never leaps. Bit-identity
//! against the plain calendar core is pinned by proptests in
//! `tests/fast_forward.rs` and `tests/scenario_v2.rs`.

use crate::calendar::NEVER;
use crate::system::Soc;
use crate::time::Cycle;
use fgqos_snap::TypedSnapshot;

/// Minimum cycles between fingerprinted boundaries: throttles hashing
/// so short quiesce/wake oscillations cost nothing.
const MIN_STRIDE: u64 = 64;

/// Backoff ceiling for the fingerprint stride. A fingerprint walks the
/// whole snapshot stream (FNV is a serial per-byte fold — tens of
/// microseconds per boundary, the cost of simulating thousands of
/// cycles), so on workloads that never settle into a period every
/// fingerprint is a pure tax on the fast run loop. The stride doubles
/// from [`MIN_STRIDE`] after each boundary that matches nothing and
/// resets as soon as a recurrence is detected, bounding the tax at
/// O(log horizon) walks per aperiodic run. The cost is detection
/// latency for machines that only settle into a period late: by then
/// samples are sparse, and a match must wait for two samples to land
/// on the same phase.
const MAX_STRIDE: u64 = 1 << 22;

/// Recurrence table capacity (boundary records kept, FIFO-evicted).
const TABLE_CAP: usize = 32;

/// A component's answer to "may the clock leap over you?".
///
/// Constraints combine with [`merge`](LeapSupport::merge): denial is
/// absorbing, budgets and horizons take the tightest value, moduli take
/// the least common multiple. [`LeapSupport::deny`] is the default on
/// every seam — components opt *in* by describing exactly how their
/// behavior depends on absolute time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeapSupport {
    /// Leaping is never legal over this component (traces, window
    /// series, or state the engine cannot reason about).
    pub deny: bool,
    /// Remaining requests this component can produce before its
    /// behavior changes (`is_done` flips); `None` = unbounded. The leap
    /// lands with at least one left, so done-flips stay on simulated
    /// cycles.
    pub budget: Option<u64>,
    /// Absolute cycle of the component's next one-shot behavior change
    /// (phase write, fault boundary, storm edge); the leap lands at or
    /// before it.
    pub until: Option<Cycle>,
    /// The component's behavior depends on `now % modulus` (burst
    /// shaping); the period must be a multiple of it. `1` = no
    /// constraint.
    pub modulus: u64,
}

impl LeapSupport {
    /// Refuses leaping outright — the safe default.
    pub fn deny() -> Self {
        LeapSupport {
            deny: true,
            budget: None,
            until: None,
            modulus: 1,
        }
    }

    /// No constraint: the component's future depends only on its
    /// snapshotted state, never on absolute time.
    pub fn clear() -> Self {
        LeapSupport {
            deny: false,
            budget: None,
            until: None,
            modulus: 1,
        }
    }

    /// At most `remaining` further requests before behavior changes.
    pub fn budget(remaining: u64) -> Self {
        LeapSupport {
            budget: Some(remaining),
            ..Self::clear()
        }
    }

    /// One-shot behavior change at absolute cycle `cycle`.
    pub fn until(cycle: Cycle) -> Self {
        LeapSupport {
            until: Some(cycle),
            ..Self::clear()
        }
    }

    /// Behavior depends on `now % modulus` (must be non-zero).
    pub fn modulus(modulus: u64) -> Self {
        LeapSupport {
            modulus: modulus.max(1),
            ..Self::clear()
        }
    }

    /// Combines two constraint sets (see the type-level docs).
    pub fn merge(self, other: LeapSupport) -> Self {
        LeapSupport {
            deny: self.deny || other.deny,
            budget: match (self.budget, other.budget) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            until: match (self.until, other.until) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            modulus: lcm(self.modulus.max(1), other.modulus.max(1)),
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn lcm(a: u64, b: u64) -> u64 {
    if a == b {
        return a;
    }
    (a / gcd(a, b)).saturating_mul(b)
}

/// Point-in-time snapshot of the leap engine's telemetry (see
/// [`Soc::leap_telemetry`](crate::system::Soc::leap_telemetry)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeapTelemetry {
    /// Whether the engine is still armed (off under the naive core,
    /// `FGQOS_NO_LEAP=1`, or after a component denied support).
    pub enabled: bool,
    /// Periodic pairs proven by lockstep verification.
    pub periods_detected: u64,
    /// Total cycles skipped algebraically instead of simulated.
    pub cycles_skipped: u64,
    /// Leaps applied.
    pub leaps: u64,
}

/// One remembered boundary: its translation-invariant key, the typed
/// record, and each master's remaining-request headroom at capture
/// (`u64::MAX` = unbounded), used to bound `k` so no source exhausts
/// inside a leaped span.
struct BoundaryRecord {
    key: u64,
    cycle: u64,
    record: TypedSnapshot,
    headrooms: Vec<u64>,
}

/// Per-`Soc` leap engine state and telemetry. Not part of the snapshot
/// stream: leaping is an execution strategy, not architectural state.
pub(crate) struct LeapState {
    /// Off when the naive core runs, `FGQOS_NO_LEAP=1` is set, or a
    /// component denied support (denials are structural, so one denial
    /// disables the engine for the rest of the run).
    pub(crate) enabled: bool,
    table: Vec<BoundaryRecord>,
    /// Brent-style probe for periods beyond the FIFO table's span: one
    /// anchor record compared against every boundary inside a window of
    /// `brent_power` boundaries, then re-anchored and doubled. Detects
    /// any period up to the run length with O(1) extra memory (refresh
    /// intervals make real steady-state periods run to the lcm of every
    /// component period — easily millions of cycles).
    brent: Option<BoundaryRecord>,
    /// Current Brent window length in boundaries.
    brent_power: u64,
    /// Boundaries seen since the Brent anchor was (re)planted.
    brent_count: u64,
    /// Last boundary fingerprinted or landed on (throttle anchor).
    last_boundary: u64,
    /// Current fingerprint throttle in cycles: [`MIN_STRIDE`] while the
    /// engine is finding (or riding) a period, doubling toward
    /// [`MAX_STRIDE`] while boundaries keep matching nothing.
    stride: u64,
    /// Periodic pairs proven by lockstep verification.
    pub(crate) periods_detected: u64,
    /// Total cycles skipped algebraically.
    pub(crate) cycles_skipped: u64,
    /// Leaps applied (`k ≥ 1`).
    pub(crate) leaps: u64,
}

impl LeapState {
    pub(crate) fn new(enabled: bool) -> Self {
        LeapState {
            enabled,
            table: Vec::new(),
            brent: None,
            brent_power: TABLE_CAP as u64,
            brent_count: 0,
            last_boundary: 0,
            stride: MIN_STRIDE,
            periods_detected: 0,
            cycles_skipped: 0,
            leaps: 0,
        }
    }

    /// Drops the recurrence records, keeping the telemetry.
    pub(crate) fn forget_history(&mut self) {
        self.table = Vec::new();
        self.brent = None;
    }

    /// Recurrence records held (FIFO table plus Brent anchor).
    #[cfg(test)]
    pub(crate) fn records(&self) -> usize {
        self.table.len() + usize::from(self.brent.is_some())
    }
}

impl std::fmt::Debug for LeapState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeapState")
            .field("enabled", &self.enabled)
            .field("table", &self.table.len())
            .field("periods_detected", &self.periods_detected)
            .field("cycles_skipped", &self.cycles_skipped)
            .field("leaps", &self.leaps)
            .finish()
    }
}

impl Soc {
    /// Collects the merged [`LeapSupport`] of every component plus each
    /// master's request headroom, or `None` if any component denies.
    fn collect_leap_support(&self, now: Cycle) -> Option<(LeapSupport, Vec<u64>)> {
        let mut merged = LeapSupport::clear();
        let mut headrooms = Vec::with_capacity(self.masters.len());
        for m in &self.masters {
            let s = m.leap_support(now);
            if s.deny {
                return None;
            }
            headrooms.push(s.budget.unwrap_or(u64::MAX));
            merged = merged.merge(LeapSupport { budget: None, ..s });
        }
        merged = merged.merge(self.dram.leap_support(now));
        for c in &self.controllers {
            merged = merged.merge(c.leap_support(now));
        }
        if merged.deny {
            return None;
        }
        Some((merged, headrooms))
    }

    /// Pending-wake structure at `now`: each component's
    /// `next_activity − now` horizon (`u64::MAX` = never). Folded into
    /// the recurrence key so two different phases of the same window
    /// with coincidentally equal rebased state stay distinct.
    fn wake_offsets(&self, now: Cycle) -> Vec<u64> {
        let off = |c: Option<Cycle>| c.map_or(u64::MAX, |c| c.get().saturating_sub(now.get()));
        let mut v: Vec<u64> = self
            .masters
            .iter()
            .map(|m| off(m.next_activity(now)))
            .collect();
        v.push(off(self.dram.next_activity(now)));
        for c in &self.controllers {
            v.push(off(c.next_activity(now)));
        }
        v
    }

    /// The leap hook, called by the fast run loop at a quiesced
    /// boundary. Fingerprints the state, probes the recurrence table,
    /// and on a verified period leaps as far as the constraints allow
    /// (landing at or before `deadline`). Returns `true` when the clock
    /// moved — the caller must rebuild its event calendar.
    pub(crate) fn maybe_leap(&mut self, deadline: Cycle) -> bool {
        let now = self.cycle;
        if !self.leap.enabled
            || now.get() < self.leap.last_boundary + self.leap.stride
            || deadline <= now
        {
            return false;
        }
        let Some((support, headrooms)) = self.collect_leap_support(now) else {
            // Denials are structural (traces, window series, unsupported
            // components): stop probing for the rest of the run.
            self.leap.enabled = false;
            self.leap.table.clear();
            self.leap.brent = None;
            return false;
        };
        let record = self.typed_state();
        let key = record.rebased_key(now.get(), &self.wake_offsets(now));
        self.leap.last_boundary = now.get();

        // Probe: recent boundaries (FIFO table, catches short periods
        // within a few windows) then the Brent anchor (catches periods
        // of any length once its doubling window spans one).
        let mut detected = 0u64;
        let mut proposal = None;
        for entry in self.leap.table.iter().rev().chain(self.leap.brent.iter()) {
            if entry.key != key || entry.cycle >= now.get() {
                continue;
            }
            let period = now.get() - entry.cycle;
            if !period.is_multiple_of(support.modulus) {
                continue;
            }
            let Some(deltas) = record.lockstep_deltas(&entry.record, period) else {
                continue;
            };
            detected += 1;
            let Some(k) = leap_count(
                now.get(),
                period,
                deadline,
                &support,
                &headrooms,
                &entry.headrooms,
            ) else {
                continue;
            };
            proposal = Some((period, k, deltas));
            break;
        }
        self.leap.periods_detected += detected;

        if let Some((period, k, deltas)) = proposal {
            let merged = record.leap(&deltas, k);
            self.load_state(&merged)
                .expect("leaped snapshot stream must load: same machine, same structure");
            self.leap.cycles_skipped += k * period;
            self.leap.leaps += 1;
            self.leap.last_boundary = self.cycle.get();
            self.leap.stride = MIN_STRIDE;
            return true;
        }

        // No landing: remember this boundary. A detected-but-unleapable
        // period (constraints bounded k below 1) keeps the stride dense;
        // a boundary matching nothing backs the stride off so aperiodic
        // workloads stop paying the fingerprint tax.
        self.leap.stride = if detected > 0 {
            MIN_STRIDE
        } else {
            (self.leap.stride * 2).min(MAX_STRIDE)
        };
        // The Brent probe re-anchors (and doubles its window) once
        // `brent_power` boundaries have passed the current anchor.
        self.leap.brent_count += 1;
        match &self.leap.brent {
            None => {
                self.leap.brent = Some(BoundaryRecord {
                    key,
                    cycle: now.get(),
                    record: record.clone(),
                    headrooms: headrooms.clone(),
                });
                self.leap.brent_count = 0;
            }
            Some(_) if self.leap.brent_count >= self.leap.brent_power => {
                self.leap.brent = Some(BoundaryRecord {
                    key,
                    cycle: now.get(),
                    record: record.clone(),
                    headrooms: headrooms.clone(),
                });
                self.leap.brent_power *= 2;
                self.leap.brent_count = 0;
            }
            Some(_) => {}
        }
        if self.leap.table.len() == TABLE_CAP {
            self.leap.table.remove(0);
        }
        self.leap.table.push(BoundaryRecord {
            key,
            cycle: now.get(),
            record,
            headrooms,
        });
        false
    }
}

/// Largest legal `k ≥ 1` for a leap from `now` by `period`-cycle steps,
/// or `None` when no constraint bounds the leap or the bound is < 1.
fn leap_count(
    now: u64,
    period: u64,
    deadline: Cycle,
    support: &LeapSupport,
    headrooms: &[u64],
    earlier_headrooms: &[u64],
) -> Option<u64> {
    let mut k: Option<u64> = None;
    let mut bound = |limit: u64| k = Some(k.map_or(limit, |k| k.min(limit)));
    if deadline.get() != NEVER {
        bound((deadline.get() - now) / period);
    }
    if let Some(until) = support.until {
        bound(until.get().saturating_sub(now) / period);
    }
    if headrooms.len() != earlier_headrooms.len() {
        return None;
    }
    for (&h2, &h1) in headrooms.iter().zip(earlier_headrooms) {
        if h2 == u64::MAX && h1 == u64::MAX {
            continue; // unbounded source
        }
        // Headroom shrinks by the per-period issue count; land with at
        // least one request left so `is_done` can only flip on a
        // simulated cycle.
        let spent = h1.checked_sub(h2)?;
        if spent > 0 {
            bound(h2.checked_sub(1)?.checked_div(spent)?);
        }
    }
    k.filter(|&k| k >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_merge_combines_constraints() {
        let a = LeapSupport::budget(10).merge(LeapSupport::until(Cycle::new(500)));
        assert_eq!(a.budget, Some(10));
        assert_eq!(a.until, Some(Cycle::new(500)));
        let b = a.merge(LeapSupport::budget(3).merge(LeapSupport::until(Cycle::new(900))));
        assert_eq!(b.budget, Some(3));
        assert_eq!(b.until, Some(Cycle::new(500)));
        assert!(!b.deny);
        assert!(b.merge(LeapSupport::deny()).deny);
        let m = LeapSupport::modulus(6).merge(LeapSupport::modulus(4));
        assert_eq!(m.modulus, 12);
        assert_eq!(LeapSupport::clear().merge(LeapSupport::clear()).modulus, 1);
    }

    #[test]
    fn leap_count_respects_every_bound() {
        let clear = LeapSupport::clear();
        // Deadline alone: land at or before it.
        assert_eq!(
            leap_count(1_000, 100, Cycle::new(2_050), &clear, &[], &[]),
            Some(10)
        );
        // Until horizon tightens it.
        let sup = LeapSupport::until(Cycle::new(1_350));
        assert_eq!(
            leap_count(1_000, 100, Cycle::new(2_050), &sup, &[], &[]),
            Some(3)
        );
        // Headroom: 7 left, 2 spent per period -> land with >= 1 left.
        assert_eq!(
            leap_count(1_000, 100, Cycle::new(u64::MAX - 1), &clear, &[7], &[9]),
            Some(3)
        );
        // Unbounded everything: no legal k.
        assert_eq!(
            leap_count(
                1_000,
                100,
                Cycle::new(NEVER),
                &clear,
                &[u64::MAX],
                &[u64::MAX]
            ),
            None
        );
        // Bound below one period: no leap.
        assert_eq!(
            leap_count(1_000, 100, Cycle::new(1_099), &clear, &[], &[]),
            None
        );
        // Headroom grew (source restarted?): reject the pair.
        assert_eq!(
            leap_count(1_000, 100, Cycle::new(2_000), &clear, &[9], &[7]),
            None
        );
    }
}
