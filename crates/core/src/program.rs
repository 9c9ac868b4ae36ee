//! Timed regulator re-programming and controller dropout.
//!
//! The runtime half of Scenario DSL v2 (`[phase]` and `[fault]` sections,
//! see `docs/scenario-format.md`):
//!
//! * [`ScenarioProgram`] replays a pre-compiled schedule of register
//!   writes — budget ramps, window-period changes, regulator
//!   enable/disable — against [`RegulatorDriver`]s at declared cycle
//!   boundaries;
//! * [`FusedController`] wraps any [`Controller`] and silences it from a
//!   declared cycle on, modeling a host policy loop crashing mid-run.
//!
//! Both are ordinary [`Controller`]s, so the simulation cores apply them
//! at calendar wake points: when a controller acts in a cycle the SoC
//! forces every master to reach that cycle first, which is what keeps a
//! phased scenario bit-identical between naive stepping and event-calendar
//! fast-forward.

use crate::driver::RegulatorDriver;
use fgqos_sim::system::Controller;
use fgqos_sim::time::Cycle;
use fgqos_sim::{ForkCtx, SnapDecodeError, StateIo};

/// One register write a [`ScenarioProgram`] can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramOp {
    /// Program the regulator's per-window byte budget.
    Budget(u32),
    /// Program the regulator's window length in cycles (must be > 0).
    Period(u32),
    /// Enable or disable the regulator entirely.
    Enabled(bool),
}

impl ProgramOp {
    /// Applies the register write to `driver`.
    ///
    /// This is the single code path every regulator re-programming goes
    /// through — `[phase]` directives replayed by [`ScenarioProgram`] and
    /// live control writes injected between run segments both land here,
    /// which is what makes a recorded control journal replayable as
    /// synthesized phase entries with bit-identical effect.
    ///
    /// # Panics
    ///
    /// Panics on [`ProgramOp::Period`]\(0\) — the regulator rejects
    /// zero-length windows ([`ScenarioProgram::new`] screens its
    /// schedule up front; ad-hoc callers get the same check here).
    pub fn apply(&self, driver: &RegulatorDriver) {
        match *self {
            ProgramOp::Budget(b) => driver.set_budget_bytes(b),
            ProgramOp::Period(p) => {
                assert!(p > 0, "cannot program a zero window period");
                driver.set_period_cycles(p);
            }
            ProgramOp::Enabled(e) => driver.set_enabled(e),
        }
    }
}

/// A [`ProgramOp`] bound to a driver and a fire cycle.
#[derive(Debug, Clone)]
pub struct TimedOp {
    /// Cycle at which the write is applied (the op fires at the first
    /// controller activation at or after this cycle).
    pub at: u64,
    /// Driver of the regulator to reprogram.
    pub driver: RegulatorDriver,
    /// The register write.
    pub op: ProgramOp,
}

/// A [`Controller`] that replays a schedule of timed register writes.
///
/// Ops are applied in `at` order; ops sharing a fire cycle are applied in
/// declaration order (the sort is stable). Once every op has fired the
/// program reports no further activity, so it costs the event calendar
/// nothing for the rest of the run.
#[derive(Debug)]
pub struct ScenarioProgram {
    ops: Vec<TimedOp>,
    applied: usize,
}

impl ScenarioProgram {
    /// Builds a program from a schedule; ops are stable-sorted by `at`.
    ///
    /// # Panics
    ///
    /// Panics if any [`ProgramOp::Period`] op carries 0 (the regulator
    /// rejects zero-length windows).
    pub fn new(mut ops: Vec<TimedOp>) -> Self {
        assert!(
            !ops.iter().any(|o| o.op == ProgramOp::Period(0)),
            "scenario program cannot set a zero window period"
        );
        ops.sort_by_key(|o| o.at);
        ScenarioProgram { ops, applied: 0 }
    }

    /// Number of ops applied so far.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Total ops in the schedule.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl Controller for ScenarioProgram {
    fn on_cycle(&mut self, now: Cycle) {
        while let Some(t) = self.ops.get(self.applied) {
            if t.at > now.get() {
                break;
            }
            t.op.apply(&t.driver);
            self.applied += 1;
        }
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        self.ops
            .get(self.applied)
            .map(|t| Cycle::new(t.at).max(now))
    }

    fn leap_support(&self, _now: Cycle) -> fgqos_sim::LeapSupport {
        // Each pending op is a one-shot absolute-time behavior change;
        // the next unapplied op's fire cycle bounds any leap. With the
        // schedule exhausted the program is inert.
        match self.ops.get(self.applied) {
            Some(t) => fgqos_sim::LeapSupport::until(Cycle::new(t.at)),
            None => fgqos_sim::LeapSupport::clear(),
        }
    }

    fn label(&self) -> &'static str {
        "scenario-program"
    }

    fn fork_ctrl(&self, ctx: &mut ForkCtx) -> Option<Box<dyn Controller>> {
        Some(Box::new(ScenarioProgram {
            ops: self
                .ops
                .iter()
                .map(|t| TimedOp {
                    at: t.at,
                    driver: t.driver.forked(ctx),
                    op: t.op,
                })
                .collect(),
            applied: self.applied,
        }))
    }

    fn state(&mut self, io: &mut StateIo) -> Result<(), SnapDecodeError> {
        // Hash (and serialize) the *pending* op count, not the list
        // length: a program that replayed a control journal as extra
        // `[phase]` ops and one whose writes arrived live both end
        // fully drained, and from there on they behave identically —
        // which is exactly what equal fingerprints promise. The live
        // replay byte/bit-identity tests pin this equivalence.
        io.section("scenario-program")?;
        let at = io.position();
        let mut pending = self.ops.len() - self.applied;
        io.usize(&mut pending)?;
        io.ensure(pending <= self.ops.len(), at, || {
            format!(
                "{pending} pending program op(s) in stream, skeleton has only {}",
                self.ops.len()
            )
        })?;
        self.applied = self.ops.len() - pending;
        Ok(())
    }
}

/// A [`Controller`] wrapper that stops calling its inner controller from
/// a declared cycle on — a host policy loop crashing mid-run (the
/// `controller off` fault of the scenario DSL).
///
/// Budgets programmed before the fuse blows stay in force: nothing
/// un-programs the regulators, exactly as on real hardware.
pub struct FusedController {
    inner: Box<dyn Controller>,
    until: u64,
}

impl FusedController {
    /// Wraps `inner`, silencing it at cycle `until` and after.
    pub fn new(inner: impl Controller + 'static, until: u64) -> Self {
        FusedController {
            inner: Box::new(inner),
            until,
        }
    }
}

impl Controller for FusedController {
    fn on_cycle(&mut self, now: Cycle) {
        if now.get() < self.until {
            self.inner.on_cycle(now);
        }
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if now.get() >= self.until {
            return None;
        }
        self.inner
            .next_activity(now)
            .filter(|c| c.get() < self.until)
    }

    fn leap_support(&self, now: Cycle) -> fgqos_sim::LeapSupport {
        if now.get() >= self.until {
            // Blown fuse: the inner controller is never called again, so
            // its state is frozen (plain snapshot fields) and nothing
            // here depends on absolute time anymore.
            fgqos_sim::LeapSupport::clear()
        } else {
            self.inner
                .leap_support(now)
                .merge(fgqos_sim::LeapSupport::until(Cycle::new(self.until)))
        }
    }

    fn label(&self) -> &'static str {
        "fused"
    }

    fn fork_ctrl(&self, ctx: &mut ForkCtx) -> Option<Box<dyn Controller>> {
        let inner = self.inner.fork_ctrl(ctx)?;
        Some(Box::new(FusedController {
            inner,
            until: self.until,
        }))
    }

    fn state(&mut self, io: &mut StateIo) -> Result<(), SnapDecodeError> {
        io.section("fused")?;
        io.fixed_u64(self.until, "fuse cycle")?;
        self.inner.state(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::QosFabricBuilder;
    use crate::QosFabric;

    fn fabric() -> QosFabric {
        let mut b = QosFabricBuilder::new();
        let _ = b.best_effort_port("dma", 1_000, 4_096);
        b.finish()
    }

    #[test]
    fn applies_ops_in_order_and_goes_quiet() {
        let f = fabric();
        let d = f.driver("dma").unwrap().clone();
        let mut p = ScenarioProgram::new(vec![
            TimedOp {
                at: 500,
                driver: d.clone(),
                op: ProgramOp::Budget(8_192),
            },
            TimedOp {
                at: 100,
                driver: d.clone(),
                op: ProgramOp::Budget(2_048),
            },
        ]);
        assert_eq!(p.next_activity(Cycle::ZERO), Some(Cycle::new(100)));
        p.on_cycle(Cycle::new(100));
        assert_eq!(d.budget_bytes(), 2_048);
        assert_eq!(p.next_activity(Cycle::new(100)), Some(Cycle::new(500)));
        p.on_cycle(Cycle::new(700));
        assert_eq!(d.budget_bytes(), 8_192);
        assert_eq!(p.applied(), 2);
        assert_eq!(p.next_activity(Cycle::new(700)), None);
    }

    #[test]
    fn same_cycle_ops_apply_in_declaration_order() {
        let f = fabric();
        let d = f.driver("dma").unwrap().clone();
        let mut p = ScenarioProgram::new(vec![
            TimedOp {
                at: 100,
                driver: d.clone(),
                op: ProgramOp::Budget(1),
            },
            TimedOp {
                at: 100,
                driver: d.clone(),
                op: ProgramOp::Budget(2),
            },
        ]);
        p.on_cycle(Cycle::new(100));
        assert_eq!(d.budget_bytes(), 2, "later declaration wins a tie");
    }

    #[test]
    fn program_snapshot_roundtrips() {
        let f = fabric();
        let d = f.driver("dma").unwrap().clone();
        let mk = |drv: &RegulatorDriver| {
            ScenarioProgram::new(vec![TimedOp {
                at: 100,
                driver: drv.clone(),
                op: ProgramOp::Enabled(false),
            }])
        };
        let mut a = mk(&d);
        a.on_cycle(Cycle::new(100));
        let mut io = StateIo::recording();
        a.state(&mut io).unwrap();
        let bytes = io.into_hasher().take_bytes();
        let mut b = mk(&d);
        let mut io = StateIo::reading(&bytes);
        b.state(&mut io).expect("loads");
        io.expect_end().expect("stream fully consumed");
        assert_eq!(b.applied(), 1);
    }

    #[test]
    fn fuse_silences_inner_at_cycle() {
        let f = fabric();
        let d = f.driver("dma").unwrap().clone();
        let inner = ScenarioProgram::new(vec![TimedOp {
            at: 2_000,
            driver: d.clone(),
            op: ProgramOp::Budget(1_024),
        }]);
        let mut fused = FusedController::new(inner, 1_000);
        // The inner op is scheduled past the fuse: never visible.
        assert_eq!(fused.next_activity(Cycle::ZERO), None);
        fused.on_cycle(Cycle::new(2_000));
        assert_eq!(d.budget_bytes(), 4_096, "write after the fuse is dropped");
    }
}
