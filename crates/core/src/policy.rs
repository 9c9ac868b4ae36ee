//! Host-software QoS policies.
//!
//! These are the software half of the paper's stack: periodic routines on
//! the host CPU that read tightly-coupled telemetry and reprogram budgets
//! through [`RegulatorDriver`]s. They plug into the simulation as
//! [`Controller`]s.
//!
//! Three policies are provided:
//!
//! * [`StaticPartition`] — program fixed budgets once (the classic
//!   bandwidth-partitioning baseline configuration),
//! * [`ReclaimPolicy`] — CMRI-style: bandwidth reserved for a critical
//!   actor but not consumed in the last control period is redistributed
//!   to best-effort ports for the next one,
//! * [`FeedbackController`] — AIMD control: hold a critical actor's
//!   observed throughput above a target by shrinking (multiplicatively)
//!   or growing (additively) the best-effort budgets.

use crate::driver::RegulatorDriver;
use fgqos_sim::system::Controller;
use fgqos_sim::time::Cycle;
use fgqos_sim::{ForkCtx, SnapDecodeError, StateIo};

/// One port assignment for [`StaticPartition`].
#[derive(Debug, Clone)]
pub struct PortBudget {
    /// Driver of the port's regulator.
    pub driver: RegulatorDriver,
    /// Window length to program, in cycles.
    pub period_cycles: u32,
    /// Byte budget per window.
    pub budget_bytes: u32,
}

/// Programs a fixed bandwidth partition at simulation start.
#[derive(Debug)]
pub struct StaticPartition {
    ports: Vec<PortBudget>,
    programmed: bool,
}

impl StaticPartition {
    /// Creates a partition from per-port assignments.
    pub fn new(ports: Vec<PortBudget>) -> Self {
        StaticPartition {
            ports,
            programmed: false,
        }
    }
}

impl Controller for StaticPartition {
    fn on_cycle(&mut self, _now: Cycle) {
        if self.programmed {
            return;
        }
        for p in &self.ports {
            p.driver.set_period_cycles(p.period_cycles);
            p.driver.set_budget_bytes(p.budget_bytes);
            p.driver.set_enabled(true);
        }
        self.programmed = true;
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.programmed {
            None
        } else {
            Some(now)
        }
    }

    fn label(&self) -> &'static str {
        "static-partition"
    }

    fn fork_ctrl(&self, ctx: &mut ForkCtx) -> Option<Box<dyn Controller>> {
        Some(Box::new(StaticPartition {
            ports: self
                .ports
                .iter()
                .map(|p| PortBudget {
                    driver: p.driver.forked(ctx),
                    period_cycles: p.period_cycles,
                    budget_bytes: p.budget_bytes,
                })
                .collect(),
            programmed: self.programmed,
        }))
    }

    fn state(&mut self, io: &mut StateIo) -> Result<(), SnapDecodeError> {
        io.section("static-partition")?;
        io.fixed_usize(self.ports.len(), "static-partition port count")?;
        for p in &self.ports {
            io.fixed_u32(p.period_cycles, "static-partition period")?;
            io.fixed_u32(p.budget_bytes, "static-partition budget")?;
        }
        io.bool(&mut self.programmed)
    }
}

/// Configuration of a [`ReclaimPolicy`].
#[derive(Debug, Clone, Copy)]
pub struct ReclaimConfig {
    /// Bytes per control period reserved for the critical actor.
    pub critical_reserved: u64,
    /// Guaranteed bytes per control period for each best-effort port.
    pub be_base: u64,
    /// Software decision interval in cycles.
    pub control_period: u64,
    /// Multiplier applied to the redistributed slack. `1` lends out
    /// exactly the unused bytes; larger values treat critical
    /// *inactivity* as evidence of system-wide slack (the critical
    /// actor's protection costs far more bandwidth than it consumes, so
    /// an idle critical frees much more than its own bytes).
    pub gain: u64,
    /// If set, reclaim is suppressed entirely for a period in which the
    /// critical actor moved at least this many bytes (fast clamp on
    /// phase transitions).
    pub busy_threshold: Option<u64>,
}

impl Default for ReclaimConfig {
    fn default() -> Self {
        ReclaimConfig {
            critical_reserved: 0,
            be_base: 0,
            control_period: 10_000,
            gain: 1,
            busy_threshold: None,
        }
    }
}

/// CMRI-style reclaim: unused critical bandwidth is lent to best-effort
/// ports one control period at a time.
///
/// Every `control_period` cycles the policy reads how many bytes the
/// critical port actually moved, computes the unused share of its
/// reservation, and raises each best-effort port's budget by an equal
/// split of the (gain-scaled) slack on top of its guaranteed base. A
/// critical phase change reclaims the slack at the next control period;
/// with [`ReclaimConfig::busy_threshold`] set, any sign of critical
/// activity clamps the best-effort ports straight back to their base.
#[derive(Debug)]
pub struct ReclaimPolicy {
    critical: RegulatorDriver,
    best_effort: Vec<RegulatorDriver>,
    cfg: ReclaimConfig,
    next_at: u64,
    last_crit_total: u64,
}

impl ReclaimPolicy {
    /// Creates a reclaim policy over the critical port's (monitor-only)
    /// driver and the regulated best-effort ports.
    ///
    /// # Panics
    ///
    /// Panics if the control period is zero, the gain is zero, or
    /// `best_effort` is empty.
    pub fn new(
        critical: RegulatorDriver,
        best_effort: Vec<RegulatorDriver>,
        cfg: ReclaimConfig,
    ) -> Self {
        assert!(cfg.control_period > 0, "control period must be non-zero");
        assert!(cfg.gain > 0, "gain must be non-zero");
        assert!(
            !best_effort.is_empty(),
            "reclaim needs at least one best-effort port"
        );
        ReclaimPolicy {
            critical,
            best_effort,
            cfg,
            next_at: 0,
            last_crit_total: 0,
        }
    }

    fn program_best_effort(&self, bytes_per_period: u64) {
        for be in &self.best_effort {
            let windows = (self.cfg.control_period / be.period_cycles().max(1) as u64).max(1);
            let budget = (bytes_per_period / windows).min(u32::MAX as u64) as u32;
            be.set_budget_bytes(budget);
            be.set_enabled(true);
        }
    }
}

impl Controller for ReclaimPolicy {
    fn on_cycle(&mut self, now: Cycle) {
        if now.get() < self.next_at {
            return;
        }
        self.next_at = now.get() + self.cfg.control_period;
        let crit_total = self.critical.telemetry().total_bytes;
        let crit_used = crit_total - self.last_crit_total;
        self.last_crit_total = crit_total;
        let busy = self.cfg.busy_threshold.is_some_and(|t| crit_used >= t);
        let extra = if busy {
            0
        } else {
            let unused = self.cfg.critical_reserved.saturating_sub(crit_used);
            self.cfg.gain * unused / self.best_effort.len() as u64
        };
        self.program_best_effort(self.cfg.be_base + extra);
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        Some(Cycle::new(self.next_at).max(now))
    }

    fn label(&self) -> &'static str {
        "reclaim"
    }

    fn fork_ctrl(&self, ctx: &mut ForkCtx) -> Option<Box<dyn Controller>> {
        Some(Box::new(ReclaimPolicy {
            critical: self.critical.forked(ctx),
            best_effort: self.best_effort.iter().map(|d| d.forked(ctx)).collect(),
            cfg: self.cfg,
            next_at: self.next_at,
            last_crit_total: self.last_crit_total,
        }))
    }

    fn state(&mut self, io: &mut StateIo) -> Result<(), SnapDecodeError> {
        io.section("reclaim")?;
        io.fixed_usize(self.best_effort.len(), "reclaim best-effort count")?;
        let cfg = &mut self.cfg;
        io.u64(&mut cfg.critical_reserved)?;
        io.u64(&mut cfg.be_base)?;
        io.u64(&mut cfg.control_period)?;
        io.u64(&mut cfg.gain)?;
        io.option(&mut cfg.busy_threshold, StateIo::u64)?;
        io.u64(&mut self.next_at)?;
        io.u64(&mut self.last_crit_total)
    }
}

/// AIMD feedback controller protecting a critical actor's throughput.
///
/// The controller never touches the critical port; it observes its
/// achieved bytes per control period and squeezes the *best-effort*
/// budgets when the critical actor falls below target (multiplicative
/// decrease), relaxing them additively while the target is met. This is
/// the closed-loop mode of the paper's runtime: the QoS target is stated
/// for the critical task, the enforcement lands on everyone else.
#[derive(Debug)]
pub struct FeedbackController {
    critical: RegulatorDriver,
    target_bytes_per_period: u64,
    best_effort: Vec<RegulatorDriver>,
    be_budget: u32,
    min_budget: u32,
    max_budget: u32,
    step: u32,
    control_period: u64,
    next_at: u64,
    last_crit_total: u64,
    adjustments: u64,
}

impl FeedbackController {
    /// Creates a feedback controller.
    ///
    /// * `target_bytes_per_period` — minimum bytes the critical actor
    ///   must achieve per `control_period` cycles.
    /// * `initial_budget`, `min_budget`, `max_budget`, `step` — AIMD
    ///   parameters for the best-effort per-window budget (bytes).
    ///
    /// # Panics
    ///
    /// Panics if `control_period` is zero, `best_effort` is empty, or the
    /// budget bounds are inconsistent (`min > max` or the initial budget
    /// outside them).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        critical: RegulatorDriver,
        target_bytes_per_period: u64,
        best_effort: Vec<RegulatorDriver>,
        initial_budget: u32,
        min_budget: u32,
        max_budget: u32,
        step: u32,
        control_period: u64,
    ) -> Self {
        assert!(control_period > 0, "control period must be non-zero");
        assert!(
            !best_effort.is_empty(),
            "feedback needs at least one best-effort port"
        );
        assert!(
            min_budget <= max_budget,
            "min_budget must not exceed max_budget"
        );
        assert!(
            (min_budget..=max_budget).contains(&initial_budget),
            "initial budget outside [min, max]"
        );
        FeedbackController {
            critical,
            target_bytes_per_period,
            best_effort,
            be_budget: initial_budget,
            min_budget,
            max_budget,
            step,
            control_period,
            next_at: 0,
            last_crit_total: 0,
            adjustments: 0,
        }
    }

    /// The best-effort per-window budget currently commanded.
    pub fn commanded_budget(&self) -> u32 {
        self.be_budget
    }

    /// Number of control decisions taken so far.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    fn program(&self) {
        for be in &self.best_effort {
            be.set_budget_bytes(self.be_budget);
            be.set_enabled(true);
        }
    }
}

impl Controller for FeedbackController {
    fn on_cycle(&mut self, now: Cycle) {
        if now.get() < self.next_at {
            return;
        }
        let first = self.next_at == 0;
        self.next_at = now.get() + self.control_period;
        let crit_total = self.critical.telemetry().total_bytes;
        let crit_used = crit_total - self.last_crit_total;
        self.last_crit_total = crit_total;
        if first {
            // Nothing measured yet: just program the initial budgets.
            self.program();
            return;
        }
        self.adjustments += 1;
        if crit_used < self.target_bytes_per_period {
            self.be_budget = (self.be_budget / 2).max(self.min_budget);
        } else {
            self.be_budget = self
                .be_budget
                .saturating_add(self.step)
                .min(self.max_budget);
        }
        self.program();
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        Some(Cycle::new(self.next_at).max(now))
    }

    fn label(&self) -> &'static str {
        "feedback-aimd"
    }

    fn fork_ctrl(&self, ctx: &mut ForkCtx) -> Option<Box<dyn Controller>> {
        Some(Box::new(FeedbackController {
            critical: self.critical.forked(ctx),
            target_bytes_per_period: self.target_bytes_per_period,
            best_effort: self.best_effort.iter().map(|d| d.forked(ctx)).collect(),
            be_budget: self.be_budget,
            min_budget: self.min_budget,
            max_budget: self.max_budget,
            step: self.step,
            control_period: self.control_period,
            next_at: self.next_at,
            last_crit_total: self.last_crit_total,
            adjustments: self.adjustments,
        }))
    }

    fn state(&mut self, io: &mut StateIo) -> Result<(), SnapDecodeError> {
        io.section("feedback-aimd")?;
        io.u64(&mut self.target_bytes_per_period)?;
        io.fixed_usize(self.best_effort.len(), "feedback-aimd best-effort count")?;
        io.u32(&mut self.be_budget)?;
        io.u32(&mut self.min_budget)?;
        io.u32(&mut self.max_budget)?;
        io.u32(&mut self.step)?;
        io.u64(&mut self.control_period)?;
        io.u64(&mut self.next_at)?;
        io.u64(&mut self.last_crit_total)?;
        io.u64(&mut self.adjustments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regfile::Reg;
    use crate::regulator::{RegulatorConfig, TcRegulator};

    #[test]
    fn reclaim_gain_scales_slack_and_busy_clamps() {
        let crit = mk(1_000, u32::MAX);
        let be = mk(1_000, 0);
        let mut policy = ReclaimPolicy::new(
            crit.clone(),
            vec![be.clone()],
            ReclaimConfig {
                critical_reserved: 1_000,
                be_base: 0,
                control_period: 10_000,
                gain: 5,
                busy_threshold: Some(500),
            },
        );
        // Idle critical: slack 1000 x gain 5 -> 5000 per period -> 500/window.
        policy.on_cycle(Cycle::ZERO);
        assert_eq!(be.budget_bytes(), 500);
        // Busy critical (>= threshold): clamp to base.
        feed_bytes(&crit, 600);
        policy.on_cycle(Cycle::new(10_000));
        assert_eq!(be.budget_bytes(), 0);
    }

    fn mk(period: u32, budget: u32) -> RegulatorDriver {
        let (_reg, driver) = TcRegulator::create(RegulatorConfig {
            period_cycles: period,
            budget_bytes: budget,
            ..RegulatorConfig::default()
        });
        driver
    }

    /// Pretends the hardware moved `bytes` more bytes on `d`'s port.
    fn feed_bytes(d: &RegulatorDriver, bytes: u64) {
        let cur = d.regfile().read64(Reg::TotalBytesLo, Reg::TotalBytesHi);
        d.regfile()
            .write64(Reg::TotalBytesLo, Reg::TotalBytesHi, cur + bytes);
    }

    #[test]
    fn static_partition_programs_once() {
        let d = mk(1024, 0);
        let mut p = StaticPartition::new(vec![PortBudget {
            driver: d.clone(),
            period_cycles: 500,
            budget_bytes: 640,
        }]);
        p.on_cycle(Cycle::ZERO);
        assert_eq!(d.period_cycles(), 500);
        assert_eq!(d.budget_bytes(), 640);
        assert!(d.enabled());
        // Re-programming is idempotent even if software pokes registers.
        d.set_budget_bytes(1);
        p.on_cycle(Cycle::new(1));
        assert_eq!(d.budget_bytes(), 1);
    }

    #[test]
    fn reclaim_redistributes_unused_critical_bytes() {
        let crit = mk(1_000, u32::MAX);
        let be1 = mk(1_000, 0);
        let be2 = mk(1_000, 0);
        let mut policy = ReclaimPolicy::new(
            crit.clone(),
            vec![be1.clone(), be2.clone()],
            ReclaimConfig {
                critical_reserved: 10_000,
                be_base: 2_000,
                control_period: 10_000,
                ..ReclaimConfig::default()
            },
        );
        // First decision: critical has used nothing -> full reclaim.
        policy.on_cycle(Cycle::ZERO);
        // bytes per period = 2000 + 10000/2 = 7000; windows per period = 10 -> 700.
        assert_eq!(be1.budget_bytes(), 700);
        assert_eq!(be2.budget_bytes(), 700);

        // Critical consumes 8k of its 10k reservation.
        feed_bytes(&crit, 8_000);
        policy.on_cycle(Cycle::new(10_000));
        // unused = 2000, share = 1000 -> per period 3000 -> per window 300.
        assert_eq!(be1.budget_bytes(), 300);
        assert!(be1.enabled() && be2.enabled());
    }

    #[test]
    fn reclaim_decisions_happen_once_per_period() {
        let crit = mk(1_000, u32::MAX);
        let be = mk(1_000, 0);
        let mut policy = ReclaimPolicy::new(
            crit.clone(),
            vec![be.clone()],
            ReclaimConfig {
                critical_reserved: 1_000,
                be_base: 100,
                control_period: 5_000,
                ..ReclaimConfig::default()
            },
        );
        policy.on_cycle(Cycle::ZERO);
        let after_first = be.budget_bytes();
        feed_bytes(&crit, 1_000);
        // Mid-period: no decision.
        policy.on_cycle(Cycle::new(2_500));
        assert_eq!(be.budget_bytes(), after_first);
        policy.on_cycle(Cycle::new(5_000));
        assert_ne!(be.budget_bytes(), after_first);
    }

    #[test]
    fn feedback_decreases_on_miss_and_recovers() {
        let crit = mk(1_000, u32::MAX);
        let be = mk(1_000, 0);
        let mut fb = FeedbackController::new(
            crit.clone(),
            5_000,
            vec![be.clone()],
            4_096,
            64,
            8_192,
            256,
            10_000,
        );
        fb.on_cycle(Cycle::ZERO); // initial programming
        assert_eq!(be.budget_bytes(), 4_096);

        // Critical starved: only 1k of 5k target -> halve.
        feed_bytes(&crit, 1_000);
        fb.on_cycle(Cycle::new(10_000));
        assert_eq!(fb.commanded_budget(), 2_048);
        assert_eq!(be.budget_bytes(), 2_048);

        // Still starved -> halve again.
        feed_bytes(&crit, 1_000);
        fb.on_cycle(Cycle::new(20_000));
        assert_eq!(fb.commanded_budget(), 1_024);

        // Target met -> additive increase.
        feed_bytes(&crit, 6_000);
        fb.on_cycle(Cycle::new(30_000));
        assert_eq!(fb.commanded_budget(), 1_280);
        assert_eq!(fb.adjustments(), 3);
    }

    #[test]
    fn feedback_respects_bounds() {
        let crit = mk(1_000, u32::MAX);
        let be = mk(1_000, 0);
        let mut fb = FeedbackController::new(
            crit.clone(),
            u64::MAX, // never met -> always decrease
            vec![be.clone()],
            128,
            100,
            8_192,
            256,
            1_000,
        );
        for t in 0..20u64 {
            fb.on_cycle(Cycle::new(t * 1_000));
        }
        assert_eq!(fb.commanded_budget(), 100);
    }

    #[test]
    #[should_panic(expected = "at least one best-effort")]
    fn reclaim_needs_best_effort_ports() {
        let crit = mk(1_000, 0);
        let _ = ReclaimPolicy::new(crit, vec![], ReclaimConfig::default());
    }

    #[test]
    #[should_panic(expected = "initial budget outside")]
    fn feedback_validates_bounds() {
        let crit = mk(1_000, 0);
        let be = mk(1_000, 0);
        let _ = FeedbackController::new(crit, 1, vec![be], 10, 100, 200, 1, 1_000);
    }
}
