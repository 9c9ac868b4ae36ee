//! Leaky-bucket (token-bucket) regulator variant.
//!
//! The window regulator replenishes its whole budget at once, so a
//! backlogged master drains each window's budget back-to-back at the
//! window start. A token bucket replenishes *continuously* (budget/period
//! bytes per cycle) and caps the accumulated credit at a configurable
//! depth, trading the window's crisp per-window guarantee ("never more
//! than Q bytes in any aligned window") for smoother injection ("never
//! more than depth + rate·Δ bytes in any interval").
//!
//! The paper's IP uses windows — this variant exists for the design-space
//! ablation (`exp_ablations`): same average
//! bandwidth, different burst structure.

use crate::regulator::OvershootPolicy;
use fgqos_sim::axi::Request;
use fgqos_sim::gate::{GateDecision, PortGate};
use fgqos_sim::time::Cycle;
use fgqos_sim::{ForkCtx, SnapDecodeError, StateIo};

/// Configuration of a [`LeakyBucketRegulator`].
#[derive(Debug, Clone, Copy)]
pub struct BucketConfig {
    /// Refill rate numerator: `budget_bytes` per `period_cycles` cycles
    /// (the same pair a window regulator takes, for comparability).
    pub budget_bytes: u32,
    /// Refill rate denominator in cycles.
    pub period_cycles: u32,
    /// Maximum accumulated credit in bytes (the burst the bucket allows
    /// after an idle stretch). A common choice is one window's budget.
    pub depth_bytes: u32,
    /// Overshoot handling at the admission decision.
    pub overshoot: OvershootPolicy,
}

impl Default for BucketConfig {
    fn default() -> Self {
        BucketConfig {
            budget_bytes: 1024,
            period_cycles: 1024,
            depth_bytes: 1024,
            overshoot: OvershootPolicy::Conservative,
        }
    }
}

/// Token-bucket admission gate. See the [module docs](self).
///
/// ```
/// use fgqos_core::bucket::{BucketConfig, LeakyBucketRegulator};
/// use fgqos_sim::gate::PortGate;
/// use fgqos_sim::time::Cycle;
///
/// let mut bucket = LeakyBucketRegulator::new(BucketConfig {
///     budget_bytes: 1_000,   // 1 byte/cycle...
///     period_cycles: 1_000,  // ...replenished continuously
///     depth_bytes: 2_048,
///     ..BucketConfig::default()
/// });
/// assert_eq!(bucket.tokens(), 2_048); // starts full
/// bucket.on_cycle(Cycle::new(500));
/// assert_eq!(bucket.tokens(), 2_048); // capped at the depth
/// ```
#[derive(Debug, Clone)]
pub struct LeakyBucketRegulator {
    cfg: BucketConfig,
    tokens: u64,
    carry: u64,
    last_tick: Cycle,
    stall_cycles: u64,
    total_bytes: u64,
}

impl LeakyBucketRegulator {
    /// Creates a full bucket.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero or the depth is zero.
    pub fn new(cfg: BucketConfig) -> Self {
        assert!(cfg.period_cycles > 0, "refill period must be non-zero");
        assert!(cfg.depth_bytes > 0, "bucket depth must be non-zero");
        LeakyBucketRegulator {
            cfg,
            tokens: cfg.depth_bytes as u64,
            carry: 0,
            last_tick: Cycle::ZERO,
            stall_cycles: 0,
            total_bytes: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &BucketConfig {
        &self.cfg
    }

    /// Currently available credit in bytes.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Cycles spent denying the handshake.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Lifetime accepted bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    fn refill(&mut self, now: Cycle) {
        let elapsed = now.saturating_since(self.last_tick);
        if elapsed == 0 {
            return;
        }
        self.last_tick = now;
        // tokens += elapsed * budget / period, with exact remainder carry.
        let numer = self.carry + elapsed as u128 as u64 * self.cfg.budget_bytes as u64;
        let whole = numer / self.cfg.period_cycles as u64;
        self.carry = numer % self.cfg.period_cycles as u64;
        self.tokens = (self.tokens + whole).min(self.cfg.depth_bytes as u64);
    }
}

impl PortGate for LeakyBucketRegulator {
    fn on_cycle(&mut self, now: Cycle) {
        self.refill(now);
    }

    fn try_accept(&mut self, request: &Request, _now: Cycle) -> GateDecision {
        let bytes = request.bytes();
        let admit = match self.cfg.overshoot {
            OvershootPolicy::Conservative => self.tokens >= bytes,
            OvershootPolicy::FinalBurst => self.tokens > 0,
        };
        if admit {
            self.tokens = self.tokens.saturating_sub(bytes);
            self.total_bytes += bytes;
            GateDecision::Accept
        } else {
            self.stall_cycles += 1;
            GateDecision::Deny
        }
    }

    fn label(&self) -> &'static str {
        "leaky-bucket"
    }

    fn fork_gate(&self, _ctx: &mut ForkCtx) -> Option<Box<dyn PortGate>> {
        Some(Box::new(self.clone()))
    }

    fn state(&mut self, io: &mut StateIo) -> Result<(), SnapDecodeError> {
        io.section("leaky-bucket")?;
        // Configuration travels in the stream for verification only: the
        // skeleton this state loads into must match it.
        io.fixed_u32(self.cfg.budget_bytes, "leaky-bucket budget_bytes")?;
        io.fixed_u32(self.cfg.period_cycles, "leaky-bucket period_cycles")?;
        io.fixed_u32(self.cfg.depth_bytes, "leaky-bucket depth_bytes")?;
        let final_burst = self.cfg.overshoot == OvershootPolicy::FinalBurst;
        io.fixed_bool(final_burst, "leaky-bucket overshoot final-burst")?;
        io.u64(&mut self.tokens)?;
        io.u64(&mut self.carry)?;
        io.u64(&mut self.last_tick)?;
        io.u64(&mut self.stall_cycles)?;
        io.u64(&mut self.total_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos_sim::axi::{Dir, MasterId};

    fn req(serial: u64, bytes: u64) -> Request {
        let beats = (bytes / fgqos_sim::axi::BEAT_BYTES) as u16;
        Request::new(
            MasterId::new(0),
            serial,
            serial * 4096,
            beats,
            Dir::Read,
            Cycle::ZERO,
        )
    }

    fn bucket(budget: u32, period: u32, depth: u32) -> LeakyBucketRegulator {
        LeakyBucketRegulator::new(BucketConfig {
            budget_bytes: budget,
            period_cycles: period,
            depth_bytes: depth,
            overshoot: OvershootPolicy::Conservative,
        })
    }

    #[test]
    fn starts_full_and_debits() {
        let mut b = bucket(1_000, 1_000, 512);
        assert_eq!(b.tokens(), 512);
        assert!(b.try_accept(&req(0, 512), Cycle::ZERO).is_accept());
        assert_eq!(b.tokens(), 0);
        assert_eq!(b.try_accept(&req(1, 16), Cycle::ZERO), GateDecision::Deny);
        assert_eq!(b.stall_cycles(), 1);
    }

    #[test]
    fn refills_continuously() {
        let mut b = bucket(1_000, 1_000, 10_000);
        let _ = b.try_accept(&req(0, 4_096), Cycle::ZERO); // drain some
        let before = b.tokens();
        // 1 byte/cycle refill: after 100 cycles, +100 bytes.
        b.on_cycle(Cycle::new(100));
        assert_eq!(b.tokens(), before + 100);
        b.on_cycle(Cycle::new(150));
        assert_eq!(b.tokens(), before + 150);
    }

    #[test]
    fn fractional_rate_carries_remainder() {
        // 3 bytes per 7 cycles: after 7 cycles exactly 3 tokens.
        let mut b = bucket(3, 7, 100);
        let _ = b.try_accept(&req(0, 96), Cycle::ZERO);
        let base = b.tokens();
        for t in 1..=7u64 {
            b.on_cycle(Cycle::new(t));
        }
        assert_eq!(b.tokens(), base + 3);
        for t in 8..=14u64 {
            b.on_cycle(Cycle::new(t));
        }
        assert_eq!(b.tokens(), base + 6);
    }

    #[test]
    fn credit_caps_at_depth() {
        let mut b = bucket(1_000, 1_000, 2_048);
        b.on_cycle(Cycle::new(1_000_000));
        assert_eq!(b.tokens(), 2_048, "idle credit must cap at the depth");
    }

    #[test]
    fn long_run_rate_matches_configuration() {
        // Greedy 256 B requests against a 1 B/cycle bucket: accepted bytes
        // over 100k cycles must be ~100k (+ the initial depth).
        let mut b = bucket(1_000, 1_000, 1_024);
        let mut serial = 0;
        for t in 0..100_000u64 {
            b.on_cycle(Cycle::new(t));
            let r = req(serial, 256);
            if b.try_accept(&r, Cycle::new(t)).is_accept() {
                serial += 1;
            }
        }
        let total = b.total_bytes();
        assert!(
            (100_000..=101_500).contains(&total),
            "long-run rate off: {total} bytes in 100k cycles"
        );
    }

    #[test]
    fn final_burst_mode_allows_overdraft_once() {
        let mut b = LeakyBucketRegulator::new(BucketConfig {
            budget_bytes: 1_000,
            period_cycles: 1_000,
            depth_bytes: 100,
            overshoot: OvershootPolicy::FinalBurst,
        });
        // 100 tokens but a 256-byte request: admitted (tokens > 0), then
        // the bucket is empty and further requests are denied.
        assert!(b.try_accept(&req(0, 256), Cycle::ZERO).is_accept());
        assert_eq!(b.try_accept(&req(1, 16), Cycle::ZERO), GateDecision::Deny);
    }

    #[test]
    #[should_panic(expected = "depth must be non-zero")]
    fn zero_depth_rejected() {
        let _ = bucket(1, 1, 0);
    }
}
