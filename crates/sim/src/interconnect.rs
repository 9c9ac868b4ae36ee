//! Multi-master crossbar interconnect.
//!
//! Models the PS/PL AXI port aggregation of a Zynq-class SoC: each master
//! owns an ingress FIFO; one request per cycle is forwarded to the DRAM
//! controller, selected by round-robin or fixed-priority arbitration.

use crate::arena::{TxnArena, TxnId};
use crate::axi::MasterId;
use crate::dram::DramController;
use crate::time::Cycle;
use fgqos_snap::{SnapDecodeError, StateIo};
use std::collections::VecDeque;

/// Arbitration policy between master ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Arbitration {
    /// Fair rotation between ports with pending requests (default; this is
    /// the policy of the Zynq US+ PS interconnect ports).
    #[default]
    RoundRobin,
    /// Lower master index always wins. Models AXI QoS signalling with
    /// statically assigned priorities.
    FixedPriority,
    /// Smooth weighted round-robin over [`XbarConfig::weights`]. Models
    /// AXI QoS *weighting*: shares bandwidth proportionally but — unlike
    /// regulation — puts no bound on what a backlogged port receives
    /// when others idle, and no bound on burst interleaving.
    WeightedRoundRobin,
}

impl Arbitration {
    /// Stable lower-case name used in metric exports.
    pub fn label(self) -> &'static str {
        match self {
            Arbitration::RoundRobin => "round_robin",
            Arbitration::FixedPriority => "fixed_priority",
            Arbitration::WeightedRoundRobin => "weighted_round_robin",
        }
    }
}

/// Crossbar parameters.
#[derive(Debug, Clone)]
pub struct XbarConfig {
    /// Depth of each per-master ingress FIFO.
    pub port_fifo_depth: usize,
    /// Arbitration policy.
    pub arbitration: Arbitration,
    /// Per-port weights for [`Arbitration::WeightedRoundRobin`]; empty
    /// means every port weighs 1. Ignored by the other policies.
    pub weights: Vec<u32>,
}

impl Default for XbarConfig {
    fn default() -> Self {
        XbarConfig {
            port_fifo_depth: 4,
            arbitration: Arbitration::RoundRobin,
            weights: Vec::new(),
        }
    }
}

/// The crossbar: per-port FIFOs plus an arbiter towards the DRAM queue.
///
/// Port FIFOs hold [`TxnId`] handles into the SoC's transaction arena,
/// so a queued transaction is one machine word and forwarding copies no
/// payload.
#[derive(Debug, Clone)]
pub struct Crossbar {
    cfg: XbarConfig,
    ports: Vec<VecDeque<TxnId>>,
    // Total entries across all port FIFOs, so backlog checks are O(1).
    queued: usize,
    rr_next: usize,
    weights: Vec<u32>,
    swrr_credit: Vec<i64>,
    // Reused across arbitration rounds so the per-cycle scan allocates
    // nothing.
    swrr_scratch: Vec<usize>,
}

impl Crossbar {
    /// Creates a crossbar with `ports` master ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero or the FIFO depth is zero.
    pub fn new(cfg: XbarConfig, ports: usize) -> Self {
        assert!(ports > 0, "crossbar needs at least one port");
        assert!(cfg.port_fifo_depth > 0, "port FIFO depth must be non-zero");
        let weights: Vec<u32> = if cfg.weights.is_empty() {
            vec![1; ports]
        } else {
            assert_eq!(cfg.weights.len(), ports, "one weight per port required");
            assert!(
                cfg.weights.iter().all(|&w| w > 0),
                "weights must be non-zero"
            );
            cfg.weights.clone()
        };
        Crossbar {
            cfg,
            ports: (0..ports).map(|_| VecDeque::new()).collect(),
            queued: 0,
            rr_next: 0,
            swrr_credit: vec![0; ports],
            swrr_scratch: Vec::with_capacity(ports),
            weights,
        }
    }

    /// Number of master ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// The configuration this crossbar was built with.
    pub fn config(&self) -> &XbarConfig {
        &self.cfg
    }

    /// Whether `master`'s ingress FIFO can admit another request.
    #[inline]
    pub fn has_space(&self, master: MasterId) -> bool {
        self.ports[master.index()].len() < self.cfg.port_fifo_depth
    }

    /// Occupancy of `master`'s ingress FIFO.
    pub fn port_len(&self, master: MasterId) -> usize {
        self.ports[master.index()].len()
    }

    /// Total entries queued across all port FIFOs.
    #[inline]
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Pushes a transaction handle into `master`'s ingress FIFO.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full; callers must check [`Self::has_space`].
    pub fn push(&mut self, txn: TxnId, master: MasterId) {
        let port = &mut self.ports[master.index()];
        assert!(port.len() < self.cfg.port_fifo_depth, "port FIFO overflow");
        port.push_back(txn);
        self.queued += 1;
    }

    /// Smooth weighted round-robin: every backlogged port gains its
    /// weight in credit; the richest port wins and pays the total weight
    /// of the backlogged set.
    fn swrr_pick(&mut self) -> Option<usize> {
        let mut backlogged = std::mem::take(&mut self.swrr_scratch);
        backlogged.clear();
        backlogged.extend((0..self.ports.len()).filter(|&p| !self.ports[p].is_empty()));
        if backlogged.is_empty() {
            self.swrr_scratch = backlogged;
            return None;
        }
        let mut total = 0i64;
        for &p in &backlogged {
            self.swrr_credit[p] += self.weights[p] as i64;
            total += self.weights[p] as i64;
        }
        let winner = backlogged
            .iter()
            .copied()
            .max_by_key(|&p| self.swrr_credit[p])
            .expect("backlogged set non-empty");
        self.swrr_credit[winner] -= total;
        self.swrr_scratch = backlogged;
        Some(winner)
    }

    /// Earliest cycle `>= now` at which the crossbar can change state on
    /// its own: any backlogged ingress FIFO may forward a request as soon
    /// as the DRAM queue has space, so a non-empty crossbar reports
    /// activity every cycle; an empty one only moves when a master pushes
    /// (which executes a cycle anyway).
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.queued > 0 {
            Some(now)
        } else {
            None
        }
    }

    /// Walks the crossbar's architectural state — FIFO contents,
    /// arbitration cursor and weighted-round-robin credit — through a
    /// snapshot stream. Configuration-derived fields (arbitration policy,
    /// FIFO depth, port count, weights) are verified against the rebuilt
    /// skeleton; only quiesced streams (empty FIFOs) load, because FIFO
    /// entries are handles into the transaction arena, which serializes
    /// no live slots.
    ///
    /// # Errors
    ///
    /// When reading, any [`SnapDecodeError`] aborts the whole load.
    pub(crate) fn state(&mut self, io: &mut StateIo) -> Result<(), SnapDecodeError> {
        io.section("xbar")?;
        io.fixed_str(self.cfg.arbitration.label(), "xbar arbitration")?;
        io.fixed_usize(self.cfg.port_fifo_depth, "xbar port_fifo_depth")?;
        io.fixed_usize(self.ports.len(), "xbar port count")?;
        for (p, port) in self.ports.iter_mut().enumerate() {
            let at = io.position();
            let mut len = port.len();
            io.usize(&mut len)?;
            io.ensure(len == 0, at, || {
                format!("xbar port {p} FIFO holds {len} entr(ies); only quiesced snapshots load")
            })?;
            if io.is_reading() {
                port.clear();
            }
            for id in port.iter() {
                io.usize(&mut id.index())?;
            }
        }
        let at = io.position();
        io.usize(&mut self.queued)?;
        io.ensure(self.queued == 0, at, || {
            format!("xbar queued count {} with empty FIFOs", self.queued)
        })?;
        io.usize(&mut self.rr_next)?;
        for &w in &self.weights {
            io.fixed_u32(w, "xbar port weight")?;
        }
        for c in &mut self.swrr_credit {
            let mut word = *c as u64;
            io.u64(&mut word)?;
            *c = word as i64;
        }
        Ok(())
    }

    /// One arbitration round: forwards at most one request into the DRAM
    /// queue if it has space. Returns the port index that forwarded, so
    /// the event loop can wake the master whose FIFO gained a slot.
    pub fn tick(
        &mut self,
        now: Cycle,
        dram: &mut DramController,
        arena: &TxnArena,
    ) -> Option<usize> {
        if !dram.has_space() {
            return None;
        }
        let n = self.ports.len();
        let winner = match self.cfg.arbitration {
            Arbitration::RoundRobin => (0..n)
                .map(|k| (self.rr_next + k) % n)
                .find(|&p| !self.ports[p].is_empty()),
            Arbitration::FixedPriority => (0..n).find(|&p| !self.ports[p].is_empty()),
            Arbitration::WeightedRoundRobin => self.swrr_pick(),
        };
        if let Some(p) = winner {
            let txn = self.ports[p].pop_front().expect("winner port non-empty");
            self.queued -= 1;
            dram.enqueue(txn, arena, now);
            if matches!(self.cfg.arbitration, Arbitration::RoundRobin) {
                self.rr_next = (p + 1) % n;
            }
        }
        winner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axi::{Dir, Request};
    use crate::dram::DramConfig;

    fn push(x: &mut Crossbar, a: &mut TxnArena, master: usize, serial: u64) {
        let r = Request::new(
            MasterId::new(master),
            serial,
            serial * 4096,
            1,
            Dir::Read,
            Cycle::ZERO,
        );
        let id = a.alloc(&r);
        x.push(id, MasterId::new(master));
    }

    fn dram() -> DramController {
        DramController::new(DramConfig {
            t_refi: 0,
            ..DramConfig::default()
        })
    }

    #[test]
    fn fifo_space_tracking() {
        let mut x = Crossbar::new(
            XbarConfig {
                port_fifo_depth: 2,
                ..Default::default()
            },
            2,
        );
        let mut a = TxnArena::new();
        let m0 = MasterId::new(0);
        assert!(x.has_space(m0));
        push(&mut x, &mut a, 0, 0);
        push(&mut x, &mut a, 0, 1);
        assert!(!x.has_space(m0));
        assert!(x.has_space(MasterId::new(1)));
        assert_eq!(x.port_len(m0), 2);
        assert_eq!(x.queued(), 2);
    }

    #[test]
    #[should_panic(expected = "port FIFO overflow")]
    fn push_overflow_panics() {
        let mut x = Crossbar::new(
            XbarConfig {
                port_fifo_depth: 1,
                ..Default::default()
            },
            1,
        );
        let mut a = TxnArena::new();
        push(&mut x, &mut a, 0, 0);
        push(&mut x, &mut a, 0, 1);
    }

    #[test]
    fn round_robin_alternates() {
        let mut x = Crossbar::new(XbarConfig::default(), 3);
        let mut d = dram();
        let mut a = TxnArena::new();
        for s in 0..2 {
            for m in 0..3 {
                push(&mut x, &mut a, m, s);
            }
        }
        // Drain 6 requests; round robin must rotate 0,1,2,0,1,2.
        for t in 0..6 {
            let before = d.queue_len();
            let popped = x.tick(Cycle::new(t), &mut d, &a);
            assert_eq!(d.queue_len(), before + 1);
            assert_eq!(popped, Some((t % 3) as usize));
        }
        // All ports drained evenly.
        for m in 0..3 {
            assert_eq!(x.port_len(MasterId::new(m)), 0);
        }
        assert_eq!(x.queued(), 0);
    }

    #[test]
    fn fixed_priority_prefers_low_index() {
        let mut x = Crossbar::new(
            XbarConfig {
                arbitration: Arbitration::FixedPriority,
                ..Default::default()
            },
            2,
        );
        let mut d = dram();
        let mut a = TxnArena::new();
        push(&mut x, &mut a, 1, 0);
        push(&mut x, &mut a, 0, 0);
        push(&mut x, &mut a, 0, 1);
        x.tick(Cycle::ZERO, &mut d, &a);
        x.tick(Cycle::new(1), &mut d, &a);
        // Port 0 should have been fully drained before port 1 moves.
        assert_eq!(x.port_len(MasterId::new(0)), 0);
        assert_eq!(x.port_len(MasterId::new(1)), 1);
    }

    #[test]
    fn weighted_round_robin_shares_proportionally() {
        let mut x = Crossbar::new(
            XbarConfig {
                arbitration: Arbitration::WeightedRoundRobin,
                weights: vec![3, 1],
                port_fifo_depth: 64,
            },
            2,
        );
        let mut d = DramController::new(DramConfig {
            t_refi: 0,
            queue_capacity: 1_000,
            ..DramConfig::default()
        });
        let mut a = TxnArena::new();
        for s in 0..48u64 {
            push(&mut x, &mut a, 0, s);
        }
        for s in 0..16u64 {
            push(&mut x, &mut a, 1, s);
        }
        // 32 grants: 3:1 split means port 0 gets 24, port 1 gets 8.
        for t in 0..32u64 {
            x.tick(Cycle::new(t), &mut d, &a);
        }
        assert_eq!(x.port_len(MasterId::new(0)), 48 - 24);
        assert_eq!(x.port_len(MasterId::new(1)), 16 - 8);
    }

    #[test]
    fn weighted_round_robin_gives_idle_share_away() {
        // With port 1 empty, port 0 gets every grant despite low weight.
        let mut x = Crossbar::new(
            XbarConfig {
                arbitration: Arbitration::WeightedRoundRobin,
                weights: vec![1, 7],
                port_fifo_depth: 16,
            },
            2,
        );
        let mut d = DramController::new(DramConfig {
            t_refi: 0,
            queue_capacity: 1_000,
            ..DramConfig::default()
        });
        let mut a = TxnArena::new();
        for s in 0..8u64 {
            push(&mut x, &mut a, 0, s);
        }
        for t in 0..8u64 {
            x.tick(Cycle::new(t), &mut d, &a);
        }
        assert_eq!(x.port_len(MasterId::new(0)), 0);
    }

    #[test]
    #[should_panic(expected = "one weight per port")]
    fn weight_count_must_match_ports() {
        let _ = Crossbar::new(
            XbarConfig {
                arbitration: Arbitration::WeightedRoundRobin,
                weights: vec![1, 2, 3],
                ..Default::default()
            },
            2,
        );
    }

    #[test]
    fn stalls_when_dram_full() {
        let mut d = DramController::new(DramConfig {
            t_refi: 0,
            queue_capacity: 1,
            ..DramConfig::default()
        });
        let mut x = Crossbar::new(XbarConfig::default(), 1);
        let mut a = TxnArena::new();
        push(&mut x, &mut a, 0, 0);
        push(&mut x, &mut a, 0, 1);
        x.tick(Cycle::ZERO, &mut d, &a);
        assert_eq!(d.queue_len(), 1);
        // DRAM queue full (nothing scheduled at cycle 0 tick already done):
        // second tick must not move the request.
        let before = x.port_len(MasterId::new(0));
        if !d.has_space() {
            assert_eq!(x.tick(Cycle::new(1), &mut d, &a), None);
            assert_eq!(x.port_len(MasterId::new(0)), before);
        }
    }
}
