//! Window-based bandwidth telemetry.
//!
//! [`WindowMonitor`] is the counting half of the IP: it attributes every
//! accepted transaction to the current replenishment window, maintains
//! lifetime totals, and mirrors everything into the port's
//! [`RegFile`] so the software side always sees
//! fresh telemetry — the paper's "tightly-coupled monitoring".
//!
//! The monitor also implements the *configuration latching* rule: the
//! window period written by software takes effect at the next window
//! boundary, never mid-window.

use crate::regfile::{Reg, RegFile};
use fgqos_sim::axi::Dir;
use fgqos_sim::time::Cycle;
use fgqos_sim::{ForkCtx, StateHasher};
use std::sync::Arc;

/// Per-window byte/transaction accounting synced into a register file.
#[derive(Debug)]
pub struct WindowMonitor {
    regs: Arc<RegFile>,
    window_start: Cycle,
    period: u64,
    win_bytes: u64,
    win_rd_bytes: u64,
    win_wr_bytes: u64,
    win_txns: u64,
    total_bytes: u64,
    total_txns: u64,
    windows: u64,
    max_overshoot: u64,
}

impl WindowMonitor {
    /// Creates a monitor over `regs`, latching the initial period from the
    /// `PERIOD` register (clamped to at least 1 cycle).
    pub fn new(regs: Arc<RegFile>) -> Self {
        let period = (regs.read(Reg::Period) as u64).max(1);
        WindowMonitor {
            regs,
            window_start: Cycle::ZERO,
            period,
            win_bytes: 0,
            win_rd_bytes: 0,
            win_wr_bytes: 0,
            win_txns: 0,
            total_bytes: 0,
            total_txns: 0,
            windows: 0,
            max_overshoot: 0,
        }
    }

    /// The period currently in effect (latched; may lag the register).
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Bytes accepted in the open window.
    pub fn win_bytes(&self) -> u64 {
        self.win_bytes
    }

    /// Read bytes accepted in the open window.
    pub fn win_rd_bytes(&self) -> u64 {
        self.win_rd_bytes
    }

    /// Write bytes accepted in the open window.
    pub fn win_wr_bytes(&self) -> u64 {
        self.win_wr_bytes
    }

    /// Transactions accepted in the open window.
    pub fn win_txns(&self) -> u64 {
        self.win_txns
    }

    /// Lifetime accepted bytes since the last stats reset.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Completed windows since the last stats reset.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Start cycle of the open window.
    pub fn window_start(&self) -> Cycle {
        self.window_start
    }

    /// Advances window state to `now`, closing any elapsed windows.
    ///
    /// `budget` is the byte budget that was in force for the closing
    /// windows (used for the `MAX_OVERSHOOT` telemetry). Returns the
    /// number of windows closed (0 most cycles).
    pub fn on_cycle(&mut self, now: Cycle, budget: u64) -> u32 {
        let mut closed = 0;
        while now.saturating_since(self.window_start) >= self.period {
            let overshoot = self.win_bytes.saturating_sub(budget);
            self.max_overshoot = self.max_overshoot.max(overshoot);
            self.windows += 1;
            self.regs.write(
                Reg::LastWinBytes,
                self.win_bytes.min(u32::MAX as u64) as u32,
            );
            self.regs
                .write(Reg::Windows, self.windows.min(u32::MAX as u64) as u32);
            self.regs.write(
                Reg::MaxOvershoot,
                self.max_overshoot.min(u32::MAX as u64) as u32,
            );
            self.win_bytes = 0;
            self.win_rd_bytes = 0;
            self.win_wr_bytes = 0;
            self.win_txns = 0;
            self.window_start += self.period;
            // Latch a possibly updated period for the next window.
            self.period = (self.regs.read(Reg::Period) as u64).max(1);
            closed += 1;
        }
        if closed > 0 {
            self.sync_window_regs();
        }
        closed
    }

    /// Records one accepted transaction of `bytes` bytes, attributed to
    /// the read channel. Prefer [`WindowMonitor::record_dir`] when the
    /// direction is known (it keeps the split-mode telemetry exact).
    pub fn record(&mut self, bytes: u64) {
        self.record_dir(bytes, Dir::Read);
    }

    /// Records one accepted transaction with its channel direction.
    pub fn record_dir(&mut self, bytes: u64, dir: Dir) {
        self.win_bytes += bytes;
        match dir {
            Dir::Read => self.win_rd_bytes += bytes,
            Dir::Write => self.win_wr_bytes += bytes,
        }
        self.win_txns += 1;
        self.total_bytes += bytes;
        self.total_txns += 1;
        self.sync_window_regs();
        self.regs
            .write64(Reg::TotalBytesLo, Reg::TotalBytesHi, self.total_bytes);
        self.regs
            .write64(Reg::TotalTxnsLo, Reg::TotalTxnsHi, self.total_txns);
    }

    fn sync_window_regs(&self) {
        self.regs
            .write(Reg::WinBytes, self.win_bytes.min(u32::MAX as u64) as u32);
        self.regs.write(
            Reg::WinRdBytes,
            self.win_rd_bytes.min(u32::MAX as u64) as u32,
        );
        self.regs.write(
            Reg::WinWrBytes,
            self.win_wr_bytes.min(u32::MAX as u64) as u32,
        );
        self.regs
            .write(Reg::WinTxns, self.win_txns.min(u32::MAX as u64) as u32);
    }

    /// Deep-copies the monitor for a snapshot fork, binding it to the
    /// register block `ctx` maps this monitor's block to.
    pub(crate) fn fork(&self, ctx: &mut ForkCtx) -> WindowMonitor {
        WindowMonitor {
            regs: ctx.fork_arc(&self.regs),
            window_start: self.window_start,
            period: self.period,
            win_bytes: self.win_bytes,
            win_rd_bytes: self.win_rd_bytes,
            win_wr_bytes: self.win_wr_bytes,
            win_txns: self.win_txns,
            total_bytes: self.total_bytes,
            total_txns: self.total_txns,
            windows: self.windows,
            max_overshoot: self.max_overshoot,
        }
    }

    /// Feeds the monitor state (latched period, open-window counters,
    /// lifetime totals) into a snapshot fingerprint stream. The register
    /// block itself is hashed by the owning gate.
    pub(crate) fn snap(&self, h: &mut StateHasher) {
        h.section("window-monitor");
        h.write_cycle(self.window_start.get());
        h.write_u64(self.period);
        // Open-window counters stay plain: a steady-state period always
        // spans whole windows, so they recur exactly at the boundary.
        h.write_u64(self.win_bytes);
        h.write_u64(self.win_rd_bytes);
        h.write_u64(self.win_wr_bytes);
        h.write_u64(self.win_txns);
        h.write_counter_u64(self.total_bytes);
        h.write_counter_u64(self.total_txns);
        h.write_counter_u64(self.windows);
        h.write_u64(self.max_overshoot);
        // The stream's log-flag byte, always clear: keeping it keeps
        // blob bytes and fingerprints unchanged.
        h.write_bool(false);
    }

    /// Restores the monitor state from a serialized snapshot stream (the
    /// decode mirror of [`WindowMonitor::snap`]). The register block is
    /// restored separately by the owning gate.
    ///
    /// # Errors
    ///
    /// Any [`fgqos_sim::SnapDecodeError`] aborts the whole load; a set
    /// log flag (a stream from a monitor that kept a per-window log) is
    /// a [`fgqos_sim::SnapDecodeError::BadValue`].
    pub(crate) fn snap_load(
        &mut self,
        r: &mut fgqos_sim::SnapReader<'_>,
    ) -> Result<(), fgqos_sim::SnapDecodeError> {
        use fgqos_sim::SnapDecodeError;
        r.section("window-monitor")?;
        self.window_start = Cycle::new(r.read_u64("window-monitor window_start")?);
        self.period = r.read_u64("window-monitor period")?;
        self.win_bytes = r.read_u64("window-monitor win_bytes")?;
        self.win_rd_bytes = r.read_u64("window-monitor win_rd_bytes")?;
        self.win_wr_bytes = r.read_u64("window-monitor win_wr_bytes")?;
        self.win_txns = r.read_u64("window-monitor win_txns")?;
        self.total_bytes = r.read_u64("window-monitor total_bytes")?;
        self.total_txns = r.read_u64("window-monitor total_txns")?;
        self.windows = r.read_u64("window-monitor windows")?;
        self.max_overshoot = r.read_u64("window-monitor max_overshoot")?;
        let at = r.position();
        if r.read_bool("window-monitor log flag")? {
            return Err(SnapDecodeError::BadValue {
                what: "window-monitor log flag is set; per-window logs are not supported".into(),
                at,
            });
        }
        Ok(())
    }

    /// Clears all telemetry and restarts the open window at `now`.
    pub fn reset(&mut self, now: Cycle) {
        self.win_bytes = 0;
        self.win_rd_bytes = 0;
        self.win_wr_bytes = 0;
        self.win_txns = 0;
        self.total_bytes = 0;
        self.total_txns = 0;
        self.windows = 0;
        self.max_overshoot = 0;
        self.window_start = now;
        self.period = (self.regs.read(Reg::Period) as u64).max(1);
        self.sync_window_regs();
        self.regs.write64(Reg::TotalBytesLo, Reg::TotalBytesHi, 0);
        self.regs.write64(Reg::TotalTxnsLo, Reg::TotalTxnsHi, 0);
        self.regs.write(Reg::Windows, 0);
        self.regs.write(Reg::LastWinBytes, 0);
        self.regs.write(Reg::MaxOvershoot, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_within_window() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 100);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        m.record(64);
        m.record(32);
        assert_eq!(m.win_bytes(), 96);
        assert_eq!(m.win_txns(), 2);
        assert_eq!(regs.read(Reg::WinBytes), 96);
        assert_eq!(regs.read(Reg::WinTxns), 2);
        assert_eq!(regs.read64(Reg::TotalBytesLo, Reg::TotalBytesHi), 96);
    }

    #[test]
    fn window_rollover_publishes_telemetry() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 100);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        m.record(500);
        let closed = m.on_cycle(Cycle::new(100), 400);
        assert_eq!(closed, 1);
        assert_eq!(regs.read(Reg::LastWinBytes), 500);
        assert_eq!(regs.read(Reg::Windows), 1);
        assert_eq!(regs.read(Reg::MaxOvershoot), 100);
        assert_eq!(m.win_bytes(), 0);
        // Totals persist across windows.
        assert_eq!(m.total_bytes(), 500);
    }

    #[test]
    fn multiple_elapsed_windows_closed_at_once() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 10);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        let closed = m.on_cycle(Cycle::new(35), 0);
        assert_eq!(closed, 3);
        assert_eq!(m.windows(), 3);
        assert_eq!(m.window_start(), Cycle::new(30));
    }

    #[test]
    fn period_latched_at_boundary() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 100);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        // Software shrinks the period mid-window: no effect yet.
        regs.sw_write(Reg::Period, 10);
        assert_eq!(m.on_cycle(Cycle::new(50), 0), 0);
        assert_eq!(m.period(), 100);
        // After the boundary the new period is live.
        m.on_cycle(Cycle::new(100), 0);
        assert_eq!(m.period(), 10);
    }

    #[test]
    fn zero_period_clamped() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 0);
        let m = WindowMonitor::new(regs);
        assert_eq!(m.period(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 100);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        m.record(1000);
        m.on_cycle(Cycle::new(100), 0);
        m.record(50);
        m.reset(Cycle::new(150));
        assert_eq!(m.total_bytes(), 0);
        assert_eq!(m.windows(), 0);
        assert_eq!(m.win_bytes(), 0);
        assert_eq!(m.window_start(), Cycle::new(150));
        assert_eq!(regs.read(Reg::Windows), 0);
        assert_eq!(regs.read64(Reg::TotalBytesLo, Reg::TotalBytesHi), 0);
        assert_eq!(regs.read(Reg::MaxOvershoot), 0);
    }

    #[test]
    fn snapshot_stream_round_trips_and_rejects_a_set_log_flag() {
        use fgqos_sim::{SnapDecodeError, SnapReader};
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 10);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        m.record(50);
        let mut h = StateHasher::recording();
        m.snap(&mut h);
        let mut bytes = h.take_bytes();
        let mut back = WindowMonitor::new(RegFile::shared());
        back.snap_load(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back.win_bytes(), 50);
        // The log flag is the stream's last byte.
        *bytes.last_mut().unwrap() = 1;
        let e = back.snap_load(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(matches!(e, SnapDecodeError::BadValue { .. }), "{e:?}");
    }

    #[test]
    fn overshoot_tracks_maximum() {
        let regs = RegFile::shared();
        regs.sw_write(Reg::Period, 10);
        let mut m = WindowMonitor::new(Arc::clone(&regs));
        m.record(150);
        m.on_cycle(Cycle::new(10), 100); // overshoot 50
        m.record(120);
        m.on_cycle(Cycle::new(20), 100); // overshoot 20 (max stays 50)
        assert_eq!(regs.read(Reg::MaxOvershoot), 50);
    }
}
