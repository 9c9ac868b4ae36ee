//! Banked DRAM controller with open-row policy, FR-FCFS scheduling and a
//! shared data bus.
//!
//! The model reproduces the three mechanisms through which co-running
//! masters interfere on a real Zynq-class DDR controller:
//!
//! 1. **Queueing** — a finite request queue shared by all masters; a
//!    latency-sensitive request arriving behind a burst of DMA traffic
//!    waits for it.
//! 2. **Bank/row locality** — per-bank open-row state; a row hit costs
//!    `tCL`, a miss pays `tRP + tRCD + tCL`. Interleaved streams destroy
//!    each other's row locality.
//! 3. **Data-bus occupancy** — every transaction occupies the shared data
//!    bus for one cycle per beat; long DMA bursts delay everyone.
//!
//! Scheduling is First-Ready FCFS with a configurable *row-hit streak cap*
//! so that hit-first reordering cannot starve older requests indefinitely
//! (as in real controllers).

use crate::arena::{TxnArena, TxnId};
use crate::axi::{Dir, Response};
use crate::stats::LatencyStats;
use crate::time::Cycle;
use fgqos_snap::{SnapDecodeError, StateIo};
use std::collections::VecDeque;

/// A window of densified refresh: between `start` (inclusive) and `end`
/// (exclusive) refreshes recur every `interval` cycles instead of every
/// `t_refi`.
///
/// Storms model worst-case refresh interference (high-temperature
/// derating, per-bank refresh pile-ups): each refresh still blocks all
/// banks for `t_rfc` cycles, so an `interval` close to `t_rfc` starves
/// the device for the storm's duration. Declared in scenarios via the
/// `refresh_storm` fault directive (see `docs/scenario-format.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshStorm {
    /// First cycle of the storm window.
    pub start: u64,
    /// First cycle after the storm window.
    pub end: u64,
    /// Refresh-to-refresh spacing inside the window, in cycles.
    pub interval: u64,
}

/// Timing and geometry parameters of the DRAM model.
///
/// Defaults approximate a DDR4-2400 device behind a 1 GHz controller
/// clock, with a 16-byte data bus (one beat per cycle).
#[derive(Debug, Clone)]
pub struct DramConfig {
    /// Number of banks (bank groups are not modelled separately).
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Precharge latency in cycles (tRP).
    pub t_rp: u64,
    /// Activate-to-CAS latency in cycles (tRCD).
    pub t_rcd: u64,
    /// CAS latency in cycles (tCL).
    pub t_cl: u64,
    /// Shared request-queue capacity.
    pub queue_capacity: usize,
    /// Maximum number of consecutive younger row hits that may bypass the
    /// oldest request (FR-FCFS starvation bound).
    pub row_hit_cap: u32,
    /// Refresh interval in cycles (tREFI); 0 disables refresh.
    pub t_refi: u64,
    /// Refresh duration in cycles (tRFC).
    pub t_rfc: u64,
    /// Fixed request/response transport latency added to every
    /// transaction (interconnect forwarding + response return).
    pub transport_latency: u64,
    /// How far ahead of `bus_free` the scheduler may pipeline the next
    /// request (cycles). Models command-queue lookahead.
    pub pipeline_lookahead: u64,
    /// Bus turnaround penalty when a read follows a write (tWTR-like).
    pub t_wtr: u64,
    /// Bus turnaround penalty when a write follows a read (tRTW-like).
    pub t_rtw: u64,
    /// Read-priority scheduling with write draining: reads are served
    /// first; writes buffer until they fill 3/4 of the queue, then drain
    /// down to 1/4 (standard controller behaviour). Off by default so the
    /// calibrated experiments keep their direction-neutral arbiter.
    pub read_priority: bool,
    /// Windows of densified refresh, sorted and non-overlapping. Empty
    /// by default; requires `t_refi != 0`.
    pub storms: Vec<RefreshStorm>,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            banks: 16,
            row_bytes: 2048,
            t_rp: 15,
            t_rcd: 15,
            t_cl: 15,
            queue_capacity: 24,
            row_hit_cap: 4,
            t_refi: 7_800,
            t_rfc: 350,
            transport_latency: 20,
            pipeline_lookahead: 48,
            t_wtr: 12,
            t_rtw: 6,
            read_priority: false,
            storms: Vec::new(),
        }
    }
}

impl DramConfig {
    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.banks == 0 {
            return Err("banks must be non-zero".into());
        }
        if !self.row_bytes.is_power_of_two() {
            return Err("row_bytes must be a power of two".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be non-zero".into());
        }
        if self.t_refi != 0 && self.t_rfc >= self.t_refi {
            return Err("t_rfc must be smaller than t_refi".into());
        }
        if !self.storms.is_empty() && self.t_refi == 0 {
            return Err("refresh storms require refresh to be enabled (t_refi != 0)".into());
        }
        let mut prev_end = 0u64;
        for s in &self.storms {
            if s.interval == 0 {
                return Err("refresh storm interval must be non-zero".into());
            }
            if s.start >= s.end {
                return Err("refresh storm must end after it starts".into());
            }
            if s.start < prev_end {
                return Err("refresh storms must be sorted and non-overlapping".into());
            }
            prev_end = s.end;
        }
        Ok(())
    }

    /// The cycle of the refresh following one scheduled at `fired`:
    /// `t_refi` later normally, the storm's `interval` later inside a
    /// storm window, and never skipping past the start of an upcoming
    /// storm. Only meaningful when `t_refi != 0`.
    fn next_refresh_after(&self, fired: u64) -> u64 {
        let in_storm = self
            .storms
            .iter()
            .find(|s| fired >= s.start && fired < s.end);
        let mut next = match in_storm {
            Some(s) if fired + s.interval < s.end => fired + s.interval,
            _ => fired + self.t_refi,
        };
        for s in &self.storms {
            if s.start > fired && s.start < next {
                next = s.start;
            }
        }
        next
    }

    /// Decomposes a byte address into (bank, row) coordinates.
    ///
    /// Rows are interleaved across banks at row granularity, the mapping
    /// used by Zynq US+ defaults (bank bits above column bits).
    #[inline]
    pub fn map(&self, addr: u64) -> (usize, u64) {
        let row_index = addr / self.row_bytes;
        let bank = (row_index % self.banks as u64) as usize;
        let row = row_index / self.banks as u64;
        (bank, row)
    }
}

#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<u64>,
    ready_at: Cycle,
}

/// A queued transaction: the arena handle plus copies of the fields the
/// scheduler reads every selection round, so FR-FCFS scans dense local
/// data instead of chasing arena columns per candidate.
#[derive(Debug, Clone, Copy)]
struct Queued {
    txn: TxnId,
    addr: u64,
    beats: u16,
    dir: Dir,
    arrived: Cycle,
}

#[derive(Debug, Clone, Copy)]
struct InService {
    txn: TxnId,
    complete_at: Cycle,
}

/// Aggregate counters exposed by the controller.
#[derive(Debug, Clone, Default)]
pub struct DramStats {
    /// Bytes of all *completed* transactions.
    pub bytes_completed: u64,
    /// Completed read transactions.
    pub reads: u64,
    /// Completed write transactions.
    pub writes: u64,
    /// Scheduled accesses that hit an open row.
    pub row_hits: u64,
    /// Scheduled accesses that required activate (and possibly precharge).
    pub row_misses: u64,
    /// Cycles the data bus spent transferring beats.
    pub bus_busy_cycles: u64,
    /// All-bank refresh operations performed.
    pub refreshes: u64,
    /// Distribution of cycles requests waited in the shared queue before
    /// being scheduled (the queueing component of interference).
    pub queue_wait: LatencyStats,
}

impl DramStats {
    /// Row-hit ratio over all scheduled accesses (0.0 when none).
    pub fn row_hit_ratio(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

/// The DRAM controller: shared queue, per-bank row state, FR-FCFS
/// scheduler, shared data bus.
#[derive(Debug, Clone)]
pub struct DramController {
    cfg: DramConfig,
    queue: VecDeque<Queued>,
    banks: Vec<BankState>,
    bus_free_at: Cycle,
    last_dir: Option<Dir>,
    in_service: Vec<InService>,
    next_refresh: Cycle,
    hit_streak: u32,
    draining_writes: bool,
    // Reused completion buffer so the per-cycle tick allocates nothing.
    completed_buf: Vec<Response>,
    stats: DramStats,
}

impl DramController {
    /// Creates a controller from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`DramConfig::validate`].
    pub fn new(cfg: DramConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid DramConfig: {e}");
        }
        let banks = vec![
            BankState {
                open_row: None,
                ready_at: Cycle::ZERO
            };
            cfg.banks
        ];
        let next_refresh = if cfg.t_refi == 0 {
            Cycle::new(u64::MAX)
        } else {
            Cycle::new(cfg.next_refresh_after(0))
        };
        DramController {
            cfg,
            queue: VecDeque::new(),
            banks,
            bus_free_at: Cycle::ZERO,
            last_dir: None,
            in_service: Vec::new(),
            next_refresh,
            hit_streak: 0,
            draining_writes: false,
            completed_buf: Vec::new(),
            stats: DramStats::default(),
        }
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Whether the shared request queue can admit another request.
    #[inline]
    pub fn has_space(&self) -> bool {
        self.queue.len() < self.cfg.queue_capacity
    }

    /// Current queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Admits a transaction into the shared queue, copying the fields the
    /// scheduler needs from `arena`.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full; callers must check [`Self::has_space`].
    pub fn enqueue(&mut self, txn: TxnId, arena: &TxnArena, now: Cycle) {
        assert!(self.has_space(), "DRAM queue overflow");
        self.queue.push_back(Queued {
            txn,
            addr: arena.addr(txn),
            beats: arena.beats(txn),
            dir: arena.dir(txn),
            arrived: now,
        });
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// FR-FCFS selection: index into `queue` of the request to schedule,
    /// or `None` when the queue is empty.
    fn select(&mut self) -> Option<usize> {
        if self.queue.is_empty() {
            return None;
        }
        let eligible_dir = self.eligible_direction();
        // Find the oldest eligible request and the first eligible row hit.
        let mut oldest: Option<usize> = None;
        let mut hit: Option<usize> = None;
        for (i, q) in self.queue.iter().enumerate() {
            if let Some(d) = eligible_dir {
                if q.dir != d {
                    continue;
                }
            }
            if oldest.is_none() {
                oldest = Some(i);
            }
            if hit.is_none() {
                let (bank, row) = self.cfg.map(q.addr);
                if self.banks[bank].open_row == Some(row) {
                    hit = Some(i);
                }
            }
            if oldest.is_some() && hit.is_some() {
                break;
            }
        }
        let oldest = oldest?;
        match hit {
            Some(i) if i != oldest && self.hit_streak < self.cfg.row_hit_cap => {
                self.hit_streak += 1;
                Some(i)
            }
            _ => {
                self.hit_streak = 0;
                Some(oldest)
            }
        }
    }

    /// Under read-priority scheduling, the direction currently eligible
    /// for service (`None` = any).
    fn eligible_direction(&mut self) -> Option<Dir> {
        if !self.cfg.read_priority {
            return None;
        }
        let writes = self.queue.iter().filter(|q| q.dir == Dir::Write).count();
        let reads = self.queue.len() - writes;
        let cap = self.cfg.queue_capacity;
        if self.draining_writes {
            if writes <= cap / 4 {
                self.draining_writes = false;
            }
        } else if writes >= cap * 3 / 4 {
            self.draining_writes = true;
        }
        if self.draining_writes && writes > 0 {
            Some(Dir::Write)
        } else if reads > 0 {
            Some(Dir::Read)
        } else if writes > 0 {
            Some(Dir::Write)
        } else {
            None
        }
    }

    /// Advances the controller by one cycle; returns transactions that
    /// completed this cycle (their arena slots are released). The returned
    /// slice borrows an internal buffer that is overwritten by the next
    /// call.
    pub fn tick(&mut self, now: Cycle, arena: &mut TxnArena) -> &[Response] {
        // 1. Collect completions.
        self.completed_buf.clear();
        let mut i = 0;
        while i < self.in_service.len() {
            if self.in_service[i].complete_at <= now {
                let s = self.in_service.swap_remove(i);
                let request = arena.take(s.txn);
                self.stats.bytes_completed += request.bytes();
                match request.dir {
                    Dir::Read => self.stats.reads += 1,
                    Dir::Write => self.stats.writes += 1,
                }
                self.completed_buf.push(Response {
                    request,
                    completed_at: s.complete_at,
                });
            } else {
                i += 1;
            }
        }

        // 2. All-bank refresh.
        if now >= self.next_refresh {
            let until = now + self.cfg.t_rfc;
            for b in &mut self.banks {
                b.ready_at = b.ready_at.max(until);
                b.open_row = None;
            }
            self.bus_free_at = self.bus_free_at.max(until);
            self.next_refresh = Cycle::new(self.cfg.next_refresh_after(self.next_refresh.get()));
            self.stats.refreshes += 1;
        }

        // 3. Schedule one request per cycle while the pipeline window has
        //    room (overlaps bank preparation with the current transfer).
        if self.bus_free_at.saturating_since(now) <= self.cfg.pipeline_lookahead {
            if let Some(idx) = self.select() {
                let q = self.queue.remove(idx).expect("selected index valid");
                self.issue(q, now);
            }
        }

        &self.completed_buf
    }

    /// Earliest cycle `>= now` at which ticking the controller can change
    /// state: the next completion, the next cycle the pipeline window
    /// admits a queued request, or the next refresh. `None` when the
    /// controller is idle with refresh disabled.
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        let mut wake: Option<Cycle> = None;
        let mut merge = |c: Cycle| {
            wake = Some(wake.map_or(c, |w: Cycle| w.min(c)));
        };
        for s in &self.in_service {
            merge(s.complete_at.max(now));
        }
        if !self.queue.is_empty() {
            let sched = Cycle::new(
                self.bus_free_at
                    .get()
                    .saturating_sub(self.cfg.pipeline_lookahead),
            );
            merge(sched.max(now));
        }
        if self.cfg.t_refi != 0 {
            merge(self.next_refresh.max(now));
        }
        wake
    }

    fn issue(&mut self, q: Queued, now: Cycle) {
        self.stats
            .queue_wait
            .record(now.saturating_since(q.arrived));
        let (bank_idx, row) = self.cfg.map(q.addr);
        let bank = &mut self.banks[bank_idx];
        let bank_ready = bank.ready_at.max(now);
        let (access, hit) = match bank.open_row {
            Some(open) if open == row => (self.cfg.t_cl, true),
            Some(_) => (self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cl, false),
            None => (self.cfg.t_rcd + self.cfg.t_cl, false),
        };
        if hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        let beats = q.beats as u64;
        // Bus turnaround when the transfer direction changes.
        let turnaround = match (self.last_dir, q.dir) {
            (Some(Dir::Write), Dir::Read) => self.cfg.t_wtr,
            (Some(Dir::Read), Dir::Write) => self.cfg.t_rtw,
            _ => 0,
        };
        self.last_dir = Some(q.dir);
        let data_start = (bank_ready + access).max(self.bus_free_at + turnaround);
        let data_end = data_start + beats;
        self.bus_free_at = data_end;
        bank.ready_at = data_end;
        bank.open_row = Some(row);
        self.stats.bus_busy_cycles += beats;
        self.in_service.push(InService {
            txn: q.txn,
            complete_at: data_end + self.cfg.transport_latency,
        });
    }

    /// True when no request is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_service.is_empty()
    }

    /// Walks the controller's architectural state — queue, bank rows,
    /// bus/turnaround state, refresh schedule and statistics — through a
    /// snapshot stream. Only quiesced streams (empty request queue,
    /// nothing in service) load, since queue entries are handles into
    /// the transaction arena, which serializes no live slots. The bank
    /// count comes from the rebuilt configuration (the stream's bank
    /// records are unprefixed).
    ///
    /// # Errors
    ///
    /// When reading, any [`SnapDecodeError`] aborts the whole load.
    pub(crate) fn state(&mut self, io: &mut StateIo) -> Result<(), SnapDecodeError> {
        io.section("dram")?;
        let at = io.position();
        let mut queued = self.queue.len();
        io.usize(&mut queued)?;
        io.ensure(queued == 0, at, || {
            format!("dram queue holds {queued} request(s); only quiesced snapshots load")
        })?;
        if io.is_reading() {
            self.queue.clear();
        }
        for q in &mut self.queue {
            io.usize(&mut q.txn.index())?;
            io.u64(&mut q.addr)?;
            io.u16(&mut q.beats)?;
            q.dir.state(io)?;
            io.u64(&mut q.arrived)?;
        }
        for b in &mut self.banks {
            io.option(&mut b.open_row, StateIo::u64)?;
            io.cycle(&mut b.ready_at)?;
        }
        io.cycle(&mut self.bus_free_at)?;
        io.option(&mut self.last_dir, |io, d| d.state(io))?;
        let at = io.position();
        let mut in_service = self.in_service.len();
        io.usize(&mut in_service)?;
        io.ensure(in_service == 0, at, || {
            format!("dram has {in_service} access(es) in service; only quiesced snapshots load")
        })?;
        if io.is_reading() {
            self.in_service.clear();
        }
        for s in &self.in_service {
            io.usize(&mut s.txn.index())?;
            io.u64(&mut { s.complete_at })?;
        }
        io.cycle(&mut self.next_refresh)?;
        io.u32(&mut self.hit_streak)?;
        io.bool(&mut self.draining_writes)?;
        let st = &mut self.stats;
        io.counter_u64(&mut st.bytes_completed)?;
        io.counter_u64(&mut st.reads)?;
        io.counter_u64(&mut st.writes)?;
        io.counter_u64(&mut st.row_hits)?;
        io.counter_u64(&mut st.row_misses)?;
        io.counter_u64(&mut st.bus_busy_cycles)?;
        io.counter_u64(&mut st.refreshes)?;
        st.queue_wait.state(io)
    }

    /// Leap constraints of the refresh schedule (see [`crate::leap`]).
    ///
    /// Regular refresh needs no horizon: `next_refresh` is a cycle field
    /// in the snapshot stream, so a verified recurrence already forces
    /// the period to a multiple of `t_refi`. Storm windows are one-shot
    /// absolute-time behavior changes — and their influence starts one
    /// refresh *early*: [`DramConfig::next_refresh_after`] clamps a
    /// successor to an upcoming storm's start, so a refresh fired after
    /// `start − t_refi` already schedules differently than translation
    /// predicts. The pre-storm horizon is therefore `start − t_refi`,
    /// and inside a storm the last in-storm refresh is scheduled at
    /// `end − interval`, after which successors revert to `t_refi`
    /// spacing. Past the last storm the schedule is
    /// translation-invariant again.
    pub(crate) fn leap_support(&self, now: Cycle) -> crate::leap::LeapSupport {
        use crate::leap::LeapSupport;
        for s in &self.cfg.storms {
            if now.get() < s.start {
                return LeapSupport::until(Cycle::new(s.start.saturating_sub(self.cfg.t_refi)));
            }
            if now.get() < s.end {
                return LeapSupport::until(Cycle::new(s.end.saturating_sub(s.interval)));
            }
        }
        LeapSupport::clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axi::{Dir, MasterId, Request};

    fn cfg_no_refresh() -> DramConfig {
        DramConfig {
            t_refi: 0,
            ..DramConfig::default()
        }
    }

    fn enq(d: &mut DramController, a: &mut TxnArena, r: Request, now: Cycle) {
        let id = a.alloc(&r);
        d.enqueue(id, a, now);
    }

    fn run_until_idle(
        d: &mut DramController,
        a: &mut TxnArena,
        start: Cycle,
    ) -> (Vec<Response>, Cycle) {
        let mut now = start;
        let mut out = Vec::new();
        #[allow(clippy::explicit_counter_loop)]
        for _ in 0..1_000_000 {
            out.extend(d.tick(now, a));
            if d.is_idle() {
                return (out, now);
            }
            now += 1;
        }
        panic!("DRAM did not drain");
    }

    fn req(master: usize, serial: u64, addr: u64, beats: u16, dir: Dir) -> Request {
        Request::new(MasterId::new(master), serial, addr, beats, dir, Cycle::ZERO)
    }

    #[test]
    fn config_validation() {
        assert!(DramConfig::default().validate().is_ok());
        assert!(DramConfig {
            banks: 0,
            ..DramConfig::default()
        }
        .validate()
        .is_err());
        assert!(DramConfig {
            row_bytes: 1000,
            ..DramConfig::default()
        }
        .validate()
        .is_err());
        assert!(DramConfig {
            queue_capacity: 0,
            ..DramConfig::default()
        }
        .validate()
        .is_err());
        assert!(DramConfig {
            t_rfc: 10_000,
            ..DramConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn storm_config_validation() {
        let storm = |start, end, interval| RefreshStorm {
            start,
            end,
            interval,
        };
        assert!(DramConfig {
            storms: vec![storm(1_000, 5_000, 400)],
            ..DramConfig::default()
        }
        .validate()
        .is_ok());
        // Storms need refresh enabled.
        assert!(DramConfig {
            t_refi: 0,
            storms: vec![storm(1_000, 5_000, 400)],
            ..DramConfig::default()
        }
        .validate()
        .is_err());
        // Zero interval, inverted window, overlap.
        assert!(DramConfig {
            storms: vec![storm(1_000, 5_000, 0)],
            ..DramConfig::default()
        }
        .validate()
        .is_err());
        assert!(DramConfig {
            storms: vec![storm(5_000, 1_000, 400)],
            ..DramConfig::default()
        }
        .validate()
        .is_err());
        assert!(DramConfig {
            storms: vec![storm(1_000, 5_000, 400), storm(4_000, 9_000, 400)],
            ..DramConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn storm_densifies_refresh_cadence() {
        let cfg = DramConfig {
            t_refi: 1_000,
            t_rfc: 50,
            storms: vec![RefreshStorm {
                start: 2_500,
                end: 3_500,
                interval: 200,
            }],
            ..DramConfig::default()
        };
        // Normal cadence up to the storm, pulled in to its start.
        assert_eq!(cfg.next_refresh_after(0), 1_000);
        assert_eq!(cfg.next_refresh_after(1_000), 2_000);
        assert_eq!(cfg.next_refresh_after(2_000), 2_500);
        // Inside the storm: every `interval`.
        assert_eq!(cfg.next_refresh_after(2_500), 2_700);
        assert_eq!(cfg.next_refresh_after(2_700), 2_900);
        // Last in-storm refresh: normal cadence resumes.
        assert_eq!(cfg.next_refresh_after(3_300), 4_300);
    }

    #[test]
    fn storm_inflates_refresh_count() {
        let mk = |storms: Vec<RefreshStorm>| {
            DramController::new(DramConfig {
                t_refi: 1_000,
                t_rfc: 50,
                storms,
                ..DramConfig::default()
            })
        };
        let mut calm = mk(vec![]);
        let mut stormy = mk(vec![RefreshStorm {
            start: 2_000,
            end: 8_000,
            interval: 100,
        }]);
        let mut a = TxnArena::new();
        for t in 0..10_000u64 {
            calm.tick(Cycle::new(t), &mut a);
            stormy.tick(Cycle::new(t), &mut a);
        }
        assert_eq!(calm.stats().refreshes, 9);
        assert!(
            stormy.stats().refreshes > 5 * calm.stats().refreshes,
            "storm should densify refreshes ({} vs {})",
            stormy.stats().refreshes,
            calm.stats().refreshes
        );
    }

    #[test]
    fn address_mapping_interleaves_banks() {
        let cfg = DramConfig::default();
        let (b0, r0) = cfg.map(0);
        let (b1, r1) = cfg.map(cfg.row_bytes);
        assert_eq!(b0, 0);
        assert_eq!(r0, 0);
        assert_eq!(b1, 1);
        assert_eq!(r1, 0);
        // Same row, different column -> same (bank, row).
        assert_eq!(cfg.map(64), (0, 0));
        // After a full stripe of banks, the row advances.
        let (b, r) = cfg.map(cfg.row_bytes * cfg.banks as u64);
        assert_eq!((b, r), (0, 1));
    }

    #[test]
    fn single_request_latency() {
        let cfg = cfg_no_refresh();
        let (t_rcd, t_cl, transport) = (cfg.t_rcd, cfg.t_cl, cfg.transport_latency);
        let mut d = DramController::new(cfg);
        let mut a = TxnArena::new();
        enq(&mut d, &mut a, req(0, 0, 0, 4, Dir::Read), Cycle::ZERO);
        let (resps, _) = run_until_idle(&mut d, &mut a, Cycle::ZERO);
        assert_eq!(resps.len(), 1);
        // Closed bank: tRCD + tCL + 4 beats + transport.
        let expected = t_rcd + t_cl + 4 + transport;
        assert_eq!(resps[0].completed_at.get(), expected);
        assert_eq!(d.stats().row_misses, 1);
        assert_eq!(d.stats().bytes_completed, 4 * crate::axi::BEAT_BYTES);
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let cfg = cfg_no_refresh();
        let mut d = DramController::new(cfg);
        let mut a = TxnArena::new();
        // Two requests to the same row: second is a hit.
        enq(&mut d, &mut a, req(0, 0, 0, 1, Dir::Read), Cycle::ZERO);
        enq(&mut d, &mut a, req(0, 1, 64, 1, Dir::Read), Cycle::ZERO);
        let (resps, _) = run_until_idle(&mut d, &mut a, Cycle::ZERO);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
        let gap_same_row = resps[1].completed_at - resps[0].completed_at;

        // Two requests to different rows in the same bank: conflict.
        let cfg = cfg_no_refresh();
        let stride = cfg.row_bytes * cfg.banks as u64; // same bank, next row
        let mut d2 = DramController::new(cfg);
        enq(&mut d2, &mut a, req(0, 0, 0, 1, Dir::Read), Cycle::ZERO);
        enq(
            &mut d2,
            &mut a,
            req(0, 1, stride, 1, Dir::Read),
            Cycle::ZERO,
        );
        let (resps2, _) = run_until_idle(&mut d2, &mut a, Cycle::ZERO);
        assert_eq!(d2.stats().row_misses, 2);
        let gap_conflict = resps2[1].completed_at - resps2[0].completed_at;
        assert!(
            gap_conflict > gap_same_row,
            "row conflict ({gap_conflict}) should be slower than hit ({gap_same_row})"
        );
    }

    #[test]
    fn fr_fcfs_prefers_row_hit_but_respects_cap() {
        let mut cfg = cfg_no_refresh();
        cfg.row_hit_cap = 2;
        let stride = cfg.row_bytes * cfg.banks as u64;
        let mut d = DramController::new(cfg);
        let mut a = TxnArena::new();
        // Open row 0 of bank 0.
        enq(&mut d, &mut a, req(0, 0, 0, 1, Dir::Read), Cycle::ZERO);
        let (_, now) = run_until_idle(&mut d, &mut a, Cycle::ZERO);
        // Oldest request: a conflicting row. Younger requests: hits.
        enq(&mut d, &mut a, req(1, 0, stride, 1, Dir::Read), now);
        for s in 0..4u64 {
            enq(
                &mut d,
                &mut a,
                req(0, s + 1, 64 * (s + 1), 1, Dir::Read),
                now,
            );
        }
        let (resps, _) = run_until_idle(&mut d, &mut a, now);
        // With cap 2, exactly 2 hits bypass the old conflict request.
        let order: Vec<usize> = resps.iter().map(|r| r.request.master.index()).collect();
        assert_eq!(
            order[..3],
            [0, 0, 1],
            "two hits bypass, then oldest: {order:?}"
        );
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut cfg = cfg_no_refresh();
        cfg.queue_capacity = 2;
        let mut d = DramController::new(cfg);
        let mut a = TxnArena::new();
        enq(&mut d, &mut a, req(0, 0, 0, 1, Dir::Read), Cycle::ZERO);
        assert!(d.has_space());
        enq(&mut d, &mut a, req(0, 1, 64, 1, Dir::Read), Cycle::ZERO);
        assert!(!d.has_space());
    }

    #[test]
    #[should_panic(expected = "queue overflow")]
    fn enqueue_overflow_panics() {
        let mut cfg = cfg_no_refresh();
        cfg.queue_capacity = 1;
        let mut d = DramController::new(cfg);
        let mut a = TxnArena::new();
        enq(&mut d, &mut a, req(0, 0, 0, 1, Dir::Read), Cycle::ZERO);
        enq(&mut d, &mut a, req(0, 1, 64, 1, Dir::Read), Cycle::ZERO);
    }

    #[test]
    fn refresh_blocks_banks() {
        let mut cfg = cfg_no_refresh();
        cfg.t_refi = 100;
        cfg.t_rfc = 50;
        let mut d = DramController::new(cfg);
        let mut a = TxnArena::new();
        // Let a refresh happen, then observe the delay it imposes.
        let mut now = Cycle::ZERO;
        for _ in 0..105 {
            d.tick(now, &mut a);
            now += 1;
        }
        assert_eq!(d.stats().refreshes, 1);
        enq(&mut d, &mut a, req(0, 0, 0, 1, Dir::Read), now);
        let (resps, _) = run_until_idle(&mut d, &mut a, now);
        // Request issued at cycle 105 must wait until refresh end (150).
        assert!(
            resps[0].completed_at.get() >= 150,
            "completion {} should be delayed past refresh end",
            resps[0].completed_at
        );
    }

    #[test]
    fn read_priority_serves_reads_before_older_writes() {
        let mut cfg = cfg_no_refresh();
        cfg.read_priority = true;
        let mut d = DramController::new(cfg);
        let mut a = TxnArena::new();
        // An older write and a younger read to different banks.
        enq(&mut d, &mut a, req(0, 0, 0, 4, Dir::Write), Cycle::ZERO);
        enq(&mut d, &mut a, req(1, 0, 2048, 4, Dir::Read), Cycle::ZERO);
        let (resps, _) = run_until_idle(&mut d, &mut a, Cycle::ZERO);
        assert_eq!(
            resps[0].request.dir,
            Dir::Read,
            "read must bypass the older write"
        );
        assert_eq!(resps[1].request.dir, Dir::Write);
    }

    #[test]
    fn write_drain_engages_when_writes_pile_up() {
        let mut cfg = cfg_no_refresh();
        cfg.read_priority = true;
        cfg.queue_capacity = 8;
        let mut d = DramController::new(cfg);
        let mut a = TxnArena::new();
        // Fill 6/8 slots with writes (>= 3/4 watermark) plus one read.
        for s in 0..6u64 {
            enq(
                &mut d,
                &mut a,
                req(0, s, s * 4096, 4, Dir::Write),
                Cycle::ZERO,
            );
        }
        enq(
            &mut d,
            &mut a,
            req(1, 0, 1 << 20, 4, Dir::Read),
            Cycle::ZERO,
        );
        let (resps, _) = run_until_idle(&mut d, &mut a, Cycle::ZERO);
        // Drain mode: writes are served down to the low watermark before
        // the read gets the bus.
        let read_pos = resps
            .iter()
            .position(|r| r.request.dir == Dir::Read)
            .unwrap();
        assert!(
            read_pos >= 4,
            "drain should serve several writes before the read, got position {read_pos}"
        );
    }

    #[test]
    fn direction_neutral_default_unchanged() {
        let cfg = cfg_no_refresh();
        assert!(!cfg.read_priority);
        let mut d = DramController::new(cfg);
        let mut a = TxnArena::new();
        enq(&mut d, &mut a, req(0, 0, 0, 4, Dir::Write), Cycle::ZERO);
        enq(&mut d, &mut a, req(1, 0, 2048, 4, Dir::Read), Cycle::ZERO);
        let (resps, _) = run_until_idle(&mut d, &mut a, Cycle::ZERO);
        assert_eq!(
            resps[0].request.dir,
            Dir::Write,
            "FCFS order without read priority"
        );
    }

    #[test]
    fn bus_serializes_bursts() {
        let cfg = cfg_no_refresh();
        let mut d = DramController::new(cfg);
        let mut a = TxnArena::new();
        // Two max-locality requests to different banks: bank prep overlaps
        // but data beats serialize on the bus.
        enq(&mut d, &mut a, req(0, 0, 0, 64, Dir::Read), Cycle::ZERO);
        enq(&mut d, &mut a, req(1, 0, 2048, 64, Dir::Read), Cycle::ZERO);
        let (resps, _) = run_until_idle(&mut d, &mut a, Cycle::ZERO);
        let delta = resps[1].completed_at - resps[0].completed_at;
        assert!(
            delta >= 64,
            "second burst must wait for 64 bus beats, got {delta}"
        );
        assert_eq!(d.stats().bus_busy_cycles, 128);
    }

    #[test]
    fn throughput_approaches_bus_rate_for_streaming() {
        // A long stream of row-friendly max bursts should achieve close to
        // 1 beat/cycle.
        let cfg = cfg_no_refresh();
        let mut d = DramController::new(cfg);
        let mut a = TxnArena::new();
        let mut now = Cycle::ZERO;
        let mut addr = 0u64;
        let mut sent = 0;
        let total = 200;
        let mut completed = 0;
        while completed < total {
            if sent < total && d.has_space() {
                enq(&mut d, &mut a, req(0, sent, addr, 128, Dir::Read), now);
                addr += 128 * crate::axi::BEAT_BYTES;
                sent += 1;
            }
            completed += d.tick(now, &mut a).len() as u64;
            now += 1;
        }
        let beats = 200 * 128;
        let efficiency = beats as f64 / now.get() as f64;
        assert!(
            efficiency > 0.85,
            "streaming efficiency too low: {efficiency}"
        );
    }
}
