//! Declarative synthetic traffic generation.
//!
//! A [`TrafficSpec`] describes one traffic phase the way the paper's
//! synthetic AXI traffic generators are configured: address pattern,
//! transaction size, direction mix, intensity (gap / think time) and
//! optional on/off burst shaping. [`SpecSource`] turns a spec into a
//! deterministic [`TrafficSource`].

use fgqos_sim::axi::Response;
use fgqos_sim::axi::{Dir, BEAT_BYTES, MAX_BURST_BEATS};
use fgqos_sim::leap::LeapSupport;
use fgqos_sim::master::{PendingRequest, TrafficSource};
use fgqos_sim::time::Cycle;
use fgqos_sim::{ForkCtx, SnapDecodeError, StateIo};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Address generation pattern of a traffic phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressPattern {
    /// Consecutive addresses (maximum row locality).
    Sequential,
    /// Fixed stride between transactions. Large power-of-two strides
    /// defeat row locality and can pin a single bank.
    Strided {
        /// Byte stride between transaction start addresses.
        stride: u64,
    },
    /// Uniformly random transaction-aligned addresses in the footprint
    /// (worst-case row locality).
    Random,
}

/// On/off burst shaping of a traffic phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BurstShape {
    /// Length of the active (issuing) phase in cycles.
    pub on_cycles: u64,
    /// Length of the silent phase in cycles.
    pub off_cycles: u64,
}

/// One declarative traffic phase.
#[derive(Debug, Clone, Copy)]
pub struct TrafficSpec {
    /// First byte of the address footprint.
    pub base: u64,
    /// Footprint size in bytes (addresses wrap inside it).
    pub footprint: u64,
    /// Bytes per transaction (positive multiple of the beat size, at
    /// most one maximum burst).
    pub txn_bytes: u64,
    /// Direction of transactions; [`TrafficSpec::write_ratio`] can blend.
    pub dir: Dir,
    /// Fraction of transactions flipped to the opposite direction
    /// (`0.0` = pure `dir`, `0.5` = even mix).
    pub write_ratio: f64,
    /// Address pattern.
    pub pattern: AddressPattern,
    /// Minimum issue-to-issue spacing in cycles.
    pub gap: u64,
    /// Closed-loop think time after each completion, in cycles.
    pub think: u64,
    /// Total transactions in this phase (`u64::MAX` = unbounded).
    pub total: u64,
    /// Optional on/off shaping.
    pub burst: Option<BurstShape>,
}

impl TrafficSpec {
    /// A greedy sequential stream: the canonical bandwidth hog.
    pub fn stream(base: u64, footprint: u64, txn_bytes: u64, dir: Dir) -> Self {
        TrafficSpec {
            base,
            footprint,
            txn_bytes,
            dir,
            write_ratio: 0.0,
            pattern: AddressPattern::Sequential,
            gap: 0,
            think: 0,
            total: u64::MAX,
            burst: None,
        }
    }

    /// A latency-sensitive closed-loop reader: random reads with a think
    /// time, the canonical critical CPU-like actor.
    pub fn latency_sensitive(base: u64, footprint: u64, txn_bytes: u64, think: u64) -> Self {
        TrafficSpec {
            base,
            footprint,
            txn_bytes,
            dir: Dir::Read,
            write_ratio: 0.0,
            pattern: AddressPattern::Random,
            gap: 0,
            think,
            total: u64::MAX,
            burst: None,
        }
    }

    /// Bounds the phase to `total` transactions.
    pub fn with_total(mut self, total: u64) -> Self {
        self.total = total;
        self
    }

    /// Sets on/off burst shaping.
    pub fn with_burst(mut self, shape: BurstShape) -> Self {
        self.burst = Some(shape);
        self
    }

    /// Sets the opposite-direction blend ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `0.0..=1.0`.
    pub fn with_write_ratio(mut self, ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&ratio), "ratio must be within 0..=1");
        self.write_ratio = ratio;
        self
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.txn_bytes == 0 || !self.txn_bytes.is_multiple_of(BEAT_BYTES) {
            return Err(format!(
                "txn_bytes must be a positive multiple of {BEAT_BYTES}"
            ));
        }
        if self.txn_bytes / BEAT_BYTES > MAX_BURST_BEATS as u64 {
            return Err("txn_bytes exceeds one maximum burst".into());
        }
        if self.footprint < self.txn_bytes {
            return Err("footprint must hold at least one transaction".into());
        }
        if !(0.0..=1.0).contains(&self.write_ratio) {
            return Err("write_ratio must be within 0..=1".into());
        }
        if let Some(b) = self.burst {
            if b.on_cycles == 0 {
                return Err("burst on-phase must be non-zero".into());
            }
        }
        Ok(())
    }

    /// Number of beats per transaction.
    pub fn beats(&self) -> u16 {
        (self.txn_bytes / BEAT_BYTES) as u16
    }
}

/// Deterministic [`TrafficSource`] driven by a [`TrafficSpec`].
#[derive(Debug, Clone)]
pub struct SpecSource {
    spec: TrafficSpec,
    rng: SmallRng,
    cursor: u64,
    issued: u64,
    next_ready: Cycle,
}

impl SpecSource {
    /// Creates a source from a spec with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`TrafficSpec::validate`].
    pub fn new(spec: TrafficSpec, seed: u64) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid TrafficSpec: {e}");
        }
        SpecSource {
            spec,
            rng: SmallRng::seed_from_u64(seed),
            cursor: 0,
            issued: 0,
            next_ready: Cycle::ZERO,
        }
    }

    /// Delays the first request until `start`: the source is completely
    /// silent before it (its `next_activity` contract reflects the
    /// delay, so the event calendar skips the silent stretch). Used by
    /// warm-start experiments to launch a critical kernel only after a
    /// shared warm-up phase has reached steady state.
    pub fn with_start(mut self, start: Cycle) -> Self {
        self.next_ready = self.next_ready.max(start);
        self
    }

    /// The spec driving this source.
    pub fn spec(&self) -> &TrafficSpec {
        &self.spec
    }

    /// Transactions generated so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    fn next_addr(&mut self) -> u64 {
        let s = &self.spec;
        let slots = s.footprint / s.txn_bytes;
        let slot = match s.pattern {
            AddressPattern::Sequential => {
                let v = self.cursor;
                self.cursor = (self.cursor + 1) % slots;
                v
            }
            AddressPattern::Strided { stride } => {
                let addr_off = self.cursor;
                self.cursor = (self.cursor + stride.max(s.txn_bytes)) % s.footprint;
                return s.base + addr_off - addr_off % s.txn_bytes;
            }
            AddressPattern::Random => self.rng.gen_range(0..slots),
        };
        s.base + slot * s.txn_bytes
    }

    fn next_dir(&mut self) -> Dir {
        let flip = self.spec.write_ratio > 0.0 && self.rng.gen_bool(self.spec.write_ratio);
        match (self.spec.dir, flip) {
            (d, false) => d,
            (Dir::Read, true) => Dir::Write,
            (Dir::Write, true) => Dir::Read,
        }
    }

    /// Shifts `t` into the next on-phase if burst shaping is active.
    fn align_to_burst(&self, t: Cycle) -> Cycle {
        let Some(b) = self.spec.burst else { return t };
        let period = b.on_cycles + b.off_cycles;
        let phase = t.get() % period;
        if phase < b.on_cycles {
            t
        } else {
            Cycle::new(t.get() - phase + period)
        }
    }
}

impl TrafficSource for SpecSource {
    fn next_request(&mut self, now: Cycle) -> Option<PendingRequest> {
        if self.issued >= self.spec.total {
            return None;
        }
        let not_before = self.align_to_burst(self.next_ready.max(now));
        self.next_ready = not_before + self.spec.gap;
        let addr = self.next_addr();
        let dir = self.next_dir();
        self.issued += 1;
        Some(PendingRequest {
            addr,
            beats: self.spec.beats(),
            dir,
            not_before,
        })
    }

    fn on_complete(&mut self, response: &Response, _now: Cycle) {
        if self.spec.think > 0 {
            self.next_ready = self.next_ready.max(response.completed_at + self.spec.think);
        }
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        // Mirrors the `not_before` the next pull would compute, so a
        // master that skips straight here stages a bit-identical request.
        if self.issued >= self.spec.total {
            None
        } else {
            Some(self.align_to_burst(self.next_ready.max(now)))
        }
    }

    fn is_done(&self) -> bool {
        self.issued >= self.spec.total
    }

    fn leap_support(&self, _now: Cycle) -> LeapSupport {
        // A bounded phase caps the leap so exhaustion lands on a
        // simulated cycle; burst shaping reads `now % period`, so the
        // leap period must be a multiple of it. Random addressing and
        // direction blending need no constraint: they advance the RNG
        // words, which are plain snapshot state, so a verified
        // recurrence already proves the stream repeats.
        let mut s = if self.spec.total == u64::MAX {
            LeapSupport::clear()
        } else {
            LeapSupport::budget(self.spec.total.saturating_sub(self.issued))
        };
        if let Some(b) = self.spec.burst {
            s = s.merge(LeapSupport::modulus(b.on_cycles + b.off_cycles));
        }
        s
    }

    fn fork_source(&self, _ctx: &mut ForkCtx) -> Option<Box<dyn TrafficSource>> {
        Some(Box::new(self.clone()))
    }

    fn state(&mut self, io: &mut StateIo) -> Result<(), SnapDecodeError> {
        io.section("spec-source")?;
        // The spec travels in the stream, so reading also rebuilds the
        // in-flight phase of a `KernelSource`, whose phase spec is not
        // part of the rebuilt skeleton.
        let spec_at = io.position();
        let s = &mut self.spec;
        io.u64(&mut s.base)?;
        io.u64(&mut s.footprint)?;
        io.u64(&mut s.txn_bytes)?;
        s.dir.state(io)?;
        io.f64(&mut s.write_ratio)?;
        let tag_at = io.position();
        let (mut tag, mut stride) = match s.pattern {
            AddressPattern::Sequential => (0, 0),
            AddressPattern::Strided { stride } => (1, stride),
            AddressPattern::Random => (2, 0),
        };
        io.u8(&mut tag)?;
        if tag == 1 {
            io.u64(&mut stride)?;
        }
        s.pattern = match tag {
            0 => AddressPattern::Sequential,
            1 => AddressPattern::Strided { stride },
            2 => AddressPattern::Random,
            t => {
                return Err(SnapDecodeError::BadValue {
                    what: format!("unknown address-pattern tag {t}"),
                    at: tag_at,
                })
            }
        };
        io.u64(&mut s.gap)?;
        io.u64(&mut s.think)?;
        io.u64(&mut s.total)?;
        io.option(&mut s.burst, |io, b| {
            io.u64(&mut b.on_cycles)?;
            io.u64(&mut b.off_cycles)
        })?;
        if io.is_reading() {
            if let Err(e) = s.validate() {
                return Err(SnapDecodeError::BadValue {
                    what: format!("serialized TrafficSpec invalid: {e}"),
                    at: spec_at,
                });
            }
        }
        let mut words = self.rng.state();
        for w in &mut words {
            io.u64(w)?;
        }
        if io.is_reading() {
            self.rng = SmallRng::from_state(words);
        }
        io.u64(&mut self.cursor)?;
        io.counter_u64(&mut self.issued)?;
        io.cycle(&mut self.next_ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec() -> TrafficSpec {
        TrafficSpec::stream(0x1000, 1 << 20, 256, Dir::Read)
    }

    #[test]
    fn sequential_addresses_advance_and_wrap() {
        let spec = TrafficSpec {
            footprint: 512,
            ..base_spec()
        };
        let mut s = SpecSource::new(spec, 1);
        let addrs: Vec<u64> = (0..3)
            .map(|_| s.next_request(Cycle::ZERO).unwrap().addr)
            .collect();
        assert_eq!(addrs, [0x1000, 0x1100, 0x1000]);
    }

    #[test]
    fn strided_addresses_use_stride() {
        let spec = TrafficSpec {
            pattern: AddressPattern::Strided { stride: 4096 },
            ..base_spec()
        };
        let mut s = SpecSource::new(spec, 1);
        let a = s.next_request(Cycle::ZERO).unwrap().addr;
        let b = s.next_request(Cycle::ZERO).unwrap().addr;
        assert_eq!(b - a, 4096);
    }

    #[test]
    fn random_addresses_stay_in_footprint_and_are_deterministic() {
        let spec = TrafficSpec {
            pattern: AddressPattern::Random,
            footprint: 1 << 16,
            ..base_spec()
        };
        let mut s1 = SpecSource::new(spec, 42);
        let mut s2 = SpecSource::new(spec, 42);
        for _ in 0..100 {
            let a = s1.next_request(Cycle::ZERO).unwrap();
            let b = s2.next_request(Cycle::ZERO).unwrap();
            assert_eq!(a, b, "same seed must give same stream");
            assert!(a.addr >= 0x1000 && a.addr + 256 <= 0x1000 + (1 << 16));
            assert_eq!(a.addr % 256, 0);
        }
    }

    #[test]
    fn write_ratio_blends_directions() {
        let spec = base_spec().with_write_ratio(0.5);
        let mut s = SpecSource::new(spec, 7);
        let mut writes = 0;
        for _ in 0..1000 {
            if s.next_request(Cycle::ZERO).unwrap().dir == Dir::Write {
                writes += 1;
            }
        }
        assert!(
            (350..=650).contains(&writes),
            "write mix off: {writes}/1000"
        );
    }

    #[test]
    fn burst_shaping_defers_into_on_phase() {
        let spec = base_spec().with_burst(BurstShape {
            on_cycles: 100,
            off_cycles: 900,
        });
        let mut s = SpecSource::new(spec, 1);
        // At cycle 50 (on-phase): immediate.
        assert_eq!(s.next_request(Cycle::new(50)).unwrap().not_before.get(), 50);
        // At cycle 500 (off-phase): deferred to cycle 1000.
        let mut s2 = SpecSource::new(spec, 1);
        assert_eq!(
            s2.next_request(Cycle::new(500)).unwrap().not_before.get(),
            1_000
        );
    }

    #[test]
    fn total_bounds_generation() {
        let spec = base_spec().with_total(2);
        let mut s = SpecSource::new(spec, 1);
        assert!(s.next_request(Cycle::ZERO).is_some());
        assert!(s.next_request(Cycle::ZERO).is_some());
        assert!(s.next_request(Cycle::ZERO).is_none());
        assert!(s.is_done());
        assert_eq!(s.issued(), 2);
    }

    #[test]
    fn with_start_delays_first_request() {
        let spec = base_spec().with_total(3);
        let mut s = SpecSource::new(spec, 1).with_start(Cycle::new(5_000));
        assert_eq!(s.next_activity(Cycle::ZERO), Some(Cycle::new(5_000)));
        let first = s.next_request(Cycle::new(10)).unwrap();
        assert_eq!(first.not_before.get(), 5_000);
        // Subsequent requests follow normally.
        let second = s.next_request(Cycle::new(5_000)).unwrap();
        assert_eq!(second.not_before.get(), 5_000);
    }

    #[test]
    fn gap_spaces_generation() {
        let spec = TrafficSpec {
            gap: 100,
            ..base_spec()
        };
        let mut s = SpecSource::new(spec, 1);
        let a = s.next_request(Cycle::new(10)).unwrap();
        let b = s.next_request(Cycle::new(10)).unwrap();
        assert_eq!(a.not_before.get(), 10);
        assert_eq!(b.not_before.get(), 110);
    }

    #[test]
    fn validation_catches_bad_specs() {
        assert!(TrafficSpec {
            txn_bytes: 100,
            ..base_spec()
        }
        .validate()
        .is_err());
        assert!(TrafficSpec {
            txn_bytes: 8192,
            ..base_spec()
        }
        .validate()
        .is_err());
        assert!(TrafficSpec {
            footprint: 64,
            ..base_spec()
        }
        .validate()
        .is_err());
        assert!(TrafficSpec {
            burst: Some(BurstShape {
                on_cycles: 0,
                off_cycles: 5
            }),
            ..base_spec()
        }
        .validate()
        .is_err());
        assert!(base_spec().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid TrafficSpec")]
    fn constructor_panics_on_invalid() {
        let _ = SpecSource::new(
            TrafficSpec {
                txn_bytes: 0,
                ..base_spec()
            },
            1,
        );
    }
}
