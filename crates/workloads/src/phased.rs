//! Multi-segment synthetic traffic: one master, several [`TrafficSpec`]
//! phases switched at declared cycle boundaries.
//!
//! A [`PhasedSource`] is the workload half of scenario fault injection
//! (`[fault]` sections of the `.fgq` DSL, see `docs/scenario-format.md`):
//! a master runs its declared spec until a boundary cycle, then continues
//! as a different spec — rogue (all rate limits stripped), bursty (on/off
//! shaping imposed) or halted (a zero-total segment).
//!
//! # Determinism across simulation cores
//!
//! Segment switching must not break the bit-identity contract between
//! naive stepping and event-calendar fast-forward. Two properties make it
//! safe:
//!
//! * the master pulls from its source at the *same* cycle under both
//!   cores (the pull-parity machinery in `fgqos_sim::master`), and the
//!   switch decision is a pure function of `(state, pull cycle)`;
//! * every segment is pre-built at construction with
//!   [`SpecSource::with_start`] at its boundary, so [`PhasedSource::next_activity`]
//!   can predict the post-switch wake cycle without mutating anything —
//!   exactly what the event calendar needs to skip the silent gap.
//!
//! A segment is abandoned once the *next* request it would issue lands at
//! or past the next boundary (or it is exhausted); the successor then
//! starts issuing no earlier than its boundary.

use crate::spec::{SpecSource, TrafficSpec};
use fgqos_sim::axi::Response;
use fgqos_sim::master::{PendingRequest, TrafficSource};
use fgqos_sim::time::Cycle;
use fgqos_sim::{ForkCtx, SnapDecodeError, StateIo};

/// Per-segment seed derivation: decorrelates the RNG streams of
/// successive segments without a second seed knob in the DSL.
fn segment_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A [`TrafficSource`] that switches between [`TrafficSpec`] segments at
/// declared cycle boundaries (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct PhasedSource {
    segments: Vec<SpecSource>,
    starts: Vec<Cycle>,
    active: usize,
}

impl PhasedSource {
    /// Builds a source from `(boundary, spec)` segments. The first
    /// boundary must be cycle 0 (the declared workload) and boundaries
    /// must be strictly increasing.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, the first boundary is non-zero,
    /// boundaries are not strictly increasing, or any spec fails
    /// [`TrafficSpec::validate`].
    pub fn new(segments: Vec<(Cycle, TrafficSpec)>, seed: u64) -> Self {
        assert!(!segments.is_empty(), "phased source needs segments");
        assert!(
            segments[0].0 == Cycle::ZERO,
            "first segment must start at cycle 0"
        );
        assert!(
            segments.windows(2).all(|w| w[0].0 < w[1].0),
            "segment boundaries must be strictly increasing"
        );
        let starts: Vec<Cycle> = segments.iter().map(|(c, _)| *c).collect();
        let segments = segments
            .into_iter()
            .enumerate()
            .map(|(i, (start, spec))| {
                SpecSource::new(spec, segment_seed(seed, i)).with_start(start)
            })
            .collect();
        PhasedSource {
            segments,
            starts,
            active: 0,
        }
    }

    /// Index of the segment currently issuing.
    pub fn active_segment(&self) -> usize {
        self.active
    }

    /// The segment a pull at `now` would draw from: walks forward from
    /// `active` while the current segment is exhausted or its next issue
    /// would land at or past the next boundary. Pure in `(self, now)`.
    fn effective(&self, now: Cycle) -> usize {
        let mut idx = self.active;
        while idx + 1 < self.segments.len() {
            let boundary = self.starts[idx + 1];
            let abandoned = match self.segments[idx].next_activity(now) {
                None => true,
                Some(t) => t >= boundary,
            };
            if abandoned {
                idx += 1;
            } else {
                break;
            }
        }
        idx
    }
}

impl TrafficSource for PhasedSource {
    fn next_request(&mut self, now: Cycle) -> Option<PendingRequest> {
        self.active = self.effective(now);
        self.segments[self.active].next_request(now)
    }

    fn on_complete(&mut self, response: &Response, now: Cycle) {
        self.segments[self.active].on_complete(response, now);
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        self.segments[self.effective(now)].next_activity(now)
    }

    fn leap_support(&self, now: Cycle) -> fgqos_sim::LeapSupport {
        // The effective segment governs traffic until the next boundary;
        // the boundary itself is a one-shot absolute-time event, so it
        // caps any leap. Earlier (abandoned) and later (not yet started)
        // segments are frozen: their cycle-typed fields sit still between
        // periodic boundaries, which lockstep detection accepts as-is.
        let idx = self.effective(now);
        let seg = self.segments[idx].leap_support(now);
        match self.starts.get(idx + 1) {
            Some(boundary) => seg.merge(fgqos_sim::LeapSupport::until(*boundary)),
            None => seg,
        }
    }

    fn is_done(&self) -> bool {
        // Done only when nothing from the active segment on can ever
        // issue again (a pre-built future segment with total 0 — a
        // declared halt — counts as already exhausted).
        self.segments[self.active..].iter().all(SpecSource::is_done)
    }

    fn fork_source(&self, _ctx: &mut ForkCtx) -> Option<Box<dyn TrafficSource>> {
        Some(Box::new(self.clone()))
    }

    fn state(&mut self, io: &mut StateIo) -> Result<(), SnapDecodeError> {
        io.section("phased-source")?;
        let n = self.segments.len();
        io.fixed_usize(n, "phased segment count")?;
        let at = io.position();
        io.usize(&mut self.active)?;
        io.ensure(self.active < n, at, || {
            format!("phased active segment {} out of range {n}", self.active)
        })?;
        for (start, seg) in self.starts.iter().zip(&mut self.segments) {
            io.fixed_u64(start.get(), "phased segment start")?;
            seg.state(io)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos_sim::axi::Dir;

    fn spec(gap: u64, total: u64) -> TrafficSpec {
        TrafficSpec {
            gap,
            total,
            ..TrafficSpec::stream(0, 1 << 20, 256, Dir::Read)
        }
    }

    #[test]
    fn switches_at_boundary() {
        let mut s = PhasedSource::new(
            vec![
                (Cycle::ZERO, spec(100, u64::MAX)),
                (Cycle::new(1_000), spec(0, u64::MAX)),
            ],
            7,
        );
        // Before the boundary the declared (gapped) segment issues.
        let a = s.next_request(Cycle::new(10)).unwrap();
        assert_eq!(a.not_before.get(), 10);
        assert_eq!(s.active_segment(), 0);
        // An issue landing just before the boundary still belongs to the
        // declared segment; the pull after it crosses and switches.
        let b = s.next_request(Cycle::new(990)).unwrap();
        assert_eq!(s.active_segment(), 0);
        assert_eq!(b.not_before.get(), 990);
        let c = s.next_request(Cycle::new(995)).unwrap();
        assert_eq!(s.active_segment(), 1);
        assert!(c.not_before.get() >= 1_000);
    }

    #[test]
    fn next_activity_predicts_the_switch() {
        let s = PhasedSource::new(
            vec![
                (Cycle::ZERO, spec(0, 0)), // immediately exhausted
                (Cycle::new(5_000), spec(0, 3)),
            ],
            1,
        );
        assert_eq!(s.next_activity(Cycle::ZERO), Some(Cycle::new(5_000)));
        assert!(!s.is_done(), "a future segment still has work");
    }

    #[test]
    fn halt_segment_finishes_the_source() {
        let mut s = PhasedSource::new(
            vec![
                (Cycle::ZERO, spec(0, 2)),
                (Cycle::new(100), spec(0, 0)), // declared halt
            ],
            1,
        );
        assert!(s.next_request(Cycle::ZERO).is_some());
        assert!(s.next_request(Cycle::ZERO).is_some());
        assert!(s.next_request(Cycle::new(50)).is_none());
        assert!(s.is_done());
        assert_eq!(s.next_activity(Cycle::new(50)), None);
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let segs = || {
            vec![
                (Cycle::ZERO, spec(10, u64::MAX)),
                (Cycle::new(500), spec(0, u64::MAX)),
            ]
        };
        let mut a = PhasedSource::new(segs(), 42);
        let mut b = PhasedSource::new(segs(), 42);
        for t in (0..2_000u64).step_by(37) {
            assert_eq!(a.next_request(Cycle::new(t)), b.next_request(Cycle::new(t)));
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let segs = || {
            vec![
                (Cycle::ZERO, spec(10, u64::MAX)),
                (Cycle::new(300), spec(0, u64::MAX)),
            ]
        };
        let mut a = PhasedSource::new(segs(), 9);
        for t in (0..600u64).step_by(23) {
            let _ = a.next_request(Cycle::new(t));
        }
        let mut io = StateIo::recording();
        a.state(&mut io).unwrap();
        let bytes = io.into_hasher().take_bytes();
        let mut b = PhasedSource::new(segs(), 9);
        let mut io = StateIo::reading(&bytes);
        b.state(&mut io).expect("loads");
        io.expect_end().expect("stream fully consumed");
        assert_eq!(a.active_segment(), b.active_segment());
        assert_eq!(
            a.next_request(Cycle::new(700)),
            b.next_request(Cycle::new(700))
        );
    }
}
