//! Memory-phase models of benchmark kernels.
//!
//! The paper's evaluation runs real kernels on the CPU and the FPGA
//! accelerators. What determines a kernel's interference footprint and
//! its sensitivity to regulation is its *memory phase structure*: how
//! many bytes it moves, in what pattern, at what intensity, and how much
//! computation separates the phases. [`Kernel`] captures that structure
//! for six representative kernels as sequences of
//! [`TrafficSpec`] phases; [`KernelSource`]
//! replays the sequence as a [`TrafficSource`].

use crate::spec::{AddressPattern, SpecSource, TrafficSpec};
use fgqos_sim::axi::{Dir, Response};
use fgqos_sim::master::{PendingRequest, TrafficSource};
use fgqos_sim::time::Cycle;
use fgqos_sim::{ForkCtx, SnapDecodeError, StateIo};
use std::fmt;

/// A benchmark kernel with a fixed memory-phase model.
///
/// ```
/// use fgqos_workloads::kernels::Kernel;
/// use fgqos_sim::master::TrafficSource;
/// use fgqos_sim::time::Cycle;
///
/// let mut src = Kernel::Memcpy.source(0x1000_0000, 1, 42);
/// let first = src.next_request(Cycle::ZERO).expect("kernel generates traffic");
/// assert_eq!(first.addr, 0x1000_0000);
/// assert_eq!(Kernel::Memcpy.bytes_per_iteration(), 1024 * 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Bulk copy: balanced sequential read+write stream.
    Memcpy,
    /// STREAM triad: two sequential read streams feeding one write
    /// stream (read-heavy, maximum locality).
    StreamTriad,
    /// Tiled matrix multiply: tile loads (sequential), B-column walks
    /// (strided), result write-back, separated by compute.
    MatmulTile,
    /// 2-D 5-point stencil: row-strided reads around a sequential write.
    Stencil2d,
    /// Strided FFT stage: large power-of-two strides (bank-conflict
    /// heavy), even read/write mix.
    FftStride,
    /// Image pipeline stage: bursty read, long compute, bursty write.
    ImagePipeline,
}

impl Kernel {
    /// All modelled kernels, in reporting order.
    pub fn all() -> [Kernel; 6] {
        [
            Kernel::Memcpy,
            Kernel::StreamTriad,
            Kernel::MatmulTile,
            Kernel::Stencil2d,
            Kernel::FftStride,
            Kernel::ImagePipeline,
        ]
    }

    /// Short reporting name.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Memcpy => "memcpy",
            Kernel::StreamTriad => "stream-triad",
            Kernel::MatmulTile => "matmul-tile",
            Kernel::Stencil2d => "stencil-2d",
            Kernel::FftStride => "fft-stride",
            Kernel::ImagePipeline => "image-pipeline",
        }
    }

    /// The kernel's memory phases, placed at `base` in the address map.
    ///
    /// Each phase has a bounded transaction count; one pass over all
    /// phases is one kernel iteration.
    pub fn phases(self, base: u64) -> Vec<TrafficSpec> {
        let m = 1 << 20; // 1 MiB footprint unit
        match self {
            Kernel::Memcpy => vec![TrafficSpec::stream(base, 2 * m, 256, Dir::Read)
                .with_write_ratio(0.5)
                .with_total(1024)],
            Kernel::StreamTriad => vec![TrafficSpec::stream(base, 3 * m, 256, Dir::Read)
                .with_write_ratio(0.34)
                .with_total(1536)],
            Kernel::MatmulTile => vec![
                // Tile load: sequential reads with light compute.
                TrafficSpec {
                    think: 20,
                    ..TrafficSpec::stream(base, m, 128, Dir::Read)
                }
                .with_total(256),
                // B-column walk: strided reads.
                TrafficSpec {
                    pattern: AddressPattern::Strided { stride: 4096 },
                    think: 10,
                    ..TrafficSpec::stream(base + 4 * m, 4 * m, 128, Dir::Read)
                }
                .with_total(256),
                // Result write-back after compute.
                TrafficSpec {
                    think: 40,
                    ..TrafficSpec::stream(base + 8 * m, m, 128, Dir::Write)
                }
                .with_total(128),
            ],
            Kernel::Stencil2d => vec![
                TrafficSpec {
                    pattern: AddressPattern::Strided { stride: 8192 },
                    think: 15,
                    ..TrafficSpec::stream(base, 4 * m, 128, Dir::Read)
                }
                .with_total(512),
                TrafficSpec {
                    think: 15,
                    ..TrafficSpec::stream(base + 4 * m, m, 128, Dir::Write)
                }
                .with_total(256),
            ],
            Kernel::FftStride => vec![TrafficSpec {
                pattern: AddressPattern::Strided { stride: 32_768 },
                ..TrafficSpec::stream(base, 8 * m, 64, Dir::Read)
            }
            .with_write_ratio(0.5)
            .with_total(1024)],
            Kernel::ImagePipeline => vec![
                TrafficSpec::stream(base, 2 * m, 512, Dir::Read).with_total(256),
                // Compute-dominated middle phase.
                TrafficSpec {
                    think: 200,
                    ..TrafficSpec::stream(base, m, 128, Dir::Read)
                }
                .with_total(128),
                TrafficSpec::stream(base + 2 * m, 2 * m, 512, Dir::Write).with_total(256),
            ],
        }
    }

    /// Total bytes one iteration of this kernel moves.
    pub fn bytes_per_iteration(self) -> u64 {
        self.phases(0).iter().map(|p| p.txn_bytes * p.total).sum()
    }

    /// A replayable source running `iterations` passes of the kernel at
    /// `base`, deterministic under `seed`.
    pub fn source(self, base: u64, iterations: u64, seed: u64) -> KernelSource {
        KernelSource::new(self.phases(base), iterations, seed)
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Replays a phase sequence as a [`TrafficSource`].
#[derive(Debug, Clone)]
pub struct KernelSource {
    phases: Vec<TrafficSpec>,
    iterations: u64,
    seed: u64,
    iter: u64,
    phase: usize,
    current: Option<SpecSource>,
}

impl KernelSource {
    /// Creates a source replaying `phases` `iterations` times.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty, any phase is unbounded or invalid,
    /// or `iterations` is zero.
    pub fn new(phases: Vec<TrafficSpec>, iterations: u64, seed: u64) -> Self {
        assert!(!phases.is_empty(), "kernel needs at least one phase");
        assert!(iterations > 0, "iterations must be non-zero");
        for (i, p) in phases.iter().enumerate() {
            assert!(p.total != u64::MAX, "phase {i} must have a bounded total");
            if let Err(e) = p.validate() {
                panic!("invalid phase {i}: {e}");
            }
        }
        let mut ks = KernelSource {
            phases,
            iterations,
            seed,
            iter: 0,
            phase: 0,
            current: None,
        };
        ks.enter_phase();
        ks
    }

    /// Total transactions the source will generate.
    pub fn total_txns(&self) -> u64 {
        self.iterations * self.phases.iter().map(|p| p.total).sum::<u64>()
    }

    fn enter_phase(&mut self) {
        let spec = self.phases[self.phase];
        let seed = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.iter * 131 + self.phase as u64);
        self.current = Some(SpecSource::new(spec, seed));
    }

    /// Advances to the next phase/iteration; `false` when exhausted.
    fn advance(&mut self) -> bool {
        self.phase += 1;
        if self.phase >= self.phases.len() {
            self.phase = 0;
            self.iter += 1;
            if self.iter >= self.iterations {
                self.current = None;
                return false;
            }
        }
        self.enter_phase();
        true
    }
}

impl TrafficSource for KernelSource {
    fn next_request(&mut self, now: Cycle) -> Option<PendingRequest> {
        loop {
            let cur = self.current.as_mut()?;
            if let Some(p) = cur.next_request(now) {
                return Some(p);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    fn on_complete(&mut self, response: &Response, now: Cycle) {
        if let Some(cur) = self.current.as_mut() {
            cur.on_complete(response, now);
        }
    }

    fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        match &self.current {
            None => None,
            // An exhausted phase advances (and re-seeds) on the next
            // pull; poll so the phase transition is not skipped over.
            Some(cur) if cur.is_done() => Some(now),
            Some(cur) => cur.next_activity(now),
        }
    }

    fn is_done(&self) -> bool {
        self.current.is_none()
    }

    fn fork_source(&self, _ctx: &mut ForkCtx) -> Option<Box<dyn TrafficSource>> {
        Some(Box::new(self.clone()))
    }

    fn state(&mut self, io: &mut StateIo) -> Result<(), SnapDecodeError> {
        io.section("kernel-source")?;
        io.fixed_usize(self.phases.len(), "kernel phase count")?;
        io.u64(&mut self.iterations)?;
        io.u64(&mut self.seed)?;
        io.u64(&mut self.iter)?;
        let at = io.position();
        io.usize(&mut self.phase)?;
        io.ensure(self.phase < self.phases.len(), at, || {
            format!("kernel phase index {} out of range", self.phase)
        })?;
        let mut running = self.current.is_some();
        io.bool(&mut running)?;
        if !running {
            self.current = None;
            return Ok(());
        }
        // The in-flight phase carries its own spec (a re-seeded copy of
        // `phases[phase]`), which reading overwrites whole.
        let placeholder = self.phases[self.phase];
        self.current
            .get_or_insert_with(|| SpecSource::new(placeholder, 0))
            .state(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_have_valid_phases() {
        for k in Kernel::all() {
            let phases = k.phases(0x1000_0000);
            assert!(!phases.is_empty(), "{k} has no phases");
            for p in &phases {
                p.validate().unwrap_or_else(|e| panic!("{k}: {e}"));
                assert_ne!(p.total, u64::MAX, "{k} phase unbounded");
            }
            assert!(k.bytes_per_iteration() > 0);
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn kernel_source_generates_expected_count() {
        let k = Kernel::Memcpy;
        let mut src = k.source(0, 2, 42);
        let expected = src.total_txns();
        let mut n = 0;
        while src.next_request(Cycle::ZERO).is_some() {
            n += 1;
            assert!(n <= expected, "generated more than declared");
        }
        assert_eq!(n, expected);
        assert!(src.is_done());
    }

    #[test]
    fn kernel_source_is_deterministic() {
        let mut a = Kernel::FftStride.source(0, 1, 7);
        let mut b = Kernel::FftStride.source(0, 1, 7);
        for _ in 0..200 {
            assert_eq!(a.next_request(Cycle::ZERO), b.next_request(Cycle::ZERO));
        }
    }

    #[test]
    fn phases_progress_through_iterations() {
        // MatmulTile has 3 phases: the source must visit all of them and
        // produce exactly phases×iterations transactions.
        let mut src = Kernel::MatmulTile.source(0, 3, 1);
        let expected = src.total_txns();
        let mut n = 0u64;
        while src.next_request(Cycle::ZERO).is_some() {
            n += 1;
        }
        assert_eq!(n, expected);
        assert_eq!(expected, 3 * (256 + 256 + 128));
    }

    #[test]
    #[should_panic(expected = "bounded total")]
    fn unbounded_phase_rejected() {
        use fgqos_sim::axi::Dir;
        let unbounded = TrafficSpec::stream(0, 1 << 20, 256, Dir::Read);
        let _ = KernelSource::new(vec![unbounded], 1, 0);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        let _ = KernelSource::new(vec![], 1, 0);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Kernel::Stencil2d.to_string(), "stencil-2d");
    }
}
