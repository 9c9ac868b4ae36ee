//! Simulation time: cycles, frequencies and bandwidth quantities.
//!
//! The whole simulator runs in a single clock domain. [`Cycle`] is the
//! simulation timestamp; [`Freq`] converts cycles to wall-clock time and
//! [`Bandwidth`] expresses byte throughput so experiment harnesses never
//! juggle raw `f64`s with implicit units.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in clock cycles since reset.
///
/// `Cycle` is a transparent ordinal: arithmetic with plain `u64` cycle
/// *counts* is provided via `+`/`-` operators so call sites read naturally
/// (`now + period`).
///
/// ```
/// use fgqos_sim::time::Cycle;
/// let t = Cycle::new(100);
/// assert_eq!((t + 20).get(), 120);
/// assert_eq!(t.cycles_since(Cycle::new(40)), 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

/// Cycle stamps travel in snapshot streams as their raw count.
impl fgqos_snap::Word for Cycle {
    fn to_word(self) -> u64 {
        self.0
    }

    fn from_word(word: u64) -> Self {
        Cycle(word)
    }
}

impl Cycle {
    /// The instant of simulation reset.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a timestamp at `cycles` cycles after reset.
    #[inline]
    pub const fn new(cycles: u64) -> Self {
        Cycle(cycles)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Number of cycles elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    #[inline]
    pub fn cycles_since(self, earlier: Cycle) -> u64 {
        debug_assert!(
            earlier.0 <= self.0,
            "cycles_since: earlier is in the future"
        );
        self.0 - earlier.0
    }

    /// Saturating cycle difference (`0` if `earlier` is in the future).
    #[inline]
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The later of two timestamps.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.cycles_since(rhs)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

/// A clock frequency, used to convert between cycles and wall-clock time.
///
/// ```
/// use fgqos_sim::time::Freq;
/// let f = Freq::mhz(500);
/// assert_eq!(f.hz(), 500_000_000);
/// assert_eq!(f.cycles_in_us(2), 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Freq(u64);

impl Freq {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub const fn hz_new(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be non-zero");
        Freq(hz)
    }

    /// Creates a frequency from megahertz.
    pub const fn mhz(mhz: u64) -> Self {
        Freq::hz_new(mhz * 1_000_000)
    }

    /// Creates a frequency from gigahertz.
    pub const fn ghz(ghz: u64) -> Self {
        Freq::hz_new(ghz * 1_000_000_000)
    }

    /// Returns the frequency in hertz.
    #[inline]
    pub const fn hz(self) -> u64 {
        self.0
    }

    /// Number of clock cycles in `us` microseconds (rounded down).
    #[inline]
    pub const fn cycles_in_us(self, us: u64) -> u64 {
        self.0 / 1_000_000 * us
    }

    /// Number of clock cycles in `ns` nanoseconds (rounded down).
    #[inline]
    pub const fn cycles_in_ns(self, ns: u64) -> u64 {
        (self.0 as u128 * ns as u128 / 1_000_000_000) as u64
    }

    /// Converts a cycle count into nanoseconds (floating point).
    #[inline]
    pub fn cycles_to_ns(self, cycles: u64) -> f64 {
        cycles as f64 * 1e9 / self.0 as f64
    }

    /// Converts a cycle count into microseconds (floating point).
    #[inline]
    pub fn cycles_to_us(self, cycles: u64) -> f64 {
        cycles as f64 * 1e6 / self.0 as f64
    }
}

impl Default for Freq {
    /// The default SoC clock used throughout the experiments: 1 GHz.
    fn default() -> Self {
        Freq::ghz(1)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000_000_000) {
            write!(f, "{} GHz", self.0 / 1_000_000_000)
        } else if self.0.is_multiple_of(1_000_000) {
            write!(f, "{} MHz", self.0 / 1_000_000)
        } else {
            write!(f, "{} Hz", self.0)
        }
    }
}

/// A byte throughput.
///
/// Stored in bytes/second. Constructed either directly or from a byte count
/// observed over a cycle interval at a given [`Freq`].
///
/// ```
/// use fgqos_sim::time::{Bandwidth, Freq};
/// let bw = Bandwidth::from_bytes_over(16_000, 1_000, Freq::ghz(1));
/// assert_eq!(bw.bytes_per_s(), 16_000_000_000.0);
/// assert!((bw.gib_per_s() - 14.9).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero throughput.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Creates a bandwidth from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_s` is negative or not finite.
    pub fn from_bytes_per_s(bytes_per_s: f64) -> Self {
        assert!(
            bytes_per_s.is_finite() && bytes_per_s >= 0.0,
            "bandwidth must be finite and non-negative"
        );
        Bandwidth(bytes_per_s)
    }

    /// Creates a bandwidth from mebibytes per second.
    pub fn from_mib_per_s(mib: f64) -> Self {
        Bandwidth::from_bytes_per_s(mib * 1024.0 * 1024.0)
    }

    /// Bandwidth observed when `bytes` flow during `cycles` at clock `freq`.
    ///
    /// Returns [`Bandwidth::ZERO`] if `cycles` is zero.
    pub fn from_bytes_over(bytes: u64, cycles: u64, freq: Freq) -> Self {
        if cycles == 0 {
            return Bandwidth::ZERO;
        }
        Bandwidth(bytes as f64 * freq.hz() as f64 / cycles as f64)
    }

    /// Returns the throughput in bytes per second.
    #[inline]
    pub fn bytes_per_s(self) -> f64 {
        self.0
    }

    /// Returns the throughput in mebibytes per second.
    #[inline]
    pub fn mib_per_s(self) -> f64 {
        self.0 / (1024.0 * 1024.0)
    }

    /// Returns the throughput in gibibytes per second.
    #[inline]
    pub fn gib_per_s(self) -> f64 {
        self.0 / (1024.0 * 1024.0 * 1024.0)
    }

    /// The fraction this bandwidth represents of `total` (0 if `total` is 0).
    pub fn fraction_of(self, total: Bandwidth) -> f64 {
        if total.0 == 0.0 {
            0.0
        } else {
            self.0 / total.0
        }
    }

    /// Converts this bandwidth into a per-window byte budget.
    ///
    /// This is the arithmetic the paper's driver performs when programming
    /// the regulator: a bandwidth target plus a replenishment period yields
    /// the `BUDGET` register value (rounded down to whole bytes).
    pub fn to_window_budget(self, window_cycles: u64, freq: Freq) -> u64 {
        (self.0 * window_cycles as f64 / freq.hz() as f64) as u64
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} GiB/s", self.gib_per_s())
        } else {
            write!(f, "{:.2} MiB/s", self.mib_per_s())
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let t = Cycle::new(10);
        assert_eq!((t + 5).get(), 15);
        assert_eq!(Cycle::new(15) - t, 5);
        assert_eq!(t.saturating_since(Cycle::new(20)), 0);
        let mut u = t;
        u += 7;
        assert_eq!(u.get(), 17);
        assert_eq!(t.max(u), u);
    }

    #[test]
    #[should_panic]
    fn cycle_since_future_panics_in_debug() {
        let _ = Cycle::new(5).cycles_since(Cycle::new(6));
    }

    #[test]
    fn freq_conversions() {
        let f = Freq::ghz(1);
        assert_eq!(f.cycles_in_us(1), 1_000);
        assert_eq!(f.cycles_in_ns(500), 500);
        assert_eq!(f.cycles_to_ns(100), 100.0);
        let f2 = Freq::mhz(250);
        assert_eq!(f2.cycles_in_us(4), 1_000);
        assert_eq!(f2.cycles_to_us(250), 1.0);
    }

    #[test]
    fn freq_display() {
        assert_eq!(Freq::ghz(2).to_string(), "2 GHz");
        assert_eq!(Freq::mhz(333).to_string(), "333 MHz");
        assert_eq!(Freq::hz_new(1234).to_string(), "1234 Hz");
    }

    #[test]
    fn bandwidth_from_observation() {
        // 16 bytes per cycle at 1 GHz = 16 GB/s.
        let bw = Bandwidth::from_bytes_over(16_000, 1_000, Freq::ghz(1));
        assert_eq!(bw.bytes_per_s(), 16e9);
        assert_eq!(
            Bandwidth::from_bytes_over(100, 0, Freq::ghz(1)),
            Bandwidth::ZERO
        );
    }

    #[test]
    fn bandwidth_budget_roundtrip() {
        let freq = Freq::ghz(1);
        let bw = Bandwidth::from_bytes_per_s(1e9); // 1 GB/s
                                                   // 1000-cycle window at 1 GHz = 1 us -> 1000 bytes.
        assert_eq!(bw.to_window_budget(1_000, freq), 1_000);
    }

    #[test]
    fn bandwidth_fraction() {
        let half = Bandwidth::from_bytes_per_s(5e8);
        let full = Bandwidth::from_bytes_per_s(1e9);
        assert!((half.fraction_of(full) - 0.5).abs() < 1e-12);
        assert_eq!(half.fraction_of(Bandwidth::ZERO), 0.0);
    }

    #[test]
    fn bandwidth_display_units() {
        assert!(Bandwidth::from_mib_per_s(10.0)
            .to_string()
            .contains("MiB/s"));
        assert!(Bandwidth::from_mib_per_s(4096.0)
            .to_string()
            .contains("GiB/s"));
    }
}
