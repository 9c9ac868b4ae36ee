//! Sample statistics, hashing and the seeded input generator.

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentile the benchmark reports when the sample supports it.
pub const TAIL_TARGET_PCT: f64 = 95.0;

/// A tail percentile with the rank it was actually taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Nearest-rank percentile of `value` (95 when the sample supports
    /// it, lower otherwise).
    pub pct: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples strictly beyond `value`'s rank.
    pub beyond: usize,
}

/// The highest nearest-rank percentile, at most the 95th, that has at
/// least [`TAIL_BEYOND`] samples beyond it. `None` when the sample has
/// fewer than `TAIL_BEYOND + 1` values.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p95 = ((TAIL_TARGET_PCT / 100.0 * n as f64).ceil() as usize).max(1) - 1;
    let idx = p95.min(n - 1 - TAIL_BEYOND);
    Some(Tail {
        pct: if idx == p95 {
            TAIL_TARGET_PCT
        } else {
            (idx + 1) as f64 * 100.0 / n as f64
        },
        value: sorted[idx],
        beyond: n - 1 - idx,
    })
}

/// Median, first and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method); a
/// single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => None,
        1 => Some((s[0], s[0], s[0])),
        n => {
            // CPython's integer arithmetic, clamping included.
            let at = |i: usize| {
                let m = i * (n + 1);
                let j = (m / 4).clamp(1, n - 1);
                let delta = m as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some((at(2), at(1), at(3)))
        }
    }
}

/// Median of `samples` (0 for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).map_or(0.0, |(m, _, _)| m)
}

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a length-prefixed string, so `["ab","c"]` and `["a","bc"]`
    /// hash differently.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Folds a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash so far.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
pub fn fnv(bytes: &[u8]) -> u64 {
    Fnv::default().bytes(bytes).get()
}

/// SplitMix64: the benchmark's own input generator, so that a change to
/// the program's random number code cannot change the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream` (one stream per input
    /// family, so adding a family leaves the others' inputs unchanged).
    pub fn new(seed: u64, stream: &str) -> Self {
        Rng(seed ^ fnv(stream.as_bytes()))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// One element of a non-empty slice.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next_u64() % xs.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));

        // One sample fewer leaves only nine beyond the 95th percentile:
        // fall back to the highest rank that keeps ten.
        let t = tail(&xs[..199]).unwrap();
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 189.0);
        assert!(t.pct < 95.0 && (t.pct - 189.0 * 100.0 / 199.0).abs() < 1e-9);

        let t = tail(&xs[..30]).unwrap();
        assert_eq!((t.value, t.beyond), (20.0, 10));

        assert_eq!(tail(&xs[..11]).unwrap().value, 1.0);
        assert!(tail(&xs[..10]).is_none());
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut xs: Vec<f64> = (0..500).map(|i| f64::from((i * 7919) % 500)).collect();
        let a = tail(&xs).unwrap();
        xs.sort_by(f64::total_cmp);
        assert_eq!(a, tail(&xs).unwrap());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((5.5, 2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((2.0, 1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((1.5, 0.75, 2.25)));
        // statistics.quantiles([5, 1, 9, 3], n=4) == [1.5, 4.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0]), Some((4.0, 1.5, 8.0)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, "a"), draw(1, "a"));
        assert_ne!(draw(1, "a"), draw(2, "a"));
        assert_ne!(draw(1, "a"), draw(1, "b"));
    }
}
