//! CI perf-smoke gate: same-binary speedup ratios of the simulator's
//! fast paths.
//!
//! The gate compares each mechanism against its own switched-off
//! baseline, measured in this process on this machine, so it survives
//! runner drift that absolute floors do not:
//!
//! * `calendar/regulated` and `calendar/greedy8`: the event calendar vs
//!   naive stepping ([`Soc::set_naive`]) on `regulated_soc(4)` and
//!   `greedy_soc(8)`;
//! * `leap`: steady-state leap on vs off ([`Soc::set_leap`]) on
//!   `leap_soc`;
//! * `warm_start`: fork the boundary snapshot and run the tail vs build
//!   cold and run prefix plus tail.
//!
//! Each ratio is best-of-N wall time of the baseline over best-of-N of
//! the mechanism, the two interleaved rep by rep. A gate fails when its
//! ratio drops below its minimum, which sits well under the ratio the
//! mechanism delivers and well above the 1.0 a disabled mechanism gives.
//! Absolute throughput is measured by `perfbench/`, not here.
//!
//! ```text
//! cargo run --release -p fgqos-bench --bin perf_smoke
//! ```
//!
//! The scenarios come from [`fgqos_bench::scenarios`].

use fgqos_bench::scenarios::{
    greedy_soc, leap_soc, regulated_soc, warm_start_snapshot, LEAP_CYCLES, REGULATED_CYCLES,
    SOC_CYCLES, WARM_START_PREFIX_CYCLES, WARM_START_TAIL_CYCLES,
};
use fgqos_sim::system::Soc;
use std::time::Instant;

/// Speedup of `fast` over `slow`: best-of-`reps` wall time of each
/// timed closure (setup included), interleaved so both arms see the same
/// machine load.
fn ratio(slow: impl Fn(), fast: impl Fn(), reps: usize) -> f64 {
    let (mut slow_best, mut fast_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        slow();
        slow_best = slow_best.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        fast();
        fast_best = fast_best.min(t0.elapsed().as_secs_f64());
    }
    slow_best / fast_best
}

/// Runs `soc` for `cycles` under the given core settings.
fn run_with(mut soc: Soc, naive: bool, leap: bool, cycles: u64) {
    soc.set_naive(naive);
    soc.set_leap(leap);
    soc.run(cycles);
}

fn main() {
    // The boundary snapshot is captured once, outside the timed region:
    // the warm_start gate times the fork + divergent-tail cost only.
    let snap = warm_start_snapshot();

    // Minimum ratios. Five runs on a 2-core x86-64 container, before the
    // flat-array calendar landed, measured calendar/regulated 68-96x,
    // calendar/greedy8 5.1-6.4x, leap 139-182x and warm_start
    // 1.69-1.88x; a switched-off mechanism measures about 1x.
    let gates = [
        (
            "calendar/regulated",
            ratio(
                || run_with(regulated_soc(4), true, true, REGULATED_CYCLES),
                || run_with(regulated_soc(4), false, true, REGULATED_CYCLES),
                5,
            ),
            20.0,
        ),
        (
            "calendar/greedy8",
            ratio(
                || run_with(greedy_soc(8), true, true, SOC_CYCLES),
                || run_with(greedy_soc(8), false, true, SOC_CYCLES),
                5,
            ),
            2.0,
        ),
        (
            "leap",
            ratio(
                || run_with(leap_soc(), false, false, LEAP_CYCLES),
                || run_with(leap_soc(), false, true, LEAP_CYCLES),
                3,
            ),
            20.0,
        ),
        (
            "warm_start",
            ratio(
                || {
                    let mut soc = regulated_soc(4);
                    soc.run(WARM_START_PREFIX_CYCLES + WARM_START_TAIL_CYCLES);
                },
                || snap.fork().run(WARM_START_TAIL_CYCLES),
                9,
            ),
            1.25,
        ),
    ];
    let mut failed = false;
    for (name, got, min) in gates {
        let ok = got >= min;
        failed |= !ok;
        println!(
            "perf_smoke: {name:<22} {got:8.2}x  min {min:6.2}x  {}",
            if ok { "ok" } else { "FAIL" }
        );
    }
    if failed {
        eprintln!("perf_smoke: a fast path lost its speedup over its switched-off baseline");
        std::process::exit(1);
    }
}
