//! Workload inputs: pure functions of the seed.
//!
//! The program only ever sees what these functions return. Every input
//! list is hashed ([`RunInput::hash_all`] and friends) into the result's
//! provenance, so two runs with one seed can be shown to have measured
//! the same inputs.

use crate::stats::{Fnv, Rng};
use fgqos::scenario::{load_scenario_text, ScenarioSpec};
use fgqos::serve::protocol::{BatchKind, BatchPoint, BatchSpec, LiveSpec};

/// Directory of the shipped scenarios, relative to the repository root.
pub const SCENARIO_DIR: &str = "scenarios";

/// `corpus_long` runs each shipped scenario for this many times its own
/// horizon.
pub const CORPUS_MULTIPLE: u64 = 20;

/// Horizon of a scenario that sets no `cycles` directive; the `fgqos`
/// command line uses the same default.
pub const DEFAULT_HORIZON: u64 = 1_000_000;

/// One scenario run of `corpus_long` or `steady_periodic`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunInput {
    /// File name or generated label.
    pub name: String,
    /// Resolved scenario text.
    pub text: String,
    /// Cycle budget of a measured run.
    pub cycles: u64,
    /// Cycle budget of the set-up warm-up run.
    pub warm_cycles: u64,
    /// The scenario's own `until_done` master.
    pub until_done: Option<String>,
}

impl RunInput {
    /// FNV-1a over every field of every input, in order.
    pub fn hash_all(inputs: &[RunInput]) -> u64 {
        let mut h = Fnv::default();
        for i in inputs {
            h.str(&i.name).str(&i.text).u64(i.cycles).u64(i.warm_cycles);
            h.str(i.until_done.as_deref().unwrap_or(""));
        }
        h.get()
    }
}

/// Loads one shipped scenario, `extends` resolved.
pub fn shipped(name: &str) -> Result<String, String> {
    load_scenario_text(&format!("{SCENARIO_DIR}/{name}"))
        .map_err(|e| format!("{SCENARIO_DIR}/{name}: {e}"))
}

/// Every shipped scenario file name, sorted.
pub fn shipped_names() -> Result<Vec<String>, String> {
    let dir = std::fs::read_dir(SCENARIO_DIR)
        .map_err(|e| format!("{SCENARIO_DIR}: {e} (run from the repository root)"))?;
    let mut names = Vec::new();
    for entry in dir {
        let name = entry
            .map_err(|e| format!("{SCENARIO_DIR}: {e}"))?
            .file_name()
            .to_string_lossy()
            .into_owned();
        if name.ends_with(".fgq") {
            names.push(name);
        }
    }
    names.sort();
    if names.is_empty() {
        return Err(format!("{SCENARIO_DIR}: no .fgq files"));
    }
    Ok(names)
}

/// `corpus_long`: every shipped scenario in a seed-shuffled order, at
/// [`CORPUS_MULTIPLE`] times its own horizon.
pub fn corpus(seed: u64) -> Result<Vec<RunInput>, String> {
    let mut out = Vec::new();
    for name in shipped_names()? {
        let text = shipped(&name)?;
        let spec = ScenarioSpec::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        let horizon = spec.cycles.unwrap_or(DEFAULT_HORIZON);
        out.push(RunInput {
            name,
            cycles: CORPUS_MULTIPLE * horizon,
            warm_cycles: horizon,
            until_done: spec.until_done.clone(),
            text,
        });
    }
    Rng::new(seed, "corpus_long").shuffle(&mut out);
    Ok(out)
}

/// One regulated stream of a periodic scenario: window period, budget,
/// transaction size and direction.
type Stream = (u64, u64, u64, &'static str);

/// Stream sets for `steady_periodic`. Every period divides the DRAM
/// refresh interval (7 800 cycles) and every stream sweeps a 4 KiB
/// buffer in place, so the whole machine state recurs. Each set was
/// measured to leap over more than 98% of 50M–200M-cycle horizons.
const PERIODIC_SHAPES: &[&[Stream]] = &[
    &[(1950, 1024, 256, "read"), (1950, 1024, 256, "read")],
    &[
        (1950, 1024, 512, "read"),
        (1950, 1024, 512, "read"),
        (1950, 512, 512, "read"),
    ],
    &[
        (1950, 1024, 512, "read"),
        (1950, 1024, 512, "read"),
        (1950, 512, 512, "read"),
        (1950, 1024, 512, "read"),
    ],
    &[(1950, 1024, 512, "read"), (1950, 2048, 512, "read")],
    &[(1950, 2048, 256, "read"), (1950, 2048, 256, "read")],
    &[
        (1950, 2048, 512, "read"),
        (1950, 1024, 512, "read"),
        (1950, 2048, 512, "read"),
        (1950, 1024, 512, "read"),
    ],
    &[(1950, 2048, 512, "read"); 4],
    &[
        (1950, 512, 256, "read"),
        (1950, 512, 256, "read"),
        (1950, 1024, 256, "read"),
    ],
    &[
        (1950, 1024, 512, "read"),
        (3900, 1024, 512, "read"),
        (3900, 4096, 512, "read"),
        (3900, 2048, 512, "read"),
    ],
    &[(1950, 2048, 256, "read"), (1950, 512, 256, "read")],
    &[
        (3900, 1024, 512, "read"),
        (1950, 512, 512, "read"),
        (1950, 512, 512, "read"),
    ],
    &[
        (3900, 4096, 512, "read"),
        (1950, 2048, 512, "read"),
        (1950, 2048, 512, "read"),
    ],
    &[(1950, 512, 512, "write"), (1950, 1024, 512, "write")],
    &[
        (3900, 2048, 512, "read"),
        (3900, 1024, 512, "write"),
        (3900, 4096, 512, "read"),
        (1950, 1024, 512, "read"),
    ],
    &[
        (3900, 4096, 256, "write"),
        (3900, 4096, 256, "write"),
        (1950, 1024, 256, "read"),
    ],
    &[
        (1950, 1024, 256, "read"),
        (3900, 4096, 256, "write"),
        (1950, 1024, 512, "write"),
    ],
    &[
        (7800, 4096, 256, "write"),
        (1950, 1024, 256, "read"),
        (1950, 1024, 256, "write"),
    ],
    &[(7800, 4096, 512, "write"), (3900, 2048, 256, "write")],
    &[(7800, 8192, 512, "read"), (7800, 2048, 256, "read")],
];

fn periodic_text(streams: &[Stream]) -> String {
    let mut s = String::from("clock_mhz 1000\n");
    for (i, (period, budget, txn, dir)) in streams.iter().enumerate() {
        s += &format!(
            "\n[master m{i}]\nkind accel\nrole best-effort\nperiod {period}\nbudget {budget}\n\
             pattern seq\nbase 0x{:x}\nfootprint 4K\ntxn {txn}\ndir {dir}\n",
            (i as u64 + 1) << 28
        );
    }
    s
}

/// Horizon of every `steady_periodic` run. Leap cost varies with the
/// horizon, so one fixed horizon keeps the cost of a run independent
/// of the seed.
pub const STEADY_CYCLES: u64 = 100_000_000;

/// `steady_periodic`: every stream set, in a seed-shuffled order, at
/// [`STEADY_CYCLES`]. Using every set keeps the cost of a run
/// independent of the seed.
pub fn steady(seed: u64) -> Result<Vec<RunInput>, String> {
    let mut order: Vec<usize> = (0..PERIODIC_SHAPES.len()).collect();
    Rng::new(seed, "steady_periodic").shuffle(&mut order);
    Ok(order
        .into_iter()
        .map(|shape| RunInput {
            name: format!("periodic-{shape}"),
            text: periodic_text(PERIODIC_SHAPES[shape]),
            cycles: STEADY_CYCLES,
            warm_cycles: STEADY_CYCLES,
            until_done: None,
        })
        .collect())
}

/// Cycle budget of a `serve_mix` single submission: a short tail, so
/// front-end costs stay visible.
pub const SERVE_CYCLES: u64 = 200_000;
/// Warm-up before the fork boundary of a `serve_mix` batch slice.
pub const BATCH_WARMUP: u64 = 100_000;
/// Divergent tail of each `serve_mix` batch point.
pub const BATCH_TAIL: u64 = 50_000;
/// Points per `serve_mix` batch slice.
pub const BATCH_POINTS: u64 = 8;
/// Cycle budget of a `serve_mix` live run.
pub const LIVE_CYCLES: u64 = 400_000;
/// Telemetry window of a `serve_mix` live run: 20 frames per run.
pub const LIVE_WINDOW: u64 = 20_000;
/// Distinct live scenarios connection B cycles through.
pub const LIVE_SCENARIOS: u64 = 4;

/// A critical CPU task next to one or two regulated DMA engines, drawn
/// from `rng` with DMA budgets from `budgets`; `tag` makes the text
/// unique (it seeds the CPU's random address stream).
fn contended_text(rng: &mut Rng, budgets: &[u64], tag: u64) -> String {
    let mut s = format!(
        "clock_mhz 1000\n\n[master cpu]\nkind cpu\nrole critical\npattern random\n\
         footprint 4M\ntxn 256\nthink {}\ntotal 100000\noutstanding 1\nseed {tag}\n",
        rng.range(4, 12) * 100
    );
    let engines = rng.range(1, 2);
    for i in 0..engines {
        s += &format!(
            "\n[master dma{i}]\nkind accel\nrole best-effort\nperiod 1000\nbudget {}\n\
             pattern {}\nbase 0x{:x}\nfootprint 16M\ntxn 512\ndir {}\n",
            rng.pick(budgets),
            rng.pick(&["seq", "random"]),
            0x4000_0000u64 + (i << 28),
            if i == 0 { "read" } else { "write" },
        );
    }
    s
}

/// The tag of job `k` of a run with `seed`: unique per `k`.
fn tag(seed: u64, family: u64, k: u64) -> u64 {
    ((seed % 1_000_003) << 24 | family << 20) + k + 1
}

/// Text of `serve_mix` cold submission `k`.
pub fn serve_cold(seed: u64, k: u64) -> String {
    let mut rng = Rng::new(seed ^ k.rotate_left(32), "serve_mix.cold");
    contended_text(&mut rng, &[1024, 2048, 4096], tag(seed, 1, k))
}

/// The two 8-point warm-start slices of `serve_mix` cycle `k`: one
/// scenario, one warm-up, disjoint budgets. DMA budgets stay at or
/// below 2 KiB: two engines at 4 KiB with random addresses keep the
/// pipeline busy through the whole quiesce window, and the batch then
/// falls back to cold runs without a warm boundary to share.
pub fn serve_batch(seed: u64, k: u64) -> [BatchSpec; 2] {
    let mut rng = Rng::new(seed ^ k.rotate_left(32), "serve_mix.batch");
    let scenario = contended_text(&mut rng, &[1024, 2048], tag(seed, 2, k));
    let slice = |first: u64| BatchSpec {
        scenario: scenario.clone(),
        cycles: BATCH_TAIL,
        until_done: None,
        warmup: BATCH_WARMUP,
        points: (0..BATCH_POINTS)
            .map(|i| BatchPoint {
                period: 1000,
                budget: 512 * (first + i),
            })
            .collect(),
        kind: BatchKind::Sweep,
    };
    [slice(1), slice(1 + BATCH_POINTS)]
}

/// Live run `j` of connection B (B cycles through [`LIVE_SCENARIOS`]).
pub fn serve_live(seed: u64, j: u64) -> LiveSpec {
    let j = j % LIVE_SCENARIOS;
    let mut rng = Rng::new(seed ^ j.rotate_left(32), "serve_mix.live");
    LiveSpec {
        scenario: contended_text(&mut rng, &[1024, 2048, 4096], tag(seed, 3, j)),
        cycles: LIVE_CYCLES,
        window: LIVE_WINDOW,
        pace_ms: 0,
    }
}

/// FNV-1a over the first `n` cold texts, batch slices and live specs
/// of a `serve_mix` run with `seed`.
pub fn serve_hash(seed: u64, n: u64) -> u64 {
    let mut h = Fnv::default();
    for k in 0..n {
        h.str(&serve_cold(seed, k));
        for b in serve_batch(seed, k) {
            h.str(&b.scenario).u64(b.cycles).u64(b.warmup);
            for p in &b.points {
                h.u64(p.period).u64(p.budget);
            }
        }
        let l = serve_live(seed, k);
        h.str(&l.scenario).u64(l.cycles).u64(l.window);
    }
    h.get()
}

/// Shipped scenarios `hunt_search` draws from: those on which the
/// whole hunt pipeline, winner replay included, completes. The other
/// four are left out because `run_hunt` fails on them today: it
/// rejects `kernels.fgq` (weighted arbitration lists one weight per
/// declared master) and its winner replay is not verified for some
/// seeds on `demo.fgq`, `ramp.fgq` and `controller-crash.fgq`.
pub const HUNT_SCENARIOS: &[&str] = &[
    "matrix-base.fgq",
    "matrix-tight.fgq",
    "refresh-storm.fgq",
    "regulator-dropout.fgq",
    "rogue-dma.fgq",
];

/// Hunt seeds per `hunt_search` run. The cost of one hunt varies with
/// its seed by up to 3x, so a run spreads over several seeds to keep
/// its cost independent of the workload seed.
pub const HUNT_SEEDS: u64 = 8;

/// One `hunt_search` hunt: a shipped scenario and a hunt seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuntInput {
    /// Scenario file name.
    pub name: String,
    /// Resolved scenario text.
    pub text: String,
    /// Hunt seed.
    pub seed: u64,
}

/// `hunt_search`: every [`HUNT_SCENARIOS`] file under each of
/// [`HUNT_SEEDS`] hunt seeds, the first of them the workload seed
/// itself. Inputs come in groups of one hunt per scenario, each group
/// in a seed-shuffled order, so a loop that stops at a group boundary
/// has hunted every scenario equally often.
pub fn hunt(seed: u64) -> Result<Vec<HuntInput>, String> {
    let mut rng = Rng::new(seed, "hunt_search");
    let texts = HUNT_SCENARIOS
        .iter()
        .map(|n| Ok((n.to_string(), shipped(n)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let mut out = Vec::new();
    for s in 0..HUNT_SEEDS {
        let hunt_seed = if s == 0 { seed } else { rng.next_u64() >> 16 };
        let mut group: Vec<HuntInput> = texts
            .iter()
            .map(|(name, text)| HuntInput {
                name: name.clone(),
                text: text.clone(),
                seed: hunt_seed,
            })
            .collect();
        rng.shuffle(&mut group);
        out.extend(group);
    }
    Ok(out)
}

/// FNV-1a over `hunt_search` inputs.
pub fn hunt_hash(inputs: &[HuntInput]) -> u64 {
    let mut h = Fnv::default();
    for i in inputs {
        h.str(&i.name).str(&i.text).u64(i.seed);
    }
    h.get()
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// The shipped scenarios are read relative to the repository root.
    pub fn at_repo_root() {
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
    }

    #[test]
    fn inputs_hash_by_seed() {
        at_repo_root();
        let corpus_hash = |s| RunInput::hash_all(&corpus(s).unwrap());
        let steady_hash = |s| RunInput::hash_all(&steady(s).unwrap());
        let hunt_hash = |s| super::hunt_hash(&hunt(s).unwrap());
        for h in [corpus_hash, steady_hash, hunt_hash, |s| serve_hash(s, 4)] {
            assert_eq!(h(1), h(1));
            assert_ne!(h(1), h(2));
        }
    }

    #[test]
    fn corpus_is_every_shipped_scenario() {
        at_repo_root();
        let names = shipped_names().unwrap();
        let mut got: Vec<String> = corpus(5).unwrap().into_iter().map(|i| i.name).collect();
        got.sort();
        assert_eq!(got, names);
        assert!(HUNT_SCENARIOS.iter().all(|h| names.iter().any(|n| n == h)));
    }

    #[test]
    fn serve_texts_are_unique_within_a_run() {
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..500 {
            assert!(seen.insert(serve_cold(7, k)));
            assert!(seen.insert(serve_batch(7, k)[0].scenario.clone()));
        }
        for j in 0..LIVE_SCENARIOS {
            assert!(seen.insert(serve_live(7, j).scenario));
        }
    }

    #[test]
    fn batch_slices_share_a_scenario_with_disjoint_budgets() {
        let [a, b] = serve_batch(3, 9);
        assert_eq!((&a.scenario, a.warmup), (&b.scenario, b.warmup));
        assert!(a.points.iter().all(|p| !b.points.contains(p)));
    }

    #[test]
    fn generated_scenarios_parse() {
        for seed in 0..20 {
            for i in steady(seed).unwrap() {
                ScenarioSpec::parse(&i.text).unwrap();
                assert!(i.cycles >= 50_000_000);
            }
            ScenarioSpec::parse(&serve_cold(seed, 0)).unwrap();
            ScenarioSpec::parse(&serve_batch(seed, 0)[0].scenario).unwrap();
            ScenarioSpec::parse(&serve_live(seed, 0).scenario).unwrap();
        }
    }
}
