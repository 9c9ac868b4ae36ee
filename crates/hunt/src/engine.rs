//! The hunt loop: seeded exploration, batched evaluation, and
//! hill-climbing refinement of the top-K worst candidates under a fixed
//! evaluation budget.
//!
//! Evaluation is injected as a closure so the engine works identically
//! over the in-process fork pool and a remote serve fleet. The engine
//! hands the evaluator one *round* at a time: every *family* (scenario
//! text) with pending candidates, each with its `(period, budget)`
//! points. One family maps 1:1 onto the warm-start batch machinery
//! (`submit_batch` / `batch_reports`); the families of a round share
//! nothing, so the evaluator may run them concurrently. Results are
//! consumed in round order, so the outcome does not depend on which
//! family finished first.

use crate::space::{midpoint, BaseInfo, Candidate, SearchSpace};
use fgqos_bench::rng::XorShift64Star;
use std::collections::{BTreeMap, BTreeSet};

/// What the hunt maximizes for the critical master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// 99th-percentile transaction latency.
    P99,
    /// Maximum observed transaction latency — the comparator for the
    /// analytic worst-case delay bound.
    Max,
}

impl Objective {
    /// Stable tag used in reports and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            Objective::P99 => "p99_latency",
            Objective::Max => "max_latency",
        }
    }

    /// Parses a CLI tag.
    pub fn parse(tag: &str) -> Result<Self, String> {
        match tag {
            "p99" | "p99_latency" => Ok(Objective::P99),
            "max" | "max_latency" => Ok(Objective::Max),
            other => Err(format!("unknown objective '{other}' (use p99 | max)")),
        }
    }
}

/// Engine settings. All sizes are in candidate evaluations.
#[derive(Debug, Clone)]
pub struct HuntConfig {
    /// Root seed of every random decision.
    pub seed: u64,
    /// Total evaluation budget (explore + refine).
    pub evals: usize,
    /// Evaluations spent on pure random exploration before refinement
    /// (clamped to `evals`).
    pub explore: usize,
    /// Worst candidates carried into each refinement round.
    pub top_k: usize,
    /// Mutants drawn per carried parent per round.
    pub mutants_per_parent: usize,
    /// Extra evaluations for the post-climb bisection pass over the
    /// winner's time knobs — burst phases and fault cycles (0 disables
    /// the pass). Spent *in addition to* `evals`.
    pub bisect: usize,
    /// The maximized metric.
    pub objective: Objective,
}

impl Default for HuntConfig {
    fn default() -> Self {
        HuntConfig {
            seed: 1,
            evals: 48,
            explore: 24,
            top_k: 4,
            mutants_per_parent: 3,
            bisect: 12,
            objective: Objective::Max,
        }
    }
}

/// Critical-master metrics of one evaluated candidate, extracted from
/// the batch point report by the umbrella evaluator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Median transaction latency (cycles).
    pub p50: u64,
    /// 99th-percentile transaction latency (cycles).
    pub p99: u64,
    /// Maximum transaction latency (cycles).
    pub max: u64,
    /// Bytes the critical master completed over the whole run.
    pub bytes: u64,
    /// Critical-master bandwidth in bytes/s as reported by the
    /// simulator over the simulated horizon.
    pub bandwidth: f64,
    /// Absolute cycle of the warm boundary the point forked from (the
    /// winning scenario's `[phase]` must re-program at exactly this
    /// cycle to replay bit-identically).
    pub boundary: u64,
    /// Absolute cycle the run ended at (boundary + tail; the winning
    /// scenario's global `cycles`).
    pub end: u64,
}

/// A candidate with its measurement.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The candidate.
    pub candidate: Candidate,
    /// Its measured critical-master metrics.
    pub measured: Measured,
}

impl Evaluated {
    /// The maximized scalar under `objective`.
    pub fn score(&self, objective: Objective) -> u64 {
        match objective {
            Objective::P99 => self.measured.p99,
            Objective::Max => self.measured.max,
        }
    }
}

/// One evaluation in search order, for the report's trajectory section.
#[derive(Debug, Clone)]
pub struct TrajectoryPoint {
    /// 1-based evaluation index.
    pub eval: usize,
    /// Short family fingerprint (hex of the family text hash).
    pub family: String,
    /// Boundary period of the candidate.
    pub period: u64,
    /// Boundary budget of the candidate.
    pub budget: u64,
    /// This candidate's objective value.
    pub objective: u64,
    /// Best objective value seen up to and including this evaluation.
    pub best: u64,
}

/// The hunt result.
#[derive(Debug, Clone)]
pub struct HuntOutcome {
    /// The worst candidate found (highest objective).
    pub best: Evaluated,
    /// Every evaluation in order.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Evaluations actually spent, bisection included (≤ `evals +
    /// bisect`; the space can run dry of distinct candidates).
    pub evals_used: usize,
    /// Distinct scenario texts evaluated (warmed prefixes paid).
    pub families: usize,
    /// Refinement rounds completed after exploration.
    pub rounds: usize,
    /// Evaluations the post-climb bisection pass spent (≤ `bisect`).
    pub bisect_evals: usize,
}

/// One family of a round: scenario text plus its `(period, budget)`
/// points.
pub type Family = (String, Vec<(u64, u64)>);

/// Evaluates one round of families, returning one entry per family in
/// round order: one [`Measured`] per point in point order, or the
/// family's error.
pub type Evaluator<'a> = dyn FnMut(&[Family]) -> Vec<Result<Vec<Measured>, String>> + 'a;

/// Evaluates `round` and checks the shape of the answer. The error is
/// the first failed family in round order.
fn evaluate(evaluator: &mut Evaluator<'_>, round: &[Family]) -> Result<Vec<Vec<Measured>>, String> {
    let results = evaluator(round);
    if results.len() != round.len() {
        return Err(format!(
            "evaluator returned {} results for {} families",
            results.len(),
            round.len()
        ));
    }
    round
        .iter()
        .zip(results)
        .map(|((_, points), measured)| {
            let measured = measured?;
            if measured.len() != points.len() {
                return Err(format!(
                    "evaluator returned {} results for {} points",
                    measured.len(),
                    points.len()
                ));
            }
            Ok(measured)
        })
        .collect()
}

/// Scores one evaluation and appends it to the trajectory.
fn record(
    objective: Objective,
    trajectory: &mut Vec<TrajectoryPoint>,
    text: &str,
    candidate: Candidate,
    measured: Measured,
) -> Evaluated {
    let e = Evaluated {
        candidate,
        measured,
    };
    let score = e.score(objective);
    trajectory.push(TrajectoryPoint {
        eval: trajectory.len() + 1,
        family: family_fingerprint(text),
        period: e.candidate.period,
        budget: e.candidate.budget,
        objective: score,
        best: trajectory.last().map_or(score, |t| t.best.max(score)),
    });
    e
}

fn family_fingerprint(text: &str) -> String {
    let h = fgqos_sim::fnv64(text.as_bytes());
    format!("{:08x}", (h >> 32) as u32 ^ h as u32)
}

/// Runs the hunt (see the [module docs](self)).
///
/// Determinism contract: equal `(cfg, space, base)` and a pure
/// evaluator yield an identical outcome — candidate order, trajectory
/// and winner. Randomness comes only from `cfg.seed` via split streams;
/// batches iterate in lexicographic family order; ranking ties break on
/// candidate identity; a round's results are consumed in family order
/// whatever order the evaluator finished them in.
pub fn run(
    cfg: &HuntConfig,
    space: &SearchSpace,
    base: &BaseInfo,
    evaluator: &mut Evaluator<'_>,
) -> Result<HuntOutcome, String> {
    space.validate()?;
    if cfg.evals == 0 {
        return Err("hunt needs a non-zero evaluation budget".into());
    }
    let root = XorShift64Star::new(cfg.seed);
    let mut rng_gen = root.split("generate");
    let mut rng_mut = root.split("mutate");

    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut population: Vec<Evaluated> = Vec::new();
    let mut trajectory: Vec<TrajectoryPoint> = Vec::new();
    let mut families: BTreeSet<String> = BTreeSet::new();
    let mut rounds = 0usize;

    // The baseline candidate — no overlay, first period/budget — is
    // always evaluated first, so the trajectory shows how far the search
    // moved from the unattacked scenario.
    let baseline = Candidate {
        family: Default::default(),
        period: space.periods[0],
        budget: space.budgets[0],
    };
    let mut pending: Vec<Candidate> = vec![baseline];
    seen.insert(pending[0].key(base));

    let explore = cfg.explore.min(cfg.evals);
    let mut dry_draws = 0usize;
    while pending.len() < explore && dry_draws < 1_000 {
        let c = space.random_candidate(base, &mut rng_gen);
        if seen.insert(c.key(base)) {
            pending.push(c);
            dry_draws = 0;
        } else {
            dry_draws += 1;
        }
    }

    while trajectory.len() < cfg.evals && !pending.is_empty() {
        pending.truncate(cfg.evals - trajectory.len());
        // Group by family text: one warmed prefix per group, in
        // lexicographic order for determinism. The whole round goes to
        // the evaluator at once.
        let mut groups: BTreeMap<String, Vec<Candidate>> = BTreeMap::new();
        for c in pending.drain(..) {
            groups.entry(c.family.render(base)).or_default().push(c);
        }
        let (round, members): (Vec<Family>, Vec<Vec<Candidate>>) = groups
            .into_iter()
            .map(|(text, members)| {
                let points = members.iter().map(|c| (c.period, c.budget)).collect();
                ((text, points), members)
            })
            .unzip();
        let measured = evaluate(evaluator, &round)?;
        for (((text, _), members), measured) in round.into_iter().zip(members).zip(measured) {
            for (candidate, m) in members.into_iter().zip(measured) {
                population.push(record(cfg.objective, &mut trajectory, &text, candidate, m));
            }
            families.insert(text);
        }
        if trajectory.len() >= cfg.evals {
            break;
        }

        // Refinement round: mutate the top-K worst.
        rounds += 1;
        let mut ranked: Vec<&Evaluated> = population.iter().collect();
        ranked.sort_by(|a, b| {
            b.score(cfg.objective)
                .cmp(&a.score(cfg.objective))
                .then_with(|| a.candidate.key(base).cmp(&b.candidate.key(base)))
        });
        let parents: Vec<Candidate> = ranked
            .iter()
            .take(cfg.top_k)
            .map(|e| e.candidate.clone())
            .collect();
        let mut dry = 0usize;
        for parent in &parents {
            let mut made = 0usize;
            while made < cfg.mutants_per_parent && dry < 200 {
                let child = space.mutate(parent, base, &mut rng_mut);
                if seen.insert(child.key(base)) {
                    pending.push(child);
                    made += 1;
                    dry = 0;
                } else {
                    dry += 1;
                }
            }
        }
        // A dried-up neighborhood falls back to fresh random draws so
        // the budget is still spent productively.
        let mut dry_fresh = 0usize;
        while pending.is_empty() && dry_fresh < 1_000 {
            let c = space.random_candidate(base, &mut rng_gen);
            if seen.insert(c.key(base)) {
                pending.push(c);
            } else {
                dry_fresh += 1;
            }
        }
    }

    // Post-climb bisection pass: the grid hill-climb can only land on
    // listed burst phases and fault cycles, but the worst alignment of a
    // burst against the regulator window (or a fault against the warm
    // boundary) usually lies *between* grid points. Bisect each time
    // knob of the current winner — probe the midpoints of the knob's
    // bracket halves, follow whichever side gets worse (for the
    // critical master), shrink, repeat — entirely deterministic: no RNG,
    // fixed knob order, plain integer midpoints.
    let mut bisect_evals = 0usize;
    let rank = |a: &Evaluated, b: &Evaluated| {
        a.score(cfg.objective)
            .cmp(&b.score(cfg.objective))
            .then_with(|| b.candidate.key(base).cmp(&a.candidate.key(base)))
    };
    if cfg.bisect > 0 {
        if let Some(mut leader) = population.iter().max_by(|a, b| rank(a, b)).cloned() {
            let knobs = leader.candidate.time_knobs();
            let mut brackets: Vec<(u64, u64)> =
                knobs.iter().map(|&k| space.knob_bracket(k)).collect();
            let mut moving = !knobs.is_empty();
            'pass: while moving && bisect_evals < cfg.bisect {
                moving = false;
                for (i, &k) in knobs.iter().enumerate() {
                    let (lo, hi) = brackets[i];
                    let cur = leader.candidate.knob(k).clamp(lo, hi);
                    let probes = [midpoint(lo, cur), midpoint(cur, hi)];
                    let mut improved_side = None;
                    for (side, &v) in probes.iter().enumerate() {
                        if bisect_evals >= cfg.bisect {
                            break 'pass;
                        }
                        if v == cur {
                            continue;
                        }
                        let Some(cand) = leader.candidate.with_knob(k, v) else {
                            continue;
                        };
                        if !seen.insert(cand.key(base)) {
                            continue;
                        }
                        // Serial on purpose: the next probe reads the
                        // leader this one may replace.
                        let text = cand.family.render(base);
                        let round = [(text.clone(), vec![(cand.period, cand.budget)])];
                        let m = evaluate(evaluator, &round)?[0][0];
                        bisect_evals += 1;
                        let e = record(cfg.objective, &mut trajectory, &text, cand, m);
                        families.insert(text);
                        if rank(&e, &leader).is_gt() {
                            leader = e.clone();
                            improved_side = Some(side);
                        }
                        population.push(e);
                    }
                    // An improving left probe makes the old current value
                    // the new upper end (and vice versa); with no
                    // improvement both halves shrink toward the current
                    // value. Either way the bracket strictly narrows, so
                    // the pass terminates even with budget to spare.
                    let next = match improved_side {
                        Some(0) => (lo, cur),
                        Some(_) => (cur, hi),
                        None => (probes[0], probes[1].max(probes[0])),
                    };
                    // Keep going while the bracket narrows OR the leader
                    // moved (it can move without narrowing the bracket
                    // when the old value sat on a bracket end). A stuck
                    // leader shrinks the bracket every round, so the
                    // pass always terminates.
                    if next != (lo, hi) || improved_side.is_some() {
                        brackets[i] = next;
                        moving = true;
                    }
                }
            }
        }
    }

    let best = population
        .iter()
        .max_by(|a, b| rank(a, b))
        .cloned()
        .ok_or("no candidate was evaluated")?;
    Ok(HuntOutcome {
        best,
        evals_used: trajectory.len(),
        trajectory,
        families: families.len(),
        rounds,
        bisect_evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{FamilySpec, SearchSpace};
    use std::sync::{mpsc, Mutex};

    fn base() -> BaseInfo {
        BaseInfo {
            text: "clock_mhz 1000\n[master cpu]\nkind cpu\nrole critical\n\n\
                   [master dma0]\nkind accel\nrole best-effort\n"
                .into(),
            critical: "cpu".into(),
            fault_targets: vec!["dma0".into()],
            reserved_names: vec!["cpu".into(), "dma0".into()],
            clock_mhz: 1_000,
            aggressor_weight: None,
        }
    }

    fn space() -> SearchSpace {
        SearchSpace {
            max_aggressors: 2,
            max_faults: 1,
            periods: vec![1_000, 2_000],
            budgets: vec![1_024, 4_096, 16_384],
            txns: vec![256],
            strides: vec![8_192],
            bases: vec![0],
            footprints: vec![1 << 20],
            outstandings: vec![0],
            burst_on: vec![500],
            burst_off: vec![500],
            fault_at: vec![5_000],
        }
    }

    /// Lifts a per-family function into a round evaluator.
    fn per_family<'a>(
        f: impl Fn(&str, &[(u64, u64)]) -> Result<Vec<Measured>, String> + 'a,
    ) -> Box<Evaluator<'a>> {
        Box::new(move |round: &[Family]| round.iter().map(|(t, p)| f(t, p)).collect())
    }

    /// A pure synthetic evaluator: latency grows with budget and with
    /// overlay size, so the search has a real gradient to climb.
    fn synthetic(text: &str, points: &[(u64, u64)]) -> Result<Vec<Measured>, String> {
        let overlay = text.matches("[master hx").count() as u64;
        let faults = text.matches("[fault").count() as u64;
        Ok(points
            .iter()
            .map(|&(period, budget)| {
                let max = 100 + budget / 8 + overlay * 40 + faults * 25 + 1_000 / period;
                Measured {
                    p50: max / 4,
                    p99: max / 2,
                    max,
                    bytes: 1 << 20,
                    bandwidth: 1e6,
                    boundary: 30_000,
                    end: 50_000,
                }
            })
            .collect())
    }

    #[test]
    fn equal_seeds_equal_outcomes() {
        let (b, s) = (base(), space());
        let cfg = HuntConfig {
            seed: 5,
            evals: 30,
            explore: 12,
            ..HuntConfig::default()
        };
        let run_once = || run(&cfg, &s, &b, &mut *per_family(synthetic)).expect("hunt runs");
        let a = run_once();
        let c = run_once();
        assert_eq!(a.evals_used, c.evals_used);
        assert_eq!(a.best.candidate, c.best.candidate);
        assert_eq!(a.trajectory.len(), c.trajectory.len());
        for (x, y) in a.trajectory.iter().zip(&c.trajectory) {
            assert_eq!(
                (x.eval, &x.family, x.period, x.budget, x.objective, x.best),
                (y.eval, &y.family, y.period, y.budget, y.objective, y.best)
            );
        }
    }

    #[test]
    fn refinement_beats_the_baseline() {
        let (b, s) = (base(), space());
        let cfg = HuntConfig {
            seed: 9,
            evals: 40,
            explore: 10,
            ..HuntConfig::default()
        };
        let out = run(&cfg, &s, &b, &mut *per_family(synthetic)).expect("hunt runs");
        let baseline = out.trajectory[0].objective;
        assert!(
            out.best.score(cfg.objective) > baseline,
            "search must beat the unattacked baseline: best {} vs baseline {baseline}",
            out.best.score(cfg.objective)
        );
        assert!(out.rounds >= 1, "budget beyond explore forces refinement");
        assert!(out.evals_used <= cfg.evals);
        // best-so-far is monotone.
        for w in out.trajectory.windows(2) {
            assert!(w[1].best >= w[0].best);
        }
    }

    #[test]
    fn budget_of_one_evaluates_only_the_baseline() {
        let (b, s) = (base(), space());
        let cfg = HuntConfig {
            seed: 1,
            evals: 1,
            explore: 8,
            ..HuntConfig::default()
        };
        let out = run(&cfg, &s, &b, &mut *per_family(synthetic)).expect("hunt runs");
        assert_eq!(out.evals_used, 1);
        assert_eq!(
            out.best.candidate.family,
            FamilySpec::default(),
            "the single evaluation is the baseline candidate"
        );
    }

    /// The worst fault cycle sits between the grid points, so only the
    /// post-climb bisection pass can approach it: score peaks at
    /// `at = 27_000` and the grid offers only 4_000 and 60_000.
    #[test]
    fn bisection_converges_on_an_off_grid_fault_cycle() {
        let b = base();
        let s = SearchSpace {
            max_aggressors: 0,
            max_faults: 1,
            fault_at: vec![4_000, 60_000],
            ..space()
        };
        let fault_at_of = |text: &str| -> Option<u64> {
            text.lines()
                .find_map(|l| l.strip_prefix("at ").and_then(|v| v.trim().parse().ok()))
        };
        let peaked = |text: &str, points: &[(u64, u64)]| -> Result<Vec<Measured>, String> {
            let at = fault_at_of(text);
            Ok(points
                .iter()
                .map(|_| {
                    // A fault is worth a lot; its phase alignment is a
                    // tent function peaking off-grid.
                    let max = match at {
                        Some(at) => 2_000 - at.abs_diff(27_000) / 32,
                        None => 100,
                    };
                    Measured {
                        p50: max / 4,
                        p99: max / 2,
                        max,
                        bytes: 1 << 20,
                        bandwidth: 1e6,
                        boundary: 30_000,
                        end: 50_000,
                    }
                })
                .collect())
        };
        let cfg = HuntConfig {
            seed: 3,
            evals: 16,
            explore: 8,
            bisect: 24,
            ..HuntConfig::default()
        };
        let out = run(&cfg, &s, &b, &mut *per_family(peaked)).expect("hunt runs");
        assert!(out.bisect_evals > 0, "the pass must spend probes");
        let winner_at = out
            .best
            .candidate
            .family
            .faults
            .first()
            .map(|f| f.slot().1)
            .expect("a fault is worth 1200+ points; the winner carries one");
        let grid_best = 27_000u64.abs_diff(4_000).min(27_000u64.abs_diff(60_000));
        assert!(
            winner_at.abs_diff(27_000) < grid_best,
            "bisection must beat every grid point: landed at {winner_at}"
        );
        // Deterministic: no RNG in the pass.
        let out2 = run(&cfg, &s, &b, &mut *per_family(peaked)).expect("hunt runs");
        assert_eq!(out.best.candidate, out2.best.candidate);
        assert_eq!(out.evals_used, out2.evals_used);
    }

    #[test]
    fn evaluator_errors_propagate() {
        let (b, s) = (base(), space());
        let cfg = HuntConfig::default();
        let mut ev: Box<Evaluator<'_>> =
            Box::new(|round: &[Family]| round.iter().map(|_| Err("backend down".into())).collect());
        let err = run(&cfg, &s, &b, &mut *ev).unwrap_err();
        assert!(err.contains("backend down"));
    }

    #[test]
    fn exploration_reaches_the_evaluator_as_one_round_in_family_order() {
        let (b, s) = (base(), space());
        let cfg = HuntConfig {
            seed: 5,
            evals: 30,
            explore: 12,
            ..HuntConfig::default()
        };
        let mut rounds: Vec<Vec<Family>> = Vec::new();
        let mut ev: Box<Evaluator<'_>> = Box::new(|round: &[Family]| {
            rounds.push(round.to_vec());
            round.iter().map(|(t, p)| synthetic(t, p)).collect()
        });
        run(&cfg, &s, &b, &mut *ev).expect("hunt runs");
        drop(ev);
        let explore = &rounds[0];
        assert!(explore.len() > 1, "exploration spans several families");
        assert_eq!(
            explore.iter().map(|(_, p)| p.len()).sum::<usize>(),
            cfg.explore
        );
        assert!(
            explore.windows(2).all(|w| w[0].0 < w[1].0),
            "families arrive in strict lexicographic order"
        );
    }

    #[test]
    fn misshapen_evaluator_answers_are_clean_errors() {
        let (b, s) = (base(), space());
        let cfg = HuntConfig::default();
        let mut short: Box<Evaluator<'_>> = Box::new(|round: &[Family]| {
            let mut out: Vec<_> = round.iter().map(|(t, p)| synthetic(t, p)).collect();
            out.pop();
            out
        });
        let err = run(&cfg, &s, &b, &mut *short).unwrap_err();
        assert!(err.contains("families"), "{err}");

        let mut extra: Box<Evaluator<'_>> = Box::new(|round: &[Family]| {
            round
                .iter()
                .map(|(t, p)| {
                    let mut m = synthetic(t, p)?;
                    m.push(m[0]);
                    Ok(m)
                })
                .collect()
        });
        let err = run(&cfg, &s, &b, &mut *extra).unwrap_err();
        assert!(err.contains("points"), "{err}");
    }

    /// Evaluates a round on one thread per family. Each family starts
    /// only once the family after it has finished, so results complete
    /// in reverse round order; that order is appended to `finished`.
    fn reversed(
        round: &[Family],
        finished: &Mutex<Vec<usize>>,
        f: impl Fn(usize, &str, &[(u64, u64)]) -> Result<Vec<Measured>, String> + Sync,
    ) -> Vec<Result<Vec<Measured>, String>> {
        let f = &f;
        std::thread::scope(|scope| {
            let mut after: Option<mpsc::Receiver<()>> = None;
            let mut workers: Vec<_> = round
                .iter()
                .enumerate()
                .rev()
                .map(|(i, (t, p))| {
                    let (done, next) = mpsc::channel();
                    let wait = after.replace(next);
                    scope.spawn(move || {
                        if let Some(wait) = wait {
                            wait.recv().expect("the later family reports");
                        }
                        let result = f(i, t, p);
                        finished.lock().expect("order log").push(i);
                        // The receiver is gone for the first family.
                        let _ = done.send(());
                        result
                    })
                })
                .collect();
            workers.reverse();
            workers
                .into_iter()
                .map(|w| w.join().expect("family worker"))
                .collect()
        })
    }

    #[test]
    fn the_first_failed_family_in_round_order_is_the_error() {
        let (b, s) = (base(), space());
        let cfg = HuntConfig::default();
        let finished = Mutex::new(Vec::new());
        let mut ev: Box<Evaluator<'_>> = Box::new(|round: &[Family]| {
            let last = round.len() - 1;
            reversed(round, &finished, |i, t, p| match i {
                1 => Err("family 1 failed".into()),
                i if i == last => Err("last family failed".into()),
                _ => synthetic(t, p),
            })
        });
        let err = run(&cfg, &s, &b, &mut *ev).unwrap_err();
        drop(ev);
        assert_eq!(err, "family 1 failed");
        let finished = finished.into_inner().unwrap();
        assert!(finished.len() > 2, "exploration spans several families");
        assert!(
            finished.windows(2).all(|w| w[0] > w[1]),
            "last family finished first"
        );
    }

    #[test]
    fn finishing_order_does_not_change_the_outcome() {
        let (b, s) = (base(), space());
        let cfg = HuntConfig {
            seed: 11,
            ..HuntConfig::default()
        };
        let immediate = run(&cfg, &s, &b, &mut *per_family(synthetic)).expect("hunt runs");
        let finished = Mutex::new(Vec::new());
        let mut backwards: Box<Evaluator<'_>> =
            Box::new(|round: &[Family]| reversed(round, &finished, |_, t, p| synthetic(t, p)));
        let shuffled = run(&cfg, &s, &b, &mut *backwards).expect("hunt runs");
        assert_eq!(format!("{immediate:?}"), format!("{shuffled:?}"));
    }
}
