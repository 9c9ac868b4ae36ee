//! Scenario execution into structured [`Report`] documents.
//!
//! The `fgqos` CLI historically rendered its results with ad-hoc
//! `println!` calls. This module runs the same simulation but captures
//! the outcome as a `fgqos.exp-report` document — the shared currency of
//! the `exp_*` binaries, `fgqos --json`, and the `fgqos-serve` result
//! cache (which requires byte-deterministic output for equal inputs).
//!
//! Every execution — a scenario report, a batch point, a live run or
//! its replay, the CLI's text run — goes through one private run plan:
//! a machine source (cold build, warm prefix or fork of a captured
//! boundary), optional best-effort knobs, and a horizon (`cycles`, or
//! `until_done` capped by it). A report's flavour is data, not a code
//! path.

use crate::scenario::{
    ExpectKind, ExpectSpec, LatencyMetric, ParseScenarioError, Role, ScenarioSpec,
};
use fgqos_bench::report::{Block, Report};
use fgqos_core::fabric::QosFabric;
use fgqos_core::program::ProgramOp;
use fgqos_serve::live::{BoundaryCmd, JournalEntry, LiveSession, LIVE_SCHEMA, LIVE_VERSION};
#[cfg(test)]
use fgqos_serve::protocol::BatchKind;
use fgqos_serve::protocol::{BatchPoint, BatchSpec, ControlSet, JobSpec, LiveSpec};
use fgqos_serve::{BatchExecutor, Executor, LiveExecutor, SnapshotExecutor};
use fgqos_sim::axi::{MasterId, BEAT_BYTES, MAX_BURST_BEATS};
use fgqos_sim::json::Value;
use fgqos_sim::snapshot::SocSnapshot;
use fgqos_sim::system::{Soc, WindowBoundary};
use fgqos_sim::time::Cycle;
use fgqos_sim::{fnv64, BlobStore, ForkCtx, SnapshotBlob, StateHasher};
use std::sync::Arc;

/// How to run a scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Cycle budget (also the cap when `until_done` is set).
    pub cycles: u64,
    /// Stop as soon as this master's workload completes.
    pub until_done: Option<String>,
}

/// Why a scenario run failed.
#[derive(Debug)]
pub enum RunError {
    /// The scenario text did not parse or validate.
    Parse(ParseScenarioError),
    /// The run itself was impossible (e.g. unknown `until_done` master).
    Run(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Parse(e) => write!(f, "{e}"),
            RunError::Run(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for RunError {}

fn parse(text: &str) -> Result<ScenarioSpec, RunError> {
    ScenarioSpec::parse(text).map_err(RunError::Parse)
}

fn no_master(name: &str) -> RunError {
    RunError::Run(format!("--until-done: no master named {name:?}"))
}

/// Where a planned run's machine comes from.
enum Source<'a> {
    /// A fresh build, optionally pinned to a simulation core (`naive`)
    /// and leap setting instead of the environment's.
    Cold(Option<bool>, Option<bool>),
    /// A fresh build advanced through a batch's warm prefix ([`warm`]),
    /// whether or not a quiesced boundary opened.
    Warm(u64),
    /// A fork of a captured warm boundary and the fabric bound to it.
    Fork(&'a SocSnapshot, &'a QosFabric),
}

const COLD: Source<'static> = Source::Cold(None, None);

/// A window observer: called at every window boundary of a segmented
/// run with the machine and its fabric; `false` stops the run there.
type Observer<'o> = &'o mut dyn FnMut(&mut Soc, &QosFabric, WindowBoundary) -> bool;

/// One scenario execution: where the machine comes from, the
/// best-effort `(period, budget)` knobs programmed before the run, and
/// the horizon — `cycles`, or `until_done` capped by it.
struct RunPlan<'a> {
    source: Source<'a>,
    knobs: Option<(u64, u64)>,
    cycles: u64,
    until_done: Option<&'a str>,
}

/// A finished scenario run: the machine in its final state and how its
/// horizon ended.
pub struct ScenarioRun {
    /// The simulated SoC.
    pub soc: Soc,
    /// The QoS fabric bound to the SoC's regulators.
    pub fabric: QosFabric,
    /// When the run had an `until_done` master that finished within the
    /// cap: the cycle it finished at.
    pub finished_at: Option<Cycle>,
    /// Cycle the horizon started at: the boundary for a warm prefix or
    /// a fork, 0 for a cold build.
    start: u64,
}

impl ScenarioRun {
    /// Cycles the run covers: the finish cycle of an `until_done`
    /// master, otherwise the cycle the run stopped at.
    pub fn ran(&self) -> u64 {
        self.finished_at.unwrap_or(self.soc.now()).get()
    }
}

/// How a run renders as a report, besides the text its banner hashes
/// and the context lines it adds after `cycles`.
struct Flavour {
    /// Report kind; the banner id is its upper-case form.
    kind: &'static str,
    /// Appended to the "did not finish within N cycles" note.
    cap_suffix: &'static str,
    /// Whether the leap-telemetry block is emitted (see [`leap_block`]).
    leap: bool,
}

const SCENARIO: Flavour = Flavour {
    kind: "scenario",
    cap_suffix: "",
    leap: true,
};

const POINT: Flavour = Flavour {
    kind: "scenario-point",
    cap_suffix: " of the boundary",
    leap: false,
};

/// Live reports hash the *replay* scenario and omit the leap block:
/// leap counters depend on run segmentation, and the whole point of
/// this document is byte-comparison between a windowed live run and
/// its monolithic replay.
const LIVE: Flavour = Flavour {
    kind: "scenario-live",
    cap_suffix: "",
    leap: false,
};

impl<'a> RunPlan<'a> {
    fn new(source: Source<'a>, cycles: u64, until_done: Option<&'a str>) -> Self {
        RunPlan {
            source,
            knobs: None,
            cycles,
            until_done,
        }
    }

    /// Builds the machine, programs the knobs and runs the horizon.
    ///
    /// This is the one place a horizon meets the simulator. Without an
    /// observer the run is monolithic ([`Soc::run`] or
    /// [`Soc::run_until_done`]); with one it is segmented by
    /// [`Soc::run_windowed`]. Live runs, the only observed ones, carry
    /// no `until_done`.
    fn execute(
        &self,
        parsed: &ScenarioSpec,
        observer: Option<(u64, Observer<'_>)>,
    ) -> Result<ScenarioRun, RunError> {
        let (mut soc, fabric) = match self.source {
            Source::Cold(naive, leap) => {
                let (mut soc, fabric) = parsed.build();
                if let Some(naive) = naive {
                    soc.set_naive(naive);
                }
                if let Some(leap) = leap {
                    soc.set_leap(leap);
                }
                (soc, fabric)
            }
            Source::Warm(warmup) => {
                let (run, _) = warm(parsed, warmup)?;
                (run.soc, run.fabric)
            }
            Source::Fork(snap, fabric) => {
                let mut ctx = ForkCtx::new();
                let soc = snap.fork_with(&mut ctx);
                (soc, fabric.fork_rebound(&mut ctx))
            }
        };
        if let Some((period, budget)) = self.knobs {
            // The knobs land after the boundary cycle's own controller
            // ops, in the order a replay that appends them as a
            // `[phase]` at the boundary executes them.
            soc.settle_controllers();
            fabric.set_best_effort_budgets(
                period.min(u32::MAX as u64) as u32,
                budget.min(u32::MAX as u64) as u32,
            );
        }
        let start = soc.now().get();
        let finished_at = match (observer, self.until_done) {
            (Some((window, observe)), _) => {
                soc.run_windowed(self.cycles, window, |soc, b| observe(soc, &fabric, b));
                None
            }
            (None, Some(name)) => {
                let id = soc.master_id(name).ok_or_else(|| no_master(name))?;
                soc.run_until_done(id, self.cycles)
            }
            (None, None) => {
                soc.run(self.cycles);
                None
            }
        };
        Ok(ScenarioRun {
            soc,
            fabric,
            finished_at,
            start,
        })
    }

    /// Renders a finished run of this plan: the banner hashes
    /// `content`, and `context` follows the `cycles` line.
    fn report(
        &self,
        parsed: &ScenarioSpec,
        run: &ScenarioRun,
        flavour: &Flavour,
        content: &str,
        context: &[(&str, u64)],
    ) -> Report {
        let mut report = Report::new(flavour.kind);
        report.banner(
            &flavour.kind.to_ascii_uppercase(),
            &format!("content {:016x}", fnv64(content.as_bytes())),
        );
        report.context("cycles", self.cycles);
        for (key, value) in context {
            report.context(key, value);
        }
        if let Some(name) = self.until_done {
            report.context("until_done", name);
            match run.finished_at {
                Some(t) => report.context("finished_at", t),
                None => report.note(format!(
                    "master {name:?} did not finish within {} cycles{}",
                    self.cycles, flavour.cap_suffix
                )),
            }
        }
        let ran = run.ran();
        report.context("simulated_cycles", ran);
        report.context("clock", run.soc.freq());
        if flavour.leap {
            leap_block(&mut report, &run.soc);
        }
        stats_tables(&mut report, parsed, &run.soc, &run.fabric, ran);
        assertion_block(&mut report, parsed, &run.soc, &run.fabric);
        report
    }
}

/// Runs a parsed scenario cold over `opts`' horizon and hands back the
/// finished machine — the CLI's text path and `check` render from it.
pub fn run_scenario(spec: &ScenarioSpec, opts: &RunOptions) -> Result<ScenarioRun, RunError> {
    RunPlan::new(COLD, opts.cycles, opts.until_done.as_deref()).execute(spec, None)
}

/// Runs `text` as a scenario and renders the outcome as a report.
///
/// The document is a pure function of `(text, opts)` — the simulator is
/// deterministic and every rendered number comes from it — which is what
/// lets `fgqos-serve` cache results content-addressed and still promise
/// byte-identical responses.
pub fn scenario_report(text: &str, opts: &RunOptions) -> Result<Report, RunError> {
    let parsed = parse(text)?;
    let plan = RunPlan::new(COLD, opts.cycles, opts.until_done.as_deref());
    let run = plan.execute(&parsed, None)?;
    Ok(plan.report(&parsed, &run, &SCENARIO, text, &[]))
}

/// Appends steady-state leap telemetry to a scenario report.
///
/// Purely informational: leap-on and leap-off runs produce bit-identical
/// simulation results (proptest-pinned in `tests/leap.rs`), so every
/// *measured* number in the document is unaffected — these lines only say
/// how much of the horizon was crossed algebraically. They stay a pure
/// function of `(text, opts)` under a fixed environment; flipping
/// `FGQOS_NO_LEAP`/`FGQOS_NAIVE` changes them (and nothing else), which is
/// why point reports — compared byte-for-byte across mixed naive/fast
/// fleet workers in CI — deliberately do *not* carry this block.
fn leap_block(report: &mut Report, soc: &Soc) {
    let leap = soc.leap_telemetry();
    report.context("leap_enabled", leap.enabled);
    report.context("leap_periods_detected", leap.periods_detected);
    report.context("leap_cycles_skipped", leap.cycles_skipped);
    report.context("leap_leaps", leap.leaps);
}

/// Largest single AXI burst in bytes. Window accounting can overshoot by
/// at most one in-flight burst even under correct regulation, so
/// `expect isolation(...)` tolerates exactly this much per-window
/// overshoot and no more.
const ISOLATION_OVERSHOOT_SLACK: u64 = MAX_BURST_BEATS as u64 * BEAT_BYTES;

/// Outcome of one `expect` directive after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssertionResult {
    /// The directive as written in the scenario (without the keyword).
    pub text: String,
    /// Human-readable measured value backing the verdict.
    pub measured: String,
    /// Whether the directive holds (negation already applied).
    pub pass: bool,
}

/// Evaluates every `expect` directive of `spec` against the finished run.
///
/// Targets were validated at parse time (the master exists and has the
/// role the metric needs), so lookups here cannot fail. Results come back
/// in declaration order.
pub fn evaluate_expectations(
    spec: &ScenarioSpec,
    soc: &Soc,
    fabric: &QosFabric,
) -> Vec<AssertionResult> {
    spec.expects
        .iter()
        .map(|e| evaluate_expect(e, spec, soc, fabric))
        .collect()
}

fn evaluate_expect(
    e: &ExpectSpec,
    spec: &ScenarioSpec,
    soc: &Soc,
    fabric: &QosFabric,
) -> AssertionResult {
    let stats_of = |name: &str| {
        let id = soc
            .master_id(name)
            .expect("expect target validated at parse time");
        soc.master_stats(id)
    };
    let (measured, holds) = match &e.kind {
        ExpectKind::Latency {
            metric,
            master,
            op,
            value,
        } => {
            let st = stats_of(master);
            let got = match metric {
                LatencyMetric::P50 => st.latency.percentile(0.50),
                LatencyMetric::P99 => st.latency.percentile(0.99),
                LatencyMetric::Max => st.latency.max(),
            };
            (format!("{got} cycles"), op.holds(got, *value))
        }
        ExpectKind::Bytes { master, op, value } => {
            let got = stats_of(master).bytes_completed;
            (format!("{got} bytes"), op.holds(got, *value))
        }
        ExpectKind::WithinBudget { master, percent } => {
            let d = fabric
                .driver(master)
                .expect("expect target validated at parse time");
            let t = d.telemetry();
            if t.windows == 0 {
                ("no completed windows".to_string(), false)
            } else {
                // Average over *completed* windows only: the open window
                // is still filling and would bias the mean downward.
                let avg = (t.total_bytes - t.window_bytes) as f64 / t.windows as f64;
                let budget = f64::from(d.budget_bytes());
                let dev = if budget == 0.0 {
                    if avg == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (avg - budget).abs() / budget * 100.0
                };
                (
                    format!("{avg:.0} bytes/window, {dev:.1}% off budget"),
                    dev <= *percent,
                )
            }
        }
        ExpectKind::Isolation { master } => {
            let stalls = stats_of(master).gate_stall_cycles;
            let worst = spec
                .masters
                .iter()
                .filter(|m| m.role == Role::BestEffort)
                .filter_map(|m| {
                    fabric
                        .driver(&m.name)
                        .map(|d| (m.name.as_str(), d.telemetry().max_overshoot))
                })
                .max_by_key(|(_, o)| *o);
            let (worst_name, worst_over) = worst.unwrap_or(("-", 0));
            (
                format!("{stalls} gate stalls, worst overshoot {worst_over}B ({worst_name})"),
                stalls == 0 && worst_over <= ISOLATION_OVERSHOOT_SLACK,
            )
        }
    };
    AssertionResult {
        text: e.text.clone(),
        measured,
        pass: if e.negated { !holds } else { holds },
    }
}

/// Appends the assertion verdict table (and summary context lines) when
/// the scenario carries `expect` directives; a scenario without them gets
/// no block at all, keeping v1 report bytes unchanged.
fn assertion_block(report: &mut Report, spec: &ScenarioSpec, soc: &Soc, fabric: &QosFabric) {
    let results = evaluate_expectations(spec, soc, fabric);
    if results.is_empty() {
        return;
    }
    let passed = results.iter().filter(|r| r.pass).count() as u64;
    let failed = results.len() as u64 - passed;
    report.blank();
    report.note("assertions:");
    report.context("assertions_passed", passed);
    report.context("assertions_failed", failed);
    report.header(&["assertion", "measured", "verdict"]);
    for r in results {
        report.row(vec![
            r.text,
            r.measured,
            if r.pass { "PASS" } else { "FAIL" }.to_string(),
        ]);
    }
}

/// Reads the assertion summary back out of a rendered [`Report`]:
/// `Some((passed, failed))` when the scenario carried `expect`
/// directives, `None` otherwise. This is how the CLI decides its exit
/// status for reports that crossed the serve wire as documents.
pub fn assertion_outcome(report: &Report) -> Option<(u64, u64)> {
    let mut passed = None;
    let mut failed = None;
    for b in report.blocks() {
        if let Block::Context { key, value } = b {
            match key.as_str() {
                "assertions_passed" => passed = value.parse().ok(),
                "assertions_failed" => failed = value.parse().ok(),
                _ => {}
            }
        }
    }
    Some((passed?, failed?))
}

/// The shared result body: per-master table, DRAM summary and the QoS
/// fabric report. `ran` normalizes bus utilization.
fn stats_tables(report: &mut Report, spec: &ScenarioSpec, soc: &Soc, fabric: &QosFabric, ran: u64) {
    report.header(&["master", "txns", "bytes", "bandwidth", "p50", "p99", "max"]);
    for i in 0..soc.master_count() {
        let id = MasterId::new(i);
        let st = soc.master_stats(id);
        report.row(vec![
            spec.masters[i].name.clone(),
            st.completed_txns.to_string(),
            st.bytes_completed.to_string(),
            format!("{}", soc.master_bandwidth(id)),
            st.latency.percentile(0.50).to_string(),
            st.latency.percentile(0.99).to_string(),
            st.latency.max().to_string(),
        ]);
    }
    report.blank();
    let d = soc.dram_stats();
    report.note(format!(
        "dram: {} bytes, row-hit ratio {:.2}, bus utilization {:.2}, {} refreshes",
        d.bytes_completed,
        d.row_hit_ratio(),
        d.bus_busy_cycles as f64 / ran.max(1) as f64,
        d.refreshes,
    ));
    report.blank();
    report.note("qos fabric:");
    for line in fabric.report().lines() {
        report.note(line);
    }
}

/// Slack appended to a batch's `warmup` while searching for a quiesced
/// boundary; when no gap opens in this range the batch falls back to
/// per-point cold runs of the identical schedule.
const BATCH_QUIESCE_SLACK: u64 = 100_000;

/// Builds the recipe and runs a batch's warm prefix: `warmup` cycles,
/// then the search for a quiesced boundary within
/// [`BATCH_QUIESCE_SLACK`]. The flag says whether one opened; when it
/// did not, the machine stands at `warmup` + slack.
fn warm(parsed: &ScenarioSpec, warmup: u64) -> Result<(ScenarioRun, bool), RunError> {
    let mut run = RunPlan::new(COLD, warmup, None).execute(parsed, None)?;
    let quiesced = run.soc.quiesce_point(BATCH_QUIESCE_SLACK).is_some();
    Ok((run, quiesced))
}

fn capture(soc: Soc) -> Result<SocSnapshot, RunError> {
    soc.snapshot()
        .map_err(|e| RunError::Run(format!("boundary snapshot failed: {e}")))
}

/// Runs a warm-start batch: one report per point, in point order.
///
/// The scenario is built once and warmed for `spec.warmup` cycles, then
/// advanced to the first quiesced boundary within a fixed slack
/// (`BATCH_QUIESCE_SLACK`). From there every point forks the boundary
/// [`SocSnapshot`], programs its
/// `period`/`budget` into every best-effort regulator and runs the
/// divergent tail (`spec.cycles`, or `until_done` capped by it). When no
/// quiesced boundary opens — a scenario that keeps the pipeline
/// saturated through the slack window — each point instead replays the
/// identical schedule cold, so the result is the same pure function of
/// `(spec, point)` either way; only the wall-clock differs.
pub fn batch_reports(spec: &BatchSpec) -> Result<Vec<Report>, RunError> {
    batch_reports_with_store(spec, None)
}

/// [`batch_reports`] with an optional shared warm-boundary store.
///
/// When a [`BlobStore`] is supplied, the quiesced boundary is looked up
/// by [`warm_boundary_key`] before any simulation: a hit restores the
/// serialized snapshot (fingerprint-verified against a freshly built
/// skeleton) and skips the warmup run entirely; a miss warms as usual
/// and files the boundary blob for every later run — including runs in
/// *other processes*, which is what lets a sharded serve fleet warm each
/// distinct `(scenario, warmup)` once instead of once per worker.
/// Results are byte-identical either way: the blob's fingerprint check
/// proves the restored state equals the in-memory boundary bit for bit.
pub fn batch_reports_with_store(
    spec: &BatchSpec,
    store: Option<&BlobStore>,
) -> Result<Vec<Report>, RunError> {
    let parsed = parse(&spec.scenario)?;
    // Resolve `until_done` before simulating anything: an unknown
    // master fails the batch up front, not per point. The probe build
    // also tells us which simulation core is in effect — part of the
    // warm-boundary key because the core flag is in the snapshot stream.
    let (probe, _) = parsed.build();
    if let Some(name) = &spec.until_done {
        if probe.master_id(name).is_none() {
            return Err(no_master(name));
        }
    }
    let key = warm_boundary_key(&spec.scenario, spec.warmup, probe.is_naive());
    // Not needed past the key: don't keep it resident beside the warm
    // boundary and its forks.
    drop(probe);
    // A blob that fails to decode or load (stale format, wrong recipe)
    // is a miss: fall through and re-warm.
    let restored = store
        .and_then(|store| store.get_named(&key).ok().flatten())
        .and_then(|encoded| SnapshotBlob::decode(&encoded).ok())
        .and_then(|blob| load_boundary(&parsed, &blob).ok());
    if let Some((snap, fabric)) = restored {
        return point_forks(&parsed, &snap, &fabric, spec);
    }
    let (boundary, quiesced) = warm(&parsed, spec.warmup)?;
    if !quiesced {
        // Cold fallback: each point replays the warm prefix, including
        // the failed quiesce search, so boundary and results stay
        // deterministic.
        return spec
            .points
            .iter()
            .map(|point| point_report(&parsed, Source::Warm(spec.warmup), spec, point))
            .collect();
    }
    let snap = capture(boundary.soc)?;
    if let Some(store) = store {
        // Best-effort write-through; a full disk must not fail the
        // batch itself.
        let _ = store.put_named(&key, &snap.to_blob(&spec.scenario).encode());
    }
    point_forks(&parsed, &snap, &boundary.fabric, spec)
}

/// Runs every batch point as a fork of the warm boundary, in point order.
fn point_forks(
    parsed: &ScenarioSpec,
    snap: &SocSnapshot,
    fabric: &QosFabric,
    spec: &BatchSpec,
) -> Result<Vec<Report>, RunError> {
    spec.points
        .iter()
        .map(|point| point_report(parsed, Source::Fork(snap, fabric), spec, point))
        .collect()
}

/// Key under which a batch's warm boundary is filed in a [`BlobStore`]:
/// a hash of every input that shapes the boundary state — scenario text,
/// warmup budget, and the simulation core in use (the core flag is part
/// of the snapshot stream, so the two cores produce distinct blobs).
pub fn warm_boundary_key(scenario: &str, warmup: u64, naive: bool) -> String {
    let mut h = StateHasher::new();
    h.section("fgqos.warm-boundary-key");
    h.write_str(scenario);
    h.write_u64(warmup);
    h.write_bool(naive);
    format!("{:016x}", h.finish())
}

/// Warms `text` for `warmup` cycles, advances to the first quiesced
/// boundary within the usual slack and returns the boundary as an
/// encoded [`SnapshotBlob`]. `Ok(None)` means the scenario kept the
/// pipeline saturated through the whole slack window and has no
/// serializable boundary.
pub fn warm_boundary_blob(text: &str, warmup: u64) -> Result<Option<Vec<u8>>, RunError> {
    let (boundary, quiesced) = warm(&parse(text)?, warmup)?;
    if !quiesced {
        return Ok(None);
    }
    Ok(Some(capture(boundary.soc)?.to_blob(text).encode()))
}

/// Restores a serialized snapshot end to end: rebuilds the SoC skeleton
/// from the scenario text the blob carries, loads the state stream into
/// it (re-verifying the fingerprint) and returns the live snapshot with
/// its parsed recipe and QoS fabric. The fabric's drivers share register
/// files with the loaded SoC through the usual `Arc`s, so one restore
/// fixes both the hardware and software views.
pub fn restore_snapshot(
    blob: &SnapshotBlob,
) -> Result<(ScenarioSpec, SocSnapshot, QosFabric), RunError> {
    let parsed = parse(&blob.scenario)?;
    let (snap, fabric) = load_boundary(&parsed, blob)?;
    Ok((parsed, snap, fabric))
}

/// Loads `blob` into a fresh build of `parsed`, re-verifying the
/// fingerprint.
fn load_boundary(
    parsed: &ScenarioSpec,
    blob: &SnapshotBlob,
) -> Result<(SocSnapshot, QosFabric), RunError> {
    let (soc, fabric) = parsed.build();
    let snap = SocSnapshot::load_into(soc, blob)
        .map_err(|e| RunError::Run(format!("snapshot load failed: {e}")))?;
    Ok((snap, fabric))
}

/// Programs one point's knobs at the boundary `source` yields and
/// renders its divergent run, mirroring [`scenario_report`]'s document
/// shape.
fn point_report(
    parsed: &ScenarioSpec,
    source: Source<'_>,
    spec: &BatchSpec,
    point: &BatchPoint,
) -> Result<Report, RunError> {
    let plan = RunPlan {
        source,
        knobs: Some((point.period, point.budget)),
        cycles: spec.cycles,
        until_done: spec.until_done.as_deref(),
    };
    let run = plan.execute(parsed, None)?;
    let context = [
        ("warmup", spec.warmup),
        ("boundary", run.start),
        ("period", point.period),
        ("budget", point.budget),
    ];
    Ok(plan.report(parsed, &run, &POINT, &spec.scenario, &context))
}

/// The simulator-backed [`Executor`] `fgqos serve` injects into
/// `fgqos-serve` (which is deliberately ignorant of scenario parsing).
pub fn serve_executor() -> Executor {
    Arc::new(|job: &JobSpec| {
        scenario_report(
            &job.scenario,
            &RunOptions {
                cycles: job.cycles,
                until_done: job.until_done.clone(),
            },
        )
        .map_err(|e| e.to_string())
    })
}

/// The simulator-backed [`BatchExecutor`] behind `submit_batch`: the
/// warm-start path of [`batch_reports`], injected next to
/// [`serve_executor`].
pub fn serve_batch_executor() -> BatchExecutor {
    Arc::new(|spec: &BatchSpec| batch_reports(spec).map_err(|e| e.to_string()))
}

/// A [`BatchExecutor`] backed by a shared warm-boundary [`BlobStore`] at
/// `dir`: the first batch for a `(scenario, warmup)` pair warms and
/// persists the quiesced boundary; later batches — including ones in
/// *other worker processes* sharing the directory — restore it from the
/// blob instead of re-warming. Reports are byte-identical either way
/// (that equivalence is test- and proptest-enforced), so the cache
/// purity contract of [`BatchExecutor`] still holds.
pub fn serve_batch_executor_with_store(dir: impl Into<std::path::PathBuf>) -> BatchExecutor {
    let dir = dir.into();
    Arc::new(move |spec: &BatchSpec| {
        let store = BlobStore::open(&dir).map_err(|e| format!("warm-boundary store: {e}"))?;
        batch_reports_with_store(spec, Some(&store)).map_err(|e| e.to_string())
    })
}

/// The simulator-backed [`SnapshotExecutor`] serving the v3 `snapshot`
/// op: [`warm_boundary_blob`] behind the serve crate's injection seam.
pub fn serve_snapshot_executor() -> SnapshotExecutor {
    Arc::new(|scenario: &str, warmup: u64| {
        warm_boundary_blob(scenario, warmup).map_err(|e| e.to_string())
    })
}

/// Phase-name prefix reserved for journal replay. Scenarios may not
/// declare phases with this prefix, so [`replay_scenario_text`] can
/// always append its synthesized sections without a name collision.
pub const LIVE_PHASE_PREFIX: &str = "live_ctl_";

/// How to run a scenario live (windowed, with runtime control writes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveOptions {
    /// Cycle budget for the run.
    pub cycles: u64,
    /// Telemetry window in cycles: one frame per window, and the
    /// granularity at which queued control writes take effect.
    pub window: u64,
    /// Force the simulation core (`Some(true)` = naive), instead of the
    /// `FGQOS_NAIVE` environment default. Tests pin this so replay
    /// byte-identity is checked under a *known* core.
    pub naive: Option<bool>,
    /// Force the steady-state leap engine on/off, instead of the
    /// `FGQOS_NO_LEAP` environment default.
    pub leap: Option<bool>,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            cycles: 1_000_000,
            window: fgqos_serve::protocol::DEFAULT_LIVE_WINDOW,
            naive: None,
            leap: None,
        }
    }
}

/// One event of a live run, handed to the caller's sink as it happens.
#[derive(Debug)]
pub enum LiveEvent<'a> {
    /// A control write was accepted and applied at a window boundary.
    Control(&'a JournalEntry),
    /// A telemetry frame was read out at a window boundary.
    Frame(&'a Value),
}

/// Everything a finished live run produced.
#[derive(Debug)]
pub struct LiveOutcome {
    /// One telemetry frame per window boundary, in order (also handed
    /// to the sink as [`LiveEvent::Frame`] while running).
    pub frames: Vec<Value>,
    /// Accepted control writes, in application order.
    pub journal: Vec<JournalEntry>,
    /// The final report. Its banner hashes [`LiveOutcome::replay_scenario`],
    /// and it deliberately omits the leap-telemetry block, so a
    /// monolithic [`live_replay_report`] of the replay scenario renders
    /// byte-identically.
    pub report: Report,
    /// The original scenario text with the journal appended as
    /// synthesized `[phase live_ctl_<i>]` sections.
    pub replay_scenario: String,
    /// [`Soc::fingerprint`] of the final architectural state.
    pub fingerprint: u64,
    /// The run stopped early at a window boundary (the control source
    /// asked for an abort); replay identity is not claimed for the
    /// partial run.
    pub aborted: bool,
}

fn control_op(set: ControlSet) -> ProgramOp {
    match set {
        ControlSet::Budget(b) => ProgramOp::Budget(b),
        ControlSet::Period(p) => ProgramOp::Period(p),
        ControlSet::Enable(e) => ProgramOp::Enabled(e),
    }
}

/// Cumulative per-master counters, remembered across boundaries so each
/// frame can carry window deltas.
#[derive(Clone, Copy, Default)]
struct MasterCum {
    bytes: u64,
    txns: u64,
    gate: u64,
    fifo: u64,
}

fn cum_snapshot(soc: &Soc) -> Vec<MasterCum> {
    (0..soc.master_count())
        .map(|i| {
            let st = soc.master_stats(MasterId::new(i));
            MasterCum {
                bytes: st.bytes_completed,
                txns: st.completed_txns,
                gate: st.gate_stall_cycles,
                fifo: st.fifo_stall_cycles,
            }
        })
        .collect()
}

/// Renders one `fgqos.live` telemetry frame at a window boundary:
/// per-master window deltas (bytes, txns, stalls) next to cumulative
/// totals and latency percentiles, leap telemetry, and the control
/// writes this boundary absorbed.
fn live_frame(
    run_id: u64,
    soc: &Soc,
    spec: &ScenarioSpec,
    b: &WindowBoundary,
    prev: &mut [MasterCum],
    applied: &[JournalEntry],
) -> Value {
    let mut f = Value::obj();
    f.set("schema", Value::str(LIVE_SCHEMA));
    f.set("version", Value::from(LIVE_VERSION));
    f.set("stream", Value::str("frame"));
    f.set("run", Value::from(run_id));
    f.set("window", Value::from(b.index));
    f.set("start", Value::from(b.start.get()));
    f.set("end", Value::from(b.end.get()));
    f.set("last", Value::from(b.last));
    let mut masters = Value::arr();
    let now = cum_snapshot(soc);
    for (i, (cum, before)) in now.iter().zip(prev.iter()).enumerate() {
        let st = soc.master_stats(MasterId::new(i));
        let mut m = Value::obj();
        m.set("name", Value::str(spec.masters[i].name.clone()));
        m.set("bytes", Value::from(cum.bytes - before.bytes));
        m.set("txns", Value::from(cum.txns - before.txns));
        m.set("gate_stalls", Value::from(cum.gate - before.gate));
        m.set("fifo_stalls", Value::from(cum.fifo - before.fifo));
        m.set("total_bytes", Value::from(cum.bytes));
        m.set("p50", Value::from(st.latency.percentile(0.50)));
        m.set("p99", Value::from(st.latency.percentile(0.99)));
        m.set("max", Value::from(st.latency.max()));
        masters.push(m);
    }
    prev.copy_from_slice(&now);
    f.set("masters", masters);
    let leap = soc.leap_telemetry();
    let mut lv = Value::obj();
    lv.set("enabled", Value::from(leap.enabled));
    lv.set("periods_detected", Value::from(leap.periods_detected));
    lv.set("cycles_skipped", Value::from(leap.cycles_skipped));
    lv.set("leaps", Value::from(leap.leaps));
    f.set("leap", lv);
    let mut controls = Value::arr();
    for e in applied {
        controls.push(e.to_json());
    }
    f.set("controls", controls);
    f
}

/// Synthesizes the replay scenario for a live run: the original text
/// with one `[phase live_ctl_<i>]` section appended per journal entry,
/// in journal order.
///
/// Each section programs exactly what the live write programmed, `at`
/// the boundary cycle the write took effect. Appending (rather than
/// merging into existing phases) preserves ordering under the scenario
/// engine's *stable* sort by `at`: an original `[phase]` op scheduled at
/// the same cycle still fires first, matching the live run, where the
/// boundary settles scheduled controllers before external writes land.
pub fn replay_scenario_text(text: &str, journal: &[JournalEntry]) -> String {
    let mut out = String::from(text);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    for (i, e) in journal.iter().enumerate() {
        let value = match e.set {
            ControlSet::Budget(b) => b.to_string(),
            ControlSet::Period(p) => p.to_string(),
            ControlSet::Enable(true) => "on".to_string(),
            ControlSet::Enable(false) => "off".to_string(),
        };
        out.push_str(&format!(
            "\n[phase {LIVE_PHASE_PREFIX}{i}]\nat {}\n{} {} {}\n",
            e.at,
            e.set.key(),
            e.target,
            value
        ));
    }
    out
}

fn parse_live(text: &str, opts: &LiveOptions) -> Result<ScenarioSpec, RunError> {
    if opts.window == 0 {
        return Err(RunError::Run("window must be at least one cycle".into()));
    }
    if opts.cycles == 0 {
        return Err(RunError::Run("cycles must be at least one cycle".into()));
    }
    parse(text)
}

/// Masters a live run accepts control writes for: the scenario's
/// best-effort masters, in declaration order (the same set `[phase]`
/// sections may target).
pub fn live_targets(spec: &ScenarioSpec) -> Vec<String> {
    spec.masters
        .iter()
        .filter(|m| m.role == Role::BestEffort)
        .map(|m| m.name.clone())
        .collect()
}

/// Runs `text` live: in `opts.window`-sized segments with explicit
/// yield points at every window boundary, where `poll` supplies queued
/// control writes and `sink` observes accepted writes and telemetry
/// frames as they happen.
///
/// At each **interior** boundary the drained writes are applied through
/// [`ProgramOp::apply`] — the single code path `[phase]` directives use —
/// and journaled, stamped with the boundary's sim cycle. The **final**
/// boundary accepts no writes (a monolithic run never executes the
/// deadline cycle, so a write there could not be replayed; see
/// [`Soc::run_windowed`]). A write whose target is not one of
/// [`live_targets`] is silently dropped — the serve session screens
/// targets at `control` time, so the engine only double-checks.
///
/// The determinism contract: replaying
/// [`LiveOutcome::replay_scenario`] monolithically via
/// [`live_replay_report`] (same `opts`) reproduces
/// [`LiveOutcome::report`] and [`LiveOutcome::fingerprint`] byte for
/// byte. With an empty journal this degenerates to the windowed ≡
/// monolithic equivalence of [`Soc::run_windowed`].
pub fn live_run(
    text: &str,
    opts: &LiveOptions,
    run_id: u64,
    mut poll: impl FnMut(&WindowBoundary) -> BoundaryCmd,
    mut sink: impl FnMut(LiveEvent<'_>),
) -> Result<LiveOutcome, RunError> {
    let spec = parse_live(text, opts)?;
    if let Some(p) = spec
        .phases
        .iter()
        .find(|p| p.name.starts_with(LIVE_PHASE_PREFIX))
    {
        return Err(RunError::Run(format!(
            "phase name {:?} uses the prefix {LIVE_PHASE_PREFIX:?}, which is reserved for \
             control-journal replay",
            p.name
        )));
    }
    let mut journal: Vec<JournalEntry> = Vec::new();
    let mut frames: Vec<Value> = Vec::new();
    let mut aborted = false;
    let mut prev = vec![MasterCum::default(); spec.masters.len()];
    let plan = RunPlan::new(Source::Cold(opts.naive, opts.leap), opts.cycles, None);
    let mut observe = |soc: &mut Soc, fabric: &QosFabric, b: WindowBoundary| {
        let mut applied: Vec<JournalEntry> = Vec::new();
        if !b.last {
            let cmd = poll(&b);
            if cmd.abort {
                aborted = true;
            } else {
                for w in cmd.writes {
                    let Some(driver) = fabric.driver(&w.target) else {
                        continue;
                    };
                    control_op(w.set).apply(driver);
                    let entry = JournalEntry {
                        at: b.end.get(),
                        window: b.index,
                        target: w.target,
                        set: w.set,
                    };
                    sink(LiveEvent::Control(&entry));
                    applied.push(entry);
                }
            }
        }
        let frame = live_frame(run_id, soc, &spec, &b, &mut prev, &applied);
        sink(LiveEvent::Frame(&frame));
        frames.push(frame);
        journal.extend(applied);
        !aborted
    };
    let mut run = plan.execute(&spec, Some((opts.window, &mut observe)))?;
    let replay_scenario = replay_scenario_text(text, &journal);
    let fingerprint = run.soc.fingerprint();
    let report = plan.report(&spec, &run, &LIVE, &replay_scenario, &[]);
    Ok(LiveOutcome {
        frames,
        journal,
        report,
        replay_scenario,
        fingerprint,
        aborted,
    })
}

/// Replays a synthesized scenario (see [`replay_scenario_text`]) as one
/// monolithic run and renders it in the live-report shape. Returns the
/// report and the final [`Soc::fingerprint`]; for a completed live run
/// both must equal the live side's byte for byte / bit for bit.
pub fn live_replay_report(
    replay_text: &str,
    opts: &LiveOptions,
) -> Result<(Report, u64), RunError> {
    let spec = parse_live(replay_text, opts)?;
    let plan = RunPlan::new(Source::Cold(opts.naive, opts.leap), opts.cycles, None);
    let mut run = plan.execute(&spec, None)?;
    let report = plan.report(&spec, &run, &LIVE, replay_text, &[]);
    Ok((report, run.soc.fingerprint()))
}

/// The simulator-backed [`LiveExecutor`] behind the v4 `subscribe` op:
/// runs the scenario via [`live_run`] against its [`LiveSession`] —
/// `begin` with the scenario's controllable targets, drain queued
/// control writes at every boundary, record accepted writes, publish
/// frames (pacing by `spec.pace_ms` between them), and `finish` with the
/// final report and replay scenario.
pub fn serve_live_executor() -> LiveExecutor {
    Arc::new(|spec: &LiveSpec, session: Arc<LiveSession>| {
        let opts = LiveOptions {
            cycles: spec.cycles,
            window: spec.window,
            ..LiveOptions::default()
        };
        let parsed = ScenarioSpec::parse(&spec.scenario).map_err(|e| e.to_string())?;
        session.begin(live_targets(&parsed));
        let pace = std::time::Duration::from_millis(spec.pace_ms);
        let outcome = live_run(
            &spec.scenario,
            &opts,
            session.id(),
            |_b| session.drain_controls(),
            |event| match event {
                LiveEvent::Control(entry) => session.record(entry.clone()),
                LiveEvent::Frame(frame) => {
                    session.publish(frame.clone());
                    if !pace.is_zero() {
                        session.pause(pace);
                    }
                }
            },
        )
        .map_err(|e| e.to_string())?;
        if outcome.aborted {
            session.finish(
                None,
                None,
                Some("run aborted at a window boundary (server draining)".into()),
            );
        } else {
            session.finish(
                Some(outcome.report.to_json()),
                Some(outcome.replay_scenario),
                None,
            );
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCENARIO: &str = "\
clock_mhz 1000

[master cpu]
kind cpu
role critical
pattern seq
footprint 1M
txn 256
total 2000

[master dma]
kind accel
role best-effort
period 1000
budget 2K
pattern seq
base 0x40000000
footprint 4M
txn 512
";

    #[test]
    fn report_is_deterministic_for_equal_inputs() {
        let opts = RunOptions {
            cycles: 50_000,
            until_done: None,
        };
        let a = scenario_report(SCENARIO, &opts).expect("runs");
        let b = scenario_report(SCENARIO, &opts).expect("runs");
        assert_eq!(
            a.to_json().to_compact(),
            b.to_json().to_compact(),
            "equal inputs must serialize byte-identically"
        );
    }

    #[test]
    fn report_carries_the_cli_tables() {
        let opts = RunOptions {
            cycles: 50_000,
            until_done: None,
        };
        let r = scenario_report(SCENARIO, &opts).expect("runs");
        let text = r.render_text();
        assert!(text.contains("cpu"), "master rows present");
        assert!(text.contains("dram:"), "dram summary present");
        assert!(text.contains("qos fabric:"), "fabric report present");
    }

    #[test]
    fn until_done_unknown_master_is_a_run_error() {
        let opts = RunOptions {
            cycles: 1_000,
            until_done: Some("ghost".into()),
        };
        match scenario_report(SCENARIO, &opts) {
            Err(RunError::Run(m)) => assert!(m.contains("ghost")),
            other => panic!("expected Run error, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_surface_with_line_numbers() {
        match scenario_report("bogus line\n", &RunOptions::default()) {
            Err(RunError::Parse(e)) => assert_eq!(e.line, 1),
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn scenario_without_regulated_master_is_a_parse_error() {
        let text = "[master a]\nkind cpu\n";
        match scenario_report(text, &RunOptions::default()) {
            Err(RunError::Parse(e)) => {
                assert_eq!(e.line, 1);
                assert!(e.message.contains("no regulated master"), "{e}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    fn batch(points: Vec<BatchPoint>) -> BatchSpec {
        BatchSpec {
            scenario: SCENARIO.to_string(),
            cycles: 20_000,
            until_done: None,
            warmup: 30_000,
            points,
            kind: BatchKind::Sweep,
        }
    }

    #[test]
    fn batch_reports_are_pure_and_point_sensitive() {
        let spec = batch(vec![
            BatchPoint {
                period: 1_000,
                budget: 512,
            },
            BatchPoint {
                period: 1_000,
                budget: 8_192,
            },
        ]);
        let a = batch_reports(&spec).expect("runs");
        let b = batch_reports(&spec).expect("runs");
        assert_eq!(a.len(), 2, "one report per point");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.to_json().to_compact(),
                y.to_json().to_compact(),
                "equal (spec, point) must serialize byte-identically"
            );
        }
        assert_ne!(
            a[0].to_json().to_compact(),
            a[1].to_json().to_compact(),
            "the budget knob must change the divergent tail"
        );
    }

    /// A batch point is the cold run of its scenario with the point's
    /// knobs appended as a `[phase]` at the boundary, also when the
    /// scenario's own controllers act at that cycle: `demo`'s reclaim
    /// loop runs every 10,000 cycles, so it acts at a 20,000-cycle
    /// boundary, and the knobs must land after it.
    #[test]
    fn batch_point_matches_a_cold_run_with_a_boundary_phase() {
        let text = include_str!("../scenarios/demo.fgq");
        let spec = BatchSpec {
            scenario: text.to_string(),
            warmup: 20_000,
            ..batch(vec![BatchPoint {
                period: 1_000,
                budget: 512,
            }])
        };
        let point = &batch_reports(&spec).expect("runs")[0];
        let context = |r: &Report, key: &str| -> u64 {
            r.blocks()
                .iter()
                .find_map(|b| match b {
                    Block::Context { key: k, value } if k == key => value.parse().ok(),
                    _ => None,
                })
                .expect("context present")
        };
        let boundary = context(point, "boundary");
        assert_eq!(
            boundary % 10_000,
            0,
            "the reclaim loop acts at the boundary"
        );
        let replay = format!(
            "{text}\n[phase knobs]\nat {boundary}\nperiod * 1000\nbudget * 512\nenable * on\n"
        );
        let opts = RunOptions {
            cycles: boundary + spec.cycles,
            until_done: None,
        };
        let cold = scenario_report(&replay, &opts).expect("runs");
        let rows = |r: &Report| -> Vec<Block> {
            r.blocks()
                .iter()
                .filter(|b| matches!(b, Block::Row(_) | Block::Note(_)))
                .cloned()
                .collect()
        };
        assert_eq!(rows(point), rows(&cold));
    }

    #[test]
    fn batch_until_done_unknown_master_fails_up_front() {
        let mut spec = batch(vec![BatchPoint {
            period: 1_000,
            budget: 2_048,
        }]);
        spec.until_done = Some("ghost".into());
        match batch_reports(&spec) {
            Err(RunError::Run(m)) => assert!(m.contains("ghost")),
            other => panic!("expected Run error, got {other:?}"),
        }
    }

    #[test]
    fn warm_store_hit_matches_in_memory_batch() {
        let dir = std::env::temp_dir().join(format!("fgqos-warmstore-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = BlobStore::open(&dir).expect("store opens");
        let spec = batch(vec![
            BatchPoint {
                period: 1_000,
                budget: 512,
            },
            BatchPoint {
                period: 1_000,
                budget: 8_192,
            },
        ]);
        let cold = batch_reports(&spec).expect("runs");
        // First store run warms and files the boundary blob…
        let miss = batch_reports_with_store(&spec, Some(&store)).expect("runs");
        let key = warm_boundary_key(&spec.scenario, spec.warmup, false);
        assert!(
            store.get_named(&key).expect("store readable").is_some(),
            "miss run must file the warm boundary"
        );
        // …second run restores it from disk instead of re-warming.
        let hit = batch_reports_with_store(&spec, Some(&store)).expect("runs");
        assert_eq!(miss.len(), cold.len());
        assert_eq!(hit.len(), cold.len());
        for (x, y) in cold.iter().zip(miss.iter()) {
            assert_eq!(x.to_json().to_compact(), y.to_json().to_compact());
        }
        for (x, y) in cold.iter().zip(hit.iter()) {
            assert_eq!(
                x.to_json().to_compact(),
                y.to_json().to_compact(),
                "blob-restored batch must be byte-identical to in-memory"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_boundary_blob_roundtrips_through_restore() {
        let encoded = warm_boundary_blob(SCENARIO, 30_000)
            .expect("runs")
            .expect("scenario quiesces");
        let blob = SnapshotBlob::decode(&encoded).expect("container decodes");
        let (_spec, snap, _fabric) = restore_snapshot(&blob).expect("restores");
        assert_eq!(
            snap.fingerprint(),
            blob.fingerprint,
            "restored snapshot carries the recorded fingerprint"
        );
    }

    #[test]
    fn assertion_free_reports_carry_no_outcome() {
        let opts = RunOptions {
            cycles: 20_000,
            until_done: None,
        };
        let r = scenario_report(SCENARIO, &opts).expect("runs");
        assert_eq!(assertion_outcome(&r), None);
        assert!(!r.render_text().contains("assertions:"));
    }

    #[test]
    fn expect_directives_render_and_gate_the_outcome() {
        let text = format!(
            "expect bytes(cpu) > 0\n\
             expect bytes(cpu) > 100G\n\
             expect isolation(cpu)\n\
             {SCENARIO}"
        );
        let opts = RunOptions {
            cycles: 50_000,
            until_done: None,
        };
        let r = scenario_report(&text, &opts).expect("runs");
        let rendered = r.render_text();
        assert!(rendered.contains("assertions:"));
        assert!(rendered.contains("PASS"));
        assert!(rendered.contains("FAIL"), "the 100G bound cannot hold");
        let (passed, failed) = assertion_outcome(&r).expect("summary present");
        assert_eq!(passed + failed, 3);
        assert_eq!(failed, 1);
        // Assertion evaluation is part of the pure document function.
        let again = scenario_report(&text, &opts).expect("runs");
        assert_eq!(r.to_json().to_compact(), again.to_json().to_compact());
    }

    #[test]
    fn batch_points_evaluate_expectations_too() {
        let mut spec = batch(vec![BatchPoint {
            period: 1_000,
            budget: 2_048,
        }]);
        spec.scenario = format!("expect bytes(dma) > 0\n{SCENARIO}");
        let reports = batch_reports(&spec).expect("runs");
        let (passed, failed) = assertion_outcome(&reports[0]).expect("summary present");
        assert_eq!((passed, failed), (1, 0));
    }

    #[test]
    fn batch_executor_matches_direct_calls() {
        let spec = batch(vec![BatchPoint {
            period: 2_000,
            budget: 1_024,
        }]);
        let via_exec = serve_batch_executor()(&spec).expect("executes");
        let direct = batch_reports(&spec).expect("runs");
        assert_eq!(via_exec.len(), direct.len());
        for (x, y) in via_exec.iter().zip(&direct) {
            assert_eq!(x.to_json().to_compact(), y.to_json().to_compact());
        }
    }

    #[test]
    fn live_replay_reproduces_report_and_fingerprint() {
        use fgqos_serve::live::ControlWrite;
        for naive in [false, true] {
            let opts = LiveOptions {
                cycles: 40_000,
                window: 5_000,
                naive: Some(naive),
                leap: Some(!naive),
            };
            let scripted = [
                (
                    2u64,
                    ControlWrite {
                        target: "dma".into(),
                        set: ControlSet::Budget(512),
                    },
                ),
                (
                    5u64,
                    ControlWrite {
                        target: "dma".into(),
                        set: ControlSet::Period(500),
                    },
                ),
            ];
            let mut events = 0usize;
            let outcome = live_run(
                SCENARIO,
                &opts,
                7,
                |b| {
                    let mut cmd = BoundaryCmd::default();
                    for (window, write) in &scripted {
                        if *window == b.index {
                            cmd.writes.push(write.clone());
                        }
                    }
                    cmd
                },
                |_| events += 1,
            )
            .expect("runs");
            assert!(!outcome.aborted);
            assert_eq!(outcome.journal.len(), 2, "both writes journaled");
            assert_eq!(outcome.frames.len(), 8, "one frame per boundary");
            assert_eq!(events, outcome.frames.len() + outcome.journal.len());
            let (replay, fp) =
                live_replay_report(&outcome.replay_scenario, &opts).expect("replays");
            assert_eq!(
                outcome.report.to_json().to_compact(),
                replay.to_json().to_compact(),
                "live report must equal its monolithic replay byte for byte (naive={naive})"
            );
            assert_eq!(outcome.fingerprint, fp, "final state bit-identical");
        }
    }

    #[test]
    fn live_run_rejects_reserved_phase_names() {
        let text = format!("{SCENARIO}\n[phase live_ctl_0]\nat 100\nbudget dma 64\n");
        match live_run(
            &text,
            &LiveOptions::default(),
            0,
            |_| BoundaryCmd::default(),
            |_| {},
        ) {
            Err(RunError::Run(m)) => assert!(m.contains("reserved")),
            other => panic!("expected Run error, got {other:?}"),
        }
    }

    #[test]
    fn executor_matches_direct_calls() {
        let exec = serve_executor();
        let job = JobSpec {
            scenario: SCENARIO.to_string(),
            cycles: 50_000,
            until_done: None,
        };
        let via_exec = exec(&job).expect("executes");
        let direct = scenario_report(
            SCENARIO,
            &RunOptions {
                cycles: 50_000,
                until_done: None,
            },
        )
        .expect("runs");
        assert_eq!(
            via_exec.to_json().to_compact(),
            direct.to_json().to_compact()
        );
    }
}
