//! `hunt_search`: `hunt::run_hunt` in-process, one hunt at a time, on
//! shipped scenarios under hunt seeds drawn from the workload seed
//! (the first is the workload seed itself), at the default budgets. One
//! operation is one whole hunt; the work unit is one candidate
//! evaluation, bisection included.

use crate::inputs::{hunt, hunt_hash, HuntInput, HUNT_SCENARIOS};
use crate::layers::snap_probe;
use crate::stats::{median, Fnv};
use crate::{setup_due, Ctx, Outcome};
use fgqos::hunt::{base_info, run_hunt, search_space, HuntOptions, HuntResult};
use fgqos::hunt_engine::HuntConfig;
use fgqos::scenario::ScenarioSpec;
use std::hint::black_box;
use std::time::Instant;

fn options(seed: u64) -> HuntOptions {
    HuntOptions {
        config: HuntConfig {
            seed,
            ..HuntConfig::default()
        },
        ..HuntOptions::default()
    }
}

/// Simulated cycles a hunt spent: one warm-up per evaluated scenario
/// family, one tail per evaluation, and the winner's cold replay.
fn hunt_cycles(h: &HuntResult, opts: &HuntOptions) -> f64 {
    let o = &h.outcome;
    (o.families as u64 * opts.warmup + o.evals_used as u64 * opts.tail_cycles + o.best.measured.end)
        as f64
}

/// Runs the `hunt_search` workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tr = &*ctx.tracer;
    let base = HuntOptions::default();
    let mut out = Outcome::default();

    // Set-up: load and check every scenario, then one small hunt of
    // each.
    let setup = |out: &mut Outcome| -> Result<Vec<HuntInput>, String> {
        let t = Instant::now();
        let inputs = hunt(ctx.seed)?;
        for i in &inputs {
            let spec = ScenarioSpec::parse(&i.text).map_err(|e| format!("{}: {e}", i.name))?;
            base_info(&i.text, &spec).map_err(|e| format!("{}: {e}", i.name))?;
            black_box(search_space(&spec));
        }
        let mut small = options(ctx.seed);
        small.config.evals = 8;
        small.config.explore = 8;
        small.config.bisect = 0;
        for i in inputs.iter().filter(|i| i.seed == ctx.seed) {
            black_box(run_hunt(&i.text, &small).map_err(|e| format!("{}: {e}", i.name))?);
        }
        out.setup_s.push(t.elapsed().as_secs_f64());
        Ok(inputs)
    };
    let inputs = setup(&mut out)?;
    out.input_fnv = hunt_hash(&inputs);

    // Timed loop: at least one pass over the inputs, so each has a
    // reference report that repeats must reproduce byte for byte, and
    // whole groups, so every scenario weighs the same. Later set-up
    // passes run between hunts, off the clock.
    let mut first: Vec<Option<(String, f64)>> = vec![None; inputs.len()];
    let mut per_eval_ms = Vec::new();
    let group = HUNT_SCENARIOS.len() as u64;
    let start = Instant::now();
    let mut paused = 0.0;
    let mut k = 0u64;
    loop {
        let loop_s = start.elapsed().as_secs_f64() - paused;
        if setup_due(out.setup_s.len(), loop_s, ctx.seconds) {
            let t = Instant::now();
            if setup(&mut out)? != inputs {
                return Err("a set-up pass generated different inputs".into());
            }
            paused += t.elapsed().as_secs_f64();
            continue;
        }
        if k >= inputs.len() as u64 && loop_s >= ctx.seconds && k.is_multiple_of(group) {
            break;
        }
        let idx = (k % inputs.len() as u64) as usize;
        let input = &inputs[idx];
        let opts = options(input.seed);
        let t = Instant::now();
        let result = tr.span("hunt.run_hunt", None, k, |_| run_hunt(&input.text, &opts));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        let tag = format!("{} (hunt seed {})", input.name, input.seed);
        match result {
            Ok(h) if !h.replay_verified => out.fail(format!("{tag}: winner replay not verified")),
            Ok(h) => {
                let json = h.report.to_compact();
                let evals = h.outcome.evals_used as f64;
                match &first[idx] {
                    Some((want, _)) if *want != json => {
                        out.fail(format!("{tag}: hunt report differs from an earlier hunt"))
                    }
                    Some(_) => {}
                    None => first[idx] = Some((json, evals)),
                }
                out.op_ms.push(ms);
                out.units += evals;
                per_eval_ms.push(ms / evals.max(1.0));
                out.sim_cycles += hunt_cycles(&h, &opts);
            }
            Err(e) => out.fail(format!("{tag}: {e}")),
        }
        k += 1;
    }
    out.loop_s = start.elapsed().as_secs_f64() - paused;

    let mut digest = Fnv::default();
    let mut evaluations = 0.0;
    for (json, evals) in first.iter().flatten() {
        digest.str(json);
        evaluations += evals;
    }
    out.digest = digest.get();
    let hunt_s: f64 = out.op_ms.iter().sum::<f64>() / 1e3;
    out.detail_samples("hunt", "ms", &out.op_ms.clone());
    out.detail_value("hunt_candidates_per_s", "1/s", out.units / hunt_s.max(1e-9));

    if tr.on() {
        let mut blob_bytes = Vec::new();
        let mut probed = std::collections::BTreeSet::new();
        for (idx, i) in inputs.iter().enumerate() {
            if !probed.insert(&i.name) {
                continue;
            }
            let op = 1_000_000 + idx as u64;
            let bytes = tr
                .span("probe.candidate", None, op, |p| {
                    snap_probe(
                        tr,
                        p,
                        op,
                        op,
                        &i.text,
                        base.warmup,
                        Some(base.tail_cycles),
                        &mut out.sim,
                    )
                })
                .map_err(|e| format!("{}: {e}", i.name))?;
            blob_bytes.push(bytes as f64);
        }
        out.layer.insert("hunt.evaluations", evaluations);
        out.layer.insert("hunt.eval_ms", median(&per_eval_ms));
        out.layer.insert("snap.blob_bytes", median(&blob_bytes));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{shipped, shipped_names};

    /// Fails today on `kernels.fgq` (rejected) and on `demo.fgq`,
    /// `ramp.fgq` and `controller-crash.fgq` (winner replay not
    /// verified for some seeds); when it passes, those scenarios belong
    /// in `HUNT_SCENARIOS`.
    #[test]
    #[ignore = "known program defect: hunt fails or does not replay on four shipped scenarios"]
    fn hunt_replays_on_every_shipped_scenario() {
        crate::inputs::tests::at_repo_root();
        let mut failures = Vec::new();
        for name in shipped_names().unwrap() {
            let text = shipped(&name).unwrap();
            for seed in 1..=8 {
                match run_hunt(&text, &options(seed)) {
                    Ok(h) if h.replay_verified => {}
                    Ok(_) => failures.push(format!("{name} seed {seed}: replay not verified")),
                    Err(e) => failures.push(format!("{name} seed {seed}: {e}")),
                }
            }
        }
        assert!(failures.is_empty(), "{failures:#?}");
    }
}
