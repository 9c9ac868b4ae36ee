//! `corpus_long` and `steady_periodic`: closed-loop scenario runs on
//! one thread, one run at a time.
//!
//! One operation is what `fgqos <file> --json` does after start-up:
//! `runner::scenario_report` (parse, build, run, report) and the JSON
//! rendering of the report.

use crate::inputs::RunInput;
use crate::layers::sim_probe;
use crate::stats::{fnv, Fnv};
use crate::{setup_due, Ctx, Outcome};
use fgqos::bench::report::{Block, Report};
use fgqos::runner::{assertion_outcome, scenario_report, RunOptions};
use std::hint::black_box;
use std::time::Instant;

/// Probe passes over the distinct inputs in a traced run.
const PROBE_REPEATS: usize = 3;

fn options(input: &RunInput, cycles: u64) -> RunOptions {
    RunOptions {
        cycles,
        until_done: input.until_done.clone(),
    }
}

/// A report's context value `key` as a number (0 when absent).
fn context_u64(report: &Report, key: &str) -> u64 {
    report
        .blocks()
        .iter()
        .find_map(|b| match b {
            Block::Context { key: k, value } if k == key => value.parse().ok(),
            _ => None,
        })
        .unwrap_or(0)
}

/// Renders `input` directly: the reference the timed outputs must equal.
fn reference(input: &RunInput) -> Result<(Report, String), String> {
    let report = scenario_report(&input.text, &options(input, input.cycles))
        .map_err(|e| format!("{}: {e}", input.name))?;
    let json = report.to_json().to_compact();
    Ok((report, json))
}

/// Runs one closed-loop workload over the inputs `make` generates.
pub fn run(ctx: &Ctx, make: fn(u64) -> Result<Vec<RunInput>, String>) -> Result<Outcome, String> {
    let tr = &*ctx.tracer;
    let mut out = Outcome::default();

    // Set-up: generate the inputs and warm each once at its own horizon.
    let setup = |out: &mut Outcome| -> Result<Vec<RunInput>, String> {
        let t = Instant::now();
        let inputs = make(ctx.seed)?;
        for i in &inputs {
            let r = scenario_report(&i.text, &options(i, i.warm_cycles))
                .map_err(|e| format!("{}: {e}", i.name))?;
            black_box(r.to_json().to_compact());
        }
        out.setup_s.push(t.elapsed().as_secs_f64());
        Ok(inputs)
    };
    let inputs = setup(&mut out)?;
    out.input_fnv = RunInput::hash_all(&inputs);

    // Timed loop, in whole passes over the inputs so that every input
    // weighs the same. Nothing is compared here, only hashed after the
    // clock. Later set-up passes run between operations, off the clock.
    let mut hashes: Vec<Vec<u64>> = vec![Vec::new(); inputs.len()];
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
        if loop_s >= ctx.seconds && k.is_multiple_of(inputs.len() as u64) {
            break;
        }
        let idx = (k % inputs.len() as u64) as usize;
        let input = &inputs[idx];
        let opts = options(input, input.cycles);
        let t = Instant::now();
        let result = tr.span("op.run", None, k, |p| {
            let report = tr.span("runner.scenario_report", p, k, |_| {
                scenario_report(&input.text, &opts)
            })?;
            let json = tr.span("runner.render", p, k, |_| report.to_json().to_compact());
            Ok::<_, fgqos::runner::RunError>((report, json))
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        match result {
            Ok((report, json)) => {
                out.op_ms.push(ms);
                out.units += 1.0;
                out.sim_cycles += context_u64(&report, "simulated_cycles") as f64;
                hashes[idx].push(fnv(json.as_bytes()));
            }
            Err(e) => out.fail(format!("{}: {e}", input.name)),
        }
        k += 1;
    }
    out.loop_s = start.elapsed().as_secs_f64() - paused;

    // Correctness: every timed output equals a fresh direct render, and
    // shipped scenarios pass their own `expect` assertions.
    let mut digest = Fnv::default();
    for (input, seen) in inputs.iter().zip(&hashes) {
        let (report, json) = reference(input)?;
        let want = fnv(json.as_bytes());
        let asserts_failed = matches!(assertion_outcome(&report), Some((_, 1..)));
        for &h in seen {
            if h != want {
                out.fail(format!(
                    "{}: output differs from a direct render",
                    input.name
                ));
            } else if asserts_failed {
                out.fail(format!("{}: an expect assertion failed", input.name));
            }
        }
        digest.str(&json);
    }
    out.digest = digest.get();
    out.detail_samples("run", "ms", &out.op_ms.clone());

    if tr.on() {
        for rep in 0..PROBE_REPEATS {
            for (idx, input) in inputs.iter().enumerate() {
                let op = 1_000_000 + idx as u64;
                tr.span("probe.run", None, op, |p| {
                    sim_probe(
                        tr,
                        p,
                        op,
                        &input.text,
                        input.cycles,
                        input.until_done.as_deref(),
                        &mut out.sim,
                        rep == 0,
                    )
                })?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::per_layer;
    use crate::trace::Tracer;
    use std::sync::Arc;

    #[test]
    fn steady_periodic_leaps_over_most_cycles() {
        let ctx = Ctx {
            seed: 5,
            seconds: 0.05,
            tracer: Arc::new(Tracer::new(true)),
            scratch: std::path::PathBuf::from("."),
        };
        let out = run(&ctx, crate::inputs::steady).unwrap();
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        let layer = per_layer(&ctx.tracer.spans(), &out, 0.0);
        assert!(layer["sim.leap.skip_ratio"] > 0.9, "{layer:?}");
        assert!(layer["sim.leap.leaps"] > 0.0);
        assert!(layer["runner.render_us"] > 0.0 && layer["scenario.parse_us"] > 0.0);
    }
}
