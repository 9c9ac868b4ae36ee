//! `perfbench`: the fgqos benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus_long --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). The lines before it give every metric by name and unit
//! with its sample count and quartiles, and the run's provenance.
//! README.md in this directory says what each workload and metric is.

mod hunt_search;
mod inputs;
mod layers;
mod runs;
mod serve_mix;
mod stats;
mod trace;

use layers::SimCounters;
use stats::{median, quartiles, tail, Fnv};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use trace::Tracer;

/// Set-up passes per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;

/// Whether set-up pass number `done` is due once a timed loop of
/// `seconds` has run for `loop_s`. The first pass runs before the loop
/// and the rest at even steps through it, so `setup_s` samples the host
/// at several moments rather than only while the process starts; the
/// host's speed drifts over tens of seconds.
pub fn setup_due(done: usize, loop_s: f64, seconds: f64) -> bool {
    done < SETUP_REPEATS && loop_s >= seconds * done as f64 / SETUP_REPEATS as f64
}

/// Every end-to-end metric with its unit, as `BENCHMARK.json` declares
/// them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_geomean_ms", "ms"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mb", "MB"),
];

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["corpus_long", "steady_periodic", "serve_mix", "hunt_search"];

/// What a workload run gets.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Span recorder (off for end-to-end runs).
    pub tracer: Arc<Tracer>,
    /// Directory for files the run writes; removed afterwards.
    pub scratch: PathBuf,
}

/// A metric the workload reports beside the end-to-end set, under the
/// name the workload's users know it by.
#[derive(Debug, Clone)]
pub struct Detail {
    /// Metric name without percentile or unit suffix.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Latency samples (reported as median and tail), or one value.
    pub samples: Option<Vec<f64>>,
    /// The value, when there are no samples.
    pub value: f64,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Duration of each set-up pass, s.
    pub setup_s: Vec<f64>,
    /// Latency of each completed operation, ms.
    pub op_ms: Vec<f64>,
    /// Work units completed in the timed loop (runs, jobs, candidates).
    pub units: f64,
    /// Wall time of the timed loop, s.
    pub loop_s: f64,
    /// Simulated cycles of the timed loop.
    pub sim_cycles: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, timed out or produced a wrong output.
    pub failed: u64,
    /// The first few failures.
    pub failures: Vec<String>,
    /// Workload-specific metrics.
    pub details: Vec<Detail>,
    /// FNV-1a of the generated inputs.
    pub input_fnv: u64,
    /// FNV-1a over every reference output's bytes.
    pub digest: u64,
    /// Simulated counters and probe host time (traced runs).
    pub sim: SimCounters,
    /// Per-layer values the workload reads itself (traced runs).
    pub layer: BTreeMap<&'static str, f64>,
    /// Peak resident set read at a fixed amount of work, for workloads
    /// whose memory grows with the work done; `None` reads it at the end.
    pub peak_rss_mb: Option<f64>,
}

impl Outcome {
    /// Counts one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }

    /// Counts `other`'s failed operations as this outcome's.
    pub fn absorb_failures(&mut self, other: Outcome) {
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Adds a latency distribution as a detail metric.
    pub fn detail_samples(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        self.details.push(Detail {
            name: name.to_string(),
            unit,
            samples: Some(samples.to_vec()),
            value: 0.0,
        });
    }

    /// Adds a single value as a detail metric.
    pub fn detail_value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.details.push(Detail {
            name: name.to_string(),
            unit,
            samples: None,
            value,
        });
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "corpus_long" => runs::run(ctx, inputs::corpus),
        "steady_periodic" => runs::run(ctx, inputs::steady),
        "serve_mix" => serve_mix::run(ctx),
        "hunt_search" => hunt_search::run(ctx),
        other => Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600]\n{USAGE}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, when it is a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the program's sources, so a result names the code it
/// measured even where the checkout carries no git metadata.
fn source_fnv() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["src", "crates", "shims", "scenarios"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.str(&f.to_string_lossy())
                .u64(bytes.len() as u64)
                .bytes(&bytes);
        }
    }
    h.get()
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `{"median":..,"q1":..,"q3":..,"n":..}` of a sample.
fn summary_json(samples: &[f64]) -> String {
    let (m, q1, q3) = quartiles(samples).unwrap_or_default();
    format!(
        "{{\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
        json_num(m),
        json_num(q1),
        json_num(q3),
        samples.len()
    )
}

/// Prints a latency distribution as `<name>_p50_<unit>` plus its tail
/// percentile, saying when the sample is too small for a p95.
fn print_samples(name: &str, unit: &str, samples: &[f64]) {
    let (m, q1, q3) = quartiles(samples).unwrap_or_default();
    let n = samples.len();
    println!("{name}_p50_{unit} = {m:.4} {unit}  (n={n}, q1={q1:.4}, q3={q3:.4})");
    match tail(samples) {
        Some(t) if t.pct == stats::TAIL_TARGET_PCT => {
            println!(
                "{name}_p95_{unit} = {:.4} {unit}  (n={n}, {} beyond)",
                t.value, t.beyond
            )
        }
        Some(t) => println!(
            "{name}_p95_{unit} = n/a: {n} samples put fewer than 10 beyond p95; \
             p{:.1} = {:.4} {unit} ({} beyond)",
            t.pct, t.value, t.beyond
        ),
        None => println!("{name}_p95_{unit} = n/a: {n} samples, no tail percentile"),
    }
}

/// The typical operation latency: the geometric mean of all operation
/// latencies. Over whole passes every input weighs the same whatever its
/// cost, and unlike a median it moves in proportion as the host's speed
/// drifts between phases, where a median jumps from one phase's level to
/// the other's.
fn geomean_ms(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

fn end_to_end(o: &Outcome) -> BTreeMap<&'static str, f64> {
    let per_s = |x: f64| if o.loop_s > 0.0 { x / o.loop_s } else { 0.0 };
    BTreeMap::from([
        ("setup_s", median(&o.setup_s)),
        ("ops_per_s", per_s(o.units)),
        ("op_geomean_ms", geomean_ms(&o.op_ms)),
        ("sim_mcycles_per_s", per_s(o.sim_cycles / 1e6)),
        ("peak_rss_mb", o.peak_rss_mb.unwrap_or_else(peak_rss_mb)),
    ])
}

fn final_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn report_outcome(o: &Outcome) {
    for d in &o.details {
        match &d.samples {
            Some(s) => print_samples(&d.name, d.unit, s),
            None => println!("{} = {:.4} {}", d.name, d.value, d.unit),
        }
    }
    let rate = if o.attempted > 0 {
        o.failed as f64 / o.attempted as f64
    } else {
        0.0
    };
    println!(
        "error_rate = {rate} ratio  ({} of {} operations)",
        o.failed, o.attempted
    );
    for f in &o.failures {
        println!("failure: {f}");
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = PathBuf::from(format!(
        ".bench_tmp/{}-{}",
        args.workload,
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = |tracer: Arc<Tracer>, seconds: f64| Ctx {
        seed: args.seed,
        seconds,
        tracer,
        scratch: scratch.clone(),
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let result = if args.trace {
        // Untraced and traced halves of the same run: their difference
        // is the tracing overhead.
        run_workload(
            &args.workload,
            &ctx(Arc::new(Tracer::new(false)), args.seconds / 2.0),
        )
        .and_then(|base| {
            let tracer = Arc::new(Tracer::new(true));
            let traced = run_workload(&args.workload, &ctx(tracer.clone(), args.seconds / 2.0))?;
            Ok((base, traced, tracer.spans()))
        })
        .map(|(base, traced, spans)| {
            let overhead = (geomean_ms(&traced.op_ms) / geomean_ms(&base.op_ms) - 1.0) * 100.0;
            (base, Some((traced, spans, overhead)))
        })
    } else {
        run_workload(
            &args.workload,
            &ctx(Arc::new(Tracer::new(false)), args.seconds),
        )
        .map(|o| (o, None))
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let (base, traced) = result?;

    let mut provenance = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"git_rev\":\"{}\",\
         \"source_fnv\":\"{:016x}\",\"nproc\":{nproc},\"setup_repeats\":{},\
         \"input_fnv\":\"{:016x}\",\"output_digest\":\"{:016x}\",\"setup_s\":{},\"op_ms\":{}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        git_rev(),
        source_fnv(),
        SETUP_REPEATS,
        base.input_fnv,
        base.digest,
        summary_json(&base.setup_s),
        summary_json(&base.op_ms),
    );
    report_outcome(&base);

    let (correct, attempted, failed, metrics) = match traced {
        None => {
            let e2e = end_to_end(&base);
            let metrics: Vec<(&str, &str, f64)> =
                END_TO_END.iter().map(|(n, u)| (*n, *u, e2e[n])).collect();
            (base.failed == 0, base.attempted, base.failed, metrics)
        }
        Some((traced, spans, overhead)) => {
            report_outcome(&traced);
            if traced.input_fnv != base.input_fnv || traced.digest != base.digest {
                return Err(
                    "traced and untraced halves measured different inputs or outputs".into(),
                );
            }
            println!("# layer            calls   total_ms    self_ms  median_us");
            for (name, l) in trace::layers(&spans) {
                println!(
                    "# {name:<24} {:>6} {:>10.3} {:>10.3} {:>10.3}",
                    l.count,
                    l.total_ns as f64 / 1e6,
                    l.self_ns as f64 / 1e6,
                    median(&l.durations_ns) / 1e3
                );
            }
            let out_dir = Path::new(".bench_out");
            let spans_file =
                out_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
            std::fs::create_dir_all(out_dir)
                .and_then(|_| std::fs::write(&spans_file, trace::to_json(&spans)))
                .map_err(|e| format!("{}: {e}", spans_file.display()))?;
            println!("# spans written to {}", spans_file.display());
            println!("bench.trace_overhead_pct = {overhead:.2} %  (traced vs untraced op median)");
            let layer = layers::per_layer(&spans, &traced, overhead);
            let metrics: Vec<(&str, &str, f64)> = layers::PER_LAYER
                .iter()
                .map(|(n, u)| (*n, *u, layer[n]))
                .collect();
            let failed = base.failed + traced.failed;
            (
                failed == 0,
                base.attempted + traced.attempted,
                failed,
                metrics,
            )
        }
    };
    for (n, u, v) in &metrics {
        println!("{n} = {v} {u}");
    }
    provenance.push_str(&format!(
        ",\"attempted\":{attempted},\"failed\":{failed},\"correct\":{correct}}}"
    ));
    println!("# provenance {provenance}");
    println!("{}", final_line(correct, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgqos::sim::json::Value;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        doc.get(section)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_declared_in_benchmark_json() {
        assert_eq!(own(END_TO_END), declared("end_to_end"));
        assert_eq!(own(layers::PER_LAYER), declared("per_layer"));
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn final_line_is_one_json_object() {
        let line = final_line(true, 3, 0, &[("a_ms", "ms", 1.25), ("b", "1/s", f64::NAN)]);
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(3));
        let a = v.get("metrics").and_then(|m| m.get("a_ms")).unwrap();
        assert_eq!(a.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(a.get("unit").and_then(Value::as_str), Some("ms"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let a = args("--workload hunt_search --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("hunt_search", 7, 2.5, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload serve_mix --trace 2").is_err());
        assert!(args("--seed 1").is_err());
    }
}
