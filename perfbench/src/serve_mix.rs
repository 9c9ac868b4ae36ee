//! `serve_mix`: one in-process server with two worker lanes on
//! loopback, and two client connections in a closed loop.
//!
//! Connection A repeats a cycle: a cold `submit` of unique text, the
//! same text again (a cache hit), then a pair of 8-point warm-start
//! `submit_batch` slices of one scenario with disjoint budgets. The batch
//! executor files warm boundaries in a blob store, so the first slice
//! encodes the boundary and the second decodes and loads it. Connection
//! B runs unpaced live subscriptions back to back and drains every
//! frame. The primary operation is A's cold round trip.

use crate::inputs::{serve_batch, serve_cold, serve_hash, serve_live, BATCH_WARMUP, SERVE_CYCLES};
use crate::layers::{sim_probe, snap_probe};
use crate::stats::{fnv, median, Fnv};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, SETUP_REPEATS};
use fgqos::runner::{
    batch_reports, scenario_report, serve_batch_executor_with_store, serve_executor,
    serve_live_executor, warm_boundary_key, RunOptions,
};
use fgqos::scenario::ScenarioSpec;
use fgqos::serve::client::{Client, SubmitOptions};
use fgqos::serve::protocol::{BatchSpec, JobSpec, LiveSpec, MetricsFormat};
use fgqos::serve::server::{start_live, ServeConfig, ServerHandle};
use fgqos::serve::{unsupported_snapshot_executor, BatchExecutor, Executor};
use fgqos::sim::json::Value;
use fgqos::sim::BlobStore;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker lanes of the server.
const LANES: usize = 2;
/// How long a client waits for one report before counting a timeout.
const WAIT: Duration = Duration::from_secs(60);
/// Index of the set-up warm-up job, beyond any cycle a run reaches.
const WARM_K: u64 = 1 << 30;
/// Leading cycles whose inputs feed the input hash and output digest.
const DIGEST_CYCLES: u64 = 4;
/// Leading cycles whose inputs the traced run probes layer by layer.
const PROBE_CYCLES: u64 = 4;
/// Cycles of connection A after which `peak_rss_mb` is read. The
/// server's result cache never evicts, so its resident set grows with
/// the jobs served; reading it at a fixed amount of work keeps a faster
/// server from reading as a regression.
const RSS_CYCLES: u64 = 150;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Operation id of batch slice `slice` of a scenario.
fn batch_op(scenario: &str, slice: u64) -> u64 {
    fnv(scenario.as_bytes()) ^ slice
}

/// A served report document's context value `key` (0 when absent).
fn context(report: &Value, key: &str) -> u64 {
    report
        .get("blocks")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .find(|b| b.get("key").and_then(Value::as_str) == Some(key))
        .and_then(|b| b.get("value").and_then(Value::as_str))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Starts the server with executors wrapped in `serve.exec` spans.
fn start(tracer: &Arc<Tracer>, blob_dir: &Path) -> Result<ServerHandle, String> {
    let (tr, inner) = (tracer.clone(), serve_executor());
    let exec: Executor = Arc::new(move |job: &JobSpec| {
        tr.span("serve.exec", None, fnv(job.scenario.as_bytes()), |_| {
            inner(job)
        })
    });
    let (tr, inner) = (tracer.clone(), serve_batch_executor_with_store(blob_dir));
    let batch: BatchExecutor = Arc::new(move |spec: &BatchSpec| {
        let slice = u64::from(spec.points.first().is_some_and(|p| p.budget > 512));
        tr.span(
            "serve.exec_batch",
            None,
            batch_op(&spec.scenario, slice),
            |_| inner(spec),
        )
    });
    let cfg = ServeConfig {
        threads: LANES,
        ..ServeConfig::default()
    };
    start_live(
        cfg,
        exec,
        batch,
        unsupported_snapshot_executor(),
        serve_live_executor(),
    )
    .map_err(|e| format!("serve: start: {e}"))
}

fn stop(mut client: Client, handle: ServerHandle) -> Result<(), String> {
    client
        .shutdown()
        .map_err(|e| format!("serve: shutdown: {e}"))?;
    handle.join();
    Ok(())
}

/// FNV-1a hashes of a cycle's served cold and cached reports (compact
/// JSON); hashes keep the benchmark's own memory flat.
type ColdServed = (u64, Option<u64>, Option<u64>);
/// Hashes of a cycle's served point reports for one slice.
type BatchServed = (u64, usize, Vec<u64>);

fn hash_report(report: &Value) -> u64 {
    fnv(report.to_compact().as_bytes())
}

/// What connection A saw.
#[derive(Default)]
struct SideA {
    cold_ms: Vec<f64>,
    cached_ms: Vec<f64>,
    batch_ms: Vec<f64>,
    jobs: f64,
    sim_cycles: f64,
    cold: Vec<ColdServed>,
    batches: Vec<BatchServed>,
    max_queue_depth: f64,
    rss_mb: Option<f64>,
}

/// What connection B saw.
#[derive(Default)]
struct SideB {
    runs: u64,
    frames: f64,
    dropped: f64,
    live_s: f64,
    gaps_us: Vec<f64>,
    sim_cycles: f64,
}

fn metric(doc: &Value, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get("metrics"))
        .and_then(|m| m.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn side_a(a: &mut Client, ctx: &Ctx, start: Instant, out: &mut Outcome) -> SideA {
    let tr = &*ctx.tracer;
    let opts = SubmitOptions::default();
    let mut s = SideA::default();
    let mut k = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let text = serve_cold(ctx.seed, k);
        let op = fnv(text.as_bytes());
        let mut served = (None, None);
        for (cached, name) in [(false, "op.cold"), (true, "op.cached")] {
            let t = Instant::now();
            let got = tr.span(name, None, op, |_| {
                let ack = a.submit(&text, SERVE_CYCLES, &opts)?;
                Ok::<_, fgqos::serve::client::ClientError>((ack, a.wait_report(ack.job, WAIT)?))
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            match got {
                Ok((ack, _)) if ack.cached != cached => out.fail(format!(
                    "cycle {k}: expected cached={cached}, got {}",
                    ack.cached
                )),
                Ok((_, report)) => {
                    s.jobs += 1.0;
                    if cached {
                        s.cached_ms.push(ms);
                        served.1 = Some(hash_report(&report));
                    } else {
                        s.cold_ms.push(ms);
                        s.sim_cycles += context(&report, "simulated_cycles") as f64;
                        served.0 = Some(hash_report(&report));
                    }
                }
                Err(e) => out.fail(format!("cycle {k} {name}: {e}")),
            }
        }
        s.cold.push((k, served.0, served.1));

        for (slice, spec) in serve_batch(ctx.seed, k).iter().enumerate() {
            let t = Instant::now();
            let got = tr.span(
                "op.batch",
                None,
                batch_op(&spec.scenario, slice as u64),
                |_| {
                    let ack = a.submit_batch(spec, &opts)?;
                    ack.jobs
                        .iter()
                        .map(|&job| a.wait_report(job, WAIT))
                        .collect::<Result<Vec<_>, _>>()
                        .map(|r| (ack, r))
                },
            );
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            match got {
                Ok((ack, _)) if ack.cached.iter().any(|&c| c) => out.fail(format!(
                    "cycle {k} slice {slice}: a fresh point came from the cache"
                )),
                Ok((_, reports)) => {
                    s.batch_ms.push(ms);
                    s.jobs += reports.len() as f64;
                    for r in &reports {
                        s.sim_cycles += context(r, "simulated_cycles")
                            .saturating_sub(context(r, "boundary"))
                            as f64;
                    }
                    s.batches
                        .push((k, slice, reports.iter().map(hash_report).collect()));
                }
                Err(e) => out.fail(format!("cycle {k} slice {slice}: {e}")),
            }
        }

        if tr.on() {
            if let Err(e) = tr.span("serve.ping", None, k, |_| a.ping()) {
                out.fail(format!("ping: {e}"));
            }
            if let Ok(doc) = a.metrics(MetricsFormat::Json) {
                s.max_queue_depth = s.max_queue_depth.max(metric(&doc, "serve.queue_depth"));
            }
        }
        k += 1;
        if k == RSS_CYCLES {
            s.rss_mb = Some(crate::peak_rss_mb());
        }
    }
    s
}

/// Starts one live run on `b` and drains its stream: frames received,
/// gaps between them (µs) and the end-of-stream object.
fn live_run(b: &mut Client, spec: &LiveSpec) -> Result<(u64, Vec<f64>, Value), String> {
    b.subscribe(spec, None).map_err(err)?;
    let (mut frames, mut last, mut gaps) = (0u64, None::<Instant>, Vec::new());
    loop {
        let f = b.next_live_frame().map_err(err)?;
        match f.get("stream").and_then(Value::as_str) {
            Some("frame") => {
                frames += 1;
                let now = Instant::now();
                if let Some(prev) = last {
                    gaps.push((now - prev).as_secs_f64() * 1e6);
                }
                last = Some(now);
            }
            Some("end") => return Ok((frames, gaps, f)),
            other => return Err(format!("unexpected stream object {other:?}")),
        }
    }
}

fn side_b(b: &mut Client, ctx: &Ctx, start: Instant) -> (SideB, u64, Vec<String>) {
    let mut s = SideB::default();
    let mut failures = Vec::new();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let spec = serve_live(ctx.seed, s.runs);
        let t = Instant::now();
        let got = live_run(b, &spec);
        s.live_s += t.elapsed().as_secs_f64();
        s.runs += 1;
        match got {
            Ok((frames, gaps, end)) => {
                let num = |k| end.get(k).and_then(Value::as_u64).unwrap_or(0);
                let state = end.get("state").and_then(Value::as_str);
                if state != Some("done") || frames + num("dropped") != num("frames") || frames == 0
                {
                    failures.push(format!(
                        "live run {}: state {state:?}, {frames} frames received of {} ({} dropped)",
                        s.runs,
                        num("frames"),
                        num("dropped")
                    ));
                }
                s.frames += frames as f64;
                s.dropped += num("dropped") as f64;
                s.gaps_us.extend(gaps);
                s.sim_cycles += spec.cycles as f64;
            }
            Err(e) => failures.push(format!("live run {}: {e}", s.runs)),
        }
    }
    let runs = s.runs;
    (s, runs, failures)
}

/// Counts a failed operation for each served report (cold, then
/// cached, by hash) that is not byte-identical to the direct render
/// `want`.
fn check_served(out: &mut Outcome, k: u64, served: [Option<u64>; 2], want: &str) {
    let want = fnv(want.as_bytes());
    for (what, got) in ["cold", "cached"].into_iter().zip(served) {
        if got.is_some_and(|g| g != want) {
            out.fail(format!(
                "cycle {k}: served {what} report differs from a direct render"
            ));
        }
    }
}

fn direct_cold(seed: u64, k: u64) -> Result<String, String> {
    let opts = RunOptions {
        cycles: SERVE_CYCLES,
        until_done: None,
    };
    Ok(scenario_report(&serve_cold(seed, k), &opts)
        .map_err(err)?
        .to_json()
        .to_compact())
}

fn direct_batch(spec: &BatchSpec) -> Result<Vec<String>, String> {
    Ok(batch_reports(spec)
        .map_err(err)?
        .iter()
        .map(|r| r.to_json().to_compact())
        .collect())
}

fn warm_up(a: &mut Client, b: &mut Client, seed: u64) -> Result<(), String> {
    let opts = SubmitOptions::default();
    let text = serve_cold(seed, WARM_K);
    for _ in 0..2 {
        a.submit_and_wait(&text, SERVE_CYCLES, &opts, WAIT)
            .map_err(err)?;
    }
    for spec in serve_batch(seed, WARM_K) {
        for job in a.submit_batch(&spec, &opts).map_err(err)?.jobs {
            a.wait_report(job, WAIT).map_err(err)?;
        }
    }
    live_run(b, &serve_live(seed, 0)).map(|_| ())
}

/// Re-renders every served report directly and compares bytes. Returns
/// the mismatches and the number of second slices that found no warm
/// boundary to load.
fn verify(
    seed: u64,
    cold: &[ColdServed],
    batches: &[BatchServed],
    store: &BlobStore,
) -> Result<(Outcome, u64), String> {
    let mut out = Outcome::default();
    let mut misses = 0;
    for (k, cold, cached) in cold {
        let want = direct_cold(seed, *k)?;
        check_served(&mut out, *k, [*cold, *cached], &want);
    }
    for (k, slice, served) in batches {
        let spec = &serve_batch(seed, *k)[*slice];
        let want: Vec<u64> = direct_batch(spec)?
            .iter()
            .map(|r| fnv(r.as_bytes()))
            .collect();
        if want != *served {
            out.fail(format!(
                "cycle {k} slice {slice}: served points differ from a direct render"
            ));
        }
        let naive = ScenarioSpec::parse(&spec.scenario)
            .map_err(err)?
            .build()
            .0
            .is_naive();
        let key = warm_boundary_key(&spec.scenario, BATCH_WARMUP, naive);
        if *slice == 1 && !matches!(store.get_named(&key), Ok(Some(_))) {
            misses += 1;
        }
    }
    Ok((out, misses))
}

/// Runs the `serve_mix` workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: start the server, connect both clients, and warm each
    // path once: cold, cached, a batch pair and a live run. Four passes
    // run before the session (the last one serves it) and the rest
    // after it, so `setup_s` samples the host at two moments.
    let setup =
        |out: &mut Outcome, pass: usize| -> Result<(ServerHandle, Client, Client), String> {
            let t = Instant::now();
            let handle = start(&ctx.tracer, &ctx.scratch.join(format!("blobs-{pass}")))?;
            let mut a = Client::connect(handle.addr()).map_err(err)?;
            let mut b = Client::connect(handle.addr()).map_err(err)?;
            warm_up(&mut a, &mut b, ctx.seed).map_err(|e| format!("serve: warm-up: {e}"))?;
            out.setup_s.push(t.elapsed().as_secs_f64());
            Ok((handle, a, b))
        };
    let before = SETUP_REPEATS.div_ceil(2);
    for pass in 1..before {
        let (handle, a, b) = setup(&mut out, pass)?;
        drop(b);
        stop(a, handle)?;
    }
    let blob_dir = ctx.scratch.join(format!("blobs-{before}"));
    let (handle, mut a, mut b) = setup(&mut out, before)?;
    out.input_fnv = serve_hash(ctx.seed, DIGEST_CYCLES);

    let start = Instant::now();
    let (sa, (sb, live_runs, live_failures)) = std::thread::scope(|scope| {
        let b_side = scope.spawn(|| side_b(&mut b, ctx, start));
        let sa = side_a(&mut a, ctx, start, &mut out);
        (sa, b_side.join().expect("connection B thread panicked"))
    });
    out.loop_s = start.elapsed().as_secs_f64();
    out.attempted += live_runs;
    for f in live_failures {
        out.fail(f);
    }
    let final_metrics = a.metrics(MetricsFormat::Json).map_err(err)?;
    drop(b);
    stop(a, handle)?;
    for pass in before + 1..=SETUP_REPEATS {
        let (handle, a, b) = setup(&mut out, pass)?;
        drop(b);
        stop(a, handle)?;
    }

    // Correctness: every served report equals the direct render, checked
    // on two threads.
    let store = BlobStore::open(&blob_dir).map_err(err)?;
    let (c, b) = (sa.cold.len().div_ceil(2), sa.batches.len().div_ceil(2));
    let halves = std::thread::scope(|scope| {
        let first = scope.spawn(|| verify(ctx.seed, &sa.cold[..c], &sa.batches[..b], &store));
        let second = verify(ctx.seed, &sa.cold[c..], &sa.batches[b..], &store);
        [first.join().expect("verification thread panicked"), second]
    });
    let mut blob_misses = 0;
    for half in halves {
        let (checked, misses) = half?;
        out.absorb_failures(checked);
        blob_misses += misses;
    }
    let mut digest = Fnv::default();
    for k in 0..DIGEST_CYCLES {
        digest.str(&direct_cold(ctx.seed, k)?);
        for spec in serve_batch(ctx.seed, k) {
            for r in direct_batch(&spec)? {
                digest.str(&r);
            }
        }
    }
    out.digest = digest.get();

    out.op_ms = sa.cold_ms.clone();
    out.peak_rss_mb = sa.rss_mb;
    out.units = sa.jobs;
    out.sim_cycles = sa.sim_cycles;
    out.detail_samples("cold", "ms", &sa.cold_ms);
    out.detail_samples("cached", "ms", &sa.cached_ms);
    out.detail_samples("batch", "ms", &sa.batch_ms);
    out.detail_value("jobs_per_s", "1/s", sa.jobs / out.loop_s);
    out.detail_value("live_frames_per_s", "1/s", sb.frames / sb.live_s.max(1e-9));
    out.detail_value(
        "live_mcycles_per_s",
        "Mcycles/s",
        sb.sim_cycles / 1e6 / sb.live_s.max(1e-9),
    );
    out.detail_value("batch_blob_misses", "count", blob_misses as f64);

    let tr = &*ctx.tracer;
    if tr.on() {
        let spans = tr.spans();
        let mut exec: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == "serve.exec") {
            exec.insert(s.op, s.dur_ns() as f64 / 1e6);
        }
        let waits: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "op.cold")
            .filter_map(|s| exec.get(&s.op).map(|e| s.dur_ns() as f64 / 1e6 - e))
            .collect();
        let mut blob_bytes = Vec::new();
        for k in 0..PROBE_CYCLES {
            let text = serve_cold(ctx.seed, k);
            let op = fnv(text.as_bytes());
            tr.span("probe.cold", None, op, |p| {
                sim_probe(tr, p, op, &text, SERVE_CYCLES, None, &mut out.sim, true)
            })?;
            let spec = &serve_batch(ctx.seed, k)[0];
            let (op, decode_op) = (batch_op(&spec.scenario, 0), batch_op(&spec.scenario, 1));
            let bytes = tr.span("probe.batch", None, op, |p| {
                snap_probe(
                    tr,
                    p,
                    op,
                    decode_op,
                    &spec.scenario,
                    BATCH_WARMUP,
                    None,
                    &mut out.sim,
                )
            })?;
            blob_bytes.push(bytes as f64);
        }
        out.layer.insert("serve.wait_ms", median(&waits));
        out.layer.insert("snap.blob_bytes", median(&blob_bytes));
        for name in ["serve.cache.hit_rate", "serve.workers.busy_ratio"] {
            out.layer.insert(name, metric(&final_metrics, name));
        }
        out.layer.insert("serve.queue_depth", sa.max_queue_depth);
        out.layer.insert("live.frames", sb.frames);
        out.layer.insert("live.dropped", sb.dropped);
        out.layer.insert("live.frame_gap_us", median(&sb.gaps_us));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_check_catches_one_flipped_byte() {
        let want = direct_cold(3, 0).unwrap();
        let mut bytes = want.clone().into_bytes();
        let i = bytes.iter().rposition(u8::is_ascii_digit).unwrap();
        bytes[i] = if bytes[i] == b'0' { b'1' } else { b'0' };
        let flipped = String::from_utf8(bytes).unwrap();

        let (good, bad) = (fnv(want.as_bytes()), fnv(flipped.as_bytes()));
        let mut out = Outcome::default();
        check_served(&mut out, 0, [Some(good), Some(good)], &want);
        assert_eq!(out.failed, 0);
        check_served(&mut out, 0, [Some(good), Some(bad)], &want);
        check_served(&mut out, 1, [Some(bad), None], &want);
        assert_eq!(out.failed, 2);
    }

    #[test]
    fn short_traced_session_is_correct_and_walks_every_serve_layer() {
        crate::inputs::tests::at_repo_root();
        let scratch =
            std::path::PathBuf::from(format!(".bench_tmp/test-serve-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let tracer = Arc::new(Tracer::new(true));
        let ctx = Ctx {
            seed: 11,
            seconds: 0.3,
            tracer: tracer.clone(),
            scratch: scratch.clone(),
        };
        let out = run(&ctx);
        std::fs::remove_dir_all(&scratch).unwrap();
        let out = out.unwrap();
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert!(out.layer["serve.cache.hit_rate"] > 0.0);
        assert!(out.layer["live.frames"] > 0.0);
        let spans = tracer.spans();
        let decode = spans.iter().find(|s| s.name == "snap.decode").unwrap();
        let second = serve_batch(11, 0)[1].clone();
        assert_eq!(decode.op, batch_op(&second.scenario, 1));
        for name in [
            "serve.exec",
            "serve.exec_batch",
            "serve.ping",
            "op.cold",
            "op.cached",
            "op.batch",
        ] {
            assert!(spans.iter().any(|s| s.name == name), "no {name} span");
        }
    }
}
