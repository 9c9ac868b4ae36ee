//! Layer probes and the per-layer metrics of the traced run.
//!
//! A probe calls one layer at a time through the library's public entry
//! points, with a span around each call, so each layer is measured on
//! its own on the workload's own inputs. Simulated counters are read
//! only from `Soc::collect_metrics`; a counter the registry does not
//! carry counts as 0.

use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::Outcome;
use fgqos::scenario::ScenarioSpec;
use fgqos::sim::metrics::{MetricValue, MetricsRegistry};
use fgqos::sim::snapshot::SocSnapshot;
use fgqos::sim::{ForkCtx, SnapshotBlob};
use std::collections::BTreeMap;
use std::time::Instant;

/// Slack searched for a quiesced boundary after a warm-up; the batch
/// executor uses the same window.
pub const QUIESCE_SLACK: u64 = 100_000;

/// Every per-layer metric with its unit, as `BENCHMARK.json` declares
/// them. The traced run prints all of them; a layer the workload does
/// not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.parse_us", "us"),
    ("scenario.build_us", "us"),
    ("sim.run_ms", "ms"),
    ("sim.host_ns_per_executed_kcycle", "ns"),
    ("sim.cycles_simulated", "count"),
    ("sim.leap.cycles_skipped", "count"),
    ("sim.leap.leaps", "count"),
    ("sim.leap.skip_ratio", "ratio"),
    ("sim.dram.row_hit_ratio", "ratio"),
    ("sim.dram.bus_busy_cycles", "count"),
    ("sim.dram.refreshes", "count"),
    ("sim.master.gate_stall_cycles", "count"),
    ("runner.render_us", "us"),
    ("snap.quiesce_ms", "ms"),
    ("snap.capture_ms", "ms"),
    ("snap.fork_us", "us"),
    ("snap.encode_us", "us"),
    ("snap.decode_us", "us"),
    ("snap.blob_bytes", "bytes"),
    ("serve.ping_us", "us"),
    ("serve.exec_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.queue_depth", "count"),
    ("serve.workers.busy_ratio", "ratio"),
    ("live.frames", "count"),
    ("live.dropped", "count"),
    ("live.frame_gap_us", "us"),
    ("hunt.evaluations", "count"),
    ("hunt.eval_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.spans", "count"),
];

/// Span names whose median duration is a per-layer metric, with the
/// metric and the nanoseconds per unit.
const SPAN_MEDIANS: &[(&str, &str, f64)] = &[
    ("scenario.parse", "scenario.parse_us", 1e3),
    ("scenario.build", "scenario.build_us", 1e3),
    ("sim.run", "sim.run_ms", 1e6),
    ("runner.render", "runner.render_us", 1e3),
    ("snap.quiesce", "snap.quiesce_ms", 1e6),
    ("snap.capture", "snap.capture_ms", 1e6),
    ("snap.fork", "snap.fork_us", 1e3),
    ("snap.encode", "snap.encode_us", 1e3),
    ("snap.decode", "snap.decode_us", 1e3),
    ("serve.ping", "serve.ping_us", 1e3),
    ("serve.exec", "serve.exec_ms", 1e6),
];

/// Simulated counters summed over the distinct inputs of a run, plus
/// the host time of every probed simulated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimCounters {
    /// `soc.cycle`.
    pub cycles: f64,
    /// `soc.leap.cycles_skipped`.
    pub skipped: f64,
    /// `soc.leap.leaps`.
    pub leaps: f64,
    /// `soc.dram.row_hits`.
    pub row_hits: f64,
    /// `soc.dram.row_misses`.
    pub row_misses: f64,
    /// `soc.dram.bus_busy_cycles`.
    pub bus_busy: f64,
    /// `soc.dram.refreshes`.
    pub refreshes: f64,
    /// Sum of `soc.master.*.gate_stall_cycles`.
    pub gate_stalls: f64,
    /// Host nanoseconds of every probed `sim.run` call.
    pub run_ns: f64,
    /// Executed (simulated minus skipped) cycles of those calls.
    pub run_executed: f64,
}

impl SimCounters {
    fn add(&mut self, reg: &MetricsRegistry) {
        for (name, value) in reg.iter() {
            let x = match value {
                MetricValue::Counter(c) => *c as f64,
                MetricValue::Gauge(g) => *g,
                _ => continue,
            };
            match name {
                "soc.cycle" => self.cycles += x,
                "soc.leap.cycles_skipped" => self.skipped += x,
                "soc.leap.leaps" => self.leaps += x,
                "soc.dram.row_hits" => self.row_hits += x,
                "soc.dram.row_misses" => self.row_misses += x,
                "soc.dram.bus_busy_cycles" => self.bus_busy += x,
                "soc.dram.refreshes" => self.refreshes += x,
                n if n.starts_with("soc.master.") && n.ends_with(".gate_stall_cycles") => {
                    self.gate_stalls += x
                }
                _ => {}
            }
        }
    }

    /// Counters of one finished run; `count` adds the simulated
    /// statistics too (once per distinct input), not only host time.
    fn record(&mut self, reg: &MetricsRegistry, run_ns: u64, count: bool) {
        let counter = |key| match reg.get(key) {
            Some(MetricValue::Counter(c)) => *c as f64,
            _ => 0.0,
        };
        self.run_ns += run_ns as f64;
        self.run_executed += counter("soc.cycle") - counter("soc.leap.cycles_skipped");
        if count {
            self.add(reg);
        }
    }
}

/// Parses, builds and runs `text` with a span around each layer.
#[allow(clippy::too_many_arguments)]
pub fn sim_probe(
    tr: &Tracer,
    parent: Option<u32>,
    op: u64,
    text: &str,
    cycles: u64,
    until_done: Option<&str>,
    sim: &mut SimCounters,
    count: bool,
) -> Result<(), String> {
    let spec = tr
        .span("scenario.parse", parent, op, |_| ScenarioSpec::parse(text))
        .map_err(|e| e.to_string())?;
    let (mut soc, _fabric) = tr.span("scenario.build", parent, op, |_| spec.build());
    let master = match until_done {
        Some(name) => Some(soc.master_id(name).ok_or(format!("no master {name:?}"))?),
        None => None,
    };
    let t = Instant::now();
    tr.span("sim.run", parent, op, |_| match master {
        Some(id) => {
            soc.run_until_done(id, cycles);
        }
        None => soc.run(cycles),
    });
    sim.record(&soc.collect_metrics(), t.elapsed().as_nanos() as u64, count);
    Ok(())
}

/// Warms `text` for `warmup` cycles and walks the snapshot layers:
/// quiesce, capture, fork, encode, and decode plus load into a fresh
/// skeleton (tagged with operation `decode_op`). With `tail`, the fork
/// runs that many cycles as the `sim.run` layer. Returns the encoded
/// blob's size.
#[allow(clippy::too_many_arguments)]
pub fn snap_probe(
    tr: &Tracer,
    parent: Option<u32>,
    op: u64,
    decode_op: u64,
    text: &str,
    warmup: u64,
    tail: Option<u64>,
    sim: &mut SimCounters,
) -> Result<usize, String> {
    let spec = tr
        .span("scenario.parse", parent, op, |_| ScenarioSpec::parse(text))
        .map_err(|e| e.to_string())?;
    let (mut soc, _fabric) = tr.span("scenario.build", parent, op, |_| spec.build());
    tr.span("sim.warm", parent, op, |_| soc.run(warmup));
    tr.span("snap.quiesce", parent, op, |_| {
        soc.quiesce_point(QUIESCE_SLACK)
    })
    .ok_or("no quiesced boundary after the warm-up")?;
    let snap = tr
        .span("snap.capture", parent, op, |_| soc.snapshot())
        .map_err(|e| format!("snapshot: {e}"))?;
    let mut fork = tr.span("snap.fork", parent, op, |_| {
        snap.fork_with(&mut ForkCtx::new())
    });
    if let Some(cycles) = tail {
        let t = Instant::now();
        tr.span("sim.run", parent, op, |_| fork.run(cycles));
        sim.record(&fork.collect_metrics(), t.elapsed().as_nanos() as u64, true);
    }
    let bytes = tr.span("snap.encode", parent, op, |_| snap.to_blob(text).encode());
    tr.span("snap.decode", parent, decode_op, |_| {
        let blob = SnapshotBlob::decode(&bytes).map_err(|e| e.to_string())?;
        let (skeleton, _fabric) = spec.build();
        SocSnapshot::load_into(skeleton, &blob).map_err(|e| e.to_string())
    })
    .map_err(|e| format!("snapshot decode: {e}"))?;
    Ok(bytes.len())
}

/// Every [`PER_LAYER`] metric of a traced run: span medians, the
/// workload's counters and the tracing overhead.
pub fn per_layer(
    spans: &[Span],
    traced: &Outcome,
    overhead_pct: f64,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    for (span, metric, ns_per_unit) in SPAN_MEDIANS {
        let durations: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == *span)
            .map(|s| s.dur_ns() as f64 / ns_per_unit)
            .collect();
        out.insert(metric, median(&durations));
    }
    let s = &traced.sim;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.insert("sim.cycles_simulated", s.cycles);
    out.insert("sim.leap.cycles_skipped", s.skipped);
    out.insert("sim.leap.leaps", s.leaps);
    out.insert("sim.leap.skip_ratio", ratio(s.skipped, s.cycles));
    out.insert(
        "sim.host_ns_per_executed_kcycle",
        ratio(s.run_ns, s.run_executed / 1e3),
    );
    out.insert(
        "sim.dram.row_hit_ratio",
        ratio(s.row_hits, s.row_hits + s.row_misses),
    );
    out.insert("sim.dram.bus_busy_cycles", s.bus_busy);
    out.insert("sim.dram.refreshes", s.refreshes);
    out.insert("sim.master.gate_stall_cycles", s.gate_stalls);
    for (name, value) in &traced.layer {
        out.insert(name, *value);
    }
    out.insert("bench.trace_overhead_pct", overhead_pct);
    out.insert("bench.spans", spans.len() as f64);
    out
}
