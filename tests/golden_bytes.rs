//! Byte goldens for every rendered run output: scenario reports (leap
//! block included), `until_done` + `expect` reports, warm-start batch
//! points, live replay reports, and the CLI's text and `check` stdout.
//!
//! Other tests compare these outputs path against path (served vs
//! direct, live vs replay, fork vs cold) or probe them with `contains`;
//! these pin the exact bytes, so a refactor of the run machinery shows
//! up here if it changes a single character. After an intentional
//! format change, regenerate with
//! `FGQOS_BLESS=1 cargo test --test golden_bytes` and review the diff.

use fgqos::runner::{
    batch_reports, live_replay_report, live_run, scenario_report, LiveOptions, RunOptions,
};
use fgqos::serve::live::{BoundaryCmd, ControlWrite};
use fgqos::serve::protocol::{BatchKind, BatchPoint, BatchSpec, ControlSet};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A scenario whose critical master finishes: exercises `until_done`
/// and `expect` (one directive deliberately fails).
const UNTIL_DONE: &str = "\
clock_mhz 1000
until_done cpu
cycles 400000

[master cpu]
kind cpu
role critical
pattern seq
footprint 1M
txn 256
think 200
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

expect bytes(cpu) > 0
expect isolation(cpu)
expect bytes(dma) > 100G
";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn demo() -> String {
    std::fs::read_to_string(root().join("scenarios/demo.fgq")).expect("demo scenario")
}

fn check_golden(name: &str, actual: &str) {
    let path = root().join("tests/golden").join(name);
    if std::env::var_os("FGQOS_BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with FGQOS_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted; rerun with FGQOS_BLESS=1 and review the diff"
    );
}

fn pretty(report: &fgqos::bench::report::Report) -> String {
    format!("{}\n", report.to_json().to_pretty())
}

#[test]
fn demo_scenario_report_matches_golden() {
    let opts = RunOptions {
        cycles: 200_000,
        until_done: None,
    };
    let report = scenario_report(&demo(), &opts).expect("demo runs");
    check_golden("report_demo.json", &pretty(&report));
}

#[test]
fn until_done_expect_report_matches_golden() {
    let opts = RunOptions {
        cycles: 400_000,
        until_done: Some("cpu".into()),
    };
    let finished = scenario_report(UNTIL_DONE, &opts).expect("runs");
    let opts = RunOptions {
        cycles: 100_000,
        until_done: Some("rogue".into()),
    };
    let unfinished = scenario_report(&demo(), &opts).expect("runs");
    check_golden(
        "report_until_done.json",
        &format!("{}{}", pretty(&finished), pretty(&unfinished)),
    );
}

fn two_points() -> Vec<BatchPoint> {
    vec![
        BatchPoint {
            period: 1_000,
            budget: 512,
        },
        BatchPoint {
            period: 2_000,
            budget: 8_192,
        },
    ]
}

fn slice_doc(reports: &[fgqos::bench::report::Report]) -> String {
    reports.iter().map(pretty).collect()
}

#[test]
fn batch_slice_matches_golden() {
    // Fixed horizon, then `until_done` with the critical master
    // finishing inside the divergent tail.
    let mut spec = BatchSpec {
        scenario: UNTIL_DONE.to_string(),
        cycles: 30_000,
        until_done: None,
        warmup: 20_000,
        points: two_points(),
        kind: BatchKind::Sweep,
    };
    let mut doc = slice_doc(&batch_reports(&spec).expect("runs"));
    spec.until_done = Some("cpu".into());
    spec.cycles = 300_000;
    doc.push_str(&slice_doc(&batch_reports(&spec).expect("runs")));
    check_golden("batch_points.json", &doc);
}

#[test]
fn batch_slice_until_done_matches_golden() {
    let spec = BatchSpec {
        scenario: demo(),
        cycles: 300_000,
        until_done: Some("cpu".into()),
        warmup: 20_000,
        points: two_points(),
        kind: BatchKind::Sweep,
    };
    let reports = batch_reports(&spec).expect("runs");
    check_golden("batch_points_until_done.json", &slice_doc(&reports));
}

/// Two unpaced 4 KiB random engines keep the pipeline saturated: no
/// quiesced boundary opens, so every point replays the schedule cold.
const SATURATED: &str = "\
clock_mhz 1000

[master a]
kind accel
role best-effort
period 1000
budget 8K
pattern random
footprint 16M
txn 4096

[master b]
kind accel
role best-effort
period 1000
budget 8K
pattern random
base 0x40000000
footprint 16M
txn 4096
";

#[test]
fn batch_cold_fallback_matches_golden() {
    let spec = BatchSpec {
        scenario: SATURATED.to_string(),
        cycles: 20_000,
        until_done: None,
        warmup: 10_000,
        points: two_points(),
        kind: BatchKind::Sweep,
    };
    let reports = batch_reports(&spec).expect("runs");
    check_golden("batch_points_cold.json", &slice_doc(&reports));
}

#[test]
fn live_replay_report_matches_golden() {
    let opts = LiveOptions {
        cycles: 60_000,
        window: 10_000,
        naive: None,
        leap: None,
    };
    let outcome = live_run(
        UNTIL_DONE,
        &opts,
        1,
        |b| BoundaryCmd {
            writes: if b.index == 2 {
                vec![ControlWrite {
                    target: "dma".into(),
                    set: ControlSet::Budget(512),
                }]
            } else {
                Vec::new()
            },
            abort: false,
        },
        |_| {},
    )
    .expect("live run");
    let (report, fingerprint) =
        live_replay_report(&outcome.replay_scenario, &opts).expect("replays");
    let doc = format!("fingerprint {fingerprint:016x}\n{}", pretty(&report));
    check_golden("live_replay_report.json", &doc);
}

fn cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fgqos"))
        .args(args)
        .current_dir(root())
        .output()
        .expect("binary runs");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn until_done_file(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fgqos-golden-{tag}-{}.fgq", std::process::id()));
    std::fs::write(&path, UNTIL_DONE).unwrap();
    path
}

#[test]
fn cli_text_stdout_matches_golden() {
    let histogram = cli(&["scenarios/demo.fgq", "--cycles", "200000", "--histogram"]);
    check_golden("cli_demo_histogram.txt", &histogram);
    let file = until_done_file("run");
    let until_done = cli(&[file.to_str().unwrap()]);
    let _ = std::fs::remove_file(&file);
    check_golden("cli_until_done.txt", &until_done);
}

#[test]
fn cli_check_stdout_matches_golden() {
    let file = until_done_file("check");
    let mut out = cli(&["check", "scenarios/rogue-dma.fgq"]);
    out.push_str(
        &cli(&["check", file.to_str().unwrap()]).replace(file.to_str().unwrap(), "<file>"),
    );
    let _ = std::fs::remove_file(&file);
    check_golden("cli_check.txt", &out);
}
