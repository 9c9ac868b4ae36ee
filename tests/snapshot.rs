//! Fork-vs-cold equivalence for the snapshot subsystem.
//!
//! The contract `fgqos-snap` exists to uphold: a Soc captured at a
//! quiesced boundary and forked must be indistinguishable — to the
//! fingerprint bit and to the report byte — from a cold Soc that ran
//! the identical schedule from cycle zero. Every test here builds the
//! same scenario twice, runs one to a quiesced boundary, snapshots and
//! forks it, and requires the fork's continuation to match the cold
//! run's: architectural fingerprint, full statistics (latency
//! histograms included) and the rendered report document. Scenarios
//! mix every gate family, every source family, refresh on/off, shared
//! budget groups, software policy controllers and both execution cores
//! (event calendar and `FGQOS_NAIVE`-style cycle stepping).

use fgqos::baselines::prelude::*;
use fgqos::bench::report::Report;
use fgqos::core::prelude::*;
use fgqos::prelude::*;
use fgqos::sim::axi::{Dir, MasterId};
use fgqos::sim::master::TrafficSource;
use fgqos::sim::snapshot::SocSnapshot;
use fgqos::sim::stats::LatencyStats;
use fgqos::sim::system::Soc;
use fgqos::sim::{ForkCtx, SnapDecodeError, SnapshotBlob};
use fgqos::workloads::prelude::*;
use proptest::prelude::*;

/// Bound for the quiesce search. Every generated workload is bounded
/// (a few hundred transactions per master), so the pipeline always
/// drains well inside this budget; hitting it is a bug, not a flaky
/// scenario.
const QUIESCE_BOUND: u64 = 20_000_000;

/// One randomly drawn master: a gate family, a source family and two
/// free parameters shaping both (same construction as
/// `tests/fast_forward.rs`).
#[derive(Debug, Clone, Copy)]
struct MasterSpec {
    gate_sel: u8,
    src_sel: u8,
    seed: u64,
    p1: u64,
    p2: u64,
}

fn master_specs() -> impl Strategy<Value = Vec<MasterSpec>> {
    prop::collection::vec(
        (0u8..6, 0u8..5, 0u64..1_000, 0u64..10_000, 0u64..10_000).prop_map(
            |(gate_sel, src_sel, seed, p1, p2)| MasterSpec {
                gate_sel,
                src_sel,
                seed,
                p1,
                p2,
            },
        ),
        1..4,
    )
}

fn make_source(i: usize, m: MasterSpec) -> Box<dyn TrafficSource> {
    let base = (i as u64) << 28;
    match m.src_sel {
        0 => {
            let spec = TrafficSpec {
                gap: m.p1 % 64,
                ..TrafficSpec::stream(base, 1 << 20, 256, Dir::Read)
            }
            .with_total(200);
            Box::new(SpecSource::new(spec, m.seed))
        }
        1 => {
            let spec = TrafficSpec::stream(base, 1 << 20, 128, Dir::Read)
                .with_write_ratio(0.3)
                .with_burst(BurstShape {
                    on_cycles: 50 + m.p1 % 200,
                    off_cycles: 1 + m.p2 % 400,
                })
                .with_total(150);
            Box::new(SpecSource::new(spec, m.seed))
        }
        2 => {
            let spec =
                TrafficSpec::latency_sensitive(base, 1 << 20, 64, 10 + m.p1 % 300).with_total(120);
            Box::new(SpecSource::new(spec, m.seed))
        }
        3 => {
            let spec = TrafficSpec {
                gap: m.p1 % 100,
                ..TrafficSpec::stream(base, 1 << 20, 256, Dir::Read)
            }
            .with_total(60);
            let records = TraceSource::from_spec(spec, m.seed, 60).records().to_vec();
            Box::new(TraceSource::with_loops(records, 2))
        }
        _ => {
            let kernel = Kernel::all()[(m.p1 % 6) as usize];
            Box::new(kernel.source(base, 1, m.seed))
        }
    }
}

fn add_master(b: SocBuilder, i: usize, m: MasterSpec) -> SocBuilder {
    let name = format!("m{i}");
    let kind = if m.src_sel == 2 {
        MasterKind::Cpu
    } else {
        MasterKind::Accelerator
    };
    let src = make_source(i, m);
    match m.gate_sel {
        0 => b.master(name, src, kind),
        1 => {
            let (reg, _driver) = TcRegulator::create(RegulatorConfig {
                period_cycles: 128 + (m.p1 % 2_000) as u32,
                budget_bytes: 512 + (m.p2 % 8_000) as u32,
                enabled: true,
                ..RegulatorConfig::default()
            });
            b.gated_master(name, src, kind, reg)
        }
        2 => b.gated_master(
            name,
            src,
            kind,
            MemGuardGate::new(MemGuardConfig {
                tick_cycles: 500 + m.p1 % 4_000,
                budget_bytes: 256 + m.p2 % 4_000,
                irq_latency_cycles: m.p1 % 300,
            }),
        ),
        3 => {
            let slot = 200 + m.p1 % 800;
            let slots = 2 + (m.p2 % 3) as usize;
            let mine = (m.p1 % slots as u64) as usize;
            let guard = m.p2 % (slot / 4);
            b.gated_master(
                name,
                src,
                kind,
                TdmaGate::new(TdmaSchedule::new(slot, slots), vec![mine], guard),
            )
        }
        4 => b.gated_master(
            name,
            src,
            kind,
            OtRegulatorGate::new(OtRegulatorConfig {
                max_outstanding: 1 + (m.p1 % 8) as usize,
                txns_per_period: if m.p2.is_multiple_of(2) {
                    1 + (m.p2 % 6) as u32
                } else {
                    0
                },
                period_cycles: 500 + m.p1 % 2_000,
            }),
        ),
        _ => b.gated_master(
            name,
            src,
            kind,
            LeakyBucketRegulator::new(BucketConfig {
                budget_bytes: 512 + (m.p2 % 4_000) as u32,
                period_cycles: 128 + (m.p1 % 2_000) as u32,
                depth_bytes: 512 + (m.p1 % 4_000) as u32,
                ..BucketConfig::default()
            }),
        ),
    }
}

fn build_soc(specs: &[MasterSpec], refresh: bool, naive: bool) -> Soc {
    let cfg = SocConfig {
        dram: DramConfig {
            t_refi: if refresh {
                DramConfig::default().t_refi
            } else {
                0
            },
            ..DramConfig::default()
        },
        ..SocConfig::default()
    };
    let mut b = SocBuilder::new(cfg);
    for (i, &m) in specs.iter().enumerate() {
        b = add_master(b, i, m);
    }
    let mut soc = b.build();
    soc.set_naive(naive);
    soc
}

/// Full histogram snapshot: count, min, max and every non-empty bucket.
type LatKey = (u64, u64, u64, Vec<(u64, u64)>);

fn lat_key(l: &LatencyStats) -> LatKey {
    (l.count(), l.min(), l.max(), l.nonzero_buckets().collect())
}

type MasterKey = (u64, u64, u64, u64, u64, LatKey, LatKey);
type DramKey = (u64, u64, u64, u64, u64, u64, u64, LatKey);

fn stats_fingerprint(soc: &Soc) -> (Vec<MasterKey>, DramKey) {
    let masters = (0..soc.master_count())
        .map(|i| {
            let st = soc.master_stats(MasterId::new(i));
            (
                st.issued_txns,
                st.completed_txns,
                st.bytes_completed,
                st.gate_stall_cycles,
                st.fifo_stall_cycles,
                lat_key(&st.latency),
                lat_key(&st.service_latency),
            )
        })
        .collect();
    let d = soc.dram_stats();
    let dram = (
        d.bytes_completed,
        d.reads,
        d.writes,
        d.row_hits,
        d.row_misses,
        d.bus_busy_cycles,
        d.refreshes,
        lat_key(&d.queue_wait),
    );
    (masters, dram)
}

/// Renders the Soc's observable outcome as a `fgqos.exp-report`
/// document and returns its compact JSON bytes — the same currency the
/// `fgqos-serve` result cache promises byte-determinism for.
fn report_bytes(soc: &Soc) -> String {
    let mut r = Report::new("snapshot-equivalence");
    r.context("cycle", soc.now());
    r.header(&["master", "txns", "bytes", "bandwidth", "p50", "p99", "max"]);
    for i in 0..soc.master_count() {
        let id = MasterId::new(i);
        let st = soc.master_stats(id);
        r.row(vec![
            format!("m{i}"),
            st.completed_txns.to_string(),
            st.bytes_completed.to_string(),
            format!("{}", soc.master_bandwidth(id)),
            st.latency.percentile(0.50).to_string(),
            st.latency.percentile(0.99).to_string(),
            st.latency.max().to_string(),
        ]);
    }
    let d = soc.dram_stats();
    r.note(format!(
        "dram: {} bytes, {} row hits, {} row misses, {} refreshes",
        d.bytes_completed, d.row_hits, d.row_misses, d.refreshes
    ));
    r.to_json().to_compact()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: for random scenarios and fork points,
    /// `fork(snapshot).run_to(t)` is fingerprint- and report-byte-
    /// identical to a cold run to `t`, under both execution cores.
    #[test]
    fn fork_matches_cold_run_under_both_cores(
        specs in master_specs(),
        refresh in prop::bool::ANY,
        prefix in 2_000u64..40_000,
        extra in 5_000u64..150_000,
    ) {
        for naive in [false, true] {
            let mut warm = build_soc(&specs, refresh, naive);
            warm.run(prefix);
            let tq = warm.quiesce_point(QUIESCE_BOUND);
            prop_assert!(tq.is_some(), "bounded workload failed to quiesce: {specs:?}");
            let snap = warm.snapshot().expect("quiesced soc snapshots");
            prop_assert!(snap.verify());
            prop_assert_eq!(snap.cycle(), tq.unwrap());

            let mut fork = snap.fork();
            prop_assert_eq!(
                fork.fingerprint(), snap.fingerprint(),
                "fork must start bit-identical to the boundary"
            );
            fork.run(extra);

            // The cold run executes the identical schedule from cycle
            // zero, with no snapshot in between.
            let mut cold = build_soc(&specs, refresh, naive);
            cold.run(prefix);
            let tq_cold = cold.quiesce_point(QUIESCE_BOUND);
            prop_assert_eq!(
                tq_cold, tq,
                "quiesced boundary must be deterministic (naive={}) for {:?}", naive, specs
            );
            cold.run(extra);

            prop_assert_eq!(fork.now(), cold.now());
            prop_assert_eq!(
                fork.fingerprint(), cold.fingerprint(),
                "architectural fingerprint diverged (naive={}) for {:?}", naive, specs
            );
            prop_assert_eq!(
                stats_fingerprint(&fork), stats_fingerprint(&cold),
                "statistics diverged (naive={}) for {:?}", naive, specs
            );
            prop_assert_eq!(
                report_bytes(&fork), report_bytes(&cold),
                "report bytes diverged (naive={}) for {:?}", naive, specs
            );
        }
    }

    /// Persistence round-trip: snapshot → serialize → deserialize →
    /// fork runs fingerprint-, statistics- and report-byte-identical to
    /// an in-memory fork, under both execution cores. This is the
    /// property the on-disk warm-boundary store and the serve protocol's
    /// `snapshot` op stand on.
    #[test]
    fn serialized_blob_fork_matches_in_memory_fork(
        specs in master_specs(),
        refresh in prop::bool::ANY,
        prefix in 2_000u64..30_000,
        extra in 5_000u64..100_000,
    ) {
        for naive in [false, true] {
            let mut warm = build_soc(&specs, refresh, naive);
            warm.run(prefix);
            let tq = warm.quiesce_point(QUIESCE_BOUND);
            prop_assert!(tq.is_some(), "bounded workload failed to quiesce: {specs:?}");
            let snap = warm.snapshot().expect("quiesced soc snapshots");

            // Through the wire format and back.
            let encoded = snap.to_blob("generated-soc").encode();
            let blob = SnapshotBlob::decode(&encoded).expect("fresh blob decodes");
            prop_assert_eq!(blob.fingerprint, snap.fingerprint());
            prop_assert_eq!(blob.cycle, snap.cycle().get());
            let restored = SocSnapshot::load_into(build_soc(&specs, refresh, naive), &blob)
                .expect("state stream loads into an identically built skeleton");
            prop_assert_eq!(restored.fingerprint(), snap.fingerprint());

            let mut mem_fork = snap.fork();
            let mut blob_fork = restored.fork();
            mem_fork.run(extra);
            blob_fork.run(extra);
            prop_assert_eq!(
                blob_fork.fingerprint(), mem_fork.fingerprint(),
                "deserialized fork diverged (naive={}) for {:?}", naive, specs
            );
            prop_assert_eq!(stats_fingerprint(&blob_fork), stats_fingerprint(&mem_fork));
            prop_assert_eq!(report_bytes(&blob_fork), report_bytes(&mem_fork));
        }
    }

    /// Snapshots cross the core boundary: a snapshot captured under the
    /// event calendar, forked and switched to naive stepping, matches a
    /// cold run that was naive from cycle zero. (The quiesced boundary
    /// is core-independent by construction — this is the proof.)
    #[test]
    fn snapshot_captured_fast_replays_naive(
        specs in master_specs(),
        refresh in prop::bool::ANY,
        prefix in 2_000u64..30_000,
        extra in 5_000u64..100_000,
    ) {
        let mut warm = build_soc(&specs, refresh, false);
        warm.run(prefix);
        let tq = warm.quiesce_point(QUIESCE_BOUND);
        prop_assert!(tq.is_some());
        let snap = warm.snapshot().expect("quiesced");

        let mut fork = snap.fork();
        fork.set_naive(true);
        fork.run(extra);

        let mut cold = build_soc(&specs, refresh, true);
        cold.run(prefix);
        prop_assert_eq!(cold.quiesce_point(QUIESCE_BOUND), tq);
        cold.run(extra);

        // The `naive` flag is part of the fingerprint stream (it is
        // architectural configuration), so compare behaviour via stats
        // and report bytes rather than the raw fingerprint.
        prop_assert_eq!(stats_fingerprint(&fork), stats_fingerprint(&cold));
        prop_assert_eq!(report_bytes(&fork), report_bytes(&cold));
    }

    /// N forks from one snapshot are mutually independent: running one
    /// to a different horizon neither perturbs its siblings nor the
    /// snapshot itself, and each sibling still matches its own cold run.
    #[test]
    fn sibling_forks_are_independent_and_each_matches_cold(
        specs in master_specs(),
        prefix in 2_000u64..30_000,
        extra_a in 5_000u64..80_000,
        extra_b in 5_000u64..80_000,
    ) {
        let mut warm = build_soc(&specs, false, false);
        warm.run(prefix);
        let tq = warm.quiesce_point(QUIESCE_BOUND);
        prop_assert!(tq.is_some());
        let snap = warm.snapshot().expect("quiesced");

        let mut a = snap.fork();
        let mut b = snap.fork();
        a.run(extra_a);
        b.run(extra_b);
        prop_assert!(snap.verify(), "running forks must not mutate the snapshot");

        for (fork, extra) in [(&mut a, extra_a), (&mut b, extra_b)] {
            let mut cold = build_soc(&specs, false, false);
            cold.run(prefix);
            prop_assert_eq!(cold.quiesce_point(QUIESCE_BOUND), tq);
            cold.run(extra);
            prop_assert_eq!(fork.fingerprint(), cold.fingerprint());
            prop_assert_eq!(stats_fingerprint(fork), stats_fingerprint(&cold));
        }
    }
}

/// Builds the closed-loop policy stack *without* the IRQ dispatcher
/// (interrupt dispatchers hold closures and are unforkable by design):
/// a critical reader behind a monitor-only regulator, TC-regulated
/// best-effort streams, and a software policy reprogramming budgets
/// each control period.
fn build_policy_soc(seed: u64, control_period: u64, use_feedback: bool) -> Soc {
    let cfg = SocConfig {
        dram: DramConfig {
            t_refi: 0,
            ..DramConfig::default()
        },
        ..SocConfig::default()
    };
    let (crit_reg, crit_driver) = TcRegulator::create(RegulatorConfig {
        period_cycles: 1_000,
        budget_bytes: u32::MAX,
        enabled: true,
        ..RegulatorConfig::default()
    });
    let crit_spec = TrafficSpec::latency_sensitive(0, 1 << 20, 64, 50 + seed % 200).with_total(150);
    let mut b = SocBuilder::new(cfg).gated_master(
        "critical",
        SpecSource::new(crit_spec, seed),
        MasterKind::Cpu,
        crit_reg,
    );

    let mut be_drivers = Vec::new();
    for i in 0..2u64 {
        let (reg, driver) = TcRegulator::create(RegulatorConfig {
            period_cycles: 1_000,
            budget_bytes: 2_048,
            enabled: true,
            ..RegulatorConfig::default()
        });
        let spec = TrafficSpec::stream((i + 1) << 28, 1 << 20, 256, Dir::Read).with_total(300);
        b = b.gated_master(
            format!("be{i}"),
            SpecSource::new(spec, seed ^ (i + 1)),
            MasterKind::Accelerator,
            reg,
        );
        be_drivers.push(driver);
    }

    if use_feedback {
        b = b.controller(FeedbackController::new(
            crit_driver,
            2_000,
            be_drivers,
            2_048,
            256,
            8_192,
            256,
            control_period,
        ));
    } else {
        b = b.controller(ReclaimPolicy::new(
            crit_driver,
            be_drivers,
            ReclaimConfig {
                critical_reserved: 4_096,
                be_base: 1_024,
                control_period,
                gain: 2,
                busy_threshold: Some(2_048),
            },
        ));
    }
    b.build()
}

/// Software policy controllers fork with their driver handles rebound:
/// the forked policy keeps reprogramming the forked regulators, and the
/// continuation matches a cold run bit-for-bit.
#[test]
fn policy_controllers_fork_matches_cold() {
    for use_feedback in [false, true] {
        let mut warm = build_policy_soc(7, 5_000, use_feedback);
        warm.run(20_000);
        let tq = warm
            .quiesce_point(QUIESCE_BOUND)
            .expect("closed-loop stack quiesces");
        let snap = warm.snapshot().expect("policy controllers are forkable");

        let mut fork = snap.fork();
        fork.run(200_000);

        let mut cold = build_policy_soc(7, 5_000, use_feedback);
        cold.run(20_000);
        assert_eq!(cold.quiesce_point(QUIESCE_BOUND), Some(tq));
        cold.run(200_000);

        assert_eq!(
            fork.fingerprint(),
            cold.fingerprint(),
            "policy fork diverged (feedback={use_feedback})"
        );
        assert_eq!(stats_fingerprint(&fork), stats_fingerprint(&cold));
    }
}

/// A shared budget group's aggregate state is remapped once per fork:
/// both member gates of a fork see the same forked window, and sibling
/// forks never share budget with each other or the snapshot.
#[test]
fn shared_budget_group_forks_preserve_topology() {
    let build = || {
        let cfg = SocConfig {
            dram: DramConfig {
                t_refi: 0,
                ..DramConfig::default()
            },
            ..SocConfig::default()
        };
        let group = SharedRegulator::new(1_000, 4_096);
        let mut b = SocBuilder::new(cfg);
        for i in 0..2u64 {
            let spec = TrafficSpec {
                gap: 40,
                ..TrafficSpec::stream(i << 28, 1 << 20, 256, Dir::Read)
            }
            .with_total(300);
            b = b.gated_master(
                format!("m{i}"),
                SpecSource::new(spec, 11 ^ i),
                MasterKind::Accelerator,
                group.port_gate(),
            );
        }
        b.build()
    };

    let mut warm = build();
    warm.run(15_000);
    let tq = warm
        .quiesce_point(QUIESCE_BOUND)
        .expect("gapped streams drain");
    let snap = warm.snapshot().expect("shared gates are forkable");

    let mut a = snap.fork();
    let mut b = snap.fork();
    a.run(150_000);
    assert!(snap.verify(), "sibling fork consumed the snapshot's budget");
    b.run(150_000);

    let mut cold = build();
    cold.run(15_000);
    assert_eq!(cold.quiesce_point(QUIESCE_BOUND), Some(tq));
    cold.run(150_000);

    // Both forks exhausted the same shared window the same way the cold
    // run did — had the two member gates been remapped to *different*
    // copies of the group state, each would see double the budget.
    assert_eq!(a.fingerprint(), cold.fingerprint());
    assert_eq!(b.fingerprint(), cold.fingerprint());
    assert_eq!(stats_fingerprint(&a), stats_fingerprint(&cold));
}

/// External driver handles rebound through the fork's `ForkCtx` program
/// the fork — and only the fork. This is the seam the warm-start sweep
/// planner uses to apply per-point configurations after forking.
#[test]
fn rebound_driver_programs_fork_without_touching_snapshot() {
    let cfg = SocConfig {
        dram: DramConfig {
            t_refi: 0,
            ..DramConfig::default()
        },
        ..SocConfig::default()
    };
    let (reg, driver) = TcRegulator::create(RegulatorConfig {
        period_cycles: 1_000,
        budget_bytes: 8_192,
        enabled: true,
        ..RegulatorConfig::default()
    });
    let spec = TrafficSpec {
        gap: 30,
        ..TrafficSpec::stream(0, 1 << 20, 256, Dir::Read)
    }
    .with_total(2_000);
    let mut warm = SocBuilder::new(cfg)
        .gated_master(
            "dma",
            SpecSource::new(spec, 3),
            MasterKind::Accelerator,
            reg,
        )
        .build();
    warm.run(20_000);
    warm.quiesce_point(QUIESCE_BOUND).expect("drains");
    let snap = warm.snapshot().expect("quiesced");

    // Fork A: rebind the external driver and throttle hard.
    let mut ctx = ForkCtx::new();
    let mut throttled = snap.fork_with(&mut ctx);
    let fork_driver = driver.forked(&mut ctx);
    fork_driver.set_budget_bytes(256);

    // Fork B: untouched configuration.
    let mut stock = snap.fork();

    // The original register file (alive inside the snapshot) must not
    // have seen the write.
    assert_eq!(driver.budget_bytes(), 8_192);
    assert_eq!(fork_driver.budget_bytes(), 256);
    assert!(snap.verify(), "programming a fork mutated the snapshot");

    throttled.run(300_000);
    stock.run(300_000);
    let id = MasterId::new(0);
    let slow = throttled.master_stats(id).bytes_completed;
    let fast = stock.master_stats(id).bytes_completed;
    assert!(
        slow < fast,
        "throttled fork ({slow} bytes) should trail the stock fork ({fast} bytes)"
    );
}

/// A quiesced snapshot of a small mixed scenario, encoded to blob bytes
/// (shared by the negative-path tests below).
fn encoded_test_blob() -> (SocSnapshot, Vec<u8>, Vec<MasterSpec>) {
    let specs = vec![
        MasterSpec {
            gate_sel: 1,
            src_sel: 0,
            seed: 7,
            p1: 123,
            p2: 456,
        },
        MasterSpec {
            gate_sel: 2,
            src_sel: 1,
            seed: 11,
            p1: 789,
            p2: 321,
        },
    ];
    let mut warm = build_soc(&specs, false, false);
    warm.run(10_000);
    warm.quiesce_point(QUIESCE_BOUND).expect("drains");
    let snap = warm.snapshot().expect("quiesced");
    let encoded = snap.to_blob("negative-path-soc").encode();
    (snap, encoded, specs)
}

/// Truncating a blob at any point must produce a diagnostic decode
/// error — never a panic, never a silent partial load.
#[test]
fn truncated_blobs_fail_with_diagnostics() {
    let (_snap, encoded, _specs) = encoded_test_blob();
    for cut in [0, 1, 7, 8, 16, encoded.len() / 2, encoded.len() - 1] {
        let err =
            SnapshotBlob::decode(&encoded[..cut]).expect_err("truncated blob must not decode");
        assert!(
            !err.to_string().is_empty(),
            "decode error must carry a diagnostic message"
        );
    }
}

/// A single flipped payload byte is caught by the container checksum
/// before any state is interpreted.
#[test]
fn flipped_byte_fails_the_checksum() {
    let (_snap, encoded, _specs) = encoded_test_blob();
    // Flip one byte in the middle of the state stream (well past the
    // header, well before the trailing checksum).
    let mut bad = encoded.clone();
    let mid = encoded.len() / 2;
    bad[mid] ^= 0x40;
    match SnapshotBlob::decode(&bad) {
        Err(SnapDecodeError::ChecksumMismatch { .. }) => {}
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
}

/// An unknown `SNAPSHOT_VERSION` is rejected at load with a version
/// diagnostic (the container still decodes — version negotiation
/// happens at the state layer, so future formats can carry old blobs).
#[test]
fn wrong_snapshot_version_is_rejected_at_load() {
    let (_snap, encoded, specs) = encoded_test_blob();
    let mut blob = SnapshotBlob::decode(&encoded).expect("fresh blob decodes");
    blob.snapshot_version = 999;
    let reencoded = SnapshotBlob::decode(&blob.encode()).expect("container re-encodes");
    match SocSnapshot::load_into(build_soc(&specs, false, false), &reencoded) {
        Err(SnapDecodeError::Version { found: 999, .. }) => {}
        other => panic!("expected a version error, got {other:?}"),
    }
}

/// A blob whose state does not hash back to its recorded fingerprint is
/// rejected end-to-end, even when the container checksum is intact.
#[test]
fn fingerprint_mismatch_is_rejected_at_load() {
    let (_snap, encoded, specs) = encoded_test_blob();
    let mut blob = SnapshotBlob::decode(&encoded).expect("fresh blob decodes");
    blob.fingerprint ^= 1;
    // encode() recomputes the container checksum, so only the
    // fingerprint cross-check can catch this.
    let reencoded = SnapshotBlob::decode(&blob.encode()).expect("container re-encodes");
    match SocSnapshot::load_into(build_soc(&specs, false, false), &reencoded) {
        Err(SnapDecodeError::FingerprintMismatch { .. }) => {}
        other => panic!("expected a fingerprint mismatch, got {other:?}"),
    }
}

/// Loading a valid blob into a *differently built* skeleton fails with
/// a diagnostic instead of silently producing a frankenstate.
#[test]
fn blob_refuses_a_mismatched_skeleton() {
    let (_snap, encoded, mut specs) = encoded_test_blob();
    let blob = SnapshotBlob::decode(&encoded).expect("decodes");
    specs[0].gate_sel = 3; // different gate family than the capture
    let err = SocSnapshot::load_into(build_soc(&specs, false, false), &blob)
        .expect_err("mismatched skeleton must be rejected");
    assert!(!err.to_string().is_empty());
}

// ---------------------------------------------------------------------
// Stream golden: the exact bytes and typed field map of every component
// ---------------------------------------------------------------------

/// Cycle every stream-golden source is recorded at.
const GOLDEN_CYCLE: u64 = 50_000;
/// Bound of the quiesce search after [`GOLDEN_CYCLE`]; sources whose
/// traffic never drains within it pin no quiesced boundary.
const GOLDEN_QUIESCE_BOUND: u64 = 200_000;

fn scenario_path(name: &str) -> String {
    format!("{}/scenarios/{name}.fgq", env!("CARGO_MANIFEST_DIR"))
}

fn build_shipped(name: &str) -> Soc {
    let text = fgqos::scenario::load_scenario_text(&scenario_path(name)).expect("scenario loads");
    fgqos::scenario::ScenarioSpec::parse(&text)
        .expect("scenario parses")
        .build()
        .0
}

const SHIPPED: [&str; 9] = [
    "controller-crash",
    "demo",
    "kernels",
    "matrix-base",
    "matrix-tight",
    "ramp",
    "refresh-storm",
    "regulator-dropout",
    "rogue-dma",
];

/// Every loadable component no shipped scenario reaches: the baseline
/// gates, the leaky bucket, trace and sequential sources, both policy
/// controllers bound to TC-regulated ports, and per-window byte and
/// latency recorders.
fn build_component_soc() -> Soc {
    let mut b = SocBuilder::new(SocConfig::default())
        .record_windows_with_latency(5_000)
        .gated_master(
            "memguard",
            SequentialSource::reads(0, 256, 400).with_gap(300),
            MasterKind::Accelerator,
            MemGuardGate::new(MemGuardConfig {
                tick_cycles: 2_000,
                budget_bytes: 2_048,
                irq_latency_cycles: 40,
            }),
        )
        .gated_master(
            "tdma",
            TraceSource::with_loops(
                TraceSource::from_spec(
                    TrafficSpec {
                        gap: 150,
                        ..TrafficSpec::stream(1 << 28, 1 << 20, 256, Dir::Write)
                    }
                    .with_total(40),
                    5,
                    40,
                )
                .records()
                .to_vec(),
                3,
            ),
            MasterKind::Accelerator,
            TdmaGate::new(TdmaSchedule::new(500, 3), vec![1], 20),
        )
        .gated_master(
            "ot",
            SequentialSource::writes(2 << 28, 512, 300).with_gap(200),
            MasterKind::Accelerator,
            OtRegulatorGate::new(OtRegulatorConfig {
                max_outstanding: 2,
                txns_per_period: 3,
                period_cycles: 1_500,
            }),
        )
        .gated_master(
            "bucket",
            SequentialSource::reads(3 << 28, 128, 500)
                .with_think_time(90)
                .with_footprint(64 << 10),
            MasterKind::Cpu,
            LeakyBucketRegulator::new(BucketConfig {
                budget_bytes: 1_024,
                period_cycles: 700,
                depth_bytes: 2_048,
                ..BucketConfig::default()
            }),
        );
    let mut drivers = Vec::new();
    for (i, name) in ["critical", "be"].into_iter().enumerate() {
        let (reg, driver) = TcRegulator::create(RegulatorConfig {
            period_cycles: 1_000,
            budget_bytes: 4_096,
            enabled: true,
            ..RegulatorConfig::default()
        });
        let spec = TrafficSpec {
            gap: 120,
            ..TrafficSpec::stream((4 + i as u64) << 28, 1 << 20, 256, Dir::Read)
        }
        .with_total(300);
        b = b.gated_master(
            name,
            SpecSource::new(spec, 17 + i as u64),
            MasterKind::Accelerator,
            reg,
        );
        drivers.push(driver);
    }
    b.controller(StaticPartition::new(vec![PortBudget {
        driver: drivers[1].clone(),
        period_cycles: 1_000,
        budget_bytes: 3_072,
    }]))
    .controller(FeedbackController::new(
        drivers[0].clone(),
        1_000,
        vec![drivers[1].clone()],
        2_048,
        256,
        8_192,
        256,
        5_000,
    ))
    .build()
}

/// A shared-budget group: its gates write state but refuse to load.
fn build_shared_budget_soc() -> Soc {
    let group = SharedRegulator::new(1_000, 4_096);
    let mut b = SocBuilder::new(SocConfig::default());
    for i in 0..2u64 {
        b = b.gated_master(
            format!("shared{i}"),
            SequentialSource::reads(i << 28, 256, 300).with_gap(150),
            MasterKind::Accelerator,
            group.port_gate(),
        );
    }
    b.build()
}

/// A cached CPU: its source writes state but refuses to load.
fn build_cached_soc() -> Soc {
    SocBuilder::new(SocConfig::default())
        .master(
            "cached",
            CachedSource::new(
                SequentialSource::reads(2 << 28, 64, 2_000)
                    .with_gap(20)
                    .with_footprint(256 << 10),
                CacheConfig::default(),
            ),
            MasterKind::Cpu,
        )
        .build()
}

/// `(stream length, stream hash, field-map hash)` of a typed record.
fn stream_pins(record: &fgqos::sim::TypedSnapshot) -> (usize, String, String) {
    let mut map = Vec::with_capacity(record.fields.len() * 17);
    for f in &record.fields {
        map.push(f.kind as u8);
        map.extend_from_slice(&(f.offset as u64).to_le_bytes());
        map.extend_from_slice(&(f.len as u64).to_le_bytes());
    }
    (
        record.bytes.len(),
        SnapshotBlob::content_key(&record.bytes),
        SnapshotBlob::content_key(&map),
    )
}

/// One golden line: the stream at [`GOLDEN_CYCLE`], then — when the
/// source drains — the stream at its quiesced boundary and the outcome
/// of loading that stream into a fresh skeleton.
fn stream_golden_entry(name: &str, build: &dyn Fn() -> Soc) -> String {
    let mut soc = build();
    soc.run(GOLDEN_CYCLE);
    let (len, stream, fields) = stream_pins(&soc.typed_state());
    let mut line = format!(
        "  {name:?}: {{\"cycle\": {GOLDEN_CYCLE}, \"len\": {len}, \"stream\": \"{stream}\", \
         \"fields\": \"{fields}\""
    );
    let Some(at) = soc.quiesce_point(GOLDEN_QUIESCE_BOUND) else {
        return line + "}";
    };
    let record = soc.typed_state();
    let (len, stream, fields) = stream_pins(&record);
    let mut skeleton = build();
    let load = match skeleton.load_state(&record.bytes) {
        Ok(()) => {
            let again = skeleton.typed_state();
            assert_eq!(
                again.bytes, record.bytes,
                "{name}: loaded state re-records different bytes"
            );
            assert_eq!(
                again.fields, record.fields,
                "{name}: loaded state re-records a different field map"
            );
            "roundtrip".to_string()
        }
        Err(SnapDecodeError::Unsupported { component }) => format!("unsupported {component}"),
        Err(e) => panic!("{name}: stream refused by its own skeleton: {e}"),
    };
    line += &format!(
        ", \"quiesced\": {{\"cycle\": {}, \"len\": {len}, \"stream\": \"{stream}\", \
         \"fields\": \"{fields}\", \"load\": \"{load}\"}}}}",
        at.get()
    );
    line
}

/// Pins the exact snapshot stream of every shipped scenario and of
/// builder-made SoCs carrying the components no scenario reaches: its
/// length, its FNV-1a hash and the hash of its typed field map (kind,
/// offset and length of every cycle and counter span). Where the
/// source drains to a quiesced boundary, the stream there must also
/// load into a fresh skeleton and re-record byte for byte (or be
/// refused as unsupported, which is pinned too). Regenerate with
/// `FGQOS_BLESS=1 cargo test --test snapshot` only after an intentional
/// stream change, which also bumps `SNAPSHOT_VERSION`.
#[test]
fn snapshot_streams_match_golden() {
    let mut entries: Vec<String> = SHIPPED
        .iter()
        .map(|&name| stream_golden_entry(name, &|| build_shipped(name)))
        .collect();
    entries.push(stream_golden_entry(
        "builder-components",
        &build_component_soc,
    ));
    entries.push(stream_golden_entry(
        "builder-shared-budget",
        &build_shared_budget_soc,
    ));
    entries.push(stream_golden_entry("builder-cached", &build_cached_soc));
    let actual = format!("{{\n{}\n}}\n", entries.join(",\n"));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("snapshot_streams.json");
    if std::env::var_os("FGQOS_BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
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
        "snapshot streams drifted; rerun with FGQOS_BLESS=1 and review the diff"
    );
}
