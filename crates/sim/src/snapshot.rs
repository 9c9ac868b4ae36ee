//! Quiesced-boundary snapshot and deterministic fork of a [`Soc`].
//!
//! A [`SocSnapshot`] captures a Soc at a **quiesced boundary** — no
//! transaction in flight anywhere on the memory path — which is exactly
//! the state from which no calendar, crossbar-FIFO, DRAM-queue or
//! in-service state needs to be serialised: the event calendar is
//! rebuilt from component `next_activity` contracts at every run entry,
//! and an empty transaction arena implies every queue between master and
//! DRAM is drained. What remains is per-component architectural state
//! (sources, gates, bank rows, statistics), which every component knows
//! how to deep-copy (`fork_*`) and walk through a stream (`state`).
//!
//! **One layout.** Each component states its stream layout once, in a
//! `state(&mut self, io: &mut StateIo)` walk ([`fgqos_snap::StateIo`]).
//! `Soc::state` walks the whole machine; [`Soc::fingerprint`] is that
//! walk hashing, [`Soc::typed_state`] recording with the typed field map
//! the leap engine needs, and [`Soc::load_state`] reading into a rebuilt
//! skeleton — so encoder and decoder cannot drift apart.
//!
//! **Fingerprint.** The stream is a byte-stable FNV-1a fold
//! ([`fgqos_snap::StateHasher`]) prefixed by [`SNAPSHOT_VERSION`]. Two
//! Socs with equal fingerprints behave identically for the rest of the
//! run (same future requests, same decisions, same reports); the
//! fork-vs-cold proptest in `tests/snapshot.rs` is the evidence.
//!
//! **Forking.** [`SocSnapshot::fork`] produces an independent Soc that
//! continues from the boundary. Shared handles (regulator register
//! files, aggregate budget state) are remapped through a
//! [`fgqos_snap::ForkCtx`] so sharing topology is preserved; external
//! driver handles can join the same context via
//! [`SocSnapshot::fork_with`] plus the driver-side rebinding helpers
//! (e.g. `RegulatorDriver::forked` in `fgqos-core`). Large stat arrays
//! are copy-on-write, so N forks share one warm-up history until they
//! write. A snapshot keeps the stream recorded at capture, so its
//! fingerprint, stream bytes and blob never walk the machine again.
//!
//! **Versioning.** [`SNAPSHOT_VERSION`] is bumped whenever the stream's
//! encoding or component order changes, so fingerprints from different
//! stream layouts can never collide silently.

use crate::system::Soc;
use crate::time::Cycle;
use fgqos_snap::{
    ForkCtx, SnapDecodeError, SnapshotBlob, SnapshotError, StateHasher, StateIo, TypedSnapshot,
};

/// Version of the snapshot fingerprint stream. Bumped whenever the
/// encoding or the component traversal order changes; folded into every
/// fingerprint, so fingerprints from different versions never compare
/// equal.
pub const SNAPSHOT_VERSION: u32 = 2;

impl Soc {
    /// FNV-1a 64 fingerprint over the full architectural state: current
    /// cycle, every master (issue state machine, source, gate,
    /// statistics), crossbar, DRAM controller, controllers and the
    /// transaction arena, prefixed by [`SNAPSHOT_VERSION`].
    ///
    /// Callable at any cycle (not only quiesced boundaries); two Socs
    /// with equal fingerprints and equal in-flight state behave
    /// identically from here on.
    pub fn fingerprint(&mut self) -> u64 {
        self.write_state(StateIo::hashing()).finish()
    }

    /// Records the full state stream together with its typed field map
    /// (the record the leap engine keys and advances; see
    /// [`fgqos_snap::TypedSnapshot`]).
    pub fn typed_state(&mut self) -> TypedSnapshot {
        self.write_state(StateIo::typed_recording()).take_typed()
    }

    /// Runs a writing walk, which cannot fail.
    fn write_state(&mut self, mut io: StateIo<'static>) -> StateHasher {
        self.state(&mut io)
            .expect("writing a state stream cannot fail");
        io.into_hasher()
    }

    /// Walks the full architectural state through a snapshot stream (see
    /// the [module docs](self)). Structural, configuration-derived facts
    /// — clock, master identities, crossbar configuration, controller
    /// count — are verified when reading, while mutable architectural
    /// state is overwritten.
    ///
    /// # Errors
    ///
    /// When reading, any [`SnapDecodeError`] (see [`Soc::load_state`]).
    pub(crate) fn state(&mut self, io: &mut StateIo) -> Result<(), SnapDecodeError> {
        io.section("fgqos.soc-snapshot")?;
        let mut version = SNAPSHOT_VERSION;
        io.u32(&mut version)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapDecodeError::Version {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        io.fixed_u64(self.freq.hz(), "soc clock hz")?;
        io.cycle(&mut self.cycle)?;
        io.bool(&mut self.naive)?;
        io.fixed_usize(self.masters.len(), "master count")?;
        for m in &mut self.masters {
            m.state(io)?;
        }
        self.xbar.state(io)?;
        self.dram.state(io)?;
        io.fixed_usize(self.controllers.len(), "controller count")?;
        for c in &mut self.controllers {
            c.state(io)?;
        }
        self.arena.state(io)
    }

    /// Deep-copies this Soc, remapping shared handles through `ctx`.
    ///
    /// External driver handles bound to this Soc (e.g. a
    /// `RegulatorDriver` holding the same register file as a gate) can
    /// be rebound to the copy by passing the same `ctx` to their
    /// `forked` helpers, in any order relative to this call.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Unforkable`] when any source, gate or
    /// controller does not implement forking (interrupt dispatchers and
    /// tracing gates are the stock examples).
    pub fn fork_with(&self, ctx: &mut ForkCtx) -> Result<Soc, SnapshotError> {
        let mut masters = Vec::with_capacity(self.masters.len());
        for m in &self.masters {
            masters.push(m.fork(ctx)?);
        }
        let mut controllers = Vec::with_capacity(self.controllers.len());
        for c in &self.controllers {
            controllers.push(c.fork_ctrl(ctx).ok_or_else(|| SnapshotError::Unforkable {
                label: c.label().to_string(),
            })?);
        }
        Ok(Soc {
            freq: self.freq,
            cycle: self.cycle,
            masters,
            xbar: self.xbar.clone(),
            dram: self.dram.clone(),
            controllers,
            arena: self.arena.clone(),
            naive: self.naive,
            // The leap engine is an execution strategy, not architectural
            // state: a fork starts detection fresh with zeroed telemetry.
            leap: crate::leap::LeapState::new(self.leap.enabled),
        })
    }

    /// Captures this Soc into a versioned snapshot, consuming it.
    ///
    /// The Soc must be at a quiesced boundary (see [`Soc::is_quiesced`]
    /// and [`Soc::quiesce_point`]). Forkability of every component is
    /// validated by a probe fork at capture time, so the per-point
    /// [`SocSnapshot::fork`] calls cannot fail later.
    ///
    /// Consuming the Soc keeps its shared handles alive unchanged, which
    /// is what lets external drivers rebind to forks: the `ForkCtx` maps
    /// *original* handle pointers, and the originals live inside the
    /// snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NotQuiesced`] when transactions are in flight;
    /// [`SnapshotError::Unforkable`] when a component cannot be forked.
    pub fn snapshot(mut self) -> Result<SocSnapshot, SnapshotError> {
        if !self.is_quiesced() {
            return Err(SnapshotError::NotQuiesced {
                live_txns: self.arena.live(),
            });
        }
        let recorded = self.write_state(StateIo::recording());
        self.capture(recorded)
    }

    /// Wraps this quiesced Soc and its recorded stream into a snapshot.
    fn capture(mut self, recorded: StateHasher) -> Result<SocSnapshot, SnapshotError> {
        // Probe fork: surfaces Unforkable now instead of per point.
        let mut probe = ForkCtx::new();
        self.fork_with(&mut probe)?;
        // Forks start leap detection fresh, so the captured Soc's
        // recurrence records are dead weight for as long as the
        // snapshot lives.
        self.leap.forget_history();
        Ok(SocSnapshot {
            fingerprint: recorded.finish(),
            soc: self,
            state: recorded.take_bytes(),
        })
    }

    /// Reconstructs a runnable Soc from a snapshot (a fresh fork; the
    /// snapshot remains usable for further forks).
    pub fn restore(snapshot: &SocSnapshot) -> Soc {
        snapshot.fork()
    }

    /// Loads a serialized state stream (see [`SocSnapshot::state_bytes`])
    /// into this Soc, which must be a freshly built skeleton of the same
    /// scenario: the state walk that fingerprints the Soc, reading.
    /// Callers should re-fingerprint afterwards and compare against the
    /// capture-time fingerprint — that is what makes a wrong or partial
    /// load impossible to miss (see [`SocSnapshot::load_into`]).
    ///
    /// # Errors
    ///
    /// Any [`SnapDecodeError`]: version mismatch, truncation, a stream
    /// that disagrees with this skeleton, a component that does not
    /// support loading, or trailing bytes. The Soc is left in an
    /// unspecified partially-loaded state on error and must be discarded.
    pub fn load_state(&mut self, bytes: &[u8]) -> Result<(), SnapDecodeError> {
        let mut io = StateIo::reading(bytes);
        self.state(&mut io)?;
        io.expect_end()
    }
}

/// A [`Soc`] captured at a quiesced boundary, ready to fork N divergent
/// runs.
///
/// ```
/// use fgqos_sim::prelude::*;
///
/// let mut soc = SocBuilder::new(SocConfig::default())
///     .master("dma", SequentialSource::reads(0, 1024, 64), MasterKind::Accelerator)
///     .build();
/// soc.run(5_000);
/// let at = soc.quiesce_point(1_000_000).expect("drains");
/// let snap = soc.snapshot().expect("quiesced and forkable");
/// assert_eq!(snap.cycle(), at);
///
/// // Two forks diverge independently but start bit-identical.
/// let mut a = snap.fork();
/// let mut b = snap.fork();
/// assert_eq!(a.fingerprint(), snap.fingerprint());
/// a.run(10_000);
/// b.run(20_000);
/// ```
pub struct SocSnapshot {
    soc: Soc,
    fingerprint: u64,
    /// The stream recorded at capture.
    state: Vec<u8>,
}

impl std::fmt::Debug for SocSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocSnapshot")
            .field("version", &SNAPSHOT_VERSION)
            .field("cycle", &self.soc.now())
            .field("fingerprint", &format_args!("{:#018x}", self.fingerprint))
            .finish()
    }
}

impl SocSnapshot {
    /// The fingerprint stream version this snapshot was captured under.
    pub fn version(&self) -> u32 {
        SNAPSHOT_VERSION
    }

    /// Fingerprint of the captured state (see [`Soc::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The boundary cycle the snapshot was captured at.
    pub fn cycle(&self) -> Cycle {
        self.soc.now()
    }

    /// Forks an independent Soc continuing from the captured boundary.
    ///
    /// Use when no external driver handles need rebinding; otherwise see
    /// [`SocSnapshot::fork_with`].
    pub fn fork(&self) -> Soc {
        let mut ctx = ForkCtx::new();
        self.fork_with(&mut ctx)
    }

    /// Forks an independent Soc, remapping shared handles through `ctx`
    /// so external driver handles can be rebound to the same fork (pass
    /// the same `ctx` to the drivers' `forked` helpers).
    pub fn fork_with(&self, ctx: &mut ForkCtx) -> Soc {
        self.soc
            .fork_with(ctx)
            .expect("forkability was validated at capture")
    }

    /// Fingerprints a fresh fork and compares it with the fingerprint
    /// recorded at capture (a self-check for tests: snapshots are
    /// immutable, so this fails only when forking or the state walk is
    /// broken, or when a fork shares state with the snapshot).
    pub fn verify(&self) -> bool {
        self.fork().fingerprint() == self.fingerprint
    }

    /// The captured state's canonical byte stream, recorded at capture:
    /// the exact bytes the fingerprint hashes, so
    /// `fnv64(state_bytes()) == fingerprint()`.
    pub fn state_bytes(&self) -> Vec<u8> {
        self.state.clone()
    }

    /// Packages the snapshot as a durable [`SnapshotBlob`], embedding
    /// `scenario` — the recipe text that rebuilds the structural
    /// skeleton the state loads into (see [`SocSnapshot::load_into`]).
    pub fn to_blob(&self, scenario: impl Into<String>) -> SnapshotBlob {
        SnapshotBlob {
            snapshot_version: SNAPSHOT_VERSION,
            fingerprint: self.fingerprint,
            cycle: self.soc.now().get(),
            scenario: scenario.into(),
            state: self.state.clone(),
        }
    }

    /// Restores a serialized snapshot: loads `blob`'s state stream into
    /// `soc` (a freshly built skeleton of the blob's embedded scenario)
    /// and re-verifies the fingerprint end to end, so the returned
    /// snapshot forks runs bit-identical to forks of the original.
    ///
    /// # Errors
    ///
    /// Any [`SnapDecodeError`]; in particular
    /// [`SnapDecodeError::Version`] for an incompatible stream version
    /// and [`SnapDecodeError::FingerprintMismatch`] when the loaded
    /// state does not hash back to the fingerprint recorded at capture.
    pub fn load_into(mut soc: Soc, blob: &SnapshotBlob) -> Result<SocSnapshot, SnapDecodeError> {
        if blob.snapshot_version != SNAPSHOT_VERSION {
            return Err(SnapDecodeError::Version {
                found: blob.snapshot_version,
                expected: SNAPSHOT_VERSION,
            });
        }
        soc.load_state(&blob.state)?;
        if soc.now().get() != blob.cycle {
            return Err(SnapDecodeError::BadValue {
                what: format!(
                    "blob header cycle {} disagrees with state-stream cycle {}",
                    blob.cycle,
                    soc.now().get()
                ),
                at: 0,
            });
        }
        // Recording the loaded state once both verifies the fingerprint
        // and becomes the snapshot's stream.
        let recorded = soc.write_state(StateIo::recording());
        let fingerprint = recorded.finish();
        if fingerprint != blob.fingerprint {
            return Err(SnapDecodeError::FingerprintMismatch {
                expected: blob.fingerprint,
                found: fingerprint,
            });
        }
        soc.capture(recorded).map_err(|e| match e {
            SnapshotError::Unforkable { label } => {
                SnapDecodeError::Unsupported { component: label }
            }
            other => SnapDecodeError::BadValue {
                what: other.to_string(),
                at: 0,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axi::MasterId;
    use crate::dram::DramConfig;
    use crate::master::{MasterKind, SequentialSource};
    use crate::system::{SocBuilder, SocConfig};

    fn cfg() -> SocConfig {
        SocConfig {
            dram: DramConfig {
                t_refi: 0,
                ..DramConfig::default()
            },
            ..SocConfig::default()
        }
    }

    fn two_master_soc() -> Soc {
        SocBuilder::new(cfg())
            .master(
                "dma",
                SequentialSource::reads(0, 1024, 400).with_gap(500),
                MasterKind::Accelerator,
            )
            .master(
                "cpu",
                SequentialSource::reads(1 << 24, 256, 400).with_think_time(300),
                MasterKind::Cpu,
            )
            .build()
    }

    #[test]
    fn quiesce_point_reaches_empty_pipeline() {
        let mut soc = two_master_soc();
        soc.run(10_000);
        let at = soc
            .quiesce_point(10_000_000)
            .expect("gapped traffic drains");
        assert!(soc.is_quiesced());
        assert_eq!(soc.now(), at);
    }

    #[test]
    fn snapshot_drops_leap_records_and_keeps_telemetry() {
        let mut soc = two_master_soc();
        soc.run(20_000);
        soc.quiesce_point(10_000_000).expect("drains");
        assert!(soc.leap.records() > 0, "the warm run recorded boundaries");
        let telemetry = soc.leap_telemetry();
        let snap = soc.snapshot().expect("quiesced");
        assert_eq!(snap.soc.leap.records(), 0);
        assert_eq!(snap.soc.leap_telemetry(), telemetry);
    }

    #[test]
    fn snapshot_rejects_in_flight_state() {
        let mut soc = SocBuilder::new(cfg())
            .master(
                "dma",
                SequentialSource::reads(0, 4096, u64::MAX),
                MasterKind::Accelerator,
            )
            .build();
        soc.run(5_000);
        assert!(!soc.is_quiesced(), "saturated soc must have live txns");
        match soc.snapshot() {
            Err(SnapshotError::NotQuiesced { live_txns }) => assert!(live_txns > 0),
            other => panic!("expected NotQuiesced, got {other:?}"),
        }
    }

    #[test]
    fn fork_continues_bit_identical_to_original() {
        let mut soc = two_master_soc();
        soc.run(20_000);
        soc.quiesce_point(10_000_000).expect("drains");
        let baseline = soc.fingerprint();
        let snap = soc.snapshot().expect("quiesced");
        assert_eq!(snap.fingerprint(), baseline);
        assert!(snap.verify());

        let mut a = snap.fork();
        let mut b = Soc::restore(&snap);
        assert_eq!(a.fingerprint(), baseline);
        a.run(50_000);
        b.run(50_000);
        assert_eq!(a.fingerprint(), b.fingerprint(), "forks must not diverge");
        assert_ne!(a.fingerprint(), baseline, "runs must make progress");
        assert_eq!(
            a.master_stats(MasterId::new(0)).completed_txns,
            b.master_stats(MasterId::new(0)).completed_txns
        );
    }

    #[test]
    fn forks_are_independent() {
        let mut soc = two_master_soc();
        soc.run(20_000);
        soc.quiesce_point(10_000_000).expect("drains");
        let snap = soc.snapshot().expect("quiesced");
        let mut a = snap.fork();
        let mut b = snap.fork();
        let b_before = b.fingerprint();
        a.run(100_000);
        assert_eq!(
            b.fingerprint(),
            b_before,
            "running a fork must not touch another"
        );
    }

    #[test]
    fn serialized_state_restores_bit_identical() {
        let mut soc = two_master_soc();
        soc.run(20_000);
        soc.quiesce_point(10_000_000).expect("drains");
        let snap = soc.snapshot().expect("quiesced");
        let blob = snap.to_blob("two_master_soc");
        assert_eq!(fgqos_snap::fnv64(&blob.state), snap.fingerprint());

        let enc = blob.encode();
        let dec = SnapshotBlob::decode(&enc).expect("container round-trips");
        let restored = SocSnapshot::load_into(two_master_soc(), &dec).expect("state loads");
        assert_eq!(restored.fingerprint(), snap.fingerprint());
        assert_eq!(restored.cycle(), snap.cycle());

        let mut a = snap.fork();
        let mut b = restored.fork();
        a.run(50_000);
        b.run(50_000);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "restored fork diverged from in-memory fork"
        );
    }

    #[test]
    fn load_rejects_wrong_version_flips_and_wrong_skeleton() {
        let mut soc = two_master_soc();
        soc.run(20_000);
        soc.quiesce_point(10_000_000).expect("drains");
        let snap = soc.snapshot().expect("quiesced");
        let blob = snap.to_blob("two_master_soc");

        // Wrong snapshot version fails before any state is interpreted.
        let mut wrong = blob.clone();
        wrong.snapshot_version = SNAPSHOT_VERSION + 1;
        assert!(matches!(
            SocSnapshot::load_into(two_master_soc(), &wrong),
            Err(SnapDecodeError::Version { .. })
        ));

        // A flipped state byte that slips past the container checksum is
        // still caught — by a decode error or the final fingerprint check,
        // never a panic or silent acceptance.
        for pos in [10, blob.state.len() / 2, blob.state.len() - 9] {
            let mut bad = blob.clone();
            bad.state[pos] ^= 0x01;
            assert!(
                SocSnapshot::load_into(two_master_soc(), &bad).is_err(),
                "flipped state byte {pos} loaded cleanly"
            );
        }

        // Loading into a structurally different skeleton is diagnostic.
        let other = SocBuilder::new(cfg())
            .master(
                "other",
                SequentialSource::reads(0, 1024, 10),
                MasterKind::Accelerator,
            )
            .build();
        assert!(matches!(
            SocSnapshot::load_into(other, &blob),
            Err(SnapDecodeError::BadValue { .. })
        ));
    }

    #[test]
    fn quiesce_point_times_out_under_saturation() {
        let mut soc = SocBuilder::new(cfg())
            .master(
                "dma",
                SequentialSource::reads(0, 4096, u64::MAX),
                MasterKind::Accelerator,
            )
            .build();
        soc.run(5_000);
        // An unregulated streaming master keeps the pipeline full.
        assert_eq!(soc.quiesce_point(50_000), None);
    }
}
