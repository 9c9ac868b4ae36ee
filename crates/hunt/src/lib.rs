//! # fgqos-hunt — adversarial worst-case contention search
//!
//! Average-case interference numbers badly underestimate the true worst
//! case (Carletti et al., *The Importance of Worst-Case Memory
//! Contention Analysis for Heterogeneous SoCs*). This crate is the
//! search engine that *hunts* for the worst interference pattern
//! against a declared critical master in a scenario: a seeded candidate
//! generator enumerates aggressor placements, burst phasings, bank
//! mappings and regulator budget settings; candidates are evaluated as
//! snapshot-forked batches (one warmed prefix, many cheap divergent
//! tails); and a hill-climbing/bisection refinement loop mutates the
//! top-K worst candidates until a fixed evaluation budget is exhausted.
//!
//! ## Architecture
//!
//! The crate is deliberately **parser- and transport-ignorant**. It
//! renders candidate scenarios as `.fgq` text overlays appended to a
//! base scenario ([`space`]), and it evaluates them one round at a time
//! through an injected closure — the `fgqos` umbrella wires that closure
//! to either the in-process `batch_reports` pool or a running
//! `fgqos serve` instance's `submit_batch` lanes, and both run a round's
//! families concurrently. This keeps the dependency graph
//! acyclic (the scenario parser lives above this crate) and makes the
//! engine trivially testable with synthetic evaluators.
//!
//! ## Determinism
//!
//! Every random decision derives from one declared seed through
//! [`fgqos_bench::rng::XorShift64Star`] split streams, candidate
//! batches are grouped and consumed in lexicographic family order, and
//! ties in the ranking are broken by candidate identity — so
//! `fgqos hunt --seed N` is byte-reproducible, and the winning
//! candidate re-runs bit-identically from the emitted `.fgq` (see
//! [`space::render_winner`] and `docs/hunt.md`).

pub mod engine;
pub mod report;
pub mod space;

pub use engine::{Evaluated, HuntConfig, HuntOutcome, Measured, Objective, TrajectoryPoint};
pub use report::{render_report, BoundComparison, HUNT_SCHEMA, HUNT_VERSION};
pub use space::{Aggressor, BaseInfo, Candidate, Disturbance, FamilySpec, Pattern, SearchSpace};
