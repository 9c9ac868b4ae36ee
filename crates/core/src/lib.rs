//! # fgqos-core — tightly-coupled bandwidth monitoring and regulation
//!
//! This crate implements the primary contribution of *"Fine-Grained QoS
//! Control via Tightly-Coupled Bandwidth Monitoring and Regulation for
//! FPGA-based Heterogeneous SoCs"* (DAC 2023):
//!
//! * [`regfile`] — the bit-accurate 32-bit memory-mapped register
//!   interface of the regulator IP (what the Linux driver pokes over
//!   MMIO on the real FPGA),
//! * [`monitor`] — per-port, per-window bandwidth telemetry,
//! * [`regulator`] — the window-based budget regulator that gates the AXI
//!   address handshake ([`TcRegulator`] implements
//!   [`fgqos_sim::PortGate`], the seam where the IP sits on the fabric),
//! * [`driver`] — the typed software driver over the register file,
//! * [`policy`] — host-software QoS policies built on the driver: static
//!   partitioning, CMRI-style reclaim of unused critical bandwidth, and a
//!   feedback controller holding a critical actor's QoS target,
//! * [`cost`] — an analytic FPGA resource model (LUT/FF/BRAM) of the IP.
//!
//! ## The mechanism in one paragraph
//!
//! Each regulated AXI master port carries a regulator instance. The
//! regulator divides time into replenishment windows of `PERIOD` cycles
//! and admits transactions while the byte budget `BUDGET` lasts; when the
//! budget is exhausted it back-pressures the port (deasserts the address
//! handshake) until the next window. Because the regulator is hardware at
//! the port, `PERIOD` can be microsecond-scale — two to three orders of
//! magnitude finer than the OS-tick granularity software regulators such
//! as MemGuard achieve — which bounds the burst a misbehaving master can
//! inject between enforcement points to `BUDGET` bytes instead of a full
//! tick's worth of traffic.
//!
//! ## Quickstart
//!
//! ```
//! use fgqos_core::prelude::*;
//! use fgqos_sim::prelude::*;
//!
//! // Regulator gating a greedy DMA to ~1 byte/cycle (≈1 GB/s at 1 GHz),
//! // replenished every microsecond.
//! let (regulator, driver) = TcRegulator::create(RegulatorConfig {
//!     period_cycles: 1_000,
//!     budget_bytes: 1_000,
//!     enabled: true,
//!     ..RegulatorConfig::default()
//! });
//! let mut soc = SocBuilder::new(SocConfig::default())
//!     .gated_master(
//!         "dma",
//!         SequentialSource::writes(0, 4096, u64::MAX),
//!         MasterKind::Accelerator,
//!         regulator,
//!     )
//!     .build();
//! soc.run(100_000);
//! let telemetry = driver.telemetry();
//! assert!(telemetry.total_bytes <= 101 * 1_000); // ≈ budget × windows
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod bucket;
pub mod cost;
pub mod driver;
pub mod fabric;
pub mod irq;
pub mod monitor;
pub mod policy;
pub mod program;
pub mod regfile;
pub mod regulator;
pub mod shared;

pub use analysis::{PortModel, SystemModel};
pub use bucket::{BucketConfig, LeakyBucketRegulator};
pub use cost::{ResourceEstimate, ResourceModel, Zu9egBudget};
pub use driver::{RegulatorDriver, RegulatorTelemetry};
pub use fabric::{PortRole, QosFabric, QosFabricBuilder};
pub use irq::{IrqDispatcher, IrqHandler};
pub use monitor::WindowMonitor;
pub use policy::{FeedbackController, PortBudget, ReclaimConfig, ReclaimPolicy, StaticPartition};
pub use program::{FusedController, ProgramOp, ScenarioProgram, TimedOp};
pub use regfile::{Reg, RegFile};
pub use regulator::{ChargePolicy, OvershootPolicy, RegulatorConfig, SplitBudgets, TcRegulator};
pub use shared::{SharedBudgetGate, SharedRegulator};

/// Commonly used items.
pub mod prelude {
    pub use crate::analysis::{PortModel, SystemModel};
    pub use crate::bucket::{BucketConfig, LeakyBucketRegulator};
    pub use crate::cost::{ResourceEstimate, ResourceModel, Zu9egBudget};
    pub use crate::driver::{RegulatorDriver, RegulatorTelemetry};
    pub use crate::fabric::{PortRole, QosFabric, QosFabricBuilder};
    pub use crate::irq::{IrqDispatcher, IrqHandler};
    pub use crate::policy::{
        FeedbackController, PortBudget, ReclaimConfig, ReclaimPolicy, StaticPartition,
    };
    pub use crate::program::{FusedController, ProgramOp, ScenarioProgram, TimedOp};
    pub use crate::regfile::{Reg, RegFile};
    pub use crate::regulator::{
        ChargePolicy, OvershootPolicy, RegulatorConfig, SplitBudgets, TcRegulator,
    };
    pub use crate::shared::{SharedBudgetGate, SharedRegulator};
}
