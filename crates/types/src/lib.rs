//! Shared foundation types for the bank-aware cache-partitioning workspace.
//!
//! This crate deliberately contains no simulation logic: it defines the
//! vocabulary every other crate speaks — identifiers ([`CoreId`], [`BankId`]),
//! block addresses ([`Addr`], [`BlockAddr`]), the baseline machine
//! configuration of Table I ([`config::SystemConfig`]), the physical L2
//! floorplan of Fig. 1 ([`topology::Topology`]) and the statistics containers
//! shared across the simulator.
//!
//! The reproduced paper is Kaseridis, Stuecheli and John, *Bank-aware Dynamic
//! Cache Partitioning for Multicore Architectures*, ICPP 2009.

pub mod addr;
pub mod config;
pub mod control;
pub mod coreset;
pub mod degraded;
pub mod ids;
pub mod ops;
pub mod overload;
pub mod qos;
pub mod replication;
pub mod stats;
pub mod topology;

pub use addr::{Addr, BlockAddr};
pub use config::{CacheGeometry, L2Geometry, SystemConfig};
pub use control::{ControlConfig, DecisionBudget, HysteresisConfig};
pub use coreset::CoreSet;
pub use degraded::{BankMask, DegradedTopology, MAX_BANKS};
pub use ids::{BankId, CoreId, WayIdx};
pub use ops::Op;
pub use overload::{OverloadConfig, RetryConfig};
pub use qos::{
    wcl_bound, BankRegulator, QosConfig, RegulatorConfig, SloSpec, TokenBucket, WclParams,
};
pub use replication::ReplicationConfig;
pub use topology::{BankKind, Topology};

/// Simulation time, measured in core clock cycles.
pub type Cycle = u64;

/// The number of cores in the baseline CMP of the paper (Fig. 1).
pub const NUM_CORES: usize = 8;

/// The number of physical L2 cache banks in the baseline (Fig. 1).
pub const NUM_BANKS: usize = 16;

/// Associativity of a single L2 bank (Table I).
pub const BANK_WAYS: usize = 8;

/// Total "way equivalents" of the banked L2 (`16 banks × 8 ways`), the unit
/// in which all partitioning algorithms reason about capacity.
pub const TOTAL_WAYS: usize = NUM_BANKS * BANK_WAYS;
