//! The integrated 8-core CMP-DNUCA system simulator.
//!
//! Composes every substrate into the paper's testbed:
//!
//! ```text
//!  AddressStream ─▶ CoreModel (ROB/MSHR + L1) ─▶ SharedMemory
//!                                                 ├─ DnucaL2 (16 banks, way-partitioned)
//!                                                 ├─ NocModel (10–70-cycle NUCA + contention)
//!                                                 ├─ DramModel (260 cycles, 64 GB/s)
//!                                                 ├─ MOESI directory (shared segments)
//!                                                 └─ Controller (MSA profilers + repartitioning)
//! ```
//!
//! * [`sim::System`] — the detailed simulator behind Figs. 8/9: epoch-driven
//!   dynamic repartitioning, multiprogrammed workload mixes, per-core CPI
//!   and miss statistics.
//! * [`analytic`] — the projection-based evaluator behind Fig. 7's Monte
//!   Carlo: profiles workloads stand-alone and projects mix miss rates
//!   without simulating.
//! * [`energy`] — the event-based dynamic-energy model that prices a
//!   run's L2, NoC and DRAM counters after the fact.

pub mod analytic;
pub mod energy;
pub mod memory;
pub mod metrics;
pub mod recovery;
pub mod sim;

pub use analytic::{
    profile_workload, profile_workloads, profile_workloads_serial, profile_workloads_serial_traced,
    profile_workloads_traced,
};
pub use memory::{MemoryState, SharedMemory, SharedMemoryState};
pub use recovery::{restore_with_recovery, Recovered};
pub use sim::{
    EpochControl, Phase, ResumePoint, RunOutcome, RunResult, SimOptions, System, SystemState,
};
