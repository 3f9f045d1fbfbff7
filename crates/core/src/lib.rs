//! Dynamic cache-partitioning algorithms — the paper's core contribution.
//!
//! Everything here consumes per-core [`bap_msa::MissRatioCurve`]s and
//! produces capacity assignments:
//!
//! * [`unrestricted`] — UCP-style greedy marginal-utility partitioning with
//!   lookahead, ignoring all physical structure ("Unrestricted" in §IV-A);
//! * [`bank_aware`] — the paper's Bank-aware allocation algorithm (Fig. 6),
//!   which respects the three banking rules of §III-B and emits a
//!   physically realisable [`bap_cache::PartitionPlan`];
//! * [`controller`] — the epoch-driven dynamic controller: profile an
//!   epoch, repartition, decay, repeat (100 M-cycle epochs in the paper);
//! * [`incremental`] — the warm-start solver: caches per-cluster sub-plans
//!   across epochs and re-solves only the clusters whose curves moved;
//! * [`projection`] — MSA-projected system miss rates for whole assignments
//!   (the Monte Carlo evaluator of Fig. 7 is built on this);
//! * [`serve`] — the controller wrapped for multi-tenant use: the batched,
//!   deterministic decision service behind `bap serve`;
//! * [`replication`] — primary/follower log shipping over the service's
//!   determinism contract: bounded checkpoint-anchored logs, divergence
//!   detection, and fenced failover;
//! * [`net`] — the transports of `bap serve`: the stdio loop, and the TCP
//!   front end shared by `--listen` and the replication stream, with
//!   per-connection panic isolation.

pub mod bank_aware;
pub mod controller;
pub mod incremental;
pub mod net;
pub mod projection;
pub mod qos;
pub mod replication;
pub mod serve;
pub mod unrestricted;

pub use bank_aware::{
    bank_aware_partition, try_bank_aware_partition, try_bank_aware_partition_budgeted,
    try_bank_aware_partition_traced, validate_bank_rules, validate_bank_rules_masked,
    BankAwareConfig, PartitionError, SolveBudget,
};
pub use controller::{Controller, PlanSource, Policy};
pub use incremental::{IncrementalSolver, IncrementalStats};
pub use projection::{projected_misses, projected_plan_misses, projected_total_misses};
pub use qos::{admit_cores, build_qos_plan, core_bound, AdmissionOutcome, QosState};
pub use replication::{ReplItem, ReplicationLog, Role};
pub use serve::{
    BatchContext, BrownoutLevel, ClientError, DecisionService, OverloadGovernor, ServeClient,
    ServeConfig, Server,
};
pub use unrestricted::{unrestricted_partition, unrestricted_partition_traced};
