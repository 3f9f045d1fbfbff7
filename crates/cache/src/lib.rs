//! Cache structures for the CMP-DNUCA baseline.
//!
//! This crate provides the *functional* cache model — hit/miss behaviour,
//! replacement, way-partitioning, bank aggregation and migration — while all
//! timing (NUCA latencies, bank occupancy, network contention) is composed on
//! top by `bap-system` using `bap-noc`.
//!
//! The pieces, bottom-up:
//!
//! * [`set_assoc::SetAssocCache`] — a generic set-associative cache with true
//!   LRU stacks per set; used directly for L1s and as the storage of every
//!   L2 bank.
//! * [`bank::CacheBank`] — one physical 1 MB L2 bank with the *vertical
//!   fine-grain way-partitioning* scheme of §III-B: each way carries a
//!   [`bap_types::CoreSet`] owner mask, identical across sets, and the
//!   modified LRU victimises only within the requesting core's ways.
//! * [`plan::PartitionPlan`] — the per-core `(bank, ways)` capacity
//!   assignment produced by the partitioning algorithms in `bap-core`.
//! * [`aggregation`] — the three bank-aggregation schemes of §III-B
//!   (Cascade, Address-Hash, Parallel) and the two-level structure of
//!   Fig. 4(c).
//! * [`dnuca::DnucaL2`] — the 16-bank DNUCA last-level cache, operable as a
//!   single shared cache (the *No-partitions* baseline) or under a
//!   [`plan::PartitionPlan`].

pub mod aggregation;
pub mod bank;
pub mod dnuca;
pub mod plan;
pub mod replacement;
pub mod set_assoc;

pub use aggregation::AggregationScheme;
pub use bank::CacheBank;
pub use dnuca::{DnucaL2, DnucaState, L2AccessOutcome, L2Mode};
pub use plan::{BankAllocation, BankUsage, PartitionPlan, PlanError};
pub use replacement::Policy as ReplacementPolicy;
pub use set_assoc::{AccessKind, EvictedLine, Line, SetAssocCache};
