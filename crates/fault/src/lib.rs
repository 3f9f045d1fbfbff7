//! Deterministic fault injection for the partitioning pipeline.
//!
//! The paper's mechanism assumes a cooperative substrate: banks stay online,
//! MSA histograms arrive intact and the repartitioning epoch always fires.
//! This crate breaks each of those assumptions *on purpose*, so the
//! degradation ladder in `bap-core`/`bap-system` can be exercised and
//! measured:
//!
//! * **Bank faults** — a bank goes offline (its lines are flushed, its
//!   capacity disappears from the allocator's view) and may later be
//!   repaired.
//! * **Dropped epochs** — the repartitioning trigger is lost; the previous
//!   plan stays in force and profiler state keeps decaying.
//! * **Curve corruption** — miss-ratio curves reach the allocator NaN-laced,
//!   spiked (non-monotone) or with a broken accesses denominator.
//!
//! Everything is driven by [`FaultInjector`], which is **stateless per
//! epoch**: each decision is drawn from an RNG keyed on
//! `(seed, fault class, epoch)`, so two components may query the same epoch
//! independently and see the same faults, and a run can be replayed from any
//! epoch without reconstructing RNG history.
//!
//! [`FaultCounters`] is the shared ledger: every injection *and* every rung
//! of the degradation ladder taken in response increments a counter, so a
//! run's fault story is observable from its results.
//!
//! [`seams`] carries the serving layer's faults — a crash at an exact
//! trace event ([`CrashSink`]) and a corrupted shipped item
//! ([`TamperRelay`]) — injected around a running service, not inside it.

pub mod config;
pub mod counters;
pub mod injector;
pub mod seams;

pub use config::FaultConfig;
pub use counters::{CoreDegradeLedger, FaultCounters};
pub use injector::{BankEvent, BankEventKind, FaultInjector};
pub use seams::{CrashSink, TamperRelay};
