//! # bankaware — Bank-aware Dynamic Cache Partitioning
//!
//! Facade crate for the reproduction of Kaseridis, Stuecheli and John,
//! *Bank-aware Dynamic Cache Partitioning for Multicore Architectures*
//! (ICPP 2009). Re-exports the workspace crates under stable module names:
//!
//! * [`types`] — identifiers, Table I configuration, Fig. 1 topology;
//! * [`cache`] — set-associative banks, way-partitioned LRU, DNUCA L2,
//!   bank-aggregation schemes;
//! * [`msa`] — Mattson stack-distance profilers and miss-ratio curves;
//! * [`noc`] — on-chip network latency/contention model;
//! * [`dram`] — main-memory model;
//! * [`energy`] — event-based dynamic-energy model (a module of `system`);
//! * [`coherence`] — MOESI directory protocol;
//! * [`cpu`] — out-of-order core timing model with L1;
//! * [`workloads`] — synthetic SPEC CPU2000 analogues;
//! * [`fault`] — deterministic fault injection (bank loss/repair, dropped
//!   epochs, corrupted curves) and fault counters;
//! * [`trace`] — the decision-trace observability layer: structured
//!   epoch-level events (grants, rule applications/rejections, plan
//!   installs, ladder transitions) behind a zero-cost-when-off tracer;
//! * [`partitioning`] — marginal utility, Unrestricted (UCP-style) and the
//!   paper's Bank-aware allocation algorithm plus the epoch controller, its
//!   degradation ladder, the epoch decision budget and the anti-thrash
//!   hysteresis gate;
//! * [`guard`] — the online invariant guard that re-validates every
//!   installed plan (capacity conservation, Rules 1–3, mask consistency,
//!   curve health) at epoch boundaries and escalates violations into the
//!   degradation ladder;
//! * [`recovery`] — versioned, checksummed epoch-boundary checkpoints and
//!   the bounded checkpoint history behind crash recovery;
//! * [`system`] — the integrated 8-core CMP simulator and the analytic
//!   Monte Carlo evaluator.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use bap_cache as cache;
pub use bap_coherence as coherence;
pub use bap_core as partitioning;
pub use bap_cpu as cpu;
pub use bap_dram as dram;
pub use bap_fault as fault;
pub use bap_guard as guard;
pub use bap_msa as msa;
pub use bap_noc as noc;
pub use bap_recovery as recovery;
pub use bap_system as system;
pub use bap_system::energy;
pub use bap_trace as trace;
pub use bap_types as types;
pub use bap_workloads as workloads;
