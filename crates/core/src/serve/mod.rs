//! The batched, concurrent partitioning-decision service behind
//! `bap serve` — the [`crate::Controller`] wrapped for multi-tenant use.
//!
//! The paper's controller makes one decision per epoch for one machine.
//! This module serves that decision loop to many *sessions* (independent
//! machines, each a clustered ring floorplan with its own controller,
//! warm-start solver state and trace summary) behind the JSONL wire
//! protocol of [`bap_trace::wire`]:
//!
//! * **Batching** — concurrent requests are collected into one batch per
//!   *epoch tick*. [`DecisionService::process_batch`] is the pure,
//!   deterministic core: it orders the batch by client-assigned request
//!   id and applies it in three phases (session lifecycle → per-session
//!   decision work → service-wide queries), so the responses depend only
//!   on the id-ordered per-session request sequences — never on arrival
//!   interleaving, batch boundaries, or the concurrency level that
//!   delivered them (`tests/serve.rs` proves this bit-identically).
//! * **Serial sessions** — a batch's decision work runs on the calling
//!   thread, one session at a time in ascending session id; within a
//!   session, requests apply in id order. No session sits behind a lock
//!   and no thread starts inside a tick, so the determinism contract
//!   holds by construction. A panic quarantines its own session only.
//! * **Warm starts** — every session's controller solves through the
//!   [`crate::IncrementalSolver`], so steady-state decisions reuse cluster
//!   sub-plans bit-identically to a cold solve at a fraction of the cost.
//! * **Restarts** — [`DecisionService::checkpoint`] captures every
//!   session (warm solver state included) as a
//!   [`bap_recovery::Checkpoint`]; restoring yields a server that answers
//!   its next snapshot exactly as the original would have, with no
//!   warmup.
//! * **Graceful shutdown** — a `Shutdown` request is served like any
//!   other request, but the [`Server`] drains the in-flight requests
//!   that share its final batch before the worker exits, so every
//!   accepted request is answered.
//!
//! `run_tick` is the one epoch tick every transport runs: gate the
//! sweep, serve the admitted requests, feed the governor, commit the
//! log entry. [`Server`] adds the concurrency shell around it: a worker
//! thread owning the service, an mpsc queue whose natural backlog forms
//! the sweeps, and cloneable blocking [`ServeClient`] handles for client
//! threads. The stdio loop and the TCP front end in [`crate::net`] are
//! thin adapters over these layers.
//!
//! When [`ServeConfig::overload`] is set, an [`OverloadGovernor`] gates
//! each sweep before it becomes a batch (deadlines, shedding with retry
//! hints, the hysteretic brownout ladder). With the config unset (the
//! default) none of this code runs and the service is byte-identical to
//! the unregulated server.

mod governor;
mod server;
mod service;
mod tick;

pub use governor::{BatchContext, BrownoutLevel, OverloadGovernor};
pub use server::{ClientError, ServeClient, Server};
pub use service::{DecisionService, ServeConfig, ServiceState};
pub(crate) use tick::run_tick;
