//! The `bap serve` wire protocol: JSONL request/response messages.
//!
//! The serve mode speaks the same conventions as the trace JSONL dumps —
//! one self-describing, externally-tagged JSON object per line — so the
//! tooling that already parses traces can parse server conversations. A
//! client writes one [`WireRequest`] per line and receives exactly one
//! [`WireResponse`] per request, correlated by the client-assigned `id`.
//!
//! Protocol guarantees (enforced by the `bap-core` serve module and the
//! `serve_protocol`/`serve` test tiers):
//!
//! * **Typed errors, never panics** — a malformed line or an invalid
//!   request yields a [`ResponseKind::Error`] with a stable `code`;
//! * **Unknown-field tolerance** — decoding looks fields up by name, so
//!   newer clients may attach extra fields without breaking older servers;
//! * **Determinism** — a batch of requests produces responses that depend
//!   only on the per-session request sequence ordered by `id`, never on
//!   arrival interleaving or the concurrency level that served it.
//!
//! Floats ride the same JSON writer as the trace curve snapshots: finite
//! `f64`s round-trip bit-exactly, NaN maps to `null` and back.

use crate::summary::TraceSummary;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One profiled miss-ratio curve on the wire: `misses[w]` is the projected
/// miss count at `w` dedicated ways, `accesses` the denominator — exactly
/// the payload of [`crate::EventKind::CurveSnapshot`], so traced snapshots
/// can be replayed against a server verbatim.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireCurve {
    /// Curve denominator (total profiled accesses).
    pub accesses: f64,
    /// Projected misses per allocated-way count, index 0..=max_ways.
    pub misses: Vec<f64>,
}

/// One client request. `id` is client-assigned and echoed on the response;
/// within a session the server applies requests in ascending `id` order,
/// so clients that need strict sequencing assign monotonic ids.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireRequest {
    /// Client-assigned correlation id (echoed on the response; per-session
    /// application order).
    pub id: u64,
    /// Optional latency budget in milliseconds, measured from the moment
    /// the server receives the request. A request whose deadline expires
    /// before its batch is evaluated is answered with the typed
    /// `deadline-exceeded` error instead of a stale solve. Absent (the
    /// default, and what every pre-overload client sends) means no
    /// deadline; servers ignore the field unless overload regulation is
    /// configured.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// What the client wants.
    pub kind: RequestKind,
}

impl WireRequest {
    /// A request without a deadline — the pre-overload wire shape.
    pub fn new(id: u64, kind: RequestKind) -> Self {
        WireRequest {
            id,
            deadline_ms: None,
            kind,
        }
    }

    /// Attach a relative latency budget in milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }
}

/// Every request the decision service understands.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RequestKind {
    /// Create a partitioning session: a dedicated controller on a clustered
    /// ring floorplan of `cores` cores (must be a positive multiple of 8).
    Open {
        /// Client-chosen session identifier.
        session: u64,
        /// Cores (and half the banks) of the session's machine.
        cores: usize,
    },
    /// Ingest one epoch's profile snapshot (one curve per core) and run the
    /// session's epoch decision: sanitise, solve warm, gate, install.
    Snapshot {
        /// The target session.
        session: u64,
        /// Exactly `cores` curves, core order.
        curves: Vec<WireCurve>,
    },
    /// Evaluate a hypothetical mix against the session's machine without
    /// touching its installed state (read-only what-if solve).
    Evaluate {
        /// The target session.
        session: u64,
        /// Exactly `cores` curves, core order.
        curves: Vec<WireCurve>,
    },
    /// Query the session's installed plan.
    Plan {
        /// The target session.
        session: u64,
    },
    /// Profile named catalog workloads into curves (resolved by the `bap`
    /// front end, which owns the workload catalog; the in-process decision
    /// service answers `unsupported`).
    Profile {
        /// Workload names from the catalog (`bap workloads`).
        workloads: Vec<String>,
        /// Profiled instructions per workload.
        instructions: u64,
        /// Profiling seed.
        seed: u64,
    },
    /// Checkpoint every session (and persist it, when the server was given
    /// a checkpoint path) for zero-warmup restarts.
    Checkpoint,
    /// Server-wide counters.
    Stats,
    /// Graceful shutdown: the batch carrying this request is fully served,
    /// in-flight requests are drained, then the server exits.
    Shutdown,
    /// Promote a follower to primary: bump the fencing term and start
    /// accepting state-mutating requests. A primary answers `bad_request`
    /// (it is already primary); an unreplicated server answers
    /// `unsupported`; a follower that has detected divergence refuses with
    /// `divergence` rather than serve state it cannot vouch for.
    Promote,
    /// Query the replication role, term, log shape and divergence count.
    ReplStatus,
    /// Follower-to-primary: subscribe to the replication stream. The
    /// primary answers with a [`ResponseKind::ReplSnapshot`] anchor
    /// checkpoint followed by one [`ResponseKind::ReplEntry`] per log
    /// entry after `after_tick`, then ships new entries as they commit.
    ReplSubscribe {
        /// Highest tick the follower already holds (0 = cold join).
        after_tick: u64,
    },
    /// Follower-to-primary: the shipped entry for `tick` was applied. The
    /// primary holds client responses until every live follower acks —
    /// this is the zero-acknowledged-loss contract.
    ReplAck {
        /// The applied entry's tick.
        tick: u64,
    },
}

impl RequestKind {
    /// Stable label of the request class (trace events, stats keys).
    pub fn label(&self) -> &'static str {
        match self {
            RequestKind::Open { .. } => "open",
            RequestKind::Snapshot { .. } => "snapshot",
            RequestKind::Evaluate { .. } => "evaluate",
            RequestKind::Plan { .. } => "plan",
            RequestKind::Profile { .. } => "profile",
            RequestKind::Checkpoint => "checkpoint",
            RequestKind::Stats => "stats",
            RequestKind::Shutdown => "shutdown",
            RequestKind::Promote => "promote",
            RequestKind::ReplStatus => "repl_status",
            RequestKind::ReplSubscribe { .. } => "repl_subscribe",
            RequestKind::ReplAck { .. } => "repl_ack",
        }
    }

    /// The session a request targets, when it targets one.
    pub fn session(&self) -> Option<u64> {
        match self {
            RequestKind::Open { session, .. }
            | RequestKind::Snapshot { session, .. }
            | RequestKind::Evaluate { session, .. }
            | RequestKind::Plan { session } => Some(*session),
            _ => None,
        }
    }
}

/// Per-session decision-story counters attached to every decision
/// response — the trace summary, shrunk to the classes a serving client
/// acts on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireSummary {
    /// Decision events recorded for this session so far.
    pub events: u64,
    /// Epoch boundaries the session has closed.
    pub epochs: u64,
    /// Plans installed.
    pub plans_installed: u64,
    /// Candidate plans held back by the hysteresis gate.
    pub plans_held: u64,
    /// Cluster sub-plans reused verbatim by the warm-start solver.
    pub warm_start_hits: u64,
    /// Bank-aware solver refusals (degradation-ladder entries).
    pub solver_failures: u64,
}

impl WireSummary {
    /// Project the full [`TraceSummary`] down to the wire fields.
    pub fn from_summary(s: &TraceSummary) -> Self {
        WireSummary {
            events: s.events,
            epochs: s.epochs,
            plans_installed: s.plans_installed,
            plans_held: s.plans_held,
            warm_start_hits: s.warm_start_hits,
            solver_failures: s.solver_failures,
        }
    }
}

/// Fingerprint of one session's state after a replicated tick, shipped
/// alongside the log entry so followers can cross-check their replay: a
/// mismatch in `epoch` or the installed plan's `fingerprint` is reported
/// as a typed divergence instead of silently serving wrong plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionDigest {
    /// The session the digest covers.
    pub session: u64,
    /// Epochs the session has closed after the tick.
    pub epoch: u64,
    /// FNV-1a fingerprint of the installed plan (0 when none).
    pub fingerprint: u64,
}

/// One replication-log entry: everything a follower needs to replay one
/// committed tick deterministically — the admitted requests (id order is
/// restored per session by the replaying service), the brownout level the
/// batch was served under, and the primary's post-tick session digests.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireLogEntry {
    /// The tick this entry commits (entries ship in ascending-tick order).
    pub tick: u64,
    /// Fencing term the primary held when committing the tick.
    pub term: u64,
    /// Brownout ladder level of the batch (`BrownoutLevel` as `u8`), so a
    /// budgeted or last-good tick replays through the same decision path.
    pub brownout: u8,
    /// The admitted requests of the batch (sheds and `Shutdown` excluded).
    pub requests: Vec<WireRequest>,
    /// Post-tick digest of every session the batch touched.
    pub digests: Vec<SessionDigest>,
}

/// One server response. `id` echoes the request; `tick` is the epoch tick
/// (batch number) that served it — informational only, it depends on how
/// requests happened to batch and is excluded from determinism contracts.
///
/// `Serialize` is written by hand (not derived) so `term` is omitted
/// entirely when `None`: an unreplicated server's lines stay
/// byte-identical to the pre-replication protocol, which the golden
/// figures and `tests/serve_replication.rs` pin. Decoding is derived: a
/// missing `term` already reads as `None`.
#[derive(Clone, Debug, PartialEq, Deserialize)]
pub struct WireResponse {
    /// The request this answers.
    pub id: u64,
    /// The batch (epoch tick) that served it.
    pub tick: u64,
    /// Fencing term of the server that answered. Stamped on every response
    /// of a replicated server; absent (and absent from the encoded line)
    /// when replication is not configured. Clients track the highest term
    /// seen and reject lower-term answers as `fenced`.
    pub term: Option<u64>,
    /// The answer.
    pub kind: ResponseKind,
}

impl Serialize for WireResponse {
    fn to_value(&self) -> serde::Value {
        let mut members = vec![
            ("id".to_string(), self.id.to_value()),
            ("tick".to_string(), self.tick.to_value()),
        ];
        if let Some(term) = self.term {
            members.push(("term".to_string(), term.to_value()));
        }
        members.push(("kind".to_string(), self.kind.to_value()));
        serde::Value::Object(members)
    }
}

/// Every answer the decision service produces.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ResponseKind {
    /// The session exists and is ready for snapshots.
    Opened {
        /// The opened session.
        session: u64,
        /// Cores of its machine.
        cores: usize,
    },
    /// Outcome of one epoch decision ([`RequestKind::Snapshot`]).
    Decision {
        /// The session that decided.
        session: u64,
        /// Epochs the session has now closed.
        epoch: u64,
        /// Whether this epoch installed a new plan (`false` = the policy
        /// kept the plan already in force — hysteresis hold, warm reuse of
        /// an identical plan, or a shed decision).
        installed: bool,
        /// Total ways per core under the effective plan (empty when no
        /// plan is in force yet).
        ways: Vec<usize>,
        /// Which path produced the effective plan (`PlanSource` label).
        source: String,
        /// Deterministic FNV-1a fingerprint of the effective plan's
        /// physical shape (0 when no plan is in force).
        fingerprint: u64,
        /// The session's decision-story counters so far.
        summary: WireSummary,
    },
    /// Outcome of a read-only what-if solve ([`RequestKind::Evaluate`]).
    Evaluated {
        /// The session whose machine was evaluated against.
        session: u64,
        /// Total ways per core under the hypothetical plan.
        ways: Vec<usize>,
        /// Fingerprint of the hypothetical plan.
        fingerprint: u64,
    },
    /// The session's installed plan ([`RequestKind::Plan`]).
    Plan {
        /// The queried session.
        session: u64,
        /// Epochs the session has closed.
        epoch: u64,
        /// Total ways per core (empty when no plan is in force).
        ways: Vec<usize>,
        /// Which path produced the plan.
        source: String,
        /// Fingerprint of the plan (0 when none).
        fingerprint: u64,
    },
    /// Profiled curves for a named mix ([`RequestKind::Profile`]).
    Profiled {
        /// One curve per requested workload, input order.
        curves: Vec<WireCurve>,
    },
    /// A checkpoint of every session was taken (and persisted when the
    /// server holds a checkpoint path).
    Checkpointed {
        /// Encoded checkpoint size in bytes.
        bytes: usize,
        /// Sessions captured.
        sessions: usize,
        /// The tick the checkpoint covers (state up to and including it).
        tick: u64,
    },
    /// Server-wide counters ([`RequestKind::Stats`]).
    Stats {
        /// Live sessions.
        sessions: usize,
        /// Batches (epoch ticks) served.
        ticks: u64,
        /// Requests served in total.
        requests: u64,
        /// Epoch decisions taken across all sessions.
        decisions: u64,
        /// Warm-start cluster reuses across all sessions.
        warm_hits: u64,
    },
    /// Graceful-shutdown acknowledgement: the server drained `drained`
    /// in-flight requests alongside this one and is exiting.
    Bye {
        /// In-flight requests served in the shutdown's batch.
        drained: usize,
    },
    /// Promotion succeeded ([`RequestKind::Promote`]): this server is now
    /// primary under the bumped fencing term.
    Promoted {
        /// The new (bumped) fencing term.
        term: u64,
        /// The tick frontier the promoted server holds.
        tick: u64,
    },
    /// Replication status ([`RequestKind::ReplStatus`]).
    ReplStatus {
        /// Current role: `"primary"` or `"follower"`.
        role: String,
        /// Current fencing term.
        term: u64,
        /// Ticks committed/applied so far.
        tick: u64,
        /// Log-suffix entries retained past the anchor.
        log_entries: usize,
        /// Tick the anchor checkpoint covers.
        anchor_tick: u64,
        /// Replay digest mismatches detected so far.
        divergences: u64,
    },
    /// First frame of a replication subscription: the anchor checkpoint a
    /// cold follower restores before replaying the suffix.
    ReplSnapshot {
        /// Tick the checkpoint covers.
        tick: u64,
        /// Term the checkpoint was anchored under.
        term: u64,
        /// Hex-encoded `bap-recovery` checkpoint bytes (JSONL lines cannot
        /// carry raw binary).
        state: String,
    },
    /// One shipped replication-log entry.
    ReplEntry {
        /// The entry to replay.
        entry: WireLogEntry,
    },
    /// The request could not be served. `code` is stable and matchable —
    /// the full registry is [`ERROR_CODES`].
    Error {
        /// Stable machine-matchable error class.
        code: String,
        /// Human-readable detail.
        detail: String,
        /// For `overloaded` sheds: how long the client should wait before
        /// retrying, computed from recent tick durations. Absent on every
        /// other error class (and on pre-overload servers).
        #[serde(default)]
        retry_after_ms: Option<u64>,
    },
}

/// The wire error-code registry. Codes are append-only and never renamed:
/// clients match on them across server versions, and
/// `tests/serve_protocol.rs` pins this list.
///
/// * `malformed` — the request line did not decode.
/// * `bad_request` — a decoded request had invalid arguments.
/// * `unknown_session` — the target session was never opened.
/// * `session_exists` — `Open` of an id that is already live.
/// * `solve_failed` — the bank-aware solver refused the evaluate.
/// * `unsupported` — the endpoint cannot serve this request kind.
/// * `checkpoint_failed` — persisting the checkpoint file failed.
/// * `overloaded` — the request was shed by backpressure; carries a
///   `retry_after_ms` hint.
/// * `deadline-exceeded` — the request's `deadline_ms` expired before its
///   batch was evaluated.
/// * `internal` — a quarantined (panicked) session; re-`Open` to recover.
/// * `not-primary` — a follower refused a state-mutating request; redirect
///   to the primary (the response's `term` says how current the follower
///   is).
/// * `fenced` — the answer came from a deposed primary (its `term` is
///   below the highest term the client has seen); synthesized client-side
///   and never trusted.
/// * `divergence` — a follower whose replay digests mismatched the
///   primary's refused promotion rather than serve unvouched state.
pub const ERROR_CODES: &[&str] = &[
    "malformed",
    "bad_request",
    "unknown_session",
    "session_exists",
    "solve_failed",
    "unsupported",
    "checkpoint_failed",
    "overloaded",
    "deadline-exceeded",
    "internal",
    "not-primary",
    "fenced",
    "divergence",
];

impl ResponseKind {
    /// A typed error response.
    pub fn error(code: &str, detail: impl Into<String>) -> Self {
        ResponseKind::Error {
            code: code.to_string(),
            detail: detail.into(),
            retry_after_ms: None,
        }
    }

    /// The backpressure shed: `overloaded`, always with a retry hint.
    pub fn overloaded(detail: impl Into<String>, retry_after_ms: u64) -> Self {
        ResponseKind::Error {
            code: "overloaded".to_string(),
            detail: detail.into(),
            retry_after_ms: Some(retry_after_ms),
        }
    }

    /// The typed answer for a request whose `deadline_ms` expired before
    /// its batch was evaluated.
    pub fn deadline_exceeded(detail: impl Into<String>) -> Self {
        ResponseKind::error("deadline-exceeded", detail)
    }

    /// A follower's refusal of a state-mutating request: `not-primary`,
    /// with the follower's current term in the detail for redirect hints.
    pub fn not_primary(term: u64) -> Self {
        ResponseKind::error(
            "not-primary",
            format!("this replica is a follower (term {term}); redirect to the primary"),
        )
    }

    /// The client-synthesized rejection of a deposed primary's answer.
    pub fn fenced(detail: impl Into<String>) -> Self {
        ResponseKind::error("fenced", detail)
    }

    /// The error code, when this is an error response.
    pub fn error_code(&self) -> Option<&str> {
        match self {
            ResponseKind::Error { code, .. } => Some(code.as_str()),
            _ => None,
        }
    }

    /// Stable label of the response class.
    pub fn label(&self) -> &'static str {
        match self {
            ResponseKind::Opened { .. } => "opened",
            ResponseKind::Decision { .. } => "decision",
            ResponseKind::Evaluated { .. } => "evaluated",
            ResponseKind::Plan { .. } => "plan",
            ResponseKind::Profiled { .. } => "profiled",
            ResponseKind::Checkpointed { .. } => "checkpointed",
            ResponseKind::Stats { .. } => "stats",
            ResponseKind::Bye { .. } => "bye",
            ResponseKind::Promoted { .. } => "promoted",
            ResponseKind::ReplStatus { .. } => "repl_status",
            ResponseKind::ReplSnapshot { .. } => "repl_snapshot",
            ResponseKind::ReplEntry { .. } => "repl_entry",
            ResponseKind::Error { .. } => "error",
        }
    }
}

/// Hex-encode checkpoint bytes for the [`ResponseKind::ReplSnapshot`]
/// frame (JSONL lines cannot carry raw binary).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit(u32::from(b >> 4), 16).unwrap());
        s.push(char::from_digit(u32::from(b & 0xF), 16).unwrap());
    }
    s
}

/// Decode a [`to_hex`] string; `None` on odd length or non-hex digits.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digit = |b: u8| char::from(b).to_digit(16);
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| Some((digit(pair[0])? * 16 + digit(pair[1])?) as u8))
        .collect()
}

/// Why a request line could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The line is empty or whitespace (batch delimiter, not a request).
    EmptyLine,
    /// The line is not a valid request object.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::EmptyLine => write!(f, "empty request line"),
            WireError::Malformed(why) => write!(f, "malformed request: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// Render the decode failure as the typed error response a server
    /// writes back (correlation id 0 — the request's id was unreadable).
    pub fn to_response(&self) -> WireResponse {
        WireResponse {
            id: 0,
            tick: 0,
            term: None,
            kind: ResponseKind::error("malformed", self.to_string()),
        }
    }
}

/// Decode one request line. Never panics: garbage is a typed
/// [`WireError`], and an empty line is distinguished so stream servers can
/// treat it as a batch delimiter.
pub fn parse_request_line(line: &str) -> Result<WireRequest, WireError> {
    if line.trim().is_empty() {
        return Err(WireError::EmptyLine);
    }
    serde_json::from_str(line).map_err(|e| WireError::Malformed(e.to_string()))
}

/// Decode one response line (client side).
pub fn parse_response_line(line: &str) -> Result<WireResponse, WireError> {
    if line.trim().is_empty() {
        return Err(WireError::EmptyLine);
    }
    serde_json::from_str(line).map_err(|e| WireError::Malformed(e.to_string()))
}

/// Encode a request as one JSONL line (no trailing newline).
pub fn encode_request(req: &WireRequest) -> String {
    serde_json::to_string(req).expect("wire types serialize infallibly")
}

/// Encode a response as one JSONL line (no trailing newline).
pub fn encode_response(resp: &WireResponse) -> String {
    serde_json::to_string(resp).expect("wire types serialize infallibly")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> WireCurve {
        WireCurve {
            accesses: 12_345.678,
            misses: (0..16).map(|w| 1000.0 / (w as f64 + 0.7)).collect(),
        }
    }

    #[test]
    fn every_request_kind_round_trips() {
        let kinds = vec![
            RequestKind::Open {
                session: 3,
                cores: 32,
            },
            RequestKind::Snapshot {
                session: 3,
                curves: vec![curve(); 2],
            },
            RequestKind::Evaluate {
                session: 9,
                curves: vec![curve()],
            },
            RequestKind::Plan { session: 3 },
            RequestKind::Profile {
                workloads: vec!["art".to_string(), "mcf".to_string()],
                instructions: 1_000_000,
                seed: 42,
            },
            RequestKind::Checkpoint,
            RequestKind::Stats,
            RequestKind::Shutdown,
            RequestKind::Promote,
            RequestKind::ReplStatus,
            RequestKind::ReplSubscribe { after_tick: 17 },
            RequestKind::ReplAck { tick: 18 },
        ];
        for kind in kinds {
            let req = WireRequest::new(7, kind);
            let back = parse_request_line(&encode_request(&req)).unwrap();
            assert_eq!(back, req);
            assert!(!req.kind.label().is_empty());
        }
    }

    #[test]
    fn deadlines_ride_the_wire_and_default_off() {
        let req = WireRequest::new(9, RequestKind::Stats).with_deadline_ms(250);
        let back = parse_request_line(&encode_request(&req)).unwrap();
        assert_eq!(back.deadline_ms, Some(250));
        // A pre-overload line (no deadline field at all) still decodes.
        let legacy = "{\"id\":4,\"kind\":{\"Plan\":{\"session\":2}}}";
        let req = parse_request_line(legacy).unwrap();
        assert_eq!(req.deadline_ms, None);
        // Retry hints round-trip on errors and default to absent.
        let resp = WireResponse {
            id: 4,
            tick: 0,
            term: None,
            kind: ResponseKind::overloaded("queue full", 12),
        };
        let back = parse_response_line(&encode_response(&resp)).unwrap();
        let ResponseKind::Error { retry_after_ms, .. } = back.kind else {
            panic!("expected error");
        };
        assert_eq!(retry_after_ms, Some(12));
    }

    #[test]
    fn overload_error_codes_are_registered() {
        for kind in [
            ResponseKind::overloaded("x", 5),
            ResponseKind::deadline_exceeded("x"),
            ResponseKind::error("internal", "x"),
        ] {
            let code = kind.error_code().expect("error kind");
            assert!(ERROR_CODES.contains(&code), "{code} missing from registry");
        }
    }

    #[test]
    fn every_response_kind_round_trips() {
        let kinds = vec![
            ResponseKind::Opened {
                session: 1,
                cores: 8,
            },
            ResponseKind::Decision {
                session: 1,
                epoch: 4,
                installed: true,
                ways: vec![16; 8],
                source: "solver".to_string(),
                fingerprint: 0xDEAD_BEEF,
                summary: WireSummary {
                    events: 40,
                    epochs: 4,
                    plans_installed: 3,
                    plans_held: 1,
                    warm_start_hits: 2,
                    solver_failures: 0,
                },
            },
            ResponseKind::Evaluated {
                session: 1,
                ways: vec![12, 20],
                fingerprint: 9,
            },
            ResponseKind::Plan {
                session: 1,
                epoch: 4,
                ways: vec![],
                source: "none".to_string(),
                fingerprint: 0,
            },
            ResponseKind::Profiled {
                curves: vec![curve()],
            },
            ResponseKind::Checkpointed {
                bytes: 4096,
                sessions: 2,
                tick: 17,
            },
            ResponseKind::Stats {
                sessions: 2,
                ticks: 17,
                requests: 99,
                decisions: 60,
                warm_hits: 31,
            },
            ResponseKind::Bye { drained: 3 },
            ResponseKind::Promoted { term: 2, tick: 40 },
            ResponseKind::ReplStatus {
                role: "follower".to_string(),
                term: 2,
                tick: 40,
                log_entries: 5,
                anchor_tick: 35,
                divergences: 0,
            },
            ResponseKind::ReplSnapshot {
                tick: 35,
                term: 2,
                state: "42415043".to_string(),
            },
            ResponseKind::ReplEntry {
                entry: WireLogEntry {
                    tick: 36,
                    term: 2,
                    brownout: 1,
                    requests: vec![WireRequest::new(9, RequestKind::Plan { session: 3 })],
                    digests: vec![SessionDigest {
                        session: 3,
                        epoch: 7,
                        fingerprint: 0xFEED,
                    }],
                },
            },
            ResponseKind::error("unknown_session", "session 5 was never opened"),
        ];
        for kind in kinds {
            let resp = WireResponse {
                id: 7,
                tick: 2,
                term: None,
                kind,
            };
            let back = parse_response_line(&encode_response(&resp)).unwrap();
            assert_eq!(back, resp);
            assert!(!resp.kind.label().is_empty());
        }
    }

    #[test]
    fn term_is_omitted_when_none_and_rides_when_some() {
        // The byte-identity contract: an unreplicated response line has no
        // "term" member at all, matching the pre-replication protocol.
        let bare = WireResponse {
            id: 7,
            tick: 2,
            term: None,
            kind: ResponseKind::Bye { drained: 0 },
        };
        let line = encode_response(&bare);
        assert!(!line.contains("term"), "unexpected term member: {line}");
        assert_eq!(parse_response_line(&line).unwrap(), bare);
        let stamped = WireResponse {
            term: Some(3),
            ..bare.clone()
        };
        let line = encode_response(&stamped);
        assert!(line.contains("\"term\":3"), "missing term stamp: {line}");
        assert_eq!(parse_response_line(&line).unwrap(), stamped);
    }

    #[test]
    fn replication_error_helpers_are_registered() {
        for kind in [
            ResponseKind::not_primary(4),
            ResponseKind::fenced("stale term 2 < 3"),
            ResponseKind::error("divergence", "digest mismatch at tick 9"),
        ] {
            let code = kind.error_code().expect("error kind");
            assert!(ERROR_CODES.contains(&code), "{code} missing from registry");
        }
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        let hex = to_hex(&bytes);
        assert_eq!(from_hex(&hex).unwrap(), bytes);
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
        assert!(from_hex("abc").is_none(), "odd length");
        assert!(from_hex("zz").is_none(), "non-hex digit");
        assert_eq!(from_hex("A0fF").unwrap(), vec![0xA0, 0xFF], "either case");
        // A multi-byte character is never a digit, even where its bytes
        // straddle a pair boundary.
        assert!(from_hex("0é0").is_none(), "non-ASCII");
    }

    #[test]
    fn garbage_is_a_typed_error_not_a_panic() {
        // A high surrogate escape paired with a non-surrogate escape.
        let surrogate = r#"{"id":1,"kind":{"Profile":{"workloads":["\ud800\u0041"],"instructions":1,"seed":1}}}"#;
        for bad in [
            "{",
            "null",
            "[1,2]",
            "{\"id\":true}",
            "{\"kind\":{}}",
            surrogate,
        ] {
            let err = parse_request_line(bad).unwrap_err();
            assert!(matches!(err, WireError::Malformed(_)), "{bad}");
            let resp = err.to_response();
            assert_eq!(resp.id, 0);
            assert!(matches!(resp.kind, ResponseKind::Error { .. }));
        }
        assert_eq!(
            parse_request_line("  \t ").unwrap_err(),
            WireError::EmptyLine
        );
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        let line = "{\"id\":4,\"future\":true,\"kind\":{\"Plan\":{\"session\":2,\"hint\":9}}}";
        let req = parse_request_line(line).unwrap();
        assert_eq!(req, WireRequest::new(4, RequestKind::Plan { session: 2 }));
    }

    #[test]
    fn curve_floats_round_trip_exactly() {
        let c = curve();
        let req = WireRequest::new(
            1,
            RequestKind::Snapshot {
                session: 0,
                curves: vec![c.clone()],
            },
        );
        let back = parse_request_line(&encode_request(&req)).unwrap();
        let RequestKind::Snapshot { curves, .. } = back.kind else {
            panic!("wrong variant");
        };
        assert_eq!(curves[0], c, "bit-exact float round trip");
    }
}
