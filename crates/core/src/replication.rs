//! Replication for the decision service: roles, the items shipped to
//! followers, the service's commit/replay/promotion methods, and the
//! worker's shipping endpoint.
//!
//! The protocol rides the determinism contract proven in `tests/serve.rs`:
//! responses are a pure function of the id-ordered per-session request
//! sequences, so a follower that replays the primary's admitted batches in
//! tick order rebuilds byte-identical state. The primary therefore ships
//! *inputs* (admitted request batches as [`WireLogEntry`]s), not outputs,
//! and the follower cross-checks its replay against the primary's
//! [`SessionDigest`]s to catch any divergence.
//!
//! A replica keeps no log. A follower that attaches gets one join anchor,
//! a `bap-recovery` checkpoint of the shipper's state at its replication
//! frontier, encoded at the attach, and then every later tick live. No
//! tick encodes a checkpoint for replication, and no replica retains
//! shipped entries.

use crate::serve::{BatchContext, BrownoutLevel, DecisionService};
use bap_recovery::{Checkpoint, RecoveryError};
use bap_trace::wire::{RequestKind, ResponseKind, SessionDigest, WireLogEntry, WireRequest};
use bap_trace::EventKind;
use bap_types::ReplicationConfig;
use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Duration;

/// Which side of the replication protocol a service is speaking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Accepts state-mutating requests, commits ticks, ships log entries.
    Primary,
    /// Refuses state-mutating requests (`not-primary`), applies shipped
    /// entries, and can be promoted.
    Follower,
}

impl Role {
    /// Stable wire label (`ReplStatus.role`).
    pub fn label(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Follower => "follower",
        }
    }
}

/// One item shipped over a replication subscription. The `ack` channel
/// carries the applied tick back to the shipper — the primary holds client
/// responses until every live follower has acked, which is what makes an
/// acknowledged decision durable across a primary kill.
pub enum ReplItem {
    /// The join anchor a joining follower restores first.
    Snapshot {
        /// Encoded `bap-recovery` checkpoint bytes.
        state: Vec<u8>,
        /// Tick the checkpoint covers (the shipper's frontier).
        tick: u64,
        /// Term it was encoded under.
        term: u64,
        /// Ack channel (the restored tick).
        ack: mpsc::Sender<u64>,
    },
    /// One committed log entry to replay.
    Entry {
        /// The entry.
        entry: WireLogEntry,
        /// Ack channel (the applied tick).
        ack: mpsc::Sender<u64>,
    },
}

/// The replication half of a service: role, fencing term, frontier, and
/// the divergence ledger. Present exactly when
/// [`crate::ServeConfig::replication`] is set.
pub(crate) struct ReplState {
    role: Role,
    /// The fencing term. Starts at 1, bumped by promotion or by observing
    /// a higher term on a shipped entry; stamped on every wire response.
    pub(crate) term: u64,
    /// Tick of the newest join anchor this replica encoded for a joiner
    /// or restored from its primary (0 before either).
    anchor_tick: u64,
    /// Highest shipped-entry tick this replica has applied (the
    /// replication frontier; on a primary the service tick is the
    /// frontier instead).
    applied: u64,
    /// Replay digest mismatches detected so far. A non-zero count blocks
    /// promotion: the replica cannot vouch for its state.
    divergences: u64,
    /// True while a shipped entry replays through `process_batch_with`,
    /// so the follower gate lets the replayed mutations through.
    replaying: bool,
}

impl ReplState {
    /// Term 1, at tick 0.
    pub(crate) fn new(cfg: &ReplicationConfig) -> Self {
        ReplState {
            role: if cfg.follower {
                Role::Follower
            } else {
                Role::Primary
            },
            term: 1,
            anchor_tick: 0,
            applied: 0,
            divergences: 0,
            replaying: false,
        }
    }

    /// The follower gate: a follower refuses state mutations with the
    /// pinned `not-primary` code unless a shipped entry is replaying —
    /// the primary is the only writer the fleet has.
    pub(crate) fn refuses_writes(&self) -> bool {
        self.role == Role::Follower && !self.replaying
    }
}

/// The service's replication surface: accessors, the primary's commit
/// path, the follower's replay path, and promotion.
impl DecisionService {
    /// The fencing term stamped on responses: `Some` exactly when
    /// replication is configured.
    pub fn term(&self) -> Option<u64> {
        self.repl.as_ref().map(|r| r.term)
    }

    /// The replication role, when replication is configured.
    pub fn role(&self) -> Option<Role> {
        self.repl.as_ref().map(|r| r.role)
    }

    /// Replay digest mismatches detected so far (0 when replication is
    /// off or the replica is clean).
    pub fn divergences(&self) -> u64 {
        self.repl.as_ref().map(|r| r.divergences).unwrap_or(0)
    }

    /// How long a shipper waits for this service's follower acks.
    pub fn ack_timeout(&self) -> Duration {
        self.cfg
            .replication
            .map(|r| r.ack_timeout())
            .unwrap_or(Duration::from_millis(1000))
    }

    /// The replication frontier `ReplStatus.tick` reports: the service
    /// tick on a primary (promoted or not), the applied tick on a
    /// follower.
    fn frontier(&self, repl: &ReplState) -> u64 {
        match repl.role {
            Role::Primary => self.tick,
            Role::Follower => repl.applied,
        }
    }

    /// Encode the join anchor for a follower attaching now: this
    /// replica's checkpoint at its replication frontier, as `(encoded
    /// checkpoint, tick, term)`; `None` when replication is off. Called
    /// between ticks, so the anchor holds every committed tick up to the
    /// frontier and the next shipped entry is the first one the joiner
    /// lacks.
    pub fn join_anchor(&mut self) -> Option<(Vec<u8>, u64, u64)> {
        let repl = self.repl.as_ref()?;
        let (tick, term) = (self.frontier(repl), repl.term);
        let state = self.checkpoint().encode();
        self.repl.as_mut()?.anchor_tick = tick;
        Some((state, tick, term))
    }

    /// Commit the tick just served and hand back the entry to ship.
    /// Primary only — `None` when replication is off or this replica is
    /// a follower. The entry carries the *inputs*:
    /// the batch's state-mutating requests (`Open`/`Snapshot`) in id
    /// order — queries and control frames replay to nothing — plus a
    /// [`SessionDigest`] for every session those requests touch, so a
    /// follower can both replay and cross-check. Every committed tick
    /// ships, even an all-query one: the ack-before-answer contract
    /// wants the shipped tick stream gap-free.
    pub fn log_batch(&self, requests: &[WireRequest], brownout: u8) -> Option<WireLogEntry> {
        let repl = self.repl.as_ref()?;
        if repl.role != Role::Primary {
            return None;
        }
        let term = repl.term;
        let mut reqs: Vec<WireRequest> = requests
            .iter()
            .filter(|r| {
                matches!(
                    r.kind,
                    RequestKind::Open { .. } | RequestKind::Snapshot { .. }
                )
            })
            .cloned()
            .collect();
        reqs.sort_by_key(|r| r.id);
        let mut touched: BTreeSet<u64> = BTreeSet::new();
        for r in &reqs {
            match &r.kind {
                RequestKind::Open { session, .. } | RequestKind::Snapshot { session, .. } => {
                    touched.insert(*session);
                }
                _ => {}
            }
        }
        let digests: Vec<SessionDigest> = touched
            .into_iter()
            .map(|session| {
                let (epoch, fingerprint) = self.session_digest(session);
                SessionDigest {
                    session,
                    epoch,
                    fingerprint,
                }
            })
            .collect();
        Some(WireLogEntry {
            tick: self.tick,
            term,
            brownout,
            requests: reqs,
            digests,
        })
    }

    /// Apply one shipped log entry (the follower side). Replays the
    /// entry's requests through the normal batch path at the shipped
    /// tick and brownout level, cross-checks the primary's digests
    /// against the replayed state and advances the replication frontier.
    /// Returns the applied tick (the ack), or `None` when the entry must
    /// not be applied — this replica is a primary, or the entry's term is
    /// stale (a deposed primary still shipping). A refused entry is
    /// deliberately not acked: the shipper times out and drops the
    /// connection.
    pub fn apply_repl_entry(&mut self, entry: &WireLogEntry) -> Option<u64> {
        {
            let repl = self.repl.as_ref()?;
            if repl.role == Role::Primary || entry.term < repl.term {
                let (tick, term) = (entry.tick, entry.term);
                self.tracer
                    .emit(|| EventKind::StaleEntryRejected { tick, term });
                return None;
            }
            if entry.tick <= repl.applied {
                // A re-ship of an entry already applied (catch-up after
                // a reconnect overlapping the live stream): idempotent.
                return Some(entry.tick);
            }
        }
        if let Some(repl) = self.repl.as_mut() {
            if entry.term > repl.term {
                repl.term = entry.term;
                let term = entry.term;
                self.tracer.emit(|| EventKind::TermBumped {
                    term,
                    reason: "observed a higher term on a shipped entry".to_string(),
                });
            }
            repl.replaying = true;
        }
        // Replay at the shipped tick: the primary's tick stream is the
        // authority; follower-local queries in between must not shift
        // where the replayed mutations land.
        self.tick = entry.tick.saturating_sub(1);
        let ctx = BatchContext {
            solve_deadline: None,
            brownout: BrownoutLevel::from_u8(entry.brownout),
            retry_after_ms: 0,
        };
        self.process_batch_with(&entry.requests, &ctx);
        if let Some(repl) = self.repl.as_mut() {
            repl.replaying = false;
        }
        // Cross-check: the replayed state must match the primary's
        // digests bit for bit. Any mismatch is a divergence — reported
        // as a typed event, counted, and promotion-blocking.
        let mut mismatches = 0u64;
        for d in &entry.digests {
            let (epoch, fingerprint) = self.session_digest(d.session);
            if epoch != d.epoch || fingerprint != d.fingerprint {
                mismatches += 1;
                let (session, tick, expected, actual) =
                    (d.session, entry.tick, d.fingerprint, fingerprint);
                self.tracer.emit(|| EventKind::DivergenceDetected {
                    session,
                    tick,
                    expected,
                    actual,
                });
            }
        }
        let (tick, nreq) = (entry.tick, entry.requests.len());
        self.tracer.emit(|| EventKind::ReplEntryApplied {
            tick,
            requests: nreq,
        });
        if let Some(repl) = self.repl.as_mut() {
            repl.divergences += mismatches;
            repl.applied = entry.tick;
        }
        Some(entry.tick)
    }

    /// Restore this replica from a shipped join anchor (the first item
    /// of a subscription): decode, rebuild the whole service from it, and
    /// take its tick as the replication frontier.
    pub fn restore_from_anchor(
        &mut self,
        state: &[u8],
        tick: u64,
        term: u64,
    ) -> Result<(), RecoveryError> {
        self.restore_from_checkpoint(Checkpoint::decode(state)?)?;
        if let Some(repl) = self.repl.as_mut() {
            if term > repl.term {
                repl.term = term;
            }
            repl.applied = tick;
            repl.anchor_tick = tick;
        }
        self.tick = self.tick.max(tick);
        Ok(())
    }

    /// Serve a `Promote`: fence off the old primary by bumping the term
    /// and start accepting mutations. Refused on a primary, without
    /// replication, and — crucially — on a replica whose replay ever
    /// diverged: a diverged follower cannot vouch for its state.
    pub(crate) fn handle_promote(&mut self) -> ResponseKind {
        let Some(repl) = self.repl.as_mut() else {
            return ResponseKind::error(
                "unsupported",
                "promotion needs replication configured on this replica",
            );
        };
        if repl.role == Role::Primary {
            return ResponseKind::error("bad_request", "this replica is already the primary");
        }
        if repl.divergences > 0 {
            let n = repl.divergences;
            return ResponseKind::error(
                "divergence",
                format!("refusing promotion: {n} divergence(s) detected during replay"),
            );
        }
        repl.role = Role::Primary;
        repl.term += 1;
        let term = repl.term;
        let tick = repl.applied;
        self.tick = self.tick.max(tick);
        self.tracer.emit(|| EventKind::TermBumped {
            term,
            reason: "promoted to primary".to_string(),
        });
        ResponseKind::Promoted { term, tick }
    }

    /// Serve a `ReplStatus` introspection query.
    pub(crate) fn handle_repl_status(&self) -> ResponseKind {
        let Some(repl) = self.repl.as_ref() else {
            return ResponseKind::error(
                "unsupported",
                "replication is not configured on this replica",
            );
        };
        ResponseKind::ReplStatus {
            role: repl.role.label().to_string(),
            term: repl.term,
            tick: self.frontier(repl),
            // No replica retains entries; the member stays for the dialect.
            log_entries: 0,
            anchor_tick: repl.anchor_tick,
            divergences: repl.divergences,
        }
    }
}

/// Send `sink` one item carrying a fresh ack channel and wait for the
/// ack; false when the sink hung up or the ack timed out.
fn deliver(
    sink: &mpsc::Sender<ReplItem>,
    item: impl FnOnce(mpsc::Sender<u64>) -> ReplItem,
    ack_timeout: Duration,
) -> bool {
    let (ack_tx, ack_rx) = mpsc::channel();
    sink.send(item(ack_tx)).is_ok() && ack_rx.recv_timeout(ack_timeout).is_ok()
}

/// Ship one committed entry to every follower sink and await each ack;
/// a sink that hung up or timed out is dropped (`FollowerLost`) so the
/// surviving fleet keeps the primary answering.
pub(crate) fn ship_entry(
    service: &DecisionService,
    sinks: &mut Vec<mpsc::Sender<ReplItem>>,
    entry: &WireLogEntry,
    ack_timeout: Duration,
) {
    if sinks.is_empty() {
        return;
    }
    sinks.retain(|sink| {
        let item = |ack| ReplItem::Entry {
            entry: entry.clone(),
            ack,
        };
        let acked = deliver(sink, item, ack_timeout);
        if !acked {
            let detail = format!("no ack shipping the entry for tick {}", entry.tick);
            service.tracer().emit(|| EventKind::FollowerLost { detail });
        }
        acked
    });
    let (tick, followers) = (entry.tick, sinks.len());
    service
        .tracer()
        .emit(|| EventKind::ReplEntryShipped { tick, followers });
}

/// Bring one follower sink up to date: encode the join anchor and wait
/// for its ack. Only a follower that restored it joins the shipping
/// fleet, and the next committed tick is the first entry it receives.
pub(crate) fn attach_follower(
    service: &mut DecisionService,
    sink: &mpsc::Sender<ReplItem>,
    ack_timeout: Duration,
) -> bool {
    let Some((state, tick, term)) = service.join_anchor() else {
        return false; // replication is off; nothing to subscribe to
    };
    let snapshot = |ack| ReplItem::Snapshot {
        state,
        tick,
        term,
        ack,
    };
    if !deliver(sink, snapshot, ack_timeout) {
        service.tracer().emit(|| EventKind::FollowerLost {
            detail: "no ack restoring the join anchor".to_string(),
        });
        return false;
    }
    let anchor_tick = tick;
    service
        .tracer()
        .emit(|| EventKind::FollowerJoined { anchor_tick });
    true
}

/// Apply one shipped replication item on this worker's service and ack
/// it. A refused item (stale term, or this replica is itself a primary)
/// is deliberately not acked: the shipper times out and drops us, which
/// is exactly how a deposed primary loses its fleet.
pub(crate) fn apply_repl_item(service: &mut DecisionService, item: ReplItem) {
    match item {
        ReplItem::Snapshot {
            state,
            tick,
            term,
            ack,
        } => {
            if service.restore_from_anchor(&state, tick, term).is_ok() {
                let _ = ack.send(tick);
            }
        }
        ReplItem::Entry { entry, ack } => {
            if let Some(tick) = service.apply_repl_entry(&entry) {
                let _ = ack.send(tick);
            }
        }
    }
}
