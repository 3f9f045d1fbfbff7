//! Replication for the decision service: roles, the bounded
//! checkpoint-anchored log, the items shipped to followers, the service's
//! commit/replay/promotion methods, and the worker's shipping endpoint.
//!
//! The protocol rides the determinism contract proven in `tests/serve.rs`:
//! responses are a pure function of the id-ordered per-session request
//! sequences, so a follower that replays the primary's admitted batches in
//! tick order rebuilds byte-identical state. The primary therefore ships
//! *inputs* (admitted request batches as [`WireLogEntry`]s), not outputs,
//! and the follower cross-checks its replay against the primary's
//! [`SessionDigest`]s to catch any divergence.
//!
//! The log stays bounded by anchoring to `bap-recovery` checkpoints: once
//! the suffix outgrows its capacity the log re-anchors on a fresh encoded
//! checkpoint and clears the suffix, so a cold follower always joins from
//! one checkpoint plus at most `capacity` entries.

use crate::serve::{BatchContext, BrownoutLevel, DecisionService};
use bap_recovery::{Checkpoint, RecoveryError};
use bap_trace::wire::{RequestKind, ResponseKind, SessionDigest, WireLogEntry, WireRequest};
use bap_trace::EventKind;
use bap_types::ReplicationConfig;
use std::collections::{BTreeSet, VecDeque};
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

/// The bounded replication log: an anchor checkpoint plus a suffix of
/// committed entries. A joining follower restores the anchor and replays
/// the suffix; an in-sync follower receives each new entry as it commits.
#[derive(Clone, Debug)]
pub struct ReplicationLog {
    capacity: usize,
    anchor: Vec<u8>,
    anchor_tick: u64,
    anchor_term: u64,
    entries: VecDeque<WireLogEntry>,
}

impl ReplicationLog {
    /// A log anchored on `anchor` (encoded checkpoint bytes) covering
    /// state up to `anchor_tick` under `anchor_term`.
    pub fn new(capacity: usize, anchor: Vec<u8>, anchor_tick: u64, anchor_term: u64) -> Self {
        ReplicationLog {
            capacity: capacity.max(1),
            anchor,
            anchor_tick,
            anchor_term,
            entries: VecDeque::new(),
        }
    }

    /// Append one committed entry to the suffix.
    pub fn append(&mut self, entry: WireLogEntry) {
        self.entries.push_back(entry);
    }

    /// True once the suffix outgrew its capacity and the log should
    /// re-anchor on a fresh checkpoint.
    pub fn needs_anchor(&self) -> bool {
        self.entries.len() > self.capacity
    }

    /// Replace the anchor with a fresh checkpoint and clear the suffix;
    /// returns how many entries the re-anchor dropped.
    pub fn re_anchor(&mut self, anchor: Vec<u8>, anchor_tick: u64, anchor_term: u64) -> usize {
        let dropped = self.entries.len();
        self.anchor = anchor;
        self.anchor_tick = anchor_tick;
        self.anchor_term = anchor_term;
        self.entries.clear();
        dropped
    }

    /// The anchor checkpoint: `(encoded bytes, tick, term)`.
    pub fn anchor(&self) -> (&[u8], u64, u64) {
        (&self.anchor, self.anchor_tick, self.anchor_term)
    }

    /// The suffix entries after `after_tick`, in commit order.
    pub fn suffix(&self, after_tick: u64) -> Vec<WireLogEntry> {
        self.entries
            .iter()
            .filter(|e| e.tick > after_tick)
            .cloned()
            .collect()
    }

    /// Suffix length.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the suffix is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One item shipped over a replication subscription. The `ack` channel
/// carries the applied tick back to the shipper — the primary holds client
/// responses until every live follower has acked, which is what makes an
/// acknowledged decision durable across a primary kill.
pub enum ReplItem {
    /// The anchor checkpoint a joining follower restores first.
    Snapshot {
        /// Encoded `bap-recovery` checkpoint bytes.
        state: Vec<u8>,
        /// Tick the checkpoint covers.
        tick: u64,
        /// Term it was anchored under.
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

/// The replication half of a service: role, fencing term, the bounded
/// log, and the divergence ledger. Present exactly when
/// [`crate::ServeConfig::replication`] is set.
pub(crate) struct ReplState {
    role: Role,
    /// The fencing term. Starts at 1, bumped by promotion or by observing
    /// a higher term on a shipped entry; stamped on every wire response.
    pub(crate) term: u64,
    log: ReplicationLog,
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
    /// Term 1, anchored on `anchor` (the encoded checkpoint of the
    /// service as it starts).
    pub(crate) fn new(cfg: &ReplicationConfig, anchor: Vec<u8>) -> Self {
        ReplState {
            role: if cfg.follower {
                Role::Follower
            } else {
                Role::Primary
            },
            term: 1,
            log: ReplicationLog::new(cfg.capacity(), anchor, 0, 1),
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

    /// The current log anchor `(encoded checkpoint, tick, term)` when
    /// replication is on — what a joining follower restores first.
    pub fn log_anchor(&self) -> Option<(Vec<u8>, u64, u64)> {
        self.repl.as_ref().map(|r| {
            let (bytes, tick, term) = r.log.anchor();
            (bytes.to_vec(), tick, term)
        })
    }

    /// The log suffix after `after_tick`, in commit order (empty when
    /// replication is off).
    pub fn log_suffix(&self, after_tick: u64) -> Vec<WireLogEntry> {
        self.repl
            .as_ref()
            .map(|r| r.log.suffix(after_tick))
            .unwrap_or_default()
    }

    /// Commit the tick just served to the replication log and hand back
    /// the entry to ship. Primary only — `None` when replication is off
    /// or this replica is a follower. The entry carries the *inputs*:
    /// the batch's state-mutating requests (`Open`/`Snapshot`) in id
    /// order — queries and control frames replay to nothing — plus a
    /// [`SessionDigest`] for every session those requests touch, so a
    /// follower can both replay and cross-check. Every committed tick
    /// ships, even an all-query one: the ack-before-answer contract
    /// wants the shipped tick stream gap-free.
    pub fn log_batch(&mut self, requests: &[WireRequest], brownout: u8) -> Option<WireLogEntry> {
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
        let entry = WireLogEntry {
            tick: self.tick,
            term,
            brownout,
            requests: reqs,
            digests,
        };
        self.append_to_log(entry.clone());
        Some(entry)
    }

    /// Append one committed entry to the local log; once the suffix
    /// outgrows its capacity, re-anchor on a fresh checkpoint so the log
    /// stays bounded and a cold joiner never replays more than one
    /// capacity's worth of entries.
    fn append_to_log(&mut self, entry: WireLogEntry) {
        let needs = match self.repl.as_mut() {
            Some(repl) => {
                repl.log.append(entry);
                repl.log.needs_anchor()
            }
            None => return,
        };
        if !needs {
            return;
        }
        // Sequenced: the checkpoint borrows the whole service, the
        // re-anchor only the replication half.
        let bytes = self.checkpoint().encode();
        let tick = self.tick;
        let repl = self.repl.as_mut().expect("checked above");
        let term = repl.term;
        let dropped = repl.log.re_anchor(bytes, tick, term);
        self.tracer
            .emit(|| EventKind::ReplAnchored { tick, dropped });
    }

    /// Apply one shipped log entry (the follower side). Replays the
    /// entry's requests through the normal batch path at the shipped
    /// tick and brownout level, cross-checks the primary's digests
    /// against the replayed state, appends the entry to the local log
    /// and advances the replication frontier. Returns the applied tick
    /// (the ack), or `None` when the entry must not be applied — this
    /// replica is a primary, or the entry's term is stale (a deposed
    /// primary still shipping). A refused entry is deliberately not
    /// acked: the shipper times out and drops the connection.
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
        self.append_to_log(entry.clone());
        if let Some(repl) = self.repl.as_mut() {
            repl.divergences += mismatches;
            repl.applied = entry.tick;
        }
        Some(entry.tick)
    }

    /// Restore this replica from a shipped anchor checkpoint (the first
    /// item of a subscription): decode, rebuild the whole service from
    /// it, and re-anchor the local log on the same bytes so a promoted
    /// ex-follower can serve joiners itself.
    pub fn restore_from_anchor(
        &mut self,
        state: &[u8],
        tick: u64,
        term: u64,
    ) -> Result<(), RecoveryError> {
        let cp = Checkpoint::decode(state)?;
        self.restore_from_checkpoint(&cp)?;
        if let Some(repl) = self.repl.as_mut() {
            if term > repl.term {
                repl.term = term;
            }
            repl.applied = tick;
            repl.log.re_anchor(state.to_vec(), tick, term);
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
            tick: match repl.role {
                Role::Primary => self.tick,
                Role::Follower => repl.applied,
            },
            log_entries: repl.log.len(),
            anchor_tick: repl.log.anchor().1,
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

/// Bring one follower sink up to date: the anchor checkpoint first,
/// then the log suffix, each acked. Only a survivor of the catch-up
/// joins the shipping fleet.
pub(crate) fn attach_follower(
    service: &DecisionService,
    sink: &mpsc::Sender<ReplItem>,
    ack_timeout: Duration,
) -> bool {
    let Some((state, tick, term)) = service.log_anchor() else {
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
            detail: "no ack restoring the anchor checkpoint".to_string(),
        });
        return false;
    }
    let suffix = service.log_suffix(tick);
    let entries = suffix.len();
    for entry in suffix {
        let entry_tick = entry.tick;
        if !deliver(sink, |ack| ReplItem::Entry { entry, ack }, ack_timeout) {
            let detail = format!("no ack replaying the suffix at tick {entry_tick}");
            service.tracer().emit(|| EventKind::FollowerLost { detail });
            return false;
        }
    }
    let anchor_tick = tick;
    service.tracer().emit(|| EventKind::FollowerJoined {
        anchor_tick,
        entries,
    });
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

#[cfg(test)]
mod tests {
    use super::*;
    use bap_trace::wire::WireLogEntry;

    fn entry(tick: u64) -> WireLogEntry {
        WireLogEntry {
            tick,
            term: 1,
            brownout: 0,
            requests: vec![],
            digests: vec![],
        }
    }

    #[test]
    fn log_bounds_suffix_and_reanchors() {
        let mut log = ReplicationLog::new(2, b"anchor0".to_vec(), 0, 1);
        assert!(log.is_empty());
        for t in 1..=3 {
            log.append(entry(t));
        }
        assert!(log.needs_anchor(), "3 entries > capacity 2");
        assert_eq!(log.suffix(1).len(), 2, "suffix filters by tick");
        let dropped = log.re_anchor(b"anchor3".to_vec(), 3, 1);
        assert_eq!(dropped, 3);
        assert!(log.is_empty() && !log.needs_anchor());
        let (bytes, tick, term) = log.anchor();
        assert_eq!((bytes, tick, term), (&b"anchor3"[..], 3, 1));
    }

    #[test]
    fn zero_capacity_is_floored() {
        let mut log = ReplicationLog::new(0, vec![], 0, 1);
        log.append(entry(1));
        assert!(!log.needs_anchor(), "capacity floors at 1");
        log.append(entry(2));
        assert!(log.needs_anchor());
    }
}
