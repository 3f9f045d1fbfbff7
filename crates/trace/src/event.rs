//! The trace event model.
//!
//! One [`TraceEvent`] is one pipeline decision (or fault) at one epoch.
//! Events are self-describing: the curve snapshots carry the exact float
//! payload the solver consumed (finite `f64`s round-trip exactly through
//! the JSON writer), so an offline reader can re-run the assignment and
//! check it against the [`EventKind::AssignmentComputed`] /
//! [`EventKind::PlanInstalled`] events that follow — the replay gate
//! `exp_trace` enforces.

use serde::{Deserialize, Serialize};

/// One recorded pipeline event.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Logical sequence number, strictly increasing across the whole run
    /// (the trace's timestamp — deliberately *not* wall-clock, so traces
    /// are deterministic).
    pub seq: u64,
    /// The repartitioning epoch this event belongs to.
    pub epoch: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Every decision the pipeline can record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// An epoch boundary opened (emitted by [`crate::Tracer::begin_epoch`]).
    EpochBegin,
    /// The miss-ratio curve a solve consumed for one core: `misses[w]` is
    /// the projected miss count at `w` ways, `accesses` the denominator.
    /// Snapshots are taken *after* sanitisation, so
    /// `MissRatioCurve::from_misses(misses, accesses)` rebuilds the exact
    /// solver input.
    CurveSnapshot {
        /// The profiled core.
        core: usize,
        /// Curve denominator (total profiled accesses).
        accesses: f64,
        /// Projected misses per allocated-way count, index 0..=max_ways.
        misses: Vec<f64>,
    },
    /// A curve arrived dirty and was repaired before the solve.
    CurveSanitized {
        /// The affected core.
        core: usize,
        /// Defect classes found (see `CurveHealth::defects`).
        defects: usize,
    },
    /// Boxes 1–2: a whole Center bank granted to one core (Rule 1).
    CenterGrant {
        /// The winning core.
        core: usize,
        /// The granted Center bank.
        bank: usize,
        /// How many banks the winning lookahead bid committed to.
        lookahead_banks: usize,
        /// The bid's marginal utility per way.
        mu: f64,
    },
    /// Boxes 4–6: an incomplete core grew within its own Local bank.
    LocalGrant {
        /// The growing core.
        core: usize,
        /// Ways added.
        extra: usize,
        /// Marginal utility per way of the growth.
        mu: f64,
    },
    /// Boxes 5–6: an overflow bid paired two adjacent cores (Rule 3).
    PairFormed {
        /// The overflowing core.
        core: usize,
        /// The chosen neighbour.
        partner: usize,
        /// Ways the overflowing core ends with.
        core_ways: usize,
        /// Ways the partner ends with.
        partner_ways: usize,
        /// Marginal utility of the winning overflow bid.
        mu: f64,
    },
    /// A complete core annexed ways of an adjacent open Local bank.
    ShareTaken {
        /// The annexing (complete) core.
        core: usize,
        /// The neighbour's Local bank.
        bank: usize,
        /// Ways annexed.
        ways: usize,
        /// Marginal utility of the share bid.
        mu: f64,
    },
    /// A physical rule shaped the plan: rule 1 (whole Center banks), 2
    /// (Center holder owns its full Local bank) or 3 (Local sharing only
    /// between adjacent cores).
    RuleApplied {
        /// The rule (1–3).
        rule: u8,
        /// The core the rule applied to.
        core: usize,
        /// The bank it governed.
        bank: usize,
    },
    /// A physical rule *rejected* a candidate the utility greedy wanted.
    RuleRejected {
        /// The rule (1–3).
        rule: u8,
        /// The core whose candidate was refused.
        core: usize,
        /// The bank the candidate targeted.
        bank: usize,
        /// Why the rule said no.
        why: String,
    },
    /// A capacity assignment was computed (`policy` names the producer:
    /// `bank_aware`, `unrestricted`, `equal`, `plan_repair`,
    /// `equal_fallback`).
    AssignmentComputed {
        /// Which algorithm or ladder rung produced it.
        policy: String,
        /// Ways per core.
        ways: Vec<usize>,
    },
    /// The Bank-aware solver refused to produce a plan.
    SolverFailed {
        /// The typed error, rendered.
        error: String,
    },
    /// The controller walked its degradation ladder to this rung (1 = keep
    /// the installed plan, 2 = strip dead banks, 3 = equal fallback).
    DegradationRung {
        /// The rung taken.
        rung: u8,
    },
    /// A plan was installed into the cache.
    PlanInstalled {
        /// Ways per core.
        ways: Vec<usize>,
        /// Total ways the plan assigns.
        total_ways: usize,
    },
    /// A plan failed installation-time validation and was discarded.
    PlanRejected {
        /// The rendered `PlanError`.
        error: String,
    },
    /// A bank went offline and was flushed.
    BankOffline {
        /// The dead bank.
        bank: usize,
        /// Resident lines flushed out.
        flushed: usize,
    },
    /// A bank came back online.
    BankRestored {
        /// The repaired bank.
        bank: usize,
    },
    /// An injected fault swallowed the epoch's repartitioning trigger.
    EpochDropped,
    /// An injected fault corrupted one core's curve in flight.
    CurveCorrupted {
        /// The affected core.
        core: usize,
    },
    /// A stand-alone workload profile completed (analytic pipeline).
    WorkloadProfiled {
        /// Input position of the workload.
        index: usize,
        /// Workload name.
        name: String,
        /// Profiled L2 accesses (curve denominator).
        accesses: f64,
    },
    /// An epoch-boundary checkpoint of the full pipeline state was taken.
    CheckpointTaken {
        /// Encoded checkpoint size in bytes.
        bytes: usize,
    },
    /// A checkpoint was decoded, validated and restored into a fresh
    /// system.
    CheckpointRestored {
        /// The epoch the restored state had reached.
        epoch: u64,
        /// Recovery-ladder rung that produced the restore (1 = newest
        /// checkpoint, 2 = an older checkpoint).
        rung: u8,
    },
    /// A checkpoint candidate was rejected during recovery (checksum or
    /// version mismatch, undecodable payload, unhealthy restored curves).
    RestoreRejected {
        /// Why the candidate was refused.
        reason: String,
    },
    /// The recovery ladder fell past the checkpoint rungs: 3 = cold
    /// re-profile (all state lost), 4 = equal-partition fallback (re-profile
    /// impossible or pointless under the active policy).
    RecoveryFallback {
        /// The rung taken (3 or 4).
        rung: u8,
    },
    /// The hysteresis gate held a candidate plan back: its projected gain
    /// did not clear the migration-cost threshold.
    PlanHeld {
        /// Projected miss reduction of the candidate over the installed
        /// plan (may be negative).
        projected_gain: f64,
        /// The threshold the gain failed to clear
        /// (`min_improvement_frac × projected_keep + cost_per_way × churn`).
        threshold: f64,
        /// (bank, way) slots that would have changed owner.
        churn_ways: usize,
    },
    /// Flip-flop detection tripped: the controller entered (or re-entered)
    /// an exponential hold-off and will skip solves until it expires.
    HoldOffStarted {
        /// Hold-off length in epochs.
        epochs: u64,
        /// Re-entry level (1 = first hold-off; doubles the length).
        level: u32,
    },
    /// An epoch's solve was skipped because a hold-off is active.
    HoldOffSkipped {
        /// Epochs left before the hold-off expires.
        remaining: u64,
    },
    /// The curve-delta phase detector saw a genuine workload shift and
    /// bypassed the hysteresis gate (and any active hold-off).
    PhaseChange {
        /// Mean absolute miss-ratio delta vs the curves at the last
        /// install (maximum over cores).
        delta: f64,
    },
    /// The epoch decision budget ran out before the solver finished its
    /// Center phase: the decision was shed and the last-good plan kept.
    BudgetShed {
        /// Solver steps consumed when the budget tripped (0 when the
        /// wall-clock stage deadline tripped instead).
        steps: u64,
        /// Which limit tripped: `steps` or `deadline`.
        limit: String,
    },
    /// The step budget ran out during the Local phase: the solver closed
    /// out from its last consistent checkpoint (open cores keep their
    /// remaining own-bank ways) and still produced a valid plan.
    SolverCheckpoint {
        /// Steps consumed when the early close-out triggered.
        steps: u64,
    },
    /// One cluster shard's sub-plan was merged into the global plan.
    /// Emitted in ascending cluster order (the deterministic merge order,
    /// whatever order the shards actually solved in); multi-cluster
    /// floorplans only, so single-cluster traces are unchanged.
    ShardMerge {
        /// The merged cluster.
        cluster: usize,
        /// Cores the shard solved.
        cores: usize,
        /// Total ways the shard's sub-plan assigned.
        ways: usize,
    },
    /// The incremental solver's per-cluster dirtiness classification for
    /// one epoch decision: how many clusters' curves moved past the delta
    /// threshold and must re-solve.
    SolverDelta {
        /// Clusters whose curves moved past the threshold (re-solved).
        dirty_clusters: usize,
        /// Clusters in the floorplan.
        total_clusters: usize,
        /// Largest per-core relative curve delta observed this epoch.
        max_delta: f64,
    },
    /// A cluster's previous sub-plan was reused verbatim (warm start): its
    /// cores' curves moved less than the delta threshold since the last
    /// solve, so the deterministic sub-solve would reproduce it exactly.
    WarmStartHit {
        /// The reused cluster.
        cluster: usize,
        /// Consecutive epoch decisions this cluster has now been reused.
        streak: u64,
    },
    /// The online invariant guard found an installed-state violation.
    GuardViolation {
        /// Stable invariant label (`capacity`, `bank_rules`, `mask`,
        /// `curve_health`).
        invariant: String,
        /// Human-readable detail.
        detail: String,
    },
    /// The guard escalated violations into the degradation ladder.
    GuardEscalated {
        /// Violations that triggered the escalation.
        violations: usize,
        /// Whether the escalation managed to install a repaired plan.
        repaired: bool,
    },
    /// Wall-clock timing of one pipeline stage. Only recorded when the
    /// sink opts in ([`crate::TraceSink::wants_timings`]) — timing values
    /// are non-deterministic by nature and would break byte-identical
    /// trace comparison.
    StageTiming {
        /// Stage label (`profile`, `solve`, `epoch_boundary`, …).
        stage: String,
        /// Elapsed nanoseconds.
        nanos: u64,
        /// The bank-health mask the stage ran under (bit `b` set = bank `b`
        /// healthy; 0 = not applicable), so degraded-mode solve costs are
        /// distinguishable from healthy ones.
        mask: u64,
    },
    /// A QoS bandwidth regulator throttled requests during the last epoch
    /// (emitted once per bank per epoch boundary, from the drained
    /// accounting).
    RegulatorThrottle {
        /// Regulated domain: `noc` or `dram`.
        domain: String,
        /// The throttled bank (L2 bank or DRAM bank index per domain).
        bank: usize,
        /// Requests stalled by the regulator this epoch.
        requests: u64,
        /// Stall cycles charged this epoch.
        stall_cycles: u64,
    },
    /// Admission control accepted a core's declared SLO.
    SloAdmitted {
        /// The admitted core.
        core: usize,
        /// The analytic WCL bound under the guaranteed fallback placement.
        bound: u64,
    },
    /// Admission control rejected (or demoted) a core's declared SLO.
    SloRejected {
        /// The rejected core.
        core: usize,
        /// Why admission failed.
        reason: String,
    },
    /// The SLO enforcement pass replaced a candidate plan that would have
    /// violated an admitted SLO with the guaranteed QoS placement.
    SloEnforced {
        /// Admitted cores whose SLO the candidate violated.
        violations: usize,
        /// Best-effort cores that lost capacity to the enforcement.
        demoted: usize,
    },
    /// The decision service closed one epoch tick: a batch of concurrent
    /// requests was ordered, applied session by session and served.
    BatchDispatched {
        /// The server's epoch tick (batch number).
        tick: u64,
        /// Requests in the batch.
        requests: usize,
        /// Distinct open sessions the batch's decision work ran on
        /// (unknown and quarantined session ids are not counted).
        sessions: usize,
    },
    /// One wire request was served (emitted per request, in the
    /// deterministic id order the batch was applied in).
    RequestServed {
        /// Client-assigned correlation id.
        id: u64,
        /// Request class label (`open`, `snapshot`, `evaluate`, …).
        kind: String,
    },
    /// The decision service checkpointed every live session.
    ServerCheckpointed {
        /// Encoded checkpoint size in bytes.
        bytes: usize,
        /// Sessions captured.
        sessions: usize,
    },
    /// The decision service restored its sessions from a checkpoint
    /// (warm-start solver state included — a zero-warmup restart).
    ServerRestored {
        /// Sessions rebuilt.
        sessions: usize,
        /// The epoch tick the restored state had reached.
        tick: u64,
    },
    /// A graceful shutdown drained the in-flight requests that shared the
    /// final batch before the server exited.
    ServerDrained {
        /// In-flight requests served alongside the shutdown.
        residual: usize,
    },
    /// Backpressure shed one request with an `overloaded` answer instead
    /// of admitting it into a tick.
    OverloadShed {
        /// Which limit shed it: `queue`, `session`, `tick_budget` or
        /// `brownout`.
        reason: String,
        /// The retry hint the shed response carried, in milliseconds.
        retry_after_ms: u64,
    },
    /// Sustained over-budget ticks stepped the brownout ladder down one
    /// level (1 = budget-bounded solves, 2 = last-good answers only).
    BrownoutEnter {
        /// The level entered.
        level: u8,
        /// Consecutive over-budget ticks that triggered the step.
        over_ticks: u32,
    },
    /// Calm ticks stepped the brownout ladder back up one level
    /// (hysteretic: the exit threshold exceeds the entry threshold).
    BrownoutExit {
        /// The level returned to (0 = normal service).
        level: u8,
        /// Consecutive within-budget ticks that triggered the step.
        calm_ticks: u32,
    },
    /// A request's `deadline_ms` expired before its batch was evaluated;
    /// it was answered with the typed `deadline-exceeded` error instead
    /// of a stale solve.
    DeadlineExceeded {
        /// The expired request's correlation id.
        id: u64,
        /// The budget the request carried, in milliseconds.
        deadline_ms: u64,
    },
    /// The primary shipped one replication-log entry to its followers and
    /// collected their acks before answering the batch's clients.
    ReplEntryShipped {
        /// The committed tick.
        tick: u64,
        /// Followers that acknowledged the entry.
        followers: usize,
    },
    /// A follower replayed one shipped log entry through its own service.
    ReplEntryApplied {
        /// The applied tick.
        tick: u64,
        /// Requests the entry carried.
        requests: usize,
    },
    /// A follower joined the replication stream: it restored the join
    /// anchor, a checkpoint of the shipper's state encoded at the attach.
    FollowerJoined {
        /// Tick of the anchor it restored (the shipper's frontier).
        anchor_tick: u64,
    },
    /// A follower stopped acknowledging shipped entries and was dropped
    /// from the replication set.
    FollowerLost {
        /// Why the follower was declared lost.
        detail: String,
    },
    /// A follower's replay digest disagreed with the primary's — the
    /// replica is serving from state it cannot vouch for and refuses
    /// promotion until rebuilt.
    DivergenceDetected {
        /// The diverged session.
        session: u64,
        /// The tick at which the digests disagreed.
        tick: u64,
        /// The primary's plan fingerprint for the session.
        expected: u64,
        /// The follower's own plan fingerprint after replay.
        actual: u64,
    },
    /// The fencing term advanced, by promotion or by observing a higher
    /// term on a shipped entry.
    TermBumped {
        /// The new term.
        term: u64,
        /// `promoted` or `observed`.
        reason: String,
    },
    /// A follower refused a state-mutating client request with the typed
    /// `not-primary` error.
    NotPrimaryRejected {
        /// The refused request's correlation id.
        id: u64,
    },
    /// A shipped entry from a deposed primary (stale term, or this node is
    /// itself primary) was rejected instead of applied.
    StaleEntryRejected {
        /// The rejected entry's tick.
        tick: u64,
        /// The rejected entry's term.
        term: u64,
    },
    /// A serve connection handler failed (panic or poisoned stream); the
    /// listener dropped the connection and kept accepting.
    ConnectionFailed {
        /// What the handler reported.
        detail: String,
    },
}

impl EventKind {
    /// Stable label of the event class (summary and display keys).
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::EpochBegin => "epoch_begin",
            EventKind::CurveSnapshot { .. } => "curve_snapshot",
            EventKind::CurveSanitized { .. } => "curve_sanitized",
            EventKind::CenterGrant { .. } => "center_grant",
            EventKind::LocalGrant { .. } => "local_grant",
            EventKind::PairFormed { .. } => "pair_formed",
            EventKind::ShareTaken { .. } => "share_taken",
            EventKind::RuleApplied { .. } => "rule_applied",
            EventKind::RuleRejected { .. } => "rule_rejected",
            EventKind::AssignmentComputed { .. } => "assignment_computed",
            EventKind::SolverFailed { .. } => "solver_failed",
            EventKind::DegradationRung { .. } => "degradation_rung",
            EventKind::PlanInstalled { .. } => "plan_installed",
            EventKind::PlanRejected { .. } => "plan_rejected",
            EventKind::BankOffline { .. } => "bank_offline",
            EventKind::BankRestored { .. } => "bank_restored",
            EventKind::EpochDropped => "epoch_dropped",
            EventKind::CurveCorrupted { .. } => "curve_corrupted",
            EventKind::WorkloadProfiled { .. } => "workload_profiled",
            EventKind::CheckpointTaken { .. } => "checkpoint_taken",
            EventKind::CheckpointRestored { .. } => "checkpoint_restored",
            EventKind::RestoreRejected { .. } => "restore_rejected",
            EventKind::RecoveryFallback { .. } => "recovery_fallback",
            EventKind::PlanHeld { .. } => "plan_held",
            EventKind::HoldOffStarted { .. } => "holdoff_started",
            EventKind::HoldOffSkipped { .. } => "holdoff_skipped",
            EventKind::PhaseChange { .. } => "phase_change",
            EventKind::BudgetShed { .. } => "budget_shed",
            EventKind::SolverCheckpoint { .. } => "solver_checkpoint",
            EventKind::ShardMerge { .. } => "shard_merge",
            EventKind::SolverDelta { .. } => "solver_delta",
            EventKind::WarmStartHit { .. } => "warm_start_hit",
            EventKind::GuardViolation { .. } => "guard_violation",
            EventKind::GuardEscalated { .. } => "guard_escalated",
            EventKind::StageTiming { .. } => "stage_timing",
            EventKind::RegulatorThrottle { .. } => "regulator_throttle",
            EventKind::SloAdmitted { .. } => "slo_admitted",
            EventKind::SloRejected { .. } => "slo_rejected",
            EventKind::SloEnforced { .. } => "slo_enforced",
            EventKind::BatchDispatched { .. } => "batch_dispatched",
            EventKind::RequestServed { .. } => "request_served",
            EventKind::ServerCheckpointed { .. } => "server_checkpointed",
            EventKind::ServerRestored { .. } => "server_restored",
            EventKind::ServerDrained { .. } => "server_drained",
            EventKind::OverloadShed { .. } => "overload_shed",
            EventKind::BrownoutEnter { .. } => "brownout_enter",
            EventKind::BrownoutExit { .. } => "brownout_exit",
            EventKind::DeadlineExceeded { .. } => "deadline_exceeded",
            EventKind::ReplEntryShipped { .. } => "repl_entry_shipped",
            EventKind::ReplEntryApplied { .. } => "repl_entry_applied",
            EventKind::FollowerJoined { .. } => "follower_joined",
            EventKind::FollowerLost { .. } => "follower_lost",
            EventKind::DivergenceDetected { .. } => "divergence_detected",
            EventKind::TermBumped { .. } => "term_bumped",
            EventKind::NotPrimaryRejected { .. } => "not_primary_rejected",
            EventKind::StaleEntryRejected { .. } => "stale_entry_rejected",
            EventKind::ConnectionFailed { .. } => "connection_failed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_externally_tagged() {
        let ev = TraceEvent {
            seq: 7,
            epoch: 2,
            kind: EventKind::RuleRejected {
                rule: 3,
                core: 1,
                bank: 5,
                why: "not adjacent".to_string(),
            },
        };
        let text = serde_json::to_string(&ev).unwrap();
        assert!(text.contains("\"RuleRejected\""), "{text}");
        let back: TraceEvent = serde_json::from_str(&text).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn float_payloads_round_trip_exactly() {
        let misses: Vec<f64> = (0..16).map(|w| 1000.0 / (w as f64 + 0.3)).collect();
        let ev = TraceEvent {
            seq: 1,
            epoch: 0,
            kind: EventKind::CurveSnapshot {
                core: 0,
                accesses: 12_345.678_901_234,
                misses: misses.clone(),
            },
        };
        let text = serde_json::to_string(&ev).unwrap();
        let back: TraceEvent = serde_json::from_str(&text).unwrap();
        let EventKind::CurveSnapshot {
            misses: back_misses,
            accesses,
            ..
        } = back.kind
        else {
            panic!("wrong variant");
        };
        assert_eq!(back_misses, misses, "bit-exact float round trip");
        assert_eq!(accesses, 12_345.678_901_234);
    }

    #[test]
    fn stability_variants_round_trip() {
        let kinds = vec![
            EventKind::PlanHeld {
                projected_gain: 12.5,
                threshold: 40.0,
                churn_ways: 17,
            },
            EventKind::HoldOffStarted {
                epochs: 8,
                level: 2,
            },
            EventKind::HoldOffSkipped { remaining: 3 },
            EventKind::PhaseChange { delta: 0.31 },
            EventKind::BudgetShed {
                steps: 500,
                limit: "steps".to_string(),
            },
            EventKind::SolverCheckpoint { steps: 1200 },
            EventKind::ShardMerge {
                cluster: 3,
                cores: 8,
                ways: 128,
            },
            EventKind::SolverDelta {
                dirty_clusters: 2,
                total_clusters: 16,
                max_delta: 0.042,
            },
            EventKind::WarmStartHit {
                cluster: 11,
                streak: 7,
            },
            EventKind::GuardViolation {
                invariant: "capacity".to_string(),
                detail: "plan uses 130/128 ways".to_string(),
            },
            EventKind::GuardEscalated {
                violations: 2,
                repaired: true,
            },
            EventKind::StageTiming {
                stage: "solve".to_string(),
                nanos: 12_000,
                mask: 0xFDFF,
            },
            EventKind::RegulatorThrottle {
                domain: "noc".to_string(),
                bank: 9,
                requests: 41,
                stall_cycles: 512,
            },
            EventKind::SloAdmitted {
                core: 0,
                bound: 906,
            },
            EventKind::SloRejected {
                core: 3,
                reason: "min_ways 40 exceeds reservable capacity".to_string(),
            },
            EventKind::SloEnforced {
                violations: 1,
                demoted: 5,
            },
        ];
        for kind in kinds {
            let ev = TraceEvent {
                seq: 9,
                epoch: 4,
                kind: kind.clone(),
            };
            let text = serde_json::to_string(&ev).unwrap();
            let back: TraceEvent = serde_json::from_str(&text).unwrap();
            assert_eq!(back.kind, kind, "{text}");
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn server_variants_round_trip() {
        let kinds = vec![
            EventKind::BatchDispatched {
                tick: 12,
                requests: 9,
                sessions: 3,
            },
            EventKind::RequestServed {
                id: 1_000_004,
                kind: "snapshot".to_string(),
            },
            EventKind::ServerCheckpointed {
                bytes: 65_536,
                sessions: 8,
            },
            EventKind::ServerRestored {
                sessions: 8,
                tick: 12,
            },
            EventKind::ServerDrained { residual: 5 },
            EventKind::OverloadShed {
                reason: "queue".to_string(),
                retry_after_ms: 12,
            },
            EventKind::BrownoutEnter {
                level: 2,
                over_ticks: 3,
            },
            EventKind::BrownoutExit {
                level: 0,
                calm_ticks: 4,
            },
            EventKind::DeadlineExceeded {
                id: 1_000_017,
                deadline_ms: 25,
            },
        ];
        for kind in kinds {
            let ev = TraceEvent {
                seq: 3,
                epoch: 12,
                kind: kind.clone(),
            };
            let text = serde_json::to_string(&ev).unwrap();
            let back: TraceEvent = serde_json::from_str(&text).unwrap();
            assert_eq!(back.kind, kind, "{text}");
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn replication_variants_round_trip() {
        let kinds = vec![
            EventKind::ReplEntryShipped {
                tick: 40,
                followers: 2,
            },
            EventKind::ReplEntryApplied {
                tick: 40,
                requests: 7,
            },
            EventKind::FollowerJoined { anchor_tick: 35 },
            EventKind::FollowerLost {
                detail: "ack timeout".to_string(),
            },
            EventKind::DivergenceDetected {
                session: 3,
                tick: 41,
                expected: 0xFEED,
                actual: 0xFEEC,
            },
            EventKind::TermBumped {
                term: 2,
                reason: "promoted".to_string(),
            },
            EventKind::NotPrimaryRejected { id: 1_000_021 },
            EventKind::StaleEntryRejected { tick: 42, term: 1 },
            EventKind::ConnectionFailed {
                detail: "handler panicked".to_string(),
            },
        ];
        for kind in kinds {
            let ev = TraceEvent {
                seq: 4,
                epoch: 40,
                kind: kind.clone(),
            };
            let text = serde_json::to_string(&ev).unwrap();
            let back: TraceEvent = serde_json::from_str(&text).unwrap();
            assert_eq!(back.kind, kind, "{text}");
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn unit_variants_round_trip() {
        for kind in [EventKind::EpochBegin, EventKind::EpochDropped] {
            let ev = TraceEvent {
                seq: 0,
                epoch: 0,
                kind: kind.clone(),
            };
            let text = serde_json::to_string(&ev).unwrap();
            let back: TraceEvent = serde_json::from_str(&text).unwrap();
            assert_eq!(back.kind, kind);
        }
    }
}
