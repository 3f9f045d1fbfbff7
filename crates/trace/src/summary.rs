//! The per-run trace summary.
//!
//! An enabled [`crate::Tracer`] counts every event class as it passes, so a
//! run's decision story is available as a handful of integers without
//! retaining the event stream — this is what `RunResult` carries and the
//! HTML report renders.

use crate::event::EventKind;
use serde::Serialize;

/// Event-class counters accumulated over one traced run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct TraceSummary {
    /// Every event recorded (timings excluded).
    pub events: u64,
    /// Epoch boundaries opened.
    pub epochs: u64,
    /// Curve snapshots taken for solves.
    pub curve_snapshots: u64,
    /// Curves repaired before a solve.
    pub curves_sanitized: u64,
    /// Whole Center banks granted (Rule 1 applications via Boxes 1–2).
    pub center_grants: u64,
    /// Way-granular growths inside a core's own Local bank.
    pub local_grants: u64,
    /// Adjacent pairs formed by overflow bids.
    pub pairs_formed: u64,
    /// Shares of open Local banks annexed by complete cores.
    pub shares_taken: u64,
    /// Physical-rule applications recorded.
    pub rules_applied: u64,
    /// Candidates the physical rules refused.
    pub rules_rejected: u64,
    /// Capacity assignments computed (any policy).
    pub assignments: u64,
    /// Bank-aware solver refusals.
    pub solver_failures: u64,
    /// Degradation-ladder rungs taken.
    pub degradation_rungs: u64,
    /// Plans installed into the cache.
    pub plans_installed: u64,
    /// Plans rejected at installation.
    pub plans_rejected: u64,
    /// Banks taken offline.
    pub banks_offline: u64,
    /// Banks restored.
    pub banks_restored: u64,
    /// Epoch triggers lost to injected faults.
    pub epochs_dropped: u64,
    /// Curves corrupted in flight by injected faults.
    pub curves_corrupted: u64,
    /// Stand-alone workload profiles completed.
    pub workloads_profiled: u64,
    /// Epoch-boundary checkpoints taken.
    pub checkpoints_taken: u64,
    /// Checkpoints successfully restored.
    pub checkpoints_restored: u64,
    /// Checkpoint candidates rejected during recovery.
    pub restores_rejected: u64,
    /// Recovery-ladder fallbacks past the checkpoint rungs.
    pub recovery_fallbacks: u64,
    /// Candidate plans held back by the hysteresis gate.
    pub plans_held: u64,
    /// Hold-offs entered after flip-flop detection.
    pub holdoffs_started: u64,
    /// Epoch solves skipped inside an active hold-off.
    pub holdoffs_skipped: u64,
    /// Phase changes that bypassed the gate or a hold-off.
    pub phase_changes: u64,
    /// Epoch decisions shed to the last-good plan on budget exhaustion.
    pub budget_sheds: u64,
    /// Solver early close-outs from a consistent checkpoint.
    pub solver_checkpoints: u64,
    /// Cluster shards merged into global plans (multi-cluster solves).
    pub shard_merges: u64,
    /// Incremental-solver per-epoch dirtiness classifications.
    pub solver_deltas: u64,
    /// Cluster sub-plans reused verbatim by the warm-start path.
    pub warm_start_hits: u64,
    /// Invariant violations the online guard caught.
    pub guard_violations: u64,
    /// Guard escalations into the degradation ladder.
    pub guard_escalations: u64,
    /// Stage timings recorded (only with a timing-hungry sink).
    pub stage_timings: u64,
    /// Per-bank-per-epoch regulator throttle reports.
    pub regulator_throttles: u64,
    /// SLO admissions granted.
    pub slo_admissions: u64,
    /// SLO admissions rejected (or demoted).
    pub slo_rejections: u64,
    /// Candidate plans replaced by the SLO enforcement pass.
    pub slo_enforcements: u64,
    /// Server batches (epoch ticks) dispatched.
    pub batches_dispatched: u64,
    /// Wire requests served by the decision service.
    pub requests_served: u64,
    /// Server-wide checkpoints taken.
    pub server_checkpoints: u64,
    /// Server restores from a checkpoint.
    pub server_restores: u64,
    /// Graceful-shutdown drains of in-flight batches.
    pub server_drains: u64,
    /// Requests shed by backpressure with an `overloaded` answer.
    pub overload_sheds: u64,
    /// Brownout-ladder entries (steps down a level).
    pub brownout_enters: u64,
    /// Brownout-ladder exits (steps back up a level).
    pub brownout_exits: u64,
    /// Requests whose deadline expired before evaluation.
    pub deadline_exceeded: u64,
    /// Replication-log entries shipped (and acked) to followers.
    pub repl_entries_shipped: u64,
    /// Shipped log entries replayed by this follower.
    pub repl_entries_applied: u64,
    /// Followers that joined the replication stream.
    pub followers_joined: u64,
    /// Followers dropped for missed acks or closed streams.
    pub followers_lost: u64,
    /// Replay digest mismatches detected.
    pub divergences: u64,
    /// Fencing-term advances (promotions or observed higher terms).
    pub term_bumps: u64,
    /// State-mutating requests a follower refused with `not-primary`.
    pub not_primary_rejections: u64,
    /// Stale-term (or wrong-role) shipped entries rejected.
    pub stale_entries_rejected: u64,
    /// Serve connection handlers that failed without killing the listener.
    pub connection_failures: u64,
}

impl TraceSummary {
    /// Count one event.
    pub fn count(&mut self, kind: &EventKind) {
        self.events += 1;
        match kind {
            EventKind::EpochBegin => self.epochs += 1,
            EventKind::CurveSnapshot { .. } => self.curve_snapshots += 1,
            EventKind::CurveSanitized { .. } => self.curves_sanitized += 1,
            EventKind::CenterGrant { .. } => self.center_grants += 1,
            EventKind::LocalGrant { .. } => self.local_grants += 1,
            EventKind::PairFormed { .. } => self.pairs_formed += 1,
            EventKind::ShareTaken { .. } => self.shares_taken += 1,
            EventKind::RuleApplied { .. } => self.rules_applied += 1,
            EventKind::RuleRejected { .. } => self.rules_rejected += 1,
            EventKind::AssignmentComputed { .. } => self.assignments += 1,
            EventKind::SolverFailed { .. } => self.solver_failures += 1,
            EventKind::DegradationRung { .. } => self.degradation_rungs += 1,
            EventKind::PlanInstalled { .. } => self.plans_installed += 1,
            EventKind::PlanRejected { .. } => self.plans_rejected += 1,
            EventKind::BankOffline { .. } => self.banks_offline += 1,
            EventKind::BankRestored { .. } => self.banks_restored += 1,
            EventKind::EpochDropped => self.epochs_dropped += 1,
            EventKind::CurveCorrupted { .. } => self.curves_corrupted += 1,
            EventKind::WorkloadProfiled { .. } => self.workloads_profiled += 1,
            EventKind::CheckpointTaken { .. } => self.checkpoints_taken += 1,
            EventKind::CheckpointRestored { .. } => self.checkpoints_restored += 1,
            EventKind::RestoreRejected { .. } => self.restores_rejected += 1,
            EventKind::RecoveryFallback { .. } => self.recovery_fallbacks += 1,
            EventKind::PlanHeld { .. } => self.plans_held += 1,
            EventKind::HoldOffStarted { .. } => self.holdoffs_started += 1,
            EventKind::HoldOffSkipped { .. } => self.holdoffs_skipped += 1,
            EventKind::PhaseChange { .. } => self.phase_changes += 1,
            EventKind::BudgetShed { .. } => self.budget_sheds += 1,
            EventKind::SolverCheckpoint { .. } => self.solver_checkpoints += 1,
            EventKind::ShardMerge { .. } => self.shard_merges += 1,
            EventKind::SolverDelta { .. } => self.solver_deltas += 1,
            EventKind::WarmStartHit { .. } => self.warm_start_hits += 1,
            EventKind::GuardViolation { .. } => self.guard_violations += 1,
            EventKind::GuardEscalated { .. } => self.guard_escalations += 1,
            EventKind::StageTiming { .. } => {
                // Timings are bookkeeping, not pipeline decisions.
                self.events -= 1;
                self.stage_timings += 1;
            }
            EventKind::RegulatorThrottle { .. } => self.regulator_throttles += 1,
            EventKind::SloAdmitted { .. } => self.slo_admissions += 1,
            EventKind::SloRejected { .. } => self.slo_rejections += 1,
            EventKind::SloEnforced { .. } => self.slo_enforcements += 1,
            EventKind::BatchDispatched { .. } => self.batches_dispatched += 1,
            EventKind::RequestServed { .. } => self.requests_served += 1,
            EventKind::ServerCheckpointed { .. } => self.server_checkpoints += 1,
            EventKind::ServerRestored { .. } => self.server_restores += 1,
            EventKind::ServerDrained { .. } => self.server_drains += 1,
            EventKind::OverloadShed { .. } => self.overload_sheds += 1,
            EventKind::BrownoutEnter { .. } => self.brownout_enters += 1,
            EventKind::BrownoutExit { .. } => self.brownout_exits += 1,
            EventKind::DeadlineExceeded { .. } => self.deadline_exceeded += 1,
            EventKind::ReplEntryShipped { .. } => self.repl_entries_shipped += 1,
            EventKind::ReplEntryApplied { .. } => self.repl_entries_applied += 1,
            EventKind::FollowerJoined { .. } => self.followers_joined += 1,
            EventKind::FollowerLost { .. } => self.followers_lost += 1,
            EventKind::DivergenceDetected { .. } => self.divergences += 1,
            EventKind::TermBumped { .. } => self.term_bumps += 1,
            EventKind::NotPrimaryRejected { .. } => self.not_primary_rejections += 1,
            EventKind::StaleEntryRejected { .. } => self.stale_entries_rejected += 1,
            EventKind::ConnectionFailed { .. } => self.connection_failures += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_event_classes() {
        let mut s = TraceSummary::default();
        s.count(&EventKind::EpochBegin);
        s.count(&EventKind::CenterGrant {
            core: 0,
            bank: 9,
            lookahead_banks: 2,
            mu: 1.0,
        });
        s.count(&EventKind::StageTiming {
            stage: "solve".to_string(),
            nanos: 10,
            mask: 0xFFFF,
        });
        assert_eq!(s.events, 2, "timings stay out of the decision count");
        assert_eq!(s.epochs, 1);
        assert_eq!(s.center_grants, 1);
        assert_eq!(s.stage_timings, 1);
    }

    #[test]
    fn qos_events_are_counted() {
        let mut s = TraceSummary::default();
        s.count(&EventKind::SloAdmitted {
            core: 0,
            bound: 900,
        });
        s.count(&EventKind::SloRejected {
            core: 1,
            reason: "x".to_string(),
        });
        s.count(&EventKind::SloEnforced {
            violations: 1,
            demoted: 3,
        });
        s.count(&EventKind::RegulatorThrottle {
            domain: "dram".to_string(),
            bank: 4,
            requests: 7,
            stall_cycles: 99,
        });
        assert_eq!(s.events, 4);
        assert_eq!(s.slo_admissions, 1);
        assert_eq!(s.slo_rejections, 1);
        assert_eq!(s.slo_enforcements, 1);
        assert_eq!(s.regulator_throttles, 1);
    }

    #[test]
    fn server_events_are_counted() {
        let mut s = TraceSummary::default();
        s.count(&EventKind::BatchDispatched {
            tick: 1,
            requests: 4,
            sessions: 2,
        });
        s.count(&EventKind::RequestServed {
            id: 7,
            kind: "snapshot".to_string(),
        });
        s.count(&EventKind::ServerCheckpointed {
            bytes: 1024,
            sessions: 2,
        });
        s.count(&EventKind::ServerRestored {
            sessions: 2,
            tick: 1,
        });
        s.count(&EventKind::ServerDrained { residual: 3 });
        assert_eq!(s.events, 5);
        assert_eq!(s.batches_dispatched, 1);
        assert_eq!(s.requests_served, 1);
        assert_eq!(s.server_checkpoints, 1);
        assert_eq!(s.server_restores, 1);
        assert_eq!(s.server_drains, 1);
    }

    #[test]
    fn overload_events_are_counted() {
        let mut s = TraceSummary::default();
        s.count(&EventKind::OverloadShed {
            reason: "queue".to_string(),
            retry_after_ms: 9,
        });
        s.count(&EventKind::BrownoutEnter {
            level: 1,
            over_ticks: 2,
        });
        s.count(&EventKind::BrownoutExit {
            level: 0,
            calm_ticks: 4,
        });
        s.count(&EventKind::DeadlineExceeded {
            id: 7,
            deadline_ms: 10,
        });
        assert_eq!(s.events, 4);
        assert_eq!(s.overload_sheds, 1);
        assert_eq!(s.brownout_enters, 1);
        assert_eq!(s.brownout_exits, 1);
        assert_eq!(s.deadline_exceeded, 1);
    }

    #[test]
    fn replication_events_are_counted() {
        let mut s = TraceSummary::default();
        s.count(&EventKind::ReplEntryShipped {
            tick: 1,
            followers: 1,
        });
        s.count(&EventKind::ReplEntryApplied {
            tick: 1,
            requests: 3,
        });
        s.count(&EventKind::FollowerJoined { anchor_tick: 0 });
        s.count(&EventKind::FollowerLost {
            detail: "ack timeout".to_string(),
        });
        s.count(&EventKind::DivergenceDetected {
            session: 1,
            tick: 2,
            expected: 1,
            actual: 2,
        });
        s.count(&EventKind::TermBumped {
            term: 2,
            reason: "promoted".to_string(),
        });
        s.count(&EventKind::NotPrimaryRejected { id: 9 });
        s.count(&EventKind::StaleEntryRejected { tick: 3, term: 1 });
        s.count(&EventKind::ConnectionFailed {
            detail: "panic".to_string(),
        });
        assert_eq!(s.events, 9);
        assert_eq!(s.repl_entries_shipped, 1);
        assert_eq!(s.repl_entries_applied, 1);
        assert_eq!(s.followers_joined, 1);
        assert_eq!(s.followers_lost, 1);
        assert_eq!(s.divergences, 1);
        assert_eq!(s.term_bumps, 1);
        assert_eq!(s.not_primary_rejections, 1);
        assert_eq!(s.stale_entries_rejected, 1);
        assert_eq!(s.connection_failures, 1);
    }
}
