//! The multi-tenant decision service: sessions, the three-phase batch that
//! is one epoch tick, and checkpoint/restore. Replication's half of the
//! service (log, digests, promotion) lives in [`crate::replication`].

use super::governor::{BatchContext, BrownoutLevel, OverloadGovernor};
use crate::bank_aware::{try_bank_aware_partition, BankAwareConfig};
use crate::controller::{Controller, ControllerState, Policy};
use crate::replication::ReplState;
use bap_cache::PartitionPlan;
use bap_msa::{EngineKind, MissRatioCurve, ProfilerConfig};
use bap_recovery::{Checkpoint, RecoveryError, RecoveryManager, RecoveryRung};
use bap_trace::wire::{
    RequestKind, ResponseKind, WireCurve, WireRequest, WireResponse, WireSummary,
};
use bap_trace::{EventKind, NoopSink, Tracer};
use bap_types::{
    BankId, ControlConfig, DegradedTopology, OverloadConfig, ReplicationConfig, Topology,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Tunables of the decision service. The defaults mirror the experiment
/// fleet: 8-way banks and the reference profiler geometry. Every session
/// solves warm, as every controller does.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Ways per L2 bank on every session's machine.
    pub bank_ways: usize,
    /// Profiler sets per session core (reference geometry).
    pub profiler_sets: usize,
    /// Profiler way depth per session core.
    pub profiler_max_ways: usize,
    /// Bank-aware solver tunables shared by all sessions.
    pub solver: BankAwareConfig,
    /// Control-loop bundle each session's controller runs under.
    pub control: ControlConfig,
    /// Checkpoints retained in the in-memory recovery ring.
    pub history: usize,
    /// When set, every [`RequestKind::Checkpoint`] also persists the
    /// checkpoint to this file (atomic tmp+rename), and
    /// [`DecisionService::restore_from_path`] can cold-start from it.
    pub checkpoint_path: Option<PathBuf>,
    /// Largest session machine an `Open` may request.
    pub max_cores: usize,
    /// Service-level trace handle (batch/checkpoint/drain events). Session
    /// controllers get their own summary-only tracers regardless.
    pub tracer: Tracer,
    /// Overload regulation (deadlines, backpressure, shedding, brownout).
    /// `None` — the default — leaves the service byte-identical to the
    /// unregulated server: no gate runs, no deadline is read, no event is
    /// emitted.
    pub overload: Option<OverloadConfig>,
    /// Primary/follower replication. `None` — the default — leaves the
    /// service byte-identical to the unreplicated server: no term rides
    /// any response, no log is kept, no request is refused. With the
    /// config set, the service stamps its fencing term on every response,
    /// a primary logs and ships every committed batch, and a follower
    /// refuses state mutations with `not-primary` until promoted.
    pub replication: Option<ReplicationConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bank_ways: 8,
            profiler_sets: 64,
            profiler_max_ways: 72,
            solver: BankAwareConfig::default(),
            control: ControlConfig::default(),
            history: 4,
            checkpoint_path: None,
            max_cores: 256,
            tracer: Tracer::off(),
            overload: None,
            replication: None,
        }
    }
}

/// One tenant: a controller on its own clustered ring floorplan, plus the
/// summary-only tracer that accumulates its decision story.
struct SessionState {
    cores: usize,
    bank_ways: usize,
    topo: Topology,
    controller: Controller,
    tracer: Tracer,
    /// Exactly-once cache for replicated services: the last applied
    /// `Snapshot`'s `(id, response)`. A client that never heard its
    /// acknowledged answer (the primary died after shipping, before
    /// responding) retries the same id against the promoted follower and
    /// gets this cached response instead of a double-applied epoch.
    /// Always `None` when replication is off.
    last_decision: Option<(u64, ResponseKind)>,
}

impl SessionState {
    fn new(cores: usize, cfg: &ServeConfig) -> Self {
        let topo = Topology::ring_of_paper_dies(cores);
        // Serve sessions take their curves over the wire; the profilers
        // never observe an access, so run the allocation-free Naive
        // engine — a Fenwick engine would fault in megabytes of stack
        // state per session for nothing, and session open is on the
        // serving path.
        let profiler_cfg = ProfilerConfig::reference(cfg.profiler_sets, cfg.profiler_max_ways)
            .with_engine(EngineKind::Naive);
        let mut controller = Controller::new(
            Policy::BankAware,
            topo.clone(),
            cfg.bank_ways,
            profiler_cfg,
            cfg.solver,
        );
        controller.set_control(cfg.control);
        // A NoopSink tracer retains no events but still counts the
        // summary — the cheap way to give every decision response its
        // per-session decision story.
        let tracer = Tracer::new(Box::new(NoopSink));
        controller.set_tracer(tracer.clone());
        SessionState {
            cores,
            bank_ways: cfg.bank_ways,
            topo,
            controller,
            tracer,
            last_decision: None,
        }
    }

    fn summary(&self) -> WireSummary {
        self.tracer
            .summary()
            .map(|s| WireSummary::from_summary(&s))
            .unwrap_or_default()
    }
}

/// The service's checkpointed state ([`DecisionService::snapshot`]).
#[derive(Serialize, Deserialize)]
pub struct ServiceState<'a> {
    tick: u64,
    requests: u64,
    /// Absent from pre-overload checkpoints: no session quarantined.
    #[serde(default)]
    poisoned: Vec<u64>,
    sessions: Vec<SessionEntry<'a>>,
    /// The fencing term, written only by a replicated service, so an
    /// unreplicated checkpoint keeps the pre-replication bytes.
    #[serde(skip_serializing_if = "Option::is_none")]
    term: Option<u64>,
}

/// One session of a [`ServiceState`].
#[derive(Serialize, Deserialize)]
struct SessionEntry<'a> {
    id: u64,
    cores: usize,
    state: ControllerState<'a>,
    /// The exactly-once cache, written only when populated (replicated
    /// services), so an unreplicated checkpoint keeps its bytes.
    #[serde(skip_serializing_if = "Option::is_none")]
    dedup: Option<Cow<'a, (u64, ResponseKind)>>,
}

/// Total ways per core of a plan (the wire view of an assignment).
fn per_core_ways(plan: &PartitionPlan) -> Vec<usize> {
    plan.per_core
        .iter()
        .map(|allocs| allocs.iter().map(|a| a.ways).sum())
        .collect()
}

/// The `(ways, fingerprint, source)` triple the plan-carrying responses
/// share; `(empty, 0, "none")` before the first install.
fn plan_view(ctl: &Controller) -> (Vec<usize>, u64, String) {
    let source = ctl.plan_source().label().to_string();
    match ctl.last_plan() {
        Some(p) => (per_core_ways(p), p.fingerprint(), source),
        None => (Vec::new(), 0, source),
    }
}

fn unknown_session(session: u64) -> ResponseKind {
    ResponseKind::error(
        "unknown_session",
        format!("session {session} was never opened"),
    )
}

/// The stable answer for a quarantined session: a panic poisoned it, its
/// state was discarded, and a fresh `Open` recovers it.
fn quarantined(session: u64) -> ResponseKind {
    ResponseKind::error(
        "internal",
        format!("session {session} is quarantined after a panic; re-open to recover"),
    )
}

/// Validate and convert wire curves into solver inputs.
#[allow(clippy::result_large_err)] // the Err goes straight onto the wire
fn convert_curves(curves: &[WireCurve], cores: usize) -> Result<Vec<MissRatioCurve>, ResponseKind> {
    if curves.len() != cores {
        return Err(ResponseKind::error(
            "bad_request",
            format!(
                "expected {cores} curves (one per core), got {}",
                curves.len()
            ),
        ));
    }
    if let Some(i) = curves.iter().position(|c| c.misses.is_empty()) {
        return Err(ResponseKind::error(
            "bad_request",
            format!("curve for core {i} has no miss points"),
        ));
    }
    Ok(curves
        .iter()
        .map(|c| MissRatioCurve::from_misses(c.misses.clone(), c.accesses))
        .collect())
}

/// Apply one decision request (`Snapshot`/`Evaluate`) to its session.
/// Runs inside the session's `catch_unwind` in phase 2 of the batch.
fn apply_decision(
    s: &mut SessionState,
    req: &WireRequest,
    solver: &BankAwareConfig,
    ctx: &BatchContext,
) -> ResponseKind {
    match &req.kind {
        RequestKind::Snapshot { session, curves } => {
            #[cfg(test)]
            tests::maybe_panic(*session);
            let converted = match convert_curves(curves, s.cores) {
                Ok(c) => c,
                Err(e) => return e,
            };
            let installed = if ctx.brownout == BrownoutLevel::LastGood {
                // Deep brownout: no solve at all. The epoch passes (the
                // controller's lost-trigger path) and the answer comes
                // from whatever plan is already in force.
                s.controller.skip_epoch();
                false
            } else {
                // The controller owns the full epoch pipeline: sanitise →
                // hysteresis → (warm) solve → SLO gate → install-or-hold.
                // Under brownout level 1 the solve runs against the tick
                // deadline: an overrun sheds to the last-good plan.
                s.controller
                    .epoch_boundary_with_curves_deadline(converted, ctx.solve_deadline)
                    .is_some()
            };
            let (ways, fingerprint, source) = plan_view(&s.controller);
            ResponseKind::Decision {
                session: *session,
                epoch: s.controller.epochs(),
                installed,
                ways,
                source,
                fingerprint,
                summary: s.summary(),
            }
        }
        RequestKind::Evaluate { session, curves } => {
            if ctx.brownout == BrownoutLevel::LastGood {
                // What-if solves are pure luxury under deep brownout:
                // shed them outright so the ticks stay cheap.
                return ResponseKind::overloaded(
                    "what-if evaluation shed under brownout".to_string(),
                    ctx.retry_after_ms.max(1),
                );
            }
            let mut converted = match convert_curves(curves, s.cores) {
                Ok(c) => c,
                Err(e) => return e,
            };
            // What-if solve: sanitise a private copy, solve against the
            // session's machine under its current bank mask, and throw the
            // plan away — no session state moves.
            let quiet = Tracer::off();
            for (core, c) in converted.iter_mut().enumerate() {
                c.sanitize_traced(core, &quiet);
            }
            let machine = DegradedTopology::new(s.topo.clone(), *s.controller.mask());
            match try_bank_aware_partition(&converted, &machine, s.bank_ways, solver) {
                Ok(plan) => ResponseKind::Evaluated {
                    session: *session,
                    ways: per_core_ways(&plan),
                    fingerprint: plan.fingerprint(),
                },
                Err(e) => ResponseKind::error("solve_failed", e.to_string()),
            }
        }
        _ => unreachable!("phase 2 only sees decision requests"),
    }
}

/// The multi-tenant decision service: every wire request except `Profile`
/// (which needs the workload catalog and lives in the `bap` front end) is
/// served here, deterministically, batch by batch.
pub struct DecisionService {
    pub(crate) cfg: ServeConfig,
    sessions: BTreeMap<u64, SessionState>,
    /// Sessions whose state a panic poisoned: their requests answer the
    /// stable `internal` error until a fresh `Open` rebuilds them.
    poisoned: BTreeSet<u64>,
    history: RecoveryManager,
    pub(crate) tracer: Tracer,
    /// Epoch ticks (batches) served.
    pub(crate) tick: u64,
    /// Requests served in total.
    requests: u64,
    /// Replication state; `None` when replication is off.
    pub(crate) repl: Option<ReplState>,
}

impl DecisionService {
    /// A fresh service with no sessions.
    pub fn new(cfg: ServeConfig) -> Self {
        DecisionService {
            history: RecoveryManager::new(cfg.history),
            tracer: cfg.tracer.clone(),
            repl: cfg.replication.as_ref().map(ReplState::new),
            cfg,
            sessions: BTreeMap::new(),
            poisoned: BTreeSet::new(),
            tick: 0,
            requests: 0,
        }
    }

    /// Live sessions.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Epoch ticks (batches) served so far.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// The service-level trace handle (front ends emit connection events
    /// through it).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Serve one batch: one epoch tick. Responses come back 1:1 in the
    /// *input* order of `requests`; internally the batch is applied in
    /// ascending request-id order (stable on ties), in three phases:
    ///
    /// 1. session lifecycle (`Open`);
    /// 2. decision work (`Snapshot`/`Evaluate`), session by session in
    ///    ascending session id — within a session, id order;
    /// 3. queries and service-wide operations (`Plan`, `Stats`,
    ///    `Checkpoint`, `Shutdown`), observing the post-decision state of
    ///    the tick.
    ///
    /// Every phase runs on the calling thread. A panic in one session's
    /// decision work quarantines that session only; the sessions after it
    /// still run.
    ///
    /// This makes the responses a pure function of the id-ordered
    /// per-session request sequences: how requests were split into
    /// batches, interleaved, or raced by client threads cannot change any
    /// plan, fingerprint, or error (`tick` fields excepted — the tick is
    /// honest about how work actually batched).
    pub fn process_batch(&mut self, requests: &[WireRequest]) -> Vec<WireResponse> {
        self.process_batch_with(requests, &BatchContext::default())
    }

    /// [`DecisionService::process_batch`] with an explicit overload
    /// verdict for the tick. The wall-clock reasoning (deadlines, ladder
    /// levels, retry hints) lives entirely in the [`OverloadGovernor`]
    /// that builds the context; given the same requests and the same
    /// context, this function is as deterministic as the plain batch.
    pub fn process_batch_with(
        &mut self,
        requests: &[WireRequest],
        ctx: &BatchContext,
    ) -> Vec<WireResponse> {
        self.tick += 1;
        let tick = self.tick;
        let n = requests.len();
        self.requests += n as u64;
        self.tracer.begin_epoch(tick);

        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| requests[i].id);
        let mut kinds: Vec<Option<ResponseKind>> = (0..n).map(|_| None).collect();

        let refuse = self.repl.as_ref().is_some_and(ReplState::refuses_writes);
        let fence_term = self.term().unwrap_or(0);

        // Phase 1: session lifecycle, serial in id order, so a Snapshot
        // batched together with its Open (ids permitting) already works.
        for &i in &order {
            if let RequestKind::Open { session, cores } = &requests[i].kind {
                kinds[i] = Some(if refuse {
                    let id = requests[i].id;
                    self.tracer.emit(|| EventKind::NotPrimaryRejected { id });
                    ResponseKind::not_primary(fence_term)
                } else {
                    self.handle_open(*session, *cores)
                });
            }
        }

        // Phase 2: decision work, serial in ascending session id; within a
        // session, id order.
        let mut by_session: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for &i in &order {
            match &requests[i].kind {
                RequestKind::Snapshot { session, .. } | RequestKind::Evaluate { session, .. } => {
                    if refuse {
                        let id = requests[i].id;
                        self.tracer.emit(|| EventKind::NotPrimaryRejected { id });
                        kinds[i] = Some(ResponseKind::not_primary(fence_term));
                    } else {
                        by_session.entry(*session).or_default().push(i);
                    }
                }
                _ => {}
            }
        }
        let solver = self.cfg.solver;
        // Replicated services cache each session's last applied Snapshot
        // by request id: a client that never heard its acknowledged
        // answer (the primary died after shipping, before responding)
        // retries the same id against the promoted follower and gets the
        // cached response instead of a double-applied epoch.
        let dedup = self.repl.is_some();
        let mut touched = 0;
        for (session, idxs) in by_session {
            if self.poisoned.contains(&session) {
                for i in idxs {
                    kinds[i] = Some(quarantined(session));
                }
                continue;
            }
            let Some(s) = self.sessions.get_mut(&session) else {
                for i in idxs {
                    kinds[i] = Some(unknown_session(session));
                }
                continue;
            };
            touched += 1;
            // A panic inside one session's decision work must not take
            // down the batch: each session's group gets its own
            // catch_unwind, so the sessions after it in id order still
            // run.
            let caught = catch_unwind(AssertUnwindSafe(|| {
                for &i in &idxs {
                    let req = &requests[i];
                    if dedup && matches!(req.kind, RequestKind::Snapshot { .. }) {
                        if let Some((last_id, cached)) = &s.last_decision {
                            if *last_id == req.id {
                                kinds[i] = Some(cached.clone());
                                continue;
                            }
                        }
                    }
                    let kind = apply_decision(s, req, &solver, ctx);
                    if dedup && matches!(req.kind, RequestKind::Snapshot { .. }) {
                        s.last_decision = Some((req.id, kind.clone()));
                    }
                    kinds[i] = Some(kind);
                }
            }));
            if caught.is_err() {
                // The panic left this session's state mid-mutation:
                // discard it, answer its whole group with the stable
                // `internal` code, and quarantine the id until a fresh Open.
                self.sessions.remove(&session);
                self.poisoned.insert(session);
                for i in idxs {
                    kinds[i] = Some(quarantined(session));
                }
            }
        }

        // Phase 3: queries and service-wide operations, serial in id
        // order, observing the tick's post-decision state.
        let shutdowns = requests
            .iter()
            .filter(|r| matches!(r.kind, RequestKind::Shutdown))
            .count();
        let residual = n - shutdowns;
        for &i in &order {
            let kind = match &requests[i].kind {
                RequestKind::Open { .. }
                | RequestKind::Snapshot { .. }
                | RequestKind::Evaluate { .. } => continue,
                RequestKind::Plan { session } => self.handle_plan(*session),
                RequestKind::Profile { .. } => ResponseKind::error(
                    "unsupported",
                    "profile requests need the workload catalog; use the bap front end",
                ),
                RequestKind::Checkpoint => self.handle_checkpoint(),
                RequestKind::Stats => self.handle_stats(),
                RequestKind::Promote => self.handle_promote(),
                RequestKind::ReplStatus => self.handle_repl_status(),
                RequestKind::ReplSubscribe { .. } | RequestKind::ReplAck { .. } => {
                    ResponseKind::error(
                        "unsupported",
                        "replication stream frames are handled by the TCP front end",
                    )
                }
                RequestKind::Shutdown => {
                    self.tracer.emit(|| EventKind::ServerDrained { residual });
                    ResponseKind::Bye { drained: residual }
                }
            };
            kinds[i] = Some(kind);
        }

        // The tick's trace, in deterministic id order.
        self.tracer.emit(|| EventKind::BatchDispatched {
            tick,
            requests: n,
            sessions: touched,
        });
        for &i in &order {
            self.tracer.emit(|| EventKind::RequestServed {
                id: requests[i].id,
                kind: requests[i].kind.label().to_string(),
            });
        }

        // Read the term *after* phase 3: a Promote in this batch already
        // bumped it, so its whole tick answers under the new fence.
        let term = self.term();
        requests
            .iter()
            .zip(kinds)
            .map(|(r, kind)| WireResponse {
                id: r.id,
                tick,
                term,
                kind: kind.expect("every request is answered exactly once"),
            })
            .collect()
    }

    fn handle_open(&mut self, session: u64, cores: usize) -> ResponseKind {
        // A fresh Open is the quarantine exit: the poisoned state was
        // discarded, so the id is free to rebuild from scratch.
        self.poisoned.remove(&session);
        if self.sessions.contains_key(&session) {
            return ResponseKind::error(
                "session_exists",
                format!("session {session} is already open"),
            );
        }
        if cores < 8 || !cores.is_multiple_of(8) || cores > self.cfg.max_cores {
            return ResponseKind::error(
                "bad_request",
                format!(
                    "cores must be a multiple of 8 in 8..={} (rings of 8-core paper dies), got {cores}",
                    self.cfg.max_cores
                ),
            );
        }
        self.sessions
            .insert(session, SessionState::new(cores, &self.cfg));
        ResponseKind::Opened { session, cores }
    }

    fn handle_plan(&self, session: u64) -> ResponseKind {
        if self.poisoned.contains(&session) {
            return quarantined(session);
        }
        match self.sessions.get(&session) {
            Some(s) => {
                let (ways, fingerprint, source) = plan_view(&s.controller);
                ResponseKind::Plan {
                    session,
                    epoch: s.controller.epochs(),
                    ways,
                    source,
                    fingerprint,
                }
            }
            None => unknown_session(session),
        }
    }

    fn handle_stats(&self) -> ResponseKind {
        let mut decisions = 0;
        let mut warm_hits = 0;
        for s in self.sessions.values() {
            decisions += s.controller.epochs();
            warm_hits += s.summary().warm_start_hits;
        }
        ResponseKind::Stats {
            sessions: self.sessions.len(),
            ticks: self.tick,
            requests: self.requests,
            decisions,
            warm_hits,
        }
    }

    fn handle_checkpoint(&mut self) -> ResponseKind {
        // The ring is set aside while the checkpoint borrows the service.
        let mut history = std::mem::replace(&mut self.history, RecoveryManager::new(1));
        let bytes = history.push(&self.checkpoint());
        self.history = history;
        if let Some(path) = &self.cfg.checkpoint_path {
            // The file gets the bytes the ring just encoded.
            let encoded = self.history.newest().expect("a checkpoint was just pushed");
            if let Err(e) = bap_recovery::save_checkpoint_file(path, encoded) {
                return ResponseKind::error("checkpoint_failed", e.to_string());
            }
        }
        let sessions = self.sessions.len();
        self.tracer
            .emit(|| EventKind::ServerCheckpointed { bytes, sessions });
        ResponseKind::Checkpointed {
            bytes,
            sessions,
            tick: self.tick,
        }
    }

    /// Snapshot the whole service — tick counters plus every session's
    /// controller state (profilers, installed plan, hysteresis, warm
    /// solver baselines) — borrowing every member.
    pub fn snapshot(&self) -> ServiceState<'_> {
        ServiceState {
            tick: self.tick,
            requests: self.requests,
            poisoned: self.poisoned.iter().copied().collect(),
            sessions: self
                .sessions
                .iter()
                .map(|(&id, s)| SessionEntry {
                    id,
                    cores: s.cores,
                    state: s.controller.snapshot(),
                    dedup: s.last_decision.as_ref().map(Cow::Borrowed),
                })
                .collect(),
            term: self.repl.as_ref().map(|r| r.term),
        }
    }

    /// Rebuild the service from a [`DecisionService::snapshot`]. Atomic:
    /// either every session restores and the snapshot's state replaces the
    /// current one wholesale, or the service is left untouched. Trace
    /// summaries restart from zero (they narrate a process lifetime, not a
    /// logical one); warm-start solver baselines are restored, so the next
    /// unchanged-curve decision is a warm hit — the zero-warmup restart.
    pub fn restore(&mut self, s: ServiceState<'_>) -> Result<(), String> {
        let ServiceState {
            tick,
            requests,
            poisoned,
            sessions: entries,
            term,
        } = s;
        let mut sessions = BTreeMap::new();
        for entry in entries {
            let SessionEntry {
                id,
                cores,
                state,
                dedup,
            } = entry;
            let mut session = SessionState::new(cores, &self.cfg);
            session.controller.restore(state)?;
            session.last_decision = dedup.map(Cow::into_owned);
            sessions.insert(id, session);
        }
        let restored = sessions.len();
        self.sessions = sessions;
        self.poisoned = poisoned.into_iter().collect();
        self.tick = tick;
        self.requests = requests;
        // A snapshot's term can only advance the fence, never lower it:
        // a replica that already observed a higher term stays fenced.
        if let (Some(repl), Some(term)) = (self.repl.as_mut(), term) {
            repl.term = repl.term.max(term);
        }
        self.tracer.emit(|| EventKind::ServerRestored {
            sessions: restored,
            tick,
        });
        Ok(())
    }

    /// Wrap the current state as a versioned, checksummed checkpoint
    /// (`epoch` carries the tick).
    pub fn checkpoint(&self) -> Checkpoint<ServiceState<'_>> {
        Checkpoint::new(self.tick, self.snapshot())
    }

    /// Restore from a decoded checkpoint; a state this service cannot take
    /// (a session's core count mismatch) is [`RecoveryError::Rejected`].
    pub fn restore_from_checkpoint(
        &mut self,
        cp: Checkpoint<ServiceState<'_>>,
    ) -> Result<(), RecoveryError> {
        self.restore(cp.payload).map_err(RecoveryError::Rejected)
    }

    /// Cold-start restore from a checkpoint file written via the
    /// configured `checkpoint_path`. Returns the restored tick.
    pub fn restore_from_path(&mut self, path: &std::path::Path) -> Result<u64, RecoveryError> {
        let cp = bap_recovery::load_checkpoint_file(path)?;
        let epoch = cp.epoch;
        self.restore_from_checkpoint(cp)?;
        Ok(epoch)
    }

    /// Walk the in-memory checkpoint ring newest-first and restore from
    /// the first checkpoint that decodes, validates and rebuilds — the
    /// recovery ladder applied to the server itself. Returns the rung and
    /// tick that survived, or every rejection when the ring is exhausted.
    pub fn recover(&mut self) -> Result<(RecoveryRung, u64), Vec<RecoveryError>> {
        let history = std::mem::replace(&mut self.history, RecoveryManager::new(1));
        let out = history.recover(|cp| {
            let epoch = cp.epoch;
            self.restore_from_checkpoint(cp).map(|()| epoch)
        });
        self.history = history;
        out.map(|o| (o.rung, o.value))
    }

    /// Sessions currently quarantined after a panic.
    pub fn num_quarantined(&self) -> usize {
        self.poisoned.len()
    }

    /// A fresh overload governor matching this service's config (sharing
    /// its tracer), or `None` when regulation is off. Every transport
    /// loop creates its own when it starts and hands it to the tick step.
    pub fn governor(&self) -> Option<OverloadGovernor> {
        self.cfg
            .overload
            .map(|cfg| OverloadGovernor::new(cfg, self.tracer.clone()))
    }

    /// Fault a bank on one session's machine (the bank-fault path of
    /// `exp_overload`): the session's controller re-plans around the
    /// offline bank at its next snapshot. No-op on unknown sessions.
    pub fn fail_bank(&mut self, session: u64, bank: u16) {
        if let Some(s) = self.sessions.get_mut(&session) {
            s.controller.bank_failed(BankId(bank));
        }
    }

    /// Restore a previously faulted bank on one session's machine.
    pub fn restore_bank(&mut self, session: u64, bank: u16) {
        if let Some(s) = self.sessions.get_mut(&session) {
            s.controller.bank_restored(BankId(bank));
        }
    }

    /// The per-session `(epoch, plan fingerprint)` digest the replication
    /// protocol cross-checks; `(0, 0)` for a session that does not exist
    /// or has no plan yet (both sides compute it the same way).
    pub(crate) fn session_digest(&self, session: u64) -> (u64, u64) {
        self.sessions
            .get(&session)
            .map(|s| {
                (
                    s.controller.epochs(),
                    s.controller
                        .last_plan()
                        .map(|p| p.fingerprint())
                        .unwrap_or(0),
                )
            })
            .unwrap_or((0, 0))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// No session is armed to panic.
    const DISARMED: u64 = u64::MAX;

    /// The panic-isolation fault seam: the next `Snapshot` for this
    /// session panics mid-decision, once, then the seam disarms itself.
    /// Unit tests share one process, so arm it only with a session id no
    /// other test uses.
    static PANIC_SESSION: AtomicU64 = AtomicU64::new(DISARMED);

    pub(crate) fn maybe_panic(session: u64) {
        if PANIC_SESSION
            .compare_exchange(session, DISARMED, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            panic!("injected panic in session {session}");
        }
    }

    pub(crate) fn knee_curves(cores: usize, seed: u64) -> Vec<WireCurve> {
        (0..cores)
            .map(|core| {
                let h = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((core as u64).wrapping_mul(0x0100_0000_01B3));
                let base = 30_000.0 + (h % 90_000) as f64;
                let knee = 2 + ((h >> 17) % 40) as usize;
                let floor = ((h >> 33) % 3_000) as f64;
                let misses = (0..=72)
                    .map(|w| {
                        if w >= knee {
                            floor
                        } else {
                            base - (base - floor) * w as f64 / knee as f64
                        }
                    })
                    .collect();
                WireCurve {
                    accesses: base.max(1.0) * 4.0,
                    misses,
                }
            })
            .collect()
    }

    pub(crate) fn req(id: u64, kind: RequestKind) -> WireRequest {
        WireRequest::new(id, kind)
    }

    /// The fingerprint a plan-carrying response exposes.
    pub(crate) fn fp(resp: &WireResponse) -> Option<u64> {
        match &resp.kind {
            ResponseKind::Decision { fingerprint, .. }
            | ResponseKind::Evaluated { fingerprint, .. }
            | ResponseKind::Plan { fingerprint, .. } => Some(*fingerprint),
            _ => None,
        }
    }

    #[test]
    fn open_snapshot_plan_lifecycle() {
        let mut svc = DecisionService::new(ServeConfig::default());
        let out = svc.process_batch(&[
            req(
                1,
                RequestKind::Open {
                    session: 7,
                    cores: 8,
                },
            ),
            req(
                2,
                RequestKind::Snapshot {
                    session: 7,
                    curves: knee_curves(8, 3),
                },
            ),
            req(3, RequestKind::Plan { session: 7 }),
        ]);
        assert!(matches!(
            out[0].kind,
            ResponseKind::Opened {
                session: 7,
                cores: 8
            }
        ));
        let ResponseKind::Decision {
            installed,
            ref ways,
            fingerprint,
            ref source,
            ..
        } = out[1].kind
        else {
            panic!("expected a decision, got {:?}", out[1].kind);
        };
        assert!(installed);
        assert_eq!(ways.len(), 8);
        assert_eq!(
            ways.iter().sum::<usize>(),
            128,
            "8 cores × 16 banks × 8 ways"
        );
        assert_eq!(source, "solver");
        let ResponseKind::Plan {
            fingerprint: plan_fp,
            ..
        } = out[2].kind
        else {
            panic!("expected a plan, got {:?}", out[2].kind);
        };
        assert_eq!(
            plan_fp, fingerprint,
            "plan query sees the installed decision"
        );
    }

    #[test]
    fn typed_errors_for_bad_requests() {
        let mut svc = DecisionService::new(ServeConfig::default());
        let out = svc.process_batch(&[
            req(
                1,
                RequestKind::Open {
                    session: 1,
                    cores: 9,
                },
            ),
            req(
                2,
                RequestKind::Snapshot {
                    session: 99,
                    curves: knee_curves(8, 0),
                },
            ),
            req(3, RequestKind::Plan { session: 99 }),
            req(
                4,
                RequestKind::Profile {
                    workloads: vec![],
                    instructions: 0,
                    seed: 0,
                },
            ),
        ]);
        for (resp, code) in out.iter().zip([
            "bad_request",
            "unknown_session",
            "unknown_session",
            "unsupported",
        ]) {
            let ResponseKind::Error { code: ref c, .. } = resp.kind else {
                panic!("expected {code}, got {:?}", resp.kind);
            };
            assert_eq!(c, code);
        }
        // And the service keeps serving afterwards.
        let out = svc.process_batch(&[req(
            5,
            RequestKind::Open {
                session: 1,
                cores: 8,
            },
        )]);
        assert!(matches!(out[0].kind, ResponseKind::Opened { .. }));
    }

    #[test]
    fn duplicate_open_and_wrong_curve_count_are_refused() {
        let mut svc = DecisionService::new(ServeConfig::default());
        svc.process_batch(&[req(
            1,
            RequestKind::Open {
                session: 1,
                cores: 8,
            },
        )]);
        let out = svc.process_batch(&[
            req(
                2,
                RequestKind::Open {
                    session: 1,
                    cores: 8,
                },
            ),
            req(
                3,
                RequestKind::Snapshot {
                    session: 1,
                    curves: knee_curves(4, 0),
                },
            ),
        ]);
        assert!(matches!(out[0].kind, ResponseKind::Error { .. }));
        let ResponseKind::Error { ref code, .. } = out[1].kind else {
            panic!("expected bad_request, got {:?}", out[1].kind);
        };
        assert_eq!(code, "bad_request");
    }

    #[test]
    fn evaluate_is_read_only() {
        let mut svc = DecisionService::new(ServeConfig::default());
        svc.process_batch(&[
            req(
                1,
                RequestKind::Open {
                    session: 1,
                    cores: 8,
                },
            ),
            req(
                2,
                RequestKind::Snapshot {
                    session: 1,
                    curves: knee_curves(8, 5),
                },
            ),
        ]);
        let before = svc.process_batch(&[req(3, RequestKind::Plan { session: 1 })]);
        let out = svc.process_batch(&[req(
            4,
            RequestKind::Evaluate {
                session: 1,
                curves: knee_curves(8, 77),
            },
        )]);
        assert!(matches!(out[0].kind, ResponseKind::Evaluated { .. }));
        let after = svc.process_batch(&[req(5, RequestKind::Plan { session: 1 })]);
        assert_eq!(
            before[0].kind, after[0].kind,
            "evaluate moved session state"
        );
    }

    #[test]
    fn checkpoint_restore_is_a_zero_warmup_restart() {
        let mut svc = DecisionService::new(ServeConfig::default());
        svc.process_batch(&[req(
            1,
            RequestKind::Open {
                session: 4,
                cores: 16,
            },
        )]);
        for round in 0..4u64 {
            svc.process_batch(&[req(
                10 + round,
                RequestKind::Snapshot {
                    session: 4,
                    curves: knee_curves(16, 11),
                },
            )]);
        }
        let out = svc.process_batch(&[req(20, RequestKind::Checkpoint)]);
        assert!(matches!(
            out[0].kind,
            ResponseKind::Checkpointed { sessions: 1, .. }
        ));
        let cp = svc.checkpoint();

        let mut restored = DecisionService::new(ServeConfig::default());
        restored
            .restore_from_checkpoint(cp)
            .expect("restore succeeds");
        assert_eq!(restored.num_sessions(), 1);

        // Same next decision on both — and the restored one is warm: its
        // very first solve reuses the checkpointed cluster baselines.
        let next = knee_curves(16, 11);
        let a = svc.process_batch(&[req(
            30,
            RequestKind::Snapshot {
                session: 4,
                curves: next.clone(),
            },
        )]);
        let b = restored.process_batch(&[req(
            30,
            RequestKind::Snapshot {
                session: 4,
                curves: next,
            },
        )]);
        assert_eq!(fp(&a[0]), fp(&b[0]));
        let stats = restored.process_batch(&[req(31, RequestKind::Stats)]);
        let ResponseKind::Stats { warm_hits, .. } = stats[0].kind else {
            panic!("expected stats");
        };
        assert!(warm_hits > 0, "first post-restore decision was not warm");
    }

    #[test]
    fn recovery_ring_walks_past_corruption() {
        let mut svc = DecisionService::new(ServeConfig::default());
        svc.process_batch(&[
            req(
                1,
                RequestKind::Open {
                    session: 1,
                    cores: 8,
                },
            ),
            req(
                2,
                RequestKind::Snapshot {
                    session: 1,
                    curves: knee_curves(8, 2),
                },
            ),
            req(3, RequestKind::Checkpoint),
        ]);
        svc.process_batch(&[
            req(
                4,
                RequestKind::Snapshot {
                    session: 1,
                    curves: knee_curves(8, 9),
                },
            ),
            req(5, RequestKind::Checkpoint),
        ]);
        // Corrupt the newest retained checkpoint; recovery lands on the
        // older one (rung 2) instead of failing.
        assert!(svc.history.corrupt_newest(40));
        let (rung, tick) = svc.recover().expect("older checkpoint survives");
        assert_eq!(rung, RecoveryRung::Older);
        assert_eq!(tick, 1, "first checkpoint covered tick 1");
    }

    #[test]
    fn the_checkpoint_file_holds_the_rings_newest_bytes() {
        let dir = std::env::temp_dir().join(format!("bap_service_cp_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("serve.cp");
        let mut svc = DecisionService::new(ServeConfig {
            checkpoint_path: Some(path.clone()),
            ..ServeConfig::default()
        });
        let out = svc.process_batch(&[
            req(
                1,
                RequestKind::Open {
                    session: 1,
                    cores: 8,
                },
            ),
            snapshot(2, 1, 5),
            req(3, RequestKind::Checkpoint),
        ]);
        let ResponseKind::Checkpointed { bytes, .. } = out[2].kind else {
            panic!("expected checkpointed, got {:?}", out[2].kind);
        };
        let on_disk = std::fs::read(&path).expect("checkpoint file written");
        assert_eq!(Some(on_disk.as_slice()), svc.history.newest());
        assert_eq!(on_disk.len(), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn snapshot(id: u64, session: u64, seed: u64) -> WireRequest {
        req(
            id,
            RequestKind::Snapshot {
                session,
                curves: knee_curves(8, seed),
            },
        )
    }

    #[test]
    fn a_session_panic_quarantines_it_and_reopen_recovers() {
        // Phase 2 visits sessions in ascending id: HEALTHY runs before the
        // panic, TRAILING after it.
        const HEALTHY: u64 = 0x0A11_7E57;
        const DOOMED: u64 = 0x0A11_DEAD;
        const TRAILING: u64 = 0x0A11_F00D;
        let code = |kind: &ResponseKind| kind.error_code().map(str::to_string);
        let open = |id: u64, session: u64| req(id, RequestKind::Open { session, cores: 8 });
        let mut svc = DecisionService::new(ServeConfig::default());
        svc.process_batch(&[open(1, HEALTHY), open(2, DOOMED), open(3, TRAILING)]);

        // The batch that trips the injected panic: the doomed session dies
        // mid-solve, the sessions on either side of it must be untouched.
        PANIC_SESSION.store(DOOMED, Ordering::SeqCst);
        let out = svc.process_batch(&[
            snapshot(10, HEALTHY, 5),
            snapshot(11, DOOMED, 5),
            snapshot(12, TRAILING, 5),
        ]);
        let mut fresh = DecisionService::new(ServeConfig::default());
        fresh.process_batch(&[open(1, TRAILING)]);
        let expected = fp(&fresh.process_batch(&[snapshot(2, TRAILING, 5)])[0]);
        assert!(expected.is_some());
        for (resp, who) in [(&out[0], "healthy"), (&out[2], "trailing")] {
            assert!(
                matches!(resp.kind, ResponseKind::Decision { .. }),
                "the {who} session's decision survives the sibling panic, got {:?}",
                resp.kind
            );
            assert_eq!(fp(resp), expected, "the {who} session's plan moved");
        }
        assert_eq!(
            code(&out[1].kind).as_deref(),
            Some("internal"),
            "the panicking session answers the stable internal code"
        );
        assert_eq!(svc.num_quarantined(), 1);

        // Quarantine is sticky across batches and request kinds.
        let out = svc.process_batch(&[
            snapshot(13, DOOMED, 6),
            req(14, RequestKind::Plan { session: DOOMED }),
        ]);
        assert_eq!(code(&out[0].kind).as_deref(), Some("internal"));
        assert_eq!(code(&out[1].kind).as_deref(), Some("internal"));

        // A fresh Open clears it; the seam fired once, so the rebuilt
        // session serves normally.
        let out = svc.process_batch(&[open(20, DOOMED), snapshot(21, DOOMED, 7)]);
        assert!(matches!(out[0].kind, ResponseKind::Opened { .. }));
        assert!(
            matches!(out[1].kind, ResponseKind::Decision { .. }),
            "re-opened session serves again, got {:?}",
            out[1].kind
        );
        assert_eq!(svc.num_quarantined(), 0);

        // And the service as a whole never stopped.
        let out = svc.process_batch(&[snapshot(30, HEALTHY, 8)]);
        assert!(matches!(out[0].kind, ResponseKind::Decision { .. }));
    }
}
