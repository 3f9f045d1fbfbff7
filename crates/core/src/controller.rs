//! The epoch-driven dynamic repartitioning controller.
//!
//! Per the paper's methodology (§IV): L2 accesses stream through per-core
//! MSA profilers; every `epoch_cycles` (100 M in the paper) the controller
//! reads the histograms, recomputes the partition with the configured
//! policy and applies it, then decays the histograms so the profile tracks
//! phase changes.
//!
//! # Graceful degradation
//!
//! The controller tracks the live [`BankMask`] and survives bank losses,
//! corrupted profiles and solver failures. Curves are sanitised before any
//! solve, and when the Bank-aware solver cannot produce a plan the
//! controller walks a **degradation ladder** instead of panicking:
//!
//! 1. if the currently-installed plan is still valid on the surviving
//!    banks, keep it (no repartition this epoch);
//! 2. else strip the dead banks from it ([`PartitionPlan::restricted_to_mask`])
//!    and install the repaired plan if it remains structurally valid;
//! 3. else fall back to an equal split of the *healthy* capacity.
//!
//! Every rung taken is counted in [`FaultCounters`] so experiments can
//! report how often the system ran degraded.
//!
//! # Temporal stability
//!
//! On top of the spatial ladder, the controller carries the control-loop
//! robustness layer configured by [`bap_types::ControlConfig`]:
//!
//! * **decision budget** — the solve runs under a deterministic
//!   [`SolveBudget`]; Center-phase exhaustion (and an expired wall-clock
//!   stage deadline) *sheds* the decision — the last-good plan stays in
//!   force and `FaultCounters::budget_sheds` counts it — while Local-phase
//!   exhaustion closes out early from a consistent checkpoint inside the
//!   solver itself;
//! * **anti-thrash hysteresis** — a candidate plan is installed only when
//!   its projected miss reduction clears a migration-cost threshold;
//!   repeated A↔B flip-flops trigger an exponential hold-off during which
//!   solves are skipped entirely, and a curve-delta phase detector bypasses
//!   both the gate and the hold-off when the workload genuinely shifts.
//!
//! With the default (disabled) hysteresis and unlimited budget this layer
//! is behaviour-neutral: plans, counters and traces are bit-identical to
//! the classic controller.

use crate::bank_aware::{
    try_bank_aware_partition_budgeted, BankAwareConfig, PartitionError, SolveBudget,
};
use crate::incremental::{IncrementalSolver, IncrementalStats};
use crate::projection::projected_plan_misses;
use crate::qos::{self, QosState};
use bap_cache::{BankAllocation, PartitionPlan};
use bap_fault::{CoreDegradeLedger, FaultCounters};
use bap_msa::{curves_delta, MissRatioCurve, ProfilerConfig, StackProfiler};
use bap_trace::{EventKind, Tracer};
use bap_types::{
    BankId, BankMask, BlockAddr, ControlConfig, CoreId, Cycle, DegradedTopology, SloSpec, Topology,
    WclParams,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Which partitioning policy the system runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// Fully shared LRU cache (the *No-partitions* baseline).
    NoPartition,
    /// Static private halves: 2 banks (16 ways) per core.
    Equal,
    /// The paper's dynamic Bank-aware partitioning.
    BankAware,
}

/// Which path produced the currently installed plan. The online invariant
/// guard keys its rule checks off this: only solver-produced plans promise
/// the full Bank-aware Rules 1–3 (the ladder's repair and equal-fallback
/// rungs trade rule conformance for survival, by design).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanSource {
    /// No plan installed yet.
    #[default]
    None,
    /// The Equal policy's static split.
    Equal,
    /// The Bank-aware solver (rule-conforming by construction).
    Solver,
    /// Ladder rung 2: a previous solver plan with dead banks stripped.
    Repair,
    /// Ladder rung 3: equal split of the healthy capacity.
    EqualFallback,
    /// The SLO enforcement pass replaced a violating candidate (exempt from
    /// the solver-only rule checks, like the ladder's outputs).
    Slo,
}

impl PlanSource {
    /// Stable lower-case label (wire protocol `source` fields, reports).
    pub fn label(&self) -> &'static str {
        match self {
            PlanSource::None => "none",
            PlanSource::Equal => "equal",
            PlanSource::Solver => "solver",
            PlanSource::Repair => "repair",
            PlanSource::EqualFallback => "equal_fallback",
            PlanSource::Slo => "slo",
        }
    }
}

/// The mutable hysteresis state machine (serialized with the controller so
/// checkpoint/restore resumes hold-offs and flip histories exactly).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
struct HysteresisState {
    /// Signatures of recently *installed* plans, oldest first.
    plan_sigs: Vec<u64>,
    /// Consecutive A↔B alternations observed.
    flips: u32,
    /// Solves are skipped while `epochs <= holdoff_until`.
    holdoff_until: u64,
    /// Hold-off re-entry level (drives the exponential back-off).
    holdoff_level: u32,
    /// The curves at the last install — the phase detector's baseline.
    curves_at_install: Option<Vec<MissRatioCurve>>,
}

/// A controller's checkpointed state ([`Controller::snapshot`]).
#[derive(Serialize, Deserialize)]
pub struct ControllerState<'a> {
    profilers: Cow<'a, [StackProfiler]>,
    mask: BankMask,
    epochs: u64,
    last_plan: Cow<'a, Option<PartitionPlan>>,
    counters: FaultCounters,
    plan_source: PlanSource,
    hysteresis: Cow<'a, HysteresisState>,
    /// The QoS members are absent from pre-QoS checkpoints: empty.
    #[serde(default)]
    ledger: Cow<'a, CoreDegradeLedger>,
    #[serde(default)]
    slo_admitted: Cow<'a, [bool]>,
    /// Absent from pre-incremental checkpoints: a cold solver, which is
    /// always safe (the first solve after restore just runs cold).
    #[serde(default)]
    incremental: Cow<'a, IncrementalSolver>,
}

/// Deterministic signature of a plan's physical shape, for flip-flop
/// detection — [`PartitionPlan::fingerprint`], which is process-stable
/// (unlike `DefaultHasher`) and shared with the serve wire protocol so
/// server clients and the hysteresis gate agree on plan identity.
fn plan_signature(plan: &PartitionPlan) -> u64 {
    plan.fingerprint()
}

/// The controller: per-core profilers plus the repartitioning logic.
#[derive(Clone, Debug)]
pub struct Controller {
    policy: Policy,
    profilers: Vec<StackProfiler>,
    topo: Topology,
    mask: BankMask,
    bank_ways: usize,
    cfg: BankAwareConfig,
    control: ControlConfig,
    epochs: u64,
    last_plan: Option<PartitionPlan>,
    plan_source: PlanSource,
    hyst: HysteresisState,
    counters: FaultCounters,
    ledger: CoreDegradeLedger,
    qos: Option<QosState>,
    incr: IncrementalSolver,
    tracer: Tracer,
}

impl Controller {
    /// Build a controller. `profiler_cfg` is applied per core (use
    /// [`ProfilerConfig::paper_hardware`] for the 12-bit/1-in-32
    /// configuration, or a reference profiler in experiments that isolate
    /// the algorithm from profiling error).
    pub fn new(
        policy: Policy,
        topo: Topology,
        bank_ways: usize,
        profiler_cfg: ProfilerConfig,
        cfg: BankAwareConfig,
    ) -> Self {
        let profilers = (0..topo.num_cores())
            .map(|_| StackProfiler::new(profiler_cfg))
            .collect();
        let mask = BankMask::all_healthy(topo.num_banks());
        let num_cores = topo.num_cores();
        Controller {
            policy,
            profilers,
            topo,
            mask,
            bank_ways,
            cfg,
            control: ControlConfig::default(),
            epochs: 0,
            last_plan: None,
            plan_source: PlanSource::None,
            hyst: HysteresisState::default(),
            counters: FaultCounters::default(),
            ledger: CoreDegradeLedger::new(num_cores),
            qos: None,
            incr: IncrementalSolver::new(),
            tracer: Tracer::off(),
        }
    }

    /// Attach a trace handle; all subsequent solves, ladder decisions and
    /// curve repairs are emitted through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Configure the control-loop robustness layer (decision budget +
    /// hysteresis). Defaults are behaviour-neutral; call before the run
    /// starts — changing thresholds mid-flight is legal but resets no
    /// state.
    pub fn set_control(&mut self, control: ControlConfig) {
        self.control = control;
    }

    /// The active control-loop configuration.
    pub fn control(&self) -> &ControlConfig {
        &self.control
    }

    /// Which path produced the currently installed plan.
    pub fn plan_source(&self) -> PlanSource {
        self.plan_source
    }

    /// Whether a flip-flop hold-off is active at the current epoch.
    pub fn in_holdoff(&self) -> bool {
        self.control.hysteresis.enabled && self.epochs <= self.hyst.holdoff_until
    }

    /// The active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Epochs elapsed.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The controller's view of bank health.
    pub fn mask(&self) -> &BankMask {
        &self.mask
    }

    /// Fault-handling counters accumulated so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// The plan most recently produced (and presumed installed).
    pub fn last_plan(&self) -> Option<&PartitionPlan> {
        self.last_plan.as_ref()
    }

    /// Zero the fault-handling counters (and the per-core capacity-loss
    /// ledger). Called at run start so counters in a `RunResult` describe
    /// that run only, not earlier runs of a reused controller. The
    /// warm-start statistics reset too, but the warm *cache* survives —
    /// back-to-back runs on one machine stay warm.
    pub fn reset_counters(&mut self) {
        self.counters = FaultCounters::default();
        self.ledger = CoreDegradeLedger::new(self.topo.num_cores());
        self.incr.reset_stats();
    }

    /// Warm-start statistics accumulated by the incremental solver (all
    /// zero when [`bap_types::IncrementalConfig`] is disabled).
    pub fn incremental_stats(&self) -> IncrementalStats {
        self.incr.stats()
    }

    /// The per-core capacity-loss ledger: which cores the degradation
    /// ladder and the SLO enforcement pass took ways from.
    pub fn core_degrades(&self) -> &CoreDegradeLedger {
        &self.ledger
    }

    /// Declare the QoS tier: per-core SLOs, the machine constants of the
    /// analytic WCL bound and the smallest armed regulator budget (`None`
    /// when no regulator is armed). Runs the initial admission pass
    /// immediately — every verdict is emitted and rejected SLOs counted.
    /// An empty `slos` (the default [`bap_types::QosConfig`]) leaves the
    /// controller bit-identical to a QoS-free run.
    pub fn set_qos(
        &mut self,
        slos: Vec<Option<SloSpec>>,
        params: WclParams,
        min_budget: Option<u64>,
    ) {
        let state = QosState::new(slos, params, min_budget, self.topo.num_cores());
        if !state.has_slos() {
            self.qos = None;
            return;
        }
        self.qos = Some(state);
        self.readmit();
    }

    /// The QoS state, when SLOs are declared (the guard's `SloWcl` check
    /// reads the admitted set and WCL parameters through this).
    pub fn qos(&self) -> Option<&QosState> {
        self.qos.as_ref()
    }

    /// Whether `core`'s declared SLO is currently admitted.
    pub fn slo_admitted(&self, core: CoreId) -> bool {
        self.qos
            .as_ref()
            .map(|q| q.admitted.get(core.index()).copied().unwrap_or(false))
            .unwrap_or(false)
    }

    /// The live analytic WCL bound per core (`None` for best-effort or
    /// rejected cores) — what an admitted core is *guaranteed*, given the
    /// installed plan and the current mask.
    pub fn slo_bounds(&self) -> Vec<Option<Cycle>> {
        let n = self.topo.num_cores();
        let Some(q) = &self.qos else {
            return vec![None; n];
        };
        (0..n)
            .map(|c| {
                if q.admitted.get(c).copied().unwrap_or(false) {
                    Some(qos::core_bound(
                        &q.params,
                        &self.topo,
                        &self.mask,
                        CoreId(c as u16),
                        self.last_plan.as_ref(),
                    ))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Re-run admission under the current mask, reporting verdicts. The
    /// first pass reports everything; later passes report (and count) only
    /// status changes, so a stable run stays quiet.
    fn readmit(&mut self) {
        let Some(mut q) = self.qos.take() else { return };
        let outcomes = qos::admit_cores(
            &self.topo,
            &self.mask,
            self.bank_ways,
            &q.slos,
            &q.params,
            q.min_budget,
        );
        let first = !q.evaluated;
        q.evaluated = true;
        for o in outcomes {
            let was = q.admitted[o.core];
            if o.admitted && (first || !was) {
                let bound = o.bound.unwrap_or(0);
                self.tracer.emit(|| EventKind::SloAdmitted {
                    core: o.core,
                    bound,
                });
            } else if !o.admitted && (first || was) {
                let reason = o.reason.clone().unwrap_or_default();
                self.tracer.emit(|| EventKind::SloRejected {
                    core: o.core,
                    reason,
                });
                self.counters.slo_rejections += 1;
            }
            q.admitted[o.core] = o.admitted;
        }
        self.qos = Some(q);
    }

    /// The SLO choke point every plan decision flows through: re-admit
    /// under the current mask, then verify the would-be-effective plan
    /// honours every admitted SLO (capacity floor + WCL ceiling). A
    /// violating decision is replaced by the deterministic QoS plan,
    /// demoting best-effort cores; the demotions are recorded per core in
    /// the capacity-loss ledger. A no-op without declared SLOs.
    fn enforce_slo(&mut self, candidate: Option<PartitionPlan>) -> Option<PartitionPlan> {
        if self.qos.as_ref().is_none_or(|q| !q.has_slos()) {
            return candidate;
        }
        self.readmit();
        let q = self.qos.clone().expect("qos state present");
        let effective: Option<PartitionPlan> = candidate.clone().or_else(|| self.last_plan.clone());
        let mut violated = 0usize;
        for c in 0..self.topo.num_cores() {
            if !q.admitted.get(c).copied().unwrap_or(false) {
                continue;
            }
            let slo = q.slos[c].as_ref().expect("admitted implies declared");
            let ok = match &effective {
                Some(p) => {
                    p.ways_of(CoreId(c as u16)) >= slo.min_ways
                        && qos::core_bound(
                            &q.params,
                            &self.topo,
                            &self.mask,
                            CoreId(c as u16),
                            Some(p),
                        ) <= slo.max_wcl_cycles
                }
                None => {
                    slo.min_ways == 0
                        && qos::core_bound(
                            &q.params,
                            &self.topo,
                            &self.mask,
                            CoreId(c as u16),
                            None,
                        ) <= slo.max_wcl_cycles
                }
            };
            if !ok {
                violated += 1;
            }
        }
        if violated == 0 {
            return candidate;
        }
        let Some(plan) =
            qos::build_qos_plan(&self.topo, &self.mask, self.bank_ways, &q.slos, &q.admitted)
        else {
            // Admission guaranteed feasibility for the admitted set; if the
            // build still fails the candidate is the best we have.
            return candidate;
        };
        let mut demoted = 0usize;
        if let Some(prev) = &effective {
            for c in 0..self.topo.num_cores() {
                let before = prev.ways_of(CoreId(c as u16));
                let after = plan.ways_of(CoreId(c as u16));
                if after < before {
                    self.ledger.record(c, (before - after) as u64);
                    demoted += 1;
                }
            }
        }
        self.counters.slo_enforcements += 1;
        self.tracer.emit(|| EventKind::SloEnforced {
            violations: violated,
            demoted,
        });
        self.emit_assignment("slo_enforce", Some(&plan));
        self.plan_source = PlanSource::Slo;
        self.last_plan = Some(plan.clone());
        Some(plan)
    }

    /// Run SLO enforcement immediately against the current state, outside
    /// any epoch boundary. Used right after SLO declaration so admitted
    /// cores hold their capacity floor from the very first access, not
    /// from the first repartitioning. Returns a plan to install when the
    /// state in force violates an admitted SLO.
    pub fn enforce_slo_now(&mut self) -> Option<PartitionPlan> {
        self.enforce_slo(None)
    }

    /// The controller's dynamic state (profilers, mask, epoch count, last
    /// plan, fault counters, hysteresis, QoS and warm-start state) for
    /// checkpointing. Policy, topology and solver configuration are
    /// rebuilt from the run options.
    pub fn snapshot(&self) -> ControllerState<'_> {
        ControllerState {
            profilers: Cow::Borrowed(&self.profilers),
            mask: self.mask,
            epochs: self.epochs,
            last_plan: Cow::Borrowed(&self.last_plan),
            counters: self.counters,
            plan_source: self.plan_source,
            hysteresis: Cow::Borrowed(&self.hyst),
            ledger: Cow::Borrowed(&self.ledger),
            slo_admitted: match &self.qos {
                Some(q) => Cow::Borrowed(&q.admitted),
                None => Cow::Borrowed(&[]),
            },
            incremental: Cow::Borrowed(&self.incr),
        }
    }

    /// Overwrite the dynamic state from a [`Controller::snapshot`] taken on
    /// an identically-configured controller. A core count mismatch is an
    /// error and leaves the controller untouched.
    pub fn restore(&mut self, s: ControllerState<'_>) -> Result<(), String> {
        let ControllerState {
            profilers,
            mask,
            epochs,
            last_plan,
            counters,
            plan_source,
            hysteresis,
            ledger,
            slo_admitted,
            incremental,
        } = s;
        if profilers.len() != self.profilers.len() {
            return Err("controller core count mismatch".to_string());
        }
        self.profilers = profilers.into_owned();
        self.mask = mask;
        self.epochs = epochs;
        self.last_plan = last_plan.into_owned();
        self.counters = counters;
        self.plan_source = plan_source;
        self.hyst = hysteresis.into_owned();
        self.ledger = ledger.into_owned();
        if let Some(q) = &mut self.qos {
            if slo_admitted.len() == q.admitted.len() {
                q.admitted = slo_admitted.into_owned();
                q.evaluated = true;
            }
        }
        self.incr = incremental.into_owned();
        Ok(())
    }

    /// Feed one L2 access into `core`'s profiler (called on every L2
    /// access, hit or miss — MSA monitors the access stream).
    #[inline]
    pub fn observe(&mut self, core: CoreId, block: BlockAddr) {
        self.profilers[core.index()].observe(block);
    }

    /// Direct access to a profiler (experiments).
    pub fn profiler(&self, core: CoreId) -> &StackProfiler {
        &self.profilers[core.index()]
    }

    /// Current miss-ratio curves, scaled for set sampling.
    pub fn curves(&self) -> Vec<MissRatioCurve> {
        self.profilers
            .iter()
            .map(|p| MissRatioCurve::from_histogram(p.histogram(), p.scale()))
            .collect()
    }

    /// Record that `bank` went offline. The *next* plan (from
    /// [`Controller::replan_for_mask`] or the next epoch boundary) excludes
    /// it; callers flush the bank itself.
    pub fn bank_failed(&mut self, bank: BankId) {
        if self.mask.disable(bank) {
            self.counters.banks_failed += 1;
        }
    }

    /// Record that `bank` is usable again.
    pub fn bank_restored(&mut self, bank: BankId) {
        if self.mask.enable(bank) {
            self.counters.banks_restored += 1;
        }
    }

    /// An epoch boundary whose repartitioning trigger was lost (injected
    /// fault): time passes but no profile is read, no plan is computed and
    /// no decay happens.
    pub fn skip_epoch(&mut self) {
        self.epochs += 1;
    }

    /// Close an epoch: compute the new plan (if the policy is dynamic) and
    /// decay the profilers. Returns `None` when the policy keeps whatever
    /// configuration is already in force (NoPartition always; Equal after
    /// the first epoch; BankAware when the degradation ladder decides the
    /// installed plan is still the best available).
    pub fn epoch_boundary(&mut self) -> Option<PartitionPlan> {
        let curves = self.curves();
        self.epoch_boundary_with_curves(curves)
    }

    /// [`Controller::epoch_boundary`] with externally supplied curves —
    /// the fault-injection path, where the transport from the profilers may
    /// have corrupted them. Curves are sanitised before use.
    pub fn epoch_boundary_with_curves(
        &mut self,
        curves: Vec<MissRatioCurve>,
    ) -> Option<PartitionPlan> {
        self.epoch_boundary_with_curves_deadline(curves, None)
    }

    /// [`Controller::epoch_boundary_with_curves`] under a wall-clock stage
    /// deadline (the `max_epoch_nanos` half of the decision budget). The
    /// deadline is checked at the stage boundary between curve sanitisation
    /// and the solve: an overrun sheds the decision to the last-good plan.
    /// `None` — the deterministic default — never sheds.
    pub fn epoch_boundary_with_curves_deadline(
        &mut self,
        curves: Vec<MissRatioCurve>,
        deadline: Option<std::time::Instant>,
    ) -> Option<PartitionPlan> {
        self.epochs += 1;
        let plan = match self.policy {
            Policy::NoPartition => None,
            Policy::Equal => {
                if self.epochs == 1 {
                    let p = self.equal_plan();
                    self.emit_assignment("equal", p.as_ref());
                    if p.is_some() {
                        self.plan_source = PlanSource::Equal;
                    }
                    self.last_plan = p.clone();
                    p
                } else {
                    None
                }
            }
            Policy::BankAware => self.bank_aware_epoch(curves, deadline),
        };
        let plan = self.enforce_slo(plan);
        for p in &mut self.profilers {
            p.decay();
        }
        plan
    }

    /// One Bank-aware epoch decision: sanitise, check the stage deadline,
    /// honour an active hold-off (unless the phase detector overrides it),
    /// then solve under the step budget and run the candidate through the
    /// hysteresis gate.
    fn bank_aware_epoch(
        &mut self,
        mut curves: Vec<MissRatioCurve>,
        deadline: Option<std::time::Instant>,
    ) -> Option<PartitionPlan> {
        self.sanitize_curves(&mut curves);
        if let Some(d) = deadline {
            if std::time::Instant::now() >= d {
                return self.shed_decision(0, "deadline");
            }
        }
        let h = self.control.hysteresis;
        if h.enabled && self.epochs <= self.hyst.holdoff_until {
            // In hold-off the solve is skipped outright — that is the
            // damping — unless the curves have genuinely changed phase
            // since the last install.
            let delta = self
                .hyst
                .curves_at_install
                .as_ref()
                .map(|prev| curves_delta(&curves, prev))
                .unwrap_or(f64::INFINITY);
            if delta > h.phase_delta_threshold {
                self.tracer.emit(|| EventKind::PhaseChange { delta });
                self.counters.phase_bypasses += 1;
                self.reset_flip_state();
                // The workload moved: follow it unconditionally. Solving
                // gated here would re-detect (and double-count) the same
                // phase change inside the install gate.
                self.snapshot_curves(&curves);
                return self.solve_bank_aware(&curves, false);
            }
            let remaining = self.hyst.holdoff_until - self.epochs;
            self.tracer.emit(|| EventKind::HoldOffSkipped { remaining });
            return None;
        }
        self.snapshot_curves(&curves);
        self.solve_bank_aware(&curves, true)
    }

    /// Forget the flip history after a genuine phase change: the new phase
    /// starts with a clean slate (including the exponential back-off level).
    fn reset_flip_state(&mut self) {
        self.hyst.plan_sigs.clear();
        self.hyst.flips = 0;
        self.hyst.holdoff_until = 0;
        self.hyst.holdoff_level = 0;
    }

    /// Recompute a plan for the *current* mask outside the epoch cadence —
    /// called right after a bank transition so the system is not left
    /// running an invalid assignment until the next boundary. Does not
    /// advance the epoch count or decay the profilers.
    pub fn replan_for_mask(&mut self) -> Option<PartitionPlan> {
        let plan = match self.policy {
            Policy::NoPartition => None,
            Policy::Equal => {
                let p = self.equal_plan();
                self.emit_assignment("equal", p.as_ref());
                if p.is_some() {
                    self.plan_source = PlanSource::Equal;
                }
                self.last_plan = p.clone();
                p
            }
            Policy::BankAware => {
                let mut curves = self.curves();
                self.sanitize_curves(&mut curves);
                self.snapshot_curves(&curves);
                // Ungated: the mask changed, so the installed plan is stale
                // by construction — hysteresis must not dampen a correction.
                self.solve_bank_aware(&curves, false)
            }
        };
        self.enforce_slo(plan)
    }

    fn sanitize_curves(&mut self, curves: &mut [MissRatioCurve]) {
        for (i, c) in curves.iter_mut().enumerate() {
            if !c.sanitize_traced(i, &self.tracer).is_clean() {
                self.counters.curves_repaired += 1;
            }
        }
    }

    /// Emit the post-sanitize curves the solver is about to see — the
    /// replay contract: rebuilding these snapshots and re-solving must
    /// reproduce the [`EventKind::AssignmentComputed`] that follows.
    fn snapshot_curves(&self, curves: &[MissRatioCurve]) {
        if !self.tracer.is_enabled() {
            return;
        }
        for (i, c) in curves.iter().enumerate() {
            c.emit_snapshot(i, &self.tracer);
        }
    }

    fn emit_assignment(&self, policy: &str, plan: Option<&PartitionPlan>) {
        if let Some(plan) = plan {
            self.tracer.emit(|| EventKind::AssignmentComputed {
                policy: policy.to_string(),
                ways: (0..self.topo.num_cores())
                    .map(|c| plan.ways_of(CoreId(c as u16)))
                    .collect(),
            });
        }
    }

    fn solve_bank_aware(
        &mut self,
        curves: &[MissRatioCurve],
        gated: bool,
    ) -> Option<PartitionPlan> {
        let machine = DegradedTopology::new(self.topo.clone(), self.mask);
        let t0 = self.tracer.is_enabled().then(std::time::Instant::now);
        let budget = SolveBudget::steps(self.control.budget.max_solver_steps);
        let solved = if self.control.incremental.enabled {
            self.incr.solve(
                curves,
                &machine,
                self.bank_ways,
                &self.cfg,
                &self.tracer,
                budget,
                self.control.incremental.delta_threshold,
            )
        } else {
            try_bank_aware_partition_budgeted(
                curves,
                &machine,
                self.bank_ways,
                &self.cfg,
                &self.tracer,
                budget,
            )
        };
        if let Some(t0) = t0 {
            self.tracer
                .timing_masked("solve", t0.elapsed().as_nanos() as u64, self.mask.bits());
        }
        match solved {
            Ok(plan) => self.consider_install(plan, curves, gated),
            Err(PartitionError::BudgetExhausted { steps }) => self.shed_decision(steps, "steps"),
            Err(e) => {
                self.tracer.emit(|| EventKind::SolverFailed {
                    error: e.to_string(),
                });
                self.counters.solver_failures += 1;
                self.degraded_fallback()
            }
        }
    }

    /// Shed this epoch's decision on budget exhaustion: the last-good plan
    /// stays in force when it is still valid on the surviving banks;
    /// otherwise (a shed colliding with fresh damage) the degradation
    /// ladder finds the best surviving configuration.
    fn shed_decision(&mut self, steps: u64, limit: &'static str) -> Option<PartitionPlan> {
        self.tracer.emit(|| EventKind::BudgetShed {
            steps,
            limit: limit.to_string(),
        });
        self.counters.budget_sheds += 1;
        match &self.last_plan {
            Some(prev) if prev.validate_against_mask(&self.mask).is_ok() => None,
            _ => self.degraded_fallback(),
        }
    }

    /// Run a solver-produced candidate through the anti-thrash gate (when
    /// `gated` and hysteresis is enabled), then install it and update the
    /// flip-flop state machine.
    fn consider_install(
        &mut self,
        plan: PartitionPlan,
        curves: &[MissRatioCurve],
        gated: bool,
    ) -> Option<PartitionPlan> {
        let h = self.control.hysteresis;
        if !(gated && h.enabled) {
            if h.enabled {
                self.note_install(&plan, curves);
            }
            self.plan_source = PlanSource::Solver;
            self.last_plan = Some(plan.clone());
            return Some(plan);
        }
        if let Some(prev) = &self.last_plan {
            if *prev == plan {
                // The solver re-derived the installed plan: nothing to do,
                // and nothing the gate needs to count.
                return None;
            }
            let keep = projected_plan_misses(curves, prev);
            let gain = keep - projected_plan_misses(curves, &plan);
            let churn = plan.way_churn(prev);
            let threshold = h.min_improvement_frac * keep + h.migration_cost_per_way * churn as f64;
            let delta = self
                .hyst
                .curves_at_install
                .as_ref()
                .map(|p| curves_delta(curves, p))
                .unwrap_or(f64::INFINITY);
            if delta > h.phase_delta_threshold {
                // Genuine workload shift: follow it, and give the new phase
                // a clean flip history.
                self.tracer.emit(|| EventKind::PhaseChange { delta });
                self.counters.phase_bypasses += 1;
                self.reset_flip_state();
            } else if gain <= threshold {
                self.tracer.emit(|| EventKind::PlanHeld {
                    projected_gain: gain,
                    threshold,
                    churn_ways: churn,
                });
                self.counters.plans_held += 1;
                return None;
            }
        }
        self.note_install(&plan, curves);
        self.plan_source = PlanSource::Solver;
        self.last_plan = Some(plan.clone());
        Some(plan)
    }

    /// Record an install into the flip-flop state machine and arm the
    /// exponential hold-off when the A↔B pattern crosses the threshold.
    fn note_install(&mut self, plan: &PartitionPlan, curves: &[MissRatioCurve]) {
        let h = self.control.hysteresis;
        let sig = plan_signature(plan);
        let sigs = &mut self.hyst.plan_sigs;
        let n = sigs.len();
        // A flip is A→B→A: the new plan equals the one before last but not
        // the last. Anything else breaks the alternation pattern.
        let flip = n >= 2 && sigs[n - 2] == sig && sigs[n - 1] != sig;
        self.hyst.flips = if flip { self.hyst.flips + 1 } else { 0 };
        sigs.push(sig);
        let window = h.flip_window.max(2);
        while sigs.len() > window {
            sigs.remove(0);
        }
        self.hyst.curves_at_install = Some(curves.to_vec());
        if self.hyst.flips >= h.flip_threshold && h.flip_threshold > 0 {
            self.hyst.holdoff_level += 1;
            let level = self.hyst.holdoff_level;
            let epochs = h.holdoff_epochs(level);
            self.hyst.holdoff_until = self.epochs + epochs;
            self.hyst.flips = 0;
            self.tracer
                .emit(|| EventKind::HoldOffStarted { epochs, level });
            self.counters.holdoffs += 1;
        }
    }

    /// Escalation entry point for the online invariant guard: walk the
    /// degradation ladder exactly as if a solve had failed, returning a
    /// repaired plan to install when the ladder produces one.
    pub fn guard_escalate(&mut self) -> Option<PartitionPlan> {
        let plan = self.degraded_fallback();
        self.enforce_slo(plan)
    }

    /// The degradation ladder, walked when the solver fails.
    ///
    /// Each rung emits its trace event *before* touching the counters:
    /// replaying a trace must observe rung decisions in exactly the order
    /// the ledger accumulated them, so the event is the primary record and
    /// the counter mutation follows it.
    fn degraded_fallback(&mut self) -> Option<PartitionPlan> {
        let prev_ways: Option<Vec<usize>> = self.last_plan.as_ref().map(|p| {
            (0..self.topo.num_cores())
                .map(|c| p.ways_of(CoreId(c as u16)))
                .collect()
        });
        if let Some(prev) = &self.last_plan {
            // Rung 1: the installed plan survived the damage — keep it.
            if prev.validate_against_mask(&self.mask).is_ok() {
                self.tracer.emit(|| EventKind::DegradationRung { rung: 1 });
                self.counters.plan_reuses += 1;
                return None;
            }
            // Rung 2: strip dead banks from it; if every core still has
            // capacity, run the repaired plan.
            let repaired = prev.restricted_to_mask(&self.mask);
            if repaired.validate_against_mask(&self.mask).is_ok() {
                self.tracer.emit(|| EventKind::DegradationRung { rung: 2 });
                self.counters.plan_repairs += 1;
                self.record_capacity_losses(prev_ways.as_deref(), &repaired);
                self.emit_assignment("plan_repair", Some(&repaired));
                self.plan_source = PlanSource::Repair;
                self.last_plan = Some(repaired.clone());
                return Some(repaired);
            }
        }
        // Rung 3: equal split of whatever capacity is left.
        self.tracer.emit(|| EventKind::DegradationRung { rung: 3 });
        self.counters.equal_fallbacks += 1;
        let p = self.equal_plan();
        self.emit_assignment("equal_fallback", p.as_ref());
        if let Some(plan) = &p {
            self.record_capacity_losses(prev_ways.as_deref(), plan);
            self.plan_source = PlanSource::EqualFallback;
            self.last_plan = p.clone();
        }
        p
    }

    /// Ledger the per-core damage of swapping the previous plan for `new`:
    /// every core whose total shrinks is charged the difference.
    fn record_capacity_losses(&mut self, prev_ways: Option<&[usize]>, new: &PartitionPlan) {
        let Some(prev_ways) = prev_ways else { return };
        for (c, &before) in prev_ways.iter().enumerate() {
            let after = new.ways_of(CoreId(c as u16));
            if after < before {
                self.ledger.record(c, (before - after) as u64);
            }
        }
    }

    /// The Equal policy's plan for the current mask: the paper's private
    /// 2-banks-per-core split when everything is healthy, otherwise an
    /// even division of the healthy ways (each core a contiguous run of
    /// healthy-bank ways; no physical-rule aspirations — this is the
    /// last-resort safety net).
    fn equal_plan(&self) -> Option<PartitionPlan> {
        let n = self.topo.num_cores();
        if self.mask.is_full() {
            return Some(PartitionPlan::equal(
                n,
                self.topo.num_banks(),
                self.bank_ways,
            ));
        }
        let healthy: Vec<BankId> = self.mask.healthy_banks().collect();
        let total = healthy.len() * self.bank_ways;
        if total < n {
            return None; // fewer ways than cores: nothing sane to install
        }
        let base = total / n;
        let extra = total % n;
        let mut plan = PartitionPlan::empty(n, self.topo.num_banks(), self.bank_ways);
        let mut bi = 0usize;
        let mut left = self.bank_ways;
        for c in 0..n {
            let mut need = base + usize::from(c < extra);
            while need > 0 {
                let take = need.min(left);
                plan.per_core[c].push(BankAllocation {
                    bank: healthy[bi],
                    ways: take,
                });
                need -= take;
                left -= take;
                if left == 0 && bi + 1 < healthy.len() {
                    bi += 1;
                    left = self.bank_ways;
                }
            }
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bap_core_test_util::feed_knee_profile;
    use bap_msa::EngineKind;

    /// Local helper module so the feeding logic is shared across tests.
    mod bap_core_test_util {
        use super::*;

        /// Feed `core`'s profiler a stream whose MSA curve has a knee at
        /// roughly `knee_ways` (per-set distances 0..knee_ways uniformly).
        pub fn feed_knee_profile(
            ctl: &mut Controller,
            core: CoreId,
            knee_ways: usize,
            accesses: u64,
        ) {
            // Round-robin sets, cycling block tags to produce uniform stack
            // distances within 0..knee_ways.
            let sets = 64u64;
            for i in 0..accesses {
                let set = i % sets;
                let tag = (i / sets) % knee_ways as u64;
                ctl.observe(core, BlockAddr(tag * sets + set));
            }
        }
    }

    fn controller(policy: Policy) -> Controller {
        Controller::new(
            policy,
            Topology::baseline(),
            8,
            ProfilerConfig::reference(64, 72),
            BankAwareConfig::default(),
        )
    }

    #[test]
    fn no_partition_never_emits_plans() {
        let mut c = controller(Policy::NoPartition);
        assert_eq!(c.epoch_boundary(), None);
        assert_eq!(c.epoch_boundary(), None);
        assert_eq!(c.epochs(), 2);
    }

    #[test]
    fn equal_emits_once() {
        let mut c = controller(Policy::Equal);
        let p = c.epoch_boundary().expect("first epoch applies the plan");
        assert_eq!(p.ways_of(CoreId(0)), 16);
        assert_eq!(c.epoch_boundary(), None);
    }

    #[test]
    fn bank_aware_adapts_to_observed_appetites() {
        let mut c = controller(Policy::BankAware);
        // Core 0 shows a deep working set; others shallow.
        feed_knee_profile(&mut c, CoreId(0), 60, 60_000);
        for i in 1..8 {
            feed_knee_profile(&mut c, CoreId(i), 3, 20_000);
        }
        let plan = c.epoch_boundary().expect("bank-aware emits every epoch");
        assert!(
            plan.ways_of(CoreId(0)) >= 32,
            "deep-reuse core gets a large share: {plan}"
        );
        assert_eq!(plan.total_ways_used(), 128);
    }

    #[test]
    fn decay_lets_the_profile_track_phases() {
        let mut c = controller(Policy::BankAware);
        feed_knee_profile(&mut c, CoreId(0), 60, 60_000);
        for i in 1..8 {
            feed_knee_profile(&mut c, CoreId(i), 3, 20_000);
        }
        let first = c.epoch_boundary().unwrap();
        assert!(first.ways_of(CoreId(0)) >= 32);
        // Phase change: core 0 goes quiet, core 1 becomes hungry. After a
        // few decayed epochs the assignment follows.
        for _ in 0..6 {
            feed_knee_profile(&mut c, CoreId(1), 60, 60_000);
            c.epoch_boundary();
        }
        feed_knee_profile(&mut c, CoreId(1), 60, 60_000);
        let later = c.epoch_boundary().unwrap();
        assert!(
            later.ways_of(CoreId(1)) > later.ways_of(CoreId(0)),
            "assignment follows the phase change: {later}"
        );
    }

    #[test]
    fn curves_are_scaled_by_sampling() {
        let mut c = Controller::new(
            Policy::BankAware,
            Topology::baseline(),
            8,
            ProfilerConfig {
                num_sets: 64,
                max_ways: 72,
                sample_ratio: 4,
                tag_bits: None,
                engine: EngineKind::default(),
            },
            BankAwareConfig::default(),
        );
        for i in 0..1000u64 {
            c.observe(CoreId(0), BlockAddr(i));
        }
        let curves = c.curves();
        // Sampled 1-in-4 but scaled back up: ~1000 accesses.
        assert!((curves[0].accesses() - 1000.0).abs() < 120.0);
    }

    #[test]
    fn bank_failure_replan_avoids_the_dead_bank() {
        let mut c = controller(Policy::BankAware);
        for i in 0..8 {
            feed_knee_profile(&mut c, CoreId(i), 10, 20_000);
        }
        c.epoch_boundary().unwrap();
        c.bank_failed(BankId(9));
        let plan = c.replan_for_mask().expect("replan after a bank loss");
        assert_eq!(plan.bank_ways_used(BankId(9)), 0);
        assert_eq!(plan.total_ways_used(), 15 * 8);
        assert_eq!(c.counters().banks_failed, 1);
        assert_eq!(c.epochs(), 1, "replan is outside the epoch cadence");
    }

    #[test]
    fn restore_reopens_the_bank() {
        let mut c = controller(Policy::BankAware);
        for i in 0..8 {
            feed_knee_profile(&mut c, CoreId(i), 10, 20_000);
        }
        c.bank_failed(BankId(9));
        c.replan_for_mask().unwrap();
        c.bank_restored(BankId(9));
        let plan = c.replan_for_mask().unwrap();
        assert_eq!(plan.total_ways_used(), 128, "full capacity is back");
        let ctrs = c.counters();
        assert_eq!((ctrs.banks_failed, ctrs.banks_restored), (1, 1));
    }

    #[test]
    fn corrupted_curves_are_repaired_not_fatal() {
        let mut c = controller(Policy::BankAware);
        for i in 0..8 {
            feed_knee_profile(&mut c, CoreId(i), 10, 20_000);
        }
        let mut curves = c.curves();
        let poisoned: Vec<f64> = (0..=curves[0].max_ways())
            .map(|w| {
                if w % 3 == 0 {
                    f64::NAN
                } else {
                    500.0 - w as f64
                }
            })
            .collect();
        curves[2] = MissRatioCurve::from_misses(poisoned, f64::NAN);
        let plan = c
            .epoch_boundary_with_curves(curves)
            .expect("solve survives a corrupted curve");
        assert_eq!(plan.total_ways_used(), 128);
        assert_eq!(c.counters().curves_repaired, 1);
    }

    #[test]
    fn skip_epoch_keeps_the_plan_and_profiles() {
        let mut c = controller(Policy::BankAware);
        feed_knee_profile(&mut c, CoreId(0), 10, 10_000);
        let before = c.curves();
        c.skip_epoch();
        assert_eq!(c.epochs(), 1);
        assert_eq!(
            c.curves()[0].accesses(),
            before[0].accesses(),
            "no decay on a dropped epoch"
        );
    }

    #[test]
    fn equal_policy_falls_back_to_healthy_split() {
        let mut c = controller(Policy::Equal);
        c.bank_failed(BankId(0));
        c.bank_failed(BankId(12));
        let plan = c.replan_for_mask().expect("equal-on-healthy plan");
        plan.validate_against_mask(c.mask()).unwrap();
        assert_eq!(plan.total_ways_used(), 14 * 8);
        // Even split: every core within one way of the others.
        let shares: Vec<usize> = (0..8).map(|i| plan.ways_of(CoreId(i))).collect();
        let (lo, hi) = (*shares.iter().min().unwrap(), *shares.iter().max().unwrap());
        assert!(hi - lo <= 1, "shares {shares:?}");
    }

    /// Synthetic monotone curves: core `i` has a knee at `knees[i]` ways
    /// with `amp` misses saved per way before the knee.
    fn knee_curves(knees: &[usize], amp: f64) -> Vec<MissRatioCurve> {
        knees
            .iter()
            .map(|&k| {
                let misses: Vec<f64> = (0..=72)
                    .map(|w| {
                        if w < k {
                            amp * (k - w) as f64 + 100.0
                        } else {
                            100.0
                        }
                    })
                    .collect();
                MissRatioCurve::from_misses(misses, 100_000.0)
            })
            .collect()
    }

    /// Hysteresis tuned for flip detection only: no improvement gate and a
    /// phase threshold no realistic delta reaches.
    fn flip_only_hysteresis() -> bap_types::HysteresisConfig {
        bap_types::HysteresisConfig {
            enabled: true,
            min_improvement_frac: 0.0,
            migration_cost_per_way: 0.0,
            phase_delta_threshold: 1e18,
            ..bap_types::HysteresisConfig::tuned()
        }
    }

    #[test]
    fn default_control_layer_is_inert() {
        let mut c = controller(Policy::BankAware);
        c.set_control(ControlConfig::default());
        for round in 0..6 {
            feed_knee_profile(&mut c, CoreId(round % 8), 20, 30_000);
            c.epoch_boundary();
        }
        let ctrs = c.counters();
        assert_eq!(
            (
                ctrs.plans_held,
                ctrs.holdoffs,
                ctrs.phase_bypasses,
                ctrs.budget_sheds
            ),
            (0, 0, 0, 0),
            "defaults must never gate, hold off, bypass or shed"
        );
        assert_eq!(c.plan_source(), PlanSource::Solver);
    }

    #[test]
    fn flip_flop_arms_an_exponential_holdoff() {
        let mut c = controller(Policy::BankAware);
        c.set_control(ControlConfig {
            hysteresis: flip_only_hysteresis(),
            ..ControlConfig::default()
        });
        let a = knee_curves(&[40, 4, 4, 4, 4, 4, 4, 4], 1_000.0);
        let b = knee_curves(&[4, 40, 4, 4, 4, 4, 4, 4], 1_000.0);
        let mut installs = 0;
        for epoch in 0..12 {
            let curves = if epoch % 2 == 0 { a.clone() } else { b.clone() };
            if c.epoch_boundary_with_curves(curves).is_some() {
                installs += 1;
            }
        }
        let ctrs = c.counters();
        assert!(
            ctrs.holdoffs >= 1,
            "A↔B alternation must arm a hold-off: {ctrs:?}"
        );
        // flip_threshold = 2 arms the first hold-off on the 4th install
        // (A, B, A=flip1, B=flip2) — within K = 4 epochs of the onset —
        // and each re-arm doubles the damping window.
        assert!(
            installs <= 6,
            "hold-off caps the churn at the flip threshold: {installs} installs"
        );
        assert!(c.in_holdoff() || ctrs.holdoffs >= 2);
    }

    #[test]
    fn phase_change_bypasses_an_active_holdoff() {
        let mut c = controller(Policy::BankAware);
        c.set_control(ControlConfig {
            hysteresis: bap_types::HysteresisConfig {
                enabled: true,
                ..bap_types::HysteresisConfig::tuned()
            },
            ..ControlConfig::default()
        });
        let a = knee_curves(&[40, 4, 4, 4, 4, 4, 4, 4], 1_000.0);
        // Install once so the phase baseline exists, then force a hold-off.
        assert!(c.epoch_boundary_with_curves(a.clone()).is_some());
        c.hyst.holdoff_until = 1_000;
        // Same curves: the hold-off damps the epoch.
        assert_eq!(c.epoch_boundary_with_curves(a.clone()), None);
        assert!(c.in_holdoff());
        // A genuinely different phase: the detector overrides the hold-off
        // and the controller repartitions immediately.
        let shifted = knee_curves(&[4, 4, 4, 4, 4, 4, 4, 72], 1_000.0);
        let plan = c
            .epoch_boundary_with_curves(shifted)
            .expect("phase change must break through the hold-off");
        assert!(plan.ways_of(CoreId(7)) > plan.ways_of(CoreId(0)));
        let ctrs = c.counters();
        assert_eq!(ctrs.phase_bypasses, 1);
        assert!(!c.in_holdoff(), "bypass resets the hold-off");
    }

    #[test]
    fn improvement_gate_holds_marginal_plans() {
        let mut c = controller(Policy::BankAware);
        c.set_control(ControlConfig {
            hysteresis: bap_types::HysteresisConfig {
                enabled: true,
                // An absurd bar: every non-identical candidate is marginal.
                min_improvement_frac: 10.0,
                phase_delta_threshold: 1e18,
                ..bap_types::HysteresisConfig::tuned()
            },
            ..ControlConfig::default()
        });
        let a = knee_curves(&[40, 4, 4, 4, 4, 4, 4, 4], 1_000.0);
        let installed = c
            .epoch_boundary_with_curves(a)
            .expect("first plan always installs");
        // A moderately different profile yields a different candidate, but
        // the gate judges the gain marginal and keeps the installed plan.
        let b = knee_curves(&[30, 12, 4, 4, 4, 4, 4, 4], 1_000.0);
        assert_eq!(c.epoch_boundary_with_curves(b), None);
        assert_eq!(c.counters().plans_held, 1);
        assert_eq!(c.last_plan(), Some(&installed), "last-good stays in force");
    }

    #[test]
    fn budget_exhaustion_sheds_to_the_last_good_plan() {
        let mut c = controller(Policy::BankAware);
        c.set_tracer(Tracer::ring());
        for i in 0..8 {
            feed_knee_profile(&mut c, CoreId(i), 10, 20_000);
        }
        let installed = c.epoch_boundary().expect("unbudgeted install");
        // Starve the solver: one step cannot finish Center bidding.
        c.set_control(ControlConfig::default().with_step_budget(1));
        assert_eq!(c.epoch_boundary(), None, "shed epoch changes nothing");
        let ctrs = c.counters();
        assert_eq!(ctrs.budget_sheds, 1);
        assert_eq!(
            (ctrs.solver_failures, ctrs.plan_reuses, ctrs.equal_fallbacks),
            (0, 0, 0),
            "a shed is budget accounting, not degradation"
        );
        assert_eq!(c.last_plan(), Some(&installed));
        let events = c.tracer.drain_events();
        let shed = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::BudgetShed { steps, limit } => Some((*steps, limit.clone())),
                _ => None,
            })
            .expect("the shed must be on the trace");
        assert!(shed.0 >= 1, "exhaustion reports the steps spent");
        assert_eq!(shed.1, "steps");
    }

    #[test]
    fn expired_deadline_sheds_before_the_solve() {
        let mut c = controller(Policy::BankAware);
        for i in 0..8 {
            feed_knee_profile(&mut c, CoreId(i), 10, 20_000);
        }
        let installed = c.epoch_boundary().expect("install under no deadline");
        let curves = c.curves();
        // A deadline of "now" has always expired by the time it is checked.
        let out = c.epoch_boundary_with_curves_deadline(curves, Some(std::time::Instant::now()));
        assert_eq!(out, None);
        assert_eq!(c.counters().budget_sheds, 1);
        assert_eq!(c.last_plan(), Some(&installed));
    }

    #[test]
    fn snapshot_round_trips_hysteresis_state() {
        let mut c = controller(Policy::BankAware);
        c.set_control(ControlConfig {
            hysteresis: flip_only_hysteresis(),
            ..ControlConfig::default()
        });
        let a = knee_curves(&[40, 4, 4, 4, 4, 4, 4, 4], 1_000.0);
        let b = knee_curves(&[4, 40, 4, 4, 4, 4, 4, 4], 1_000.0);
        for epoch in 0..6 {
            let curves = if epoch % 2 == 0 { a.clone() } else { b.clone() };
            c.epoch_boundary_with_curves(curves);
        }
        let snap = c.snapshot();
        let mut r = controller(Policy::BankAware);
        r.set_control(*c.control());
        r.restore(snap).unwrap();
        assert_eq!(r.plan_source(), c.plan_source());
        assert_eq!(r.hyst, c.hyst, "flip history and hold-off survive restore");
        assert_eq!(r.in_holdoff(), c.in_holdoff());
        assert_eq!(r.last_plan(), c.last_plan());
    }

    #[test]
    fn warm_start_controller_is_plan_identical_to_classic() {
        let mut cold = controller(Policy::BankAware);
        let mut warm = controller(Policy::BankAware);
        warm.set_control(ControlConfig::default().with_warm_starts());
        for round in 0..6 {
            feed_knee_profile(&mut cold, CoreId(round % 8), 12 + round as usize, 30_000);
            feed_knee_profile(&mut warm, CoreId(round % 8), 12 + round as usize, 30_000);
            assert_eq!(
                cold.epoch_boundary(),
                warm.epoch_boundary(),
                "round {round}: warm starts must not change any decision"
            );
        }
        assert_eq!(cold.counters(), warm.counters());
        let stats = warm.incremental_stats();
        assert_eq!(stats.decisions, 6);
        assert!(stats.full_solves >= 1);
        assert_eq!(
            cold.incremental_stats(),
            crate::IncrementalStats::default(),
            "the classic path never touches the incremental solver"
        );
    }

    #[test]
    fn stationary_curves_stop_resolving_under_the_controller() {
        let mut c = controller(Policy::BankAware);
        c.set_control(ControlConfig::default().with_warm_starts());
        let curves = knee_curves(&[40, 8, 8, 8, 8, 8, 8, 8], 1_000.0);
        for _ in 0..5 {
            c.epoch_boundary_with_curves(curves.clone());
        }
        let stats = c.incremental_stats();
        assert_eq!(stats.full_solves, 1);
        assert_eq!(
            stats.cluster_solves, 1,
            "a stationary mix re-solves nothing after warm-up"
        );
        assert_eq!(stats.warm_hits, 4);
    }

    #[test]
    fn warm_start_survives_bank_transitions() {
        let mut c = controller(Policy::BankAware);
        c.set_control(ControlConfig::default().with_warm_starts());
        for i in 0..8 {
            feed_knee_profile(&mut c, CoreId(i), 10, 20_000);
        }
        c.epoch_boundary().unwrap();
        c.bank_failed(BankId(9));
        let plan = c.replan_for_mask().expect("replan after a bank loss");
        assert_eq!(plan.bank_ways_used(BankId(9)), 0);
        assert_eq!(plan.total_ways_used(), 15 * 8);
        // The mask change forced a cold solve; the cache is warm again on
        // the new machine.
        assert_eq!(c.incremental_stats().full_solves, 2);
        c.epoch_boundary();
        assert_eq!(c.incremental_stats().full_solves, 2, "warm on the new mask");
    }

    #[test]
    fn snapshot_round_trips_warm_state() {
        let mut c = controller(Policy::BankAware);
        c.set_control(ControlConfig::default().with_warm_starts());
        let curves = knee_curves(&[40, 8, 8, 8, 8, 8, 8, 8], 1_000.0);
        c.epoch_boundary_with_curves(curves.clone());
        let snap = c.snapshot();
        let mut r = controller(Policy::BankAware);
        r.set_control(*c.control());
        r.restore(snap).unwrap();
        r.epoch_boundary_with_curves(curves);
        let stats = r.incremental_stats();
        assert_eq!(stats.full_solves, 1, "restored controllers resume warm");
        assert_eq!(stats.warm_hits, 1);
    }

    fn slo(max_wcl: Cycle, min_ways: usize) -> bap_types::SloSpec {
        bap_types::SloSpec {
            max_wcl_cycles: max_wcl,
            min_ways,
            bandwidth_floor: 0,
        }
    }

    fn wcl_params() -> WclParams {
        WclParams {
            noc_queue_bound: 64,
            noc_reg_stall: 0,
            dram_worst: 772,
            dram_reg_stall: 0,
            coherence_extra: 0,
            isolated_lookup: true,
        }
    }

    #[test]
    fn slo_enforcement_replaces_violating_solver_plans() {
        let mut c = controller(Policy::BankAware);
        c.set_tracer(Tracer::ring());
        // Core 7 shows no appetite, so the solver starves it — but it
        // declared a 24-way floor.
        let mut slos = vec![None; 8];
        slos[7] = Some(slo(10_000, 24));
        c.set_qos(slos, wcl_params(), None);
        assert!(c.slo_admitted(CoreId(7)));
        feed_knee_profile(&mut c, CoreId(0), 60, 60_000);
        for i in 1..8 {
            feed_knee_profile(&mut c, CoreId(i), 3, 20_000);
        }
        let plan = c.epoch_boundary().expect("enforcement installs a plan");
        assert!(plan.ways_of(CoreId(7)) >= 24, "{plan}");
        assert_eq!(c.plan_source(), PlanSource::Slo);
        assert!(c.counters().slo_enforcements >= 1);
        assert!(
            !c.core_degrades().is_zero(),
            "some best-effort core paid for the floor"
        );
        let bounds = c.slo_bounds();
        assert!(bounds[7].is_some() && bounds[0].is_none());
        let events = c.tracer.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SloAdmitted { core: 7, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SloEnforced { .. })));
    }

    #[test]
    fn compliant_plans_pass_through_enforcement_untouched() {
        let mut a = controller(Policy::BankAware);
        let mut b = controller(Policy::BankAware);
        // A trivially satisfiable SLO: 1 way, enormous ceiling.
        let mut slos = vec![None; 8];
        slos[0] = Some(slo(1_000_000, 1));
        b.set_qos(slos, wcl_params(), None);
        for i in 0..8 {
            feed_knee_profile(&mut a, CoreId(i), 10, 20_000);
            feed_knee_profile(&mut b, CoreId(i), 10, 20_000);
        }
        let pa = a.epoch_boundary().unwrap();
        let pb = b.epoch_boundary().unwrap();
        assert_eq!(pa, pb, "a met SLO never changes the decision");
        assert_eq!(b.plan_source(), PlanSource::Solver);
        assert_eq!(b.counters().slo_enforcements, 0);
    }

    #[test]
    fn bank_loss_triggers_re_admission() {
        let mut c = controller(Policy::BankAware);
        c.set_tracer(Tracer::ring());
        let mut slos = vec![None; 8];
        slos[0] = Some(slo(10_000, 120));
        c.set_qos(slos, wcl_params(), None);
        assert!(c.slo_admitted(CoreId(0)), "feasible on the healthy machine");
        for i in 0..8 {
            feed_knee_profile(&mut c, CoreId(i), 10, 20_000);
        }
        c.epoch_boundary();
        // Losing two banks leaves 112 ways: the 120-way floor is infeasible
        // and the SLO must be demoted, not silently breached.
        c.bank_failed(BankId(3));
        c.bank_failed(BankId(11));
        c.replan_for_mask();
        assert!(!c.slo_admitted(CoreId(0)));
        assert!(c.counters().slo_rejections >= 1);
        let events = c.tracer.drain_events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SloRejected { core: 0, .. })));
        assert_eq!(c.slo_bounds()[0], None, "no bound is promised any more");
    }

    #[test]
    fn qos_free_controller_is_bit_identical() {
        let mut a = controller(Policy::BankAware);
        let mut b = controller(Policy::BankAware);
        b.set_qos(Vec::new(), wcl_params(), Some(4));
        for i in 0..8 {
            feed_knee_profile(&mut a, CoreId(i), 12, 30_000);
            feed_knee_profile(&mut b, CoreId(i), 12, 30_000);
        }
        assert_eq!(a.epoch_boundary(), b.epoch_boundary());
        assert_eq!(a.counters(), b.counters());
        assert!(b.slo_bounds().iter().all(|x| x.is_none()));
    }

    #[test]
    fn ladder_fallback_records_per_core_losses() {
        let mut c = controller(Policy::BankAware);
        for i in 0..8 {
            feed_knee_profile(&mut c, CoreId(i), 10, 20_000);
        }
        c.epoch_boundary().unwrap();
        // Kill core 2's banks and starve the solver so the ladder runs.
        for b in 1..16 {
            c.bank_failed(BankId(b));
        }
        c.epoch_boundary();
        let ctrs = c.counters();
        assert!(ctrs.plan_repairs + ctrs.equal_fallbacks >= 1);
        let ledger = c.core_degrades();
        assert!(
            !ledger.is_zero(),
            "massive bank loss must cost someone ways: {ledger:?}"
        );
    }

    #[test]
    fn snapshot_round_trips_qos_state() {
        let mut c = controller(Policy::BankAware);
        let mut slos = vec![None; 8];
        slos[1] = Some(slo(10_000, 24));
        c.set_qos(slos.clone(), wcl_params(), None);
        for i in 0..8 {
            feed_knee_profile(&mut c, CoreId(i), 10, 20_000);
        }
        c.epoch_boundary();
        let snap = c.snapshot();
        let mut r = controller(Policy::BankAware);
        r.set_qos(slos, wcl_params(), None);
        r.restore(snap).unwrap();
        assert_eq!(r.slo_admitted(CoreId(1)), c.slo_admitted(CoreId(1)));
        assert_eq!(r.core_degrades(), c.core_degrades());
        assert_eq!(r.slo_bounds(), c.slo_bounds());
    }

    #[test]
    fn ladder_reuses_a_surviving_plan_when_the_solver_fails() {
        let mut c = controller(Policy::BankAware);
        for i in 0..8 {
            feed_knee_profile(&mut c, CoreId(i), 10, 20_000);
        }
        let installed = c.epoch_boundary().unwrap();
        // Force an unsolvable machine: min_ways demand above healthy
        // capacity. 15 dead banks leave 8 ways for 8 cores at min 4 each.
        for b in 1..16 {
            c.bank_failed(BankId(b));
        }
        let next = c.epoch_boundary();
        let ctrs = c.counters();
        assert_eq!(ctrs.solver_failures, 1);
        // The installed plan is also dead (it used the lost banks), so the
        // ladder lands on repair or equal-fallback — never a panic.
        assert!(ctrs.plan_repairs + ctrs.equal_fallbacks + ctrs.plan_reuses == 1);
        if let Some(p) = next {
            p.validate_against_mask(c.mask()).unwrap();
            assert_ne!(p, installed);
        }
    }
}
