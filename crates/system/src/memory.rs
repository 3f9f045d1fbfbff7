//! The shared memory hierarchy below the L1s.
//!
//! [`SharedMemory`] implements [`bap_cpu::MemorySystem`]: every L1 miss
//! flows through the DNUCA L2 (functional hit/miss + bank selection), the
//! NoC (NUCA wire latency + link/bank contention), and on an L2 miss the
//! DRAM model. Demand accesses are observed by the controller's MSA
//! profilers. Accesses into the configured *shared segment* additionally
//! run the MOESI directory and pay forward/invalidation latencies.

use bap_cache::{AccessKind, AggregationScheme, DnucaL2, DnucaState, L2Mode};
use bap_coherence::cluster::Transaction;
use bap_coherence::{ClusterState, CoherentCluster};
use bap_core::{Controller, ControllerState, Policy};
use bap_cpu::MemorySystem;
use bap_dram::{BankedDram, BankedDramConfig, BankedDramState, DramModel, DramState};
use bap_fault::{BankEventKind, FaultConfig, FaultCounters, FaultInjector};
use bap_guard::InvariantGuard;
use bap_noc::{NocModel, NocState};
use bap_trace::{EventKind, Tracer};
use bap_types::stats::CacheStats;
use bap_types::{
    BankId, BlockAddr, ControlConfig, CoreId, Cycle, QosConfig, SystemConfig, Topology, WclParams,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Addresses with this bit set (block-address bit 40) belong to the shared
/// segment and run the coherence protocol.
pub const SHARED_SEGMENT_BIT: u64 = 1 << 40;

/// Whether a block address lies in the shared segment.
pub fn is_shared(block: BlockAddr) -> bool {
    block.0 & SHARED_SEGMENT_BIT != 0
}

/// Default shared-DNUCA chain depth: a core's blocks live in its Local
/// bank plus its nearest Center bank before falling out — the
/// locality-greedy steady state of an unmanaged DNUCA, in which remote
/// banks hold only their own neighbourhoods' data. This is what makes the
/// No-partitions baseline suffer the destructive interference the paper
/// reports; deeper chains asymptotically recover global LRU (see the
/// aggregation ablation).
pub const DEFAULT_SHARED_CHAIN: usize = 2;

/// Either main-memory model behind one address-aware interface.
pub enum MemoryModel {
    /// Flat latency + bandwidth pipe.
    Flat(DramModel),
    /// Banked DRAM with row buffers.
    Banked(BankedDram),
}

impl MemoryModel {
    /// Block read at `now`; returns latency.
    pub fn read(&mut self, block: BlockAddr, now: Cycle) -> u64 {
        match self {
            MemoryModel::Flat(d) => d.read(now),
            MemoryModel::Banked(d) => d.read_block(block, now),
        }
    }

    /// Write-back at `now` (not waited on).
    pub fn writeback(&mut self, block: BlockAddr, now: Cycle) {
        match self {
            MemoryModel::Flat(d) => {
                d.writeback(now);
            }
            MemoryModel::Banked(d) => d.writeback_block(block, now),
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &bap_dram::DramStats {
        match self {
            MemoryModel::Flat(d) => d.stats(),
            MemoryModel::Banked(d) => d.stats(),
        }
    }

    /// Row-buffer statistics (banked model only).
    pub fn row_stats(&self) -> Option<&bap_dram::RowStats> {
        match self {
            MemoryModel::Flat(_) => None,
            MemoryModel::Banked(d) => Some(d.row_stats()),
        }
    }

    /// Reset statistics.
    pub fn reset_stats(&mut self) {
        match self {
            MemoryModel::Flat(d) => d.reset_stats(),
            MemoryModel::Banked(d) => d.reset_stats(),
        }
    }

    /// Arm the per-bank bandwidth regulator (one bucket for the flat pipe,
    /// one per DRAM bank for the banked model).
    pub fn set_regulator(&mut self, cfg: bap_types::RegulatorConfig) {
        match self {
            MemoryModel::Flat(d) => d.set_regulator(cfg),
            MemoryModel::Banked(d) => d.set_regulator(cfg),
        }
    }

    /// The analytic worst-case latency of a single read (queue clamp plus
    /// the device's worst timing path; regulator stall excluded).
    pub fn worst_case_read_latency(&self) -> Cycle {
        match self {
            MemoryModel::Flat(d) => d.worst_case_read_latency(),
            MemoryModel::Banked(d) => d.worst_case_read_latency(),
        }
    }

    /// Worst stall the armed regulator can charge (0 when unarmed).
    pub fn regulator_worst_stall(&self) -> Cycle {
        match self {
            MemoryModel::Flat(d) => d.regulator_worst_stall(),
            MemoryModel::Banked(d) => d.regulator_worst_stall(),
        }
    }

    /// Take and reset the per-epoch throttle accounting.
    pub fn drain_epoch_throttle(&mut self) -> Vec<(usize, u64, u64)> {
        match self {
            MemoryModel::Flat(d) => d.drain_epoch_throttle(),
            MemoryModel::Banked(d) => d.drain_epoch_throttle(),
        }
    }

    /// Dynamic state for checkpointing, tagged with the model kind.
    pub fn snapshot(&self) -> MemoryState<'_> {
        match self {
            MemoryModel::Flat(d) => MemoryState::Flat(d.snapshot()),
            MemoryModel::Banked(d) => MemoryState::Banked(d.snapshot()),
        }
    }

    /// Restore dynamic state; the model kind must match the configured one.
    pub fn restore(&mut self, s: MemoryState<'_>) -> Result<(), String> {
        match (self, s) {
            (MemoryModel::Flat(d), MemoryState::Flat(s)) => {
                d.restore(s);
                Ok(())
            }
            (MemoryModel::Banked(d), MemoryState::Banked(s)) => d.restore(s),
            _ => Err("DRAM model kind mismatch".to_string()),
        }
    }
}

/// A memory model's checkpointed state ([`MemoryModel::snapshot`]),
/// written as the tagged pair `{"kind": "flat"|"banked", "state": …}`.
pub enum MemoryState<'a> {
    /// The flat pipe's state.
    Flat(DramState<'a>),
    /// The banked device's state.
    Banked(BankedDramState<'a>),
}

impl Serialize for MemoryState<'_> {
    fn to_value(&self) -> serde::Value {
        let (kind, state) = match self {
            MemoryState::Flat(s) => ("flat", s.to_value()),
            MemoryState::Banked(s) => ("banked", s.to_value()),
        };
        serde::Value::Object(vec![
            ("kind".to_string(), serde::Value::Str(kind.to_string())),
            ("state".to_string(), state),
        ])
    }
}

/// `kind` precedes `state` in every checkpoint this program writes, so the
/// state decodes straight into the kind's type; a `state` that arrives
/// before its `kind` is an error.
impl Deserialize for MemoryState<'_> {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let (mut kind, mut state) = (None, None);
        r.read_map(|member, r| {
            match member {
                "kind" if kind.is_none() => kind = Some(r.read_string()?),
                "state" if state.is_none() => {
                    state = Some(match kind.as_deref() {
                        Some("flat") => MemoryState::Flat(DramState::deserialize(r)?),
                        Some("banked") => MemoryState::Banked(BankedDramState::deserialize(r)?),
                        other => {
                            let e = format!("DRAM `state` after `kind` {other:?}");
                            return Err(serde::Error::msg(e));
                        }
                    })
                }
                _ => r.skip()?,
            }
            Ok(())
        })?;
        state.ok_or_else(|| serde::Error::msg("missing field `state`"))
    }
}

/// The L2 + NoC + DRAM + coherence + controller complex.
pub struct SharedMemory {
    /// The banked last-level cache.
    pub l2: DnucaL2,
    /// Interconnect model.
    pub noc: NocModel,
    /// Memory model.
    pub dram: MemoryModel,
    /// MSA profilers + repartitioning policy.
    pub controller: Controller,
    /// MOESI directory + modelled private-cache states (shared segment).
    pub coherence: CoherentCluster,
    /// Aggregation scheme applied when plans are installed.
    scheme: AggregationScheme,
    /// Per-core L2 view (hits/misses as seen by each core's requests).
    l2_stats: Vec<CacheStats>,
    /// Per-core cumulative L2 round-trip latency.
    l2_latency_sum: Vec<u64>,
    /// Extra latency charged per cache-to-cache forward.
    forward_latency: u64,
    /// Extra latency charged per invalidation round.
    invalidate_latency: u64,
    /// Partition plans applied so far (initial plan included).
    plans_applied: u64,
    /// Per-epoch adaptation history: the way assignment after each epoch
    /// boundary (empty entries while unpartitioned).
    epoch_history: Vec<Vec<usize>>,
    /// Fault injector (None = no campaign; healthy behaviour untouched).
    injector: Option<FaultInjector>,
    /// System-side fault accounting (merged with the controller's in
    /// [`SharedMemory::fault_counters`]).
    fault_counters: FaultCounters,
    /// Epoch index fed to the injector's deterministic streams.
    fault_epoch: u64,
    /// Latest cycle observed on the access path — the timestamp used when
    /// a bank flush pushes write-backs to DRAM outside any access.
    clock: Cycle,
    /// Whether the QoS tier is armed (SLOs declared or a regulator armed);
    /// gates the per-epoch QoS accounting so QoS-free runs skip it.
    qos_enabled: bool,
    /// Worst per-core demand latency observed in the epoch now running.
    epoch_worst: Vec<Cycle>,
    /// Per-epoch worst measured latency per core (one row per boundary).
    worst_history: Vec<Vec<Cycle>>,
    /// Per-epoch admitted WCL bound per core (`None` = best effort); the
    /// row records the bound *in force during* that epoch, so row `i` of
    /// both histories compare directly.
    bound_history: Vec<Vec<Option<Cycle>>>,
    /// The bounds currently in force (refreshed after every boundary).
    current_bounds: Vec<Option<Cycle>>,
    /// Online invariant monitor, run at the end of every epoch boundary
    /// (enabled/disabled through [`ControlConfig::guard`]).
    guard: InvariantGuard,
    /// Decision-trace handle shared with the controller, L2 and injector.
    tracer: Tracer,
}

impl SharedMemory {
    /// Build the hierarchy for `cfg` under the given policy and scheme,
    /// with the default shared-DNUCA chain depth.
    pub fn new(cfg: &SystemConfig, policy: Policy, scheme: AggregationScheme) -> Self {
        Self::with_chain_limit(cfg, policy, scheme, DEFAULT_SHARED_CHAIN)
    }

    /// Build the hierarchy with an explicit shared-DNUCA chain depth: how
    /// many banks of a core's distance-ordered chain its blocks may occupy
    /// before demotion drops them from the cache. Small values model the
    /// locality-greedy steady state of a real DNUCA (blocks cluster near
    /// their users); the full chain degenerates to global LRU.
    pub fn with_chain_limit(
        cfg: &SystemConfig,
        policy: Policy,
        scheme: AggregationScheme,
        chain_limit: usize,
    ) -> Self {
        Self::with_options(
            cfg,
            policy,
            scheme,
            chain_limit,
            bap_cache::ReplacementPolicy::TrueLru,
        )
    }

    /// Full-control constructor: chain depth and per-bank replacement
    /// policy (the replacement ablation runs non-LRU banks here).
    pub fn with_options(
        cfg: &SystemConfig,
        policy: Policy,
        scheme: AggregationScheme,
        chain_limit: usize,
        replacement: bap_cache::ReplacementPolicy,
    ) -> Self {
        let topo = match cfg.floorplan {
            bap_types::topology::Floorplan::Chain => {
                Topology::new(cfg.num_cores, cfg.l2_min_latency, cfg.l2_max_latency)
            }
            bap_types::topology::Floorplan::Mesh => {
                Topology::new_mesh(cfg.num_cores, cfg.l2_min_latency, cfg.l2_max_latency)
            }
            bap_types::topology::Floorplan::ClusteredRing { cluster_cores } => {
                Topology::new_clustered_ring(
                    cfg.num_cores,
                    cluster_cores,
                    cfg.l2_min_latency,
                    cfg.l2_max_latency,
                )
            }
            bap_types::topology::Floorplan::ClusteredMesh { cluster_cores } => {
                Topology::new_clustered_mesh(
                    cfg.num_cores,
                    cluster_cores,
                    cfg.l2_min_latency,
                    cfg.l2_max_latency,
                )
            }
        };
        let mut l2 =
            DnucaL2::with_policy(cfg.l2.num_banks, cfg.l2.bank, cfg.num_cores, replacement);
        // The paper's 1-in-32 sampling assumes 2048 sets per bank; scaled
        // test machines have fewer, so cap the ratio to keep at least
        // thirty-two monitored sets (the paper's own sampled-set count is
        // sixty-four).
        let sets = cfg.l2_bank_sets();
        let mut profiler_cfg = bap_msa::ProfilerConfig::paper_hardware(sets);
        profiler_cfg.sample_ratio = profiler_cfg.sample_ratio.min((sets / 32).max(1));
        let controller = Controller::new(
            policy,
            topo.clone(),
            cfg.l2.bank.ways,
            profiler_cfg,
            bap_core::BankAwareConfig::default(),
        );
        // Initial configuration: shared DNUCA for NoPartition, equal split
        // otherwise (Bank-aware repartitions at the first epoch boundary).
        match policy {
            Policy::NoPartition => l2.set_shared_dnuca(&topo, chain_limit),
            Policy::Equal | Policy::BankAware => {
                let plan = bap_cache::PartitionPlan::equal(
                    cfg.num_cores,
                    cfg.l2.num_banks,
                    cfg.l2.bank.ways,
                );
                l2.apply_plan(plan, scheme);
            }
        }
        let dram = match cfg.dram_kind {
            bap_types::config::DramKind::Flat => MemoryModel::Flat(DramModel::new(
                cfg.mem_latency,
                cfg.mem_bytes_per_cycle,
                cfg.l1.block_bytes,
            )),
            bap_types::config::DramKind::Banked => {
                MemoryModel::Banked(BankedDram::new(BankedDramConfig::default()))
            }
        };
        let guard = InvariantGuard::new(topo.clone(), cfg.l2.bank.ways);
        SharedMemory {
            l2,
            noc: NocModel::new(topo, cfg.bank_occupancy, 1),
            dram,
            controller,
            coherence: CoherentCluster::new(cfg.num_cores),
            scheme,
            l2_stats: vec![CacheStats::default(); cfg.num_cores],
            l2_latency_sum: vec![0; cfg.num_cores],
            forward_latency: 40,
            invalidate_latency: 30,
            plans_applied: match policy {
                Policy::NoPartition => 0,
                _ => 1,
            },
            epoch_history: Vec::new(),
            injector: None,
            fault_counters: FaultCounters::default(),
            fault_epoch: 0,
            clock: 0,
            qos_enabled: false,
            epoch_worst: vec![0; cfg.num_cores],
            worst_history: Vec::new(),
            bound_history: Vec::new(),
            current_bounds: vec![None; cfg.num_cores],
            guard,
            tracer: Tracer::off(),
        }
    }

    /// Arm the QoS tier: bandwidth regulators on the interconnect and the
    /// memory controller, plus SLO admission in the partitioning
    /// controller. `shared_active` charges the coherence worst case into
    /// the WCL bound; `isolated_lookup` lets the bound's wire term range
    /// over a core's *allocated* banks only (sound only when lookups
    /// cannot probe other cores' banks). A default [`QosConfig`] is a
    /// no-op — behaviour stays bit-identical to a QoS-free run.
    pub fn set_qos(&mut self, qos: &QosConfig, shared_active: bool, isolated_lookup: bool) {
        if !qos.is_enabled() {
            return;
        }
        if let Some(cfg) = qos.noc_regulator {
            self.noc.set_regulator(cfg);
        }
        if let Some(cfg) = qos.dram_regulator {
            self.dram.set_regulator(cfg);
        }
        self.qos_enabled = true;
        let params = WclParams {
            noc_queue_bound: self.noc.queue_bound(),
            noc_reg_stall: self.noc.regulator_worst_stall(),
            dram_worst: self.dram.worst_case_read_latency(),
            dram_reg_stall: self.dram.regulator_worst_stall(),
            coherence_extra: if shared_active {
                self.forward_latency.max(self.invalidate_latency)
            } else {
                0
            },
            isolated_lookup,
        };
        let min_budget = [qos.noc_regulator, qos.dram_regulator]
            .iter()
            .flatten()
            .map(|c| c.budget)
            .min();
        self.controller
            .set_qos(qos.slos.clone(), params, min_budget);
        // The construction-time plan predates the SLO declarations; give
        // admitted cores their capacity floor before the first access runs.
        if let Some(plan) = self.controller.enforce_slo_now() {
            self.install(plan);
        }
        self.current_bounds = self.controller.slo_bounds();
    }

    /// Per-epoch worst measured demand latency per core (row = epoch).
    pub fn worst_latency_history(&self) -> &[Vec<Cycle>] {
        &self.worst_history
    }

    /// Per-epoch admitted WCL bound per core (`None` = best effort).
    pub fn slo_bound_history(&self) -> &[Vec<Option<Cycle>>] {
        &self.bound_history
    }

    /// The per-core capacity-loss ledger accumulated by the controller.
    pub fn core_degrades(&self) -> bap_fault::CoreDegradeLedger {
        self.controller.core_degrades().clone()
    }

    /// Configure the control-loop robustness layer (decision budget,
    /// anti-thrash hysteresis, invariant guard). Defaults are
    /// behaviour-neutral; call before the run starts.
    pub fn set_control(&mut self, control: ControlConfig) {
        self.controller.set_control(control);
    }

    /// Attach a decision-trace handle to the whole hierarchy: the
    /// controller (solves, ladder), the L2 (plan installs, bank
    /// transitions) and any armed fault injector (drops, corruptions)
    /// share the one totally-ordered stream. The initial plan installed at
    /// construction is deliberately untraced — a trace always starts with
    /// the first epoch boundary after attachment.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.controller.set_tracer(tracer.clone());
        self.l2.set_tracer(tracer.clone());
        if let Some(inj) = &mut self.injector {
            inj.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// The attached trace handle (disabled unless
    /// [`SharedMemory::set_tracer`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Arm a fault-injection campaign. With a disabled config (or without
    /// this call) every fault path is a cheap early-out and behaviour is
    /// bit-identical to the healthy system.
    pub fn set_fault_injection(&mut self, cfg: FaultConfig) {
        let mut inj = FaultInjector::new(cfg);
        inj.set_tracer(self.tracer.clone());
        self.injector = Some(inj);
    }

    /// Fault accounting so far: injection events seen by the memory system
    /// merged with the controller's degradation-ladder counters.
    pub fn fault_counters(&self) -> FaultCounters {
        let mut c = self.fault_counters;
        c.merge(&self.controller.counters());
        c
    }

    /// Close an epoch: inject any scheduled faults, then repartition if the
    /// policy calls for it.
    ///
    /// Fault ordering per boundary: bank transitions first (dead banks are
    /// flushed, their dirty lines charged to DRAM, and an out-of-cadence
    /// replan installs a valid plan immediately); then a dropped-epoch
    /// fault may swallow the repartitioning trigger entirely; otherwise the
    /// controller runs on curves that may have been corrupted in flight.
    pub fn epoch_boundary(&mut self) {
        let epoch = self.fault_epoch;
        self.fault_epoch += 1;
        // Trace epochs are 1-based: epoch 0 holds whatever was emitted
        // before the first boundary (e.g. workload profiling).
        self.tracer.begin_epoch(epoch + 1);
        let t0 = self.tracer.is_enabled().then(std::time::Instant::now);
        self.epoch_boundary_inner(epoch);
        if let Some(t0) = t0 {
            self.tracer
                .timing("epoch_boundary", t0.elapsed().as_nanos() as u64);
        }
    }

    fn epoch_boundary_inner(&mut self, epoch: u64) {
        if self.qos_enabled {
            self.close_qos_epoch();
        }
        self.decide_epoch(epoch);
        self.guard_check();
        if self.qos_enabled {
            self.current_bounds = self.controller.slo_bounds();
        }
    }

    /// Close the QoS accounting of the epoch that just ran: append the
    /// measured worst latencies and the bounds that were in force (row `i`
    /// of both histories describes epoch `i`), and drain the regulators'
    /// per-epoch throttle ledgers onto the trace.
    fn close_qos_epoch(&mut self) {
        let n = self.epoch_worst.len();
        let worst = std::mem::replace(&mut self.epoch_worst, vec![0; n]);
        self.worst_history.push(worst);
        self.bound_history.push(self.current_bounds.clone());
        for (bank, requests, stall_cycles) in self.noc.drain_epoch_throttle() {
            self.tracer.emit(|| EventKind::RegulatorThrottle {
                domain: "noc".to_string(),
                bank,
                requests,
                stall_cycles,
            });
        }
        for (bank, requests, stall_cycles) in self.dram.drain_epoch_throttle() {
            self.tracer.emit(|| EventKind::RegulatorThrottle {
                domain: "dram".to_string(),
                bank,
                requests,
                stall_cycles,
            });
        }
    }

    fn decide_epoch(&mut self, epoch: u64) {
        let Some(inj) = self.injector.clone() else {
            let curves = self.controller.curves();
            if let Some(plan) = self.controller.epoch_boundary_with_curves(curves) {
                self.install(plan);
            }
            self.push_epoch_history();
            return;
        };

        let events = inj.bank_events(epoch, self.l2.bank_mask());
        for ev in &events {
            match ev.kind {
                BankEventKind::Offline => {
                    // Counted by the controller's own mask transition. The
                    // injector draws banks from the live mask, so an
                    // unknown bank means campaign and topology disagree —
                    // drop the event rather than corrupt state.
                    match self.l2.take_bank_offline(ev.bank) {
                        Ok(dirty) => {
                            for wb in dirty {
                                self.dram.writeback(wb, self.clock);
                            }
                            self.controller.bank_failed(ev.bank);
                        }
                        Err(_) => self.fault_counters.plans_rejected += 1,
                    }
                }
                BankEventKind::Restore => match self.l2.restore_bank(ev.bank) {
                    Ok(()) => self.controller.bank_restored(ev.bank),
                    Err(_) => self.fault_counters.plans_rejected += 1,
                },
            }
        }
        // A bank transition invalidates the installed plan right now, not
        // at the next cadence: replan immediately so no access window runs
        // on a dead assignment.
        if !events.is_empty() {
            if let Some(plan) = self.controller.replan_for_mask() {
                self.install(plan);
            }
        }

        if inj.drop_epoch(epoch) {
            self.fault_counters.epochs_dropped += 1;
            self.controller.skip_epoch();
            self.push_epoch_history();
            return;
        }

        let mut curves = self.controller.curves();
        self.fault_counters.curves_corrupted += inj.corrupt_curves(epoch, &mut curves);
        if let Some(plan) = self.controller.epoch_boundary_with_curves(curves) {
            self.install(plan);
        }
        self.push_epoch_history();
    }

    /// Run the online invariant guard over the state this boundary leaves
    /// behind. Violations are traced and counted, then escalated into the
    /// controller's degradation ladder — after re-syncing the controller's
    /// bank mask to the cache's live mask, so the ladder judges plans
    /// against the hardware truth.
    fn guard_check(&mut self) {
        if !self.controller.control().guard {
            return;
        }
        let curves = self.controller.curves();
        let mut report = self.guard.check_epoch(
            self.controller.mask(),
            self.l2.bank_mask(),
            self.l2.plan(),
            self.controller.plan_source(),
            &curves,
        );
        if let Some(q) = self.controller.qos() {
            report.violations.extend(self.guard.check_slos(
                &q.slos,
                &q.admitted,
                &q.params,
                self.l2.plan(),
                self.l2.bank_mask(),
            ));
        }
        if report.is_ok() {
            return;
        }
        report.emit(&self.tracer);
        self.fault_counters.guard_trips += report.violations.len() as u64;
        for b in 0..self.l2.num_banks() {
            let bank = BankId(b as u16);
            let live = self.l2.bank_mask().is_healthy(bank);
            if live != self.controller.mask().is_healthy(bank) {
                if live {
                    self.controller.bank_restored(bank);
                } else {
                    self.controller.bank_failed(bank);
                }
            }
        }
        let plan = self.controller.guard_escalate();
        let violations = report.violations.len();
        let repaired = plan.is_some();
        self.tracer.emit(|| EventKind::GuardEscalated {
            violations,
            repaired,
        });
        self.fault_counters.guard_escalations += 1;
        if let Some(plan) = plan {
            self.install(plan);
        }
    }

    /// Install a plan atomically; a rejected plan leaves the previous
    /// configuration in force and is only counted.
    fn install(&mut self, plan: bap_cache::PartitionPlan) {
        match self.l2.try_apply_plan(plan, self.scheme) {
            Ok(()) => self.plans_applied += 1,
            Err(_) => self.fault_counters.plans_rejected += 1,
        }
    }

    fn push_epoch_history(&mut self) {
        let ways = match self.l2.plan() {
            Some(p) => (0..p.num_cores())
                .map(|c| p.ways_of(bap_types::CoreId(c as u16)))
                .collect(),
            None => Vec::new(),
        };
        self.epoch_history.push(ways);
    }

    /// The way assignment in force after each epoch boundary.
    pub fn epoch_history(&self) -> &[Vec<usize>] {
        &self.epoch_history
    }

    /// Partition plans applied so far (including the initial one).
    pub fn plans_applied(&self) -> u64 {
        self.plans_applied
    }

    /// Per-core L2 statistics.
    pub fn l2_stats(&self, core: CoreId) -> CacheStats {
        self.l2_stats[core.index()]
    }

    /// Per-core cumulative L2 round-trip latency.
    pub fn l2_latency_sum(&self, core: CoreId) -> u64 {
        self.l2_latency_sum[core.index()]
    }

    /// Reset measurement counters (warm state kept).
    pub fn reset_stats(&mut self) {
        self.l2.reset_stats();
        self.noc.reset_stats();
        self.dram.reset_stats();
        self.l2_stats = vec![CacheStats::default(); self.l2_stats.len()];
        self.l2_latency_sum = vec![0; self.l2_latency_sum.len()];
    }

    /// Whether the L2 currently runs partitioned.
    pub fn mode(&self) -> L2Mode {
        self.l2.mode()
    }

    /// Zero all fault accounting (system-side counters and the
    /// controller's ladder counters). The fault-epoch index is *not*
    /// reset: the injector's deterministic schedule keeps advancing across
    /// runs on the same system.
    pub fn reset_fault_counters(&mut self) {
        self.fault_counters = FaultCounters::default();
        self.controller.reset_counters();
    }

    /// Full dynamic state of the hierarchy (everything a resumed run needs
    /// that is not rebuilt from the configuration: caches, interconnect and
    /// DRAM timing state, profilers, coherence, accounting). The tracer,
    /// injector and latency constants are configuration and stay out.
    pub fn snapshot(&self) -> SharedMemoryState<'_> {
        SharedMemoryState {
            l2: self.l2.snapshot(),
            noc: self.noc.snapshot(),
            dram: self.dram.snapshot(),
            controller: self.controller.snapshot(),
            coherence: self.coherence.snapshot(),
            l2_stats: Cow::Borrowed(&self.l2_stats),
            l2_latency_sum: Cow::Borrowed(&self.l2_latency_sum),
            plans_applied: self.plans_applied,
            epoch_history: Cow::Borrowed(&self.epoch_history),
            fault_counters: self.fault_counters,
            fault_epoch: self.fault_epoch,
            clock: self.clock,
            epoch_worst: Cow::Borrowed(&self.epoch_worst),
            worst_history: Cow::Borrowed(&self.worst_history),
            bound_history: Cow::Borrowed(&self.bound_history),
            current_bounds: Cow::Borrowed(&self.current_bounds),
        }
    }

    /// Restore dynamic state into a freshly constructed hierarchy of the
    /// same configuration. Geometry mismatches are rejected, and leave the
    /// hierarchy partially restored — callers must discard it on failure.
    pub fn restore(&mut self, s: SharedMemoryState<'_>) -> Result<(), String> {
        let SharedMemoryState {
            l2,
            noc,
            dram,
            controller,
            coherence,
            l2_stats,
            l2_latency_sum,
            plans_applied,
            epoch_history,
            fault_counters,
            fault_epoch,
            clock,
            epoch_worst,
            worst_history,
            bound_history,
            current_bounds,
        } = s;
        if l2_stats.len() != self.l2_stats.len() {
            return Err("per-core L2 stats count mismatch".to_string());
        }
        if l2_latency_sum.len() != self.l2_latency_sum.len() {
            return Err("per-core L2 latency count mismatch".to_string());
        }
        self.l2.restore(l2)?;
        self.noc.restore(noc);
        self.dram.restore(dram)?;
        self.controller.restore(controller)?;
        self.coherence.restore(coherence)?;
        self.l2_stats = l2_stats.into_owned();
        self.l2_latency_sum = l2_latency_sum.into_owned();
        self.plans_applied = plans_applied;
        self.epoch_history = epoch_history.into_owned();
        self.fault_counters = fault_counters;
        self.fault_epoch = fault_epoch;
        self.clock = clock;
        // The QoS members are absent from pre-QoS checkpoints; per-core
        // rows of the wrong length restart from the neutral value.
        let n = self.epoch_worst.len();
        self.epoch_worst = if epoch_worst.len() == n {
            epoch_worst.into_owned()
        } else {
            vec![0; n]
        };
        self.worst_history = worst_history.into_owned();
        self.bound_history = bound_history.into_owned();
        self.current_bounds = if current_bounds.len() == n {
            current_bounds.into_owned()
        } else {
            vec![None; n]
        };
        Ok(())
    }
}

/// The hierarchy's checkpointed state ([`SharedMemory::snapshot`]).
#[derive(Serialize, Deserialize)]
pub struct SharedMemoryState<'a> {
    l2: DnucaState<'a>,
    noc: NocState<'a>,
    dram: MemoryState<'a>,
    controller: ControllerState<'a>,
    coherence: ClusterState<'a>,
    l2_stats: Cow<'a, [CacheStats]>,
    l2_latency_sum: Cow<'a, [u64]>,
    plans_applied: u64,
    epoch_history: Cow<'a, [Vec<usize>]>,
    fault_counters: FaultCounters,
    fault_epoch: u64,
    clock: Cycle,
    #[serde(default)]
    epoch_worst: Cow<'a, [Cycle]>,
    #[serde(default)]
    worst_history: Cow<'a, [Vec<Cycle>]>,
    #[serde(default)]
    bound_history: Cow<'a, [Vec<Option<Cycle>>]>,
    #[serde(default)]
    current_bounds: Cow<'a, [Option<Cycle>]>,
}

impl MemorySystem for SharedMemory {
    fn request(&mut self, core: CoreId, block: BlockAddr, write: bool, cycle: Cycle) -> u64 {
        // Coherence first: shared-segment accesses may be satisfied by a
        // cache-to-cache forward (no L2/DRAM data movement needed).
        let mut extra = 0u64;
        if is_shared(block) {
            let tx = if write {
                self.coherence.store(core, block)
            } else {
                self.coherence.load(core, block).1
            };
            match tx {
                Transaction::Forward => extra += self.forward_latency,
                Transaction::Upgrade => extra += self.invalidate_latency,
                Transaction::Hit | Transaction::MemoryFill => {}
            }
        }

        // Demand access into the L2.
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let outcome = self.l2.access(block, core, kind);
        self.controller.observe(core, block);
        let noc = self.noc.l2_access(core, outcome.bank, cycle);
        let mut latency = noc.total() + extra;
        if !outcome.hit {
            latency += self.dram.read(block, cycle + latency);
        }
        // Dirty L2 victims consume DRAM bandwidth (not waited on).
        for wb in &outcome.writebacks {
            self.dram.writeback(*wb, cycle + latency);
        }
        self.l2_stats[core.index()].record(outcome.hit);
        self.l2_latency_sum[core.index()] += latency;
        let worst = &mut self.epoch_worst[core.index()];
        *worst = (*worst).max(latency);
        self.clock = self.clock.max(cycle + latency);
        latency
    }

    fn writeback(&mut self, core: CoreId, block: BlockAddr, cycle: Cycle) {
        // A dirty L1 line updates the L2 copy (write-back, not waited on).
        // Not a demand access: the profiler does not observe it.
        let outcome = self.l2.access(block, core, AccessKind::Write);
        self.noc.l2_access(core, outcome.bank, cycle);
        for wb in &outcome.writebacks {
            self.dram.writeback(*wb, cycle);
        }
        if is_shared(block) {
            self.coherence.evict(core, block);
        }
        self.clock = self.clock.max(cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(policy: Policy) -> SharedMemory {
        SharedMemory::new(
            &SystemConfig::scaled(64),
            policy,
            AggregationScheme::Parallel,
        )
    }

    #[test]
    fn miss_costs_more_than_hit() {
        let mut m = shared(Policy::NoPartition);
        let b = BlockAddr(0x40);
        let miss = m.request(CoreId(0), b, false, 0);
        let hit = m.request(CoreId(0), b, false, 10_000);
        assert!(miss >= 260, "miss pays DRAM: {miss}");
        assert!(hit < 100, "hit is NUCA-only: {hit}");
        assert_eq!(m.l2_stats(CoreId(0)).misses, 1);
        assert_eq!(m.l2_stats(CoreId(0)).hits, 1);
    }

    #[test]
    fn policies_set_initial_mode() {
        assert_eq!(shared(Policy::NoPartition).mode(), L2Mode::SharedDnuca);
        assert!(matches!(
            shared(Policy::Equal).mode(),
            L2Mode::Partitioned(_)
        ));
        assert!(matches!(
            shared(Policy::BankAware).mode(),
            L2Mode::Partitioned(_)
        ));
    }

    #[test]
    fn epoch_boundary_repartitions_bank_aware() {
        let mut m = shared(Policy::BankAware);
        // Feed core 0 a deep cyclic working set (32 ways' worth of blocks on
        // the scaled machine: 1024 blocks / 32 sets = 32-way distance).
        for i in 0..20_000u64 {
            m.request(CoreId(0), BlockAddr(i % 1024), false, i * 10);
        }
        m.epoch_boundary();
        let plan = m.l2.plan().expect("partitioned");
        assert!(plan.ways_of(CoreId(0)) > 16, "{plan}");
    }

    #[test]
    fn shared_segment_runs_coherence() {
        let mut m = shared(Policy::NoPartition);
        let b = BlockAddr(SHARED_SEGMENT_BIT | 0x10);
        assert!(is_shared(b));
        m.request(CoreId(0), b, true, 0);
        // A second core reading pays the forward latency.
        let with_forward = m.request(CoreId(1), b, false, 1_000_000);
        assert!(with_forward > 40, "forward latency charged: {with_forward}");
        assert!(m.coherence.directory().stats().forwards >= 1);
    }

    #[test]
    fn writeback_consumes_bandwidth_silently() {
        let mut m = shared(Policy::NoPartition);
        let before = m.l2_stats(CoreId(0)).accesses();
        m.writeback(CoreId(0), BlockAddr(0x5), 0);
        // Not a demand access: per-core stats unchanged.
        assert_eq!(m.l2_stats(CoreId(0)).accesses(), before);
    }

    #[test]
    fn banked_dram_integration_reports_row_stats() {
        let mut cfg = SystemConfig::scaled(64);
        cfg.dram_kind = bap_types::config::DramKind::Banked;
        let mut m = SharedMemory::new(&cfg, Policy::NoPartition, AggregationScheme::Parallel);
        // Stream misses: contiguous blocks share DRAM rows.
        for i in 0..2000u64 {
            m.request(CoreId(0), BlockAddr(i), false, i * 400);
        }
        let rows = m.dram.row_stats().expect("banked model");
        assert!(rows.row_hits + rows.row_empty + rows.row_conflicts > 0);
        assert!(m.dram.stats().requests > 0);
    }

    #[test]
    fn guard_heals_a_mask_desync() {
        let mut m = shared(Policy::BankAware);
        for i in 0..20_000u64 {
            m.request(CoreId((i % 8) as u16), BlockAddr(i % 2048), false, i * 10);
        }
        m.epoch_boundary();
        assert!(
            m.fault_counters().guard_trips == 0,
            "healthy epoch is quiet"
        );
        // Knock a bank offline behind the controller's back — the cache
        // knows, the controller does not. The guard catches the desync at
        // the next boundary, re-syncs the mask and escalates the ladder
        // into a plan that avoids the dead bank.
        m.l2.take_bank_offline(bap_types::BankId(3))
            .expect("bank exists");
        m.epoch_boundary();
        let ctrs = m.fault_counters();
        assert!(ctrs.guard_trips >= 1, "desync detected: {ctrs:?}");
        assert_eq!(ctrs.guard_escalations, 1);
        assert!(
            !m.controller.mask().is_healthy(bap_types::BankId(3)),
            "controller mask re-synced to the hardware truth"
        );
        // The following boundary is healthy again: the controller replans
        // around the dead bank and the guard stays quiet.
        m.epoch_boundary();
        let after = m.fault_counters();
        assert_eq!(after.guard_escalations, 1, "no repeated escalation");
        let plan = m.l2.plan().expect("partitioned");
        assert_eq!(plan.bank_ways_used(bap_types::BankId(3)), 0);
    }

    #[test]
    fn guard_can_be_disabled() {
        let mut m = shared(Policy::BankAware);
        m.set_control(bap_types::ControlConfig {
            guard: false,
            ..Default::default()
        });
        m.l2.take_bank_offline(bap_types::BankId(3))
            .expect("bank exists");
        m.epoch_boundary();
        assert_eq!(m.fault_counters().guard_trips, 0, "guard off = no checks");
    }

    #[test]
    fn step_budget_sheds_in_the_full_hierarchy() {
        let mut m = shared(Policy::BankAware);
        for i in 0..20_000u64 {
            m.request(CoreId((i % 8) as u16), BlockAddr(i % 2048), false, i * 10);
        }
        m.epoch_boundary();
        let installed = m.l2.plan().cloned();
        m.set_control(bap_types::ControlConfig::default().with_step_budget(1));
        m.epoch_boundary();
        let ctrs = m.fault_counters();
        assert_eq!(ctrs.budget_sheds, 1, "starved solve shed: {ctrs:?}");
        assert_eq!(m.l2.plan().cloned(), installed, "last-good plan in force");
        assert_eq!(
            ctrs.guard_trips, 0,
            "a shed epoch still satisfies every invariant"
        );
    }

    #[test]
    fn reset_stats_keeps_cache_warm() {
        let mut m = shared(Policy::NoPartition);
        let b = BlockAddr(0x40);
        m.request(CoreId(0), b, false, 0);
        m.reset_stats();
        assert_eq!(m.l2_stats(CoreId(0)).accesses(), 0);
        let lat = m.request(CoreId(0), b, false, 10_000);
        assert!(lat < 100, "warm hit after reset");
    }

    fn qos_config() -> bap_types::QosConfig {
        bap_types::QosConfig::default()
            .with_slo(
                0,
                bap_types::SloSpec {
                    max_wcl_cycles: 1_000_000,
                    min_ways: 24,
                    bandwidth_floor: 0,
                },
            )
            .with_noc_regulator(bap_types::RegulatorConfig::per_period(64, 1_000))
            .with_dram_regulator(bap_types::RegulatorConfig::per_period(32, 1_000))
    }

    #[test]
    fn slo_floor_holds_from_the_first_access() {
        let mut m = shared(Policy::BankAware);
        m.set_qos(&qos_config(), false, false);
        // `enforce_slo_now` replaced the construction-time equal split
        // before any access ran.
        let plan = m.l2.plan().expect("partitioned");
        assert!(plan.ways_of(CoreId(0)) >= 24, "{plan}");
        assert!(m.controller.slo_admitted(CoreId(0)));
        // Pressure from every core, then a boundary: the floor survives
        // the repartitioning decision.
        for i in 0..20_000u64 {
            m.request(CoreId((i % 8) as u16), BlockAddr(i % 2048), false, i * 10);
        }
        m.epoch_boundary();
        let plan = m.l2.plan().expect("partitioned");
        assert!(plan.ways_of(CoreId(0)) >= 24, "{plan}");
        assert_eq!(m.fault_counters().guard_trips, 0, "enforced plan is valid");
    }

    #[test]
    fn measured_worst_stays_under_the_admitted_bound() {
        let mut m = shared(Policy::BankAware);
        m.set_qos(&qos_config(), false, false);
        for i in 0..20_000u64 {
            m.request(CoreId((i % 8) as u16), BlockAddr(i % 4096), false, i * 10);
        }
        m.epoch_boundary();
        let worst = m.worst_latency_history();
        let bounds = m.slo_bound_history();
        assert_eq!(worst.len(), 1);
        assert_eq!(bounds.len(), 1);
        let bound = bounds[0][0].expect("core 0 admitted");
        assert!(worst[0][0] > 0, "core 0 saw traffic");
        assert!(
            worst[0][0] <= bound,
            "measured {} exceeds bound {bound}",
            worst[0][0]
        );
        for (c, b) in bounds[0].iter().enumerate().skip(1) {
            assert_eq!(*b, None, "core {c} is best effort");
        }
    }

    #[test]
    fn default_qos_config_is_inert() {
        let mut with_qos = shared(Policy::BankAware);
        with_qos.set_qos(&bap_types::QosConfig::default(), false, false);
        let mut without = shared(Policy::BankAware);
        for i in 0..20_000u64 {
            let b = BlockAddr(i % 2048);
            let c = CoreId((i % 8) as u16);
            assert_eq!(
                with_qos.request(c, b, false, i * 10),
                without.request(c, b, false, i * 10)
            );
        }
        with_qos.epoch_boundary();
        without.epoch_boundary();
        assert_eq!(with_qos.l2.plan(), without.l2.plan());
        assert!(with_qos.worst_latency_history().is_empty());
        assert!(with_qos.slo_bound_history().is_empty());
    }

    #[test]
    fn qos_accounting_survives_a_snapshot_round_trip() {
        let mut m = shared(Policy::BankAware);
        m.set_qos(&qos_config(), false, false);
        for i in 0..20_000u64 {
            m.request(CoreId((i % 8) as u16), BlockAddr(i % 2048), false, i * 10);
        }
        m.epoch_boundary();
        let snap = m.snapshot();
        let mut r = shared(Policy::BankAware);
        r.set_qos(&qos_config(), false, false);
        r.restore(snap).expect("restore");
        assert_eq!(r.worst_latency_history(), m.worst_latency_history());
        assert_eq!(r.slo_bound_history(), m.slo_bound_history());
        assert_eq!(r.current_bounds, m.current_bounds);
        assert_eq!(r.core_degrades(), m.core_degrades());
        // Both continue identically.
        for i in 20_000..24_000u64 {
            let b = BlockAddr(i % 2048);
            let c = CoreId((i % 8) as u16);
            assert_eq!(
                m.request(c, b, false, i * 10),
                r.request(c, b, false, i * 10)
            );
        }
        m.epoch_boundary();
        r.epoch_boundary();
        assert_eq!(r.worst_latency_history(), m.worst_latency_history());
        assert_eq!(r.l2.plan(), m.l2.plan());
    }

    #[test]
    fn bank_death_escalates_into_slo_reenforcement() {
        let mut m = shared(Policy::BankAware);
        m.set_qos(&qos_config(), false, false);
        for i in 0..20_000u64 {
            m.request(CoreId((i % 8) as u16), BlockAddr(i % 2048), false, i * 10);
        }
        m.epoch_boundary();
        // Kill a bank behind the controller's back: the guard resyncs and
        // the escalation path must land on a plan that still honours the
        // admitted floor.
        m.l2.take_bank_offline(bap_types::BankId(0))
            .expect("bank exists");
        m.epoch_boundary();
        let plan = m.l2.plan().expect("partitioned");
        assert_eq!(plan.bank_ways_used(bap_types::BankId(0)), 0);
        assert!(m.controller.slo_admitted(CoreId(0)), "floor still feasible");
        assert!(plan.ways_of(CoreId(0)) >= 24, "{plan}");
    }
}
