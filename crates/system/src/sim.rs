//! The detailed multiprogrammed simulation driver (Figs. 8/9 testbed).
//!
//! Eight [`bap_cpu::CoreModel`]s consume eight [`AddressStream`]s over one
//! [`SharedMemory`]. Cores are interleaved by advancing whichever core's
//! issue frontier is furthest behind, in fixed quanta, so the contention
//! models (bank ports, links, DRAM channel) see time-aligned traffic.
//! Repartitioning epochs fire on the global (minimum) frontier, mirroring
//! the paper's 100 M-cycle epochs.
//!
//! A run has a warm-up slice (statistics discarded) followed by a
//! measurement slice, as in the paper's methodology (§IV).

use crate::memory::{SharedMemory, SharedMemoryState, SHARED_SEGMENT_BIT};
use bap_cache::dnuca::DnucaStats;
use bap_cache::{AggregationScheme, PartitionPlan};
use bap_core::Policy;
use bap_cpu::{CoreModel, CoreState};
use bap_dram::DramStats;
use bap_noc::NocStats;
use bap_recovery::Checkpoint;
use bap_trace::{TraceSummary, Tracer};
use bap_types::stats::CoreStats;
use bap_types::{Addr, CoreId, Cycle, Op, SystemConfig};
use bap_workloads::{AddressStream, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Options of one simulation run.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Machine configuration (Table I, possibly scaled).
    pub config: SystemConfig,
    /// Partitioning policy under test.
    pub policy: Policy,
    /// Bank-aggregation scheme.
    pub scheme: AggregationScheme,
    /// Instructions per core whose statistics are discarded (cache warm-up).
    pub warmup_instructions: u64,
    /// Instructions per core measured after warm-up.
    pub measure_instructions: u64,
    /// Fraction of memory accesses redirected into the coherent shared
    /// segment (0.0 = pure multiprogrammed, as in the paper).
    pub shared_fraction: f64,
    /// Number of distinct blocks in the shared segment.
    pub shared_blocks: u64,
    /// Shared-DNUCA chain depth for the No-partitions baseline.
    pub shared_chain_limit: usize,
    /// Per-bank replacement policy (TrueLru is the paper's assumption; the
    /// ablation sweeps hardware approximations).
    pub replacement: bap_cache::ReplacementPolicy,
    /// Stop repartitioning after this many plans (None = fully dynamic).
    /// `Some(1)` turns Bank-aware into a static one-shot assignment — the
    /// baseline the phase-adaptation ablation compares against.
    pub freeze_plan_after: Option<u64>,
    /// Strict lookup isolation: partitioned lookups never search other
    /// partitions, and repartitions flush stranded lines (§III-B's literal
    /// access restriction). Off by default (DNUCA migration semantics).
    pub lookup_isolation: bool,
    /// Fault-injection campaign (None = healthy run, bit-identical to the
    /// pre-fault-subsystem behaviour).
    pub fault: Option<bap_fault::FaultConfig>,
    /// Control-loop robustness layer: decision budget, anti-thrash
    /// hysteresis and the invariant guard. Defaults are behaviour-neutral.
    pub control: bap_types::ControlConfig,
    /// QoS tier: per-bank bandwidth regulators and per-core SLOs with
    /// admission control. The default is behaviour-neutral.
    pub qos: bap_types::QosConfig,
    /// Master seed.
    pub seed: u64,
}

impl SimOptions {
    /// Defaults for a given machine/policy: pure multiprogrammed mix with
    /// paper-proportional warm-up.
    pub fn new(config: SystemConfig, policy: Policy) -> Self {
        SimOptions {
            config,
            policy,
            scheme: AggregationScheme::Parallel,
            warmup_instructions: 200_000,
            measure_instructions: 1_000_000,
            shared_fraction: 0.0,
            shared_blocks: 4096,
            shared_chain_limit: crate::memory::DEFAULT_SHARED_CHAIN,
            replacement: bap_cache::ReplacementPolicy::TrueLru,
            freeze_plan_after: None,
            lookup_isolation: false,
            fault: None,
            control: bap_types::ControlConfig::default(),
            qos: bap_types::QosConfig::default(),
            seed: 1,
        }
    }
}

/// Results of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Per-core statistics over the measurement slice.
    pub per_core: Vec<CoreStats>,
    /// L2 traffic counters.
    pub l2: DnucaStats,
    /// Interconnect counters.
    pub noc: NocStats,
    /// Memory counters.
    pub dram: DramStats,
    /// Row-buffer behaviour (banked-DRAM runs only).
    pub dram_rows: Option<bap_dram::RowStats>,
    /// Coherence-protocol traffic (shared-segment runs).
    pub coherence: bap_coherence::directory::DirectoryStats,
    /// The plan in force at the end (None in shared mode).
    pub final_plan: Option<PartitionPlan>,
    /// Repartitioning epochs that fired during measurement.
    pub epochs: u64,
    /// Way assignment after each epoch boundary across the whole run
    /// (warm-up included) — the adaptation timeline.
    pub epoch_history: Vec<Vec<usize>>,
    /// Fault-injection and degradation-ladder accounting (all zero on a
    /// healthy run).
    pub fault: bap_fault::FaultCounters,
    /// Decision-trace summary (None unless a tracer was attached with
    /// [`System::set_tracer`]).
    pub trace: Option<TraceSummary>,
    /// Per-epoch worst measured demand latency per core (QoS runs only —
    /// empty otherwise; row `i` describes epoch `i`).
    pub worst_latency_history: Vec<Vec<Cycle>>,
    /// Per-epoch admitted WCL bound per core, aligned with
    /// `worst_latency_history` (`None` = best effort that epoch).
    pub slo_bound_history: Vec<Vec<Option<Cycle>>>,
    /// Per-core capacity-loss ledger: which cores were demoted by the
    /// degradation ladder or SLO enforcement, and by how many ways.
    pub core_degrades: bap_fault::CoreDegradeLedger,
    /// Warm-start solver accounting: decisions, full solves, per-cluster
    /// re-solves and warm hits (all zero unless
    /// [`bap_types::IncrementalConfig`] is enabled).
    pub incremental: bap_core::IncrementalStats,
}

impl RunResult {
    /// Total L2 misses across cores.
    pub fn total_l2_misses(&self) -> u64 {
        self.per_core.iter().map(|c| c.l2.misses).sum()
    }

    /// Total L2 accesses across cores.
    pub fn total_l2_accesses(&self) -> u64 {
        self.per_core.iter().map(|c| c.l2.accesses()).sum()
    }

    /// System miss ratio over L2 accesses.
    pub fn l2_miss_ratio(&self) -> f64 {
        let a = self.total_l2_accesses();
        if a == 0 {
            0.0
        } else {
            self.total_l2_misses() as f64 / a as f64
        }
    }

    /// Arithmetic-mean CPI across cores.
    pub fn mean_cpi(&self) -> f64 {
        let cpis: Vec<f64> = self.per_core.iter().map(|c| c.cpi()).collect();
        bap_types::stats::mean(&cpis)
    }
}

/// A per-core instruction source: anything that yields [`Op`]s forever
/// (generated streams, phased streams, replayed traces).
pub type OpStream = Box<dyn Iterator<Item = Op> + Send>;

/// The simulation driver.
///
/// ```no_run
/// use bap_core::Policy;
/// use bap_system::{SimOptions, System};
/// use bap_types::SystemConfig;
/// use bap_workloads::spec_by_name;
///
/// let specs: Vec<_> = ["mcf", "twolf", "art", "sixtrack", "gcc", "gap", "vpr", "eon"]
///     .iter().map(|n| spec_by_name(n).unwrap()).collect();
/// let opts = SimOptions::new(SystemConfig::scaled(8), Policy::BankAware);
/// let result = System::new(opts, specs).run();
/// println!("misses: {}", result.total_l2_misses());
/// ```
pub struct System {
    opts: SimOptions,
    cores: Vec<CoreModel>,
    streams: Vec<OpStream>,
    /// Ops drawn from each stream so far. Checkpoints record these counts
    /// instead of serializing generator internals: restore rebuilds the
    /// streams from the seed and fast-forwards by re-drawing.
    ops_drawn: Vec<u64>,
    mem: SharedMemory,
}

/// Which slice of a run an epoch boundary fired in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Cache warm-up (statistics discarded at its end).
    Warmup,
    /// The measured slice.
    Measure,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Warmup => "warmup",
            Phase::Measure => "measure",
        }
    }
}

/// A phase is written as its lower-case [`Phase::name`].
impl Serialize for Phase {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl Deserialize for Phase {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        match r.read_string()?.as_str() {
            "warmup" => Ok(Phase::Warmup),
            "measure" => Ok(Phase::Measure),
            other => Err(serde::Error::msg(format!("unknown phase `{other}`"))),
        }
    }
}

/// Where a run stands at an epoch boundary — together with a
/// [`System::checkpoint`] snapshot, enough to resume the run mid-flight.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResumePoint {
    /// The phase the boundary fired in.
    pub phase: Phase,
    /// Epoch boundaries fired so far in this phase.
    pub epochs: u64,
    /// The cycle at which the next boundary fires.
    pub next_epoch: Cycle,
}

/// A run's checkpointed state ([`System::checkpoint`]).
#[derive(Serialize, Deserialize)]
pub struct SystemState<'a> {
    num_cores: usize,
    seed: u64,
    policy: Policy,
    cores: Vec<CoreState<'a>>,
    ops_drawn: Cow<'a, [u64]>,
    mem: SharedMemoryState<'a>,
    resume: ResumePoint,
}

/// What an epoch hook tells the driver to do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochControl {
    /// Keep running.
    Continue,
    /// Stop right here — a simulated crash (or an external kill point).
    Halt,
}

/// How a hooked run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// Both phases ran to completion.
    Completed(Box<RunResult>),
    /// The hook halted the run at this epoch boundary.
    Halted(ResumePoint),
}

impl RunOutcome {
    /// The completed result, panicking on a halt (test convenience).
    pub fn into_result(self) -> RunResult {
        match self {
            RunOutcome::Completed(r) => *r,
            RunOutcome::Halted(at) => panic!("run halted at {at:?}"),
        }
    }
}

/// An epoch-boundary observer: called right after each boundary fires with
/// the system state and the exact resume point a checkpoint taken now
/// would resume from.
pub type EpochHook<'a> = &'a mut dyn FnMut(&System, &ResumePoint) -> EpochControl;

impl System {
    /// Build a system running one workload per core (`specs.len()` must
    /// equal the configured core count).
    pub fn new(opts: SimOptions, specs: Vec<WorkloadSpec>) -> Self {
        let blocks_per_way = opts.config.l2_bank_sets() as u64;
        let seed = opts.seed;
        let streams = specs
            .into_iter()
            .enumerate()
            .map(|(c, spec)| {
                Box::new(AddressStream::new(
                    spec,
                    blocks_per_way,
                    c as u64 + 1,
                    seed ^ (c as u64) << 8,
                )) as OpStream
            })
            .collect();
        Self::with_streams(opts, streams)
    }

    /// Build a system over arbitrary per-core op streams (phased workloads,
    /// replayed traces, hand-written generators).
    pub fn with_streams(opts: SimOptions, streams: Vec<OpStream>) -> Self {
        assert_eq!(streams.len(), opts.config.num_cores, "one stream per core");
        let cores: Vec<CoreModel> = (0..opts.config.num_cores)
            .map(|c| CoreModel::new(CoreId(c as u16), &opts.config))
            .collect();
        let mut mem = SharedMemory::with_options(
            &opts.config,
            opts.policy,
            opts.scheme,
            opts.shared_chain_limit,
            opts.replacement,
        );
        mem.l2.set_lookup_isolation(opts.lookup_isolation);
        mem.set_control(opts.control);
        mem.set_qos(
            &opts.qos,
            opts.shared_fraction > 0.0,
            opts.lookup_isolation && opts.shared_fraction == 0.0,
        );
        if let Some(f) = opts.fault.clone() {
            mem.set_fault_injection(f);
        }
        let ops_drawn = vec![0; cores.len()];
        System {
            opts,
            cores,
            streams,
            ops_drawn,
            mem,
        }
    }

    /// The options this system was built with.
    pub fn options(&self) -> &SimOptions {
        &self.opts
    }

    /// The shared memory hierarchy (read access for invariant checks and
    /// checkpoint consumers).
    pub fn memory(&self) -> &SharedMemory {
        &self.mem
    }

    /// Attach a decision-trace handle to the memory hierarchy (controller,
    /// L2, fault injector). The run's [`RunResult::trace`] summary comes
    /// from the same handle; keep a clone to drain events or JSONL output.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.mem.set_tracer(tracer);
    }

    /// Remap a fraction of accesses into the coherent shared segment.
    fn remap_shared(&self, op: Op) -> Op {
        if self.opts.shared_fraction <= 0.0 {
            return op;
        }
        let Some(addr) = op.addr() else { return op };
        let block = addr.block().0;
        // Deterministic per-block hash decides membership.
        let h = block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        if (h % 10_000) as f64 >= self.opts.shared_fraction * 10_000.0 {
            return op;
        }
        let shared = Addr(((block % self.opts.shared_blocks) | SHARED_SEGMENT_BIT) << 6);
        match op {
            Op::Load(_) => Op::Load(shared),
            Op::DependentLoad(_) => Op::DependentLoad(shared),
            Op::Store(_) => Op::Store(shared),
            Op::Compute(n) => Op::Compute(n),
        }
    }

    /// Advance `core` until it has retired `target` instructions (since its
    /// last stats reset) or its frontier passes `until`.
    fn advance_core(&mut self, core: usize, target: u64, until: Cycle) {
        while self.cores[core].stats().instructions < target && self.cores[core].now() < until {
            let op = self.streams[core].next().expect("streams are infinite");
            self.ops_drawn[core] += 1;
            let op = self.remap_shared(op);
            self.cores[core].step(op, &mut self.mem);
        }
    }

    /// Run one phase: every core retires `instructions`; epochs fire on the
    /// global frontier. Returns the number of epoch boundaries crossed.
    ///
    /// The laggard selection runs off a min-heap keyed on (clock, core):
    /// each iteration only moves the popped core's clock, so the remaining
    /// heap entries never go stale and the scheduler costs O(log cores) per
    /// quantum instead of an O(cores) scan — the term that made
    /// `exp_scalability` quadratic at 16–32 cores. The (clock, index) key
    /// reproduces the old scan's first-minimal-index tie-break exactly.
    ///
    /// `resume` carries a prior boundary's `(epochs, next_epoch)` when the
    /// phase continues from a restored checkpoint; `hook` observes every
    /// boundary and may halt the run (simulated crash). The work heap is
    /// rebuilt from the cores' clocks on entry — valid because every live
    /// entry equals its core's `now()` at push time, so a rebuild
    /// reproduces the exact heap contents (and (clock, index) keys are
    /// unique, so the pop order too) that the uninterrupted run had at the
    /// same boundary.
    fn run_phase_from(
        &mut self,
        phase: Phase,
        instructions: u64,
        resume: Option<(u64, Cycle)>,
        hook: EpochHook<'_>,
    ) -> Result<u64, ResumePoint> {
        // Small quantum keeps the cores' local clocks tightly aligned so the
        // reservation-based contention models see near-causal traffic.
        let quantum: Cycle = 500;
        let epoch = self.opts.config.epoch_cycles;
        let (mut epochs, mut next_epoch) = match resume {
            Some(at) => at,
            None => (
                0,
                self.cores.iter().map(|c| c.now()).min().unwrap_or(0) + epoch,
            ),
        };
        // Unfinished cores, laggard on top.
        let mut ready: BinaryHeap<Reverse<(Cycle, usize)>> = self
            .cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.stats().instructions < instructions)
            .map(|(i, c)| Reverse((c.now(), i)))
            .collect();
        while let Some(Reverse((clock, core))) = ready.pop() {
            self.advance_core(core, instructions, clock + quantum);
            if self.cores[core].stats().instructions < instructions {
                ready.push(Reverse((self.cores[core].now(), core)));
            }
            // Epochs fire on the slowest unfinished core's clock (finished
            // cores stop participating, matching a fixed-slice methodology).
            if let Some(&Reverse((g, _))) = ready.peek() {
                if g >= next_epoch {
                    let frozen = self
                        .opts
                        .freeze_plan_after
                        .is_some_and(|n| self.mem.plans_applied() >= n);
                    if !frozen {
                        self.mem.epoch_boundary();
                    }
                    next_epoch += epoch;
                    epochs += 1;
                    let at = ResumePoint {
                        phase,
                        epochs,
                        next_epoch,
                    };
                    if hook(self, &at) == EpochControl::Halt {
                        return Err(at);
                    }
                }
            }
        }
        for c in &mut self.cores {
            c.finish();
        }
        Ok(epochs)
    }

    /// Reset measurement state; caches, profilers and plans stay warm.
    fn begin_measurement(&mut self) {
        for c in &mut self.cores {
            c.reset_stats();
        }
        self.mem.reset_stats();
    }

    /// Execute warm-up + measurement and return the results.
    pub fn run(mut self) -> RunResult {
        self.run_in_place()
    }

    /// [`System::run`] without consuming the system, so one machine can run
    /// several slices back to back (warm state carries over; all counters —
    /// including fault accounting — start from zero each run).
    pub fn run_in_place(&mut self) -> RunResult {
        self.run_with_hook(&mut |_, _| EpochControl::Continue)
            .into_result()
    }

    /// Run warm-up + measurement with an epoch-boundary hook. On a fresh
    /// system this is bit-identical to [`System::run`] when the hook always
    /// continues; a halting hook ends the run early with the resume point a
    /// checkpoint taken at that boundary resumes from.
    pub fn run_with_hook(&mut self, hook: EpochHook<'_>) -> RunOutcome {
        // A reused system must not leak statistics or fault accounting from
        // a previous run into this one's result (on a fresh system every
        // counter is already zero, so these resets change nothing). The
        // injector's deterministic epoch schedule is *not* rewound.
        self.begin_measurement();
        self.mem.reset_fault_counters();
        if self.opts.warmup_instructions > 0 {
            if let Err(at) =
                self.run_phase_from(Phase::Warmup, self.opts.warmup_instructions, None, hook)
            {
                return RunOutcome::Halted(at);
            }
        }
        self.begin_measurement();
        match self.run_phase_from(Phase::Measure, self.opts.measure_instructions, None, hook) {
            Ok(epochs) => RunOutcome::Completed(Box::new(self.collect(epochs))),
            Err(at) => RunOutcome::Halted(at),
        }
    }

    /// Continue a run from a restored checkpoint's resume point. Counters
    /// are *not* reset — the restored state already carries the run's
    /// accumulated statistics.
    pub fn resume_with_hook(&mut self, at: ResumePoint, hook: EpochHook<'_>) -> RunOutcome {
        let measure_resume = match at.phase {
            Phase::Warmup => {
                if let Err(p) = self.run_phase_from(
                    Phase::Warmup,
                    self.opts.warmup_instructions,
                    Some((at.epochs, at.next_epoch)),
                    hook,
                ) {
                    return RunOutcome::Halted(p);
                }
                self.begin_measurement();
                None
            }
            Phase::Measure => Some((at.epochs, at.next_epoch)),
        };
        match self.run_phase_from(
            Phase::Measure,
            self.opts.measure_instructions,
            measure_resume,
            hook,
        ) {
            Ok(epochs) => RunOutcome::Completed(Box::new(self.collect(epochs))),
            Err(p) => RunOutcome::Halted(p),
        }
    }

    /// Assemble the run result after the measurement phase.
    fn collect(&self, epochs: u64) -> RunResult {
        let per_core: Vec<CoreStats> = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut s = c.stats().clone();
                let id = CoreId(i as u16);
                s.l2 = self.mem.l2_stats(id);
                s.l2_latency_sum = self.mem.l2_latency_sum(id);
                s.mem_accesses = s.l2.misses;
                s
            })
            .collect();
        RunResult {
            per_core,
            l2: self.mem.l2.stats().clone(),
            noc: self.mem.noc.stats().clone(),
            dram: self.mem.dram.stats().clone(),
            dram_rows: self.mem.dram.row_stats().cloned(),
            coherence: self.mem.coherence.directory().stats().clone(),
            final_plan: self.mem.l2.plan().cloned(),
            epochs,
            epoch_history: self.mem.epoch_history().to_vec(),
            fault: self.mem.fault_counters(),
            trace: self.mem.tracer().summary(),
            worst_latency_history: self.mem.worst_latency_history().to_vec(),
            slo_bound_history: self.mem.slo_bound_history().to_vec(),
            core_degrades: self.mem.core_degrades(),
            incremental: self.mem.controller.incremental_stats(),
        }
    }

    /// Capture the full dynamic state of the run at an epoch boundary.
    ///
    /// The payload holds a configuration fingerprint (core count, seed,
    /// policy — restore refuses a checkpoint taken under different ones),
    /// every core model, the per-stream op counts (streams are rebuilt from
    /// the seed and fast-forwarded, not serialized), the whole memory
    /// hierarchy and the resume point. Tracer and injector are
    /// configuration and are reattached by the caller.
    pub fn checkpoint(&self, at: &ResumePoint) -> Checkpoint<SystemState<'_>> {
        let state = SystemState {
            num_cores: self.opts.config.num_cores,
            seed: self.opts.seed,
            policy: self.opts.policy,
            cores: self.cores.iter().map(CoreModel::snapshot).collect(),
            ops_drawn: Cow::Borrowed(&self.ops_drawn),
            mem: self.mem.snapshot(),
            resume: at.clone(),
        };
        Checkpoint::new(self.mem.epoch_history().len() as u64, state)
    }

    /// Restore a checkpoint into this freshly built system and return the
    /// point to resume from.
    ///
    /// On error the system is left partially restored — discard it and
    /// build a fresh one (the recovery ladder does exactly that per
    /// attempt).
    pub fn restore_from(&mut self, cp: Checkpoint<SystemState<'_>>) -> Result<ResumePoint, String> {
        let SystemState {
            num_cores,
            seed,
            policy,
            cores,
            ops_drawn,
            mem,
            resume,
        } = cp.payload;
        let fingerprint = (num_cores, seed, policy);
        let system = (self.opts.config.num_cores, self.opts.seed, self.opts.policy);
        if fingerprint != system {
            return Err(format!(
                "checkpoint (cores, seed, policy) {fingerprint:?} != system {system:?}"
            ));
        }
        // Fast-forward the freshly seeded streams to where the checkpointed
        // run had drawn them.
        if ops_drawn.len() != self.streams.len() {
            return Err("per-core op-count length mismatch".to_string());
        }
        for (c, &n) in ops_drawn.iter().enumerate() {
            let already = self.ops_drawn[c];
            if n < already {
                return Err(
                    "stream already drawn past the checkpoint — restore into a fresh system"
                        .to_string(),
                );
            }
            for _ in already..n {
                self.streams[c].next();
            }
        }
        self.ops_drawn = ops_drawn.into_owned();
        if cores.len() != self.cores.len() {
            return Err("core-model count mismatch".to_string());
        }
        for (core, s) in self.cores.iter_mut().zip(cores) {
            core.restore(s);
        }
        self.mem.restore(mem)?;
        Ok(resume)
    }

    /// Build a system from options + specs and restore a checkpoint into
    /// it: the one-call path a restarted process takes.
    pub fn restore(
        opts: SimOptions,
        specs: Vec<WorkloadSpec>,
        cp: Checkpoint<SystemState<'_>>,
    ) -> Result<(System, ResumePoint), String> {
        let mut sys = System::new(opts, specs);
        let at = sys.restore_from(cp)?;
        Ok((sys, at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bap_workloads::spec_by_name;

    fn opts(policy: Policy) -> SimOptions {
        let mut o = SimOptions::new(SystemConfig::scaled(64), policy);
        o.config.epoch_cycles = 20_000;
        o.warmup_instructions = 60_000;
        o.measure_instructions = 150_000;
        o
    }

    /// An oversubscribed mix (aggregate appetite ≈ 2× the cache): under
    /// shared LRU the deep workloads thrash the small working sets; the
    /// Bank-aware algorithm triages capacity by marginal utility.
    fn mix() -> Vec<WorkloadSpec> {
        [
            "bzip2", "twolf", "facerec", "mgrid", "art", "swim", "mcf", "sixtrack",
        ]
        .iter()
        .map(|n| spec_by_name(n).expect("catalog"))
        .collect()
    }

    #[test]
    fn runs_and_counts_instructions() {
        let r = System::new(opts(Policy::NoPartition), mix()).run();
        for c in &r.per_core {
            assert!(c.instructions >= 120_000);
            assert!(c.cycles > 0);
            assert!(c.cpi() > 0.2, "cpi {}", c.cpi());
        }
        assert!(r.total_l2_accesses() > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = System::new(opts(Policy::BankAware), mix()).run();
        let b = System::new(opts(Policy::BankAware), mix()).run();
        assert_eq!(a.total_l2_misses(), b.total_l2_misses());
        assert_eq!(a.per_core[0].cycles, b.per_core[0].cycles);
    }

    #[test]
    fn bank_aware_beats_no_partitioning_on_a_skewed_mix() {
        let none = System::new(opts(Policy::NoPartition), mix()).run();
        let ba = System::new(opts(Policy::BankAware), mix()).run();
        assert!(
            ba.total_l2_misses() < none.total_l2_misses(),
            "bank-aware {} vs none {}",
            ba.total_l2_misses(),
            none.total_l2_misses()
        );
    }

    #[test]
    fn epochs_fire_under_bank_aware() {
        let mut o = opts(Policy::BankAware);
        o.config.epoch_cycles = 50_000;
        let r = System::new(o, mix()).run();
        assert!(r.epochs >= 1, "epochs {}", r.epochs);
        assert!(r.final_plan.is_some());
        assert_eq!(r.final_plan.as_ref().unwrap().total_ways_used(), 128);
        // The adaptation timeline covers every boundary and stays complete.
        assert!(!r.epoch_history.is_empty());
        for ways in &r.epoch_history {
            assert_eq!(ways.iter().sum::<usize>(), 128);
        }
    }

    #[test]
    fn mesh_floorplan_runs_end_to_end() {
        let mut o = opts(Policy::BankAware);
        o.config.floorplan = bap_types::topology::Floorplan::Mesh;
        let r = System::new(o, mix()).run();
        assert!(r.total_l2_accesses() > 0);
        let plan = r.final_plan.expect("partitioned");
        assert_eq!(plan.total_ways_used(), 128);
        // Mesh adjacency (two edge chains) still yields a rule-valid plan.
        bap_core::bank_aware::validate_bank_rules(&plan, &bap_types::Topology::mesh_baseline())
            .expect("mesh bank rules hold");
    }

    #[test]
    fn replacement_policy_changes_outcomes_but_not_validity() {
        let lru = System::new(opts(Policy::BankAware), mix()).run();
        let mut o = opts(Policy::BankAware);
        o.replacement = bap_cache::ReplacementPolicy::TreePlru;
        let plru = System::new(o, mix()).run();
        assert_ne!(lru.total_l2_misses(), plru.total_l2_misses());
        // PLRU approximates LRU: within a modest band, never wildly off.
        let ratio = plru.total_l2_misses() as f64 / lru.total_l2_misses() as f64;
        assert!((0.8..1.6).contains(&ratio), "PLRU/LRU miss ratio {ratio}");
    }

    #[test]
    fn frozen_plans_stop_adapting() {
        let mut o = opts(Policy::BankAware);
        o.freeze_plan_after = Some(1);
        let r = System::new(o, mix()).run();
        // Exactly the initial (equal) plan remains in force forever.
        let plan = r.final_plan.expect("partitioned");
        for c in 0..8 {
            assert_eq!(
                plan.ways_of(CoreId(c)),
                16,
                "frozen at the initial equal split"
            );
        }
    }

    #[test]
    fn disabled_fault_config_changes_nothing() {
        let healthy = System::new(opts(Policy::BankAware), mix()).run();
        let mut o = opts(Policy::BankAware);
        o.fault = Some(bap_fault::FaultConfig::disabled());
        let armed = System::new(o, mix()).run();
        assert_eq!(healthy.total_l2_misses(), armed.total_l2_misses());
        assert_eq!(healthy.final_plan, armed.final_plan);
        assert!(armed.fault.is_zero());
    }

    #[test]
    fn survives_a_forced_bank_loss() {
        let mut o = opts(Policy::BankAware);
        // Kill Center bank 9 at the second epoch boundary.
        let mut f = bap_fault::FaultConfig::with_seed(7);
        f.forced_offline = vec![(1, 9)];
        o.fault = Some(f);
        o.config.epoch_cycles = 20_000;
        let r = System::new(o, mix()).run();
        assert_eq!(r.fault.banks_failed, 1);
        let plan = r.final_plan.expect("still partitioned");
        assert_eq!(
            plan.bank_ways_used(bap_types::BankId(9)),
            0,
            "final plan avoids the dead bank: {plan}"
        );
        assert_eq!(plan.total_ways_used(), 15 * 8, "healthy capacity in use");
        for c in &r.per_core {
            assert!(c.instructions >= 150_000, "every core completed");
        }
    }

    #[test]
    fn survives_a_full_fault_campaign() {
        let mut o = opts(Policy::BankAware);
        o.fault = Some(bap_fault::FaultConfig {
            seed: 13,
            bank_offline_prob: 0.3,
            bank_repair_prob: 0.3,
            max_offline_banks: 3,
            epoch_drop_prob: 0.3,
            curve_corruption_prob: 0.5,
            forced_offline: vec![(0, 3)],
        });
        o.config.epoch_cycles = 15_000;
        let r = System::new(o, mix()).run();
        assert!(r.fault.banks_failed >= 1);
        for c in &r.per_core {
            assert!(c.instructions >= 150_000, "every core completed");
        }
        if let Some(plan) = &r.final_plan {
            plan.validate()
                .expect("installed plan is structurally valid");
        }
    }

    #[test]
    fn kill_and_restore_reproduces_the_uninterrupted_run() {
        let uninterrupted = System::new(opts(Policy::BankAware), mix()).run();

        // Kill at the second measurement boundary, checkpointing there.
        let mut cp = None;
        let mut sys = System::new(opts(Policy::BankAware), mix());
        let outcome = sys.run_with_hook(&mut |s, at| {
            if at.phase == Phase::Measure && at.epochs == 2 {
                cp = Some(s.checkpoint(at).encode());
                EpochControl::Halt
            } else {
                EpochControl::Continue
            }
        });
        assert!(matches!(outcome, RunOutcome::Halted(_)), "crash simulated");
        drop(sys);

        // Round-trip through the encoded byte form — exactly what a real
        // restart would read back off stable storage.
        let bytes = cp.expect("checkpoint taken");
        let cp = Checkpoint::decode(&bytes).expect("clean checkpoint");
        let (mut resumed, at) = System::restore(opts(Policy::BankAware), mix(), cp).unwrap();
        let r = resumed
            .resume_with_hook(at, &mut |_, _| EpochControl::Continue)
            .into_result();

        assert_eq!(r.epoch_history, uninterrupted.epoch_history);
        assert_eq!(r.final_plan, uninterrupted.final_plan);
        assert_eq!(r.epochs, uninterrupted.epochs);
        assert_eq!(r.total_l2_misses(), uninterrupted.total_l2_misses());
        for (a, b) in r.per_core.iter().zip(&uninterrupted.per_core) {
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.instructions, b.instructions);
            assert_eq!(a.l2, b.l2);
        }
    }

    #[test]
    fn kill_and_restore_during_warmup_also_converges() {
        let uninterrupted = System::new(opts(Policy::BankAware), mix()).run();
        let mut cp = None;
        let mut sys = System::new(opts(Policy::BankAware), mix());
        let outcome = sys.run_with_hook(&mut |s, at| {
            if at.phase == Phase::Warmup && at.epochs == 1 {
                cp = Some(s.checkpoint(at).encode());
                EpochControl::Halt
            } else {
                EpochControl::Continue
            }
        });
        assert!(matches!(outcome, RunOutcome::Halted(_)));
        let cp = Checkpoint::decode(&cp.unwrap()).expect("clean checkpoint");
        let (mut resumed, at) = System::restore(opts(Policy::BankAware), mix(), cp).unwrap();
        let r = resumed
            .resume_with_hook(at, &mut |_, _| EpochControl::Continue)
            .into_result();
        assert_eq!(r.epoch_history, uninterrupted.epoch_history);
        assert_eq!(r.final_plan, uninterrupted.final_plan);
        assert_eq!(r.total_l2_misses(), uninterrupted.total_l2_misses());
    }

    #[test]
    fn restore_refuses_a_mismatched_configuration() {
        let mut sys = System::new(opts(Policy::BankAware), mix());
        let mut cp = None;
        sys.run_with_hook(&mut |s, at| {
            cp = Some(s.checkpoint(at).encode());
            EpochControl::Halt
        });
        let bytes = cp.expect("at least one epoch fired");
        let cp = || Checkpoint::decode(&bytes).expect("clean checkpoint");
        let mut wrong_seed = opts(Policy::BankAware);
        wrong_seed.seed += 1;
        assert!(System::restore(wrong_seed, mix(), cp()).is_err());
        assert!(System::restore(opts(Policy::Equal), mix(), cp()).is_err());
    }

    #[test]
    fn fault_counters_do_not_leak_across_reuse_runs() {
        let mut o = opts(Policy::BankAware);
        let mut f = bap_fault::FaultConfig::with_seed(7);
        f.forced_offline = vec![(1, 9)];
        o.fault = Some(f);
        let mut sys = System::new(o, mix());
        let first = sys.run_in_place();
        assert_eq!(first.fault.banks_failed, 1, "the forced fault fired");
        // The second run sees a degraded but stable machine: no new fault
        // events, so its accounting must start from (and stay at) zero.
        let second = sys.run_in_place();
        assert_eq!(
            second.fault.banks_failed, 0,
            "accounting leaked across runs"
        );
        assert!(second.fault.is_zero(), "{:?}", second.fault);
        for c in &second.per_core {
            assert!(c.instructions >= 150_000, "reused run completed");
        }
    }

    #[test]
    fn shared_segment_exercises_coherence() {
        let mut o = opts(Policy::NoPartition);
        o.shared_fraction = 0.2;
        o.shared_blocks = 256;
        let r = System::new(o, mix()).run();
        assert!(r.coherence.transactions > 0, "directory saw traffic");
        assert!(
            r.coherence.forwards + r.coherence.invalidations > 0,
            "cross-core sharing produced protocol traffic: {:?}",
            r.coherence
        );
    }
}
