//! Trace-driven out-of-order core timing model.
//!
//! The paper simulates 4-wide, 30-stage, 128-entry-ROB SPARC cores in
//! Simics/GEMS (Table I). What its results actually depend on is how L2
//! miss-count differences translate into CPI differences, which is governed
//! by three mechanisms this model reproduces:
//!
//! * **fetch bandwidth** — at most `width` instructions issue per cycle;
//! * **ROB-limited overlap** — issue may run ahead of an outstanding miss by
//!   at most `rob_entries` instructions, bounding memory-level parallelism;
//! * **MSHR-limited overlap** — at most `outstanding_per_core` misses may be
//!   in flight (Table I: 16).
//!
//! The model is a *frontier* simulation: one pass over the trace, tracking
//! the issue frontier in `1/width`-cycle ticks, an ROB of completion times
//! and an MSHR file. Loads wait for their data; stores retire through a
//! write buffer. Instruction fetch is folded into the compute stream (the
//! paper's workloads have negligible I-cache misses).
//!
//! The memory side is abstracted behind [`MemorySystem`], implemented by
//! `bap-system` (NUCA L2 + NoC + DRAM) and by mocks in tests.

pub mod l1;

pub use l1::{L1Cache, L1State};

use bap_types::stats::CoreStats;
use bap_types::{BlockAddr, CoreId, Cycle, Op, SystemConfig};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;

/// The memory hierarchy below the L1, as seen by one core.
pub trait MemorySystem {
    /// Fetch `block` on behalf of `core` at `cycle`; returns the round-trip
    /// latency in cycles.
    fn request(&mut self, core: CoreId, block: BlockAddr, write: bool, cycle: Cycle) -> u64;

    /// A dirty L1 line leaves towards the L2 (not waited on).
    fn writeback(&mut self, core: CoreId, block: BlockAddr, cycle: Cycle);
}

/// One in-flight ROB entry: `count` instructions completing at `completion`.
#[derive(Clone, Copy, Debug)]
struct RobEntry {
    completion: Cycle,
    count: u32,
}

/// A core's checkpointed state ([`CoreModel::snapshot`]). The ROB is
/// written as `(completion, count)` pairs.
#[derive(Serialize, Deserialize)]
pub struct CoreState<'a> {
    l1: L1State<'a>,
    frontier_ticks: u64,
    cycle_base: Cycle,
    rob: Vec<(Cycle, u32)>,
    rob_occupancy: usize,
    mshrs: Cow<'a, [(BlockAddr, Cycle)]>,
    stats: Cow<'a, CoreStats>,
}

/// The core timing model.
#[derive(Clone, Debug)]
pub struct CoreModel {
    id: CoreId,
    l1: L1Cache,
    width: u64,
    rob_capacity: usize,
    mshr_capacity: usize,
    l1_latency: u64,
    /// Issue frontier in ticks (1 tick = 1/width cycle).
    frontier_ticks: u64,
    /// Cycle count at the last stats reset (epoch base).
    cycle_base: Cycle,
    /// In-flight instructions, oldest first.
    rob: VecDeque<RobEntry>,
    rob_occupancy: usize,
    /// Outstanding misses: (block, completion cycle).
    mshrs: Vec<(BlockAddr, Cycle)>,
    stats: CoreStats,
}

impl CoreModel {
    /// Build a core from the system configuration.
    pub fn new(id: CoreId, cfg: &SystemConfig) -> Self {
        CoreModel {
            id,
            l1: L1Cache::new(cfg.l1),
            width: cfg.width as u64,
            rob_capacity: cfg.rob_entries,
            mshr_capacity: cfg.outstanding_per_core,
            l1_latency: cfg.l1_latency,
            frontier_ticks: 0,
            cycle_base: 0,
            rob: VecDeque::new(),
            rob_occupancy: 0,
            mshrs: Vec::new(),
            stats: CoreStats::default(),
        }
    }

    /// This core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The current issue frontier in absolute cycles.
    pub fn now(&self) -> Cycle {
        self.frontier_ticks / self.width
    }

    /// Statistics since the last reset; `cycles` reflects the frontier, so
    /// it is meaningful at any point during a run.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Reset statistics for a new epoch (cache and pipeline state are
    /// kept; the cycle counter restarts from the current frontier).
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
        self.cycle_base = self.frontier_cycle();
        self.l1.reset_stats();
    }

    /// The L1 (for occupancy inspection in tests).
    pub fn l1(&self) -> &L1Cache {
        &self.l1
    }

    /// Invalidate a block in the L1 (coherence). Returns whether a dirty
    /// copy was dropped.
    pub fn invalidate_l1(&mut self, block: BlockAddr) -> Option<bool> {
        self.l1.invalidate(block)
    }

    /// The core's dynamic state (L1, pipeline frontier, ROB, MSHRs,
    /// statistics) for checkpointing. Configuration fields (width,
    /// capacities, latencies) are *not* included — restore rebuilds them
    /// from the same [`SystemConfig`].
    pub fn snapshot(&self) -> CoreState<'_> {
        CoreState {
            l1: self.l1.snapshot(),
            frontier_ticks: self.frontier_ticks,
            cycle_base: self.cycle_base,
            rob: self.rob.iter().map(|e| (e.completion, e.count)).collect(),
            rob_occupancy: self.rob_occupancy,
            mshrs: Cow::Borrowed(&self.mshrs),
            stats: Cow::Borrowed(&self.stats),
        }
    }

    /// Overwrite this core's dynamic state from a [`CoreModel::snapshot`]
    /// taken on an identically-configured core.
    pub fn restore(&mut self, s: CoreState<'_>) {
        let CoreState {
            l1,
            frontier_ticks,
            cycle_base,
            rob,
            rob_occupancy,
            mshrs,
            stats,
        } = s;
        self.l1.restore(l1);
        self.frontier_ticks = frontier_ticks;
        self.cycle_base = cycle_base;
        self.rob = rob
            .into_iter()
            .map(|(completion, count)| RobEntry { completion, count })
            .collect();
        self.rob_occupancy = rob_occupancy;
        self.mshrs = mshrs.into_owned();
        self.stats = stats.into_owned();
    }

    #[inline]
    fn frontier_cycle(&self) -> Cycle {
        self.frontier_ticks / self.width
    }

    /// Drop completed MSHRs and retired ROB entries given the frontier.
    fn drain(&mut self) {
        let now = self.frontier_cycle();
        self.mshrs.retain(|&(_, c)| c > now);
        while let Some(head) = self.rob.front() {
            if head.completion <= now {
                self.rob_occupancy -= head.count as usize;
                self.rob.pop_front();
            } else {
                break;
            }
        }
    }

    /// Stall the frontier until at least `cycle`.
    fn stall_until(&mut self, cycle: Cycle) {
        self.frontier_ticks = self.frontier_ticks.max(cycle * self.width);
    }

    /// Reserve `count` ROB slots, stalling on the oldest incomplete
    /// instruction while the window is full.
    fn reserve_rob(&mut self, count: u32) {
        self.drain();
        while self.rob_occupancy + count as usize > self.rob_capacity {
            match self.rob.front().copied() {
                Some(head) => {
                    self.stall_until(head.completion);
                    self.drain();
                    // If draining did not free the head (completion exactly
                    // at the frontier edge), force-retire it to guarantee
                    // progress.
                    if self.rob_occupancy + count as usize > self.rob_capacity
                        && !self.rob.is_empty()
                        && self.rob.front().map(|h| h.completion) == Some(head.completion)
                    {
                        let h = self.rob.pop_front().expect("head exists");
                        self.rob_occupancy -= h.count as usize;
                    }
                }
                None => break,
            }
        }
    }

    /// Coalesce into an in-flight miss on `block` if one exists, otherwise
    /// make room in the MSHR file (stalling if all are busy).
    fn reserve_mshr(&mut self, block: BlockAddr) -> Option<Cycle> {
        self.drain();
        if let Some(&(_, c)) = self.mshrs.iter().find(|&&(b, _)| b == block) {
            return Some(c);
        }
        if self.mshrs.len() >= self.mshr_capacity {
            let earliest = self.mshrs.iter().map(|&(_, c)| c).min().expect("non-empty");
            self.stall_until(earliest);
            self.drain();
        }
        None
    }

    /// Feed one traced operation through the pipeline.
    pub fn step<M: MemorySystem>(&mut self, op: Op, mem: &mut M) {
        match op {
            Op::Compute(n) => {
                let mut left = n;
                // Split huge runs so a single entry never exceeds the ROB.
                while left > 0 {
                    let chunk = left.min(self.rob_capacity as u32);
                    self.reserve_rob(chunk);
                    self.frontier_ticks += chunk as u64;
                    let completion = self.frontier_cycle() + 1;
                    self.rob.push_back(RobEntry {
                        completion,
                        count: chunk,
                    });
                    self.rob_occupancy += chunk as usize;
                    left -= chunk;
                }
                self.stats.instructions += n as u64;
            }
            Op::Load(addr) | Op::DependentLoad(addr) | Op::Store(addr) => {
                let write = op.is_store();
                let block = addr.block();
                self.reserve_rob(1);
                self.frontier_ticks += 1;
                let issue = self.frontier_cycle();

                let completion = if self.l1.access(block, write) {
                    issue + self.l1_latency
                } else {
                    // L1 miss: fetch through the MSHR file.
                    let data_ready = match self.reserve_mshr(block) {
                        Some(ready) => ready,
                        None => {
                            let at = self.frontier_cycle();
                            let latency = mem.request(self.id, block, write, at);
                            let ready = at + latency;
                            self.mshrs.push((block, ready));
                            ready
                        }
                    };
                    if let Some(victim) = self.l1.fill(block, write) {
                        mem.writeback(self.id, victim, data_ready);
                    }
                    if write {
                        // Stores retire through the write buffer.
                        issue + self.l1_latency
                    } else {
                        data_ready
                    }
                };
                self.rob.push_back(RobEntry {
                    completion,
                    count: 1,
                });
                self.rob_occupancy += 1;
                self.stats.instructions += 1;
                // A dependent load feeds the next instruction's address or
                // control: nothing issues until its data returns.
                if op.is_dependent() {
                    self.stall_until(completion);
                }
            }
        }
        self.stats.l1 = *self.l1.stats();
        self.stats.cycles = self.frontier_cycle() - self.cycle_base;
    }

    /// Drain the pipeline: advance the frontier past every in-flight
    /// instruction (end of a measurement slice).
    pub fn finish(&mut self) {
        if let Some(last) = self.rob.iter().map(|e| e.completion).max() {
            self.stall_until(last);
        }
        self.drain();
        self.stats.cycles = self.frontier_cycle() - self.cycle_base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bap_types::Addr;

    /// Fixed-latency memory for unit tests.
    struct FixedMem {
        latency: u64,
        requests: u64,
        writebacks: u64,
    }

    impl MemorySystem for FixedMem {
        fn request(&mut self, _c: CoreId, _b: BlockAddr, _w: bool, _cy: Cycle) -> u64 {
            self.requests += 1;
            self.latency
        }
        fn writeback(&mut self, _c: CoreId, _b: BlockAddr, _cy: Cycle) {
            self.writebacks += 1;
        }
    }

    fn mem(latency: u64) -> FixedMem {
        FixedMem {
            latency,
            requests: 0,
            writebacks: 0,
        }
    }

    fn core() -> CoreModel {
        CoreModel::new(CoreId(0), &SystemConfig::default())
    }

    #[test]
    fn pure_compute_cpi_is_one_over_width() {
        let mut c = core();
        let mut m = mem(100);
        for _ in 0..1000 {
            c.step(Op::Compute(4), &mut m);
        }
        c.finish();
        let cpi = c.stats().cpi();
        assert!((cpi - 0.25).abs() < 0.01, "cpi {cpi}");
        assert_eq!(m.requests, 0);
    }

    #[test]
    fn l1_hits_keep_cpi_low() {
        let mut c = core();
        let mut m = mem(260);
        let a = Addr(0x100);
        c.step(Op::Load(a), &mut m); // one cold miss
        for _ in 0..10_000 {
            c.step(Op::Load(a), &mut m);
        }
        c.finish();
        assert_eq!(m.requests, 1);
        // Independent L1 hits pipeline: CPI stays near the fetch bound.
        assert!(c.stats().cpi() < 0.5, "cpi {}", c.stats().cpi());
        assert_eq!(c.stats().l1.misses, 1);
        assert_eq!(c.stats().l1.hits, 10_000);
    }

    #[test]
    fn misses_raise_cpi() {
        let run = |latency: u64| {
            let mut c = core();
            let mut m = mem(latency);
            // Every access a distinct block: all misses.
            for i in 0..2000u64 {
                c.step(Op::Load(Addr(i * 64)), &mut m);
                c.step(Op::Compute(12), &mut m);
            }
            c.finish();
            c.stats().cpi()
        };
        let fast = run(10);
        let slow = run(260);
        assert!(slow > fast * 2.0, "fast {fast} slow {slow}");
    }

    #[test]
    fn rob_bounds_overlap_of_one_miss() {
        let mut c = core();
        let mut m = mem(1000);
        // One miss, then plenty of compute: the window runs ahead, then
        // stalls until the miss returns.
        c.step(Op::Load(Addr(0)), &mut m);
        for _ in 0..50 {
            c.step(Op::Compute(4), &mut m);
        }
        c.finish();
        let cycles = c.stats().cycles;
        // Must be dominated by the miss latency, not the compute (~50 cyc).
        assert!(cycles >= 1000, "cycles {cycles}");
        assert!(cycles < 1200, "cycles {cycles}");
    }

    #[test]
    fn independent_misses_overlap_mlp() {
        // 8 back-to-back misses: with 16 MSHRs they overlap almost fully —
        // total time ≈ one latency, not eight.
        let mut c = core();
        let mut m = mem(500);
        for i in 0..8u64 {
            c.step(Op::Load(Addr(i * 64)), &mut m);
        }
        c.finish();
        let cycles = c.stats().cycles;
        assert!(cycles < 2 * 500, "cycles {cycles} — misses must overlap");
    }

    #[test]
    fn mshr_limit_serialises_excess_misses() {
        // 64 simultaneous misses with only 16 MSHRs: at least 4 waves.
        let mut c = core();
        let mut m = mem(500);
        for i in 0..64u64 {
            c.step(Op::Load(Addr(i * 64)), &mut m);
        }
        c.finish();
        let cycles = c.stats().cycles;
        assert!(
            cycles >= 4 * 500 - 100,
            "cycles {cycles} — MSHRs must throttle"
        );
    }

    #[test]
    fn evicted_inflight_block_coalesces_in_mshr() {
        // L1 is 512 sets × 2 ways. Three blocks in one set evict the first
        // while its (slow) miss is still outstanding; re-touching it must
        // coalesce into the in-flight MSHR rather than issue a new request.
        let mut c = core();
        let mut m = mem(100_000);
        let set_stride = 512 * 64;
        c.step(Op::Load(Addr(0)), &mut m);
        c.step(Op::Load(Addr(set_stride)), &mut m);
        c.step(Op::Load(Addr(2 * set_stride)), &mut m); // evicts block 0
        c.step(Op::Load(Addr(0)), &mut m); // coalesces
        assert_eq!(m.requests, 3, "fourth access coalesced into MSHR");
    }

    #[test]
    fn stores_do_not_block_retirement() {
        let run = |write: bool| {
            let mut c = core();
            let mut m = mem(500);
            for i in 0..500u64 {
                let a = Addr(i * 64);
                c.step(if write { Op::Store(a) } else { Op::Load(a) }, &mut m);
                c.step(Op::Compute(8), &mut m);
            }
            c.finish();
            c.stats().cpi()
        };
        let store_cpi = run(true);
        let load_cpi = run(false);
        assert!(
            store_cpi < load_cpi,
            "stores {store_cpi} vs loads {load_cpi}"
        );
    }

    #[test]
    fn dirty_l1_evictions_write_back() {
        let mut c = core();
        let mut m = mem(50);
        // Stream enough distinct stores to overflow the L1 (1024 blocks).
        for i in 0..4096u64 {
            c.step(Op::Store(Addr(i * 64)), &mut m);
        }
        c.finish();
        assert!(m.writebacks > 0, "dirty evictions must reach the L2");
    }

    #[test]
    fn finish_drains_inflight_work() {
        let mut c = core();
        let mut m = mem(700);
        c.step(Op::Load(Addr(0)), &mut m);
        assert!(c.stats().cycles < 700);
        c.finish();
        assert!(c.stats().cycles >= 700);
    }

    #[test]
    fn dependent_misses_serialise() {
        // n independent misses overlap; n dependent misses pay n × latency.
        let run = |dependent: bool| {
            let mut c = core();
            let mut m = mem(500);
            for i in 0..16u64 {
                let a = Addr(i * 64);
                c.step(
                    if dependent {
                        Op::DependentLoad(a)
                    } else {
                        Op::Load(a)
                    },
                    &mut m,
                );
            }
            c.finish();
            c.stats().cycles
        };
        let independent = run(false);
        let dependent = run(true);
        assert!(
            independent < 2 * 500,
            "independent misses overlap: {independent}"
        );
        assert!(
            dependent >= 15 * 500,
            "dependent chain serialises: {dependent}"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        enum TraceOp {
            Compute(u32),
            Load(u64),
            DepLoad(u64),
            Store(u64),
        }

        fn op_strategy() -> impl Strategy<Value = TraceOp> {
            prop_oneof![
                (1u32..16).prop_map(TraceOp::Compute),
                (0u64..512).prop_map(TraceOp::Load),
                (0u64..512).prop_map(TraceOp::DepLoad),
                (0u64..512).prop_map(TraceOp::Store),
            ]
        }

        fn run(ops: &[TraceOp], latency: u64) -> (u64, u64) {
            let mut c = core();
            let mut m = mem(latency);
            for op in ops {
                let op = match *op {
                    TraceOp::Compute(n) => Op::Compute(n),
                    TraceOp::Load(a) => Op::Load(Addr(a * 64)),
                    TraceOp::DepLoad(a) => Op::DependentLoad(Addr(a * 64)),
                    TraceOp::Store(a) => Op::Store(Addr(a * 64)),
                };
                c.step(op, &mut m);
            }
            c.finish();
            (c.stats().cycles, c.stats().instructions)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Every traced instruction is retired exactly once, and time
            /// never runs backwards relative to the fetch bound.
            #[test]
            fn instructions_conserved_and_time_sane(
                ops in proptest::collection::vec(op_strategy(), 1..200)
            ) {
                let (cycles, instructions) = run(&ops, 100);
                let expected: u64 = ops
                    .iter()
                    .map(|o| match o {
                        TraceOp::Compute(n) => *n as u64,
                        _ => 1,
                    })
                    .sum();
                prop_assert_eq!(instructions, expected);
                // 4-wide fetch is the lower bound on time.
                prop_assert!(cycles >= expected / 4);
            }

            /// A slower memory system never makes the same trace finish
            /// earlier.
            #[test]
            fn latency_monotonicity(
                ops in proptest::collection::vec(op_strategy(), 1..200)
            ) {
                let (fast, _) = run(&ops, 20);
                let (slow, _) = run(&ops, 400);
                prop_assert!(slow >= fast, "fast {fast} slow {slow}");
            }
        }
    }

    #[test]
    fn reset_stats_starts_a_fresh_epoch() {
        let mut c = core();
        let mut m = mem(100);
        c.step(Op::Load(Addr(0)), &mut m);
        c.finish();
        c.reset_stats();
        assert_eq!(c.stats().instructions, 0);
        assert_eq!(c.stats().cycles, 0);
        c.step(Op::Load(Addr(0)), &mut m);
        // Warm L1: same-block reload hits, and cycle counting restarted.
        assert_eq!(m.requests, 1);
        assert_eq!(c.stats().l1.hits, 1);
        c.finish();
        assert!(c.stats().cycles < 50);
    }
}
