//! Main-memory model (Table I: 260-cycle latency, 64 GB/s bandwidth).
//!
//! Requests pay a fixed access latency plus any delay from the bandwidth
//! limit: the memory channel transfers `bytes_per_cycle` bytes, so each
//! 64-byte block occupies the channel for `64 / bytes_per_cycle` cycles and
//! concurrent misses queue behind each other. At the paper's 4 GHz and
//! 64 GB/s that is 16 bytes/cycle — a block every 4 cycles.

pub mod banked;

pub use banked::{BankedDram, BankedDramConfig, BankedDramState, RowStats};

use bap_types::{BankRegulator, Cycle, RegulatorConfig};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Accumulated DRAM counters.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Block requests serviced (reads + write-backs).
    pub requests: u64,
    /// Cycles requests spent waiting for channel bandwidth.
    pub bandwidth_stall_cycles: u64,
    /// Bytes transferred.
    pub bytes: u64,
}

impl DramStats {
    /// Mean bandwidth-queue delay per request.
    pub fn avg_stall(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.bandwidth_stall_cycles as f64 / self.requests as f64
        }
    }
}

/// The memory controller + channel model.
#[derive(Clone, Debug)]
pub struct DramModel {
    /// Fixed access latency in cycles.
    latency: u64,
    /// Channel occupancy per block transfer, in cycles.
    cycles_per_block: u64,
    block_bytes: u64,
    channel_free_at: Cycle,
    /// Maximum bandwidth-queue delay per request (finite controller queue:
    /// the paper's machine has at most 8 cores × 16 outstanding misses).
    max_queue: u64,
    /// Optional token-bucket bandwidth regulator (QoS tier). The flat
    /// model has one channel, so the regulator runs a single bucket.
    regulator: Option<BankRegulator>,
    stats: DramStats,
}

impl DramModel {
    /// Build a model. `bytes_per_cycle` is the channel bandwidth (Table I:
    /// 16 B/cycle); `block_bytes` the transfer unit (64 B).
    pub fn new(latency: u64, bytes_per_cycle: u64, block_bytes: u64) -> Self {
        assert!(bytes_per_cycle > 0);
        let cycles_per_block = block_bytes.div_ceil(bytes_per_cycle);
        DramModel {
            latency,
            cycles_per_block,
            block_bytes,
            channel_free_at: 0,
            max_queue: 128 * cycles_per_block,
            regulator: None,
            stats: DramStats::default(),
        }
    }

    /// Arm the bandwidth regulator. Unarmed (the default) the model is
    /// bit-identical to the unregulated channel.
    pub fn set_regulator(&mut self, cfg: RegulatorConfig) {
        self.regulator = Some(BankRegulator::new(cfg, 1));
    }

    /// The armed regulator, if any.
    pub fn regulator(&self) -> Option<&BankRegulator> {
        self.regulator.as_ref()
    }

    /// Drain the regulator's per-epoch throttle accounting.
    pub fn drain_epoch_throttle(&mut self) -> Vec<(usize, u64, u64)> {
        self.regulator
            .as_mut()
            .map(|r| r.drain_epoch())
            .unwrap_or_default()
    }

    /// Worst-case read latency excluding the regulator term: the finite
    /// controller queue plus the fixed access latency.
    pub fn worst_case_read_latency(&self) -> Cycle {
        self.max_queue + self.latency
    }

    /// Worst stall the armed regulator can charge (0 when unarmed).
    pub fn regulator_worst_stall(&self) -> Cycle {
        self.regulator.as_ref().map_or(0, |r| r.worst_stall())
    }

    /// The Table I memory system.
    pub fn table1() -> Self {
        DramModel::new(260, 16, 64)
    }

    /// Account one block read issued at `now`; returns its total latency
    /// (fixed latency + any bandwidth queuing).
    pub fn read(&mut self, now: Cycle) -> u64 {
        self.transfer(now) + self.latency
    }

    /// Account one write-back issued at `now`; the core does not wait for
    /// it, but it consumes channel bandwidth. Returns the queuing delay it
    /// absorbed (for statistics).
    pub fn writeback(&mut self, now: Cycle) -> u64 {
        self.transfer(now)
    }

    fn transfer(&mut self, now: Cycle) -> u64 {
        // The regulator gates channel entry; its stall adds to (and is
        // accounted with) the bandwidth stall, bounded by max_stall.
        let reg_stall = match self.regulator.as_mut() {
            Some(r) => r.admit(0, now),
            None => 0,
        };
        let gated = now + reg_stall;
        let start = self.channel_free_at.max(gated).min(gated + self.max_queue);
        self.channel_free_at = start + self.cycles_per_block;
        let stall = start - now;
        self.stats.requests += 1;
        self.stats.bandwidth_stall_cycles += stall;
        self.stats.bytes += self.block_bytes;
        stall
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Reset statistics (channel reservation state is kept).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// The dynamic state (channel reservation + counters) for
    /// checkpointing. Timing parameters are configuration.
    pub fn snapshot(&self) -> DramState<'_> {
        DramState {
            channel_free_at: self.channel_free_at,
            stats: Cow::Borrowed(&self.stats),
            regulator: Cow::Borrowed(&self.regulator),
        }
    }

    /// Overwrite the dynamic state from a [`DramModel::snapshot`].
    pub fn restore(&mut self, s: DramState<'_>) {
        let DramState {
            channel_free_at,
            stats,
            regulator,
        } = s;
        self.channel_free_at = channel_free_at;
        self.stats = stats.into_owned();
        self.regulator = regulator.into_owned();
    }
}

/// The flat model's checkpointed state ([`DramModel::snapshot`]).
#[derive(Serialize, Deserialize)]
pub struct DramState<'a> {
    channel_free_at: Cycle,
    stats: Cow<'a, DramStats>,
    /// Absent in pre-QoS checkpoints: unarmed.
    #[serde(default)]
    regulator: Cow<'a, Option<BankRegulator>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_read_pays_fixed_latency() {
        let mut d = DramModel::table1();
        assert_eq!(d.read(0), 260);
        // Long after the channel frees, still 260.
        assert_eq!(d.read(1000), 260);
    }

    #[test]
    fn back_to_back_reads_queue_on_bandwidth() {
        let mut d = DramModel::table1();
        assert_eq!(d.read(0), 260);
        // Second block waits for the 4-cycle transfer slot.
        assert_eq!(d.read(0), 264);
        assert_eq!(d.read(0), 268);
    }

    #[test]
    fn bandwidth_is_16_bytes_per_cycle() {
        let mut d = DramModel::table1();
        // Saturate the channel for 100 requests starting at cycle 0.
        for _ in 0..100 {
            d.read(0);
        }
        // 100 blocks × 4 cycles each: channel busy until cycle 400, i.e.
        // 6400 bytes / 400 cycles = 16 B/cycle.
        assert_eq!(d.stats().bytes, 6400);
        let next = d.read(0);
        assert_eq!(next, 400 + 260);
    }

    #[test]
    fn writebacks_consume_bandwidth_but_not_latency() {
        let mut d = DramModel::table1();
        assert_eq!(d.writeback(0), 0);
        // A read right behind the write-back queues 4 cycles.
        assert_eq!(d.read(0), 264);
    }

    #[test]
    fn stats_track_stalls() {
        let mut d = DramModel::table1();
        d.read(0);
        d.read(0);
        assert_eq!(d.stats().requests, 2);
        assert_eq!(d.stats().bandwidth_stall_cycles, 4);
        assert!((d.stats().avg_stall() - 2.0).abs() < 1e-12);
        d.reset_stats();
        assert_eq!(d.stats().requests, 0);
    }

    #[test]
    fn bandwidth_queue_is_bounded() {
        let mut d = DramModel::table1();
        let mut worst = 0;
        for _ in 0..10_000 {
            worst = worst.max(d.read(0) - 260);
        }
        assert_eq!(worst, 128 * 4, "finite controller queue");
    }

    #[test]
    fn odd_bandwidth_rounds_up() {
        let mut d = DramModel::new(100, 10, 64);
        d.read(0);
        // 64/10 → 7 cycles occupancy.
        assert_eq!(d.read(0), 107);
    }

    #[test]
    fn regulated_reads_stay_inside_the_analytic_worst_case() {
        let mut d = DramModel::table1();
        d.set_regulator(RegulatorConfig {
            budget: 2,
            period: 64,
            max_stall: 200,
        });
        assert_eq!(d.worst_case_read_latency(), 128 * 4 + 260);
        assert_eq!(d.regulator_worst_stall(), 200);
        let bound = d.worst_case_read_latency() + d.regulator_worst_stall();
        let mut worst = 0;
        for _ in 0..5_000 {
            worst = worst.max(d.read(0));
        }
        assert!(worst > 128 * 4 + 260, "regulator stall visible: {worst}");
        assert!(worst <= bound, "read {worst} > bound {bound}");
        assert!(d.regulator().unwrap().throttled_requests() > 0);
        assert!(!d.drain_epoch_throttle().is_empty());
    }

    #[test]
    fn regulator_state_survives_snapshot_restore() {
        let mut d = DramModel::table1();
        d.set_regulator(RegulatorConfig {
            budget: 1,
            period: 50,
            max_stall: 50,
        });
        d.read(0);
        d.read(0);
        let mut back = DramModel::table1();
        back.restore(d.snapshot());
        assert_eq!(back.regulator(), d.regulator());
        assert_eq!(back.read(10), d.read(10));
    }
}
