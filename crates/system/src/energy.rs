//! Event-based dynamic-energy model for the memory system.
//!
//! The paper rejects the Parallel aggregation scheme's wider directory
//! look-ups on power grounds without quantifying them ("power is higher due
//! to wider directory look-ups", §III-B). This module attaches per-event
//! energies to the counters the simulator already collects, so the
//! aggregation ablation can report energy alongside migration rates.
//!
//! Default coefficients are CACTI-6.0-flavoured 45 nm estimates for a 1 MB,
//! 8-way bank (the paper's own bank-sizing tool): ≈20 pJ per tag probe,
//! ≈180 pJ per data-array access, ≈75 pJ per router/link hop-flit, ≈15 nJ
//! per DRAM block access. Absolute joules are indicative; the *ratios*
//! between schemes are what the ablation relies on.

use bap_cache::dnuca::DnucaStats;
use bap_dram::DramStats;
use bap_noc::NocStats;
use serde::{Deserialize, Serialize};

/// Per-event energy coefficients (picojoules).
///
/// ```
/// use bap_system::energy::EnergyParams;
/// let p = EnergyParams::default();
/// assert!(p.dram_access_pj > p.array_access_pj, "DRAM dwarfs SRAM");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnergyParams {
    /// One bank tag-array probe.
    pub tag_probe_pj: f64,
    /// One data-array read or write (hit service or fill).
    pub array_access_pj: f64,
    /// One block moved between banks (read + write + wires).
    pub migration_pj: f64,
    /// One flit traversing one link/router hop.
    pub link_hop_pj: f64,
    /// One DRAM block transfer (activation + burst, amortised).
    pub dram_access_pj: f64,
    /// One MSA profiler update (partial-tag stack search + counter).
    pub profiler_update_pj: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            tag_probe_pj: 20.0,
            array_access_pj: 180.0,
            migration_pj: 450.0,
            link_hop_pj: 75.0,
            dram_access_pj: 15_000.0,
            profiler_update_pj: 8.0,
        }
    }
}

/// Energy breakdown of one run, in picojoules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Tag probes across all banks (where Parallel pays).
    pub tag_pj: f64,
    /// Data-array traffic (hits + fills).
    pub array_pj: f64,
    /// Inter-bank block migrations (where Cascade pays).
    pub migration_pj: f64,
    /// Interconnect flit-hops.
    pub link_pj: f64,
    /// Main-memory accesses (where extra misses pay).
    pub dram_pj: f64,
    /// Profiler updates.
    pub profiler_pj: f64,
}

impl EnergyReport {
    /// Total dynamic energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.tag_pj
            + self.array_pj
            + self.migration_pj
            + self.link_pj
            + self.dram_pj
            + self.profiler_pj
    }

    /// Total in microjoules (the natural scale for a measurement slice).
    pub fn total_uj(&self) -> f64 {
        self.total_pj() / 1e6
    }
}

/// Estimate the dynamic energy of a run from its counters.
///
/// `l2_accesses` is the demand access count (per-core sums);
/// `profiler_updates` the number of observed (sampled-in) profiler events —
/// pass the demand access count for the paper's always-on profilers.
pub fn estimate(
    params: &EnergyParams,
    l2: &DnucaStats,
    noc: &NocStats,
    dram: &DramStats,
    l2_accesses: u64,
    profiler_updates: u64,
) -> EnergyReport {
    // Wire cycles encode distance; one hop ≈ the per-hop latency share of
    // the 10..=70-cycle NUCA span over 7 hops (≈8.6 cycles per hop).
    let approx_hops = noc.wire_cycles as f64 / 8.6;
    EnergyReport {
        tag_pj: params.tag_probe_pj * l2.bank_probes as f64,
        array_pj: params.array_access_pj * l2_accesses as f64,
        migration_pj: params.migration_pj * l2.migrations as f64,
        link_pj: params.link_hop_pj * approx_hops,
        dram_pj: params.dram_access_pj * dram.requests as f64,
        profiler_pj: params.profiler_update_pj * profiler_updates as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2_stats(probes: u64, migrations: u64) -> DnucaStats {
        DnucaStats {
            per_core: Vec::new(),
            migrations,
            demotions: 0,
            bank_probes: probes,
            remote_hits: 0,
            writebacks: 0,
        }
    }

    #[test]
    fn breakdown_adds_up() {
        let params = EnergyParams::default();
        let noc = NocStats {
            requests: 10,
            wire_cycles: 86,
            queued_cycles: 0,
            max_queued: 0,
        };
        let dram = DramStats {
            requests: 2,
            bandwidth_stall_cycles: 0,
            bytes: 128,
        };
        let rep = estimate(&params, &l2_stats(100, 5), &noc, &dram, 50, 50);
        let expect =
            20.0 * 100.0 + 180.0 * 50.0 + 450.0 * 5.0 + 75.0 * 10.0 + 15_000.0 * 2.0 + 8.0 * 50.0;
        assert!(
            (rep.total_pj() - expect).abs() < 1e-6,
            "{} vs {expect}",
            rep.total_pj()
        );
        assert!((rep.total_uj() - expect / 1e6).abs() < 1e-12);
    }

    #[test]
    fn wider_lookups_cost_more_tag_energy() {
        let params = EnergyParams::default();
        let noc = NocStats::default();
        let dram = DramStats::default();
        // Parallel probes every bank of a level; Address-Hash probes one.
        let parallel = estimate(&params, &l2_stats(16_000, 0), &noc, &dram, 1000, 1000);
        let hashed = estimate(&params, &l2_stats(1_000, 0), &noc, &dram, 1000, 1000);
        assert!(parallel.tag_pj > 10.0 * hashed.tag_pj);
    }

    #[test]
    fn migrations_dominate_for_cascade_like_traffic() {
        let params = EnergyParams::default();
        let noc = NocStats::default();
        let dram = DramStats::default();
        let cascade = estimate(&params, &l2_stats(1_000, 5_000), &noc, &dram, 1000, 1000);
        assert!(cascade.migration_pj > cascade.tag_pj + cascade.array_pj);
    }

    #[test]
    fn dram_is_the_expensive_tier() {
        let params = EnergyParams::default();
        // One DRAM access outweighs dozens of bank accesses.
        assert!(params.dram_access_pj > 50.0 * params.array_access_pj);
    }
}
