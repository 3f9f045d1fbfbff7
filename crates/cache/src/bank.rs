//! One physical L2 cache bank with vertical fine-grain way-partitioning.
//!
//! Following §III-B of the paper, every way of the bank carries an owner
//! mask ([`CoreSet`]) that is identical across all sets; on a miss the
//! modified LRU selects the least-recently-used line *among the requesting
//! core's ways only*, so workloads in different partitions cannot evict each
//! other. Lookups search all ways (a hit on a block left behind by an
//! earlier partition epoch is still a hit — the data is physically there),
//! which matches the usual hardware realisation of way-partitioning.

use crate::set_assoc::{AccessKind, EvictedLine, SetAssocCache};
use bap_types::stats::CacheStats;
use bap_types::{BankId, BlockAddr, CacheGeometry, CoreId, CoreSet};
use serde::{Deserialize, Serialize};

/// Result of a functional bank access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BankAccess {
    /// The block was resident.
    Hit,
    /// The block was absent; the caller decides whether to fill.
    Miss,
}

/// A single L2 bank.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CacheBank {
    id: BankId,
    storage: SetAssocCache<()>,
    /// Per-way owner masks, identical across sets. An empty mask means the
    /// way is currently unassigned (no core may allocate into it).
    way_owners: Vec<CoreSet>,
    /// Per-core hit/miss counters (indexed by core).
    stats: Vec<CacheStats>,
}

impl CacheBank {
    /// An empty bank where every way is owned by all of the first
    /// `num_cores` cores (the unpartitioned default), with true-LRU
    /// replacement.
    pub fn new(id: BankId, geom: CacheGeometry, num_cores: usize) -> Self {
        Self::with_policy(id, geom, num_cores, crate::replacement::Policy::TrueLru)
    }

    /// As [`CacheBank::new`], with an explicit replacement policy.
    pub fn with_policy(
        id: BankId,
        geom: CacheGeometry,
        num_cores: usize,
        policy: crate::replacement::Policy,
    ) -> Self {
        CacheBank {
            id,
            storage: SetAssocCache::with_policy(geom, policy, id.index() as u64),
            way_owners: vec![CoreSet::all(num_cores); geom.ways],
            stats: vec![CacheStats::default(); num_cores],
        }
    }

    /// This bank's identifier.
    pub fn id(&self) -> BankId {
        self.id
    }

    /// Bank geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        self.storage.geometry()
    }

    /// Replace the per-way owner masks (a repartition). Resident lines are
    /// left in place — they hit until naturally evicted, which is both the
    /// cheap hardware behaviour and what keeps repartitioning transitions
    /// smooth.
    pub fn set_way_owners(&mut self, owners: Vec<CoreSet>) {
        assert_eq!(owners.len(), self.geometry().ways, "owner mask per way");
        self.way_owners = owners;
    }

    /// Current owner masks.
    pub fn way_owners(&self) -> &[CoreSet] {
        &self.way_owners
    }

    /// Number of ways `core` may allocate into.
    pub fn ways_of(&self, core: CoreId) -> usize {
        self.way_owners.iter().filter(|m| m.contains(core)).count()
    }

    /// Functional access on behalf of `core`. Updates recency and stats.
    pub fn access(&mut self, block: BlockAddr, core: CoreId, kind: AccessKind) -> BankAccess {
        let hit = self.storage.access(block, kind).is_some();
        self.stats[core.index()].record(hit);
        if hit {
            BankAccess::Hit
        } else {
            BankAccess::Miss
        }
    }

    /// Probe without side effects.
    pub fn probe(&self, block: BlockAddr) -> bool {
        self.storage.probe(block).is_some()
    }

    /// Fill `block` on behalf of `core` into one of the core's ways,
    /// returning the displaced line (if any). Panics if the core owns no
    /// way in this bank — plans are validated before being applied.
    pub fn fill(&mut self, block: BlockAddr, core: CoreId, dirty: bool) -> Option<EvictedLine<()>> {
        let owners = &self.way_owners;
        self.storage
            .fill(block, core, dirty, (), |w| owners[w].contains(core))
    }

    /// Fill into the LRU way of the whole set regardless of ownership —
    /// used by the shared (No-partitions) mode and by cascade demotions
    /// arriving from an upstream bank.
    pub fn fill_unrestricted(
        &mut self,
        block: BlockAddr,
        core: CoreId,
        dirty: bool,
    ) -> Option<EvictedLine<()>> {
        self.storage.fill(block, core, dirty, (), |_| true)
    }

    /// Fill restricted to the ways of whichever cores are in `mask` — used
    /// by cascade demotion within a shared partition pair.
    pub fn fill_masked(
        &mut self,
        block: BlockAddr,
        core: CoreId,
        dirty: bool,
        mask: CoreSet,
    ) -> Option<EvictedLine<()>> {
        let owners = &self.way_owners;
        self.storage
            .fill(block, core, dirty, (), |w| !(owners[w] & mask).is_empty())
    }

    /// Remove a block (coherence invalidation or migration source).
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<EvictedLine<()>> {
        self.storage.invalidate(block)
    }

    /// Per-core statistics.
    pub fn stats(&self, core: CoreId) -> CacheStats {
        self.stats[core.index()]
    }

    /// Sum of statistics over all cores.
    pub fn total_stats(&self) -> CacheStats {
        let mut t = CacheStats::default();
        for s in &self.stats {
            t += *s;
        }
        t
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.storage.occupancy()
    }

    /// Whether `core` may allocate in this bank at all.
    pub fn allows(&self, core: CoreId) -> bool {
        self.way_owners.iter().any(|m| m.contains(core))
    }

    /// Evict every resident line owned by a core that no longer owns any
    /// way in this bank (strict-isolation repartitions flush lost ways).
    /// Returns the evicted lines for write-back handling.
    pub fn flush_disowned(&mut self) -> Vec<EvictedLine<()>> {
        let owners = self.way_owners.clone();
        let disowned: Vec<CoreId> = (0..self.stats.len())
            .map(|c| CoreId(c as u16))
            .filter(|&c| !owners.iter().any(|m| m.contains(c)))
            .collect();
        let mut out = Vec::new();
        for core in disowned {
            out.extend(self.storage.invalidate_owned_by(core));
        }
        out
    }

    /// Reset statistics (epoch boundary).
    pub fn reset_stats(&mut self) {
        for s in &mut self.stats {
            *s = CacheStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        // 8 sets × 8 ways.
        CacheGeometry::new(8 * 8 * 64, 8, 64)
    }

    fn bank() -> CacheBank {
        CacheBank::new(BankId(0), geom(), 2)
    }

    /// Blocks mapping to set 0.
    fn blk(i: u64) -> BlockAddr {
        BlockAddr(i * 8)
    }

    #[test]
    fn partitioned_fill_respects_ownership() {
        let mut b = bank();
        // Core 0 owns ways 0..2, core 1 owns ways 2..8.
        let mut owners = vec![CoreSet::single(CoreId(1)); 8];
        owners[0] = CoreSet::single(CoreId(0));
        owners[1] = CoreSet::single(CoreId(0));
        b.set_way_owners(owners);
        assert_eq!(b.ways_of(CoreId(0)), 2);
        assert_eq!(b.ways_of(CoreId(1)), 6);

        // Core 0 streams three blocks through its two ways: the first must
        // be evicted, and core 1's resident blocks must be untouched.
        b.fill(blk(100), CoreId(1), false);
        for i in 0..3 {
            assert_eq!(
                b.access(blk(i), CoreId(0), AccessKind::Read),
                BankAccess::Miss
            );
            b.fill(blk(i), CoreId(0), false);
        }
        assert!(
            !b.probe(blk(0)),
            "core0's oldest block evicted by its own fills"
        );
        assert!(b.probe(blk(1)));
        assert!(b.probe(blk(2)));
        assert!(
            b.probe(blk(100)),
            "core1's block untouched by core0's pressure"
        );
    }

    #[test]
    fn hits_allowed_on_any_way() {
        let mut b = bank();
        b.fill_unrestricted(blk(5), CoreId(1), false);
        // After a repartition that gives every way to core 0, core 1 still
        // hits on its stale block.
        b.set_way_owners(vec![CoreSet::single(CoreId(0)); 8]);
        assert_eq!(
            b.access(blk(5), CoreId(1), AccessKind::Read),
            BankAccess::Hit
        );
    }

    #[test]
    fn stats_are_per_core() {
        let mut b = bank();
        b.access(blk(0), CoreId(0), AccessKind::Read);
        b.fill(blk(0), CoreId(0), false);
        b.access(blk(0), CoreId(0), AccessKind::Read);
        b.access(blk(0), CoreId(1), AccessKind::Read);
        assert_eq!(b.stats(CoreId(0)).misses, 1);
        assert_eq!(b.stats(CoreId(0)).hits, 1);
        assert_eq!(b.stats(CoreId(1)).hits, 1);
        assert_eq!(b.total_stats().accesses(), 3);
    }

    #[test]
    fn fill_masked_unions_owner_sets() {
        let mut b = bank();
        let mut owners = vec![CoreSet::single(CoreId(0)); 4];
        owners.extend(vec![CoreSet::single(CoreId(1)); 4]);
        b.set_way_owners(owners);
        // A demotion on behalf of the pair {0,1} may land in any of the 8 ways.
        let pair: CoreSet = [CoreId(0), CoreId(1)].into_iter().collect();
        b.fill_masked(blk(1), CoreId(0), false, pair);
        assert!(b.probe(blk(1)));
    }

    #[test]
    fn reset_stats_clears_counts() {
        let mut b = bank();
        b.access(blk(0), CoreId(0), AccessKind::Read);
        b.fill(blk(0), CoreId(0), false);
        b.reset_stats();
        assert_eq!(b.total_stats().accesses(), 0);
        // Contents survive a stats reset.
        assert!(b.probe(blk(0)));
    }

    #[test]
    #[should_panic(expected = "allowed way")]
    fn fill_without_ownership_panics() {
        let mut b = bank();
        b.set_way_owners(vec![CoreSet::single(CoreId(1)); 8]);
        b.fill(blk(0), CoreId(0), false);
    }
}
