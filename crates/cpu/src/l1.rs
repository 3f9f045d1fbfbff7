//! The private L1 data cache (Table I: 64 KB, 2-way, 3-cycle, 64 B blocks).
//!
//! A thin wrapper over [`bap_cache::SetAssocCache`] with hit/miss counters
//! and write-allocate / write-back semantics. Timing lives in the core
//! model; this is the functional filter in front of the L2.

use bap_cache::{AccessKind, SetAssocCache};
use bap_types::stats::CacheStats;
use bap_types::{BlockAddr, CacheGeometry, CoreId};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// One core's L1 data cache.
#[derive(Clone, Debug)]
pub struct L1Cache {
    cache: SetAssocCache<()>,
    stats: CacheStats,
}

impl L1Cache {
    /// An empty L1 with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        L1Cache {
            cache: SetAssocCache::new(geom),
            stats: CacheStats::default(),
        }
    }

    /// Access `block`; returns whether it hit. Writes mark the line dirty.
    #[inline]
    pub fn access(&mut self, block: BlockAddr, write: bool) -> bool {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let hit = self.cache.access(block, kind).is_some();
        self.stats.record(hit);
        hit
    }

    /// Fill `block` after a miss (write-allocate). Returns the evicted
    /// block if it was dirty and must be written back.
    #[inline]
    pub fn fill(&mut self, block: BlockAddr, write: bool) -> Option<BlockAddr> {
        let ev = self.cache.fill(block, CoreId(0), write, (), |_| true)?;
        ev.dirty.then_some(ev.block)
    }

    /// Drop `block` if present (coherence invalidation). Returns whether a
    /// dirty copy was lost (caller must write it back).
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        self.cache.invalidate(block).map(|ev| ev.dirty)
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset counters (contents kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Resident lines.
    pub fn occupancy(&self) -> usize {
        self.cache.occupancy()
    }

    /// The full L1 state (contents + counters) for checkpointing.
    pub fn snapshot(&self) -> L1State<'_> {
        L1State {
            cache: Cow::Borrowed(&self.cache),
            stats: self.stats,
        }
    }

    /// Overwrite this L1's state from a [`L1Cache::snapshot`] taken on an
    /// identically-configured cache.
    pub fn restore(&mut self, s: L1State<'_>) {
        let L1State { cache, stats } = s;
        self.cache = cache.into_owned();
        self.stats = stats;
    }
}

/// An L1's checkpointed state ([`L1Cache::snapshot`]).
#[derive(Serialize, Deserialize)]
pub struct L1State<'a> {
    cache: Cow<'a, SetAssocCache<()>>,
    stats: CacheStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> L1Cache {
        // 4 sets × 2 ways.
        L1Cache::new(CacheGeometry::new(4 * 2 * 64, 2, 64))
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = l1();
        assert!(!c.access(BlockAddr(0), false));
        assert!(c.fill(BlockAddr(0), false).is_none());
        assert!(c.access(BlockAddr(0), false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn dirty_eviction_is_reported() {
        let mut c = l1();
        // Fill set 0 with two dirty lines, then force an eviction.
        c.fill(BlockAddr(0), true);
        c.fill(BlockAddr(4), true);
        let victim = c.fill(BlockAddr(8), false);
        assert!(victim.is_some());
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = l1();
        c.fill(BlockAddr(0), false);
        c.fill(BlockAddr(4), false);
        assert_eq!(c.fill(BlockAddr(8), false), None);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = l1();
        c.fill(BlockAddr(0), true);
        assert_eq!(c.invalidate(BlockAddr(0)), Some(true));
        assert_eq!(c.invalidate(BlockAddr(0)), None);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn write_hit_dirties_line() {
        let mut c = l1();
        c.fill(BlockAddr(0), false);
        c.access(BlockAddr(0), true);
        assert_eq!(c.invalidate(BlockAddr(0)), Some(true));
    }
}
