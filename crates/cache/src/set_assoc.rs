//! Generic set-associative cache with true-LRU replacement.
//!
//! Each set keeps an explicit recency stack (MRU first), matching the LRU
//! stack the Mattson profiler models; victim selection can be restricted to
//! an arbitrary subset of ways, which is how the way-partitioned "modified
//! LRU" of §III-B is expressed.
//!
//! The cache is purely functional: it answers hit/miss, performs fills and
//! reports evictions; it never models time.

use crate::replacement::{Policy, SetState};
use bap_types::{BlockAddr, CacheGeometry, CoreId};
use serde::{Deserialize, Serialize};

/// Whether an access reads or writes (writes set the dirty bit).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One cache line's bookkeeping. `M` is caller-supplied metadata (coherence
/// state, aggregation level, …).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Line<M> {
    /// Tag bits above the set index.
    pub tag: u64,
    /// Dirty (modified relative to memory).
    pub dirty: bool,
    /// The core that allocated the line (used for per-core statistics and
    /// migration accounting; not an access restriction).
    pub owner: CoreId,
    /// Caller metadata.
    pub meta: M,
}

/// A line evicted by a fill, reported to the caller for write-back /
/// demotion handling.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictedLine<M> {
    /// The evicted block's address, reconstructed from tag and set.
    pub block: BlockAddr,
    /// Whether it was dirty.
    pub dirty: bool,
    /// The core that allocated it.
    pub owner: CoreId,
    /// Caller metadata.
    pub meta: M,
}

/// One set: parallel `ways`-sized arrays of lines plus an explicit LRU
/// recency stack of way indices (MRU at the front).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct CacheSet<M> {
    lines: Vec<Option<Line<M>>>,
    /// Way indices ordered MRU → LRU. Always a permutation of `0..ways`.
    /// Maintained under every policy: the MSA machinery and the cascade
    /// logic need true recency even when replacement approximates it.
    recency: Vec<u8>,
    /// Policy-specific state (PLRU tree bits, NRU reference bits, …).
    state: SetState,
}

impl<M> CacheSet<M> {
    fn new(ways: usize, seed: u64) -> Self {
        CacheSet {
            lines: (0..ways).map(|_| None).collect(),
            recency: (0..ways as u8).collect(),
            state: SetState::new(seed),
        }
    }

    fn touch(&mut self, way: usize) {
        let pos = self
            .recency
            .iter()
            .position(|&w| w as usize == way)
            .expect("way present in recency stack");
        let w = self.recency.remove(pos);
        self.recency.insert(0, w);
    }

    /// Position of `way` in the recency stack (0 = MRU). Used by tests and
    /// by the cascade demotion logic.
    fn stack_position(&self, way: usize) -> usize {
        self.recency
            .iter()
            .position(|&w| w as usize == way)
            .expect("way present in recency stack")
    }
}

/// A generic set-associative cache.
///
/// ```
/// use bap_cache::{AccessKind, SetAssocCache};
/// use bap_types::{BlockAddr, CacheGeometry, CoreId};
///
/// let mut cache = SetAssocCache::<()>::new(CacheGeometry::new(4 * 4 * 64, 4, 64));
/// let block = BlockAddr(0x10);
/// assert!(cache.access(block, AccessKind::Read).is_none()); // cold miss
/// cache.fill(block, CoreId(0), false, (), |_way| true);
/// assert!(cache.access(block, AccessKind::Read).is_some()); // hit
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SetAssocCache<M> {
    geom: CacheGeometry,
    policy: Policy,
    sets: Vec<CacheSet<M>>,
}

impl<M: Clone> SetAssocCache<M> {
    /// Build an empty cache with the given geometry and true-LRU
    /// replacement (the paper's assumption).
    pub fn new(geom: CacheGeometry) -> Self {
        Self::with_policy(geom, Policy::TrueLru, 0)
    }

    /// Build with an explicit replacement policy; `seed` drives
    /// [`Policy::Random`].
    pub fn with_policy(geom: CacheGeometry, policy: Policy, seed: u64) -> Self {
        let sets = (0..geom.num_sets())
            .enumerate()
            .map(|(i, _)| CacheSet::new(geom.ways, seed ^ (i as u64).wrapping_mul(0x9E37)))
            .collect();
        SetAssocCache { geom, policy, sets }
    }

    /// The replacement policy in force.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Number of sets.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Set index for a block.
    #[inline]
    pub fn set_of(&self, block: BlockAddr) -> usize {
        block.set_index(self.num_sets())
    }

    /// Look up a block without updating recency. Returns the way on a hit.
    pub fn probe(&self, block: BlockAddr) -> Option<usize> {
        let set = &self.sets[self.set_of(block)];
        let tag = block.tag(self.num_sets());
        set.lines
            .iter()
            .position(|l| l.as_ref().is_some_and(|l| l.tag == tag))
    }

    /// Access a block: on a hit, update recency and the dirty bit and return
    /// the way. On a miss return `None` (the caller decides whether and
    /// where to fill).
    #[inline]
    pub fn access(&mut self, block: BlockAddr, kind: AccessKind) -> Option<usize> {
        let way = self.probe(block)?;
        let set_idx = self.set_of(block);
        let policy = self.policy;
        let ways = self.geom.ways;
        let set = &mut self.sets[set_idx];
        set.touch(way);
        set.state.touch(policy, way, ways);
        if kind == AccessKind::Write {
            set.lines[way].as_mut().expect("probed line exists").dirty = true;
        }
        Some(way)
    }

    /// LRU-stack position of a block (0 = MRU), if present. This is exactly
    /// the stack distance the MSA profiler measures.
    pub fn stack_distance(&self, block: BlockAddr) -> Option<usize> {
        let way = self.probe(block)?;
        Some(self.sets[self.set_of(block)].stack_position(way))
    }

    /// Choose a victim way for `block`'s set among ways where
    /// `allowed(way)` holds: an invalid allowed way if one exists, otherwise
    /// the policy's victim among the allowed ways. Returns `None` if no way
    /// is allowed.
    pub fn victim_way(
        &mut self,
        block: BlockAddr,
        allowed: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let policy = self.policy;
        let ways = self.geom.ways;
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        // Prefer an invalid allowed way.
        if let Some(w) = (0..ways).find(|&w| allowed(w) && set.lines[w].is_none()) {
            return Some(w);
        }
        let recency = set.recency.clone();
        set.state.victim(policy, ways, &allowed, &recency)
    }

    /// Install `block` into `way` (owned by `core`, with `meta`), making it
    /// MRU. Returns the line previously in that way, if any.
    pub fn fill_into(
        &mut self,
        block: BlockAddr,
        way: usize,
        core: CoreId,
        dirty: bool,
        meta: M,
    ) -> Option<EvictedLine<M>> {
        let num_sets = self.num_sets();
        let set_idx = self.set_of(block);
        let tag = block.tag(num_sets);
        let set = &mut self.sets[set_idx];
        let old = set.lines[way].take().map(|l| EvictedLine {
            block: Self::rebuild_block(l.tag, set_idx, num_sets),
            dirty: l.dirty,
            owner: l.owner,
            meta: l.meta,
        });
        set.lines[way] = Some(Line {
            tag,
            dirty,
            owner: core,
            meta,
        });
        set.touch(way);
        let policy = self.policy;
        let ways = self.geom.ways;
        self.sets[set_idx].state.touch(policy, way, ways);
        old
    }

    /// Convenience: victim-select among `allowed` ways, then fill. Panics if
    /// no way is allowed (callers validate partitions before use).
    pub fn fill(
        &mut self,
        block: BlockAddr,
        core: CoreId,
        dirty: bool,
        meta: M,
        allowed: impl Fn(usize) -> bool,
    ) -> Option<EvictedLine<M>> {
        let way = self
            .victim_way(block, allowed)
            .expect("fill requires at least one allowed way");
        self.fill_into(block, way, core, dirty, meta)
    }

    /// Remove a block if present, returning its line.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<EvictedLine<M>> {
        let way = self.probe(block)?;
        let num_sets = self.num_sets();
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        let l = set.lines[way].take().expect("probed line exists");
        Some(EvictedLine {
            block: Self::rebuild_block(l.tag, set_idx, num_sets),
            dirty: l.dirty,
            owner: l.owner,
            meta: l.meta,
        })
    }

    /// Shared access to a resident line.
    pub fn line(&self, block: BlockAddr) -> Option<&Line<M>> {
        let way = self.probe(block)?;
        self.sets[self.set_of(block)].lines[way].as_ref()
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.lines.iter().flatten().count())
            .sum()
    }

    /// Iterate over all resident blocks (address, owner).
    pub fn resident_blocks(&self) -> impl Iterator<Item = (BlockAddr, CoreId)> + '_ {
        let num_sets = self.num_sets();
        self.sets.iter().enumerate().flat_map(move |(set_idx, s)| {
            s.lines
                .iter()
                .flatten()
                .map(move |l| (Self::rebuild_block(l.tag, set_idx, num_sets), l.owner))
        })
    }

    /// Drop every line owned by `core` (used when a repartition flushes a
    /// core out of ways it lost). Returns the evicted dirty blocks.
    pub fn invalidate_owned_by(&mut self, core: CoreId) -> Vec<EvictedLine<M>> {
        let num_sets = self.num_sets();
        let mut out = Vec::new();
        for (set_idx, set) in self.sets.iter_mut().enumerate() {
            for slot in set.lines.iter_mut() {
                if slot.as_ref().is_some_and(|l| l.owner == core) {
                    let l = slot.take().expect("checked above");
                    out.push(EvictedLine {
                        block: Self::rebuild_block(l.tag, set_idx, num_sets),
                        dirty: l.dirty,
                        owner: l.owner,
                        meta: l.meta,
                    });
                }
            }
        }
        out
    }

    #[inline]
    fn rebuild_block(tag: u64, set_idx: usize, num_sets: usize) -> BlockAddr {
        BlockAddr((tag << num_sets.trailing_zeros()) | set_idx as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bap_types::CacheGeometry;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn small() -> SetAssocCache<()> {
        // 4 sets × 4 ways × 64 B blocks.
        SetAssocCache::new(CacheGeometry::new(4 * 4 * 64, 4, 64))
    }

    /// Blocks that all map to set 0 of the small cache.
    fn blk(i: u64) -> BlockAddr {
        BlockAddr(i * 4)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(c.access(blk(1), AccessKind::Read), None);
        c.fill(blk(1), CoreId(0), false, (), |_| true);
        assert!(c.access(blk(1), AccessKind::Read).is_some());
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let mut c = small();
        for i in 0..4 {
            c.fill(blk(i), CoreId(0), false, (), |_| true);
        }
        // Touch 0 so that 1 becomes LRU.
        c.access(blk(0), AccessKind::Read);
        let ev = c
            .fill(blk(9), CoreId(0), false, (), |_| true)
            .expect("evicts");
        assert_eq!(ev.block, blk(1));
    }

    #[test]
    fn restricted_victim_respects_allowed() {
        let mut c = small();
        for i in 0..4 {
            c.fill_into(blk(i), i as usize, CoreId(0), false, ());
        }
        // Only way 2 allowed: victim must be way 2 regardless of recency.
        let ev = c
            .fill(blk(9), CoreId(1), false, (), |w| w == 2)
            .expect("evicts");
        assert_eq!(ev.block, blk(2));
        assert_eq!(c.probe(blk(9)), Some(2));
    }

    #[test]
    fn victim_prefers_invalid_way() {
        let mut c = small();
        let _ = &mut c;
        c.fill_into(blk(0), 0, CoreId(0), false, ());
        c.fill_into(blk(1), 1, CoreId(0), false, ());
        // Ways 2 and 3 are invalid; victim must be one of them.
        let w = c.victim_way(blk(9), |_| true).unwrap();
        assert!(w == 2 || w == 3);
    }

    #[test]
    fn no_allowed_way_returns_none() {
        let mut c = small();
        assert_eq!(c.victim_way(blk(0), |_| false), None);
    }

    #[test]
    fn write_sets_dirty_and_eviction_reports_it() {
        let mut c = small();
        c.fill(blk(1), CoreId(0), false, (), |_| true);
        c.access(blk(1), AccessKind::Write);
        let ev = c.invalidate(blk(1)).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn stack_distance_counts_intervening_blocks() {
        let mut c = small();
        for i in 0..4 {
            c.fill(blk(i), CoreId(0), false, (), |_| true);
        }
        // blk(3) is MRU, blk(0) is LRU.
        assert_eq!(c.stack_distance(blk(3)), Some(0));
        assert_eq!(c.stack_distance(blk(0)), Some(3));
        assert_eq!(c.stack_distance(blk(99)), None);
    }

    #[test]
    fn eviction_rebuilds_address() {
        let mut c = small();
        // Block in set 2 with a big tag.
        let b = BlockAddr(0xABCD * 4 + 2);
        c.fill(b, CoreId(3), true, (), |_| true);
        let ev = c.invalidate(b).unwrap();
        assert_eq!(ev.block, b);
        assert_eq!(ev.owner, CoreId(3));
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_owned_by_core() {
        let mut c = small();
        c.fill(blk(0), CoreId(0), false, (), |_| true);
        c.fill(blk(1), CoreId(1), true, (), |_| true);
        c.fill(blk(2), CoreId(1), false, (), |_| true);
        let evs = c.invalidate_owned_by(CoreId(1));
        assert_eq!(evs.len(), 2);
        assert_eq!(c.occupancy(), 1);
        assert!(c.probe(blk(0)).is_some());
    }

    #[test]
    fn resident_blocks_iterates_everything() {
        let mut c = small();
        c.fill(blk(0), CoreId(0), false, (), |_| true);
        c.fill(BlockAddr(7), CoreId(1), false, (), |_| true);
        let mut v: Vec<_> = c.resident_blocks().collect();
        v.sort();
        assert_eq!(v, vec![(blk(0), CoreId(0)), (BlockAddr(7), CoreId(1))]);
    }

    /// Model-based property test: the cache must behave exactly like a naive
    /// per-set LRU list over any access sequence.
    #[derive(Default)]
    struct NaiveLru {
        // One VecDeque per set, MRU first, capped at `ways`.
        sets: Vec<VecDeque<u64>>,
    }

    impl NaiveLru {
        fn new(num_sets: usize) -> Self {
            NaiveLru {
                sets: (0..num_sets).map(|_| VecDeque::new()).collect(),
            }
        }

        /// Returns true on hit.
        fn access(&mut self, block: BlockAddr, num_sets: usize, ways: usize) -> bool {
            let set = &mut self.sets[block.set_index(num_sets)];
            if let Some(pos) = set.iter().position(|&b| b == block.0) {
                let b = set.remove(pos).unwrap();
                set.push_front(b);
                true
            } else {
                set.push_front(block.0);
                if set.len() > ways {
                    set.pop_back();
                }
                false
            }
        }
    }

    proptest! {
        #[test]
        fn matches_naive_lru_model(accesses in proptest::collection::vec(0u64..64, 1..400)) {
            let geom = CacheGeometry::new(4 * 4 * 64, 4, 64);
            let mut cache = SetAssocCache::<()>::new(geom);
            let mut model = NaiveLru::new(4);
            for a in accesses {
                let block = BlockAddr(a);
                let model_hit = model.access(block, 4, 4);
                let cache_hit = cache.access(block, AccessKind::Read).is_some();
                if !cache_hit {
                    cache.fill(block, CoreId(0), false, (), |_| true);
                }
                prop_assert_eq!(model_hit, cache_hit, "block {:?}", block);
            }
        }

        #[test]
        fn occupancy_never_exceeds_capacity(accesses in proptest::collection::vec(0u64..1000, 1..300)) {
            let geom = CacheGeometry::new(4 * 4 * 64, 4, 64);
            let mut cache = SetAssocCache::<()>::new(geom);
            for a in accesses {
                let block = BlockAddr(a);
                if cache.access(block, AccessKind::Read).is_none() {
                    cache.fill(block, CoreId(0), false, (), |_| true);
                }
                prop_assert!(cache.occupancy() <= 16);
            }
        }
    }
}
