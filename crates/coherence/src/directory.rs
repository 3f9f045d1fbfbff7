//! The MOESI home-node directory state machine.
//!
//! One [`Directory`] instance covers the whole address space (the system
//! shards it per L2 bank by address; the protocol is identical per shard).
//! Each cached block has an exact entry: global state, current owner and
//! sharer set. Requests arrive serialised (the directory is the ordering
//! point, as in GEMS), so the state machine is a plain function of
//! (entry, request).

use crate::MoesiState;
use bap_types::{BlockAddr, CoreId, CoreSet};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;

/// A coherence request from one core's private cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Read miss: wants a readable copy.
    GetS,
    /// Write miss or upgrade: wants an exclusive writable copy.
    GetM,
    /// Eviction of a clean Shared copy (silent in some protocols; explicit
    /// here so the directory stays exact).
    PutS,
    /// Eviction of an owned (M/O/E) copy. The cache reports whether its
    /// copy is dirty — the directory cannot know, because the E→M upgrade
    /// is silent.
    PutM {
        /// Whether the evicted copy was dirty (M or O).
        dirty: bool,
    },
}

/// Where the requester's data comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataSource {
    /// Off-chip memory (or the shared L2 holding a clean copy).
    Memory,
    /// Cache-to-cache forward from the named owner.
    Cache(CoreId),
    /// No data movement (evictions, upgrades where requester has data).
    None,
}

/// The directory's answer to a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Data source for the requester.
    pub data: DataSource,
    /// Caches that must invalidate their copies.
    pub invalidate: CoreSet,
    /// Caches that must downgrade (M/E → O/S) but keep their copy.
    pub downgrade: CoreSet,
    /// The state the requester installs.
    pub new_state: MoesiState,
    /// Whether dirty data was written back to memory by this transaction.
    pub memory_writeback: bool,
}

/// Global directory-side view of one block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    /// The owner (a cache in M, O or E), if any. The directory does not
    /// track whether the owner's copy is dirty — the E→M upgrade is silent,
    /// so only the cache knows; dirtiness is reported on `PutM`.
    owner: Option<CoreId>,
    /// Caches holding Shared copies (excludes the owner).
    sharers: CoreSet,
}

/// Protocol traffic counters.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectoryStats {
    /// GetS/GetM transactions processed.
    pub transactions: u64,
    /// Cache-to-cache forwards.
    pub forwards: u64,
    /// Invalidation messages sent.
    pub invalidations: u64,
    /// Write-backs to memory.
    pub writebacks: u64,
}

/// The directory's checkpointed state ([`Directory::snapshot`]): entries
/// as block-sorted `(block, owner, sharers)` tuples.
#[derive(Serialize, Deserialize)]
pub struct DirectoryState<'a> {
    entries: Vec<(BlockAddr, Option<CoreId>, CoreSet)>,
    stats: Cow<'a, DirectoryStats>,
}

/// The exact MOESI directory.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    entries: HashMap<BlockAddr, Entry>,
    stats: DirectoryStats,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &DirectoryStats {
        &self.stats
    }

    /// The directory state for checkpointing. Entries are sorted by block
    /// so identical states produce byte-identical snapshots.
    pub fn snapshot(&self) -> DirectoryState<'_> {
        let mut entries: Vec<_> = self
            .entries
            .iter()
            .map(|(&block, e)| (block, e.owner, e.sharers))
            .collect();
        entries.sort_unstable_by_key(|&(block, _, _)| block);
        DirectoryState {
            entries,
            stats: Cow::Borrowed(&self.stats),
        }
    }

    /// Overwrite the directory state from a [`Directory::snapshot`].
    pub fn restore(&mut self, s: DirectoryState<'_>) {
        let DirectoryState { entries, stats } = s;
        self.entries = entries
            .into_iter()
            .map(|(block, owner, sharers)| (block, Entry { owner, sharers }))
            .collect();
        self.stats = stats.into_owned();
    }

    /// Cores the directory believes hold `block` (owner + sharers).
    pub fn holders(&self, block: BlockAddr) -> CoreSet {
        match self.entries.get(&block) {
            None => CoreSet::EMPTY,
            Some(e) => {
                let mut s = e.sharers;
                if let Some(o) = e.owner {
                    s.insert(o);
                }
                s
            }
        }
    }

    /// Process one serialised request from `core` for `block`.
    pub fn request(&mut self, core: CoreId, block: BlockAddr, req: Request) -> Response {
        match req {
            Request::GetS => self.get_s(core, block),
            Request::GetM => self.get_m(core, block),
            Request::PutS => self.put_s(core, block),
            Request::PutM { dirty } => self.put_m(core, block, dirty),
        }
    }

    fn get_s(&mut self, core: CoreId, block: BlockAddr) -> Response {
        self.stats.transactions += 1;
        let entry = self.entries.entry(block).or_insert(Entry {
            owner: None,
            sharers: CoreSet::EMPTY,
        });
        match entry.owner {
            None if entry.sharers.is_empty() => {
                // Uncached: grant Exclusive (MOESI E optimisation).
                entry.owner = Some(core);
                Response {
                    data: DataSource::Memory,
                    invalidate: CoreSet::EMPTY,
                    downgrade: CoreSet::EMPTY,
                    new_state: MoesiState::Exclusive,
                    memory_writeback: false,
                }
            }
            None => {
                // Shared only: data from memory (clean), join the sharers.
                entry.sharers.insert(core);
                Response {
                    data: DataSource::Memory,
                    invalidate: CoreSet::EMPTY,
                    downgrade: CoreSet::EMPTY,
                    new_state: MoesiState::Shared,
                    memory_writeback: false,
                }
            }
            Some(owner) if owner == core => {
                // Requester already owns it (race after an upgrade); no-op.
                Response {
                    data: DataSource::None,
                    invalidate: CoreSet::EMPTY,
                    downgrade: CoreSet::EMPTY,
                    new_state: MoesiState::Exclusive,
                    memory_writeback: false,
                }
            }
            Some(owner) => {
                // Forward from the owner. The owner keeps ownership and
                // downgrades (M → O, E → S at the cache; the directory does
                // not distinguish — it only needs to know *who* supplies
                // data and who must write back on eviction).
                self.stats.forwards += 1;
                let downgrade = CoreSet::single(owner);
                entry.sharers.insert(core);
                Response {
                    data: DataSource::Cache(owner),
                    invalidate: CoreSet::EMPTY,
                    downgrade,
                    new_state: MoesiState::Shared,
                    memory_writeback: false,
                }
            }
        }
    }

    fn get_m(&mut self, core: CoreId, block: BlockAddr) -> Response {
        self.stats.transactions += 1;
        let entry = self.entries.entry(block).or_insert(Entry {
            owner: None,
            sharers: CoreSet::EMPTY,
        });
        // Everyone except the requester must invalidate.
        let mut invalidate = entry.sharers;
        invalidate.remove(core);
        // A requester already holding a valid copy (sharer, or the owner
        // itself) upgrades without data movement; its copy is current
        // because any other write would have invalidated it first.
        let had_copy = entry.sharers.contains(core) || entry.owner == Some(core);
        let data = match entry.owner {
            Some(owner) if owner != core => {
                invalidate.insert(owner);
                if had_copy {
                    DataSource::None
                } else {
                    self.stats.forwards += 1;
                    DataSource::Cache(owner)
                }
            }
            Some(_) => DataSource::None, // upgrading owner (E→M silent would not reach us, M no-op)
            None if had_copy => DataSource::None, // S→M upgrade: data already present
            None => DataSource::Memory,
        };
        self.stats.invalidations += invalidate.len() as u64;
        *entry = Entry {
            owner: Some(core),
            sharers: CoreSet::EMPTY,
        };
        Response {
            data,
            invalidate,
            downgrade: CoreSet::EMPTY,
            new_state: MoesiState::Modified,
            memory_writeback: false,
        }
    }

    fn put_s(&mut self, core: CoreId, block: BlockAddr) -> Response {
        if let Some(entry) = self.entries.get_mut(&block) {
            entry.sharers.remove(core);
            // A cache the directory still records as owner may have
            // downgraded to Shared locally (clean E owner after a GetS
            // forward): its PutS also relinquishes ownership.
            if entry.owner == Some(core) {
                entry.owner = None;
            }
            if entry.owner.is_none() && entry.sharers.is_empty() {
                self.entries.remove(&block);
            }
        }
        Response {
            data: DataSource::None,
            invalidate: CoreSet::EMPTY,
            downgrade: CoreSet::EMPTY,
            new_state: MoesiState::Invalid,
            memory_writeback: false,
        }
    }

    fn put_m(&mut self, core: CoreId, block: BlockAddr, dirty: bool) -> Response {
        let mut wb = false;
        if let Some(entry) = self.entries.get_mut(&block) {
            if entry.owner == Some(core) {
                wb = dirty;
                if wb {
                    self.stats.writebacks += 1;
                }
                entry.owner = None;
            }
            entry.sharers.remove(core);
            if entry.owner.is_none() && entry.sharers.is_empty() {
                self.entries.remove(&block);
            }
        }
        Response {
            data: DataSource::None,
            invalidate: CoreSet::EMPTY,
            downgrade: CoreSet::EMPTY,
            new_state: MoesiState::Invalid,
            memory_writeback: wb,
        }
    }

    /// Directory invariant check (used by property tests): owner and
    /// sharers are disjoint, and an entry never exists empty.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (b, e) in &self.entries {
            if let Some(o) = e.owner {
                if e.sharers.contains(o) {
                    return Err(format!("{b:?}: owner {o} also in sharer set"));
                }
            }
            if e.owner.is_none() && e.sharers.is_empty() {
                return Err(format!("{b:?}: empty entry retained"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockAddr = BlockAddr(0x42);

    #[test]
    fn first_read_gets_exclusive() {
        let mut d = Directory::new();
        let r = d.request(CoreId(0), B, Request::GetS);
        assert_eq!(r.new_state, MoesiState::Exclusive);
        assert_eq!(r.data, DataSource::Memory);
        assert!(r.invalidate.is_empty());
    }

    #[test]
    fn second_read_forwards_and_downgrades_clean_owner() {
        let mut d = Directory::new();
        d.request(CoreId(0), B, Request::GetS);
        let r = d.request(CoreId(1), B, Request::GetS);
        assert_eq!(r.data, DataSource::Cache(CoreId(0)));
        assert_eq!(r.new_state, MoesiState::Shared);
        assert_eq!(r.downgrade, CoreSet::single(CoreId(0)));
        assert_eq!(d.holders(B).len(), 2);
    }

    #[test]
    fn read_of_modified_creates_owned() {
        let mut d = Directory::new();
        d.request(CoreId(0), B, Request::GetM);
        let r = d.request(CoreId(1), B, Request::GetS);
        assert_eq!(r.data, DataSource::Cache(CoreId(0)));
        // Dirty owner keeps ownership (MOESI's O state: no memory write-back).
        assert!(!r.memory_writeback);
        assert_eq!(r.downgrade, CoreSet::single(CoreId(0)));
        assert_eq!(d.holders(B).len(), 2);
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let mut d = Directory::new();
        d.request(CoreId(0), B, Request::GetS);
        d.request(CoreId(1), B, Request::GetS);
        d.request(CoreId(2), B, Request::GetS);
        let r = d.request(CoreId(3), B, Request::GetM);
        assert_eq!(r.new_state, MoesiState::Modified);
        assert_eq!(r.invalidate.len(), 3);
        assert!(!r.invalidate.contains(CoreId(3)));
        assert_eq!(d.holders(B), CoreSet::single(CoreId(3)));
    }

    #[test]
    fn upgrade_from_shared_needs_no_data() {
        let mut d = Directory::new();
        d.request(CoreId(0), B, Request::GetS);
        d.request(CoreId(1), B, Request::GetS);
        // Core 1 upgrades.
        let r = d.request(CoreId(1), B, Request::GetM);
        assert_eq!(r.data, DataSource::None);
        assert_eq!(r.invalidate, CoreSet::single(CoreId(0)));
    }

    #[test]
    fn write_steals_from_modified_owner() {
        let mut d = Directory::new();
        d.request(CoreId(0), B, Request::GetM);
        let r = d.request(CoreId(1), B, Request::GetM);
        assert_eq!(r.data, DataSource::Cache(CoreId(0)));
        assert_eq!(r.invalidate, CoreSet::single(CoreId(0)));
        assert_eq!(d.holders(B), CoreSet::single(CoreId(1)));
    }

    #[test]
    fn put_m_of_dirty_owner_writes_back() {
        let mut d = Directory::new();
        d.request(CoreId(0), B, Request::GetM);
        let r = d.request(CoreId(0), B, Request::PutM { dirty: true });
        assert!(r.memory_writeback);
        assert!(d.holders(B).is_empty());
        assert_eq!(d.stats().writebacks, 1);
    }

    #[test]
    fn put_m_of_clean_exclusive_is_silent() {
        let mut d = Directory::new();
        d.request(CoreId(0), B, Request::GetS); // Exclusive, clean
        let r = d.request(CoreId(0), B, Request::PutM { dirty: false });
        assert!(!r.memory_writeback);
        assert!(d.holders(B).is_empty());
    }

    #[test]
    fn put_s_removes_sharer() {
        let mut d = Directory::new();
        d.request(CoreId(0), B, Request::GetS);
        d.request(CoreId(1), B, Request::GetS);
        d.request(CoreId(0), B, Request::PutS);
        d.request(CoreId(1), B, Request::PutS);
        assert!(d.holders(B).is_empty());
        d.check_invariants().unwrap();
    }

    #[test]
    fn owned_owner_eviction_promotes_memory() {
        let mut d = Directory::new();
        d.request(CoreId(0), B, Request::GetM);
        d.request(CoreId(1), B, Request::GetS); // 0 is now Owned
        let r = d.request(CoreId(0), B, Request::PutM { dirty: true });
        assert!(r.memory_writeback, "O eviction flushes dirty data");
        // Core 1's Shared copy remains.
        assert_eq!(d.holders(B), CoreSet::single(CoreId(1)));
        d.check_invariants().unwrap();
    }

    #[test]
    fn stats_count_traffic() {
        let mut d = Directory::new();
        d.request(CoreId(0), B, Request::GetM);
        d.request(CoreId(1), B, Request::GetS); // forward
        d.request(CoreId(2), B, Request::GetM); // forward + 2 invalidations
        assert_eq!(d.stats().transactions, 3);
        assert_eq!(d.stats().forwards, 2);
        assert_eq!(d.stats().invalidations, 2);
    }
}

/// A directory sharded by home bank, as in the paper's CMP (each L2 bank
/// holds the directory state for the blocks it homes). The protocol is
/// identical per shard; sharding matters for bandwidth (shards serve
/// requests independently) and for floorplanning the directory storage.
#[derive(Clone, Debug)]
pub struct ShardedDirectory {
    shards: Vec<Directory>,
}

impl ShardedDirectory {
    /// One shard per home bank.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards >= 1);
        ShardedDirectory {
            shards: (0..num_shards).map(|_| Directory::new()).collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard homing `block` (address-hashed, like the S-NUCA home).
    pub fn shard_of(&self, block: BlockAddr) -> usize {
        (block.0 % self.shards.len() as u64) as usize
    }

    /// Process one request at the block's home shard.
    pub fn request(&mut self, core: CoreId, block: BlockAddr, req: Request) -> Response {
        let shard = self.shard_of(block);
        self.shards[shard].request(core, block, req)
    }

    /// Cores holding `block`, per its home shard.
    pub fn holders(&self, block: BlockAddr) -> CoreSet {
        self.shards[self.shard_of(block)].holders(block)
    }

    /// Summed statistics across shards.
    pub fn stats(&self) -> DirectoryStats {
        let mut total = DirectoryStats::default();
        for s in &self.shards {
            let st = s.stats();
            total.transactions += st.transactions;
            total.forwards += st.forwards;
            total.invalidations += st.invalidations;
            total.writebacks += st.writebacks;
        }
        total
    }

    /// Per-shard transaction counts (load-balance view).
    pub fn shard_loads(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.stats().transactions).collect()
    }

    /// Check every shard's invariants.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, s) in self.shards.iter().enumerate() {
            s.check_invariants()
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod sharded_tests {
    use super::*;
    use crate::MoesiState;

    #[test]
    fn shards_partition_the_address_space() {
        let mut d = ShardedDirectory::new(16);
        assert_eq!(d.num_shards(), 16);
        // Blocks land on distinct shards and never interfere.
        let a = BlockAddr(0);
        let b = BlockAddr(1);
        assert_ne!(d.shard_of(a), d.shard_of(b));
        d.request(CoreId(0), a, Request::GetM);
        d.request(CoreId(1), b, Request::GetM);
        assert_eq!(d.holders(a), CoreSet::single(CoreId(0)));
        assert_eq!(d.holders(b), CoreSet::single(CoreId(1)));
        d.check_invariants().unwrap();
    }

    #[test]
    fn protocol_behaviour_is_shard_transparent() {
        let mut d = ShardedDirectory::new(4);
        let b = BlockAddr(42);
        let r1 = d.request(CoreId(0), b, Request::GetS);
        assert_eq!(r1.new_state, MoesiState::Exclusive);
        let r2 = d.request(CoreId(1), b, Request::GetS);
        assert_eq!(r2.data, DataSource::Cache(CoreId(0)));
        let r3 = d.request(CoreId(2), b, Request::GetM);
        assert_eq!(r3.invalidate.len(), 2);
    }

    #[test]
    fn stats_aggregate_and_balance_is_visible() {
        let mut d = ShardedDirectory::new(4);
        for i in 0..64u64 {
            d.request(CoreId(0), BlockAddr(i), Request::GetS);
        }
        assert_eq!(d.stats().transactions, 64);
        let loads = d.shard_loads();
        assert_eq!(loads.len(), 4);
        assert!(loads.iter().all(|&l| l == 16), "uniform hash: {loads:?}");
    }
}
