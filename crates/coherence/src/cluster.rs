//! An executable model of N coherent private caches over one directory.
//!
//! [`CoherentCluster`] drives the [`Directory`] from load/store/evict
//! operations and maintains *versioned data*: every store creates a new
//! version of the block, forwards and write-backs move versions around, and
//! every load returns the version it observes. A correct protocol must make
//! every load observe the globally latest version — the property tests
//! verify exactly that, plus the single-writer invariant, over arbitrary
//! operation interleavings.
//!
//! `bap-system` uses the cluster for shared-segment workloads; its latency
//! model prices each [`Transaction`] by its traffic class.

use crate::directory::{DataSource, Directory, DirectoryState, Request};
use crate::MoesiState;
use bap_types::{BlockAddr, CoreId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What a memory operation cost in protocol terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transaction {
    /// Local hit, no directory involvement.
    Hit,
    /// Data came from memory.
    MemoryFill,
    /// Data was forwarded cache-to-cache.
    Forward,
    /// An upgrade (invalidations only, no data).
    Upgrade,
}

/// The cluster's checkpointed state ([`CoherentCluster::snapshot`]): every
/// map written as block-sorted pairs.
#[derive(Serialize, Deserialize)]
pub struct ClusterState<'a> {
    directory: DirectoryState<'a>,
    states: Vec<Vec<(BlockAddr, MoesiState)>>,
    versions: Vec<Vec<(BlockAddr, u64)>>,
    memory: Vec<(BlockAddr, u64)>,
    latest: Vec<(BlockAddr, u64)>,
}

/// N private caches + directory + versioned memory.
///
/// ```
/// use bap_coherence::{CoherentCluster, MoesiState};
/// use bap_types::{BlockAddr, CoreId};
///
/// let mut cluster = CoherentCluster::new(2);
/// let block = BlockAddr(7);
/// cluster.store(CoreId(0), block);
/// // The reader observes the writer's data via a cache-to-cache forward.
/// let (version, _) = cluster.load(CoreId(1), block);
/// assert_eq!(version, 1);
/// assert_eq!(cluster.state(CoreId(0), block), MoesiState::Owned);
/// cluster.check_invariants().unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct CoherentCluster {
    num_cores: usize,
    directory: Directory,
    /// Per-core line state.
    states: Vec<HashMap<BlockAddr, MoesiState>>,
    /// Per-core data version held.
    versions: Vec<HashMap<BlockAddr, u64>>,
    /// Memory's version of each block.
    memory: HashMap<BlockAddr, u64>,
    /// The globally latest version (bumped by every store).
    latest: HashMap<BlockAddr, u64>,
}

impl CoherentCluster {
    /// A cluster of `num_cores` private caches.
    pub fn new(num_cores: usize) -> Self {
        CoherentCluster {
            num_cores,
            directory: Directory::new(),
            states: vec![HashMap::new(); num_cores],
            versions: vec![HashMap::new(); num_cores],
            memory: HashMap::new(),
            latest: HashMap::new(),
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// The directory (for stats and invariant checks).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// State of `block` in `core`'s cache.
    pub fn state(&self, core: CoreId, block: BlockAddr) -> MoesiState {
        self.states[core.index()]
            .get(&block)
            .copied()
            .unwrap_or_default()
    }

    /// The version a load by `core` would observe right now (must equal
    /// [`Self::latest_version`] for a correct protocol).
    pub fn load(&mut self, core: CoreId, block: BlockAddr) -> (u64, Transaction) {
        let st = self.state(core, block);
        if st.can_read() {
            let v = self.versions[core.index()][&block];
            return (v, Transaction::Hit);
        }
        let resp = self.directory.request(core, block, Request::GetS);
        let tx = self.apply_response(core, block, &resp);
        (self.versions[core.index()][&block], tx)
    }

    /// Perform a store by `core`; returns the transaction class.
    pub fn store(&mut self, core: CoreId, block: BlockAddr) -> Transaction {
        let st = self.state(core, block);
        let tx = if st.can_write() {
            // Silent E→M upgrade is local.
            self.states[core.index()].insert(block, MoesiState::Modified);
            Transaction::Hit
        } else {
            let had_data = st.can_read();
            let resp = self.directory.request(core, block, Request::GetM);
            let t = self.apply_response(core, block, &resp);
            if had_data && t == Transaction::MemoryFill {
                Transaction::Upgrade
            } else {
                t
            }
        };
        // The store creates a new version.
        let v = self.latest.entry(block).or_insert(0);
        *v += 1;
        self.versions[core.index()].insert(block, *v);
        tx
    }

    /// Evict `block` from `core`'s cache (capacity pressure).
    pub fn evict(&mut self, core: CoreId, block: BlockAddr) {
        let st = self.state(core, block);
        match st {
            MoesiState::Invalid => {}
            MoesiState::Shared => {
                self.directory.request(core, block, Request::PutS);
            }
            _ => {
                let resp = self.directory.request(
                    core,
                    block,
                    Request::PutM {
                        dirty: st.is_dirty(),
                    },
                );
                if resp.memory_writeback {
                    let v = self.versions[core.index()][&block];
                    self.memory.insert(block, v);
                }
            }
        }
        self.states[core.index()].remove(&block);
        self.versions[core.index()].remove(&block);
    }

    fn apply_response(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        resp: &crate::directory::Response,
    ) -> Transaction {
        // Fetch the data version from wherever the directory said.
        let (version, tx) = match resp.data {
            DataSource::Memory => (
                self.memory.get(&block).copied().unwrap_or(0),
                Transaction::MemoryFill,
            ),
            DataSource::Cache(owner) => {
                (self.versions[owner.index()][&block], Transaction::Forward)
            }
            DataSource::None => (
                self.versions[core.index()]
                    .get(&block)
                    .copied()
                    .unwrap_or(0),
                Transaction::Upgrade,
            ),
        };
        // Downgrades: M → O, E → S (copy retained).
        for c in resp.downgrade.iter() {
            let s = self.states[c.index()]
                .get_mut(&block)
                .expect("downgrade target holds block");
            *s = match *s {
                MoesiState::Modified => MoesiState::Owned,
                MoesiState::Exclusive => MoesiState::Shared,
                other => other,
            };
        }
        // Invalidations: copy dropped (dirty data travels with the forward).
        for c in resp.invalidate.iter() {
            self.states[c.index()].remove(&block);
            self.versions[c.index()].remove(&block);
        }
        self.states[core.index()].insert(block, resp.new_state);
        self.versions[core.index()].insert(block, version);
        tx
    }

    /// The globally latest version of `block` (0 if never written).
    pub fn latest_version(&self, block: BlockAddr) -> u64 {
        self.latest.get(&block).copied().unwrap_or(0)
    }

    /// The full cluster state (directory, per-core line states and data
    /// versions, memory image) for checkpointing. All maps are sorted by
    /// block so identical states produce byte-identical snapshots.
    pub fn snapshot(&self) -> ClusterState<'_> {
        fn sorted<T: Copy>(m: &HashMap<BlockAddr, T>) -> Vec<(BlockAddr, T)> {
            let mut v: Vec<(BlockAddr, T)> = m.iter().map(|(&b, &x)| (b, x)).collect();
            v.sort_unstable_by_key(|&(b, _)| b);
            v
        }
        ClusterState {
            directory: self.directory.snapshot(),
            states: self.states.iter().map(sorted).collect(),
            versions: self.versions.iter().map(sorted).collect(),
            memory: sorted(&self.memory),
            latest: sorted(&self.latest),
        }
    }

    /// Overwrite the cluster state from a [`CoherentCluster::snapshot`]
    /// taken on a cluster of the same core count. A core count mismatch is
    /// an error and leaves the cluster untouched.
    pub fn restore(&mut self, s: ClusterState<'_>) -> Result<(), String> {
        let ClusterState {
            directory,
            states,
            versions,
            memory,
            latest,
        } = s;
        for (name, n) in [("states", states.len()), ("versions", versions.len())] {
            if n != self.num_cores {
                return Err(format!("{name}: core count mismatch"));
            }
        }
        fn unsorted<T>(pairs: Vec<(BlockAddr, T)>) -> HashMap<BlockAddr, T> {
            pairs.into_iter().collect()
        }
        self.directory.restore(directory);
        self.states = states.into_iter().map(unsorted).collect();
        self.versions = versions.into_iter().map(unsorted).collect();
        self.memory = unsorted(memory);
        self.latest = unsorted(latest);
        Ok(())
    }

    /// Check all cross-cache invariants; returns a description on violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.directory.check_invariants()?;
        // Collect per-block holder states.
        let mut by_block: HashMap<BlockAddr, Vec<(CoreId, MoesiState)>> = HashMap::new();
        for (c, states) in self.states.iter().enumerate() {
            for (&b, &s) in states {
                by_block.entry(b).or_default().push((CoreId(c as u16), s));
            }
        }
        for (b, holders) in &by_block {
            let writable = holders.iter().filter(|(_, s)| s.can_write()).count();
            if writable > 1 {
                return Err(format!("{b:?}: multiple writable copies"));
            }
            if writable == 1 && holders.len() > 1 {
                return Err(format!("{b:?}: writable copy coexists with other copies"));
            }
            let owners = holders.iter().filter(|(_, s)| s.is_owner()).count();
            if owners > 1 {
                return Err(format!("{b:?}: multiple owners"));
            }
            // Every reader must hold the latest version: stale Shared copies
            // would have been invalidated by the writer's GetM.
            for (c, s) in holders {
                if s.can_read() {
                    let held = self.versions[c.index()][b];
                    if held != self.latest_version(*b) {
                        return Err(format!(
                            "{b:?}: {c} holds version {held}, latest is {}",
                            self.latest_version(*b)
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const B: BlockAddr = BlockAddr(7);

    #[test]
    fn single_core_read_write_hits() {
        let mut cl = CoherentCluster::new(2);
        let (v, tx) = cl.load(CoreId(0), B);
        assert_eq!(v, 0);
        assert_eq!(tx, Transaction::MemoryFill);
        // Exclusive → silent upgrade on store.
        assert_eq!(cl.store(CoreId(0), B), Transaction::Hit);
        let (v, tx) = cl.load(CoreId(0), B);
        assert_eq!(v, 1);
        assert_eq!(tx, Transaction::Hit);
    }

    #[test]
    fn reader_sees_writers_data_via_forward() {
        let mut cl = CoherentCluster::new(2);
        cl.store(CoreId(0), B);
        cl.store(CoreId(0), B);
        let (v, tx) = cl.load(CoreId(1), B);
        assert_eq!(v, 2, "reader observes the latest version");
        assert_eq!(tx, Transaction::Forward);
        assert_eq!(cl.state(CoreId(0), B), MoesiState::Owned);
        assert_eq!(cl.state(CoreId(1), B), MoesiState::Shared);
        cl.check_invariants().unwrap();
    }

    #[test]
    fn write_after_shared_invalidates_readers() {
        let mut cl = CoherentCluster::new(4);
        cl.store(CoreId(0), B);
        cl.load(CoreId(1), B);
        cl.load(CoreId(2), B);
        cl.store(CoreId(3), B);
        assert_eq!(cl.state(CoreId(0), B), MoesiState::Invalid);
        assert_eq!(cl.state(CoreId(1), B), MoesiState::Invalid);
        assert_eq!(cl.state(CoreId(2), B), MoesiState::Invalid);
        assert_eq!(cl.state(CoreId(3), B), MoesiState::Modified);
        cl.check_invariants().unwrap();
    }

    #[test]
    fn upgrade_from_shared_is_not_a_fill() {
        let mut cl = CoherentCluster::new(2);
        cl.store(CoreId(0), B);
        cl.load(CoreId(1), B);
        // Core 1 has a Shared copy; its store is an upgrade.
        let tx = cl.store(CoreId(1), B);
        assert_eq!(tx, Transaction::Upgrade);
        cl.check_invariants().unwrap();
    }

    #[test]
    fn dirty_eviction_reaches_memory() {
        let mut cl = CoherentCluster::new(2);
        cl.store(CoreId(0), B);
        cl.evict(CoreId(0), B);
        // Data must now come from memory with the stored version.
        let (v, tx) = cl.load(CoreId(1), B);
        assert_eq!(v, 1);
        assert_eq!(tx, Transaction::MemoryFill);
    }

    #[test]
    fn owned_eviction_preserves_value_for_sharers() {
        let mut cl = CoherentCluster::new(2);
        cl.store(CoreId(0), B);
        cl.load(CoreId(1), B); // core0 → Owned
        cl.evict(CoreId(0), B); // O eviction writes back
        let (v, _) = cl.load(CoreId(1), B);
        assert_eq!(v, 1);
        cl.check_invariants().unwrap();
    }

    #[test]
    fn clean_eviction_is_silent_to_memory() {
        let mut cl = CoherentCluster::new(2);
        cl.load(CoreId(0), B); // Exclusive, clean
        cl.evict(CoreId(0), B);
        assert_eq!(cl.directory().stats().writebacks, 0);
    }

    /// Random operation fuzzing: after every operation, every invariant
    /// holds and every load observes the latest version.
    #[derive(Clone, Debug)]
    enum Op {
        Load(u16, u8),
        Store(u16, u8),
        Evict(u16, u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u16..4, 0u8..6).prop_map(|(c, b)| Op::Load(c, b)),
            (0u16..4, 0u8..6).prop_map(|(c, b)| Op::Store(c, b)),
            (0u16..4, 0u8..6).prop_map(|(c, b)| Op::Evict(c, b)),
        ]
    }

    proptest! {
        #[test]
        fn protocol_is_coherent_under_fuzzing(ops in proptest::collection::vec(op_strategy(), 1..300)) {
            let mut cl = CoherentCluster::new(4);
            for op in ops {
                match op {
                    Op::Load(c, b) => {
                        let block = BlockAddr(b as u64);
                        let (v, _) = cl.load(CoreId(c), block);
                        prop_assert_eq!(v, cl.latest_version(block), "stale read");
                    }
                    Op::Store(c, b) => {
                        cl.store(CoreId(c), BlockAddr(b as u64));
                    }
                    Op::Evict(c, b) => {
                        cl.evict(CoreId(c), BlockAddr(b as u64));
                    }
                }
                if let Err(e) = cl.check_invariants() {
                    return Err(TestCaseError::fail(e));
                }
            }
        }
    }
}
