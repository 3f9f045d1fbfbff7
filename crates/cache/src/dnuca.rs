//! The 16-bank DNUCA last-level cache.
//!
//! [`DnucaL2`] composes sixteen [`CacheBank`]s and operates in one of three
//! modes:
//!
//! * [`L2Mode::SharedDnuca`] — the *No-partitions* baseline: misses
//!   allocate into the requester's closest bank, victims demote down their
//!   owner's distance-ordered chain, and remote hits migrate closer. This
//!   is the locality-greedy behaviour of a real shared DNUCA — and the
//!   source of the destructive interference the paper partitions against.
//! * [`L2Mode::SharedStatic`] — an address-hashed S-NUCA (one home bank per
//!   block, no migration), kept as an ablation baseline.
//! * [`L2Mode::Partitioned`] — a [`PartitionPlan`] is in force: each core
//!   allocates only into its own ways, lines move between a partition's
//!   banks according to the configured [`AggregationScheme`] (promotion on
//!   deep hits, demotion on evictions — the cascade behaviour of Fig. 4),
//!   and migration/lookup counts are recorded for the aggregation ablation.
//!
//! Bank selection always keys on the address bits *above* the set index so
//! that hashing never starves sets within a bank.
//!
//! The model is functional: it reports which bank serviced an access and
//! what traffic (probes, migrations, write-backs) occurred; `bap-system`
//! turns that into cycles using the NUCA latency table and the contention
//! model.

use crate::aggregation::{AggregationScheme, Partition};
use crate::bank::{BankAccess, CacheBank};
use crate::plan::{PartitionPlan, PlanError};
use crate::set_assoc::{AccessKind, EvictedLine};
use bap_trace::{EventKind, Tracer};
use bap_types::stats::CacheStats;
use bap_types::{BankId, BankMask, BlockAddr, CacheGeometry, CoreId};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// The L2's checkpointed state ([`DnucaL2::snapshot`]).
#[derive(Serialize, Deserialize)]
pub struct DnucaState<'a> {
    banks: Cow<'a, [CacheBank]>,
    mode: L2Mode,
    partitions: Cow<'a, [Option<Partition>]>,
    plan: Cow<'a, Option<PartitionPlan>>,
    stats: Cow<'a, DnucaStats>,
    chains: Cow<'a, [Vec<BankId>]>,
    chain_limit: usize,
    lookup_isolation: bool,
    bank_mask: BankMask,
}

/// Operating mode of the L2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum L2Mode {
    /// The paper's *No-partitions* baseline: a shared DNUCA. Misses
    /// allocate into the requester's closest bank, evictions demote along
    /// the block owner's distance-ordered bank chain, and remote hits
    /// migrate one bank closer — so aggressive workloads flood the banks
    /// near them and destructively interfere with their neighbours, exactly
    /// the behaviour partitioning is designed to stop.
    SharedDnuca,
    /// A statically address-hashed shared cache (S-NUCA): one home bank per
    /// block, no migration, no placement interference beyond capacity.
    /// Kept as an ablation baseline.
    SharedStatic,
    /// A partition plan is in force with the given aggregation scheme.
    Partitioned(AggregationScheme),
}

/// Traffic counters for the whole L2.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DnucaStats {
    /// Per-core hit/miss counters.
    pub per_core: Vec<CacheStats>,
    /// Block moves between banks (promotions + demotions).
    pub migrations: u64,
    /// Demotions specifically (subset of migrations).
    pub demotions: u64,
    /// Bank tag lookups performed (power proxy: Parallel pays more here).
    pub bank_probes: u64,
    /// Hits found outside the requesting core's current partition (stale
    /// blocks from an earlier epoch), serviced with a migration.
    pub remote_hits: u64,
    /// Dirty lines that left the L2 towards memory.
    pub writebacks: u64,
}

/// What one L2 access did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct L2AccessOutcome {
    /// Whether the block was found anywhere in the L2.
    pub hit: bool,
    /// The bank that serviced the request (hit bank, or the bank the miss
    /// was filled into) — determines the NUCA latency.
    pub bank: BankId,
    /// How many bank tag arrays were probed.
    pub banks_probed: u32,
    /// Dirty blocks pushed out to memory by this access.
    pub writebacks: Vec<BlockAddr>,
    /// Whether the access moved a block between banks.
    pub migrated: bool,
}

/// The banked DNUCA L2 cache.
#[derive(Clone, Debug)]
pub struct DnucaL2 {
    banks: Vec<CacheBank>,
    mode: L2Mode,
    /// Per-core runtime partitions (only in partitioned mode).
    partitions: Vec<Option<Partition>>,
    plan: Option<PartitionPlan>,
    stats: DnucaStats,
    num_cores: usize,
    /// log2 of sets per bank: bank-select key = block >> this.
    set_bits: u32,
    /// Per-core distance-ordered bank chains (shared-DNUCA mode).
    chains: Vec<Vec<BankId>>,
    /// Strict lookup isolation (partitioned mode): when set, lookups only
    /// search the core's own partition — blocks stranded outside it by a
    /// repartition count as misses instead of being migrated in. This is
    /// the literal reading of §III-B ("only cache-ways that belong to a
    /// specific core ... can be accessed").
    lookup_isolation: bool,
    /// Deepest chain position a demoted block may occupy before leaving the
    /// cache (shared-DNUCA mode); defaults to the full chain.
    chain_limit: usize,
    /// Live bank health: plans are only installable against healthy banks.
    bank_mask: BankMask,
    /// Decision-trace handle (off by default; plan installs/rejections and
    /// bank transitions are emitted through it).
    tracer: Tracer,
}

impl DnucaL2 {
    /// Build an empty shared-mode L2 of `num_banks` banks with the given
    /// per-bank geometry and true-LRU replacement.
    pub fn new(num_banks: usize, bank_geom: CacheGeometry, num_cores: usize) -> Self {
        Self::with_policy(
            num_banks,
            bank_geom,
            num_cores,
            crate::replacement::Policy::TrueLru,
        )
    }

    /// As [`DnucaL2::new`], with an explicit per-bank replacement policy.
    pub fn with_policy(
        num_banks: usize,
        bank_geom: CacheGeometry,
        num_cores: usize,
        policy: crate::replacement::Policy,
    ) -> Self {
        let banks = (0..num_banks)
            .map(|b| CacheBank::with_policy(BankId(b as u16), bank_geom, num_cores, policy))
            .collect();
        let num_banks_u16 = num_banks as u16;
        DnucaL2 {
            banks,
            mode: L2Mode::SharedStatic,
            partitions: vec![None; num_cores],
            plan: None,
            stats: DnucaStats {
                per_core: vec![CacheStats::default(); num_cores],
                ..Default::default()
            },
            num_cores,
            set_bits: bank_geom.num_sets().trailing_zeros(),
            // Default chains: bank order (overridden by set_shared_dnuca).
            chains: (0..num_cores)
                .map(|_| (0..num_banks_u16).map(BankId).collect())
                .collect(),
            chain_limit: num_banks,
            lookup_isolation: false,
            bank_mask: BankMask::all_healthy(num_banks),
            tracer: Tracer::off(),
        }
    }

    /// Attach a trace handle; plan installs/rejections and bank offline/
    /// restore transitions are emitted through it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Enable or disable strict lookup isolation (see the field docs).
    pub fn set_lookup_isolation(&mut self, strict: bool) {
        self.lookup_isolation = strict;
    }

    /// Current mode.
    pub fn mode(&self) -> L2Mode {
        self.mode
    }

    /// The plan in force, if any.
    pub fn plan(&self) -> Option<&PartitionPlan> {
        self.plan.as_ref()
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// Immutable view of one bank.
    pub fn bank(&self, bank: BankId) -> &CacheBank {
        &self.banks[bank.index()]
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &DnucaStats {
        &self.stats
    }

    /// Reset statistics (epoch boundary); contents are untouched.
    pub fn reset_stats(&mut self) {
        self.stats = DnucaStats {
            per_core: vec![CacheStats::default(); self.num_cores],
            ..Default::default()
        };
        for b in &mut self.banks {
            b.reset_stats();
        }
    }

    /// Switch to the statically hashed shared mode (S-NUCA ablation
    /// baseline). Contents are kept; every way becomes allocatable by every
    /// core.
    pub fn set_shared_static(&mut self) {
        self.clear_partitions();
        self.mode = L2Mode::SharedStatic;
    }

    /// Switch to the shared-DNUCA (No-partitions) baseline. `topology`
    /// orders each core's bank chain by distance; `chain_limit` bounds how
    /// deep demoted blocks may travel before eviction (the full chain by
    /// default).
    pub fn set_shared_dnuca(&mut self, topology: &bap_types::Topology, chain_limit: usize) {
        assert_eq!(topology.num_banks(), self.banks.len());
        assert_eq!(topology.num_cores(), self.num_cores);
        assert!(chain_limit >= 1);
        self.clear_partitions();
        self.chains = (0..self.num_cores)
            .map(|c| {
                let core = CoreId(c as u16);
                let mut order: Vec<BankId> =
                    (0..self.banks.len()).map(|b| BankId(b as u16)).collect();
                order.sort_by_key(|&b| (topology.hops(core, b), b.index()));
                order
            })
            .collect();
        self.chain_limit = chain_limit.min(self.banks.len());
        self.mode = L2Mode::SharedDnuca;
    }

    fn clear_partitions(&mut self) {
        self.plan = None;
        self.partitions = vec![None; self.num_cores];
        for b in &mut self.banks {
            let ways = b.geometry().ways;
            b.set_way_owners(vec![bap_types::CoreSet::all(self.num_cores); ways]);
        }
    }

    /// Apply a partition plan (validated) with the given aggregation scheme.
    /// Bank way-owner masks are rewritten; resident lines stay put and age
    /// out naturally. Panics on an invalid plan — the fault-tolerant
    /// installation path is [`DnucaL2::try_apply_plan`].
    pub fn apply_plan(&mut self, plan: PartitionPlan, scheme: AggregationScheme) {
        self.try_apply_plan(plan, scheme)
            .expect("partition plan must be valid");
    }

    /// Validate `plan` against the plan's own structure *and* the live bank
    /// mask, then install it. The check happens entirely before any state
    /// is touched, so a rejected plan leaves the cache exactly as it was
    /// (atomic install). On success behaves exactly like
    /// [`DnucaL2::apply_plan`].
    pub fn try_apply_plan(
        &mut self,
        plan: PartitionPlan,
        scheme: AggregationScheme,
    ) -> Result<(), PlanError> {
        let reject = |tracer: &Tracer, e: PlanError| {
            tracer.emit(|| EventKind::PlanRejected {
                error: e.to_string(),
            });
            Err(e)
        };
        if let Err(e) = plan.validate_against_mask(&self.bank_mask) {
            return reject(&self.tracer, e);
        }
        if plan.num_banks != self.banks.len() || plan.num_cores() != self.num_cores {
            return reject(
                &self.tracer,
                PlanError::GeometryMismatch {
                    plan_banks: plan.num_banks,
                    cache_banks: self.banks.len(),
                    plan_cores: plan.num_cores(),
                    cache_cores: self.num_cores,
                },
            );
        }
        // Derive every bank's owner masks *before* touching any bank, so a
        // plan rejected here leaves the cache untouched (atomic install).
        let mut owners = Vec::with_capacity(self.banks.len());
        for b in 0..self.banks.len() {
            match plan.try_way_owners(BankId(b as u16)) {
                Ok(o) => owners.push(o),
                Err(e) => return reject(&self.tracer, e),
            }
        }
        for (b, o) in owners.into_iter().enumerate() {
            self.banks[b].set_way_owners(o);
        }
        self.partitions = (0..self.num_cores)
            .map(|c| Some(Partition::from_plan(&plan, CoreId(c as u16), scheme)))
            .collect();
        self.tracer.emit(|| EventKind::PlanInstalled {
            ways: (0..self.num_cores)
                .map(|c| plan.ways_of(CoreId(c as u16)))
                .collect(),
            total_ways: plan.total_ways_used(),
        });
        self.plan = Some(plan);
        self.mode = L2Mode::Partitioned(scheme);
        if self.lookup_isolation {
            // Strict isolation cannot reach stranded blocks, so leaving
            // them resident would create stale duplicates on refill: flush
            // every line whose owner lost its ways in that bank.
            for b in 0..self.banks.len() {
                for ev in self.banks[b].flush_disowned() {
                    self.evict_out_counted(ev);
                }
            }
        }
        Ok(())
    }

    /// The live bank-health mask.
    pub fn bank_mask(&self) -> &BankMask {
        &self.bank_mask
    }

    /// Take `bank` offline: every resident line is flushed (stranded data
    /// is unreachable on dead hardware; dirty lines are returned for
    /// write-back accounting) and its ways are disowned so no plan touching
    /// it can be installed until [`DnucaL2::restore_bank`]. Returns the
    /// dirty blocks that must go to memory.
    ///
    /// In partitioned mode the caller must install a mask-valid plan before
    /// the next access: partitions of the old plan may still route fills
    /// into the dead bank.
    ///
    /// A bank index beyond the machine is a typed error, not an abort —
    /// fault campaigns and crash-recovery drive this path with externally
    /// supplied bank ids.
    pub fn take_bank_offline(&mut self, bank: BankId) -> Result<Vec<BlockAddr>, PlanError> {
        if bank.index() >= self.banks.len() {
            return Err(PlanError::UnknownBank {
                bank,
                num_banks: self.banks.len(),
            });
        }
        self.bank_mask.disable(bank);
        let ways = self.banks[bank.index()].geometry().ways;
        self.banks[bank.index()].set_way_owners(vec![bap_types::CoreSet::EMPTY; ways]);
        let flushed = self.banks[bank.index()].flush_disowned();
        let total = flushed.len();
        let mut dirty = Vec::new();
        for ev in flushed {
            if ev.dirty {
                self.stats.writebacks += 1;
                dirty.push(ev.block);
            }
        }
        self.tracer.emit(|| EventKind::BankOffline {
            bank: bank.index(),
            flushed: total,
        });
        Ok(dirty)
    }

    /// Bring `bank` back online. Its ways stay disowned until the next plan
    /// installation (or mode switch) reassigns them, so restored capacity
    /// becomes usable at the next repartition — never mid-epoch.
    ///
    /// An unknown bank is a typed error, mirroring
    /// [`DnucaL2::take_bank_offline`].
    pub fn restore_bank(&mut self, bank: BankId) -> Result<(), PlanError> {
        if bank.index() >= self.banks.len() {
            return Err(PlanError::UnknownBank {
                bank,
                num_banks: self.banks.len(),
            });
        }
        self.bank_mask.enable(bank);
        self.tracer
            .emit(|| EventKind::BankRestored { bank: bank.index() });
        if !matches!(self.mode, L2Mode::Partitioned(_)) {
            // Shared modes have no plan to wait for: reopen the ways now.
            let ways = self.banks[bank.index()].geometry().ways;
            self.banks[bank.index()]
                .set_way_owners(vec![bap_types::CoreSet::all(self.num_cores); ways]);
        }
        Ok(())
    }

    fn evict_out_counted(&mut self, ev: EvictedLine<()>) {
        if ev.dirty {
            self.stats.writebacks += 1;
        }
    }

    /// The full L2 state (bank contents, mode, partitions, plan, chains,
    /// mask, counters) for checkpointing. The tracer handle is not part of
    /// the state; restore keeps whatever tracer is attached.
    pub fn snapshot(&self) -> DnucaState<'_> {
        DnucaState {
            banks: Cow::Borrowed(&self.banks),
            mode: self.mode,
            partitions: Cow::Borrowed(&self.partitions),
            plan: Cow::Borrowed(&self.plan),
            stats: Cow::Borrowed(&self.stats),
            chains: Cow::Borrowed(&self.chains),
            chain_limit: self.chain_limit,
            lookup_isolation: self.lookup_isolation,
            bank_mask: self.bank_mask,
        }
    }

    /// Overwrite the L2 state from a [`DnucaL2::snapshot`] taken on an
    /// identically-configured cache. A bank or core count mismatch is an
    /// error and leaves the cache untouched.
    pub fn restore(&mut self, s: DnucaState<'_>) -> Result<(), String> {
        let DnucaState {
            banks,
            mode,
            partitions,
            plan,
            stats,
            chains,
            chain_limit,
            lookup_isolation,
            bank_mask,
        } = s;
        if banks.len() != self.banks.len() {
            return Err("L2 bank count mismatch".to_string());
        }
        if partitions.len() != self.num_cores {
            return Err("L2 core count mismatch".to_string());
        }
        self.banks = banks.into_owned();
        self.mode = mode;
        self.partitions = partitions.into_owned();
        self.plan = plan.into_owned();
        self.stats = stats.into_owned();
        self.chains = chains.into_owned();
        self.chain_limit = chain_limit;
        self.lookup_isolation = lookup_isolation;
        self.bank_mask = bank_mask;
        Ok(())
    }

    /// The key used for bank selection: address bits above the set index.
    #[inline]
    fn bank_key(&self, block: BlockAddr) -> u64 {
        block.0 >> self.set_bits
    }

    /// Access the L2 on behalf of `core`.
    pub fn access(&mut self, block: BlockAddr, core: CoreId, kind: AccessKind) -> L2AccessOutcome {
        match self.mode {
            L2Mode::SharedDnuca => self.access_shared_dnuca(block, core, kind),
            L2Mode::SharedStatic => self.access_shared_static(block, core, kind),
            L2Mode::Partitioned(scheme) => self.access_partitioned(block, core, kind, scheme),
        }
    }

    /// Shared-DNUCA access: probe the requester's chain; promote remote
    /// hits one bank closer (a swap); on a miss fill the requester's
    /// closest bank and cascade the displaced line down its *owner's*
    /// chain.
    fn access_shared_dnuca(
        &mut self,
        block: BlockAddr,
        core: CoreId,
        kind: AccessKind,
    ) -> L2AccessOutcome {
        let chain = self.chains[core.index()].clone();
        let mut found: Option<(usize, BankId)> = None;
        let mut probed = 0u32;
        for (pos, &b) in chain.iter().enumerate() {
            probed += 1;
            if self.banks[b.index()].probe(block) {
                found = Some((pos, b));
                break;
            }
        }
        self.stats.bank_probes += probed as u64;
        let mut writebacks = Vec::new();

        match found {
            Some((0, bank)) => {
                self.banks[bank.index()].access(block, core, kind);
                self.stats.per_core[core.index()].record(true);
                L2AccessOutcome {
                    hit: true,
                    bank,
                    banks_probed: probed,
                    writebacks,
                    migrated: false,
                }
            }
            Some((pos, bank)) => {
                // Remote hit: gradual promotion — swap the block with the
                // LRU line of the next-closer bank.
                let target = chain[pos - 1];
                let line = self.banks[bank.index()].invalidate(block).expect("probed");
                let dirty = line.dirty || kind == AccessKind::Write;
                let displaced =
                    self.banks[target.index()].fill_unrestricted(block, line.owner, dirty);
                self.banks[target.index()].access(block, core, kind);
                if let Some(d) = displaced {
                    // The displaced line takes the promoted block's old slot.
                    self.banks[bank.index()].fill_unrestricted(d.block, d.owner, d.dirty);
                    self.stats.migrations += 1;
                }
                self.stats.migrations += 1;
                self.stats.per_core[core.index()].record(true);
                L2AccessOutcome {
                    hit: true,
                    bank,
                    banks_probed: probed,
                    writebacks,
                    migrated: true,
                }
            }
            None => {
                // Miss: allocate in the requester's closest bank; the
                // victim demotes one step down its own owner's chain,
                // cascading until a slot frees up or the chain limit drops
                // it out of the cache.
                let fill_bank = chain[0];
                let dirty = kind == AccessKind::Write;
                let mut pending = self.banks[fill_bank.index()]
                    .fill_unrestricted(block, core, dirty)
                    .map(|ev| (ev, fill_bank));
                let mut hops = 0usize;
                while let Some((ev, from)) = pending.take() {
                    hops += 1;
                    if hops > self.banks.len() {
                        self.evict_out(ev, &mut writebacks);
                        break;
                    }
                    // The victim demotes one step down its *owner's* chain
                    // from the bank it was just displaced out of.
                    let owner_chain = &self.chains[ev.owner.index()];
                    let cur_pos = owner_chain
                        .iter()
                        .position(|&b| b == from)
                        .expect("chains cover every bank");
                    let next_pos = cur_pos + 1;
                    if next_pos >= self.chain_limit {
                        self.evict_out(ev, &mut writebacks);
                        break;
                    }
                    let target = owner_chain[next_pos];
                    self.stats.migrations += 1;
                    self.stats.demotions += 1;
                    pending = self.banks[target.index()]
                        .fill_unrestricted(ev.block, ev.owner, ev.dirty)
                        .map(|next_ev| (next_ev, target));
                }
                self.banks[fill_bank.index()].access(block, core, kind);
                self.stats.per_core[core.index()].record(false);
                L2AccessOutcome {
                    hit: false,
                    bank: fill_bank,
                    banks_probed: probed,
                    writebacks,
                    migrated: false,
                }
            }
        }
    }

    fn access_shared_static(
        &mut self,
        block: BlockAddr,
        core: CoreId,
        kind: AccessKind,
    ) -> L2AccessOutcome {
        let bank = BankId((self.bank_key(block) % self.banks.len() as u64) as u16);
        self.stats.bank_probes += 1;
        let hit = self.banks[bank.index()].access(block, core, kind) == BankAccess::Hit;
        let mut writebacks = Vec::new();
        let mut migrated = false;
        let mut probed = 1u32;
        if !hit {
            // A mode switch may have stranded the block in another bank;
            // migrate it home rather than creating a stale duplicate.
            let mut stranded = None;
            for i in 0..self.banks.len() {
                if i == bank.index() {
                    continue;
                }
                probed += 1;
                if self.banks[i].probe(block) {
                    stranded = self.banks[i].invalidate(block);
                    break;
                }
            }
            let (dirty, is_hit) = match &stranded {
                Some(line) => {
                    self.stats.remote_hits += 1;
                    self.stats.migrations += 1;
                    migrated = true;
                    (line.dirty || kind == AccessKind::Write, true)
                }
                None => (kind == AccessKind::Write, false),
            };
            if let Some(ev) = self.banks[bank.index()].fill_unrestricted(block, core, dirty) {
                if ev.dirty {
                    self.stats.writebacks += 1;
                    writebacks.push(ev.block);
                }
            }
            self.stats.per_core[core.index()].record(is_hit);
            return L2AccessOutcome {
                hit: is_hit,
                bank,
                banks_probed: probed,
                writebacks,
                migrated,
            };
        }
        self.stats.per_core[core.index()].record(true);
        L2AccessOutcome {
            hit,
            bank,
            banks_probed: probed,
            writebacks,
            migrated,
        }
    }

    fn access_partitioned(
        &mut self,
        block: BlockAddr,
        core: CoreId,
        kind: AccessKind,
        scheme: AggregationScheme,
    ) -> L2AccessOutcome {
        let key = self.bank_key(block);
        let part = self.partitions[core.index()]
            .as_ref()
            .expect("partition exists");
        let depth = part.depth();

        // 1. Search the partition, level by level.
        let mut probed = 0u32;
        let mut found: Option<(usize, BankId)> = None;
        'search: for (li, level) in part.levels.iter().enumerate() {
            for b in level.lookup_banks(scheme, key) {
                probed += 1;
                if self.banks[b.index()].probe(block) {
                    found = Some((li, b));
                    break 'search;
                }
            }
        }

        // 2. Fall back to a global directory probe for blocks stranded by a
        //    repartition (DNUCA migration services these) — unless strict
        //    isolation forbids touching other partitions.
        let mut remote = false;
        if found.is_none() && !self.lookup_isolation {
            let in_part: Vec<BankId> = part.all_banks().collect();
            for b in 0..self.banks.len() {
                let bid = BankId(b as u16);
                if in_part.contains(&bid) {
                    continue;
                }
                probed += 1;
                if self.banks[b].probe(block) {
                    found = Some((usize::MAX, bid));
                    remote = true;
                    break;
                }
            }
        }
        self.stats.bank_probes += probed as u64;

        let mut writebacks = Vec::new();

        match found {
            Some((level, bank)) if level == 0 && !remote => {
                // Plain hit in the head level.
                self.banks[bank.index()].access(block, core, kind);
                self.stats.per_core[core.index()].record(true);
                L2AccessOutcome {
                    hit: true,
                    bank,
                    banks_probed: probed,
                    writebacks,
                    migrated: false,
                }
            }
            Some((_, bank)) => {
                // Hit deeper in the chain (or outside the partition):
                // promote the block to the head level, demoting as needed.
                let line = self.banks[bank.index()]
                    .invalidate(block)
                    .expect("probed line");
                let dirty = line.dirty || kind == AccessKind::Write;
                if remote {
                    self.stats.remote_hits += 1;
                }
                self.stats.migrations += 1;
                self.record_hit_and_fill(block, core, dirty, scheme, key, depth, &mut writebacks);
                self.stats.per_core[core.index()].record(true);
                L2AccessOutcome {
                    hit: true,
                    bank,
                    banks_probed: probed,
                    writebacks,
                    migrated: true,
                }
            }
            None => {
                // Miss: fill into the head level.
                let dirty = kind == AccessKind::Write;
                let fill_bank = self.record_hit_and_fill(
                    block,
                    core,
                    dirty,
                    scheme,
                    key,
                    depth,
                    &mut writebacks,
                );
                self.stats.per_core[core.index()].record(false);
                self.banks[fill_bank.index()].access(block, core, kind);
                L2AccessOutcome {
                    hit: false,
                    bank: fill_bank,
                    banks_probed: probed,
                    writebacks,
                    migrated: false,
                }
            }
        }
    }

    /// Fill `block` into the head level of `core`'s partition, cascading
    /// evictions down the levels. Returns the bank filled.
    #[allow(clippy::too_many_arguments)] // internal fill-path plumbing
    fn record_hit_and_fill(
        &mut self,
        block: BlockAddr,
        core: CoreId,
        dirty: bool,
        scheme: AggregationScheme,
        key: u64,
        depth: usize,
        writebacks: &mut Vec<BlockAddr>,
    ) -> BankId {
        let part = self.partitions[core.index()]
            .as_mut()
            .expect("partition exists");
        let fill_bank = part.levels[0].allocation_bank(scheme, key);
        let mut evicted = self.banks[fill_bank.index()].fill(block, core, dirty);
        // Demote the chain: eviction from level i lands in level i+1.
        let mut level = 1usize;
        while let Some(ev) = evicted.take() {
            if level >= depth {
                self.evict_out(ev, writebacks);
                break;
            }
            let ev_key = self.bank_key_of(ev.block);
            let part = self.partitions[core.index()]
                .as_mut()
                .expect("partition exists");
            let target = part.levels[level].allocation_bank(scheme, ev_key);
            let owner = ev.owner;
            if !self.banks[target.index()].allows(owner) {
                // The original owner lost its ways here (stale line across a
                // repartition); push it out instead of demoting.
                self.evict_out(ev, writebacks);
                break;
            }
            self.stats.migrations += 1;
            self.stats.demotions += 1;
            evicted = self.banks[target.index()].fill(ev.block, owner, ev.dirty);
            level += 1;
        }
        fill_bank
    }

    #[inline]
    fn bank_key_of(&self, block: BlockAddr) -> u64 {
        block.0 >> self.set_bits
    }

    fn evict_out(&mut self, ev: EvictedLine<()>, writebacks: &mut Vec<BlockAddr>) {
        if ev.dirty {
            self.stats.writebacks += 1;
            writebacks.push(ev.block);
        }
    }

    /// Coherence invalidation: remove the block wherever it is. Returns
    /// whether it was dirty.
    pub fn invalidate_block(&mut self, block: BlockAddr) -> Option<bool> {
        for b in &mut self.banks {
            if let Some(ev) = b.invalidate(block) {
                return Some(ev.dirty);
            }
        }
        None
    }

    /// Total resident lines across banks.
    pub fn occupancy(&self) -> usize {
        self.banks.iter().map(|b| b.occupancy()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::BankAllocation;
    use bap_types::CacheGeometry;

    /// 4 banks × 4 sets × 4 ways, 2 cores — small enough to reason about.
    fn l2() -> DnucaL2 {
        DnucaL2::new(4, CacheGeometry::new(4 * 4 * 64, 4, 64), 2)
    }

    fn plan_two_cores() -> PartitionPlan {
        let mut p = PartitionPlan::empty(2, 4, 4);
        // Core 0: full banks 0 and 2; core 1: full bank 1 plus 2 ways of 3.
        p.per_core[0] = vec![
            BankAllocation {
                bank: BankId(0),
                ways: 4,
            },
            BankAllocation {
                bank: BankId(2),
                ways: 4,
            },
        ];
        p.per_core[1] = vec![
            BankAllocation {
                bank: BankId(1),
                ways: 4,
            },
            BankAllocation {
                bank: BankId(3),
                ways: 2,
            },
        ];
        p
    }

    #[test]
    fn shared_mode_hits_after_fill() {
        let mut l2 = l2();
        let b = BlockAddr(0x123);
        let first = l2.access(b, CoreId(0), AccessKind::Read);
        assert!(!first.hit);
        let second = l2.access(b, CoreId(0), AccessKind::Read);
        assert!(second.hit);
        assert_eq!(second.bank, first.bank);
        assert_eq!(l2.stats().per_core[0].hits, 1);
        assert_eq!(l2.stats().per_core[0].misses, 1);
    }

    #[test]
    fn shared_mode_spreads_over_banks() {
        let mut l2 = l2();
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            // Vary the bits above the set index (4 sets → shift 2).
            let out = l2.access(BlockAddr(i << 2), CoreId(0), AccessKind::Read);
            seen.insert(out.bank);
        }
        assert_eq!(seen.len(), 4, "all banks used by the shared hash");
    }

    #[test]
    fn partitioned_cores_cannot_evict_each_other() {
        let mut l2 = l2();
        l2.apply_plan(plan_two_cores(), AggregationScheme::Parallel);
        // Core 1 installs one block, then core 0 streams far more than its
        // capacity. Core 1's block must survive.
        let victim = BlockAddr(0x9000);
        l2.access(victim, CoreId(1), AccessKind::Read);
        for i in 0..200u64 {
            l2.access(BlockAddr(i << 2), CoreId(0), AccessKind::Read);
        }
        let outcome = l2.access(victim, CoreId(1), AccessKind::Read);
        assert!(outcome.hit, "core1's block survived core0's streaming");
    }

    #[test]
    fn partitioned_miss_fills_head_level() {
        let mut l2 = l2();
        l2.apply_plan(plan_two_cores(), AggregationScheme::Parallel);
        let out = l2.access(BlockAddr(0x40), CoreId(0), AccessKind::Read);
        assert!(!out.hit);
        assert!(out.bank == BankId(0) || out.bank == BankId(2));
    }

    #[test]
    fn two_level_partition_demotes_and_promotes() {
        let mut l2 = l2();
        l2.apply_plan(plan_two_cores(), AggregationScheme::Parallel);
        // Core 1's head level is bank 1 (4 ways × 4 sets = 16 blocks);
        // level 2 is 2 ways of bank 3. Fill enough same-set blocks to force
        // demotions: blocks with set index 0 in bank-1 terms.
        let mk = |i: u64| BlockAddr(i << 2); // set 0, varying tag
        for i in 0..6 {
            l2.access(mk(i), CoreId(1), AccessKind::Read);
        }
        // 6 blocks through a 4-way set: 2 demotions into bank 3.
        assert!(
            l2.stats().demotions >= 2,
            "demotions: {}",
            l2.stats().demotions
        );
        // The demoted (oldest) block should still hit — found in level 2 and
        // promoted back (a migration).
        let before = l2.stats().migrations;
        let out = l2.access(mk(0), CoreId(1), AccessKind::Read);
        assert!(out.hit, "demoted block still resident in level 2");
        assert!(out.migrated);
        assert!(l2.stats().migrations > before);
    }

    #[test]
    fn cascade_has_more_migrations_than_hash() {
        let run = |scheme: AggregationScheme| -> u64 {
            let mut l2 = l2();
            let mut p = PartitionPlan::empty(2, 4, 4);
            p.per_core[0] = vec![
                BankAllocation {
                    bank: BankId(0),
                    ways: 4,
                },
                BankAllocation {
                    bank: BankId(2),
                    ways: 4,
                },
            ];
            p.per_core[1] = vec![BankAllocation {
                bank: BankId(1),
                ways: 4,
            }];
            l2.apply_plan(p, scheme);
            // A working set larger than one bank, re-walked repeatedly.
            for _round in 0..10 {
                for i in 0..24u64 {
                    l2.access(BlockAddr(i << 2), CoreId(0), AccessKind::Read);
                }
            }
            l2.stats().migrations
        };
        let cascade = run(AggregationScheme::Cascade);
        let hash = run(AggregationScheme::AddressHash);
        assert!(
            cascade > hash,
            "cascade migrations ({cascade}) must exceed address-hash ({hash})"
        );
    }

    #[test]
    fn address_hash_probes_one_bank_per_level() {
        let mut l2 = l2();
        let mut p = PartitionPlan::empty(2, 4, 4);
        p.per_core[0] = vec![
            BankAllocation {
                bank: BankId(0),
                ways: 4,
            },
            BankAllocation {
                bank: BankId(2),
                ways: 4,
            },
        ];
        p.per_core[1] = vec![BankAllocation {
            bank: BankId(1),
            ways: 4,
        }];
        l2.apply_plan(p, AggregationScheme::AddressHash);
        let b = BlockAddr(0x40);
        l2.access(b, CoreId(0), AccessKind::Read); // miss: 1 partition probe + 3 global
        let probes_first = l2.stats().bank_probes;
        let out = l2.access(b, CoreId(0), AccessKind::Read); // hit: exactly 1 probe
        assert!(out.hit);
        assert_eq!(out.banks_probed, 1);
        assert_eq!(l2.stats().bank_probes, probes_first + 1);
    }

    #[test]
    fn strict_isolation_forfeits_stranded_blocks() {
        let mut l2 = l2();
        l2.set_lookup_isolation(true);
        l2.apply_plan(plan_two_cores(), AggregationScheme::Parallel);
        let b = BlockAddr(0x40);
        l2.access(b, CoreId(0), AccessKind::Read);
        // Swap the cores' banks: the block is now outside core 0's
        // partition and, under strict isolation, unreachable.
        let mut p = PartitionPlan::empty(2, 4, 4);
        p.per_core[0] = vec![
            BankAllocation {
                bank: BankId(1),
                ways: 4,
            },
            BankAllocation {
                bank: BankId(3),
                ways: 4,
            },
        ];
        p.per_core[1] = vec![
            BankAllocation {
                bank: BankId(0),
                ways: 4,
            },
            BankAllocation {
                bank: BankId(2),
                ways: 4,
            },
        ];
        l2.apply_plan(p, AggregationScheme::Parallel);
        let out = l2.access(b, CoreId(0), AccessKind::Read);
        assert!(!out.hit, "strict isolation: stranded block is a miss");
        assert_eq!(l2.stats().remote_hits, 0);
        // The stranded copy was flushed at the repartition: no duplicate.
        let copies = (0..4).filter(|&i| l2.bank(BankId(i)).probe(b)).count();
        assert_eq!(copies, 1, "only the fresh fill is resident");
    }

    #[test]
    fn repartition_keeps_contents_hittable() {
        let mut l2 = l2();
        l2.apply_plan(plan_two_cores(), AggregationScheme::Parallel);
        let b = BlockAddr(0x40);
        l2.access(b, CoreId(0), AccessKind::Read);
        // Swap the two cores' banks.
        let mut p = PartitionPlan::empty(2, 4, 4);
        p.per_core[0] = vec![
            BankAllocation {
                bank: BankId(1),
                ways: 4,
            },
            BankAllocation {
                bank: BankId(3),
                ways: 4,
            },
        ];
        p.per_core[1] = vec![
            BankAllocation {
                bank: BankId(0),
                ways: 4,
            },
            BankAllocation {
                bank: BankId(2),
                ways: 4,
            },
        ];
        l2.apply_plan(p, AggregationScheme::Parallel);
        // The block is stranded outside core0's new partition: the global
        // probe finds it and migrates it in.
        let out = l2.access(b, CoreId(0), AccessKind::Read);
        assert!(out.hit);
        assert!(out.migrated);
        assert_eq!(l2.stats().remote_hits, 1);
        // Next access is a normal head-level hit.
        let out2 = l2.access(b, CoreId(0), AccessKind::Read);
        assert!(out2.hit);
        assert!(!out2.migrated);
    }

    #[test]
    fn dirty_evictions_produce_writebacks() {
        let mut l2 = l2();
        let mut p = PartitionPlan::empty(2, 4, 4);
        p.per_core[0] = vec![BankAllocation {
            bank: BankId(0),
            ways: 4,
        }];
        p.per_core[1] = vec![BankAllocation {
            bank: BankId(1),
            ways: 4,
        }];
        l2.apply_plan(p, AggregationScheme::Parallel);
        // Fill set 0 of bank 0 with dirty blocks, then overflow it.
        for i in 0..5u64 {
            l2.access(BlockAddr(i << 2), CoreId(0), AccessKind::Write);
        }
        assert!(l2.stats().writebacks >= 1);
    }

    #[test]
    fn invalidate_block_finds_any_bank() {
        let mut l2 = l2();
        let b = BlockAddr(0x77);
        l2.access(b, CoreId(0), AccessKind::Write);
        assert_eq!(l2.invalidate_block(b), Some(true));
        assert_eq!(l2.invalidate_block(b), None);
        let out = l2.access(b, CoreId(0), AccessKind::Read);
        assert!(!out.hit);
    }

    #[test]
    fn occupancy_tracks_distinct_blocks() {
        let mut l2 = l2();
        for i in 0..10u64 {
            l2.access(BlockAddr(i), CoreId(0), AccessKind::Read);
        }
        assert_eq!(l2.occupancy(), 10);
    }

    fn dnuca_l2() -> DnucaL2 {
        let mut l2 = l2();
        // 2 cores over 4 banks: topology wants banks = 2 × cores.
        l2.set_shared_dnuca(&bap_types::Topology::new(2, 10, 70), 4);
        l2
    }

    #[test]
    fn shared_dnuca_allocates_in_local_bank() {
        let mut l2 = dnuca_l2();
        let out = l2.access(BlockAddr(0x123), CoreId(0), AccessKind::Read);
        assert!(!out.hit);
        assert_eq!(out.bank, BankId(0), "core 0's closest bank");
        let out1 = l2.access(BlockAddr(0x5123), CoreId(1), AccessKind::Read);
        assert_eq!(out1.bank, BankId(1), "core 1's closest bank");
    }

    #[test]
    fn shared_dnuca_demotes_down_the_chain() {
        let mut l2 = dnuca_l2();
        // Overflow set 0 of core 0's local bank (4 ways): the LRU victim
        // demotes into the next bank of core 0's chain instead of leaving.
        let mk = |i: u64| BlockAddr(i << 2);
        for i in 0..6 {
            l2.access(mk(i), CoreId(0), AccessKind::Read);
        }
        assert!(l2.stats().demotions >= 2);
        // The demoted block is still resident: deep hit with promotion.
        let out = l2.access(mk(0), CoreId(0), AccessKind::Read);
        assert!(out.hit, "demoted block survives in the chain");
        assert!(out.migrated, "remote hit promotes the block closer");
    }

    #[test]
    fn shared_dnuca_chain_limit_bounds_depth() {
        let mut l2 = l2();
        l2.set_shared_dnuca(&bap_types::Topology::new(2, 10, 70), 1);
        let mk = |i: u64| BlockAddr(i << 2);
        for i in 0..6 {
            l2.access(mk(i), CoreId(0), AccessKind::Read);
        }
        // chain_limit 1: victims leave the cache instead of demoting.
        assert_eq!(l2.stats().demotions, 0);
        assert!(!l2.access(mk(0), CoreId(0), AccessKind::Read).hit);
    }

    #[test]
    fn shared_dnuca_streams_interfere_destructively() {
        // Core 1 parks a small working set; core 0 streams heavily. In the
        // DNUCA baseline the stream's demotions flood the chain and evict
        // core 1's blocks — the interference the paper partitions against.
        let mut l2 = dnuca_l2();
        let victim = |i: u64| BlockAddr(0x9000 + (i << 2));
        for i in 0..4 {
            l2.access(victim(i), CoreId(1), AccessKind::Read);
        }
        for i in 0..2000u64 {
            l2.access(BlockAddr(i << 2), CoreId(0), AccessKind::Read);
        }
        let mut survivors = 0;
        for i in 0..4 {
            if l2.access(victim(i), CoreId(1), AccessKind::Read).hit {
                survivors += 1;
            }
        }
        assert!(
            survivors <= 2,
            "stream must have evicted most of core 1's set"
        );
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut l2 = l2();
        let b = BlockAddr(0x5);
        l2.access(b, CoreId(0), AccessKind::Read);
        l2.reset_stats();
        assert_eq!(l2.stats().per_core[0].accesses(), 0);
        assert!(l2.access(b, CoreId(0), AccessKind::Read).hit);
    }

    /// Deterministic replay of the historical proptest regression
    /// (`proptest-regressions/dnuca.txt`): an access in shared-DNUCA mode,
    /// a switch to the statically-hashed mode, then the same access again.
    /// The static hash may home the block in a different bank than the
    /// DNUCA fill chose; the S-NUCA path must migrate the stranded copy
    /// home instead of creating a duplicate.
    #[test]
    fn mode_switch_does_not_duplicate_blocks() {
        let mut l2 = DnucaL2::new(4, CacheGeometry::new(4 * 4 * 64, 4, 64), 2);
        let topo = bap_types::Topology::new(2, 10, 70);
        l2.set_shared_dnuca(&topo, 4);
        let b = BlockAddr(446);
        l2.access(b, CoreId(0), AccessKind::Read);
        l2.set_shared_static();
        l2.access(b, CoreId(0), AccessKind::Read);
        let copies = (0..4).filter(|&i| l2.bank(BankId(i)).probe(b)).count();
        assert_eq!(copies, 1, "block resides in exactly one bank");
        assert_eq!(l2.stats().per_core[0].accesses(), 2, "hit+miss accounting");
    }

    #[test]
    fn offline_bank_flushes_contents_and_counts_dirty() {
        let mut l2 = l2();
        l2.apply_plan(plan_two_cores(), AggregationScheme::Parallel);
        // A dirty line in core 0's partition writes back on bank loss.
        let dirty = BlockAddr(0x40);
        l2.access(dirty, CoreId(0), AccessKind::Write);
        let home = (0..4u16)
            .map(BankId)
            .find(|&b| l2.bank(b).probe(dirty))
            .expect("block resident somewhere");
        let wbs = l2.take_bank_offline(home).unwrap();
        assert_eq!(wbs, vec![dirty], "the dirty line writes back");
        assert_eq!(l2.bank(home).occupancy(), 0, "bank fully flushed");
        assert!(!l2.bank_mask().is_healthy(home));
        // A clean line flushes silently: no writeback reported.
        let clean = BlockAddr(0x81);
        l2.access(clean, CoreId(1), AccessKind::Read);
        let home = (0..4u16)
            .map(BankId)
            .find(|&b| l2.bank(b).probe(clean))
            .expect("block resident somewhere");
        assert!(l2.take_bank_offline(home).unwrap().is_empty());
        assert_eq!(l2.bank(home).occupancy(), 0);
    }

    #[test]
    fn try_apply_plan_rejects_offline_banks_atomically() {
        let mut l2 = l2();
        let healthy_plan = plan_two_cores();
        l2.apply_plan(healthy_plan.clone(), AggregationScheme::Parallel);
        let owners_before: Vec<_> = (0..4)
            .map(|b| l2.bank(BankId(b)).way_owners().to_vec())
            .collect();
        l2.take_bank_offline(BankId(2)).unwrap();
        // Reinstalling the old plan must fail: it allocates bank 2.
        let err = l2
            .try_apply_plan(healthy_plan.clone(), AggregationScheme::Parallel)
            .unwrap_err();
        assert_eq!(
            err,
            crate::plan::PlanError::DisabledBank {
                core: 0,
                bank: BankId(2)
            }
        );
        // Atomicity: the rejected install changed nothing except the
        // offline bank's own (already disowned) ways.
        assert_eq!(l2.plan(), Some(&healthy_plan));
        for b in [0usize, 1, 3] {
            assert_eq!(
                l2.bank(BankId(b as u16)).way_owners(),
                &owners_before[b][..],
                "bank {b} untouched by the failed install"
            );
        }
        // A plan avoiding the dead bank installs fine.
        let mut p = PartitionPlan::empty(2, 4, 4);
        p.per_core[0] = vec![BankAllocation {
            bank: BankId(0),
            ways: 4,
        }];
        p.per_core[1] = vec![
            BankAllocation {
                bank: BankId(1),
                ways: 4,
            },
            BankAllocation {
                bank: BankId(3),
                ways: 4,
            },
        ];
        l2.try_apply_plan(p, AggregationScheme::Parallel).unwrap();
    }

    #[test]
    fn restore_bank_reopens_capacity_at_next_plan() {
        let mut l2 = l2();
        l2.apply_plan(plan_two_cores(), AggregationScheme::Parallel);
        l2.take_bank_offline(BankId(2)).unwrap();
        l2.restore_bank(BankId(2)).unwrap();
        assert!(l2.bank_mask().is_full());
        // Still disowned until a plan reassigns it.
        assert_eq!(l2.bank(BankId(2)).ways_of(CoreId(0)), 0);
        l2.apply_plan(plan_two_cores(), AggregationScheme::Parallel);
        assert_eq!(l2.bank(BankId(2)).ways_of(CoreId(0)), 4);
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use crate::plan::BankAllocation;
    use bap_types::CacheGeometry;
    use proptest::prelude::*;

    /// The invariants any mode must uphold after any access sequence and
    /// any interleaving of repartitions:
    ///   1. a block resides in at most one bank;
    ///   2. occupancy never exceeds capacity;
    ///   3. per-core hit+miss counts equal the accesses issued.
    fn check_block_uniqueness(l2: &DnucaL2, probes: &[BlockAddr]) -> Result<(), TestCaseError> {
        for &b in probes {
            let copies = (0..l2.num_banks())
                .filter(|&i| l2.bank(BankId(i as u16)).probe(b))
                .count();
            prop_assert!(copies <= 1, "block {b:?} in {copies} banks");
        }
        Ok(())
    }

    #[derive(Clone, Debug)]
    enum Action {
        Access { core: u16, block: u64, write: bool },
        Repartition { variant: u8 },
        SharedDnuca,
        SharedStatic,
    }

    fn action_strategy() -> impl Strategy<Value = Action> {
        prop_oneof![
            8 => (0u16..2, 0u64..512, any::<bool>())
                .prop_map(|(core, block, write)| Action::Access { core, block, write }),
            1 => (0u8..3).prop_map(|variant| Action::Repartition { variant }),
            1 => Just(Action::SharedDnuca),
            1 => Just(Action::SharedStatic),
        ]
    }

    fn plan_variant(variant: u8) -> PartitionPlan {
        let mut p = PartitionPlan::empty(2, 4, 4);
        match variant {
            0 => {
                p.per_core[0] = vec![
                    BankAllocation {
                        bank: BankId(0),
                        ways: 4,
                    },
                    BankAllocation {
                        bank: BankId(2),
                        ways: 4,
                    },
                ];
                p.per_core[1] = vec![
                    BankAllocation {
                        bank: BankId(1),
                        ways: 4,
                    },
                    BankAllocation {
                        bank: BankId(3),
                        ways: 4,
                    },
                ];
            }
            1 => {
                p.per_core[0] = vec![BankAllocation {
                    bank: BankId(0),
                    ways: 2,
                }];
                p.per_core[1] = vec![
                    BankAllocation {
                        bank: BankId(0),
                        ways: 2,
                    },
                    BankAllocation {
                        bank: BankId(1),
                        ways: 4,
                    },
                    BankAllocation {
                        bank: BankId(2),
                        ways: 4,
                    },
                    BankAllocation {
                        bank: BankId(3),
                        ways: 4,
                    },
                ];
            }
            _ => {
                p.per_core[0] = vec![
                    BankAllocation {
                        bank: BankId(0),
                        ways: 4,
                    },
                    BankAllocation {
                        bank: BankId(1),
                        ways: 4,
                    },
                    BankAllocation {
                        bank: BankId(2),
                        ways: 4,
                    },
                ];
                p.per_core[1] = vec![BankAllocation {
                    bank: BankId(3),
                    ways: 4,
                }];
            }
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn invariants_hold_across_modes_and_repartitions(
            actions in proptest::collection::vec(action_strategy(), 1..250)
        ) {
            let mut l2 = DnucaL2::new(4, CacheGeometry::new(4 * 4 * 64, 4, 64), 2);
            let topo = bap_types::Topology::new(2, 10, 70);
            l2.set_shared_dnuca(&topo, 4);
            let mut issued = [0u64; 2];
            let mut touched: Vec<BlockAddr> = Vec::new();
            for a in actions {
                match a {
                    Action::Access { core, block, write } => {
                        let kind = if write { AccessKind::Write } else { AccessKind::Read };
                        let b = BlockAddr(block);
                        l2.access(b, CoreId(core), kind);
                        issued[core as usize] += 1;
                        touched.push(b);
                    }
                    Action::Repartition { variant } => {
                        l2.apply_plan(plan_variant(variant), AggregationScheme::Parallel);
                    }
                    Action::SharedDnuca => l2.set_shared_dnuca(&topo, 4),
                    Action::SharedStatic => l2.set_shared_static(),
                }
                prop_assert!(l2.occupancy() <= 64, "occupancy {}", l2.occupancy());
            }
            check_block_uniqueness(&l2, &touched)?;
            for (core, &count) in issued.iter().enumerate() {
                prop_assert_eq!(
                    l2.stats().per_core[core].accesses(),
                    count,
                    "hit+miss accounting"
                );
            }
        }
    }
}
