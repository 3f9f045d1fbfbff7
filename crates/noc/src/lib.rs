//! On-chip network model for the CMP-DNUCA baseline.
//!
//! The paper's 10–70-cycle L2 bank access range (Table I) is the *wire*
//! component, captured by [`bap_types::Topology::latency`]. On top of that
//! this crate models the two contention points that a shared banked cache
//! actually queues on:
//!
//! * **bank ports** — each bank services one request per
//!   `bank_occupancy` cycles; concurrent requests to the same bank queue;
//! * **ring links** — requests traverse the links between their core's and
//!   the bank's positions on the core chain; each link carries one flit per
//!   `link_occupancy` cycles.
//!
//! The model is conservative (reservation-based, no adaptive routing) but
//! deterministic and cheap: one `max` per link plus one per bank port.

pub mod stats;

pub use stats::NocStats;

use bap_types::topology::Floorplan;
use bap_types::{BankId, BankKind, BankRegulator, CoreId, Cycle, RegulatorConfig, Topology};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;

/// A grid point of the mesh floorplan.
type GridPoint = (i64, i64);
/// An undirected grid edge (canonical order).
type GridEdge = (GridPoint, GridPoint);

/// Latency decomposition of one L2 request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NocLatency {
    /// Uncontended wire + bank-access latency (10–70 cycles).
    pub wire: u64,
    /// Extra cycles spent queued on links and at the bank port.
    pub queued: u64,
}

impl NocLatency {
    /// Total round-trip latency.
    pub fn total(&self) -> u64 {
        self.wire + self.queued
    }
}

/// The interconnect + bank-port contention model.
#[derive(Clone, Debug)]
pub struct NocModel {
    topology: Topology,
    /// Cycles a bank port is busy per access.
    bank_occupancy: u64,
    /// Cycles a link is busy per flit.
    link_occupancy: u64,
    /// Maximum queuing delay any single request can absorb (finite queue
    /// depth; also bounds the artefact of cross-core clock skew in the
    /// frontier-based simulation).
    max_queue: u64,
    /// Next free cycle per bank port.
    bank_free_at: Vec<Cycle>,
    /// Next free cycle per chain link (`num_cores − 1` links; chain model).
    link_free_at: Vec<Cycle>,
    /// Next free cycle per grid edge (mesh model, XY routing).
    edge_free_at: HashMap<GridEdge, Cycle>,
    /// Optional per-bank token-bucket bandwidth regulator (QoS tier). A
    /// regulated request is stalled *before* it enters the network, and the
    /// stall is folded into its queued component.
    regulator: Option<BankRegulator>,
    stats: NocStats,
}

impl NocModel {
    /// Build for a topology. `bank_occupancy` is typically the bank's
    /// cycle-per-access service time (Table-I-derived default: 4).
    pub fn new(topology: Topology, bank_occupancy: u64, link_occupancy: u64) -> Self {
        let banks = topology.num_banks();
        // Chain: `cores − 1` segment links. Clustered ring: `cores` links
        // (the ring closes). Mesh models route over grid edges instead.
        let links = match topology.floorplan() {
            Floorplan::ClusteredRing { .. } => topology.num_cores(),
            _ => topology.num_cores().saturating_sub(1),
        };
        NocModel {
            topology,
            bank_occupancy,
            link_occupancy,
            max_queue: 16 * bank_occupancy.max(1),
            bank_free_at: vec![0; banks],
            link_free_at: vec![0; links],
            edge_free_at: HashMap::new(),
            regulator: None,
            stats: NocStats::default(),
        }
    }

    /// Arm the per-bank bandwidth regulator. Unarmed (the default) the
    /// model is bit-identical to the unregulated network.
    pub fn set_regulator(&mut self, cfg: RegulatorConfig) {
        self.regulator = Some(BankRegulator::new(cfg, self.topology.num_banks()));
    }

    /// The armed regulator, if any.
    pub fn regulator(&self) -> Option<&BankRegulator> {
        self.regulator.as_ref()
    }

    /// Drain the regulator's per-epoch throttle accounting:
    /// `(bank, throttled_requests, stall_cycles)` since the last drain.
    pub fn drain_epoch_throttle(&mut self) -> Vec<(usize, u64, u64)> {
        self.regulator
            .as_mut()
            .map(|r| r.drain_epoch())
            .unwrap_or_default()
    }

    /// Worst queueing delay any single request can absorb, excluding the
    /// regulator term (the finite queue-depth clamp).
    pub fn queue_bound(&self) -> Cycle {
        self.max_queue
    }

    /// Worst stall the armed regulator can charge (0 when unarmed).
    pub fn regulator_worst_stall(&self) -> Cycle {
        self.regulator.as_ref().map_or(0, |r| r.worst_stall())
    }

    /// The grid edges an XY-routed request traverses (mesh model).
    fn xy_route(&self, core: CoreId, bank: BankId) -> Vec<GridEdge> {
        let (mut x, mut y) = self.topology.core_position(core);
        let (bx, by) = self.topology.bank_position(bank);
        let mut edges = Vec::new();
        while x != bx {
            let nx = if bx > x { x + 1 } else { x - 1 };
            edges.push(((x.min(nx), y), (x.max(nx), y)));
            x = nx;
        }
        while y != by {
            let ny = if by > y { y + 1 } else { y - 1 };
            edges.push(((x, y.min(ny)), (x, y.max(ny))));
            y = ny;
        }
        edges
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Account one L2 request from `core` to `bank` issued at `now`,
    /// reserving link and bank-port time, and return its latency.
    pub fn l2_access(&mut self, core: CoreId, bank: BankId, now: Cycle) -> NocLatency {
        // The bandwidth regulator gates entry to the network: a request
        // without a token is held back and only then contends for links and
        // the bank port. Total queued ≤ regulator max_stall + queue bound.
        let reg_stall = match self.regulator.as_mut() {
            Some(r) => r.admit(bank.index(), now),
            None => 0,
        };
        let now = now + reg_stall;
        let wire = self.topology.latency(core, bank);
        let mut t = now;

        match self.topology.floorplan() {
            Floorplan::Chain => {
                // Traverse the chain links between the core's position and
                // the bank's position (Center banks sit between positions;
                // their extra vertical hop is uncontended).
                let bank_pos = match self.topology.bank_kind(bank) {
                    BankKind::Local { home } => home.index(),
                    BankKind::Center => {
                        (bank.index() - self.topology.num_cores()).min(core.index())
                    }
                };
                let (lo, hi) = if core.index() <= bank_pos {
                    (core.index(), bank_pos)
                } else {
                    (bank_pos, core.index())
                };
                for link in lo..hi {
                    if t < self.link_free_at[link] {
                        t = self.link_free_at[link];
                    }
                    self.link_free_at[link] = t + self.link_occupancy;
                }
            }
            Floorplan::Mesh | Floorplan::ClusteredMesh { .. } => {
                // Dimension-ordered (XY) routing over the grid edges.
                for edge in self.xy_route(core, bank) {
                    let free = self.edge_free_at.entry(edge).or_insert(0);
                    if t < *free {
                        t = *free;
                    }
                    *free = t + self.link_occupancy;
                }
            }
            Floorplan::ClusteredRing { .. } => {
                // Traverse the shorter ring arc; link `i` joins ring
                // positions `i` and `i + 1 (mod cores)`. Center banks sit at
                // their owning core's ring position (the extra vertical hop
                // is uncontended, as in the chain model).
                let n = self.topology.num_cores();
                let bank_pos = match self.topology.bank_kind(bank) {
                    BankKind::Local { home } => home.index(),
                    BankKind::Center => bank.index() - n,
                };
                let mut pos = core.index();
                let clockwise = (bank_pos + n - pos) % n <= n / 2;
                while pos != bank_pos {
                    let link = if clockwise { pos } else { (pos + n - 1) % n };
                    if t < self.link_free_at[link] {
                        t = self.link_free_at[link];
                    }
                    self.link_free_at[link] = t + self.link_occupancy;
                    pos = if clockwise {
                        (pos + 1) % n
                    } else {
                        (pos + n - 1) % n
                    };
                }
            }
        }

        // Queue at the bank port, bounded by the queue depth.
        if t < self.bank_free_at[bank.index()] {
            t = self.bank_free_at[bank.index()];
        }
        t = t.min(now + self.max_queue);
        self.bank_free_at[bank.index()] = t + self.bank_occupancy;

        let queued = t - now + reg_stall;
        self.stats.record(wire, queued);
        NocLatency { wire, queued }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Reset statistics (reservations are kept — they are physical state).
    pub fn reset_stats(&mut self) {
        self.stats = NocStats::default();
    }

    /// The dynamic state (reservations + counters) for checkpointing.
    /// Topology and occupancy parameters are configuration and are rebuilt
    /// by the restoring side.
    pub fn snapshot(&self) -> NocState<'_> {
        // HashMap keyed by grid edge: encode as a sorted list so snapshots
        // of identical states are byte-identical.
        let mut edge_free_at: Vec<_> = self
            .edge_free_at
            .iter()
            .map(|(&((ax, ay), (bx, by)), &free)| (ax, ay, bx, by, free))
            .collect();
        edge_free_at.sort_unstable();
        NocState {
            bank_free_at: Cow::Borrowed(&self.bank_free_at),
            link_free_at: Cow::Borrowed(&self.link_free_at),
            edge_free_at,
            stats: Cow::Borrowed(&self.stats),
            regulator: Cow::Borrowed(&self.regulator),
        }
    }

    /// Overwrite the dynamic state from a [`NocModel::snapshot`] taken on
    /// an identically-configured model.
    pub fn restore(&mut self, s: NocState<'_>) {
        let NocState {
            bank_free_at,
            link_free_at,
            edge_free_at,
            stats,
            regulator,
        } = s;
        self.bank_free_at = bank_free_at.into_owned();
        self.link_free_at = link_free_at.into_owned();
        self.edge_free_at = edge_free_at
            .into_iter()
            .map(|(ax, ay, bx, by, free)| (((ax, ay), (bx, by)), free))
            .collect();
        self.stats = stats.into_owned();
        self.regulator = regulator.into_owned();
    }
}

/// The network's checkpointed state ([`NocModel::snapshot`]). Grid edges
/// are written as key-sorted `(ax, ay, bx, by, free_at)` tuples.
#[derive(Serialize, Deserialize)]
pub struct NocState<'a> {
    bank_free_at: Cow<'a, [Cycle]>,
    link_free_at: Cow<'a, [Cycle]>,
    edge_free_at: Vec<(i64, i64, i64, i64, Cycle)>,
    stats: Cow<'a, NocStats>,
    /// Absent in pre-QoS checkpoints: unarmed.
    #[serde(default)]
    regulator: Cow<'a, Option<BankRegulator>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc() -> NocModel {
        NocModel::new(Topology::baseline(), 4, 1)
    }

    #[test]
    fn uncontended_matches_topology_latency() {
        let mut n = noc();
        let lat = n.l2_access(CoreId(0), BankId(0), 0);
        assert_eq!(lat.wire, 10);
        assert_eq!(lat.queued, 0);
        assert_eq!(lat.total(), 10);
        let far = n.l2_access(CoreId(0), BankId(7), 1000);
        assert_eq!(far.wire, 70);
        assert_eq!(far.queued, 0);
    }

    #[test]
    fn same_bank_same_cycle_queues() {
        let mut n = noc();
        let a = n.l2_access(CoreId(0), BankId(0), 100);
        let b = n.l2_access(CoreId(0), BankId(0), 100);
        assert_eq!(a.queued, 0);
        assert_eq!(b.queued, 4, "second request waits one bank occupancy");
        let c = n.l2_access(CoreId(0), BankId(0), 100);
        assert_eq!(c.queued, 8);
    }

    #[test]
    fn different_banks_do_not_queue_on_ports() {
        let mut n = noc();
        let a = n.l2_access(CoreId(0), BankId(0), 100);
        let b = n.l2_access(CoreId(1), BankId(1), 100);
        assert_eq!(a.queued, 0);
        assert_eq!(b.queued, 0);
    }

    #[test]
    fn crossing_traffic_contends_on_links() {
        let mut n = noc();
        // Two cores sending across the same middle links at the same cycle.
        let a = n.l2_access(CoreId(0), BankId(7), 100);
        let b = n.l2_access(CoreId(1), BankId(6), 100);
        assert_eq!(a.queued, 0);
        assert!(
            b.queued > 0,
            "shared links force the second request to wait"
        );
    }

    #[test]
    fn bank_frees_up_over_time() {
        let mut n = noc();
        n.l2_access(CoreId(0), BankId(0), 100);
        // Well after the port frees, no queuing.
        let later = n.l2_access(CoreId(0), BankId(0), 200);
        assert_eq!(later.queued, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut n = noc();
        n.l2_access(CoreId(0), BankId(0), 0);
        n.l2_access(CoreId(0), BankId(0), 0);
        assert_eq!(n.stats().requests, 2);
        assert!(n.stats().queued_cycles > 0);
        n.reset_stats();
        assert_eq!(n.stats().requests, 0);
    }

    #[test]
    fn queueing_is_bounded_by_the_queue_depth() {
        let mut n = noc();
        // Hammer one bank far beyond its service rate: per-request queuing
        // must saturate at the finite queue depth (16 × occupancy), not
        // grow without bound.
        let mut worst = 0;
        for _ in 0..1000 {
            worst = worst.max(n.l2_access(CoreId(0), BankId(0), 100).queued);
        }
        assert_eq!(worst, 16 * 4, "queue depth bound");
    }

    #[test]
    fn sixteen_core_topology_works() {
        let topo = Topology::new(16, 10, 70);
        let mut n = NocModel::new(topo, 4, 1);
        let lat = n.l2_access(CoreId(0), BankId(15), 0);
        assert_eq!(lat.wire, 70, "farthest local bank");
        assert_eq!(n.l2_access(CoreId(15), BankId(15), 0).wire, 10);
    }

    #[test]
    fn out_of_order_timestamps_do_not_explode() {
        let mut n = noc();
        // A request far in the future reserves the port...
        n.l2_access(CoreId(0), BankId(0), 1_000_000);
        // ...but a "late" request (cross-core clock skew) pays at most the
        // queue bound, not the full million-cycle skew.
        let late = n.l2_access(CoreId(1), BankId(0), 10);
        assert!(
            late.queued <= 16 * 4,
            "skew artefact bounded: {}",
            late.queued
        );
    }

    #[test]
    fn mesh_routing_matches_latency_and_contends() {
        let mut n = NocModel::new(Topology::mesh_baseline(), 4, 1);
        // Own local bank: min latency, no link contention possible.
        let own = n.l2_access(CoreId(0), BankId(0), 0);
        assert_eq!(own.wire, 10);
        assert_eq!(own.queued, 0);
        // Far corner: max latency.
        assert_eq!(n.l2_access(CoreId(0), BankId(7), 0).wire, 70);
        // Two cores crossing the same column edges at once contend.
        let a = n.l2_access(CoreId(0), BankId(12), 500); // down column 0
        let b = n.l2_access(CoreId(4), BankId(8), 500); // up column 0
        assert_eq!(a.queued, 0);
        assert!(
            b.queued > 0 || a.wire != b.wire,
            "column contention visible: {b:?}"
        );
    }

    #[test]
    fn regulator_throttles_and_stays_bounded() {
        let mut n = noc();
        n.set_regulator(RegulatorConfig {
            budget: 2,
            period: 100,
            max_stall: 120,
        });
        // Within budget: identical to the unregulated path.
        assert_eq!(n.l2_access(CoreId(0), BankId(0), 0).queued, 0);
        // Hammer the bank: regulator + port queue, but never past the sum
        // of the two clamps.
        let mut worst = 0;
        for _ in 0..500 {
            worst = worst.max(n.l2_access(CoreId(0), BankId(0), 0).queued);
        }
        assert!(worst > 16 * 4, "regulator adds stall beyond the port queue");
        assert!(
            worst <= 120 + 16 * 4,
            "bounded by max_stall + queue depth: {worst}"
        );
        assert!(n.regulator().unwrap().throttled_requests() > 0);
        let epoch = n.drain_epoch_throttle();
        assert_eq!(epoch.len(), 1);
        assert_eq!(epoch[0].0, 0, "only bank 0 throttled");
        assert!(n.drain_epoch_throttle().is_empty());
    }

    #[test]
    fn unarmed_regulator_is_inert_and_snapshot_round_trips() {
        let mut plain = noc();
        let mut armed = noc();
        armed.set_regulator(RegulatorConfig {
            budget: 1_000_000,
            period: 1_000_000,
            max_stall: 64,
        });
        for i in 0..50 {
            let a = plain.l2_access(CoreId(0), BankId(i % 16), i as u64 * 7);
            let b = armed.l2_access(CoreId(0), BankId(i % 16), i as u64 * 7);
            assert_eq!(a, b, "huge budget never throttles");
        }
        // Regulator state (buckets + accounting) survives checkpointing.
        let mut restored = noc();
        restored.restore(armed.snapshot());
        assert_eq!(restored.regulator(), armed.regulator());
        assert_eq!(
            restored.l2_access(CoreId(2), BankId(9), 4000),
            armed.l2_access(CoreId(2), BankId(9), 4000)
        );
    }

    #[test]
    fn zero_hop_requests_use_no_links() {
        let mut n = noc();
        // Saturate link 0.
        for _ in 0..10 {
            n.l2_access(CoreId(0), BankId(1), 100);
        }
        // Core 0 to its own bank never touches links.
        let own = n.l2_access(CoreId(0), BankId(0), 100);
        assert_eq!(own.queued, 0);
    }
}
