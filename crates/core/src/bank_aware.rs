//! The Bank-aware allocation algorithm (Fig. 6 and §III-B/C of the paper).
//!
//! Capacity is assigned by maximum marginal utility, like the Unrestricted
//! algorithm, but under the three physical rules of the banked DNUCA:
//!
//! 1. **Center banks are assigned whole** to a single core;
//! 2. a core that receives Center banks also owns its **full Local bank**;
//! 3. **Local banks may only be way-shared between adjacent cores**, at most
//!    two sharers (the bank's home core plus one neighbour).
//!
//! The flow follows Fig. 6:
//!
//! * **Boxes 1–2** — assuming every Local bank belongs to its home core,
//!   repeatedly give the next Center bank (8 ways at a time) to the core
//!   with the highest marginal utility, up to the maximum-assignable-
//!   capacity cap (9/16 of the cache = 72 ways);
//! * **Box 3** — cores holding Center banks are complete (Rules 1+2);
//! * **Boxes 4–6** — the remaining cores compete at way granularity over
//!   their Local banks. Pairing with a neighbour is *deferred* until a
//!   core's best growth overflows its own bank; the partner is then chosen
//!   to minimise the pair's total misses, the pair's 16 ways are split
//!   optimally, and both cores are marked complete.
//!
//! # Cluster sharding
//!
//! On clustered floorplans ([`Topology::num_clusters`] > 1) the solve
//! decomposes exactly: Rule 3 adjacency and Center-bank ownership never
//! cross a cluster boundary, so each cluster is an independent sub-problem
//! solved by the same Fig. 6 flow over its own cores and banks. Shards are
//! solved one after another and merged in ascending cluster order, making
//! the epoch decision cost scale with the cluster size rather than the die
//! size. Chain/Mesh floorplans are one cluster: the classic serial solve,
//! bit-identical plan and trace.
//!
//! # Degraded machines
//!
//! [`try_bank_aware_partition`] is the fault-tolerant entry point: it takes
//! a [`DegradedTopology`] (floorplan + live bank-health mask) and returns a
//! typed [`Result`]. Offline banks simply vanish from the allocator's view:
//! their capacity is not assigned, a core whose Local bank died starts from
//! zero assumed ways (it may still win Center banks, overflow into a
//! neighbour's Local bank, or be rescued with a minimum share), and Rule 2
//! is waived for a Center-holder whose Local bank is offline — there is
//! nothing left to own. On a fully-healthy mask the degraded path is
//! bit-identical to the classic [`bank_aware_partition`], which is now a
//! thin wrapper that unwraps the `Result` (a healthy machine with one curve
//! per core cannot fail).

use bap_cache::{BankAllocation, PartitionPlan, PlanError};
use bap_msa::MissRatioCurve;
use bap_trace::{EventKind, Tracer};
use bap_types::{BankId, BankKind, CoreId, DegradedTopology, Topology};
use std::borrow::Borrow;

use crate::unrestricted::unrestricted_partition;

/// Tunables of the Bank-aware algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BankAwareConfig {
    /// Maximum assignable capacity as a fraction of the whole cache
    /// (paper: 9/16).
    pub max_capacity_num: usize,
    /// Denominator of the fraction.
    pub max_capacity_den: usize,
    /// Minimum ways any core keeps in its own Local bank.
    pub min_ways: usize,
}

impl Default for BankAwareConfig {
    fn default() -> Self {
        BankAwareConfig {
            max_capacity_num: 9,
            max_capacity_den: 16,
            min_ways: 1,
        }
    }
}

/// Deterministic step budget for one solve (the epoch decision budget of
/// the control-loop robustness layer).
///
/// A *step* is one marginal-utility bid evaluation in the solver's bidding
/// loops, so the budget bounds decision latency in machine-independent
/// units. `max_steps == 0` means unlimited. Exhaustion behaves differently
/// by phase:
///
/// * during **Boxes 1–2** (Center bidding) the allocation cannot be closed
///   out consistently — free Center banks would stay unassigned — so the
///   solve fails typed with [`PartitionError::BudgetExhausted`] and the
///   controller keeps the last-good plan;
/// * during **Boxes 4–6** (Local bidding) every intermediate state is a
///   consistent checkpoint: the solver closes out early (each open core
///   keeps the remainder of its own Local bank — the same closure as the
///   no-positive-utility exit), emits [`EventKind::SolverCheckpoint`] and
///   still returns a complete, rule-valid plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Maximum bid evaluations (0 = unlimited).
    pub max_steps: u64,
}

impl SolveBudget {
    /// No limit — the classic solver behaviour.
    pub fn unlimited() -> Self {
        SolveBudget { max_steps: 0 }
    }

    /// Limit the solve to `max_steps` bid evaluations.
    pub fn steps(max_steps: u64) -> Self {
        SolveBudget { max_steps }
    }

    /// Whether `steps` consumed so far exhaust this budget.
    #[inline]
    fn exhausted(&self, steps: u64) -> bool {
        self.max_steps > 0 && steps >= self.max_steps
    }
}

/// Why the Bank-aware solver could not produce a plan. Every variant is a
/// recoverable event: the controller's degradation ladder catches it and
/// falls back to a previously-valid or equal-share plan.
#[derive(Clone, Debug, PartialEq)]
pub enum PartitionError {
    /// `curves.len()` does not match the number of cores.
    CurveCountMismatch {
        /// Curves supplied.
        curves: usize,
        /// Cores in the topology.
        cores: usize,
    },
    /// A miss-ratio curve carries no points at all (corrupted state).
    UnusableCurve {
        /// The core whose curve is empty.
        core: usize,
    },
    /// The healthy banks cannot give every core its minimum share.
    InsufficientCapacity {
        /// Ways available across healthy banks.
        healthy_ways: usize,
        /// Ways the minimum shares require.
        required: usize,
    },
    /// A core ended with zero capacity and no rescue donor exists (its
    /// Local bank and every adjacent Local bank are offline or exhausted).
    NoUsableCapacity {
        /// The stranded core.
        core: usize,
    },
    /// The step budget ran out during the Center phase, where no consistent
    /// early close-out exists. The controller sheds the decision and keeps
    /// the last-good plan.
    BudgetExhausted {
        /// Bid evaluations consumed when the budget tripped.
        steps: u64,
    },
    /// A solver invariant failed — the pre-fault-tolerance code would have
    /// panicked here.
    Internal(&'static str),
    /// The emitted plan failed structural or rule validation.
    InvalidPlan(PlanError),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::CurveCountMismatch { curves, cores } => {
                write!(f, "{curves} curves for {cores} cores")
            }
            PartitionError::UnusableCurve { core } => {
                write!(f, "core{core}'s miss-ratio curve is empty")
            }
            PartitionError::InsufficientCapacity {
                healthy_ways,
                required,
            } => write!(
                f,
                "only {healthy_ways} healthy ways, {required} required for minimum shares"
            ),
            PartitionError::NoUsableCapacity { core } => {
                write!(f, "core{core} has no reachable healthy capacity")
            }
            PartitionError::BudgetExhausted { steps } => {
                write!(f, "decision budget exhausted after {steps} solver steps")
            }
            PartitionError::Internal(what) => write!(f, "solver invariant failed: {what}"),
            PartitionError::InvalidPlan(e) => write!(f, "emitted plan invalid: {e}"),
        }
    }
}

impl std::error::Error for PartitionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PartitionError::InvalidPlan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for PartitionError {
    fn from(e: PlanError) -> Self {
        PartitionError::InvalidPlan(e)
    }
}

/// Run the Bank-aware algorithm on a healthy machine.
///
/// `curves[c]` is core `c`'s MSA miss-ratio curve; `bank_ways` the per-bank
/// associativity (8). Returns a validated [`PartitionPlan`] whose
/// allocations are ordered closest-bank-first per core. Panics if the
/// inputs are malformed (wrong curve count, empty curve) — the fallible,
/// degradation-aware entry point is [`try_bank_aware_partition`].
///
/// ```
/// use bap_core::{bank_aware_partition, BankAwareConfig};
/// use bap_msa::MissRatioCurve;
/// use bap_types::{CoreId, Topology};
///
/// // Eight identical workloads split the cache evenly: two banks each.
/// let curve = MissRatioCurve::from_misses(
///     (0..=72).map(|w| (1000.0 - 25.0 * w as f64).max(0.0)).collect(), 1000.0);
/// let curves = vec![curve; 8];
/// let plan = bank_aware_partition(
///     &curves, &Topology::baseline(), 8, &BankAwareConfig::default());
/// assert_eq!(plan.ways_of(CoreId(0)), 16);
/// assert_eq!(plan.total_ways_used(), 128);
/// ```
pub fn bank_aware_partition<C: Borrow<MissRatioCurve>>(
    curves: &[C],
    topo: &Topology,
    bank_ways: usize,
    cfg: &BankAwareConfig,
) -> PartitionPlan {
    // INVARIANT: this wrapper's documented contract is panic-on-malformed-
    // input; every failure mode needs either bad inputs (checked above the
    // solve) or a degraded mask/budget, and this call passes a fully
    // healthy machine with an unlimited budget. Fallible callers use
    // `try_bank_aware_partition`.
    try_bank_aware_partition(
        curves,
        &DegradedTopology::healthy(topo.clone()),
        bank_ways,
        cfg,
    )
    .expect("bank-aware allocation cannot fail on a healthy machine")
}

/// Run the Bank-aware algorithm on a possibly-degraded machine.
///
/// Identical to [`bank_aware_partition`] when `machine`'s mask is full (the
/// emitted plan is bit-for-bit the same); with banks offline, their capacity
/// disappears from the solve and the returned plan allocates healthy banks
/// only, summing to `healthy_banks × bank_ways`. Every former panic path is
/// a typed [`PartitionError`].
pub fn try_bank_aware_partition<C: Borrow<MissRatioCurve>>(
    curves: &[C],
    machine: &DegradedTopology,
    bank_ways: usize,
    cfg: &BankAwareConfig,
) -> Result<PartitionPlan, PartitionError> {
    try_bank_aware_partition_traced(curves, machine, bank_ways, cfg, &Tracer::off())
}

/// [`try_bank_aware_partition`] with decision-trace emission.
///
/// Every grant, pairing, share, physical-rule application *and rejection*
/// made while walking Fig. 6 is emitted through `tracer`, closing with one
/// [`EventKind::AssignmentComputed`] carrying the final per-core way vector.
/// With [`Tracer::off`] the emission sites cost one branch each and the
/// solve is bit-identical to the untraced entry point.
pub fn try_bank_aware_partition_traced<C: Borrow<MissRatioCurve>>(
    curves: &[C],
    machine: &DegradedTopology,
    bank_ways: usize,
    cfg: &BankAwareConfig,
    tracer: &Tracer,
) -> Result<PartitionPlan, PartitionError> {
    try_bank_aware_partition_budgeted(
        curves,
        machine,
        bank_ways,
        cfg,
        tracer,
        SolveBudget::unlimited(),
    )
}

/// [`try_bank_aware_partition_traced`] under a deterministic step budget
/// (see [`SolveBudget`] for the exhaustion semantics per phase). With
/// [`SolveBudget::unlimited`] the solve — and the emitted trace — is
/// bit-identical to the unbudgeted entry point.
///
/// # Cluster sharding
///
/// Clustered floorplans confine Rule 3 adjacency and Center-bank ownership
/// within clusters, so the machine-wide problem decomposes *exactly* into
/// one independent sub-solve per cluster (each under its own 9/16 cap and
/// step budget). Shards are solved one after another in ascending cluster
/// order and merged in that order, so plan and event stream are
/// deterministic; a shard solve is too small to pay for a parallel
/// fan-out (DESIGN.md §13). Chain/Mesh floorplans are a single cluster
/// covering the whole die: there the sharded path *is* the classic serial
/// solver, bit-identical plan and trace.
pub fn try_bank_aware_partition_budgeted<C: Borrow<MissRatioCurve>>(
    curves: &[C],
    machine: &DegradedTopology,
    bank_ways: usize,
    cfg: &BankAwareConfig,
    tracer: &Tracer,
    budget: SolveBudget,
) -> Result<PartitionPlan, PartitionError> {
    // Resolve the curve borrows once: the cluster shards then work on plain
    // `&MissRatioCurve` slices, which keeps `solve_cluster` monomorphic.
    let curve_refs: Vec<&MissRatioCurve> = curves.iter().map(Borrow::borrow).collect();
    validate_curve_inputs(&curve_refs, machine)?;
    let clusters = machine.topology().num_clusters();
    let ids: Vec<usize> = (0..clusters).collect();
    let solutions = solve_shards(&ids, &curve_refs, machine, bank_ways, cfg, tracer, budget)?;
    merge_shards(&solutions, machine, bank_ways, tracer)
}

/// The solve prologue: one curve per core, none of them empty.
pub(crate) fn validate_curve_inputs(
    curves: &[&MissRatioCurve],
    machine: &DegradedTopology,
) -> Result<(), PartitionError> {
    let n = machine.topology().num_cores();
    if curves.len() != n {
        return Err(PartitionError::CurveCountMismatch {
            curves: curves.len(),
            cores: n,
        });
    }
    for (c, curve) in curves.iter().enumerate() {
        if curve.is_empty() {
            return Err(PartitionError::UnusableCurve { core: c });
        }
    }
    Ok(())
}

/// Solve the given clusters one after another, in the given order. On
/// failure the error is the first-listed failing cluster's.
pub(crate) fn solve_shards(
    ids: &[usize],
    curve_refs: &[&MissRatioCurve],
    machine: &DegradedTopology,
    bank_ways: usize,
    cfg: &BankAwareConfig,
    tracer: &Tracer,
    budget: SolveBudget,
) -> Result<Vec<ClusterSolution>, PartitionError> {
    ids.iter()
        .map(|&cl| solve_cluster(cl, curve_refs, machine, bank_ways, cfg, tracer, budget))
        .collect()
}

/// Merge per-cluster solutions (ascending cluster order expected) into one
/// machine-wide plan, re-validating structure, physical rules and exact
/// capacity coverage. Emits [`EventKind::ShardMerge`] per shard on
/// multi-cluster floorplans and the final
/// [`EventKind::AssignmentComputed`].
pub(crate) fn merge_shards(
    solutions: &[ClusterSolution],
    machine: &DegradedTopology,
    bank_ways: usize,
    tracer: &Tracer,
) -> Result<PartitionPlan, PartitionError> {
    let topo = machine.topology();
    let n = topo.num_cores();
    let clusters = topo.num_clusters();
    // ---- Deterministic merge, ascending cluster order. ----
    let mut plan = PartitionPlan::empty(n, topo.num_banks(), bank_ways);
    for sol in solutions {
        if clusters > 1 {
            let cluster = sol.cluster;
            let cores = sol.per_core.len();
            let ways: usize = sol
                .per_core
                .iter()
                .flat_map(|(_, allocs)| allocs.iter().map(|a| a.ways))
                .sum();
            tracer.emit(|| EventKind::ShardMerge {
                cluster,
                cores,
                ways,
            });
        }
        for (c, allocs) in &sol.per_core {
            plan.per_core[*c] = allocs.clone();
        }
    }

    let healthy_ways = machine.num_healthy_banks() * bank_ways;
    // One shared index for both validators — building it is the expensive
    // part on wide floorplans.
    let usage = plan.bank_usage();
    plan.validate_with(&usage)?;
    validate_bank_rules_masked_with(&plan, machine, &usage)?;
    if plan.total_ways_used() != healthy_ways {
        return Err(PartitionError::InvalidPlan(PlanError::CapacityMismatch {
            assigned: plan.total_ways_used(),
            expected: healthy_ways,
        }));
    }
    tracer.emit(|| EventKind::AssignmentComputed {
        policy: "bank_aware".to_string(),
        ways: (0..n)
            .map(|c| plan.ways_of(CoreId::from_index(c)))
            .collect(),
    });
    Ok(plan)
}

/// One cluster shard's finished sub-plan: `(global core index, its
/// allocations)` for the cluster's cores, in ascending core order.
/// Serializable so the incremental solver's warm state survives
/// checkpoint/restore.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) struct ClusterSolution {
    pub(crate) cluster: usize,
    pub(crate) per_core: Vec<(usize, Vec<BankAllocation>)>,
}

/// Solve Fig. 6 for one cluster: the cluster's cores compete over the
/// cluster's own Local and Center banks, under a 9/16 cap over the
/// cluster's healthy capacity and a per-shard [`SolveBudget`].
///
/// All per-core state is cluster-local (index `l` ↔ global core
/// `base + l`); global core and bank indices appear only in trace events
/// and the emitted allocations, so on a single-cluster floorplan
/// (`base == 0`, `k == num_cores`) this is exactly the classic
/// whole-machine solve.
fn solve_cluster(
    cluster: usize,
    curves: &[&MissRatioCurve],
    machine: &DegradedTopology,
    bank_ways: usize,
    cfg: &BankAwareConfig,
    tracer: &Tracer,
    budget: SolveBudget,
) -> Result<ClusterSolution, PartitionError> {
    // Bid evaluations consumed so far — the shard's budget clock.
    let mut steps: u64 = 0;
    let topo = machine.topology();
    let k = topo.cluster_cores();
    let base = cluster * k;
    let gcore = |l: usize| CoreId::from_index(base + l);

    let cluster_ways = (topo.local_banks_in_cluster(cluster))
        .chain(topo.center_banks_in_cluster(cluster))
        .filter(|&b| machine.is_healthy(b))
        .count()
        * bank_ways;
    let required = k * cfg.min_ways.max(1);
    if cluster_ways < required {
        return Err(PartitionError::InsufficientCapacity {
            healthy_ways: cluster_ways,
            required,
        });
    }
    // The 9/16 cap, over the cluster's *healthy* capacity. On a degraded
    // machine the cap is clamped into `[2 banks, healthy total]` so the
    // Boxes 1–2 grant granularity stays meaningful; on the healthy baseline
    // both clamps are inactive and the cap is exactly the classic 72 ways.
    let max_ways = (cluster_ways * cfg.max_capacity_num / cfg.max_capacity_den)
        .max(2 * bank_ways)
        .min(cluster_ways);

    // Rule 3 adjacency never crosses a cluster boundary, so neighbour lists
    // are cluster-local indices, precomputed once.
    let neighbours_of: Vec<Vec<usize>> = (0..k)
        .map(|l| {
            topo.neighbours(gcore(l))
                .into_iter()
                .map(|d| d.index() - base)
                .collect()
        })
        .collect();

    // Per-core usable capacity of its own Local bank (0 if offline).
    let avail_local: Vec<usize> = (0..k)
        .map(|l| {
            if machine.is_healthy(topo.local_bank(gcore(l))) {
                bank_ways
            } else {
                0
            }
        })
        .collect();

    // ---- Boxes 1–2: Center bank assignment at bank granularity. ----
    // Assume each healthy Local bank belongs to its home core.
    let mut assumed_ways: Vec<usize> = avail_local.clone();
    let mut centers_of: Vec<Vec<BankId>> = vec![Vec::new(); k];
    let mut free_centers: Vec<BankId> = topo
        .center_banks_in_cluster(cluster)
        .filter(|&b| machine.is_healthy(b))
        .collect();

    // One Rule-1 rejection per core, however many bidding rounds it loses.
    let mut rule1_rejected: Vec<bool> = vec![false; k];
    while !free_centers.is_empty() {
        // Budget check at round granularity. Mid-Center exhaustion has no
        // consistent close-out (free Center banks would go unassigned), so
        // the whole decision is shed.
        if budget.exhausted(steps) {
            return Err(PartitionError::BudgetExhausted { steps });
        }
        // Each core bids its best *bank-granular* lookahead growth: the
        // utility per way of taking `j` whole banks, maximised over the
        // feasible `j` (bounded by the cap and the remaining free banks).
        // Bids must be bank-granular — a single steep way must not win a
        // whole bank — and committing to the full `j` matters: granting a
        // cliff-shaped workload fewer banks than its cliff wastes every
        // bank granted. Ties break towards the core with the smallest
        // current share so identical workloads spread.
        let mut best: Option<(usize, usize, f64)> = None; // (core, banks, mu)
        for l in 0..k {
            let curve = curves[base + l];
            let headroom_ways = max_ways.saturating_sub(assumed_ways[l]);
            let headroom_banks = (headroom_ways / bank_ways).min(free_centers.len());
            if headroom_banks == 0 {
                // Rule 1: the core still has sub-bank headroom under the
                // capacity cap, but Center banks only move whole.
                if headroom_ways > 0 && !rule1_rejected[l] {
                    rule1_rejected[l] = true;
                    let bank = free_centers[0];
                    tracer.emit(|| EventKind::RuleRejected {
                        rule: 1,
                        core: base + l,
                        bank: bank.index(),
                        why: format!(
                            "{headroom_ways} ways of cap headroom < one whole bank ({bank_ways})"
                        ),
                    });
                }
                continue;
            }
            // Strict improvement keeps the smallest committing growth:
            // smooth curves bid one bank at a time, true cliffs bid the
            // whole jump.
            steps += headroom_banks as u64;
            let mut j = 1usize;
            let mut mu = curve.marginal_utility(assumed_ways[l], bank_ways);
            for cand in 2..=headroom_banks {
                let cand_mu = curve.marginal_utility(assumed_ways[l], cand * bank_ways);
                if cand_mu > mu {
                    j = cand;
                    mu = cand_mu;
                }
            }
            let better = match best {
                None => true,
                Some((bl, _, bmu)) => {
                    mu > bmu + 1e-9
                        || ((mu - bmu).abs() <= 1e-9 && assumed_ways[l] < assumed_ways[bl])
                }
            };
            if better {
                best = Some((l, j, mu));
            }
        }
        let Some((winner, banks, mu)) = best else {
            break;
        };
        // Once no growth helps anyone, distribute the remaining banks by
        // (zero-utility) single grants so the whole cache stays assigned.
        let banks = if mu > 0.0 { banks } else { 1 };
        for _ in 0..banks {
            // Give the winner its nearest free Center bank (lowest latency).
            let Some((idx, _)) = free_centers
                .iter()
                .enumerate()
                .min_by_key(|(_, &b)| topo.hops(gcore(winner), b))
            else {
                return Err(PartitionError::Internal("free centers exhausted mid-grant"));
            };
            let bank = free_centers.swap_remove(idx);
            centers_of[winner].push(bank);
            assumed_ways[winner] += bank_ways;
            tracer.emit(|| EventKind::CenterGrant {
                core: base + winner,
                bank: bank.index(),
                lookahead_banks: banks,
                mu,
            });
            tracer.emit(|| EventKind::RuleApplied {
                rule: 1,
                core: base + winner,
                bank: bank.index(),
            });
        }
    }

    // ---- Box 3: Center-holders are complete. ----
    let mut complete: Vec<bool> = centers_of.iter().map(|v| !v.is_empty()).collect();
    for (l, done) in complete.iter().enumerate() {
        // Rule 2: completing a Center-holder grants it its full Local bank
        // (waived when that bank is offline — nothing left to own).
        if *done && avail_local[l] > 0 {
            tracer.emit(|| EventKind::RuleApplied {
                rule: 2,
                core: base + l,
                bank: topo.local_bank(gcore(l)).index(),
            });
        }
    }

    // ---- Rescue stranded cores (degraded machines only). ----
    // A core whose Local bank is offline and that won no Center bank would
    // end with zero capacity. Rule 3 still admits it into an *adjacent*
    // Local bank, so reserve its minimum share there; failing that,
    // transfer one whole Center bank from the richest holder (Rule 1 is
    // preserved — the bank moves whole — and Rule 2 is waived for the
    // rescued core, whose Local bank no longer exists). On a healthy
    // machine every core has its Local bank and this pass is a no-op.
    let min_share = cfg.min_ways.max(1);
    // Ways of a core's Local bank pre-reserved for a rescued neighbour.
    // A bank carrying a reservation already has its one permitted foreign
    // sharer, so the bidding below must never route a second one into it.
    let mut reserved: Vec<usize> = vec![0; k];
    let mut rescue_host: Vec<Option<usize>> = vec![None; k];
    for l in 0..k {
        if complete[l] || avail_local[l] > 0 {
            continue;
        }
        let donor = neighbours_of[l].iter().copied().find(|&d| {
            d != l && !complete[d] && avail_local[d] >= 2 * min_share && reserved[d] == 0
        });
        if let Some(d) = donor {
            reserved[d] = min_share;
            rescue_host[l] = Some(d);
            tracer.emit(|| EventKind::RuleApplied {
                rule: 3,
                core: base + l,
                bank: topo.local_bank(gcore(d)).index(),
            });
            continue;
        }
        // No adjacent Local capacity: take a Center bank. The donor must
        // keep capacity of its own — another Center bank or a healthy
        // Local bank.
        let donor = (0..k)
            .filter(|&d| {
                centers_of[d].len() > 1 || (centers_of[d].len() == 1 && avail_local[d] > 0)
            })
            .max_by_key(|&d| (centers_of[d].len(), std::cmp::Reverse(d)));
        let Some(donor) = donor else {
            return Err(PartitionError::NoUsableCapacity { core: base + l });
        };
        let Some((idx, _)) = centers_of[donor]
            .iter()
            .enumerate()
            .min_by_key(|(_, &b)| topo.hops(gcore(l), b))
        else {
            return Err(PartitionError::Internal("center donor without centers"));
        };
        let bank = centers_of[donor].remove(idx);
        centers_of[l].push(bank);
        assumed_ways[donor] -= bank_ways;
        assumed_ways[l] += bank_ways;
        complete[l] = true;
        // A rescue transfer is still a whole-bank (Rule 1) Center grant.
        tracer.emit(|| EventKind::CenterGrant {
            core: base + l,
            bank: bank.index(),
            lookahead_banks: 1,
            mu: 0.0,
        });
        tracer.emit(|| EventKind::RuleApplied {
            rule: 1,
            core: base + l,
            bank: bank.index(),
        });
        // The donor stays complete: it either kept a Center bank or owns
        // its full healthy Local bank.
    }

    // ---- Boxes 4–6: Local banks of the incomplete cores. ----
    // State per incomplete core: ways claimed so far and ways remaining in
    // its own Local bank. Complete cores own their Local bank in full
    // (Rule 2) but may still bid for a fraction of an *adjacent* incomplete
    // core's Local bank — the paper's Fig. 5 shows such 8+8+4-style
    // partitions — becoming that bank's single permitted co-owner.
    let mut claimed: Vec<usize> = vec![0; k];
    let mut own_remaining: Vec<usize> = vec![0; k];
    // (partner, ways taken from the partner's bank) once paired.
    let mut partner: Vec<Option<usize>> = vec![None; k];
    let mut partner_ways: Vec<usize> = vec![0; k];
    // An incomplete core leaves the pool once paired or finalised.
    let mut open: Vec<bool> = vec![false; k];
    // A complete core may take at most one foreign share.
    let mut took_share: Vec<bool> = vec![false; k];

    for l in 0..k {
        if complete[l] {
            continue;
        }
        if let Some(d) = rescue_host[l] {
            // Finalised at the minimum share inside the host's bank.
            claimed[l] = min_share;
            partner[l] = Some(d);
            partner_ways[l] = min_share;
            continue;
        }
        let usable = avail_local[l] - reserved[l];
        claimed[l] = cfg.min_ways.min(usable);
        own_remaining[l] = usable - claimed[l];
        open[l] = true;
    }

    /// What the winning bid proposes.
    #[derive(Clone, Copy)]
    enum Bid {
        /// An incomplete core grows within its own bank.
        Own { extra: usize },
        /// An incomplete core overflows into a neighbour's bank (pairing).
        Pair,
        /// A complete core takes a share of a neighbour's bank.
        Share,
    }

    loop {
        // Budget check: every Local-phase state is a consistent checkpoint,
        // so exhaustion here closes out early instead of shedding — the
        // bidding is skipped, `best` stays empty, and the no-growth arm
        // below finalises every open core with the remainder of its own
        // Local bank, yielding a complete rule-valid plan.
        let checkpointed = budget.exhausted(steps);
        if checkpointed {
            tracer.emit(|| EventKind::SolverCheckpoint { steps });
        }
        let mut best: Option<(usize, Bid, f64)> = None;
        let consider = |best: &mut Option<(usize, Bid, f64)>, l: usize, bid: Bid, mu: f64| {
            let better = match *best {
                None => true,
                Some((bl, _, bmu)) => {
                    mu > bmu + 1e-9 || ((mu - bmu).abs() <= 1e-9 && claimed[l] < claimed[bl])
                }
            };
            if better {
                *best = Some((l, bid, mu));
            }
        };
        for l in 0..k {
            if checkpointed {
                break;
            }
            let neighbours = &neighbours_of[l];
            if open[l] {
                // Budget includes a possible overflow into a legal
                // neighbour. A bank carrying a rescue reservation (its own
                // or the neighbour's) is closed to pairing: its single
                // permitted foreign sharer is already spoken for.
                let overflow_budget: usize = if reserved[l] > 0 {
                    0
                } else {
                    neighbours
                        .iter()
                        .filter(|&&d| open[d] && d != l && reserved[d] == 0)
                        .map(|&d| own_remaining[d])
                        .max()
                        .unwrap_or(0)
                };
                let bid_budget = own_remaining[l] + overflow_budget;
                if bid_budget == 0 {
                    continue;
                }
                // One step per candidate growth the lookahead scans.
                steps += bid_budget as u64;
                if let Some((extra, mu)) = curves[base + l].best_growth(claimed[l], bid_budget) {
                    let bid = if extra > own_remaining[l] {
                        Bid::Pair
                    } else {
                        Bid::Own { extra }
                    };
                    consider(&mut best, l, bid, mu);
                }
            } else if complete[l] && !took_share[l] {
                // Fractional growth beyond the full banks, limited to one
                // adjacent open Local bank and the 9/16 capacity cap.
                let bid_budget: usize = neighbours
                    .iter()
                    .filter(|&&d| open[d] && reserved[d] == 0)
                    .map(|&d| own_remaining[d])
                    .max()
                    .unwrap_or(0)
                    .min(max_ways.saturating_sub(assumed_ways[l]));
                if bid_budget == 0 {
                    continue;
                }
                steps += bid_budget as u64;
                if let Some((_, mu)) = curves[base + l].best_growth(assumed_ways[l], bid_budget) {
                    consider(&mut best, l, Bid::Share, mu);
                }
            }
        }

        match best {
            Some((l, Bid::Own { extra }, mu)) if mu > 0.0 => {
                claimed[l] += extra;
                own_remaining[l] -= extra;
                tracer.emit(|| EventKind::LocalGrant {
                    core: base + l,
                    extra,
                    mu,
                });
            }
            Some((l, Bid::Pair, mu)) if mu > 0.0 => {
                // Box 5–6: the best growth overflows the core's Local bank —
                // decide the pairing now, choosing the neighbour that
                // minimises the pair's total projected misses, then split
                // the pair's two banks' joint healthy capacity optimally
                // and close both. Record which banks the physical rules
                // keep the overflow out of before committing to a partner.
                if tracer.is_enabled() {
                    let neighbours = &neighbours_of[l];
                    for d in 0..k {
                        if d == l {
                            continue;
                        }
                        let bank = topo.local_bank(gcore(d)).index();
                        if open[d] && !neighbours.contains(&d) {
                            tracer.emit(|| EventKind::RuleRejected {
                                rule: 3,
                                core: base + l,
                                bank,
                                why: format!(
                                    "core{}'s Local bank is not adjacent to core{}",
                                    base + d,
                                    base + l
                                ),
                            });
                        } else if neighbours.contains(&d) && complete[d] && avail_local[d] > 0 {
                            tracer.emit(|| EventKind::RuleRejected {
                                rule: 2,
                                core: base + l,
                                bank,
                                why: format!(
                                    "core{} holds Centers and owns its Local bank whole",
                                    base + d
                                ),
                            });
                        } else if neighbours.contains(&d) && open[d] && reserved[d] > 0 {
                            tracer.emit(|| EventKind::RuleRejected {
                                rule: 3,
                                core: base + l,
                                bank,
                                why: "bank's single foreign share is reserved for a rescue"
                                    .to_string(),
                            });
                        }
                    }
                }
                let candidates: Vec<usize> = neighbours_of[l]
                    .iter()
                    .copied()
                    .filter(|&d| open[d] && d != l && reserved[d] == 0)
                    .collect();
                if candidates.is_empty() {
                    return Err(PartitionError::Internal(
                        "overflow bid without a legal neighbour",
                    ));
                }
                let mut best_pair: Option<(usize, Vec<usize>, f64)> = None;
                for d in candidates {
                    let pair_total = avail_local[l] + avail_local[d];
                    if pair_total < 2 * cfg.min_ways || pair_total == 0 {
                        continue;
                    }
                    let pair_curves = [curves[base + l], curves[base + d]];
                    let split = unrestricted_partition(
                        &pair_curves,
                        pair_total,
                        cfg.min_ways,
                        pair_total - cfg.min_ways,
                    );
                    let misses =
                        pair_curves[0].misses_at(split[0]) + pair_curves[1].misses_at(split[1]);
                    if best_pair.as_ref().is_none_or(|&(_, _, m)| misses < m) {
                        best_pair = Some((d, split, misses));
                    }
                }
                let Some((d, split, _)) = best_pair else {
                    return Err(PartitionError::Internal(
                        "pairing found no capable neighbour",
                    ));
                };
                tracer.emit(|| EventKind::PairFormed {
                    core: base + l,
                    partner: base + d,
                    core_ways: split[0],
                    partner_ways: split[1],
                    mu,
                });
                claimed[l] = split[0];
                claimed[d] = split[1];
                // Physical placement: own bank first, overflow into the
                // partner's bank (at most one side can exceed its own
                // bank's capacity — the split sums to exactly the pair's
                // joint capacity).
                partner[l] = Some(d);
                partner[d] = Some(l);
                partner_ways[l] = split[0].saturating_sub(avail_local[l]);
                partner_ways[d] = split[1].saturating_sub(avail_local[d]);
                if partner_ways[l] > 0 {
                    tracer.emit(|| EventKind::RuleApplied {
                        rule: 3,
                        core: base + l,
                        bank: topo.local_bank(gcore(d)).index(),
                    });
                }
                if partner_ways[d] > 0 {
                    tracer.emit(|| EventKind::RuleApplied {
                        rule: 3,
                        core: base + d,
                        bank: topo.local_bank(gcore(l)).index(),
                    });
                }
                own_remaining[l] = 0;
                own_remaining[d] = 0;
                open[l] = false;
                open[d] = false;
            }
            Some((l, Bid::Share, mu)) if mu > 0.0 => {
                // A complete core annexes part of the best adjacent open
                // bank: split that bank's healthy ways between the two.
                let mut choice: Option<(usize, usize, f64)> = None; // (d, x, misses)
                let cap = max_ways.saturating_sub(assumed_ways[l]);
                for &d in &neighbours_of[l] {
                    if open[d] && reserved[d] > 0 {
                        tracer.emit(|| EventKind::RuleRejected {
                            rule: 3,
                            core: base + l,
                            bank: topo.local_bank(gcore(d)).index(),
                            why: "bank's single foreign share is reserved for a rescue".to_string(),
                        });
                    }
                    if !open[d] || avail_local[d] == 0 || reserved[d] > 0 {
                        continue;
                    }
                    let avail = avail_local[d];
                    for x in 0..=avail.saturating_sub(cfg.min_ways).min(cap) {
                        let misses = curves[base + l].misses_at(assumed_ways[l] + x)
                            + curves[base + d].misses_at(avail - x);
                        if choice.is_none_or(|(_, _, m)| misses < m) {
                            choice = Some((d, x, misses));
                        }
                    }
                }
                let Some((d, x, _)) = choice else {
                    return Err(PartitionError::Internal(
                        "positive share bid without an open neighbour",
                    ));
                };
                claimed[d] = avail_local[d] - x;
                own_remaining[d] = 0;
                open[d] = false;
                if x > 0 {
                    partner[l] = Some(d);
                    partner_ways[l] = x;
                    partner[d] = Some(l);
                    tracer.emit(|| EventKind::ShareTaken {
                        core: base + l,
                        bank: topo.local_bank(gcore(d)).index(),
                        ways: x,
                        mu,
                    });
                    tracer.emit(|| EventKind::RuleApplied {
                        rule: 3,
                        core: base + l,
                        bank: topo.local_bank(gcore(d)).index(),
                    });
                }
                took_share[l] = true;
                assumed_ways[l] += x;
            }
            _ => {
                // No positive-utility growth left: every open core keeps the
                // remainder of its own bank (nobody else may use it).
                for l in 0..k {
                    if open[l] {
                        claimed[l] += own_remaining[l];
                        own_remaining[l] = 0;
                        open[l] = false;
                    }
                }
                break;
            }
        }
    }

    // ---- Defensive check: nobody may leave with zero capacity. ----
    // The pre-bid rescue pass guarantees every core either owns usable Local
    // ways, a reserved share in a neighbour's bank, or a transferred Center
    // bank; if that invariant ever breaks, fail typed rather than emit an
    // invalid plan.
    for l in 0..k {
        if !complete[l] && claimed[l] == 0 {
            return Err(PartitionError::NoUsableCapacity { core: base + l });
        }
    }

    // ---- Emit the sub-plan, closest banks first. ----
    let mut per_core = Vec::with_capacity(k);
    for l in 0..k {
        let core = gcore(l);
        let own_bank = topo.local_bank(core);
        let mut allocs = Vec::new();
        if complete[l] {
            if avail_local[l] > 0 {
                allocs.push(BankAllocation {
                    bank: own_bank,
                    ways: bank_ways,
                });
            }
            let mut centers = centers_of[l].clone();
            centers.sort_by_key(|&b| topo.hops(core, b));
            for b in centers {
                allocs.push(BankAllocation {
                    bank: b,
                    ways: bank_ways,
                });
            }
            // An annexed fraction of a neighbour's Local bank (the
            // fractional second aggregation level of Fig. 4(c)).
            if partner_ways[l] > 0 {
                let Some(d) = partner[l] else {
                    return Err(PartitionError::Internal("partner ways without a partner"));
                };
                allocs.push(BankAllocation {
                    bank: topo.local_bank(gcore(d)),
                    ways: partner_ways[l],
                });
            }
        } else {
            let own_ways = claimed[l] - partner_ways[l];
            if own_ways > 0 {
                allocs.push(BankAllocation {
                    bank: own_bank,
                    ways: own_ways,
                });
            }
            if partner_ways[l] > 0 {
                let Some(d) = partner[l] else {
                    return Err(PartitionError::Internal("partner ways without a partner"));
                };
                allocs.push(BankAllocation {
                    bank: topo.local_bank(gcore(d)),
                    ways: partner_ways[l],
                });
            }
        }
        per_core.push((base + l, allocs));
    }
    Ok(ClusterSolution { cluster, per_core })
}

/// Check the Bank-aware physical rules on a plan for a healthy machine.
/// Returns the first violation as a typed [`PlanError`].
pub fn validate_bank_rules(plan: &PartitionPlan, topo: &Topology) -> Result<(), PlanError> {
    validate_bank_rules_masked(plan, &DegradedTopology::healthy(topo.clone()))
}

/// Check the Bank-aware physical rules against a degraded machine:
///
/// * offline banks must carry **no** allocations;
/// * healthy banks obey Rules 1–3 and are fully assigned;
/// * Rule 2 (a Center-holder owns its full Local bank) is waived when the
///   holder's Local bank is itself offline.
///
/// With a full mask this is exactly the healthy [`validate_bank_rules`].
pub fn validate_bank_rules_masked(
    plan: &PartitionPlan,
    machine: &DegradedTopology,
) -> Result<(), PlanError> {
    validate_bank_rules_masked_with(plan, machine, &plan.bank_usage())
}

/// [`validate_bank_rules_masked`] against a caller-supplied
/// [`bap_cache::BankUsage`]: one pass over the allocation lists, then
/// O(1)-ish per bank. The naive per-bank plan queries would rescan every
/// core's list and turn this validator quadratic on large floorplans (it
/// sits on the epoch decision path, so that cost is paid every
/// repartition).
pub(crate) fn validate_bank_rules_masked_with(
    plan: &PartitionPlan,
    machine: &DegradedTopology,
    usage: &bap_cache::BankUsage,
) -> Result<(), PlanError> {
    let topo = machine.topology();
    let bank_ways = plan.bank_ways;
    let rule = |rule: u8, detail: String| PlanError::RuleViolation { rule, detail };
    for b in 0..plan.num_banks {
        let bank = BankId(b as u16);
        if !machine.is_healthy(bank) {
            if usage.ways_used(bank) != 0 {
                return Err(rule(0, format!("offline {bank} has allocations")));
            }
            continue;
        }
        let owners = usage.owners(bank);
        match topo.bank_kind(bank) {
            BankKind::Center => {
                if owners.len() > 1 {
                    let sharers: Vec<CoreId> = owners.iter().map(|(c, _)| *c).collect();
                    return Err(rule(1, format!("{bank} (Center) shared by {sharers:?}")));
                }
                if let Some(&(c, ways)) = owners.first() {
                    if ways != bank_ways {
                        return Err(rule(
                            1,
                            format!("{bank} (Center) partially assigned to {c}"),
                        ));
                    }
                    // Rule 2: a Center holder owns its full Local bank —
                    // unless that bank is offline.
                    let local = topo.local_bank(c);
                    if machine.is_healthy(local) && usage.ways_of(c, local) != bank_ways {
                        return Err(rule(
                            2,
                            format!("{c} holds {bank} but not its full Local bank"),
                        ));
                    }
                }
            }
            BankKind::Local { home } => {
                if owners.len() > 2 {
                    return Err(rule(
                        3,
                        format!("{bank} (Local) has {} sharers", owners.len()),
                    ));
                }
                for &(c, _) in owners {
                    if c != home && !topo.adjacent(c, home) {
                        return Err(rule(
                            3,
                            format!("{bank} (Local of {home}) shared with non-adjacent {c}"),
                        ));
                    }
                }
            }
        }
        if usage.ways_used(bank) != bank_ways {
            return Err(rule(
                0,
                format!(
                    "{bank} not fully assigned: {} of {bank_ways} ways",
                    usage.ways_used(bank)
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bap_types::BankMask;

    fn topo() -> Topology {
        Topology::baseline()
    }

    /// Linear-to-knee curve.
    fn knee(base: f64, floor: f64, knee_ways: usize) -> MissRatioCurve {
        let misses = (0..=128)
            .map(|w| {
                if w >= knee_ways {
                    floor
                } else {
                    base - (base - floor) * w as f64 / knee_ways as f64
                }
            })
            .collect();
        MissRatioCurve::from_misses(misses, base.max(1.0))
    }

    fn run(curves: Vec<MissRatioCurve>) -> PartitionPlan {
        bank_aware_partition(&curves, &topo(), 8, &BankAwareConfig::default())
    }

    fn degraded(disabled: &[u16]) -> DegradedTopology {
        let mut mask = BankMask::all_healthy(16);
        for &b in disabled {
            mask.disable(BankId(b));
        }
        DegradedTopology::new(topo(), mask)
    }

    #[test]
    fn equal_workloads_get_two_banks_each() {
        let plan = run(vec![knee(1000.0, 10.0, 40); 8]);
        validate_bank_rules(&plan, &topo()).unwrap();
        for c in CoreId::all(8) {
            assert_eq!(plan.ways_of(c), 16, "{plan}");
        }
    }

    #[test]
    fn all_capacity_is_always_assigned() {
        let plan = run(vec![knee(100.0, 1.0, 6); 8]);
        assert_eq!(plan.total_ways_used(), 128);
        validate_bank_rules(&plan, &topo()).unwrap();
    }

    #[test]
    fn hungry_core_collects_center_banks_up_to_cap() {
        let mut curves = vec![knee(50.0, 45.0, 4); 8];
        curves[0] = knee(1_000_000.0, 0.0, 128);
        let plan = run(curves);
        validate_bank_rules(&plan, &topo()).unwrap();
        // 9/16 cap: at most 72 ways (local + 8 centers).
        assert_eq!(plan.ways_of(CoreId(0)), 72, "{plan}");
    }

    #[test]
    fn small_core_cedes_local_ways_to_adjacent_hungry_one() {
        // Distant center magnets (cores 0, 5, 6, 7) soak up all eight
        // Center banks; cores 1–4 must settle the Local region way-wise.
        // Core 2 is tiny, core 3 wants ~12 ways.
        let mut curves = Vec::new();
        for c in 0..8 {
            curves.push(match c {
                1 | 4 => knee(50_000.0, 100.0, 16), // moderate
                2 => knee(100.0, 0.0, 2),           // satisfied with 2 ways
                3 => knee(100_000.0, 100.0, 12),    // wants 12
                _ => knee(500_000.0, 1000.0, 24),   // center magnets
            });
        }
        let plan = run(curves);
        validate_bank_rules(&plan, &topo()).unwrap();
        let w2 = plan.ways_of(CoreId(2));
        let w3 = plan.ways_of(CoreId(3));
        assert!(w3 >= 11, "hungry neighbour took the slack: {plan}");
        assert!(w2 <= 6, "tiny core ceded its bank: {plan}");
        // Core 3's allocation stays within the Local region around it.
        for a in &plan.per_core[3] {
            assert!(
                [BankId(2), BankId(3), BankId(4)].contains(&a.bank),
                "{plan}"
            );
        }
    }

    #[test]
    fn center_banks_always_whole_and_rule2_holds() {
        let mut curves = vec![knee(1000.0, 10.0, 30); 8];
        curves[5] = knee(2000.0, 5.0, 50);
        let plan = run(curves);
        validate_bank_rules(&plan, &topo()).unwrap();
        for b in topo().center_banks() {
            let owners = plan.cores_in_bank(b);
            assert!(owners.len() <= 1);
        }
    }

    #[test]
    fn local_sharing_is_adjacent_only() {
        // Alternating hungry/tiny pattern forces lots of local sharing.
        let curves: Vec<_> = (0..8)
            .map(|c| {
                if c % 2 == 0 {
                    knee(50_000.0, 50.0, 14)
                } else {
                    knee(10.0, 0.0, 1)
                }
            })
            .collect();
        let plan = run(curves);
        validate_bank_rules(&plan, &topo()).unwrap();
    }

    #[test]
    fn every_core_keeps_at_least_min_ways() {
        let mut curves = vec![knee(0.0, 0.0, 1); 8];
        curves[0] = knee(1_000_000.0, 0.0, 72);
        let plan = run(curves);
        for c in CoreId::all(8) {
            assert!(plan.ways_of(c) >= 1, "{plan}");
        }
    }

    #[test]
    fn deterministic() {
        let curves: Vec<_> = (0..8)
            .map(|c| knee(1000.0 + c as f64, 5.0, 10 + c))
            .collect();
        let a = run(curves.clone());
        let b = run(curves);
        assert_eq!(a, b);
    }

    #[test]
    fn plan_order_is_closest_first() {
        let mut curves = vec![knee(10.0, 9.0, 2); 8];
        curves[4] = knee(1_000_000.0, 0.0, 40);
        let plan = run(curves);
        let allocs = &plan.per_core[4];
        assert_eq!(allocs[0].bank, BankId(4), "own local bank first");
        let t = topo();
        let hops: Vec<u64> = allocs.iter().map(|a| t.hops(CoreId(4), a.bank)).collect();
        for w in hops.windows(2) {
            assert!(w[0] <= w[1], "banks ordered by distance: {hops:?}");
        }
    }

    #[test]
    fn full_mask_is_bit_identical_to_healthy_solver() {
        let curves: Vec<_> = (0..8)
            .map(|c| knee(1000.0 + 37.0 * c as f64, 5.0, 8 + 3 * c))
            .collect();
        let healthy = run(curves.clone());
        let via_mask =
            try_bank_aware_partition(&curves, &degraded(&[]), 8, &BankAwareConfig::default())
                .unwrap();
        assert_eq!(healthy, via_mask, "degraded path is zero-cost when healthy");
    }

    #[test]
    fn single_center_bank_offline() {
        let machine = degraded(&[9]);
        let curves = vec![knee(1000.0, 10.0, 40); 8];
        let plan =
            try_bank_aware_partition(&curves, &machine, 8, &BankAwareConfig::default()).unwrap();
        validate_bank_rules_masked(&plan, &machine).unwrap();
        assert_eq!(plan.total_ways_used(), 15 * 8);
        assert!(plan.validate_against_mask(machine.mask()).is_ok());
    }

    #[test]
    fn single_local_bank_offline_rescues_home_core() {
        // Bank 0 is core 0's Local bank. With a modest curve core 0 wins no
        // Center bank, so it must reach capacity through its neighbour.
        let machine = degraded(&[0]);
        let mut curves = vec![knee(1000.0, 10.0, 40); 8];
        curves[0] = knee(100.0, 90.0, 2); // too small to win a Center
        let plan =
            try_bank_aware_partition(&curves, &machine, 8, &BankAwareConfig::default()).unwrap();
        validate_bank_rules_masked(&plan, &machine).unwrap();
        assert_eq!(plan.total_ways_used(), 15 * 8);
        assert!(plan.ways_of(CoreId(0)) >= 1, "rescued: {plan}");
        for a in &plan.per_core[0] {
            assert_ne!(a.bank, BankId(0), "nothing allocated on the dead bank");
        }
    }

    #[test]
    fn dead_local_core_may_still_win_centers() {
        let machine = degraded(&[3]);
        let mut curves = vec![knee(100.0, 90.0, 2); 8];
        curves[3] = knee(1_000_000.0, 0.0, 128); // hungry, dead Local bank
        let plan =
            try_bank_aware_partition(&curves, &machine, 8, &BankAwareConfig::default()).unwrap();
        validate_bank_rules_masked(&plan, &machine).unwrap();
        // Rule 2 waived: core 3 holds Centers without a Local bank.
        assert!(plan.ways_of(CoreId(3)) >= 8, "{plan}");
        assert_eq!(plan.total_ways_used(), 15 * 8);
    }

    #[test]
    fn multiple_banks_offline() {
        let machine = degraded(&[1, 9, 14]);
        let curves: Vec<_> = (0..8)
            .map(|c| knee(1000.0 + 10.0 * c as f64, 5.0, 10 + c))
            .collect();
        let plan =
            try_bank_aware_partition(&curves, &machine, 8, &BankAwareConfig::default()).unwrap();
        validate_bank_rules_masked(&plan, &machine).unwrap();
        assert_eq!(plan.total_ways_used(), 13 * 8);
        for c in CoreId::all(8) {
            assert!(plan.ways_of(c) >= 1, "{plan}");
        }
    }

    #[test]
    fn stranded_core_is_a_typed_error_not_a_panic() {
        // Core 0's Local bank and its only neighbour's are both dead; with
        // a tiny curve core 0 cannot win a Center either.
        let machine = degraded(&[0, 1]);
        let mut curves = vec![knee(1000.0, 10.0, 40); 8];
        curves[0] = knee(1.0, 0.0, 1);
        curves[1] = knee(1.0, 0.0, 1);
        let r = try_bank_aware_partition(&curves, &machine, 8, &BankAwareConfig::default());
        match r {
            Ok(plan) => {
                // If the solver still found a legal home (via Centers),
                // the plan must be fully valid.
                validate_bank_rules_masked(&plan, &machine).unwrap();
            }
            Err(e) => assert!(
                matches!(e, PartitionError::NoUsableCapacity { .. }),
                "unexpected error: {e}"
            ),
        }
    }

    #[test]
    fn curve_count_mismatch_is_typed() {
        let curves = vec![knee(10.0, 1.0, 4); 3];
        let err = try_bank_aware_partition(&curves, &degraded(&[]), 8, &BankAwareConfig::default())
            .unwrap_err();
        assert_eq!(
            err,
            PartitionError::CurveCountMismatch {
                curves: 3,
                cores: 8
            }
        );
        assert!(err.to_string().contains("3 curves"));
    }

    #[test]
    fn no_healthy_capacity_is_typed() {
        let machine = degraded(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
        let curves = vec![knee(10.0, 1.0, 4); 8];
        let err = try_bank_aware_partition(&curves, &machine, 8, &BankAwareConfig::default())
            .unwrap_err();
        assert!(matches!(err, PartitionError::InsufficientCapacity { .. }));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random monotone miss curves for 8 cores.
        fn curve_strategy() -> impl Strategy<Value = MissRatioCurve> {
            (
                proptest::collection::vec(0.0f64..200.0, 72),
                1000.0f64..100_000.0,
            )
                .prop_map(|(drops, base)| {
                    let mut misses = vec![base];
                    for d in drops {
                        let last = *misses.last().expect("non-empty");
                        misses.push((last - d).max(0.0));
                    }
                    MissRatioCurve::from_misses(misses, base)
                })
        }

        /// Possibly-hostile curves: monotone, flat, non-monotone spikes,
        /// NaN-laced.
        fn adversarial_curve_strategy() -> impl Strategy<Value = MissRatioCurve> {
            proptest::collection::vec(
                prop_oneof![
                    6 => 0.0f64..10_000.0,
                    1 => Just(f64::NAN),
                    1 => Just(f64::INFINITY),
                ],
                1..100,
            )
            .prop_map(|misses| MissRatioCurve::from_misses(misses, 1000.0))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Whatever the curves, the plan is complete, structurally
            /// valid and obeys all three physical banking rules.
            #[test]
            fn plan_always_respects_bank_rules(
                curves in proptest::collection::vec(curve_strategy(), 8)
            ) {
                let topo = Topology::baseline();
                let plan = bank_aware_partition(&curves, &topo, 8, &BankAwareConfig::default());
                prop_assert_eq!(plan.total_ways_used(), 128);
                if let Err(e) = validate_bank_rules(&plan, &topo) {
                    return Err(TestCaseError::fail(e.to_string()));
                }
                for c in CoreId::all(8) {
                    prop_assert!(plan.ways_of(c) >= 1);
                    prop_assert!(plan.ways_of(c) <= 72, "9/16 cap");
                }
            }

            /// The bank-aware projection never beats the unrestricted one
            /// (it solves a strictly more constrained problem), and never
            /// does worse than the equal split by more than the coarsest
            /// bank granularity effect allows.
            #[test]
            fn bank_aware_between_unrestricted_and_equal_mostly(
                curves in proptest::collection::vec(curve_strategy(), 8)
            ) {
                let topo = Topology::baseline();
                let plan = bank_aware_partition(&curves, &topo, 8, &BankAwareConfig::default());
                let unres = crate::unrestricted::unrestricted_partition(&curves, 128, 1, 72);
                let project = |alloc: &[usize]| -> f64 {
                    curves.iter().zip(alloc).map(|(c, &w)| c.misses_at(w)).sum()
                };
                let ba: Vec<usize> =
                    (0..8).map(|c| plan.ways_of(CoreId(c as u16))).collect();
                prop_assert!(project(&unres) <= project(&ba) + 1e-6);
            }

            /// Over random degraded machines (0–8 banks offline) the solver
            /// never panics; whenever it yields a plan, the plan allocates
            /// healthy banks only, obeys the masked rules and conserves
            /// exactly the healthy capacity.
            #[test]
            fn degraded_solver_never_panics_and_plans_stay_valid(
                curves in proptest::collection::vec(curve_strategy(), 8),
                dead in proptest::collection::vec(0u16..16, 0..=8),
            ) {
                let mut mask = BankMask::all_healthy(16);
                for &b in &dead {
                    mask.disable(BankId(b));
                }
                let machine = DegradedTopology::new(Topology::baseline(), mask);
                match try_bank_aware_partition(&curves, &machine, 8, &BankAwareConfig::default()) {
                    Ok(plan) => {
                        if let Err(e) = validate_bank_rules_masked(&plan, &machine) {
                            return Err(TestCaseError::fail(e.to_string()));
                        }
                        prop_assert!(plan.validate_against_mask(machine.mask()).is_ok());
                        prop_assert_eq!(
                            plan.total_ways_used(),
                            machine.num_healthy_banks() * 8,
                            "healthy capacity conserved"
                        );
                    }
                    Err(_) => {
                        // A typed refusal is acceptable under degradation —
                        // the controller's ladder handles it. It must only
                        // happen with banks actually offline.
                        prop_assert!(!dead.is_empty(), "healthy solve cannot fail");
                    }
                }
            }

            /// Hostile curves (NaN-laced, spiked, flat) never panic the
            /// solver, and sanitized curves always solve on a healthy
            /// machine.
            #[test]
            fn adversarial_curves_never_panic(
                curves in proptest::collection::vec(adversarial_curve_strategy(), 8),
            ) {
                let machine = DegradedTopology::healthy(Topology::baseline());
                let cfg = BankAwareConfig::default();
                if let Ok(plan) = try_bank_aware_partition(&curves, &machine, 8, &cfg) {
                    prop_assert!(validate_bank_rules_masked(&plan, &machine).is_ok());
                }
                // The controller's path: sanitize first, then solve.
                let mut cleaned = curves.clone();
                for c in &mut cleaned {
                    c.sanitize();
                }
                let plan = try_bank_aware_partition(&cleaned, &machine, 8, &cfg);
                prop_assert!(plan.is_ok(), "sanitized curves always solve: {:?}", plan.err());
                let plan = plan.expect("checked");
                if let Err(e) = validate_bank_rules_masked(&plan, &machine) {
                    return Err(TestCaseError::fail(e.to_string()));
                }
                prop_assert_eq!(plan.total_ways_used(), 128);
            }
        }
    }

    #[test]
    fn validate_bank_rules_catches_violations() {
        // Hand-build a plan sharing a Center bank: must be rejected.
        let mut plan = PartitionPlan::empty(8, 16, 8);
        for c in 0..8 {
            plan.per_core[c].push(BankAllocation {
                bank: BankId(c as u16),
                ways: 8,
            });
        }
        for c in 0..6 {
            plan.per_core[c].push(BankAllocation {
                bank: BankId(8 + c as u16),
                ways: 8,
            });
        }
        plan.per_core[6].push(BankAllocation {
            bank: BankId(14),
            ways: 4,
        });
        plan.per_core[7].push(BankAllocation {
            bank: BankId(14),
            ways: 4,
        });
        plan.per_core[7].push(BankAllocation {
            bank: BankId(15),
            ways: 8,
        });
        let err = validate_bank_rules(&plan, &topo()).unwrap_err();
        assert!(err.to_string().contains("Center"), "{err}");
        assert!(matches!(err, PlanError::RuleViolation { rule: 1, .. }));
    }

    #[test]
    fn masked_rules_reject_allocations_on_offline_banks() {
        let plan = PartitionPlan::equal(8, 16, 8);
        let machine = degraded(&[5]);
        let err = validate_bank_rules_masked(&plan, &machine).unwrap_err();
        assert!(matches!(err, PlanError::RuleViolation { rule: 0, .. }));
        assert!(err.to_string().contains("offline"), "{err}");
    }

    mod clustered {
        use super::*;
        use proptest::prelude::*;

        fn ring(cores: usize) -> Topology {
            Topology::ring_of_paper_dies(cores)
        }

        #[test]
        fn allocations_never_leave_the_owning_cluster() {
            // 32 cores: 4 ring clusters of 8 (each the paper's die).
            let t = ring(32);
            let curves: Vec<_> = (0..32)
                .map(|c| knee(1000.0 + 13.0 * c as f64, 5.0, 8 + c % 24))
                .collect();
            let plan = bank_aware_partition(&curves, &t, 8, &BankAwareConfig::default());
            validate_bank_rules(&plan, &t).unwrap();
            assert_eq!(plan.total_ways_used(), 64 * 8);
            for c in CoreId::all(32) {
                let cl = t.cluster_of_core(c);
                for a in &plan.per_core[c.index()] {
                    assert_eq!(
                        t.cluster_of_bank(a.bank),
                        cl,
                        "{c} reaches into a foreign cluster"
                    );
                }
            }
        }

        #[test]
        fn capacity_cap_is_per_cluster() {
            // A hungry core collects at most 9/16 of its *own* cluster —
            // the same 72-way cap the paper's single die enforces.
            let t = ring(32);
            let mut curves = vec![knee(50.0, 45.0, 4); 32];
            curves[0] = knee(1_000_000.0, 0.0, 128);
            curves[17] = knee(1_000_000.0, 0.0, 128);
            let plan = bank_aware_partition(&curves, &t, 8, &BankAwareConfig::default());
            validate_bank_rules(&plan, &t).unwrap();
            assert_eq!(plan.ways_of(CoreId(0)), 72, "{plan}");
            assert_eq!(plan.ways_of(CoreId(17)), 72, "{plan}");
        }

        #[test]
        fn untraced_and_traced_shard_solves_merge_identically() {
            // The untraced and the traced solve must merge to the
            // identical plan, and the merge events come in ascending
            // cluster order.
            let machine = DegradedTopology::healthy(ring(64));
            let curves: Vec<_> = (0..64)
                .map(|c| knee(2000.0 + 31.0 * c as f64, 5.0, 4 + c % 40))
                .collect();
            let cfg = BankAwareConfig::default();
            let untraced = try_bank_aware_partition(&curves, &machine, 8, &cfg).unwrap();
            let tracer = Tracer::ring();
            let traced =
                try_bank_aware_partition_traced(&curves, &machine, 8, &cfg, &tracer).unwrap();
            assert_eq!(untraced, traced);
            let merges: Vec<usize> = tracer
                .drain_events()
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::ShardMerge { cluster, .. } => Some(cluster),
                    _ => None,
                })
                .collect();
            assert_eq!(merges, (0..8).collect::<Vec<_>>());
        }

        #[test]
        fn degraded_cluster_shrinks_only_its_own_capacity() {
            let t = ring(32);
            let mut mask = BankMask::all_healthy(64);
            mask.disable(BankId(41)); // a Center bank of cluster 1
            let machine = DegradedTopology::new(t, mask);
            let curves = vec![knee(1000.0, 10.0, 40); 32];
            let plan = try_bank_aware_partition(&curves, &machine, 8, &BankAwareConfig::default())
                .unwrap();
            validate_bank_rules_masked(&plan, &machine).unwrap();
            assert_eq!(plan.total_ways_used(), 63 * 8);
            // Clusters 0, 2, 3 still split 16 banks over 8 cores each.
            for cl in [0usize, 2, 3] {
                let ways: usize = (cl * 8..cl * 8 + 8)
                    .map(|c| plan.ways_of(CoreId::from_index(c)))
                    .sum();
                assert_eq!(ways, 128, "cluster {cl} unaffected");
            }
        }

        #[test]
        fn budget_exhaustion_is_typed_on_clustered_floorplans() {
            let machine = DegradedTopology::healthy(ring(32));
            let curves = vec![knee(1000.0, 10.0, 40); 32];
            let err = try_bank_aware_partition_budgeted(
                &curves,
                &machine,
                8,
                &BankAwareConfig::default(),
                &Tracer::off(),
                SolveBudget::steps(1),
            )
            .unwrap_err();
            assert!(
                matches!(err, PartitionError::BudgetExhausted { .. }),
                "{err:?}"
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Random curves on the 32-core ring: the merged plan is
            /// complete, rule-valid, cluster-confined, and identical to
            /// the serial traced solve.
            #[test]
            fn clustered_plans_stay_valid_and_deterministic(
                seeds in proptest::collection::vec(0.0f64..5000.0, 32)
            ) {
                let t = ring(32);
                let curves: Vec<_> = seeds
                    .iter()
                    .enumerate()
                    .map(|(c, &s)| knee(1000.0 + s, 5.0, 2 + (c * 7 + s as usize) % 40))
                    .collect();
                let machine = DegradedTopology::healthy(t.clone());
                let cfg = BankAwareConfig::default();
                let plan = try_bank_aware_partition(&curves, &machine, 8, &cfg).unwrap();
                prop_assert_eq!(plan.total_ways_used(), 64 * 8);
                if let Err(e) = validate_bank_rules(&plan, &t) {
                    return Err(TestCaseError::fail(e.to_string()));
                }
                for c in CoreId::all(32) {
                    for a in &plan.per_core[c.index()] {
                        prop_assert_eq!(
                            t.cluster_of_bank(a.bank),
                            t.cluster_of_core(c)
                        );
                    }
                }
                let tracer = Tracer::ring();
                let serial =
                    try_bank_aware_partition_traced(&curves, &machine, 8, &cfg, &tracer)
                        .unwrap();
                prop_assert_eq!(plan, serial);
            }
        }
    }

    fn budgeted(
        curves: &[MissRatioCurve],
        budget: SolveBudget,
        tracer: &bap_trace::Tracer,
    ) -> Result<PartitionPlan, PartitionError> {
        try_bank_aware_partition_budgeted(
            curves,
            &DegradedTopology::healthy(topo()),
            8,
            &BankAwareConfig::default(),
            tracer,
            budget,
        )
    }

    #[test]
    fn unlimited_budget_is_bit_identical() {
        let curves: Vec<MissRatioCurve> = (0..8)
            .map(|c| knee(1000.0 + 37.0 * c as f64, 10.0, 8 + 4 * c))
            .collect();
        let classic = run(curves.clone());
        let budgeted_plan = budgeted(&curves, SolveBudget::unlimited(), &Tracer::off()).unwrap();
        assert_eq!(classic, budgeted_plan);
    }

    #[test]
    fn center_phase_exhaustion_sheds_typed() {
        // Eight equal hungry workloads: Center banks are granted one per
        // round, so a one-step budget trips at the top of round two with
        // free Centers still on the table.
        let curves = vec![knee(1000.0, 10.0, 40); 8];
        let err = budgeted(&curves, SolveBudget::steps(1), &Tracer::off()).unwrap_err();
        assert!(
            matches!(err, PartitionError::BudgetExhausted { steps } if steps >= 1),
            "unexpected: {err:?}"
        );
        assert!(err.to_string().contains("budget exhausted"), "{err}");
    }

    #[test]
    fn local_phase_exhaustion_checkpoints_to_a_valid_plan() {
        // Find a budget that clears the Center phase but trips during the
        // Local bidding: scan upward until the solve stops failing typed;
        // the first success must be a checkpointed close-out or the real
        // fixed point, and in both cases a complete rule-valid plan.
        let curves: Vec<MissRatioCurve> = (0..8)
            .map(|c| knee(1000.0 + 37.0 * c as f64, 10.0, 8 + 4 * c))
            .collect();
        let full = run(curves.clone());
        let mut saw_checkpoint = false;
        for max_steps in (50..5000).step_by(50) {
            let tracer = Tracer::ring();
            match budgeted(&curves, SolveBudget::steps(max_steps), &tracer) {
                Err(PartitionError::BudgetExhausted { .. }) => continue,
                Err(e) => panic!("budget must not corrupt the solve: {e:?}"),
                Ok(plan) => {
                    validate_bank_rules(&plan, &topo()).unwrap();
                    assert_eq!(plan.total_ways_used(), 128);
                    let events = tracer.drain_events();
                    let checkpointed = events
                        .iter()
                        .any(|e| matches!(e.kind, EventKind::SolverCheckpoint { .. }));
                    if checkpointed {
                        // A checkpointed plan may even coincide with the
                        // converged one (an Own grant only moves ways the
                        // closure would hand the same core anyway); what
                        // matters is that it is complete and rule-valid,
                        // asserted above.
                        saw_checkpoint = true;
                    } else {
                        // Once the budget covers the whole solve the plan is
                        // the classic one.
                        assert_eq!(plan, full);
                        break;
                    }
                }
            }
        }
        assert!(saw_checkpoint, "no budget value hit the Local phase");
    }

    #[test]
    fn checkpoint_emits_exactly_once() {
        let curves: Vec<MissRatioCurve> = (0..8)
            .map(|c| knee(1000.0 + 37.0 * c as f64, 10.0, 8 + 4 * c))
            .collect();
        for max_steps in (50..5000).step_by(50) {
            let tracer = Tracer::ring();
            if budgeted(&curves, SolveBudget::steps(max_steps), &tracer).is_ok() {
                let events = tracer.drain_events();
                let checkpoints = events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::SolverCheckpoint { .. }))
                    .count();
                assert!(checkpoints <= 1, "checkpoint close-out must emit once");
            }
        }
    }
}
