//! Incremental (warm-start) Bank-aware solving.
//!
//! On clustered floorplans the Fig. 6 solve decomposes exactly into
//! independent per-cluster shards (see the cluster-sharding notes in
//! [`crate::bank_aware`]). Consecutive epochs rarely move every core's
//! miss-ratio curve at once, so most shards re-derive the sub-plan they
//! produced last epoch. The [`IncrementalSolver`] exploits that: it keeps
//! the previous epoch's per-cluster sub-plans together with the curves they
//! were solved against, classifies each cluster *dirty* or *clean* by how
//! far its cores' curves have moved, re-solves only the dirty shards and
//! splices the cached sub-plans in for the rest.
//!
//! # Equivalence contract
//!
//! With `delta_threshold == 0.0` (the default) a cluster is reused only
//! when its curves are **bit-for-bit unchanged** since its last re-solve.
//! The per-cluster solve is a deterministic function of (curves, mask,
//! config), so the reused sub-plan is exactly what a fresh solve would have
//! produced and the merged plan is identical to the full solve — warm
//! starts at threshold 0 are a pure latency optimisation, and the golden
//! figures and the offline trace replay gate hold bit-identically. The
//! property tests in this module and the replay gate in `exp_trace` pin
//! that contract down.
//!
//! # Safety fallbacks
//!
//! The warm state carries a fingerprint of everything the sub-solves read
//! besides the curves: topology shape, bank mask, bank ways and the solver
//! configuration. Any mismatch — first solve, mask transition after a bank
//! failure, reconfiguration — discards the cache and runs the full cold
//! solve. A failed solve also drops the cache, so an error can never leave
//! half-updated warm state behind.
//!
//! # Observability
//!
//! Every warm decision emits one [`EventKind::SolverDelta`] (how many
//! clusters were dirty and the largest curve movement observed) and one
//! [`EventKind::WarmStartHit`] per reused shard (with the cluster's current
//! reuse streak). [`IncrementalStats`] accumulates the same signals as
//! plain counters for untraced runs.

use crate::bank_aware::{
    merge_shards, solve_shards, validate_curve_inputs, BankAwareConfig, ClusterSolution,
    PartitionError, SolveBudget,
};
use bap_cache::PartitionPlan;
use bap_msa::MissRatioCurve;
use bap_trace::{EventKind, Tracer};
use bap_types::DegradedTopology;

/// Plain counters describing how much work warm starts saved. The numbers
/// surface in `RunResult` so experiments can report re-solve rates without
/// attaching a tracer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IncrementalStats {
    /// Solve requests routed through the incremental path.
    pub decisions: u64,
    /// Decisions that ran the full cold solve (no usable warm state).
    pub full_solves: u64,
    /// Individual cluster shards actually re-solved.
    pub cluster_solves: u64,
    /// Individual cluster shards reused from the warm cache.
    pub warm_hits: u64,
}

impl IncrementalStats {
    /// Fraction of cluster decisions that required a re-solve (1.0 until
    /// the first warm hit; 0.0 for a fully stationary workload after
    /// warm-up).
    pub fn resolve_rate(&self) -> f64 {
        let total = self.cluster_solves + self.warm_hits;
        if total == 0 {
            return 1.0;
        }
        self.cluster_solves as f64 / total as f64
    }
}

/// Everything the previous epoch's solve depended on, kept so the next
/// epoch can prove which clusters are unchanged.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
struct WarmState {
    /// The curves each cluster was last *re-solved* against (per core,
    /// global order). Clean clusters keep their baseline, so slow drift
    /// accumulates against it instead of hiding below the threshold one
    /// epoch at a time.
    curves: Vec<MissRatioCurve>,
    /// Bank-mask fingerprint at the last solve.
    mask_bits: u64,
    /// Topology shape at the last solve.
    num_cores: usize,
    num_banks: usize,
    clusters: usize,
    /// Cache geometry and solver configuration at the last solve.
    bank_ways: usize,
    cap_num: usize,
    cap_den: usize,
    min_ways: usize,
    /// The per-cluster sub-plans, ascending cluster order.
    solutions: Vec<ClusterSolution>,
    /// Consecutive epochs each cluster has been reused (0 right after a
    /// re-solve).
    streaks: Vec<u64>,
}

impl WarmState {
    /// Whether the cached state is still talking about the same machine
    /// and solver configuration.
    fn matches(&self, machine: &DegradedTopology, bank_ways: usize, cfg: &BankAwareConfig) -> bool {
        let topo = machine.topology();
        self.mask_bits == machine.mask().bits()
            && self.num_cores == topo.num_cores()
            && self.num_banks == topo.num_banks()
            && self.clusters == topo.num_clusters()
            && self.bank_ways == bank_ways
            && self.cap_num == cfg.max_capacity_num
            && self.cap_den == cfg.max_capacity_den
            && self.min_ways == cfg.min_ways
    }
}

/// The warm-start solver. One instance lives inside the controller; its
/// state serializes with the controller snapshot so checkpoint/restore
/// resumes warm.
#[derive(Clone, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct IncrementalSolver {
    warm: Option<WarmState>,
    stats: IncrementalStats,
}

impl IncrementalSolver {
    /// A cold solver with zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated warm-start statistics.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Zero the statistics (run boundaries), keeping the warm cache.
    pub fn reset_stats(&mut self) {
        self.stats = IncrementalStats::default();
    }

    /// Whether a warm cache is currently held.
    pub fn is_warm(&self) -> bool {
        self.warm.is_some()
    }

    /// Drop the warm cache; the next solve runs cold.
    pub fn invalidate(&mut self) {
        self.warm = None;
    }

    /// The incremental counterpart of
    /// [`crate::bank_aware::try_bank_aware_partition_budgeted`]: same
    /// inputs, same outputs, same error surface — plus the warm-start
    /// machinery described at module level. `delta_threshold` is the
    /// per-cluster curve-movement bound for reuse.
    #[allow(clippy::too_many_arguments)]
    pub fn solve(
        &mut self,
        curves: &[MissRatioCurve],
        machine: &DegradedTopology,
        bank_ways: usize,
        cfg: &BankAwareConfig,
        tracer: &Tracer,
        budget: SolveBudget,
        delta_threshold: f64,
    ) -> Result<PartitionPlan, PartitionError> {
        self.stats.decisions += 1;
        let curve_refs: Vec<&MissRatioCurve> = curves.iter().collect();
        // Bad inputs say nothing about the cached machine state; the warm
        // cache stays for the next well-formed request.
        validate_curve_inputs(&curve_refs, machine)?;
        let usable = self
            .warm
            .as_ref()
            .is_some_and(|w| w.matches(machine, bank_ways, cfg));
        if !usable {
            return self.cold_solve(&curve_refs, machine, bank_ways, cfg, tracer, budget);
        }

        // ---- Classify clusters by curve movement since their last solve. ----
        let topo = machine.topology();
        let clusters = topo.num_clusters();
        let k = topo.cluster_cores();
        let warm = self.warm.as_ref().expect("usable implies warm");
        let mut dirty: Vec<usize> = Vec::new();
        let mut is_dirty = vec![false; clusters];
        let mut max_delta = 0.0f64;
        for (cl, dirty_flag) in is_dirty.iter_mut().enumerate() {
            let cluster_cores = cl * k..(cl + 1) * k;
            let delta = if delta_threshold == 0.0 {
                // Exact-reuse mode: equality is the whole question, and a
                // bitwise compare beats integrating the ratio delta curve.
                // Unchanged clusters have movement 0 by definition, so
                // `max_delta` still reports the true maximum; the precise
                // movement only matters (and is only computed) for dirty
                // clusters.
                if cluster_cores.clone().all(|c| curves[c] == warm.curves[c]) {
                    0.0
                } else {
                    cluster_cores
                        .map(|c| curves[c].relative_delta(&warm.curves[c]))
                        .fold(0.0, f64::max)
                        .max(f64::MIN_POSITIVE)
                }
            } else {
                cluster_cores
                    .map(|c| curves[c].relative_delta(&warm.curves[c]))
                    .fold(0.0, f64::max)
            };
            max_delta = max_delta.max(delta);
            if delta > delta_threshold {
                dirty.push(cl);
                *dirty_flag = true;
            }
        }
        let dirty_clusters = dirty.len();
        tracer.emit(|| EventKind::SolverDelta {
            dirty_clusters,
            total_clusters: clusters,
            max_delta,
        });

        // ---- Re-solve the dirty shards only. ----
        let fresh = match solve_shards(&dirty, &curve_refs, machine, bank_ways, cfg, tracer, budget)
        {
            Ok(f) => f,
            Err(e) => {
                // A failing shard invalidates the whole cache: the caller's
                // recovery path (shed / degradation ladder) may change the
                // machine underneath us, and a stale splice is worse than a
                // cold re-solve next epoch.
                self.warm = None;
                return Err(e);
            }
        };

        // ---- Splice fresh and cached shards, ascending cluster order. ----
        let warm = self.warm.as_mut().expect("usable implies warm");
        let mut fresh_iter = fresh.into_iter();
        let mut solutions: Vec<ClusterSolution> = Vec::with_capacity(clusters);
        for (cl, &cluster_dirty) in is_dirty.iter().enumerate() {
            if cluster_dirty {
                let sol = fresh_iter.next().expect("one solution per dirty shard");
                warm.curves[cl * k..(cl + 1) * k].clone_from_slice(&curves[cl * k..(cl + 1) * k]);
                warm.streaks[cl] = 0;
                warm.solutions[cl] = sol.clone();
                self.stats.cluster_solves += 1;
                solutions.push(sol);
            } else {
                warm.streaks[cl] += 1;
                let streak = warm.streaks[cl];
                tracer.emit(|| EventKind::WarmStartHit {
                    cluster: cl,
                    streak,
                });
                self.stats.warm_hits += 1;
                solutions.push(warm.solutions[cl].clone());
            }
        }

        match merge_shards(&solutions, machine, bank_ways, tracer) {
            Ok(plan) => Ok(plan),
            Err(e) => {
                self.warm = None;
                Err(e)
            }
        }
    }

    /// Full solve of every shard, then (on success) prime the warm cache.
    fn cold_solve(
        &mut self,
        curve_refs: &[&MissRatioCurve],
        machine: &DegradedTopology,
        bank_ways: usize,
        cfg: &BankAwareConfig,
        tracer: &Tracer,
        budget: SolveBudget,
    ) -> Result<PartitionPlan, PartitionError> {
        self.warm = None;
        let topo = machine.topology();
        let clusters = topo.num_clusters();
        let ids: Vec<usize> = (0..clusters).collect();
        self.stats.full_solves += 1;
        let solutions = solve_shards(&ids, curve_refs, machine, bank_ways, cfg, tracer, budget)?;
        self.stats.cluster_solves += clusters as u64;
        let plan = merge_shards(&solutions, machine, bank_ways, tracer)?;
        self.warm = Some(WarmState {
            curves: curve_refs.iter().map(|&c| c.clone()).collect(),
            mask_bits: machine.mask().bits(),
            num_cores: topo.num_cores(),
            num_banks: topo.num_banks(),
            clusters,
            bank_ways,
            cap_num: cfg.max_capacity_num,
            cap_den: cfg.max_capacity_den,
            min_ways: cfg.min_ways,
            solutions,
            streaks: vec![0; clusters],
        });
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank_aware::try_bank_aware_partition_budgeted;
    use bap_types::{BankId, BankMask, Topology};
    use proptest::prelude::*;

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

    fn ring(cores: usize) -> DegradedTopology {
        DegradedTopology::healthy(Topology::ring_of_paper_dies(cores))
    }

    fn full_solve(curves: &[MissRatioCurve], machine: &DegradedTopology) -> PartitionPlan {
        try_bank_aware_partition_budgeted(
            curves,
            machine,
            8,
            &BankAwareConfig::default(),
            &Tracer::off(),
            SolveBudget::unlimited(),
        )
        .unwrap()
    }

    fn warm_solve(
        inc: &mut IncrementalSolver,
        curves: &[MissRatioCurve],
        machine: &DegradedTopology,
        tracer: &Tracer,
        threshold: f64,
    ) -> PartitionPlan {
        inc.solve(
            curves,
            machine,
            8,
            &BankAwareConfig::default(),
            tracer,
            SolveBudget::unlimited(),
            threshold,
        )
        .unwrap()
    }

    #[test]
    fn stationary_mix_stops_resolving_after_warmup() {
        let machine = ring(32);
        let curves: Vec<_> = (0..32)
            .map(|c| knee(1000.0 + 17.0 * c as f64, 5.0, 6 + c % 30))
            .collect();
        let oracle = full_solve(&curves, &machine);
        let mut inc = IncrementalSolver::new();
        for _ in 0..5 {
            let plan = warm_solve(&mut inc, &curves, &machine, &Tracer::off(), 0.0);
            assert_eq!(plan, oracle);
        }
        let stats = inc.stats();
        assert_eq!(stats.decisions, 5);
        assert_eq!(stats.full_solves, 1, "only the first epoch runs cold");
        assert_eq!(stats.cluster_solves, 4, "one cold pass over 4 clusters");
        assert_eq!(stats.warm_hits, 4 * 4, "all later epochs reuse all shards");
        assert_eq!(stats.resolve_rate(), 0.2);
    }

    #[test]
    fn dirty_cluster_is_resolved_clean_ones_reused() {
        let machine = ring(32);
        let mut curves: Vec<_> = (0..32)
            .map(|c| knee(1000.0 + 17.0 * c as f64, 5.0, 6 + c % 30))
            .collect();
        let mut inc = IncrementalSolver::new();
        let tracer = Tracer::ring();
        warm_solve(&mut inc, &curves, &machine, &tracer, 0.0);
        tracer.drain_events();
        // Move only core 20's curve: cluster 2 is dirty, 0/1/3 are clean.
        curves[20] = knee(50_000.0, 0.0, 60);
        let plan = warm_solve(&mut inc, &curves, &machine, &tracer, 0.0);
        assert_eq!(plan, full_solve(&curves, &machine));
        let stats = inc.stats();
        assert_eq!(stats.cluster_solves, 4 + 1);
        assert_eq!(stats.warm_hits, 3);
        let events = tracer.drain_events();
        let delta = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::SolverDelta {
                    dirty_clusters,
                    total_clusters,
                    max_delta,
                } => Some((*dirty_clusters, *total_clusters, *max_delta)),
                _ => None,
            })
            .expect("warm decisions report their dirtiness");
        assert_eq!((delta.0, delta.1), (1, 4));
        assert!(delta.2 > 0.0);
        let hits: Vec<usize> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::WarmStartHit { cluster, .. } => Some(cluster),
                _ => None,
            })
            .collect();
        assert_eq!(hits, vec![0, 1, 3]);
    }

    #[test]
    fn warm_hit_streaks_count_consecutive_reuses() {
        let machine = ring(16);
        let curves: Vec<_> = (0..16).map(|c| knee(900.0, 4.0, 5 + c)).collect();
        let mut inc = IncrementalSolver::new();
        let tracer = Tracer::ring();
        for _ in 0..4 {
            warm_solve(&mut inc, &curves, &machine, &tracer, 0.0);
        }
        let streaks: Vec<u64> = tracer
            .drain_events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::WarmStartHit { cluster: 0, streak } => Some(streak),
                _ => None,
            })
            .collect();
        assert_eq!(streaks, vec![1, 2, 3]);
    }

    #[test]
    fn mask_transition_falls_back_to_a_cold_solve() {
        let topo = Topology::ring_of_paper_dies(32);
        let healthy = DegradedTopology::healthy(topo.clone());
        let curves: Vec<_> = (0..32).map(|c| knee(1000.0, 10.0, 8 + c % 20)).collect();
        let mut inc = IncrementalSolver::new();
        warm_solve(&mut inc, &curves, &healthy, &Tracer::off(), 0.0);
        assert!(inc.is_warm());
        // A Center bank of cluster 1 dies: the fingerprint mismatch must
        // force a cold solve on the degraded machine.
        let mut mask = BankMask::all_healthy(64);
        mask.disable(BankId(41));
        let degraded = DegradedTopology::new(topo, mask);
        let plan = warm_solve(&mut inc, &curves, &degraded, &Tracer::off(), 0.0);
        assert_eq!(plan, full_solve(&curves, &degraded));
        assert_eq!(inc.stats().full_solves, 2);
    }

    #[test]
    fn below_threshold_drift_reuses_the_cached_plan() {
        let machine = ring(16);
        let curves: Vec<_> = (0..16).map(|c| knee(1000.0, 10.0, 8 + c)).collect();
        let mut inc = IncrementalSolver::new();
        let first = warm_solve(&mut inc, &curves, &machine, &Tracer::off(), 0.25);
        // A tiny wobble on every core: mean |Δmiss-ratio| stays far below
        // the 0.25 threshold, so nothing re-solves and the old plan holds.
        let wobbled: Vec<_> = (0..16).map(|c| knee(1001.0, 10.0, 8 + c)).collect();
        let second = warm_solve(&mut inc, &wobbled, &machine, &Tracer::off(), 0.25);
        assert_eq!(first, second);
        assert_eq!(inc.stats().warm_hits, 2);
        assert_eq!(inc.stats().cluster_solves, 2, "cold pass only");
        // Drift accumulates against the *baseline*, not the previous epoch:
        // a genuine phase change trips the threshold and re-solves. One
        // core per cluster turns voracious so the new plan is lopsided.
        let mut shifted: Vec<_> = (0..16).map(|_| knee(100.0, 60.0, 2)).collect();
        shifted[0] = knee(80_000.0, 0.0, 64);
        shifted[8] = knee(80_000.0, 0.0, 64);
        let third = warm_solve(&mut inc, &shifted, &machine, &Tracer::off(), 0.25);
        assert_eq!(third, full_solve(&shifted, &machine));
        assert_ne!(third, first);
    }

    #[test]
    fn failed_solve_clears_the_warm_cache() {
        let machine = ring(16);
        let curves: Vec<_> = (0..16).map(|c| knee(1000.0, 10.0, 8 + c)).collect();
        let mut inc = IncrementalSolver::new();
        warm_solve(&mut inc, &curves, &machine, &Tracer::off(), 0.0);
        assert!(inc.is_warm());
        // Perturb one cluster and starve the budget: the dirty shard fails.
        let mut moved = curves.clone();
        moved[0] = knee(90_000.0, 0.0, 50);
        let err = inc
            .solve(
                &moved,
                &machine,
                8,
                &BankAwareConfig::default(),
                &Tracer::off(),
                SolveBudget::steps(1),
                0.0,
            )
            .unwrap_err();
        assert!(matches!(err, PartitionError::BudgetExhausted { .. }));
        assert!(!inc.is_warm(), "an error must not leave stale warm state");
    }

    #[test]
    fn single_cluster_paper_die_works_warm() {
        // Chain topology: one cluster spanning the die — warm starts still
        // apply (the whole machine is the one shard).
        let machine = DegradedTopology::healthy(Topology::baseline());
        let curves: Vec<_> = (0..8).map(|c| knee(1000.0, 10.0, 8 + c * 6)).collect();
        let mut inc = IncrementalSolver::new();
        let a = warm_solve(&mut inc, &curves, &machine, &Tracer::off(), 0.0);
        let b = warm_solve(&mut inc, &curves, &machine, &Tracer::off(), 0.0);
        assert_eq!(a, b);
        assert_eq!(a, full_solve(&curves, &machine));
        assert_eq!(inc.stats().warm_hits, 1);
    }

    #[test]
    fn warm_state_survives_serde_round_trip() {
        let machine = ring(16);
        let curves: Vec<_> = (0..16).map(|c| knee(1000.0, 10.0, 8 + c)).collect();
        let mut inc = IncrementalSolver::new();
        warm_solve(&mut inc, &curves, &machine, &Tracer::off(), 0.0);
        let text = serde_json::to_string(&inc).unwrap();
        let mut restored: IncrementalSolver = serde_json::from_str(&text).unwrap();
        assert!(restored.is_warm());
        // The restored solver goes on reusing shards, no cold re-solve.
        let plan = warm_solve(&mut restored, &curves, &machine, &Tracer::off(), 0.0);
        assert_eq!(plan, full_solve(&curves, &machine));
        assert_eq!(restored.stats().full_solves, 1, "no new cold solve");
        assert_eq!(restored.stats().warm_hits, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The incremental equivalence contract: after any sequence of
        /// random per-core curve perturbations, the warm-start plan at
        /// threshold 0 is identical to the full-solve oracle.
        #[test]
        fn warm_start_matches_full_solve_under_random_perturbations(
            epochs in proptest::collection::vec(
                proptest::collection::vec((0usize..32, 100.0f64..60_000.0, 2usize..100), 0..6),
                1..6,
            )
        ) {
            let machine = ring(32);
            let mut curves: Vec<_> = (0..32)
                .map(|c| knee(1000.0 + 13.0 * c as f64, 5.0, 6 + c % 30))
                .collect();
            let mut inc = IncrementalSolver::new();
            for moves in epochs {
                for (core, base, ways) in moves {
                    curves[core] = knee(base, base * 0.01, ways);
                }
                let warm = warm_solve(&mut inc, &curves, &machine, &Tracer::off(), 0.0);
                let oracle = full_solve(&curves, &machine);
                prop_assert_eq!(warm, oracle);
            }
        }
    }
}
