//! Scalability — the paper's §I claim that the mechanism "can scale with
//! the number of cores".
//!
//! Two measurements per core count:
//!
//! * detailed-simulation miss reductions (8/16 cores only — the sizes the
//!   detailed model was validated at);
//! * the wall-clock cost of one repartitioning decision on a clustered
//!   ring floorplan, out to 256 cores, under three solver modes: sharded
//!   cold solve, warm-start (unchanged curves), and a sharded solve with
//!   two banks dead.
//!
//! `--cores 8,16,32` overrides the sweep; `--check` gates the 32-core
//! sharded decision time against the committed baseline (2× headroom) and
//! exits non-zero on a regression. Results land in
//! `results/BENCH_scalability.json`.

use bap_bench::common::{write_json, Args};
use bap_bench::mixes::monte_carlo_mixes;
use bap_core::{try_bank_aware_partition, BankAwareConfig, IncrementalSolver, Policy, SolveBudget};
use bap_msa::{MissRatioCurve, ProfilerConfig};
use bap_system::{profile_workloads, SimOptions, System};
use bap_trace::Tracer;
use bap_types::{BankId, BankMask, DegradedTopology, SystemConfig, Topology};
use bap_workloads::spec_by_name;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Committed reference point for the `--check` regression gate.
const BASELINE_JSON: &str = include_str!("../baselines/scalability_baseline.json");

/// The gate trips when the current time exceeds baseline × this factor.
const CHECK_HEADROOM: f64 = 2.0;

/// The ISSUE's headline target for a 128-core epoch decision.
const TARGET_128_US: f64 = 57.2;

#[derive(Serialize)]
struct ScaleRow {
    cores: usize,
    banks: usize,
    clusters: usize,
    /// The healthy-bank mask the degraded solves ran under.
    degraded_bank_mask: u64,
    /// Detailed-sim miss ratios; only populated at the validated sizes.
    ba_relative_to_none: Option<f64>,
    ba_relative_to_equal: Option<f64>,
    /// One cold decision, one shard per cluster.
    cold_sharded_us: f64,
    /// One warm decision with unchanged curves (every shard reused).
    warm_us: f64,
    /// Sharded cold decision with two banks offline.
    degraded_decision_us: f64,
    /// cold_sharded / warm.
    warm_speedup: f64,
}

#[derive(Deserialize)]
struct Baseline {
    cores: usize,
    cold_sharded_us: f64,
}

fn config_for(cores: usize, scale: u64) -> SystemConfig {
    let mut cfg = SystemConfig::scaled(scale);
    cfg.num_cores = cores;
    cfg.l2.num_banks = 2 * cores;
    cfg
}

/// Deterministic per-core synthetic curve for the timing sweep: a linear
/// ramp from `base` misses at zero ways down to a floor at the knee, flat
/// beyond. Knee position, height, and floor vary with the core index so
/// clusters are heterogeneous and the solver does real work.
fn synthetic_curve(core: usize, seed: u64) -> MissRatioCurve {
    let h = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((core as u64).wrapping_mul(0x0100_0000_01B3));
    let base = 40_000.0 + (h % 120_000) as f64;
    let knee = 2 + ((h >> 17) % 46) as usize;
    let floor = ((h >> 33) % 4_000) as f64;
    let misses = (0..=128)
        .map(|w| {
            if w >= knee {
                floor
            } else {
                base - (base - floor) * w as f64 / knee as f64
            }
        })
        .collect();
    MissRatioCurve::from_misses(misses, base.max(1.0) * 4.0)
}

/// Median-of-runs wall-clock for one call, in microseconds.
fn time_us<F: FnMut()>(iterations: usize, mut f: F) -> f64 {
    let mut samples = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Detailed three-policy simulation; returns (BA/none, BA/equal) miss
/// ratios. Only run at the sizes the detailed model targets.
fn detailed_ratios(cores: usize, args: &Args, div: u64) -> (f64, f64) {
    let cfg = config_for(cores, args.scale);
    let mix: Vec<String> = monte_carlo_mixes(args.seed, 2, cores).remove(0);
    let specs: Vec<_> = mix
        .iter()
        .map(|n| spec_by_name(n).expect("catalog"))
        .collect();
    let run = |policy: Policy| {
        let mut opts = SimOptions::new(cfg.clone(), policy);
        opts.warmup_instructions = 2_000_000 / div;
        opts.measure_instructions = 4_000_000 / div;
        opts.config.epoch_cycles = 2_000_000 / div;
        opts.seed = args.seed;
        System::new(opts, specs.clone()).run()
    };
    let results: Vec<_> = [Policy::NoPartition, Policy::Equal, Policy::BankAware]
        .par_iter()
        .map(|&p| run(p))
        .collect();
    let (none, equal, ba) = (&results[0], &results[1], &results[2]);

    // Sanity-anchor the synthetic timing curves: the real profiled curves
    // must also solve at this size (cheap, and catches catalog drift).
    let pcfg = ProfilerConfig::reference(cfg.l2_bank_sets(), cfg.l2.total_ways() * 9 / 16);
    let curves = profile_workloads(&specs, &cfg, pcfg, 2_000_000 / div, args.seed);
    let machine = DegradedTopology::healthy(Topology::ring_of_paper_dies(cores));
    try_bank_aware_partition(&curves, &machine, 8, &BankAwareConfig::default())
        .expect("profiled curves stay solvable on the ring floorplan");

    (
        ba.total_l2_misses() as f64 / none.total_l2_misses().max(1) as f64,
        ba.total_l2_misses() as f64 / equal.total_l2_misses().max(1) as f64,
    )
}

fn main() {
    let args = Args::parse();
    let div = if args.quick { 10 } else { 1 };
    let default_sweep: Vec<usize> = if args.quick {
        vec![8, 16, 32]
    } else {
        vec![8, 16, 32, 64, 128, 256]
    };
    let sweep = args.cores.clone().unwrap_or(default_sweep);
    for &c in &sweep {
        assert!(
            c >= 8 && c % 8 == 0,
            "core counts must be multiples of 8 (rings of 8-core paper dies), got {c}"
        );
    }

    let cfg = BankAwareConfig::default();
    let iterations = if args.quick { 20 } else { 60 };
    let mut rows = Vec::new();
    for &cores in &sweep {
        let topo = Topology::ring_of_paper_dies(cores);
        let clusters = topo.num_clusters();
        let banks = 2 * cores;
        let machine = DegradedTopology::healthy(topo.clone());
        let curves: Vec<MissRatioCurve> =
            (0..cores).map(|c| synthetic_curve(c, args.seed)).collect();

        // Detailed sims only at the validated sizes; timing rows everywhere.
        let (rel_none, rel_equal) = if cores <= 16 {
            let (n, e) = detailed_ratios(cores, &args, div);
            (Some(n), Some(e))
        } else {
            (None, None)
        };

        let cold_sharded_us = time_us(iterations, || {
            try_bank_aware_partition(&curves, &machine, 8, &cfg).expect("sharded solve feasible");
        });

        // Warm path: prime once, then measure steady-state epochs where no
        // curve moved — the common case the incremental solver targets.
        let tracer = Tracer::off();
        let mut incr = IncrementalSolver::new();
        incr.solve(
            &curves,
            &machine,
            8,
            &cfg,
            &tracer,
            SolveBudget::unlimited(),
        )
        .expect("priming solve feasible");
        let warm_us = time_us(iterations, || {
            incr.solve(
                &curves,
                &machine,
                8,
                &cfg,
                &tracer,
                SolveBudget::unlimited(),
            )
            .expect("warm solve feasible");
        });

        // Degraded: two banks dead, one of them a Center bank — the
        // out-of-cadence replan the fault path pays at a death boundary.
        let mut mask = BankMask::all_healthy(banks);
        mask.disable(BankId(0));
        mask.disable(BankId(cores as u16));
        let degraded = DegradedTopology::new(topo.clone(), mask);
        let degraded_decision_us = time_us(iterations, || {
            try_bank_aware_partition(&curves, &degraded, 8, &cfg)
                .expect("degraded solve stays feasible");
        });

        rows.push(ScaleRow {
            cores,
            banks,
            clusters,
            degraded_bank_mask: mask.bits(),
            ba_relative_to_none: rel_none,
            ba_relative_to_equal: rel_equal,
            cold_sharded_us,
            warm_us,
            degraded_decision_us,
            warm_speedup: cold_sharded_us / warm_us.max(1e-9),
        });
    }

    println!("Scalability: decision cost on clustered ring floorplans");
    println!(
        "{:>6} {:>6} {:>5} {:>13} {:>9} {:>13} {:>7}",
        "cores", "banks", "clust", "sharded (us)", "warm(us)", "degraded(us)", "warm x"
    );
    for r in &rows {
        println!(
            "{:>6} {:>6} {:>5} {:>13.1} {:>9.2} {:>13.1} {:>7.1}",
            r.cores,
            r.banks,
            r.clusters,
            r.cold_sharded_us,
            r.warm_us,
            r.degraded_decision_us,
            r.warm_speedup
        );
    }
    if let Some(r) = rows.iter().find(|r| r.cores == 8) {
        println!(
            "\ndetailed sims at 8/16 cores: BA/none {:.3}, BA/equal {:.3}",
            r.ba_relative_to_none.unwrap_or(f64::NAN),
            r.ba_relative_to_equal.unwrap_or(f64::NAN)
        );
    }
    if let Some(r) = rows.iter().find(|r| r.cores == 128) {
        let best = r.warm_us.min(r.cold_sharded_us);
        let verdict = if best <= TARGET_128_US {
            "PASS"
        } else {
            "MISS"
        };
        println!(
            "128-core epoch decision: {best:.1} us against the {TARGET_128_US} us target \
             [{verdict}] (warm {:.1} us, cold sharded {:.1} us)",
            r.warm_us, r.cold_sharded_us
        );
    }
    let path = write_json("BENCH_scalability", &rows);
    println!("wrote {}", path.display());

    if args.check {
        let baseline: Baseline = serde_json::from_str(BASELINE_JSON).expect("baseline file parses");
        match rows.iter().find(|r| r.cores == baseline.cores) {
            Some(r) => {
                let limit = baseline.cold_sharded_us * CHECK_HEADROOM;
                println!(
                    "check: {}-core sharded decision {:.1} us vs limit {:.1} us \
                     (baseline {:.1} us x {CHECK_HEADROOM})",
                    baseline.cores, r.cold_sharded_us, limit, baseline.cold_sharded_us
                );
                if r.cold_sharded_us > limit {
                    eprintln!("FAIL: decision-time regression past the committed baseline");
                    std::process::exit(1);
                }
            }
            None => {
                println!(
                    "check: sweep skipped {} cores; nothing to gate",
                    baseline.cores
                );
            }
        }
    }
}
