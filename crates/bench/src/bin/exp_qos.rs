//! QoS chaos soak: SLO guarantees under bank faults and crash recovery.
//!
//! Drives the full QoS tier — per-bank bandwidth regulators, SLO admission
//! control, guard-checked WCL revalidation — through the PR 4/5 chaos
//! machinery: every round derives a workload mix, a bank-fault campaign
//! and a crash schedule from one seed, declares SLOs on two cores, and
//! asserts at every epoch boundary that no admitted core's measured worst
//! demand latency ever exceeded its analytic WCL bound. Best-effort cores
//! are expected to pay for this: the run fails unless the capacity-loss
//! ledger shows at least one demoted core across the soak.
//!
//! Everything derives from `--seed`; a breach prints the failing round's
//! seed and the one-command reproduction. `--quick` bounds the soak to a
//! CI-sized smoke (~100 epochs); the full run drives ≥ 1000 epochs.
//!
//! Writes `results/qos.json` (soak statistics) and `results/BENCH_qos.json`
//! (the bound-vs-measured latency trajectory of the tightest round).

use bap_bench::common::{results_dir, write_json, Args};
use bap_bench::mixes::{random_mix, resolve};
use bap_core::Policy;
use bap_fault::FaultConfig;
use bap_recovery::RecoveryManager;
use bap_system::recovery::restore_with_recovery;
use bap_system::{EpochControl, RunOutcome, SimOptions, System};
use bap_trace::Tracer;
use bap_types::{QosConfig, RegulatorConfig, SloSpec, SystemConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Crashes injected per round before the run is allowed to finish.
const MAX_CRASHES: u32 = 3;

/// Round-seed derivation (same stride as `exp_soak`): round 0 of master
/// seed S is S itself, so a failing seed replays identically as round 0.
fn round_seed(master: u64, round: u64) -> u64 {
    master.wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The SLO declarations every round runs under: two latency-critical cores
/// with capacity floors, six best-effort cores, both regulators armed.
fn qos_config() -> QosConfig {
    QosConfig::default()
        .with_slo(
            0,
            SloSpec {
                max_wcl_cycles: 60_000,
                min_ways: 20,
                bandwidth_floor: 16,
            },
        )
        .with_slo(
            1,
            SloSpec {
                max_wcl_cycles: 60_000,
                min_ways: 12,
                bandwidth_floor: 16,
            },
        )
        .with_noc_regulator(RegulatorConfig::per_period(192, 2_000))
        .with_dram_regulator(RegulatorConfig::per_period(96, 2_000))
}

#[derive(Default, Serialize)]
struct QosStats {
    rounds: u64,
    epochs_driven: u64,
    crashes: u64,
    checkpoints_taken: u64,
    /// (epoch, core) pairs that carried an admitted bound and were checked.
    slo_pairs_checked: u64,
    /// Largest measured-worst / bound ratio seen over every checked pair.
    tightest_margin: f64,
    slo_enforcements: u64,
    slo_rejections: u64,
    guard_trips: u64,
    /// Total ways stripped from demoted cores (the ledger sum).
    best_effort_ways_lost: u64,
    /// Cores ever demoted, across all rounds.
    degraded_cores: Vec<usize>,
}

/// One epoch of the persisted latency-bound trajectory (core 0).
#[derive(Serialize)]
struct TrajectoryPoint {
    epoch: usize,
    bound: u64,
    worst: u64,
}

/// Scan history rows `from..` for admitted-SLO breaches; update stats.
fn check_compliance(sys: &System, from: usize, stats: &mut QosStats) -> Result<usize, String> {
    let worst = sys.memory().worst_latency_history();
    let bounds = sys.memory().slo_bound_history();
    for (i, (w_row, b_row)) in worst.iter().zip(bounds).enumerate().skip(from) {
        for (c, b) in b_row.iter().enumerate() {
            let Some(bound) = b else { continue };
            stats.slo_pairs_checked += 1;
            if w_row[c] > *bound {
                return Err(format!(
                    "epoch {i}: core {c} measured worst {} exceeds admitted WCL bound {bound}",
                    w_row[c]
                ));
            }
            if *bound > 0 {
                let margin = w_row[c] as f64 / *bound as f64;
                if margin > stats.tightest_margin {
                    stats.tightest_margin = margin;
                }
            }
        }
    }
    Ok(worst.len())
}

/// One soak round. Returns the core-0 trajectory on success.
fn qos_round(seed: u64, stats: &mut QosStats) -> Result<Vec<TrajectoryPoint>, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mix = random_mix(&mut rng, 8);
    let specs = resolve(&mix);

    let mut opts = SimOptions::new(SystemConfig::scaled(64), Policy::BankAware);
    opts.config.epoch_cycles = 15_000;
    opts.warmup_instructions = 60_000;
    opts.measure_instructions = 150_000;
    opts.lookup_isolation = true;
    opts.seed = seed;
    opts.qos = qos_config();
    opts.fault = Some(FaultConfig {
        seed: rng.gen_range(0..u64::MAX),
        bank_offline_prob: 0.05,
        bank_repair_prob: 0.3,
        max_offline_banks: 2,
        epoch_drop_prob: 0.2,
        curve_corruption_prob: 0.3,
        forced_offline: if rng.gen_bool(0.3) {
            vec![(2, 9)]
        } else {
            vec![]
        },
    });

    let mut mgr = RecoveryManager::new(3);
    let mut sys = System::new(opts.clone(), specs.clone());
    let mut resume = None;
    let mut crashes = 0u32;

    loop {
        let crash_after: u64 = rng.gen_range(2..12);
        let allow_crash = crashes < MAX_CRASHES;
        let mut violation: Option<String> = None;
        let mut fired = 0u64;
        let mut epochs_driven = 0u64;
        let mut checkpoints = 0u64;
        // Rows already checked this segment: a rung-1/2 restore rolls the
        // histories back to the checkpoint and replays them, so every
        // re-driven row is re-checked.
        let mut checked = sys.memory().worst_latency_history().len();
        let mut hook = |s: &System, at: &bap_system::ResumePoint| {
            epochs_driven += 1;
            fired += 1;
            if violation.is_none() {
                match check_compliance(
                    s,
                    checked.min(s.memory().worst_latency_history().len()),
                    stats,
                ) {
                    Ok(len) => checked = len,
                    Err(v) => {
                        violation = Some(v);
                        return EpochControl::Halt;
                    }
                }
            }
            mgr.push(&s.checkpoint(at));
            checkpoints += 1;
            if allow_crash && fired == crash_after {
                EpochControl::Halt
            } else {
                EpochControl::Continue
            }
        };
        let outcome = match resume.take() {
            Some(at) => sys.resume_with_hook(at, &mut hook),
            None => sys.run_with_hook(&mut hook),
        };
        stats.epochs_driven += epochs_driven;
        stats.checkpoints_taken += checkpoints;
        if let Some(v) = violation {
            return Err(v);
        }
        match outcome {
            RunOutcome::Completed(r) => {
                if r.slo_bound_history.is_empty() {
                    return Err("QoS run produced no bound history".to_string());
                }
                let admitted_epochs = r
                    .slo_bound_history
                    .iter()
                    .filter(|row| row[0].is_some())
                    .count();
                if admitted_epochs == 0 {
                    return Err("core 0 was never admitted".to_string());
                }
                stats.slo_enforcements += r.fault.slo_enforcements;
                stats.slo_rejections += r.fault.slo_rejections;
                stats.guard_trips += r.fault.guard_trips;
                stats.best_effort_ways_lost += r.core_degrades.ways_lost.iter().sum::<u64>();
                for c in r.core_degrades.degraded_cores() {
                    if !stats.degraded_cores.contains(&c) {
                        stats.degraded_cores.push(c);
                    }
                }
                let trajectory = r
                    .worst_latency_history
                    .iter()
                    .zip(&r.slo_bound_history)
                    .enumerate()
                    .filter_map(|(epoch, (w, b))| {
                        b[0].map(|bound| TrajectoryPoint {
                            epoch,
                            bound,
                            worst: w[0],
                        })
                    })
                    .collect();
                return Ok(trajectory);
            }
            RunOutcome::Halted(_) => {
                crashes += 1;
                stats.crashes += 1;
                if rng.gen_bool(0.2) && mgr.corrupt_newest(rng.gen_range(0..4096)) {
                    // Torn write on the newest checkpoint: the recovery
                    // ladder falls back to an older one.
                }
                let rec = restore_with_recovery(&opts, &specs, &mgr, &Tracer::off());
                if rec.rung == 4 {
                    opts.policy = Policy::Equal;
                }
                if rec.resume.is_none() {
                    mgr.clear();
                }
                sys = rec.system;
                resume = rec.resume;
            }
        }
    }
}

fn main() {
    let args = Args::parse();
    let target_epochs: u64 = if args.quick { 100 } else { 1000 };
    let min_rounds: u64 = if args.quick { 4 } else { 16 };
    let max_rounds: u64 = if args.quick { 50 } else { 500 };

    let mut stats = QosStats::default();
    let mut best_trajectory: Vec<TrajectoryPoint> = Vec::new();
    let mut round = 0u64;
    while (stats.epochs_driven < target_epochs || round < min_rounds) && round < max_rounds {
        let seed = round_seed(args.seed, round);
        match qos_round(seed, &mut stats) {
            Ok(trajectory) => {
                if trajectory.len() > best_trajectory.len() {
                    best_trajectory = trajectory;
                }
            }
            Err(breach) => {
                let path = results_dir().join("qos_failing_seed.txt");
                std::fs::write(
                    &path,
                    format!(
                        "seed={seed}\nround={round}\nmaster_seed={}\nbreach={breach}\n",
                        args.seed
                    ),
                )
                .expect("write failing seed");
                eprintln!("SLO BREACH at round {round} (seed {seed}): {breach}");
                eprintln!("reproduce with: cargo run --release -p bap-bench --bin exp_qos -- --seed {seed}");
                eprintln!("failing seed written to {}", path.display());
                std::process::exit(1);
            }
        }
        stats.rounds += 1;
        round += 1;
        if round.is_multiple_of(10) {
            println!(
                "  …{} rounds, {} epochs, {} SLO pairs checked, {} enforcements",
                stats.rounds, stats.epochs_driven, stats.slo_pairs_checked, stats.slo_enforcements
            );
        }
    }

    println!(
        "qos soak passed: {} rounds, {} epochs, {} crashes, {} (epoch, core) SLO pairs checked",
        stats.rounds, stats.epochs_driven, stats.crashes, stats.slo_pairs_checked
    );
    println!(
        "  zero breaches; tightest measured/bound margin {:.3}; {} enforcements, {} rejections",
        stats.tightest_margin, stats.slo_enforcements, stats.slo_rejections
    );
    println!(
        "  best-effort cost: cores {:?} lost {} ways total to admitted SLOs",
        stats.degraded_cores, stats.best_effort_ways_lost
    );
    assert!(
        stats.epochs_driven >= target_epochs,
        "soak budget not met: {} < {target_epochs} epochs",
        stats.epochs_driven
    );
    assert!(
        stats.slo_pairs_checked > 0,
        "no admitted SLO was ever checked"
    );
    assert!(
        stats.best_effort_ways_lost > 0,
        "no best-effort core was ever demoted — the SLOs cost nothing, \
         which means enforcement never engaged"
    );
    let path = write_json("qos", &stats);
    println!("wrote {}", path.display());
    let bench = write_json("BENCH_qos", &best_trajectory);
    println!("wrote {}", bench.display());
}
