//! Deterministic chaos soak: crash/restore under fault campaigns.
//!
//! FoundationDB-style robustness harness for the checkpoint/recovery
//! subsystem. Every round derives a workload mix, an optional PR 1 fault
//! campaign and a crash schedule from one seed, then drives a detailed run
//! that is repeatedly killed at seeded epoch boundaries, checkpointed,
//! sometimes has its checkpoints corrupted (torn writes, systemic storage
//! rot), and is brought back through the recovery ladder. Every epoch
//! boundary checks the pipeline invariants:
//!
//! * any installed plan is structurally valid and consistent with the live
//!   bank mask (dead banks hold no ways, no bank oversubscribed);
//! * assigned capacity never exceeds the machine's total ways;
//! * the MOESI directory and modelled private caches agree;
//! * the adaptation timeline never shrinks.
//!
//! Everything derives from `--seed`, so a violation prints the failing
//! round's seed and the exact one-command reproduction: that seed re-run
//! as round 0 replays the identical round.
//!
//! `--quick` bounds the soak to a CI-sized smoke (~100 epochs); the full
//! run drives ≥ 1000 epochs.

use bap_bench::common::{results_dir, write_json, Args};
use bap_bench::mixes::{random_mix, resolve};
use bap_core::Policy;
use bap_fault::FaultConfig;
use bap_recovery::RecoveryManager;
use bap_system::recovery::restore_with_recovery;
use bap_system::{EpochControl, RunOutcome, SimOptions, System};
use bap_trace::Tracer;
use bap_types::SystemConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Crashes injected per round before the run is allowed to finish.
const MAX_CRASHES: u32 = 4;

/// Round-seed derivation: golden-ratio stride keeps neighbouring rounds
/// decorrelated, and round 0 of master seed S is S itself — so a failing
/// round's seed, re-run as `--seed <it>`, replays identically as round 0.
fn round_seed(master: u64, round: u64) -> u64 {
    master.wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[derive(Default, Serialize)]
struct SoakStats {
    rounds: u64,
    epochs_driven: u64,
    crashes: u64,
    checkpoints_taken: u64,
    checkpoints_corrupted: u64,
    restores_rung1: u64,
    restores_rung2: u64,
    fallbacks_rung3: u64,
    fallbacks_rung4: u64,
    faulted_rounds: u64,
}

/// Every-epoch invariants over the live system.
fn check_invariants(sys: &System) -> Result<(), String> {
    let mem = sys.memory();
    let cfg = &sys.options().config;
    let capacity = cfg.l2.num_banks * cfg.l2.bank.ways;
    if let Some(plan) = mem.l2.plan() {
        plan.validate()
            .map_err(|e| format!("installed plan structurally invalid: {e}"))?;
        plan.validate_against_mask(mem.l2.bank_mask())
            .map_err(|e| format!("installed plan inconsistent with bank mask: {e}"))?;
        if plan.total_ways_used() > capacity {
            return Err(format!(
                "plan assigns {} ways, machine has {capacity}",
                plan.total_ways_used()
            ));
        }
    }
    mem.coherence
        .check_invariants()
        .map_err(|e| format!("coherence invariant violated: {e}"))?;
    for (i, ways) in mem.epoch_history().iter().enumerate() {
        let used: usize = ways.iter().sum();
        if used > capacity {
            return Err(format!(
                "epoch {i} recorded {used} ways, machine has {capacity}"
            ));
        }
    }
    Ok(())
}

/// One soak round: everything (mix, campaign, crash points, corruption)
/// derived from `seed`. Returns Err(description) on an invariant
/// violation.
fn soak_round(seed: u64, stats: &mut SoakStats) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mix = random_mix(&mut rng, 8);
    let specs = resolve(&mix);

    let mut opts = SimOptions::new(SystemConfig::scaled(64), Policy::BankAware);
    opts.config.epoch_cycles = 15_000;
    opts.warmup_instructions = 60_000;
    opts.measure_instructions = 150_000;
    opts.seed = seed;
    // Half the rounds interleave a PR 1 fault campaign with the crashes.
    if rng.gen_bool(0.5) {
        stats.faulted_rounds += 1;
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
    }

    let mut mgr = RecoveryManager::new(3);
    let mut sys = System::new(opts.clone(), specs.clone());
    let mut resume = None;
    let mut crashes = 0u32;
    let mut history_len = 0usize;

    loop {
        let crash_after: u64 = rng.gen_range(2..12);
        let allow_crash = crashes < MAX_CRASHES;
        let mut violation: Option<String> = None;
        let mut fired = 0u64;
        let mut epochs_driven = 0u64;
        let mut checkpoints = 0u64;
        let mut hook = |s: &System, at: &bap_system::ResumePoint| {
            epochs_driven += 1;
            fired += 1;
            if violation.is_none() {
                if let Err(v) = check_invariants(s) {
                    violation = Some(v);
                    return EpochControl::Halt;
                }
                // The timeline only ever grows.
                let len = s.memory().epoch_history().len();
                if len < history_len {
                    violation = Some(format!(
                        "adaptation timeline shrank: {history_len} -> {len}"
                    ));
                    return EpochControl::Halt;
                }
                history_len = len;
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
                if let Some(plan) = &r.final_plan {
                    plan.validate()
                        .map_err(|e| format!("final plan invalid: {e}"))?;
                }
                for c in &r.per_core {
                    if c.instructions < opts.measure_instructions {
                        return Err(format!(
                            "a core retired only {} of {} instructions",
                            c.instructions, opts.measure_instructions
                        ));
                    }
                }
                return Ok(());
            }
            RunOutcome::Halted(_) => {
                crashes += 1;
                stats.crashes += 1;
                // Chaos on the "storage": torn writes hit the newest
                // checkpoint now and then; rarely the whole history rots.
                if rng.gen_bool(0.25) && mgr.corrupt_newest(rng.gen_range(0..4096)) {
                    stats.checkpoints_corrupted += 1;
                }
                if rng.gen_bool(0.05) {
                    stats.checkpoints_corrupted += mgr.corrupt_all(rng.gen_range(0..4096)) as u64;
                }
                let rec = restore_with_recovery(&opts, &specs, &mgr, &Tracer::off());
                match rec.rung {
                    1 => stats.restores_rung1 += 1,
                    2 => stats.restores_rung2 += 1,
                    3 => stats.fallbacks_rung3 += 1,
                    _ => stats.fallbacks_rung4 += 1,
                }
                if rec.rung == 4 {
                    // The ladder degraded the policy; keep our options in
                    // step so later checkpoints restore consistently.
                    opts.policy = Policy::Equal;
                }
                if rec.resume.is_none() {
                    // Cold start: the retained history was unusable (or
                    // empty); start a fresh checkpoint lineage and a fresh
                    // timeline expectation.
                    mgr.clear();
                    history_len = 0;
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
    // A floor on rounds keeps the chaos diverse even when a few rounds
    // already cover the epoch budget: fault campaigns and checkpoint
    // corruption are per-round coin flips.
    let min_rounds: u64 = if args.quick { 6 } else { 24 };
    let max_rounds: u64 = if args.quick { 50 } else { 500 };

    let mut stats = SoakStats::default();
    let mut round = 0u64;
    while (stats.epochs_driven < target_epochs || round < min_rounds) && round < max_rounds {
        let seed = round_seed(args.seed, round);
        if let Err(violation) = soak_round(seed, &mut stats) {
            let path = results_dir().join("soak_failing_seed.txt");
            std::fs::write(
                &path,
                format!(
                    "seed={seed}\nround={round}\nmaster_seed={}\nviolation={violation}\n",
                    args.seed
                ),
            )
            .expect("write failing seed");
            eprintln!("SOAK FAILURE at round {round} (seed {seed}): {violation}");
            eprintln!(
                "reproduce with: cargo run --release -p bap-bench --bin exp_soak -- --seed {seed}"
            );
            eprintln!("failing seed written to {}", path.display());
            std::process::exit(1);
        }
        stats.rounds += 1;
        round += 1;
        if round.is_multiple_of(10) {
            println!(
                "  …{} rounds, {} epochs, {} crashes, {} restores",
                stats.rounds,
                stats.epochs_driven,
                stats.crashes,
                stats.restores_rung1 + stats.restores_rung2
            );
        }
    }

    println!(
        "soak passed: {} rounds, {} epochs ({} faulted rounds), {} crashes",
        stats.rounds, stats.epochs_driven, stats.faulted_rounds, stats.crashes
    );
    println!(
        "  recovery ladder: rung1 {} / rung2 {} / rung3 {} / rung4 {} ({} of {} checkpoints corrupted)",
        stats.restores_rung1,
        stats.restores_rung2,
        stats.fallbacks_rung3,
        stats.fallbacks_rung4,
        stats.checkpoints_corrupted,
        stats.checkpoints_taken
    );
    assert!(
        stats.epochs_driven >= target_epochs,
        "soak budget not met: {} < {target_epochs} epochs",
        stats.epochs_driven
    );
    let path = write_json("soak", &stats);
    println!("wrote {}", path.display());
}
