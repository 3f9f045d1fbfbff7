//! Crash-point exhaustiveness for the checkpoint/restore subsystem.
//!
//! The contract under test: a run killed at *any* epoch boundary and
//! brought back from the checkpoint taken there converges to results
//! byte-identical to the uninterrupted run — same installed plans at every
//! boundary, same final plan, same per-core statistics. The first test
//! proves it at every single boundary of a quick Fig. 7-mix run; the
//! property test interleaves random crash points with random PR 1 fault
//! campaigns (the injector's schedule is keyed on the checkpointed epoch
//! index, so faults replay identically across a restore).

use bankaware::fault::FaultConfig;
use bankaware::partitioning::Policy;
use bankaware::recovery::Checkpoint;
use bankaware::system::{EpochControl, RunOutcome, RunResult, SimOptions, System};
use bankaware::types::SystemConfig;
use bankaware::workloads::{spec_by_name, WorkloadSpec};
use proptest::prelude::*;

/// The Fig. 7 workload mix at quick detailed-run budgets.
const MIX: [&str; 8] = [
    "mcf", "twolf", "art", "sixtrack", "gcc", "gap", "vpr", "eon",
];

fn mix() -> Vec<WorkloadSpec> {
    MIX.iter()
        .map(|n| spec_by_name(n).expect("catalog"))
        .collect()
}

fn opts() -> SimOptions {
    let mut o = SimOptions::new(SystemConfig::scaled(64), Policy::BankAware);
    o.config.epoch_cycles = 100_000;
    o.warmup_instructions = 40_000;
    o.measure_instructions = 100_000;
    o.seed = 42;
    o
}

/// The aggregates a restore must leave unchanged.
fn assert_identical(resumed: &RunResult, reference: &RunResult) {
    assert_eq!(resumed.epoch_history, reference.epoch_history);
    assert_eq!(resumed.final_plan, reference.final_plan);
    assert_eq!(resumed.epochs, reference.epochs);
    assert_eq!(resumed.total_l2_misses(), reference.total_l2_misses());
    assert_eq!(resumed.total_l2_accesses(), reference.total_l2_accesses());
    for (a, b) in resumed.per_core.iter().zip(&reference.per_core) {
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.l2, b.l2);
        assert_eq!(a.l2_latency_sum, b.l2_latency_sum);
    }
}

/// Kill-and-restore at *every* epoch boundary of the run, warm-up
/// included: each checkpoint, round-tripped through its encoded byte form,
/// resumes to the uninterrupted run's exact aggregates.
#[test]
fn every_crash_point_restores_to_identical_aggregates() {
    let reference = System::new(opts(), mix()).run();

    // Collect one encoded checkpoint per boundary from a fresh run.
    let mut checkpoints: Vec<Vec<u8>> = Vec::new();
    let mut sys = System::new(opts(), mix());
    sys.run_with_hook(&mut |s, at| {
        checkpoints.push(s.checkpoint(at).encode());
        EpochControl::Continue
    })
    .into_result();
    assert!(
        checkpoints.len() >= 4,
        "need several boundaries to make exhaustiveness meaningful, got {}",
        checkpoints.len()
    );

    for (i, bytes) in checkpoints.iter().enumerate() {
        let cp = Checkpoint::decode(bytes).expect("clean checkpoint decodes");
        let (mut resumed, at) =
            System::restore(opts(), mix(), cp).unwrap_or_else(|e| panic!("boundary {i}: {e}"));
        let r = resumed
            .resume_with_hook(at, &mut |_, _| EpochControl::Continue)
            .into_result();
        assert_identical(&r, &reference);
    }
}

/// A crashed-and-restored run and an uninterrupted run agree under a fault
/// campaign too: the injector schedule, the degradation ladder and the
/// recovery path all replay deterministically from the checkpoint.
fn crash_once_and_compare(o: SimOptions, crash_at: u64) {
    let reference = System::new(o.clone(), mix()).run();
    let mut cp = None;
    let mut sys = System::new(o.clone(), mix());
    let mut fired = 0u64;
    let outcome = sys.run_with_hook(&mut |s, at| {
        fired += 1;
        if fired == crash_at {
            cp = Some(s.checkpoint(at).encode());
            EpochControl::Halt
        } else {
            EpochControl::Continue
        }
    });
    let Some(bytes) = cp else {
        // Fewer boundaries than the crash point: the run completed; it must
        // already equal the reference.
        let RunOutcome::Completed(r) = outcome else {
            panic!("no checkpoint but not completed either");
        };
        assert_identical(&r, &reference);
        return;
    };
    let cp = Checkpoint::decode(&bytes).expect("clean checkpoint decodes");
    let (mut resumed, at) = System::restore(o, mix(), cp).expect("restores");
    let r = resumed
        .resume_with_hook(at, &mut |_, _| EpochControl::Continue)
        .into_result();
    assert_identical(&r, &reference);
}

proptest! {
    // Full-system runs are expensive; a handful of cases over a wide space
    // still interleaves crashes at warm-up and measurement boundaries with
    // every fault class (the probabilities make each near-certain per run).
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_crash_points_interleaved_with_fault_campaigns_replay_exactly(
        seed in 0u64..1_000_000,
        crash_at in 1u64..10,
        bank_offline_prob in 0.0f64..0.3,
        epoch_drop_prob in 0.0f64..0.3,
        curve_corruption_prob in 0.0f64..0.5,
        forced_bank in 0u16..16,
    ) {
        let mut o = opts();
        o.seed = seed;
        o.config.epoch_cycles = 20_000;
        o.fault = Some(FaultConfig {
            seed,
            bank_offline_prob,
            bank_repair_prob: 0.3,
            max_offline_banks: 2,
            epoch_drop_prob,
            curve_corruption_prob,
            forced_offline: vec![(1, forced_bank)],
        });
        crash_once_and_compare(o, crash_at);
    }
}
