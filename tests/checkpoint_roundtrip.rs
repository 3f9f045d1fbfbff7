//! Checkpoints round-trip byte for byte, and old shapes still restore
//! (tier 1).
//!
//! * A thread-free proptest builds a replicated decision service from a
//!   generated history (1–3 sessions, ticks of `Open`/`Snapshot`/
//!   `Evaluate`, sometimes a `Promote` of a follower): its checkpoint,
//!   decoded and restored into a fresh service, encodes to the same bytes.
//! * The same holds for a simulator checkpoint taken at several epoch
//!   boundaries of a run in which every component carries data.
//! * A checkpoint that lacks any one optional member, and carries one
//!   member no version wrote, still restores: the optional members are
//!   those older checkpoints predate (`poisoned`, `dedup`, `term`,
//!   `ledger`, `slo_admitted`, `incremental`, `regulator`, `epoch_worst`,
//!   `worst_history`, `bound_history`, `current_bounds`).

use bankaware::partitioning::{DecisionService, Policy, ServeConfig};
use bankaware::recovery::Checkpoint;
use bankaware::system::{EpochControl, SimOptions, System};
use bankaware::trace::wire::{RequestKind, WireCurve, WireRequest};
use bankaware::types::config::DramKind;
use bankaware::types::{
    ControlConfig, QosConfig, RegulatorConfig, ReplicationConfig, SloSpec, SystemConfig,
};
use bankaware::workloads::{spec_by_name, WorkloadSpec};
use proptest::collection;
use proptest::prelude::*;
use serde_json::Value;

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

fn knee_curves(cores: usize, seed: u64) -> Vec<WireCurve> {
    (0..cores)
        .map(|core| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((core as u64).wrapping_mul(0x0100_0000_01B3));
            let base = 30_000.0 + (h % 90_000) as f64;
            let knee = 2 + ((h >> 17) % 40) as usize;
            let floor = ((h >> 33) % 3_000) as f64;
            let misses = (0..=72)
                .map(|w| {
                    if w >= knee {
                        floor
                    } else {
                        base - (base - floor) * w as f64 / knee as f64
                    }
                })
                .collect();
            WireCurve {
                accesses: base * 4.0,
                misses,
            }
        })
        .collect()
}

fn repl_cfg(follower: bool) -> ServeConfig {
    ServeConfig {
        replication: Some(ReplicationConfig {
            follower,
            ack_timeout_ms: 500,
        }),
        ..ServeConfig::default()
    }
}

/// `(kind, session slot, curve seed)` of one generated request.
type GenRequest = (u8, usize, u64);

/// Serve a generated history on a replicated service. A follower is
/// promoted before tick `promote_at` (refusing every write until then);
/// without one the service is a primary throughout.
fn serve_history(
    cores: &[usize],
    ticks: &[Vec<GenRequest>],
    promote_at: Option<usize>,
) -> DecisionService {
    let mut svc = DecisionService::new(repl_cfg(promote_at.is_some()));
    let mut id = 0;
    let mut next_id = || {
        id += 1;
        id
    };
    // Every session opens in the first tick.
    let mut history: Vec<Vec<GenRequest>> = vec![(0..cores.len()).map(|s| (0, s, 0)).collect()];
    history.extend(ticks.iter().cloned());
    for (t, tick) in history.iter().enumerate() {
        if promote_at == Some(t) {
            let answer = svc.process_batch(&[WireRequest::new(next_id(), RequestKind::Promote)]);
            assert_eq!(answer[0].kind.error_code(), None, "{:?}", answer[0].kind);
        }
        let batch: Vec<WireRequest> = tick
            .iter()
            .map(|&(kind, slot, seed)| {
                let session = (slot % cores.len()) as u64 + 1;
                let n = cores[slot % cores.len()];
                let kind = match kind % 3 {
                    0 => RequestKind::Open { session, cores: n },
                    1 => RequestKind::Snapshot {
                        session,
                        curves: knee_curves(n, seed),
                    },
                    _ => RequestKind::Evaluate {
                        session,
                        curves: knee_curves(n, seed),
                    },
                };
                WireRequest::new(next_id(), kind)
            })
            .collect();
        svc.process_batch(&batch);
    }
    svc
}

/// The epoch and the JSON body of an encoded checkpoint.
fn body(bytes: &[u8]) -> (u64, Value) {
    let cp = Checkpoint::decode(bytes).expect("a clean checkpoint decodes");
    let epoch = cp.epoch;
    let payload: Value = cp.payload;
    (epoch, payload)
}

/// Remove the member at `path` (object keys; `*` stands for every element
/// of an array). Returns how many members were removed.
fn remove(v: &mut Value, path: &[&str]) -> usize {
    match (v, path) {
        (Value::Object(pairs), [last]) => {
            let before = pairs.len();
            pairs.retain(|(k, _)| k != last);
            before - pairs.len()
        }
        (Value::Array(items), ["*", rest @ ..]) => items.iter_mut().map(|i| remove(i, rest)).sum(),
        (Value::Object(pairs), [key, rest @ ..]) => pairs
            .iter_mut()
            .filter(|(k, _)| k == key)
            .map(|(_, m)| remove(m, rest))
            .sum(),
        _ => 0,
    }
}

/// Add one member that no checkpoint version writes, holding nested JSON.
fn add_unknown(v: &mut Value) {
    let Value::Object(pairs) = v else {
        panic!("a checkpoint body is an object")
    };
    pairs.push((
        "written_by_a_later_version".to_string(),
        serde_json::json!({"a": [1u32, 2u32], "b": Value::Null}),
    ));
}

// ---------------------------------------------------------------------------
// The decision service.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Decode, restore into a fresh service, encode again: the bytes are
    /// the original's, sessions, dedup cache and fencing term included.
    #[test]
    fn a_service_checkpoint_restores_and_reencodes_to_its_bytes(
        sizes in collection::vec(1usize..3, 1..4),
        ticks in collection::vec(collection::vec((0u8..3, 0usize..3, 0u64..1_000), 1..5), 0..8),
        promote in 0usize..12,
    ) {
        let cores: Vec<usize> = sizes.iter().map(|s| 8 * s).collect();
        // Draws past the last tick leave a primary that never promotes.
        let promote_at = (promote <= ticks.len()).then_some(promote);
        let mut svc = serve_history(&cores, &ticks, promote_at);
        let bytes = svc.checkpoint().encode();
        let (anchor, tick, term) = svc.join_anchor().expect("replicated");
        prop_assert_eq!(&anchor, &bytes);
        prop_assert_eq!(term, if promote_at.is_some() { 2 } else { 1 });
        let mut fresh = DecisionService::new(repl_cfg(promote_at.is_some()));
        fresh.restore_from_anchor(&bytes, tick, term).expect("the checkpoint restores");
        prop_assert_eq!(fresh.checkpoint().encode(), bytes);
    }
}

/// A replicated service whose checkpoint carries every optional member:
/// two sessions with decisions (dedup caches, warm baselines) and a term.
fn full_service() -> DecisionService {
    let ticks = vec![vec![(1, 0, 7), (1, 1, 8)], vec![(1, 0, 9), (2, 1, 10)]];
    serve_history(&[8, 16], &ticks, None)
}

#[test]
fn a_service_checkpoint_without_an_optional_member_still_restores() {
    let mut svc = full_service();
    let bytes = svc.checkpoint().encode();
    let (_, tick, term) = svc.join_anchor().expect("replicated");
    let (epoch, full) = body(&bytes);

    // An unknown member alone changes nothing that is restored.
    let mut extra = full.clone();
    add_unknown(&mut extra);
    let mut fresh = DecisionService::new(repl_cfg(false));
    fresh
        .restore_from_anchor(&Checkpoint::new(epoch, extra).encode(), tick, term)
        .expect("an unknown member is tolerated");
    assert_eq!(fresh.checkpoint().encode(), bytes);

    let optional: [&[&str]; 6] = [
        &["poisoned"],
        &["term"],
        &["sessions", "*", "dedup"],
        &["sessions", "*", "state", "ledger"],
        &["sessions", "*", "state", "slo_admitted"],
        &["sessions", "*", "state", "incremental"],
    ];
    for path in optional {
        let mut v = full.clone();
        assert!(remove(&mut v, path) > 0, "{path:?} is in the checkpoint");
        add_unknown(&mut v);
        let mut fresh = DecisionService::new(repl_cfg(false));
        fresh
            .restore_from_anchor(&Checkpoint::new(epoch, v).encode(), tick, term)
            .unwrap_or_else(|e| panic!("without {path:?}: {e}"));
        assert_eq!(fresh.ticks(), svc.ticks(), "without {path:?}");
    }
}

// ---------------------------------------------------------------------------
// The simulator.
// ---------------------------------------------------------------------------

fn mix() -> Vec<WorkloadSpec> {
    [
        "mcf", "twolf", "art", "sixtrack", "gcc", "gap", "vpr", "eon",
    ]
    .iter()
    .map(|n| spec_by_name(n).expect("catalog"))
    .collect()
}

/// A short run in which every checkpointed component carries data: SLOs
/// and both regulators armed, warm starts on, a coherent shared segment.
fn opts(dram: DramKind) -> SimOptions {
    let mut o = SimOptions::new(SystemConfig::scaled(64), Policy::BankAware);
    o.config.epoch_cycles = 20_000;
    o.config.dram_kind = dram;
    o.warmup_instructions = 30_000;
    o.measure_instructions = 60_000;
    o.shared_fraction = 0.05;
    o.lookup_isolation = true;
    o.control = ControlConfig::default().with_warm_starts();
    let slo = |min_ways| SloSpec {
        max_wcl_cycles: 60_000,
        min_ways,
        bandwidth_floor: 16,
    };
    o.qos = QosConfig::default()
        .with_slo(0, slo(20))
        .with_slo(1, slo(12))
        .with_noc_regulator(RegulatorConfig::per_period(192, 2_000))
        .with_dram_regulator(RegulatorConfig::per_period(96, 2_000));
    o.seed = 7;
    o
}

/// The encoded checkpoints taken at epoch boundaries 1, 3, 5, … of a run.
fn system_checkpoints(o: &SimOptions) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut boundaries = 0;
    System::new(o.clone(), mix())
        .run_with_hook(&mut |s, at| {
            boundaries += 1;
            if boundaries % 2 == 1 {
                out.push(s.checkpoint(at).encode());
            }
            EpochControl::Continue
        })
        .into_result();
    assert!(out.len() >= 3, "{} checkpoints", out.len());
    out
}

#[test]
fn a_system_checkpoint_restores_and_reencodes_to_its_bytes() {
    for dram in [DramKind::Flat, DramKind::Banked] {
        let o = opts(dram);
        for (i, bytes) in system_checkpoints(&o).iter().enumerate() {
            let cp = Checkpoint::decode(bytes).expect("a clean checkpoint decodes");
            let (sys, at) = System::restore(o.clone(), mix(), cp)
                .unwrap_or_else(|e| panic!("{dram:?}, checkpoint {i}: {e}"));
            assert_eq!(
                &sys.checkpoint(&at).encode(),
                bytes,
                "{dram:?}, checkpoint {i}"
            );
        }
    }
}

#[test]
fn a_system_checkpoint_without_an_optional_member_still_restores() {
    let optional: [&[&str]; 9] = [
        &["mem", "controller", "ledger"],
        &["mem", "controller", "slo_admitted"],
        &["mem", "controller", "incremental"],
        &["mem", "noc", "regulator"],
        &["mem", "dram", "state", "regulator"],
        &["mem", "epoch_worst"],
        &["mem", "worst_history"],
        &["mem", "bound_history"],
        &["mem", "current_bounds"],
    ];
    for dram in [DramKind::Flat, DramKind::Banked] {
        let o = opts(dram);
        let checkpoints = system_checkpoints(&o);
        let (epoch, full) = body(checkpoints.last().expect("a checkpoint"));
        for path in optional {
            let mut v = full.clone();
            assert!(remove(&mut v, path) > 0, "{path:?} is in the checkpoint");
            add_unknown(&mut v);
            let cp = Checkpoint::decode(&Checkpoint::new(epoch, v).encode()).expect("reframed");
            let (mut sys, at) = System::restore(o.clone(), mix(), cp)
                .unwrap_or_else(|e| panic!("{dram:?} without {path:?}: {e}"));
            // The restored run still completes.
            sys.resume_with_hook(at, &mut |_, _| EpochControl::Continue)
                .into_result();
        }
    }
}
