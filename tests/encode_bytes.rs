//! Encoded bytes are pinned (tier 1).
//!
//! One frame of every wire request and response kind, one pretty-printed
//! results document, the checkpoint of a replicated 128-core service and
//! two simulator checkpoints are encoded and digested with FNV-1a. The
//! expected digests were computed by a writer that formatted each number
//! into a temporary `String` and deep-cloned a checkpoint's payload before
//! writing it; the simulator digests by the writer that assembled each
//! component's checkpoint as a hand-built `Value` tree. A writer change
//! that moves a single byte of any frame, of the number formats, or of the
//! checkpoint format fails here with the frame's name.

use bankaware::partitioning::{DecisionService, Policy, ServeConfig};
use bankaware::recovery::fnv1a64;
use bankaware::system::{EpochControl, SimOptions, System};
use bankaware::trace::wire::{
    encode_request, encode_response, RequestKind, ResponseKind, SessionDigest, WireCurve,
    WireLogEntry, WireRequest, WireResponse, WireSummary,
};
use bankaware::types::config::DramKind;
use bankaware::types::{
    ControlConfig, QosConfig, RegulatorConfig, ReplicationConfig, SloSpec, SystemConfig,
};
use bankaware::workloads::spec_by_name;

/// Floats whose shortest round-trip text takes every shape the writer
/// produces: integral (`3.0`), fractional, exponent forms on both ends,
/// signed zero, the extremes and NaN (written `null`).
const FLOATS: [f64; 14] = [
    0.0,
    -0.0,
    3.0,
    0.1,
    -3.75,
    1.5e-7,
    123_456_789.125,
    9_007_199_254_740_992.0,
    1e16,
    1e21,
    f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,
    f64::NAN,
];

/// Escapes, control characters and 2-, 3- and 4-byte UTF-8.
const TEXT: &str = "plain \"quoted\" back\\slash\n\t\r\u{1}\u{1f}\u{7f} é 日 😀";

fn curves() -> Vec<WireCurve> {
    vec![
        WireCurve {
            accesses: 4096.0,
            misses: FLOATS.to_vec(),
        },
        WireCurve {
            accesses: 0.5,
            misses: vec![],
        },
    ]
}

fn requests() -> Vec<(&'static str, WireRequest)> {
    let kinds = vec![
        (
            "Open",
            RequestKind::Open {
                session: u64::MAX,
                cores: 128,
            },
        ),
        (
            "Snapshot",
            RequestKind::Snapshot {
                session: 7,
                curves: curves(),
            },
        ),
        (
            "Evaluate",
            RequestKind::Evaluate {
                session: 7,
                curves: curves(),
            },
        ),
        ("Plan", RequestKind::Plan { session: 0 }),
        (
            "Profile",
            RequestKind::Profile {
                workloads: vec!["mcf".to_string(), TEXT.to_string(), String::new()],
                instructions: 1_000_000,
                seed: 42,
            },
        ),
        ("Checkpoint", RequestKind::Checkpoint),
        ("Stats", RequestKind::Stats),
        ("Shutdown", RequestKind::Shutdown),
        ("Promote", RequestKind::Promote),
        ("ReplStatus", RequestKind::ReplStatus),
        (
            "ReplSubscribe",
            RequestKind::ReplSubscribe { after_tick: 17 },
        ),
        ("ReplAck", RequestKind::ReplAck { tick: 18 }),
    ];
    let mut out: Vec<(&'static str, WireRequest)> = kinds
        .into_iter()
        .map(|(name, kind)| (name, WireRequest::new(9, kind)))
        .collect();
    out.push((
        "Plan with a deadline",
        WireRequest::new(10, RequestKind::Plan { session: 3 }).with_deadline_ms(u64::MAX),
    ));
    out
}

fn log_entry() -> WireLogEntry {
    WireLogEntry {
        tick: 64,
        term: 3,
        brownout: 2,
        requests: requests().into_iter().map(|(_, r)| r).take(3).collect(),
        digests: vec![
            SessionDigest {
                session: 7,
                epoch: 12,
                fingerprint: u64::MAX,
            },
            SessionDigest {
                session: 8,
                epoch: 0,
                fingerprint: 0,
            },
        ],
    }
}

fn responses() -> Vec<(&'static str, WireResponse)> {
    let kinds = vec![
        (
            "Opened",
            ResponseKind::Opened {
                session: 1,
                cores: 8,
            },
        ),
        (
            "Decision",
            ResponseKind::Decision {
                session: 1,
                epoch: 977,
                installed: true,
                ways: (0..32).map(|c| 8 + c % 24).collect(),
                source: "solver".to_string(),
                fingerprint: 0xDEAD_BEEF_F00D,
                summary: WireSummary {
                    events: 40_120,
                    epochs: 977,
                    plans_installed: 160,
                    plans_held: 12,
                    warm_start_hits: 801,
                    solver_failures: 0,
                },
            },
        ),
        (
            "Evaluated",
            ResponseKind::Evaluated {
                session: 2,
                ways: vec![],
                fingerprint: 0,
            },
        ),
        (
            "Plan",
            ResponseKind::Plan {
                session: 3,
                epoch: 4,
                ways: vec![16, 0, 72],
                source: TEXT.to_string(),
                fingerprint: 1,
            },
        ),
        ("Profiled", ResponseKind::Profiled { curves: curves() }),
        (
            "Checkpointed",
            ResponseKind::Checkpointed {
                bytes: 176_239,
                sessions: 1,
                tick: 64,
            },
        ),
        (
            "Stats",
            ResponseKind::Stats {
                sessions: 2,
                ticks: 3,
                requests: 4,
                decisions: 5,
                warm_hits: 6,
            },
        ),
        ("Bye", ResponseKind::Bye { drained: 0 }),
        ("Promoted", ResponseKind::Promoted { term: 2, tick: 99 }),
        (
            "ReplStatus",
            ResponseKind::ReplStatus {
                role: "follower".to_string(),
                term: 1,
                tick: 40,
                log_entries: 0,
                anchor_tick: 35,
                divergences: 0,
            },
        ),
        (
            "ReplSnapshot",
            ResponseKind::ReplSnapshot {
                tick: 35,
                term: 1,
                state: "4241504301000000".to_string(),
            },
        ),
        ("ReplEntry", ResponseKind::ReplEntry { entry: log_entry() }),
        ("Error", ResponseKind::overloaded(TEXT, 25)),
        ("Error without a hint", ResponseKind::error("malformed", "")),
    ];
    let mut out: Vec<(&'static str, WireResponse)> = kinds
        .into_iter()
        .map(|(name, kind)| {
            (
                name,
                WireResponse {
                    id: 4242,
                    tick: 977,
                    term: None,
                    kind,
                },
            )
        })
        .collect();
    out.push((
        "Bye with a term",
        WireResponse {
            id: 1,
            tick: 2,
            term: Some(u64::MAX),
            kind: ResponseKind::Bye { drained: 3 },
        },
    ));
    out
}

/// `(name, encoded bytes)` of every pinned frame.
fn frames() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (name, r) in requests() {
        out.push((format!("request {name}"), encode_request(&r).into_bytes()));
    }
    for (name, r) in responses() {
        out.push((format!("response {name}"), encode_response(&r).into_bytes()));
    }
    let doc = serde_json::json!({
        "name": TEXT,
        "floats": FLOATS.to_vec(),
        "empty": serde_json::Value::Array(vec![]),
        "nested": serde_json::json!({"ints": [0i64, -1i64, i64::MIN, i64::MAX], "none": serde_json::Value::Null}),
    });
    out.push((
        "pretty document".to_string(),
        serde_json::to_string_pretty(&doc).unwrap().into_bytes(),
    ));
    out
}

/// Knee-shaped 73-point curves, as the profilers emit.
fn knee_curves(cores: usize, seed: u64) -> Vec<WireCurve> {
    (0..cores)
        .map(|core| {
            let h = (seed ^ core as u64)
                .wrapping_add(1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let base = 30_000.0 + (h % 90_000) as f64 + 0.37;
            let knee = 2 + ((h >> 17) % 40) as usize;
            let floor = ((h >> 33) % 3_000) as f64 + 0.5;
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

/// A replicated primary that opened one 128-core session and decided
/// four epochs: profilers, plan, warm baselines, the dedup cache and the
/// fencing term all ride its checkpoint.
fn service_checkpoint() -> Vec<u8> {
    let mut service = DecisionService::new(ServeConfig {
        replication: Some(ReplicationConfig::default()),
        ..ServeConfig::default()
    });
    let mut requests = vec![WireRequest::new(
        1,
        RequestKind::Open {
            session: 1,
            cores: 128,
        },
    )];
    requests.extend((0..4).map(|epoch| {
        WireRequest::new(
            2 + epoch,
            RequestKind::Snapshot {
                session: 1,
                curves: knee_curves(128, 2 + epoch),
            },
        )
    }));
    for req in &requests {
        let answer = service.process_batch(std::slice::from_ref(req));
        assert_eq!(answer[0].kind.error_code(), None, "{:?}", answer[0].kind);
    }
    service.checkpoint().encode()
}

/// A short seeded simulator run in which every checkpointed component
/// carries data: SLOs on cores 0 and 1 with both bandwidth regulators
/// armed (so the regulators, the capacity-loss ledger and the admitted
/// set are populated), warm starts on, and a coherent shared segment.
/// The checkpoint is the one taken at the run's fourth epoch boundary.
fn system_checkpoint(dram: DramKind) -> Vec<u8> {
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
    o.seed = 42;
    let mix = [
        "mcf", "twolf", "art", "sixtrack", "gcc", "gap", "vpr", "eon",
    ]
    .iter()
    .map(|n| spec_by_name(n).expect("catalog"))
    .collect();
    let mut bytes = None;
    let mut boundaries = 0;
    System::new(o, mix).run_with_hook(&mut |s, at| {
        boundaries += 1;
        if boundaries < 4 {
            return EpochControl::Continue;
        }
        bytes = Some(s.checkpoint(at).encode());
        EpochControl::Halt
    });
    let bytes = bytes.expect("the run reaches a fourth epoch boundary");
    // Every component the pin is meant to cover carries data.
    let body: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&bytes[24..]).expect("UTF-8")).expect("JSON");
    let mem = &body["mem"];
    let controller = &mem["controller"];
    assert!(
        mem["noc"]["regulator"].as_object().is_some(),
        "NoC regulator"
    );
    assert!(mem["dram"]["state"]["regulator"].as_object().is_some());
    assert!(!controller["slo_admitted"].as_array().unwrap().is_empty());
    assert_ne!(controller["ledger"], serde_json::Value::Null);
    assert_ne!(controller["last_plan"], serde_json::Value::Null);
    assert!(!mem["coherence"]["directory"]["entries"]
        .as_array()
        .unwrap()
        .is_empty());
    assert!(!mem["current_bounds"].as_array().unwrap().is_empty());
    bytes
}

/// `(name, length, FNV-1a-64)` of each frame as the reference writer
/// encoded it.
const PINNED: &[(&str, usize, u64)] = &[
    ("request Open", 88, 0x5403ae4478305b99),
    ("request Snapshot", 264, 0xbc505712e769d41b),
    ("request Evaluate", 264, 0x2601dccf1bf68ea8),
    ("request Plan", 57, 0x0df11686febb6e6a),
    ("request Profile", 166, 0xe5853949e0c182bd),
    ("request Checkpoint", 47, 0x9b388b0f22d740d3),
    ("request Stats", 42, 0x92af37d2fd3e4eb2),
    ("request Shutdown", 45, 0x270c4551a4005737),
    ("request Promote", 44, 0xc47c5f39155a3c85),
    ("request ReplStatus", 47, 0x64f5e44ab5b19fa6),
    ("request ReplSubscribe", 70, 0x4ead218a1bb2fee2),
    ("request ReplAck", 58, 0x1886af0678fe0777),
    ("request Plan with a deadline", 74, 0xec55f27a2328ab4d),
    ("response Opened", 64, 0x81b893b08aad46f4),
    ("response Decision", 354, 0x446d3c0495671530),
    ("response Evaluated", 83, 0x4dfdaf4ee48fd30d),
    ("response Plan", 166, 0x5dca89cecc0a16df),
    ("response Profiled", 247, 0xacab18e8aff7c6a2),
    ("response Checkpointed", 86, 0xd339600308efb157),
    ("response Stats", 105, 0x3db5a348a7b81e29),
    ("response Bye", 51, 0x88449d281fd79def),
    ("response Promoted", 63, 0x6d416421d079d7a5),
    ("response ReplStatus", 132, 0x0e470bdced5d8388),
    ("response ReplSnapshot", 94, 0xa61aa0aa0572ba3c),
    ("response ReplEntry", 831, 0x1d22ba84cd5d6c12),
    ("response Error", 152, 0x25f0df2c4315d4fc),
    ("response Error without a hint", 94, 0x02e8abc94f652838),
    ("response Bye with a term", 74, 0x273b14c7932a1fed),
    ("pretty document", 440, 0x4e1decbd88733f0d),
];

/// Length and digest of the reference writer's 128-core checkpoint.
const CHECKPOINT: (usize, u64) = (176_793, 0x8a8f910a36ce517f);

/// Length and digest of the hand-built-tree writer's simulator
/// checkpoints, flat and banked DRAM.
const SYSTEM_CHECKPOINTS: [(DramKind, usize, u64); 2] = [
    (DramKind::Flat, 255_302, 0x799ce6d3a05b9b2d),
    (DramKind::Banked, 237_807, 0x4e8f7e523f380e92),
];

#[test]
fn every_wire_frame_encodes_to_its_pinned_bytes() {
    let got: Vec<(String, usize, u64)> = frames()
        .into_iter()
        .map(|(name, bytes)| (name, bytes.len(), fnv1a64(&bytes)))
        .collect();
    assert_eq!(got.len(), PINNED.len(), "one pin per frame");
    for ((name, len, digest), (pin_name, pin_len, pin_digest)) in got.iter().zip(PINNED) {
        assert_eq!(name, pin_name);
        assert_eq!(
            (*len, *digest),
            (*pin_len, *pin_digest),
            "{name}: the encoded bytes moved (now {len} B, digest {digest:#018x})"
        );
    }
}

#[test]
fn a_128_core_service_checkpoint_encodes_to_its_pinned_bytes() {
    let bytes = service_checkpoint();
    let got = (bytes.len(), fnv1a64(&bytes));
    assert!(got.0 >= 150_000, "a {} B checkpoint is too small", got.0);
    assert_eq!(
        got, CHECKPOINT,
        "the checkpoint bytes moved (now {} B, digest {:#018x})",
        got.0, got.1
    );
}

#[test]
fn simulator_checkpoints_encode_to_their_pinned_bytes() {
    for (dram, len, digest) in SYSTEM_CHECKPOINTS {
        let bytes = system_checkpoint(dram);
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            (len, digest),
            "{dram:?} DRAM: the checkpoint bytes moved (now {} B, digest {:#018x})",
            bytes.len(),
            fnv1a64(&bytes)
        );
    }
}
