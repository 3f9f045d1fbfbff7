//! Torn-checkpoint robustness for the `bap serve` restart story (tier 1).
//!
//! The serving tier checkpoints to disk (`--checkpoint FILE`) and
//! cold-starts from that file after a crash. A crash can also *tear* the
//! file: truncate it mid-write, flip bits on a dying disk, or leave it
//! empty. The contract under test:
//!
//! * [`DecisionService::restore_from_path`] answers every torn input with
//!   a typed `RecoveryError` — never a panic — and leaves the target
//!   service untouched;
//! * the intact bytes always restore, so the error paths are real
//!   rejections, not blanket refusal;
//! * after a torn *file*, the in-memory recovery ring still reaches a
//!   working rung: the server itself recovers even when the disk copy is
//!   gone.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use bankaware::partitioning::{DecisionService, ServeConfig};
use bankaware::recovery::RecoveryRung;
use bankaware::trace::wire::{RequestKind, ResponseKind, WireCurve, WireRequest};
use proptest::prelude::*;

/// Knee-shaped miss-ratio curves: deterministic in (cores, seed).
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
                accesses: base.max(1.0) * 4.0,
                misses,
            }
        })
        .collect()
}

fn req(id: u64, kind: RequestKind) -> WireRequest {
    WireRequest::new(id, kind)
}

/// A service with two warmed sessions — the state every test tears.
fn seeded_service() -> DecisionService {
    let mut svc = DecisionService::new(ServeConfig::default());
    svc.process_batch(&[
        req(
            1,
            RequestKind::Open {
                session: 1,
                cores: 8,
            },
        ),
        req(
            2,
            RequestKind::Open {
                session: 2,
                cores: 16,
            },
        ),
    ]);
    for round in 0..3u64 {
        svc.process_batch(&[
            req(
                10 + round * 2,
                RequestKind::Snapshot {
                    session: 1,
                    curves: knee_curves(8, round),
                },
            ),
            req(
                11 + round * 2,
                RequestKind::Snapshot {
                    session: 2,
                    curves: knee_curves(16, round ^ 0xBEEF),
                },
            ),
        ]);
    }
    svc
}

/// The encoded bytes of the seeded service's checkpoint, computed once —
/// solving six epochs per proptest case would drown the suite.
fn checkpoint_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| seeded_service().checkpoint().encode())
}

/// Write `bytes` to a unique temp file and return its path.
fn write_temp(bytes: &[u8]) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("bap_torn_checkpoint_{}_{n}.cp", std::process::id()));
    std::fs::write(&path, bytes).expect("temp file writable");
    path
}

/// A service is *untouched* when it still has no sessions and keeps
/// serving: a failed restore must be atomic.
fn assert_untouched_and_serving(svc: &mut DecisionService) {
    assert_eq!(svc.num_sessions(), 0, "failed restore must not leak state");
    let out = svc.process_batch(&[req(
        999,
        RequestKind::Open {
            session: 9,
            cores: 8,
        },
    )]);
    assert!(matches!(out[0].kind, ResponseKind::Opened { .. }));
}

#[test]
fn the_intact_checkpoint_restores() {
    let path = write_temp(checkpoint_bytes());
    let mut svc = DecisionService::new(ServeConfig::default());
    let tick = svc.restore_from_path(&path).expect("intact bytes restore");
    assert_eq!(svc.num_sessions(), 2);
    assert!(tick > 0);
    let _ = std::fs::remove_file(path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every proper prefix — from the empty file up to one byte short —
    /// is a typed rejection, and the service it was aimed at stays clean.
    #[test]
    fn truncated_checkpoints_fail_typed(frac in 0.0..1.0f64) {
        let bytes = checkpoint_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assume!(cut < bytes.len());
        let path = write_temp(&bytes[..cut]);
        let mut svc = DecisionService::new(ServeConfig::default());
        let err = svc
            .restore_from_path(&path)
            .expect_err("a proper prefix must never restore");
        prop_assert!(!err.to_string().is_empty(), "errors must describe themselves");
        assert_untouched_and_serving(&mut svc);
        let _ = std::fs::remove_file(path);
    }

    /// A single flipped bit anywhere in the file is caught: the magic is
    /// framing, everything after it is checksummed, and FNV-1a's
    /// per-byte mix is injective, so no lone flip can collide.
    #[test]
    fn bit_flipped_checkpoints_fail_typed(pos in 0.0..1.0f64, bit in 0u8..8) {
        let mut bytes = checkpoint_bytes().to_vec();
        let idx = ((bytes.len() as f64) * pos) as usize;
        prop_assume!(idx < bytes.len());
        bytes[idx] ^= 1 << bit;
        let path = write_temp(&bytes);
        let mut svc = DecisionService::new(ServeConfig::default());
        let err = svc
            .restore_from_path(&path)
            .expect_err("a flipped bit must never restore");
        prop_assert!(!err.to_string().is_empty());
        assert_untouched_and_serving(&mut svc);
        let _ = std::fs::remove_file(path);
    }

    /// Arbitrary garbage files (including JSON-looking ones) are typed
    /// rejections too — the framing check runs before any parsing.
    #[test]
    fn garbage_files_fail_typed(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let path = write_temp(&bytes);
        let mut svc = DecisionService::new(ServeConfig::default());
        let err = svc
            .restore_from_path(&path)
            .expect_err("garbage must never restore");
        prop_assert!(!err.to_string().is_empty());
        assert_untouched_and_serving(&mut svc);
        let _ = std::fs::remove_file(path);
    }
}

/// The full crash story: the disk checkpoint tears, but the server's
/// in-memory recovery ring still reaches a working rung and the service
/// keeps answering the same plans.
#[test]
fn recovery_ladder_survives_a_torn_checkpoint_file() {
    let dir = std::env::temp_dir().join(format!("bap_recovery_ladder_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("serve.cp");
    let cfg = ServeConfig {
        checkpoint_path: Some(file.clone()),
        ..ServeConfig::default()
    };
    let mut svc = DecisionService::new(cfg);
    svc.process_batch(&[
        req(
            1,
            RequestKind::Open {
                session: 1,
                cores: 8,
            },
        ),
        req(
            2,
            RequestKind::Snapshot {
                session: 1,
                curves: knee_curves(8, 42),
            },
        ),
        req(3, RequestKind::Checkpoint),
    ]);
    let before = svc.process_batch(&[req(4, RequestKind::Plan { session: 1 })]);

    // Tear the disk copy: truncate to half.
    let bytes = std::fs::read(&file).expect("checkpoint file written");
    std::fs::write(&file, &bytes[..bytes.len() / 2]).expect("tear file");

    // Rung 3 (the disk file) is dead — typed, not a panic.
    let mut cold = DecisionService::new(ServeConfig::default());
    assert!(
        cold.restore_from_path(&file).is_err(),
        "torn disk checkpoint must be rejected"
    );

    // But the in-memory ring (rungs 1–2) still carries the day.
    let (rung, tick) = svc.recover().expect("ring checkpoint survives");
    assert_eq!(rung, RecoveryRung::Newest);
    assert_eq!(tick, 1, "the ring checkpoint covered tick 1");
    let after = svc.process_batch(&[req(5, RequestKind::Plan { session: 1 })]);
    assert_eq!(
        before[0].kind, after[0].kind,
        "the recovered service answers the same plan"
    );

    let _ = std::fs::remove_dir_all(dir);
}

/// `save_checkpoint_file` is the durability primitive under both the
/// `--checkpoint` restart story and the replication-log anchor, so its
/// contract is pinned here: the write is atomic (no `.tmp` debris, an
/// existing destination is replaced wholesale, a failed save leaves the
/// old file intact) and what lands on disk reloads bit-exactly. The
/// fsync-before-rename + parent-directory-fsync ordering itself cannot
/// be observed without a crash, but every error path it added must stay
/// typed — a full disk or unwritable directory is a `RecoveryError`,
/// never a panic.
#[test]
fn save_checkpoint_file_is_atomic_and_reloads_bit_exactly() {
    use bankaware::recovery::{load_checkpoint_file, save_checkpoint_file};

    let dir = std::env::temp_dir().join(format!("bap_durable_save_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("serve.cp");

    let cp = seeded_service().checkpoint();
    let written = save_checkpoint_file(&path, &cp.encode()).expect("save succeeds");
    assert_eq!(written, cp.encode().len(), "reported size is the payload");
    assert!(
        !path.with_extension("tmp").exists(),
        "the staging file must not survive a successful save"
    );
    let back = load_checkpoint_file(&path).expect("reload");
    assert_eq!(back.encode(), cp.encode(), "round trip is bit-exact");

    // Overwrite in place: a second save replaces the file wholesale.
    let mut svc = seeded_service();
    svc.process_batch(&[req(
        900,
        RequestKind::Snapshot {
            session: 1,
            curves: knee_curves(8, 77),
        },
    )]);
    let cp2 = svc.checkpoint();
    save_checkpoint_file(&path, &cp2.encode()).expect("overwrite succeeds");
    assert_eq!(
        load_checkpoint_file(&path).expect("reload").encode(),
        cp2.encode(),
        "the destination was replaced wholesale"
    );

    // An unwritable destination fails typed and leaves the good file.
    let bad = dir.join("no_such_subdir").join("serve.cp");
    assert!(
        save_checkpoint_file(&bad, &cp.encode()).is_err(),
        "unwritable destination must be a typed error"
    );
    assert_eq!(
        load_checkpoint_file(&path).expect("survivor").encode(),
        cp2.encode(),
        "a failed save elsewhere must not disturb the existing file"
    );

    let _ = std::fs::remove_dir_all(dir);
}
