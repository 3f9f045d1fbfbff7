//! Seeded chaos bench for replicated `bap serve`: kill -9 the primary
//! mid-flood, promote the follower, and prove the guarantees the
//! replication tier sells — the failover tier's proving run.
//!
//! Three scenarios run in sequence, all on in-process `Server` pairs with
//! the faults injected around them (`bap_fault`'s seams), so the crash
//! point is exact and reproducible from the seed:
//!
//! * **Divergence** — a follower joins a primary that has already
//!   re-anchored its bounded log (cold join = checkpoint + suffix),
//!   catches up to the primary's exact tick and plan fingerprints, then a
//!   `TamperRelay` on the link flips a single bit in one shipped session
//!   digest. The follower's replay cross-check must report the divergence
//!   and refuse promotion with the pinned `divergence` code.
//! * **Failover** — client threads flood `call_with_retry` against a
//!   `[primary, follower]` replica list; mid-flood the primary's
//!   `CrashSink` tracer kills it *after* shipping a batch but *before*
//!   answering it (the durability window), the follower is promoted, and
//!   the flood finishes against it. Verdicts: **zero acknowledged-decision loss** (no client call
//!   gives up, every retried id is answered exactly once), the surviving
//!   answer stream is **byte-identical** to a serial ground-truth replay
//!   of each client's id-ordered sequence on a fresh unreplicated
//!   service, and **promotion latency** (primary confirmed dead → first
//!   decision served by the successor) stays under the target.
//! * **Fencing** — a follower is promoted while the old primary still
//!   runs at the stale term; once the client has observed the new term
//!   and the successor has shut down, the deposed primary's answer must
//!   be demoted to the pinned `fenced` error before the caller sees it.
//!
//! Any violation writes `results/failover_failing_seed.txt` with the
//! master seed and exits non-zero; the seed re-runs the identical load.
//! `--quick` is the CI smoke, and `--check` gates promotion latency
//! against the committed baseline with 2x headroom. Results land in
//! `results/BENCH_failover.json`.

use bap_bench::common::{results_dir, write_json, Args};
use bap_core::{DecisionService, ReplItem, ServeConfig, Server};
use bap_fault::{CrashSink, TamperRelay};
use bap_trace::wire::{
    encode_response, RequestKind, ResponseKind, WireCurve, WireRequest, WireResponse,
};
use bap_trace::{EventKind, TraceEvent, Tracer};
use bap_types::{ReplicationConfig, RetryConfig};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Committed reference point for the `--check` regression gate.
const BASELINE_JSON: &str = include_str!("../baselines/failover_baseline.json");

/// The gate trips when promotion latency exceeds baseline x this factor.
const CHECK_HEADROOM: f64 = 2.0;

/// Cores per session (smaller than exp_serve's 32: the interesting work
/// here is the replication protocol, not the solver).
const CORES: usize = 8;

/// Full-run headline target: primary death confirmed to first decision
/// answered by the promoted follower.
const TARGET_PROMOTE_MS: f64 = 1000.0;

#[derive(Serialize)]
struct FailoverStats {
    sessions: usize,
    rounds_per_client: usize,
    decisions: usize,
    acked_before_kill: usize,
    acked_after_kill: usize,
    promote_latency_ms: f64,
    promote_term: u64,
    divergences_detected: u64,
    promote_refused_on_divergence: bool,
    anchor_tick_after_rollover: u64,
    log_entries_bound: usize,
    fenced_rejections: usize,
    gave_up: usize,
    byte_identical_responses: usize,
}

#[derive(Deserialize)]
struct Baseline {
    promote_latency_ms: f64,
}

fn knee_curves(session: u64, round: usize, master_seed: u64) -> Vec<WireCurve> {
    let seed = master_seed ^ session.wrapping_mul(0x9E37_79B9) ^ (round as u64) << 8;
    (0..CORES)
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

/// The id-ordered request sequence one client sends for its session.
/// Ids are globally unique: client `c` owns the band `(c+1) * 10^6`.
fn client_requests(client: usize, rounds: usize, master_seed: u64) -> Vec<WireRequest> {
    let session = client as u64 + 1;
    let mut id = (client as u64 + 1) * 1_000_000;
    let mut req = |kind: RequestKind| {
        id += 1;
        WireRequest::new(id, kind)
    };
    let mut out = vec![req(RequestKind::Open {
        session,
        cores: CORES,
    })];
    for round in 0..rounds {
        out.push(req(RequestKind::Snapshot {
            session,
            curves: knee_curves(session, round, master_seed),
        }));
    }
    out
}

/// One response, normalized for byte-comparison against the serial
/// ground truth: tick depends on batching and term on which replica
/// answered, so both are masked before encoding. Everything else —
/// the id and the full response kind — must match byte for byte.
fn normalized(resp: &WireResponse) -> String {
    encode_response(&WireResponse {
        id: resp.id,
        tick: 0,
        term: None,
        kind: resp.kind.clone(),
    })
}

/// What one flooding client observed: every acknowledged answer in
/// arrival order, with its wall-clock instant.
struct Acked {
    encoded: String,
    decision: bool,
    at: Instant,
}

struct ClientOut {
    acked: Vec<Acked>,
    gave_up: Vec<String>,
}

fn run_client(
    reqs: Vec<WireRequest>,
    fleet: bap_core::ServeClient,
    retry: RetryConfig,
) -> ClientOut {
    let mut out = ClientOut {
        acked: Vec::new(),
        gave_up: Vec::new(),
    };
    for req in reqs {
        let id = req.id;
        match fleet.call_with_retry(req, &retry) {
            Ok(resp) => {
                let decision = matches!(resp.kind, ResponseKind::Decision { .. });
                out.acked.push(Acked {
                    encoded: normalized(&resp),
                    decision,
                    at: Instant::now(),
                });
            }
            Err(e) => out.gave_up.push(format!("id {id}: {e}")),
        }
    }
    out
}

fn fail(master_seed: u64, violation: &str) -> ! {
    let path = results_dir().join("failover_failing_seed.txt");
    std::fs::write(
        &path,
        format!("seed={master_seed}\nviolation={violation}\n"),
    )
    .expect("write failing seed");
    eprintln!("FAILOVER FAILURE: {violation}");
    eprintln!("reproduce with: cargo run --release --bin exp_failover -- --seed {master_seed}");
    eprintln!("failing seed written to {}", path.display());
    std::process::exit(1);
}

fn repl_cfg(follower: bool, log_capacity: usize) -> ServeConfig {
    ServeConfig {
        replication: Some(ReplicationConfig {
            follower,
            log_capacity,
            ack_timeout_ms: 500,
        }),
        ..ServeConfig::default()
    }
}

fn call(conn: &bap_core::ServeClient, id: u64, kind: RequestKind) -> WireResponse {
    conn.call(WireRequest::new(id, kind))
        .expect("replica answered")
}

/// Flip one bit in the first digest of a shipped entry; anchors and
/// digest-less entries pass untouched.
fn flip_first_digest(item: &mut ReplItem) -> bool {
    match item {
        ReplItem::Entry { entry, .. } if !entry.digests.is_empty() => {
            entry.digests[0].fingerprint ^= 1;
            true
        }
        _ => false,
    }
}

/// Scenario 1: bounded-log catch-up, the digest cross-check, and the
/// `divergence` promotion refusal. Returns (divergences seen, refusal
/// observed, anchor tick after rollover, retained log entries).
fn scenario_divergence(seed: u64, rounds: usize) -> (u64, bool, u64, usize) {
    const LOG_CAPACITY: usize = 8;
    let primary = Server::spawn(DecisionService::new(repl_cfg(false, LOG_CAPACITY)));
    let follower = Server::spawn(DecisionService::new(repl_cfg(true, LOG_CAPACITY)));
    let pconn = primary.client();
    let fconn = follower.client();
    // The replication link runs through a relay that can flip one bit in
    // a shipped digest.
    let (link, flip) = TamperRelay::spawn(follower.repl_sink(), flip_first_digest);

    // Flood the primary past its log capacity BEFORE the follower joins,
    // so the join path must restore a re-anchored checkpoint, not replay
    // from tick zero.
    let mut id = 0;
    let mut next = || {
        id += 1;
        id
    };
    call(
        &pconn,
        next(),
        RequestKind::Open {
            session: 1,
            cores: CORES,
        },
    );
    for round in 0..rounds {
        let resp = call(
            &pconn,
            next(),
            RequestKind::Snapshot {
                session: 1,
                curves: knee_curves(1, round, seed),
            },
        );
        if !matches!(resp.kind, ResponseKind::Decision { .. }) {
            fail(
                seed,
                &format!("pre-join decision got {}", resp.kind.label()),
            );
        }
    }
    let (anchor_tick, log_entries) = match call(&pconn, next(), RequestKind::ReplStatus).kind {
        ResponseKind::ReplStatus {
            anchor_tick,
            log_entries,
            ..
        } => (anchor_tick, log_entries),
        other => fail(seed, &format!("primary status got {}", other.label())),
    };
    if rounds > LOG_CAPACITY && anchor_tick == 0 {
        fail(
            seed,
            &format!("{rounds} decisions never rolled the capacity-{LOG_CAPACITY} log anchor"),
        );
    }
    if log_entries > LOG_CAPACITY {
        fail(
            seed,
            &format!("log retained {log_entries} entries past capacity {LOG_CAPACITY}"),
        );
    }

    // Cold join: checkpoint + suffix, then live shipping.
    primary.attach(link);
    let ptick: u64 = {
        // One more decision lands after the join and must arrive live.
        let resp = call(
            &pconn,
            next(),
            RequestKind::Snapshot {
                session: 1,
                curves: knee_curves(1, rounds, seed),
            },
        );
        if !matches!(resp.kind, ResponseKind::Decision { .. }) {
            fail(
                seed,
                &format!("post-join decision got {}", resp.kind.label()),
            );
        }
        match call(&pconn, next(), RequestKind::ReplStatus).kind {
            ResponseKind::ReplStatus { tick, .. } => tick,
            other => fail(seed, &format!("primary status got {}", other.label())),
        }
    };
    // The primary answers only after every live follower acked, so by the
    // time we read its tick the follower has applied it.
    match call(&fconn, 1_000_001, RequestKind::ReplStatus).kind {
        ResponseKind::ReplStatus {
            role,
            tick,
            divergences,
            ..
        } => {
            if role != "follower" {
                fail(seed, &format!("joined replica reports role {role}"));
            }
            if tick != ptick {
                fail(
                    seed,
                    &format!("follower applied tick {tick}, primary committed {ptick}"),
                );
            }
            if divergences != 0 {
                fail(seed, &format!("{divergences} divergences before the flip"));
            }
        }
        other => fail(seed, &format!("follower status got {}", other.label())),
    }
    // Replayed state must carry the same plan, byte for byte. The two
    // queries ride different request ids, so mask the id too.
    let masked = |resp: WireResponse| normalized(&WireResponse { id: 0, ..resp });
    let pplan = masked(call(&pconn, next(), RequestKind::Plan { session: 1 }));
    let fplan = masked(call(&fconn, 1_000_002, RequestKind::Plan { session: 1 }));
    if pplan != fplan {
        fail(
            seed,
            &format!("replayed plan differs from primary: {fplan} vs {pplan}"),
        );
    }

    // Flip one bit in the next shipped digest. The primary's own log and
    // state stay clean — only the follower's cross-check sees the lie.
    flip.arm();
    call(
        &pconn,
        next(),
        RequestKind::Snapshot {
            session: 1,
            curves: knee_curves(1, rounds + 1, seed),
        },
    );
    let divergences = match call(&fconn, 1_000_003, RequestKind::ReplStatus).kind {
        ResponseKind::ReplStatus { divergences, .. } => divergences,
        other => fail(seed, &format!("follower status got {}", other.label())),
    };
    if divergences == 0 {
        fail(seed, "injected digest bit-flip was not detected");
    }
    // A diverged follower must refuse promotion.
    let refused = match call(&fconn, 1_000_004, RequestKind::Promote).kind {
        ResponseKind::Error { code, .. } if code == "divergence" => true,
        other => fail(
            seed,
            &format!("diverged follower answered promote with {}", other.label()),
        ),
    };
    call(&pconn, next(), RequestKind::Shutdown);
    call(&fconn, 1_000_005, RequestKind::Shutdown);
    primary.join();
    follower.join();
    (divergences, refused, anchor_tick, log_entries)
}

/// What the kill-9 flood produced.
struct FailoverOut {
    clients: Vec<ClientOut>,
    promote_latency_ms: f64,
    promote_term: u64,
    acked_before_kill: usize,
    acked_after_kill: usize,
}

/// Scenario 2: the kill-9 flood.
fn scenario_failover(seed: u64, sessions: usize, rounds: usize) -> FailoverOut {
    // The primary crashes in the durability window: at the first shipment
    // after it served a third of the flood's decisions — every follower
    // acked that batch, no client has heard back.
    let kill_after = sessions * rounds / 3;
    let mut served = 0;
    let crashing = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&crashing);
    let crash = CrashSink::new(move |e: &TraceEvent| match &e.kind {
        EventKind::RequestServed { kind, .. } if kind == "snapshot" => {
            served += 1;
            false
        }
        EventKind::ReplEntryShipped { .. } if served >= kill_after => {
            flag.store(true, Ordering::SeqCst);
            true
        }
        _ => false,
    });
    let primary = Server::spawn(DecisionService::new(ServeConfig {
        tracer: Tracer::new(Box::new(crash)),
        ..repl_cfg(false, 64)
    }));
    let follower = Server::spawn(DecisionService::new(repl_cfg(true, 64)));
    primary.replicate_to(&follower);

    let fleet = Server::client_of(&[&primary, &follower]);
    let retry = RetryConfig {
        max_attempts: 60,
        base_backoff_ms: 1,
        max_backoff_ms: 20,
        jitter_frac: 0.3,
        seed,
    };

    let out = thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|c| {
                let reqs = client_requests(c, rounds, seed);
                let fleet = fleet.clone();
                scope.spawn(move || run_client(reqs, fleet, retry))
            })
            .collect();

        // Failover controller: once the crash fires, probe the primary
        // until its death is confirmed.
        let deadline = Instant::now() + Duration::from_secs(30);
        let pprobe = primary.client();
        while !crashing.load(Ordering::SeqCst)
            || pprobe
                .call(WireRequest::new(900_000_000, RequestKind::Stats))
                .is_ok()
        {
            if Instant::now() > deadline {
                fail(seed, "primary did not crash within 30s");
            }
            thread::sleep(Duration::from_millis(1));
        }
        let kill_confirmed = Instant::now();

        // Fenced promotion: bump the follower to term 2.
        let fdirect = follower.client();
        let promote = call(&fdirect, 910_000_000, RequestKind::Promote);
        let term = match promote.kind {
            ResponseKind::Promoted { term, .. } => term,
            other => fail(seed, &format!("promote answered {}", other.label())),
        };

        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();

        // Promotion latency: primary confirmed dead -> first decision any
        // client got from the successor.
        let first_after = outs
            .iter()
            .flat_map(|o| &o.acked)
            .filter(|a| a.decision && a.at > kill_confirmed)
            .map(|a| a.at)
            .min();
        let latency_ms = match first_after {
            Some(at) => at.duration_since(kill_confirmed).as_secs_f64() * 1e3,
            None => fail(seed, "no client completed a decision after the failover"),
        };
        let decisions = |after: bool| {
            outs.iter()
                .flat_map(|o| &o.acked)
                .filter(|a| a.decision && (a.at > kill_confirmed) == after)
                .count()
        };
        FailoverOut {
            acked_before_kill: decisions(false),
            acked_after_kill: decisions(true),
            clients: outs,
            promote_latency_ms: latency_ms,
            promote_term: term,
        }
    });

    // A crashed server is dropped, not joined.
    drop(primary);
    let fconn = follower.client();
    call(&fconn, u64::MAX - 1, RequestKind::Shutdown);
    follower.join();
    out
}

/// Scenario 3: the deposed primary's answers are demoted to `fenced`.
fn scenario_fencing(seed: u64) -> usize {
    let primary = Server::spawn(DecisionService::new(repl_cfg(false, 64)));
    let follower = Server::spawn(DecisionService::new(repl_cfg(true, 64)));
    primary.replicate_to(&follower);
    let pconn = primary.client();

    call(
        &pconn,
        1,
        RequestKind::Open {
            session: 1,
            cores: CORES,
        },
    );
    call(
        &pconn,
        2,
        RequestKind::Snapshot {
            session: 1,
            curves: knee_curves(1, 0, seed),
        },
    );

    // Promote the follower while the stale primary keeps running, then
    // let one shared client observe the new term from the successor.
    let fdirect = follower.client();
    match call(&fdirect, 3, RequestKind::Promote).kind {
        ResponseKind::Promoted { term: 2, .. } => {}
        other => fail(seed, &format!("promote answered {}", other.label())),
    }
    let fleet = Server::client_of(&[&follower, &primary]);
    match call(&fleet, 4, RequestKind::Stats).kind {
        ResponseKind::Stats { .. } => {}
        other => fail(seed, &format!("stats on successor got {}", other.label())),
    }

    // Shut the successor down: the fleet client falls back to the deposed
    // primary, whose stale-termed answer must be demoted to `fenced`.
    call(&fdirect, 5, RequestKind::Shutdown);
    follower.join();
    let fenced = match call(&fleet, 6, RequestKind::Stats).kind {
        ResponseKind::Error { ref code, .. } if code == "fenced" => 1,
        other => fail(
            seed,
            &format!("deposed primary answered {} unfenced", other.label()),
        ),
    };
    call(&pconn, u64::MAX - 2, RequestKind::Shutdown);
    primary.join();
    fenced
}

fn main() {
    let args = Args::parse();
    let sessions: usize = if args.quick { 2 } else { 4 };
    let rounds: usize = if args.quick { 40 } else { 150 };

    // ---- Scenario 1: divergence detection -------------------------------
    let (divergences, refused, anchor_tick, log_entries) =
        scenario_divergence(args.seed, if args.quick { 12 } else { 40 });
    println!(
        "divergence: {} mismatch(es) caught from one flipped bit, promote refused, \
         log bounded at {} entries (anchor tick {})",
        divergences, log_entries, anchor_tick
    );

    // ---- Scenario 2: kill-9 failover ------------------------------------
    let failover = scenario_failover(args.seed, sessions, rounds);
    let outs = &failover.clients;

    let gave_up: Vec<&String> = outs.iter().flat_map(|o| &o.gave_up).collect();
    if let Some(g) = gave_up.first() {
        fail(
            args.seed,
            &format!(
                "{} acknowledged decisions lost to give-ups, first: {g}",
                gave_up.len()
            ),
        );
    }

    // Byte-identity: each client's acknowledged stream must equal a
    // serial ground-truth replay of its id-ordered sequence on a fresh
    // unreplicated service — same answers, same order, byte for byte.
    let mut byte_identical = 0usize;
    for (c, out) in outs.iter().enumerate() {
        let mut truth = DecisionService::new(ServeConfig::default());
        let mut expect = Vec::new();
        for req in client_requests(c, rounds, args.seed) {
            for resp in truth.process_batch(std::slice::from_ref(&req)) {
                expect.push(normalized(&resp));
            }
        }
        let got: Vec<&String> = out.acked.iter().map(|a| &a.encoded).collect();
        if got.len() != expect.len() {
            fail(
                args.seed,
                &format!(
                    "session {}: {} acknowledged answers, ground truth has {}",
                    c + 1,
                    got.len(),
                    expect.len()
                ),
            );
        }
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            if *g != e {
                fail(
                    args.seed,
                    &format!(
                        "session {}: answer {} diverged from ground truth across the \
                         failover:\n  got      {g}\n  expected {e}",
                        c + 1,
                        i
                    ),
                );
            }
        }
        byte_identical += got.len();
    }

    let decisions = failover.acked_before_kill + failover.acked_after_kill;
    println!(
        "failover: {} sessions x {} rounds, {} decisions ({} before the kill, {} after) \
         survived a mid-flood kill -9",
        sessions, rounds, decisions, failover.acked_before_kill, failover.acked_after_kill
    );
    println!(
        "  promoted to term {} in {:.1} ms, {} answers byte-identical to serial ground truth",
        failover.promote_term, failover.promote_latency_ms, byte_identical
    );

    // ---- Scenario 3: fencing --------------------------------------------
    let fenced = scenario_fencing(args.seed);
    println!("fencing: deposed primary demoted to `fenced` on {fenced} stale answer(s)");

    // ---- Report ---------------------------------------------------------
    let stats = FailoverStats {
        sessions,
        rounds_per_client: rounds,
        decisions,
        acked_before_kill: failover.acked_before_kill,
        acked_after_kill: failover.acked_after_kill,
        promote_latency_ms: failover.promote_latency_ms,
        promote_term: failover.promote_term,
        divergences_detected: divergences,
        promote_refused_on_divergence: refused,
        anchor_tick_after_rollover: anchor_tick,
        log_entries_bound: log_entries,
        fenced_rejections: fenced,
        gave_up: 0,
        byte_identical_responses: byte_identical,
    };

    if !args.quick && stats.promote_latency_ms > TARGET_PROMOTE_MS {
        eprintln!(
            "FAIL: promotion latency {:.1} ms over the {TARGET_PROMOTE_MS} ms target",
            stats.promote_latency_ms
        );
        std::process::exit(1);
    }

    let path = write_json("BENCH_failover", &stats);
    println!("wrote {}", path.display());

    if args.check {
        let baseline: Baseline = serde_json::from_str(BASELINE_JSON).expect("baseline parses");
        let limit = baseline.promote_latency_ms * CHECK_HEADROOM;
        println!(
            "check: promote {:.1} ms vs limit {:.1} ms (baseline {:.1} ms x {CHECK_HEADROOM})",
            stats.promote_latency_ms, limit, baseline.promote_latency_ms
        );
        if stats.promote_latency_ms > limit {
            eprintln!("FAIL: promotion latency regression past the committed baseline");
            std::process::exit(1);
        }
    }
}
