//! `bap serve` under load: throughput, tail latency, and survival of a
//! mid-load checkpoint/restart — the decision service's soak tier.
//!
//! A threaded `Server` is driven by one client thread per session (32-core
//! ring each), every client streaming rounds of `Snapshot` decisions with
//! seeded, slowly drifting curves (drift every few rounds keeps the
//! warm-start path honest: most epochs reuse, some re-solve). The harness
//! checks, in one run:
//!
//! * **zero dropped or garbled responses** — every call is answered, every
//!   response echoes its request id, every installed plan has one way
//!   count per core summing to the machine's 512 ways;
//! * **checkpoint-under-load loses no acknowledged state** — all clients
//!   pause on a barrier mid-load, a `Checkpoint` request persists the
//!   service to disk, and after the run a fresh service restored from that
//!   file must report exactly the last plan each client had *acknowledged*
//!   before the pause;
//! * **the threaded run is deterministic** — a serial replay of the same
//!   per-session request sequences must reproduce every decision
//!   fingerprint the racing clients saw, in order.
//!
//! Any violation writes `results/serve_failing_seed.txt` with the master
//! seed and exits non-zero; the seed re-runs the identical load. The full
//! run additionally enforces the headline targets (≥ 1000 decisions/sec,
//! p99 ≤ 5 ms); `--quick` is the CI smoke, and `--check` gates quick-mode
//! p99 against the committed baseline with 2× headroom. Results land in
//! `results/BENCH_serve.json`.

use bap_bench::common::{results_dir, write_json, Args};
use bap_core::{DecisionService, ServeConfig, Server};
use bap_trace::wire::{RequestKind, ResponseKind, WireCurve, WireRequest};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

/// Committed reference point for the `--check` regression gate.
const BASELINE_JSON: &str = include_str!("../baselines/serve_baseline.json");

/// The gate trips when quick-mode p99 exceeds baseline × this factor.
const CHECK_HEADROOM: f64 = 2.0;

/// Cores per session: the ISSUE's 32-core target topology (64 banks × 8
/// ways = 512 total ways).
const CORES: usize = 32;
const TOTAL_WAYS: usize = 512;

/// Full-run headline targets.
const TARGET_DECISIONS_PER_SEC: f64 = 1000.0;
const TARGET_P99_US: f64 = 5000.0;

/// Per-client decisions excluded from the latency percentiles: cold-start
/// rounds that pay one-time pool spawns and first-touch allocations.
const WARMUP_DECISIONS: usize = 2;

#[derive(Serialize)]
struct ServeStats {
    sessions: usize,
    cores_per_session: usize,
    rounds_per_client: usize,
    decisions: usize,
    evaluations: usize,
    decisions_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    dropped: usize,
    garbled: usize,
    checkpoint_bytes: usize,
    checkpoint_tick: u64,
    restored_sessions: usize,
    warm_hits: u64,
    plans_installed: u64,
}

#[derive(Deserialize)]
struct Baseline {
    p99_us: f64,
}

/// Per-core knee curves for one session round. Drift: the curve set only
/// changes every `DRIFT_ROUNDS` rounds, so steady-state epochs exercise
/// the warm-start path while drift boundaries force real re-solves.
const DRIFT_ROUNDS: usize = 6;

fn round_curves(session: u64, round: usize, master_seed: u64) -> Vec<WireCurve> {
    let drift = (round / DRIFT_ROUNDS) as u64;
    let seed = master_seed ^ session.wrapping_mul(0x9E37_79B9) ^ drift.wrapping_mul(0x1_0000_01B3);
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
/// Ids are globally unique: client `c` owns the band `(c+1) · 10⁶`.
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
            curves: round_curves(session, round, master_seed),
        }));
        if round % 16 == 7 {
            out.push(req(RequestKind::Evaluate {
                session,
                curves: round_curves(session, round + 1, master_seed ^ 0xE7A1),
            }));
        }
    }
    out
}

/// What one client thread observed.
#[derive(Default)]
struct ClientOut {
    latencies_us: Vec<f64>,
    /// Decision fingerprints in arrival order (the acknowledged history).
    decisions: Vec<u64>,
    evaluations: usize,
    /// Last acknowledged decision fingerprint before the checkpoint pause.
    acked_at_checkpoint: Option<u64>,
    dropped: usize,
    garbled: Vec<String>,
}

fn run_client(
    client: usize,
    reqs: Vec<WireRequest>,
    server: &Server,
    pause: &Barrier,
    resume: &Barrier,
    pause_after: usize,
) -> ClientOut {
    let conn = server.client();
    let mut out = ClientOut::default();
    let mut decided = 0usize;
    let mut paused = false;
    for req in reqs {
        if decided >= pause_after && !paused {
            out.acked_at_checkpoint = out.decisions.last().copied();
            pause.wait();
            resume.wait();
            paused = true;
        }
        let id = req.id;
        let t = Instant::now();
        let Ok(resp) = conn.call(req) else {
            out.dropped += 1;
            continue;
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        if resp.id != id {
            out.garbled
                .push(format!("client {client}: sent id {id}, got id {}", resp.id));
        }
        match resp.kind {
            ResponseKind::Opened { cores, .. } => {
                if cores != CORES {
                    out.garbled
                        .push(format!("client {client}: opened {cores} cores"));
                }
            }
            ResponseKind::Decision {
                installed,
                ways,
                fingerprint,
                ..
            } => {
                // The first decisions of a fresh server pay one-time costs
                // (worker-pool spawn, first-touch solver allocations);
                // percentiles report steady state, as latency benches do.
                if decided >= WARMUP_DECISIONS {
                    out.latencies_us.push(us);
                }
                decided += 1;
                out.decisions.push(fingerprint);
                if installed && (ways.len() != CORES || ways.iter().sum::<usize>() != TOTAL_WAYS) {
                    out.garbled.push(format!(
                        "client {client}: plan shape {} cores / {} ways",
                        ways.len(),
                        ways.iter().sum::<usize>()
                    ));
                }
            }
            ResponseKind::Evaluated { .. } => out.evaluations += 1,
            other => out
                .garbled
                .push(format!("client {client}: unexpected {}", other.label())),
        }
    }
    // A client whose workload ended before `pause_after` decisions must
    // still meet the barrier, or everyone else deadlocks.
    if !paused {
        out.acked_at_checkpoint = out.decisions.last().copied();
        pause.wait();
        resume.wait();
    }
    out
}

fn fail(args: &Args, violation: &str) -> ! {
    let path = results_dir().join("serve_failing_seed.txt");
    std::fs::write(
        &path,
        format!("seed={}\nviolation={violation}\n", args.seed),
    )
    .expect("write failing seed");
    eprintln!("SERVE FAILURE: {violation}");
    eprintln!("reproduce with: {}", args.repro_command("exp_serve"));
    eprintln!("failing seed written to {}", path.display());
    std::process::exit(1);
}

fn main() {
    let args = Args::parse();
    let sessions: usize = if args.quick { 4 } else { 8 };
    let rounds: usize = if args.quick { 60 } else { 400 };
    let pause_after = rounds / 2;
    let checkpoint_path = results_dir().join("serve_checkpoint.json");

    let cfg = ServeConfig {
        checkpoint_path: Some(checkpoint_path.clone()),
        ..ServeConfig::default()
    };
    let server = Server::spawn(DecisionService::new(cfg));

    // Client threads race the batching loop; two barriers bracket the
    // mid-load checkpoint so it lands at a known acknowledged frontier.
    let pause = Arc::new(Barrier::new(sessions + 1));
    let resume = Arc::new(Barrier::new(sessions + 1));
    let t0 = Instant::now();
    let (clients, checkpoint_bytes, checkpoint_tick) = thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|c| {
                let reqs = client_requests(c, rounds, args.seed);
                let (server, pause, resume) = (&server, Arc::clone(&pause), Arc::clone(&resume));
                scope.spawn(move || run_client(c, reqs, server, &pause, &resume, pause_after))
            })
            .collect();

        // Main thread: wait for the acknowledged frontier, checkpoint,
        // release.
        pause.wait();
        let conn = server.client();
        let cp = conn
            .call(WireRequest::new(950_000_000, RequestKind::Checkpoint))
            .expect("checkpoint answered");
        let (cp_bytes, cp_tick) = match cp.kind {
            ResponseKind::Checkpointed { bytes, tick, .. } => (bytes, tick),
            other => fail(&args, &format!("checkpoint request got {}", other.label())),
        };
        resume.wait();

        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (outs, cp_bytes, cp_tick)
    });
    let wall = t0.elapsed().as_secs_f64();
    let clients = &clients[..];

    // Final state: per-session plans, service stats, then drain.
    let conn = server.client();
    let mut final_fps = Vec::new();
    for s in 1..=sessions as u64 {
        let resp = conn
            .call(WireRequest::new(
                960_000_000 + s,
                RequestKind::Plan { session: s },
            ))
            .expect("plan answered");
        match resp.kind {
            ResponseKind::Plan { fingerprint, .. } => final_fps.push(fingerprint),
            other => fail(&args, &format!("plan request got {}", other.label())),
        }
    }
    let stats_resp = conn
        .call(WireRequest::new(970_000_000, RequestKind::Stats))
        .expect("stats answered");
    let (srv_decisions, srv_warm_hits) = match stats_resp.kind {
        ResponseKind::Stats {
            decisions,
            warm_hits,
            ..
        } => (decisions, warm_hits),
        other => fail(&args, &format!("stats request got {}", other.label())),
    };
    let bye = conn
        .call(WireRequest::new(u64::MAX, RequestKind::Shutdown))
        .expect("shutdown answered");
    if !matches!(bye.kind, ResponseKind::Bye { .. }) {
        fail(&args, &format!("shutdown got {}", bye.kind.label()));
    }
    server.join();

    // ---- Verdicts -------------------------------------------------------
    let dropped: usize = clients.iter().map(|c| c.dropped).sum();
    let garbled: Vec<&String> = clients.iter().flat_map(|c| &c.garbled).collect();
    if dropped > 0 {
        fail(&args, &format!("{dropped} calls dropped"));
    }
    if let Some(g) = garbled.first() {
        fail(
            &args,
            &format!("{} garbled responses, first: {g}", garbled.len()),
        );
    }

    // Checkpoint must restore exactly the acknowledged frontier.
    let mut restored = DecisionService::new(ServeConfig::default());
    let tick = match restored.restore_from_path(&checkpoint_path) {
        Ok(tick) => tick,
        Err(e) => fail(&args, &format!("checkpoint file did not restore: {e}")),
    };
    if tick != checkpoint_tick {
        fail(
            &args,
            &format!("restored tick {tick} != checkpointed tick {checkpoint_tick}"),
        );
    }
    if restored.num_sessions() != sessions {
        fail(
            &args,
            &format!(
                "restored {} of {sessions} sessions",
                restored.num_sessions()
            ),
        );
    }
    for (c, client) in clients.iter().enumerate() {
        let session = c as u64 + 1;
        let acked = client.acked_at_checkpoint;
        let plan = restored.process_batch(&[WireRequest::new(1, RequestKind::Plan { session })]);
        let got = match &plan[0].kind {
            ResponseKind::Plan { fingerprint, .. } => Some(*fingerprint),
            _ => None,
        };
        if acked.is_some() && got != acked {
            fail(
                &args,
                &format!(
                    "session {session}: restored plan {got:?} != acknowledged {acked:?} \
                     at the checkpoint frontier"
                ),
            );
        }
    }

    // Serial replay must reproduce every acknowledged decision.
    let mut replay = DecisionService::new(ServeConfig::default());
    for (c, client) in clients.iter().enumerate() {
        let mut fps = Vec::new();
        for req in client_requests(c, rounds, args.seed) {
            for resp in replay.process_batch(std::slice::from_ref(&req)) {
                if let ResponseKind::Decision { fingerprint, .. } = resp.kind {
                    fps.push(fingerprint);
                }
            }
        }
        if fps != client.decisions {
            fail(
                &args,
                &format!(
                    "session {}: serial replay diverged from the threaded run \
                     ({} vs {} decisions)",
                    c + 1,
                    fps.len(),
                    client.decisions.len()
                ),
            );
        }
        if fps.last().copied() != Some(final_fps[c]) {
            fail(
                &args,
                &format!("session {}: final plan query disagrees with history", c + 1),
            );
        }
    }

    // ---- Report ---------------------------------------------------------
    let mut lat: Vec<f64> = clients
        .iter()
        .flat_map(|c| c.latencies_us.clone())
        .collect();
    lat.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| lat[((lat.len() as f64 * p) as usize).min(lat.len() - 1)];
    let decisions: usize = clients.iter().map(|c| c.decisions.len()).sum();
    let evaluations: usize = clients.iter().map(|c| c.evaluations).sum();
    let stats = ServeStats {
        sessions,
        cores_per_session: CORES,
        rounds_per_client: rounds,
        decisions,
        evaluations,
        decisions_per_sec: decisions as f64 / wall.max(1e-9),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        max_us: *lat.last().expect("at least one decision"),
        dropped,
        garbled: garbled.len(),
        checkpoint_bytes,
        checkpoint_tick,
        restored_sessions: sessions,
        warm_hits: srv_warm_hits,
        plans_installed: srv_decisions,
    };

    println!(
        "serve load: {} sessions x {} cores, {} rounds/client, {} decisions in {:.2}s",
        stats.sessions, CORES, rounds, decisions, wall
    );
    println!(
        "  {:.0} decisions/sec, p50 {:.0} us, p99 {:.0} us, max {:.0} us, {} warm hits",
        stats.decisions_per_sec, stats.p50_us, stats.p99_us, stats.max_us, stats.warm_hits
    );
    println!(
        "  checkpoint at tick {}: {} bytes, restored {} sessions, acknowledged frontier intact",
        checkpoint_tick, checkpoint_bytes, sessions
    );
    println!(
        "  serial replay: {} decision fingerprints reproduced exactly",
        decisions
    );

    if !args.quick {
        if stats.decisions_per_sec < TARGET_DECISIONS_PER_SEC {
            eprintln!(
                "FAIL: {:.0} decisions/sec under the {TARGET_DECISIONS_PER_SEC} target",
                stats.decisions_per_sec
            );
            std::process::exit(1);
        }
        if stats.p99_us > TARGET_P99_US {
            eprintln!(
                "FAIL: p99 {:.0} us over the {TARGET_P99_US} us target",
                stats.p99_us
            );
            std::process::exit(1);
        }
        println!(
            "  targets: >= {TARGET_DECISIONS_PER_SEC} dec/s and p99 <= {TARGET_P99_US} us [PASS]"
        );
    }

    let path = write_json("BENCH_serve", &stats);
    println!("wrote {}", path.display());

    if args.check {
        let baseline: Baseline = serde_json::from_str(BASELINE_JSON).expect("baseline parses");
        let limit = baseline.p99_us * CHECK_HEADROOM;
        println!(
            "check: p99 {:.0} us vs limit {:.0} us (baseline {:.0} us x {CHECK_HEADROOM})",
            stats.p99_us, limit, baseline.p99_us
        );
        if stats.p99_us > limit {
            eprintln!("FAIL: serve p99 regression past the committed baseline");
            std::process::exit(1);
        }
    }
}
