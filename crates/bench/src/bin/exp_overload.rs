//! `bap serve` past its capacity: an open-loop chaos soak at 4× the
//! calibrated decision rate, with mid-run bank faults and a full
//! crash/restart between flood waves — the overload tier's proving run.
//!
//! The harness first calibrates the per-decision solve cost on an
//! unregulated service, then floods a *regulated* server (queue cap,
//! per-session cap, tick budget, brownout ladder) with open-loop
//! `submit()` producers at `FLOOD_MULTIPLIER`× that capacity. Every third
//! flood request carries a tight `deadline_ms`. Between the two flood
//! waves the server is checkpointed, shut down, joined, hit with bank
//! faults on two sessions, and respawned — the same service, degraded
//! hardware. A closed-loop probe client runs `call_with_retry` throughout,
//! and a calm phase afterwards lets the brownout ladder walk home.
//!
//! The run fails, reporting every violated verdict and writing them all to
//! `results/overload_failing_seed.txt`, unless:
//!
//! * **nothing panics** — every thread joins, no session is quarantined;
//! * **every response is typed** — a `Decision`, an `overloaded` shed, or
//!   a `deadline-exceeded` expiry; anything else is a violation;
//! * **every shed carries a retry hint** — `retry_after_ms >= 1`, always;
//! * **deadlines actually fire** — at least one request expires in queue;
//! * **the brownout ladder moves** — at least one `BrownoutEnter` under
//!   flood and at least one `BrownoutExit` once the load drops;
//! * **the mid-run checkpoint restores** — a fresh service cold-starts
//!   from the file with every session intact.
//!
//! The full run additionally enforces a goodput floor and a p99 bound for
//! admitted requests; `--quick` is the CI smoke, and `--check` gates the
//! quick-mode *calm-phase* median round trip against the committed
//! baseline with 2× headroom (the flood-tail p99 swings with the seed's
//! solver-cost luck; post-recovery latency does not). Results land in
//! `results/BENCH_overload.json`.

use bap_bench::common::{results_dir, write_json, Args};
use bap_core::{DecisionService, ServeConfig, Server};
use bap_trace::wire::{RequestKind, ResponseKind, WireCurve, WireRequest};
use bap_trace::Tracer;
use bap_types::{OverloadConfig, RetryConfig};
use serde::{Deserialize, Serialize};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Committed reference point for the `--check` regression gate.
const BASELINE_JSON: &str = include_str!("../baselines/overload_baseline.json");

/// The gate trips when the quick-mode calm-phase median round trip
/// exceeds baseline × this factor.
const CHECK_HEADROOM: f64 = 2.0;

/// Cores per flooding session: half the serve tier's 32 keeps single
/// decisions cheap enough that the tick budget, not the solver, is the
/// binding constraint.
const CORES: usize = 16;

/// Offered load as a multiple of the calibrated serial capacity.
const FLOOD_MULTIPLIER: f64 = 4.0;

/// Every `DEADLINE_EVERY`-th flood request carries this deadline — far
/// shorter than a flooded queue wait, so expiries must occur.
const DEADLINE_EVERY: u64 = 3;
const DEADLINE_MS: u64 = 8;

/// Producers pace their open-loop sends in bursts on this interval.
const BURST_INTERVAL: Duration = Duration::from_millis(5);

/// The probe's own session id, outside the producer band.
const PROBE_SESSION: u64 = 999;

/// Admitted decisions per producer-wave excluded from the latency
/// percentiles: the governor's first tick runs before it has a cost
/// model and may admit one outsized cold batch.
const WARMUP_ADMITTED: usize = 8;

/// Full-run floors. Typical runs admit 70–85% of the flood (batched
/// ticks serve well past the serial calibration rate), but the floor is
/// deliberately conservative: the claim under test is *no collapse*
/// under sustained 4× overload, not a precise admission ratio. The p99
/// bound says no admitted request waits past ~a second even then.
const TARGET_GOODPUT_FRAC: f64 = 0.05;
const TARGET_P99_ADMITTED_US: f64 = 1_000_000.0;

#[derive(Serialize)]
struct OverloadStats {
    sessions: usize,
    cores_per_session: usize,
    calibrated_cost_us: f64,
    offered_rate_multiplier: f64,
    flood_requests: usize,
    decisions: usize,
    shed: usize,
    deadline_exceeded: usize,
    goodput_frac: f64,
    p50_admitted_us: f64,
    p99_admitted_us: f64,
    max_admitted_us: f64,
    sheds_missing_hint: usize,
    probe_ok: usize,
    probe_gave_up: usize,
    calm_decisions: usize,
    calm_p50_us: f64,
    calm_p99_us: f64,
    shed_events: u64,
    deadline_events: u64,
    brownout_enters: u64,
    brownout_exits: u64,
    quarantined: usize,
    bank_faults: usize,
    checkpoint_tick: u64,
    restored_sessions: usize,
}

#[derive(Deserialize)]
struct Baseline {
    calm_p50_us: f64,
}

/// Per-core knee curves, distinct every round: an overload flood must pay
/// real solves, not warm-start reuse (the calm phase pins `round` to get
/// the cheap path on purpose).
fn round_curves(session: u64, round: u64, master_seed: u64) -> Vec<WireCurve> {
    let seed = master_seed ^ session.wrapping_mul(0x9E37_79B9) ^ round.wrapping_mul(0x1_0000_01B3);
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

/// What one flood producer observed (all receivers drained).
#[derive(Default)]
struct FloodOut {
    sent: usize,
    decisions: usize,
    shed: usize,
    deadline_exceeded: usize,
    missing_hint: usize,
    latencies_us: Vec<f64>,
    violations: Vec<String>,
}

/// One open-loop flood wave for one session: submit without waiting at
/// the paced rate, then drain every reply channel and classify.
#[allow(clippy::too_many_arguments)]
fn flood_producer(
    server: &Server,
    session: u64,
    open: bool,
    n_reqs: usize,
    burst: usize,
    id_base: u64,
    master_seed: u64,
) -> FloodOut {
    let conn = server.client();
    let mut out = FloodOut::default();
    if open {
        match conn.call_with_retry(
            WireRequest::new(
                id_base,
                RequestKind::Open {
                    session,
                    cores: CORES,
                },
            ),
            &RetryConfig::default(),
        ) {
            Ok(resp) if matches!(resp.kind, ResponseKind::Opened { .. }) => {}
            Ok(resp) => out
                .violations
                .push(format!("session {session}: open got {}", resp.kind.label())),
            Err(e) => out
                .violations
                .push(format!("session {session}: open failed: {e}")),
        }
    }
    // A collector thread drains reply channels *as answers arrive*, so
    // admitted latencies are measured at arrival, not after the sender
    // finishes its open loop. Per-producer admitted answers arrive in
    // submission order (ticks complete monotonically), so blocking on
    // each receiver in turn never inflates a Decision's timestamp.
    type Pending = (u64, Instant, mpsc::Receiver<bap_trace::wire::WireResponse>);
    let (pending_tx, pending_rx) = mpsc::channel::<Pending>();
    let collector = thread::spawn(move || {
        let mut out = FloodOut::default();
        while let Ok((id, sent_at, rx)) = pending_rx.recv() {
            let resp = match rx.recv() {
                Ok(resp) => resp,
                Err(_) => {
                    out.violations
                        .push(format!("session {session}: reply {id} dropped"));
                    continue;
                }
            };
            if resp.id != id {
                out.violations
                    .push(format!("session {session}: sent id {id}, got {}", resp.id));
            }
            match &resp.kind {
                ResponseKind::Decision { .. } => {
                    out.decisions += 1;
                    if out.decisions > WARMUP_ADMITTED {
                        out.latencies_us.push(sent_at.elapsed().as_secs_f64() * 1e6);
                    }
                }
                ResponseKind::Error {
                    code,
                    retry_after_ms,
                    ..
                } if code == "overloaded" => {
                    out.shed += 1;
                    if retry_after_ms.is_none_or(|ms| ms == 0) {
                        out.missing_hint += 1;
                    }
                }
                ResponseKind::Error { code, .. } if code == "deadline-exceeded" => {
                    out.deadline_exceeded += 1;
                }
                other => out.violations.push(format!(
                    "session {session}: request {id} answered {}",
                    other.label()
                )),
            }
        }
        out
    });
    for i in 0..n_reqs as u64 {
        let mut req = WireRequest::new(
            id_base + 1 + i,
            RequestKind::Snapshot {
                session,
                curves: round_curves(session, i, master_seed),
            },
        );
        if i % DEADLINE_EVERY == 0 {
            req = req.with_deadline_ms(DEADLINE_MS);
        }
        let sent_at = Instant::now();
        match conn.submit(req) {
            Ok(rx) => {
                out.sent += 1;
                let _ = pending_tx.send((id_base + 1 + i, sent_at, rx));
            }
            Err(e) => out
                .violations
                .push(format!("session {session}: submit failed mid-flood: {e}")),
        }
        if (i + 1) % burst as u64 == 0 {
            thread::sleep(BURST_INTERVAL);
        }
    }
    drop(pending_tx);
    let collected = collector.join().expect("collector thread");
    out.decisions = collected.decisions;
    out.shed = collected.shed;
    out.deadline_exceeded = collected.deadline_exceeded;
    out.missing_hint = collected.missing_hint;
    out.latencies_us = collected.latencies_us;
    out.violations.extend(collected.violations);
    out
}

/// The closed-loop probe: `call_with_retry` against its own session while
/// the flood rages — the client back-off story under real contention.
fn probe_client(
    server: &Server,
    open: bool,
    calls: usize,
    id_base: u64,
    master_seed: u64,
) -> (usize, usize, Vec<String>) {
    let conn = server.client();
    let retry = RetryConfig::default();
    let (mut ok, mut gave_up) = (0usize, 0usize);
    let mut violations = Vec::new();
    if open {
        if let Err(e) = conn.call_with_retry(
            WireRequest::new(
                id_base,
                RequestKind::Open {
                    session: PROBE_SESSION,
                    cores: CORES,
                },
            ),
            &retry,
        ) {
            violations.push(format!("probe: open failed: {e}"));
            return (0, 0, violations);
        }
    }
    for i in 0..calls as u64 {
        let req = WireRequest::new(
            id_base + 1 + i,
            RequestKind::Snapshot {
                session: PROBE_SESSION,
                curves: round_curves(PROBE_SESSION, i, master_seed),
            },
        );
        match conn.call_with_retry(req, &retry) {
            Ok(resp) if matches!(resp.kind, ResponseKind::Decision { .. }) => ok += 1,
            Ok(resp) => violations.push(format!("probe: got {}", resp.kind.label())),
            Err(bap_core::ClientError::GaveUp { .. }) => gave_up += 1,
            Err(e) => violations.push(format!("probe: {e}")),
        }
        thread::sleep(Duration::from_millis(2));
    }
    (ok, gave_up, violations)
}

/// Report every violation, write them all to the failing-seed file with
/// the seed, and exit non-zero.
fn fail(args: &Args, violations: &[String]) -> ! {
    let path = results_dir().join("overload_failing_seed.txt");
    let record: String = violations
        .iter()
        .map(|v| format!("violation={v}\n"))
        .collect();
    std::fs::write(&path, format!("seed={}\n{record}", args.seed)).expect("write failing seed");
    for v in violations {
        eprintln!("OVERLOAD FAILURE: {v}");
    }
    eprintln!("reproduce with: {}", args.repro_command("exp_overload"));
    eprintln!("failing seed written to {}", path.display());
    std::process::exit(1);
}

/// Serve one control request on a fresh client, or die with context.
fn control(server: &Server, args: &Args, id: u64, kind: RequestKind) -> ResponseKind {
    let what = kind.label();
    match server.client().call(WireRequest::new(id, kind)) {
        Ok(resp) => resp.kind,
        Err(e) => fail(args, &[format!("control {what} failed: {e}")]),
    }
}

fn main() {
    let args = Args::parse();
    let sessions: usize = if args.quick { 3 } else { 4 };
    let reqs_per_wave: usize = if args.quick { 150 } else { 600 };
    let probe_calls: usize = if args.quick { 8 } else { 20 };
    let calm_calls: usize = 30;
    let checkpoint_path = results_dir().join("overload_checkpoint.json");

    // ---- Calibrate: serial per-decision cost through an unregulated
    // server — thread hop, batch machinery and all, so "4x capacity"
    // means 4x what this exact pipeline can actually serve.
    let cal = Server::spawn(DecisionService::new(ServeConfig::default()));
    let conn = cal.client();
    conn.call(WireRequest::new(
        1,
        RequestKind::Open {
            session: 1,
            cores: CORES,
        },
    ))
    .expect("calibration open");
    // Warm the pipeline (worker pool spawn, first-touch allocations) off
    // the clock, then measure *sustained throughput*: one open-loop batch
    // of distinct-curve decisions, timed to the last answer. A large
    // sample swallows the solver's heavy cost tail (single solves range
    // ~50 us to ~80 ms with curve shape), which per-call round-trip
    // timings systematically miss.
    for i in 0..4u64 {
        conn.call(WireRequest::new(
            2 + i,
            RequestKind::Snapshot {
                session: 1,
                curves: round_curves(1, i, args.seed ^ 0xCA11),
            },
        ))
        .expect("calibration warmup");
    }
    let n_cal = 160u64;
    let t0 = Instant::now();
    let replies: Vec<_> = (0..n_cal)
        .map(|i| {
            conn.submit(WireRequest::new(
                100 + i,
                RequestKind::Snapshot {
                    session: 1,
                    curves: round_curves(1, 4 + i, args.seed ^ 0xCA11),
                },
            ))
            .expect("calibration submit")
        })
        .collect();
    for rx in replies {
        rx.recv().expect("calibration decision");
    }
    let cost_us = t0.elapsed().as_secs_f64() * 1e6 / n_cal as f64;
    conn.call(WireRequest::new(999, RequestKind::Shutdown))
        .expect("calibration shutdown");
    cal.join();
    // Offered load: FLOOD_MULTIPLIER × capacity, split across producers,
    // sent in bursts every BURST_INTERVAL.
    let rate_per_producer = FLOOD_MULTIPLIER * 1e6 / cost_us / sessions as f64;
    let burst = ((rate_per_producer * BURST_INTERVAL.as_secs_f64()).ceil() as usize).max(1);
    // A wave must span at least 20 pacing intervals: a sustained flood,
    // not one spike — the ladder needs ticks to walk. On a machine fast
    // enough that the configured count would drain in fewer, send more.
    let reqs_per_wave = reqs_per_wave.max(burst * 20);
    println!(
        "calibrated: {cost_us:.0} us/decision at {CORES} cores; \
         flooding {sessions} sessions at {FLOOD_MULTIPLIER}x ({burst} reqs / {:?} each)",
        BURST_INTERVAL
    );

    // ---- The regulated server under test.
    let tracer = Tracer::ring();
    let cfg = ServeConfig {
        tracer: tracer.clone(),
        // A small queue cap bounds the *first* tick, which runs before
        // the governor has a cost model and would otherwise admit one
        // giant batch whose latency dominates the tail. Enter-on-one /
        // exit-after-three is the shed-early-recover-slowly posture: any
        // over-budget tick steps the ladder down, and only a sustained
        // calm walks it back up.
        overload: Some(OverloadConfig {
            max_queue_depth: 16,
            max_session_inflight: 8,
            tick_budget_ms: 4,
            brownout_enter_ticks: 1,
            brownout_exit_ticks: 3,
        }),
        checkpoint_path: Some(checkpoint_path.clone()),
        ..ServeConfig::default()
    };
    let mut server = Server::spawn(DecisionService::new(cfg));

    let mut waves: Vec<FloodOut> = Vec::new();
    let (mut probe_ok, mut probe_gave_up) = (0usize, 0usize);
    let mut checkpoint_tick = 0u64;
    let bank_faults = 2usize;

    for wave in 0..2u64 {
        let first = wave == 0;
        let outs: Vec<FloodOut> = thread::scope(|scope| {
            let producers: Vec<_> = (0..sessions)
                .map(|c| {
                    let session = c as u64 + 1;
                    let id_base = session * 10_000_000 + wave * 1_000_000;
                    let server = &server;
                    scope.spawn(move || {
                        flood_producer(
                            server,
                            session,
                            first,
                            reqs_per_wave,
                            burst,
                            id_base,
                            args.seed ^ wave,
                        )
                    })
                })
                .collect();
            let probe = {
                let server = &server;
                scope.spawn(move || {
                    probe_client(
                        server,
                        first,
                        probe_calls,
                        900_000_000 + wave * 1_000_000,
                        args.seed ^ 0x9909 ^ wave,
                    )
                })
            };
            let (ok, gave_up, violations) = probe.join().expect("probe thread");
            if let Some(v) = violations.first() {
                fail(&args, std::slice::from_ref(v));
            }
            probe_ok += ok;
            probe_gave_up += gave_up;
            producers
                .into_iter()
                .map(|h| h.join().expect("producer thread"))
                .collect()
        });
        waves.extend(outs);

        if first {
            // ---- Chaos: checkpoint, crash, fault two banks, restart.
            match control(&server, &args, 950_000_001, RequestKind::Checkpoint) {
                ResponseKind::Checkpointed { tick, .. } => checkpoint_tick = tick,
                other => fail(&args, &[format!("checkpoint got {}", other.label())]),
            }
            match control(&server, &args, 950_000_002, RequestKind::Shutdown) {
                ResponseKind::Bye { .. } => {}
                other => fail(&args, &[format!("shutdown got {}", other.label())]),
            }
            let mut service = server.join();
            if service.num_quarantined() > 0 {
                fail(
                    &args,
                    &[format!(
                        "{} sessions quarantined mid-run",
                        service.num_quarantined()
                    )],
                );
            }
            service.fail_bank(1, 0);
            service.fail_bank(2, 1);
            println!(
                "wave 1 done: checkpointed at tick {checkpoint_tick}, crashed, \
                 faulted {bank_faults} banks, restarting"
            );
            server = Server::spawn(service);
        }
    }

    // ---- Calm: a trickle of closed-loop decisions walks the ladder home.
    let conn = server.client();
    let retry = RetryConfig::default();
    let mut calm_decisions = 0usize;
    let mut calm_lat_us: Vec<f64> = Vec::with_capacity(calm_calls);
    for i in 0..calm_calls as u64 {
        let req = WireRequest::new(
            980_000_000 + i,
            RequestKind::Snapshot {
                session: 1,
                curves: round_curves(1, 10_000, args.seed), // steady curves: warm reuse
            },
        );
        let t = Instant::now();
        match conn.call_with_retry(req, &retry) {
            Ok(resp) if matches!(resp.kind, ResponseKind::Decision { .. }) => {
                calm_decisions += 1;
                calm_lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            Ok(resp) => fail(&args, &[format!("calm call got {}", resp.kind.label())]),
            Err(e) => fail(&args, &[format!("calm call failed: {e}")]),
        }
        thread::sleep(Duration::from_millis(8));
    }
    match control(&server, &args, 999_999_999, RequestKind::Shutdown) {
        ResponseKind::Bye { .. } => {}
        other => fail(&args, &[format!("final shutdown got {}", other.label())]),
    }
    let service = server.join();

    // ---- Verdicts -------------------------------------------------------
    // Every verdict is evaluated before the run fails, so one violation
    // cannot hide the ones checked after it.
    let mut violations: Vec<String> = Vec::new();
    let quarantined = service.num_quarantined();
    if quarantined > 0 {
        violations.push(format!("{quarantined} sessions quarantined"));
    }
    if let Some(v) = waves.iter().flat_map(|w| &w.violations).next() {
        violations.push(v.clone());
    }
    let sent: usize = waves.iter().map(|w| w.sent).sum();
    let decisions: usize = waves.iter().map(|w| w.decisions).sum();
    let shed: usize = waves.iter().map(|w| w.shed).sum();
    let deadline_exceeded: usize = waves.iter().map(|w| w.deadline_exceeded).sum();
    let missing_hint: usize = waves.iter().map(|w| w.missing_hint).sum();
    if decisions + shed + deadline_exceeded != sent {
        violations.push(format!(
            "{sent} sent but {} classified",
            decisions + shed + deadline_exceeded
        ));
    }
    if missing_hint > 0 {
        violations.push(format!(
            "{missing_hint} sheds without a retry_after_ms hint"
        ));
    }
    if deadline_exceeded == 0 {
        violations.push("no deadline ever expired under a 4x flood with 8ms deadlines".into());
    }
    if decisions == 0 {
        violations.push("zero goodput: every flood request was shed".into());
    }
    let summary = tracer.summary().expect("ring tracer carries a summary");
    if summary.brownout_enters == 0 {
        violations.push("the brownout ladder never engaged under flood".into());
    }
    if summary.brownout_exits == 0 {
        violations.push("the brownout ladder never exited after the load dropped".into());
    }

    // The mid-run checkpoint must cold-start a fresh service.
    let mut restored = DecisionService::new(ServeConfig::default());
    let expected_sessions = sessions + 1; // producers + the probe
    match restored.restore_from_path(&checkpoint_path) {
        Ok(tick) => {
            if tick != checkpoint_tick {
                violations.push(format!(
                    "restored tick {tick} != checkpointed {checkpoint_tick}"
                ));
            }
            if restored.num_sessions() != expected_sessions {
                violations.push(format!(
                    "restored {} of {expected_sessions} sessions",
                    restored.num_sessions()
                ));
            }
        }
        Err(e) => violations.push(format!("checkpoint did not restore: {e}")),
    }
    if !violations.is_empty() {
        fail(&args, &violations);
    }

    // ---- Report ---------------------------------------------------------
    let mut lat: Vec<f64> = waves.iter().flat_map(|w| w.latencies_us.clone()).collect();
    lat.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| lat[((lat.len() as f64 * p) as usize).min(lat.len() - 1)];
    calm_lat_us.sort_by(|a, b| a.total_cmp(b));
    let calm_pct =
        |p: f64| calm_lat_us[((calm_lat_us.len() as f64 * p) as usize).min(calm_lat_us.len() - 1)];
    let goodput_frac = decisions as f64 / sent as f64;
    let stats = OverloadStats {
        sessions,
        cores_per_session: CORES,
        calibrated_cost_us: cost_us,
        offered_rate_multiplier: FLOOD_MULTIPLIER,
        flood_requests: sent,
        decisions,
        shed,
        deadline_exceeded,
        goodput_frac,
        p50_admitted_us: pct(0.50),
        p99_admitted_us: pct(0.99),
        max_admitted_us: *lat.last().expect("at least one admitted decision"),
        sheds_missing_hint: missing_hint,
        probe_ok,
        probe_gave_up,
        calm_decisions,
        calm_p50_us: calm_pct(0.50),
        calm_p99_us: calm_pct(0.99),
        shed_events: summary.overload_sheds,
        deadline_events: summary.deadline_exceeded,
        brownout_enters: summary.brownout_enters,
        brownout_exits: summary.brownout_exits,
        quarantined,
        bank_faults,
        checkpoint_tick,
        restored_sessions: restored.num_sessions(),
    };

    println!(
        "flood: {} requests at {FLOOD_MULTIPLIER}x -> {} decisions ({:.1}% goodput), \
         {} shed, {} deadline-exceeded",
        sent,
        decisions,
        goodput_frac * 100.0,
        shed,
        deadline_exceeded
    );
    println!(
        "  admitted p50 {:.0} us, p99 {:.0} us, max {:.0} us",
        stats.p50_admitted_us, stats.p99_admitted_us, stats.max_admitted_us
    );
    println!(
        "  probe: {} ok, {} gave up; calm: {}/{} decisions, p50 {:.0} us, p99 {:.0} us",
        probe_ok, probe_gave_up, calm_decisions, calm_calls, stats.calm_p50_us, stats.calm_p99_us
    );
    println!(
        "  ladder: {} enters, {} exits; {} shed events, {} deadline events; \
         {} quarantined",
        stats.brownout_enters,
        stats.brownout_exits,
        stats.shed_events,
        stats.deadline_events,
        quarantined
    );
    println!(
        "  chaos: {} bank faults across a crash/restart; checkpoint tick {} restored {} sessions",
        bank_faults, checkpoint_tick, stats.restored_sessions
    );

    if !args.quick {
        if goodput_frac < TARGET_GOODPUT_FRAC {
            eprintln!(
                "FAIL: goodput {:.1}% under the {:.0}% floor",
                goodput_frac * 100.0,
                TARGET_GOODPUT_FRAC * 100.0
            );
            std::process::exit(1);
        }
        if stats.p99_admitted_us > TARGET_P99_ADMITTED_US {
            eprintln!(
                "FAIL: admitted p99 {:.0} us over the {TARGET_P99_ADMITTED_US} us bound",
                stats.p99_admitted_us
            );
            std::process::exit(1);
        }
        println!(
            "  targets: goodput >= {:.0}% and admitted p99 <= {TARGET_P99_ADMITTED_US} us [PASS]",
            TARGET_GOODPUT_FRAC * 100.0
        );
    }

    let path = write_json("BENCH_overload", &stats);
    println!("wrote {}", path.display());

    // The gate metric is the *calm-phase* median round trip: it is what a
    // stuck ladder, a leaking backlog, or a slowed shed path would move,
    // and unlike the flood-tail p99 it does not swing with the seed's
    // solver-cost luck.
    if args.check {
        let baseline: Baseline = serde_json::from_str(BASELINE_JSON).expect("baseline parses");
        let limit = baseline.calm_p50_us * CHECK_HEADROOM;
        println!(
            "check: calm p50 {:.0} us vs limit {:.0} us (baseline {:.0} us x {CHECK_HEADROOM})",
            stats.calm_p50_us, limit, baseline.calm_p50_us
        );
        if stats.calm_p50_us > limit {
            eprintln!(
                "FAIL: post-overload recovery latency regression past the committed baseline"
            );
            std::process::exit(1);
        }
    }
}
