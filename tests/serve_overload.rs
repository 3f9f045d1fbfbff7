//! Overload resilience for the `bap serve` decision service (tier 1).
//!
//! The contracts under test, all deterministic (the governor's wall-clock
//! inputs are injected, never sampled):
//!
//! * **gating** — expired deadlines answer `deadline-exceeded`; queue,
//!   per-session and tick-budget excess shed `overloaded`, every shed
//!   carrying a non-zero `retry_after_ms` hint; `Shutdown` is exempt;
//! * **brownout ladder** — sustained over-budget ticks walk the level
//!   down one step at a time, calm ticks walk it back up only after the
//!   longer exit streak (hysteresis), and under `LastGood` the service
//!   answers decisions from the installed plan without solving;
//! * **neutrality** — with `ServeConfig::overload` unset nothing above
//!   runs: the default-context batch path answers byte-identically to the
//!   plain one;
//! * **sheds first** — the threaded server answers a shed before the
//!   tick that shed it has solved anything.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use bankaware::partitioning::{
    BatchContext, BrownoutLevel, ClientError, DecisionService, OverloadGovernor, ServeConfig,
    Server,
};
use bankaware::trace::wire::{RequestKind, ResponseKind, WireCurve, WireRequest};
use bankaware::trace::{EventKind, TraceEvent, TraceSink, Tracer};
use bankaware::types::{OverloadConfig, RetryConfig};

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

fn snapshot(id: u64, session: u64, seed: u64) -> WireRequest {
    req(
        id,
        RequestKind::Snapshot {
            session,
            curves: knee_curves(8, seed),
        },
    )
}

fn code_of(kind: &ResponseKind) -> Option<&str> {
    kind.error_code()
}

fn hint_of(kind: &ResponseKind) -> Option<u64> {
    match kind {
        ResponseKind::Error { retry_after_ms, .. } => *retry_after_ms,
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Gate verdicts.
// ---------------------------------------------------------------------------

#[test]
fn expired_deadlines_answer_deadline_exceeded_but_shutdown_is_exempt() {
    let mut g = OverloadGovernor::new(OverloadConfig::default(), Tracer::off());
    let now = Instant::now();
    let stale = now - Duration::from_millis(50);
    let expired = snapshot(1, 1, 0).with_deadline_ms(10);
    let alive = snapshot(2, 1, 0).with_deadline_ms(10_000);
    let no_deadline = snapshot(3, 1, 0);
    let bye = req(4, RequestKind::Shutdown).with_deadline_ms(0);
    let pending = vec![
        (&expired, stale),
        (&alive, now),
        (&no_deadline, stale),
        (&bye, stale),
    ];
    let verdicts = g.gate(now, &pending);
    assert_eq!(
        verdicts[0].as_ref().and_then(code_of),
        Some("deadline-exceeded"),
        "50ms-old request with a 10ms budget must expire"
    );
    assert!(verdicts[1].is_none(), "live deadline is admitted");
    assert!(verdicts[2].is_none(), "no deadline means no expiry");
    assert!(
        verdicts[3].is_none(),
        "Shutdown must get through even with an expired deadline"
    );
}

#[test]
fn queue_and_session_caps_shed_with_retry_hints() {
    let cfg = OverloadConfig {
        max_queue_depth: 3,
        max_session_inflight: 1,
        tick_budget_ms: 0,
        ..OverloadConfig::default()
    };
    let mut g = OverloadGovernor::new(cfg, Tracer::off());
    let now = Instant::now();
    // Two sessions, two decision requests each, then a fourth-slot query.
    let reqs = [
        snapshot(1, 1, 0),
        snapshot(2, 1, 1), // over session 1's inflight cap
        snapshot(3, 2, 2),
        snapshot(4, 2, 3), // over session 2's inflight cap
        req(5, RequestKind::Stats),
        req(6, RequestKind::Stats), // fourth admission: over the queue cap
    ];
    let pending: Vec<(&WireRequest, Instant)> = reqs.iter().map(|r| (r, now)).collect();
    let verdicts = g.gate(now, &pending);
    assert!(verdicts[0].is_none());
    assert_eq!(verdicts[1].as_ref().and_then(code_of), Some("overloaded"));
    assert!(verdicts[2].is_none());
    assert_eq!(verdicts[3].as_ref().and_then(code_of), Some("overloaded"));
    assert!(verdicts[4].is_none(), "third admission still under the cap");
    assert_eq!(
        verdicts[5].as_ref().and_then(code_of),
        Some("overloaded"),
        "queue cap of 3 sheds the fourth admission"
    );
    for v in verdicts.iter().flatten() {
        let hint = hint_of(v).expect("every shed carries a retry hint");
        assert!(hint >= 1, "hints are never zero");
    }
}

#[test]
fn tick_budget_caps_admission_from_the_cost_model() {
    let cfg = OverloadConfig {
        max_queue_depth: 0,
        max_session_inflight: 0,
        tick_budget_ms: 10,
        ..OverloadConfig::default()
    };
    let mut g = OverloadGovernor::new(cfg, Tracer::off());
    // Teach the cost model: a 4-request tick took 20ms → 5ms per request,
    // so a 10ms budget fits two decisions.
    g.tick_done(Duration::from_millis(20), 4);
    let now = Instant::now();
    let reqs: Vec<WireRequest> = (0..4).map(|i| snapshot(i + 1, i + 1, i)).collect();
    let pending: Vec<(&WireRequest, Instant)> = reqs.iter().map(|r| (r, now)).collect();
    let verdicts = g.gate(now, &pending);
    assert!(verdicts[0].is_none());
    assert!(verdicts[1].is_none());
    assert_eq!(
        verdicts[2].as_ref().and_then(code_of),
        Some("overloaded"),
        "third decision exceeds the predicted budget"
    );
    assert_eq!(verdicts[3].as_ref().and_then(code_of), Some("overloaded"));
    // The hint tracks the observed tick duration (≈ 20ms EWMA).
    assert!(g.retry_after_ms() >= 10, "hint follows the tick EWMA");
}

// ---------------------------------------------------------------------------
// The brownout ladder.
// ---------------------------------------------------------------------------

#[test]
fn brownout_ladder_walks_down_fast_and_up_hysteretically() {
    let cfg = OverloadConfig {
        tick_budget_ms: 10,
        brownout_enter_ticks: 2,
        brownout_exit_ticks: 3,
        ..OverloadConfig::default()
    };
    let mut g = OverloadGovernor::new(cfg, Tracer::off());
    let over = Duration::from_millis(50);
    let calm = Duration::from_millis(1);
    assert_eq!(g.level(), BrownoutLevel::Normal);

    g.tick_done(over, 1);
    assert_eq!(g.level(), BrownoutLevel::Normal, "one over tick: too soon");
    g.tick_done(over, 1);
    assert_eq!(g.level(), BrownoutLevel::Budgeted, "two over ticks: enter");
    g.tick_done(over, 1);
    g.tick_done(over, 1);
    assert_eq!(g.level(), BrownoutLevel::LastGood, "sustained: deepest");

    // One calm tick between over ticks must NOT exit (hysteresis).
    g.tick_done(calm, 1);
    g.tick_done(calm, 1);
    assert_eq!(g.level(), BrownoutLevel::LastGood, "two calm ticks < exit");
    g.tick_done(over, 1);
    g.tick_done(calm, 1);
    g.tick_done(calm, 1);
    assert_eq!(g.level(), BrownoutLevel::LastGood, "streak was broken");
    g.tick_done(calm, 1);
    assert_eq!(g.level(), BrownoutLevel::Budgeted, "three calm ticks: exit");
    g.tick_done(calm, 1);
    g.tick_done(calm, 1);
    g.tick_done(calm, 1);
    assert_eq!(g.level(), BrownoutLevel::Normal, "fully recovered");

    // The context reflects the ladder: budgeted ticks carry a deadline.
    g.tick_done(over, 1);
    g.tick_done(over, 1);
    let ctx = g.context(Instant::now());
    assert_eq!(ctx.brownout, BrownoutLevel::Budgeted);
    assert!(ctx.solve_deadline.is_some(), "budgeted ticks bound solves");
}

#[test]
fn lastgood_ticks_answer_from_the_installed_plan_without_solving() {
    let mut svc = DecisionService::new(ServeConfig::default());
    svc.process_batch(&[
        req(
            1,
            RequestKind::Open {
                session: 1,
                cores: 8,
            },
        ),
        snapshot(2, 1, 7),
    ]);
    let before = svc.process_batch(&[req(3, RequestKind::Plan { session: 1 })]);
    let ResponseKind::Plan {
        fingerprint: installed_fp,
        epoch: before_epoch,
        ..
    } = before[0].kind
    else {
        panic!("expected a plan");
    };

    // A deep-brownout tick: different curves would normally re-solve.
    let ctx = BatchContext {
        solve_deadline: None,
        brownout: BrownoutLevel::LastGood,
        retry_after_ms: 9,
    };
    let out = svc.process_batch_with(
        &[
            snapshot(4, 1, 4242),
            req(
                5,
                RequestKind::Evaluate {
                    session: 1,
                    curves: knee_curves(8, 99),
                },
            ),
        ],
        &ctx,
    );
    let ResponseKind::Decision {
        installed,
        fingerprint,
        epoch,
        ..
    } = out[0].kind
    else {
        panic!("expected a decision, got {:?}", out[0].kind);
    };
    assert!(!installed, "LastGood never installs");
    assert_eq!(
        fingerprint, installed_fp,
        "the answer is the installed last-good plan"
    );
    assert_eq!(epoch, before_epoch + 1, "the epoch still passes");
    assert_eq!(
        code_of(&out[1].kind),
        Some("overloaded"),
        "what-if evaluation is shed under LastGood"
    );
    assert_eq!(
        hint_of(&out[1].kind),
        Some(9),
        "the tick's hint rides along"
    );

    // Back at Normal the same curves re-solve and install again.
    let after = svc.process_batch(&[snapshot(6, 1, 4242)]);
    let ResponseKind::Decision { installed, .. } = after[0].kind else {
        panic!("expected a decision");
    };
    assert!(installed, "normal service resumed after the brownout tick");
}

// ---------------------------------------------------------------------------
// Neutrality and the regulated threaded server.
// ---------------------------------------------------------------------------

#[test]
fn unset_overload_config_is_behaviour_neutral() {
    assert!(
        ServeConfig::default().overload.is_none(),
        "overload regulation must be opt-in"
    );
    assert!(
        DecisionService::new(ServeConfig::default())
            .governor()
            .is_none(),
        "no governor without the config"
    );

    let workload = vec![
        req(
            1,
            RequestKind::Open {
                session: 1,
                cores: 8,
            },
        ),
        snapshot(2, 1, 3),
        snapshot(3, 1, 4),
        req(4, RequestKind::Plan { session: 1 }),
        req(5, RequestKind::Stats),
    ];
    let mut plain = DecisionService::new(ServeConfig::default());
    let mut contexted = DecisionService::new(ServeConfig::default());
    let a = plain.process_batch(&workload);
    let b = contexted.process_batch_with(&workload, &BatchContext::default());
    assert_eq!(a, b, "the default context is byte-identical to no context");
}

#[test]
fn a_regulated_server_with_headroom_serves_normally() {
    let cfg = ServeConfig {
        overload: Some(OverloadConfig::default()),
        ..ServeConfig::default()
    };
    let server = Server::spawn(DecisionService::new(cfg));
    let client = server.client();
    let retry = RetryConfig::default();
    let opened = client
        .call_with_retry(
            req(
                1,
                RequestKind::Open {
                    session: 1,
                    cores: 8,
                },
            ),
            &retry,
        )
        .expect("server alive");
    assert!(matches!(opened.kind, ResponseKind::Opened { .. }));
    let decided = client
        .call_with_retry(snapshot(2, 1, 11).with_deadline_ms(60_000), &retry)
        .expect("server alive");
    assert!(
        matches!(decided.kind, ResponseKind::Decision { .. }),
        "under no pressure the gate admits everything, got {:?}",
        decided.kind
    );
    let bye = client
        .call(req(9, RequestKind::Shutdown))
        .expect("shutdown answered");
    assert!(matches!(bye.kind, ResponseKind::Bye { .. }));
    server.join();
    assert_eq!(
        client.call(req(10, RequestKind::Stats)).unwrap_err(),
        ClientError::Disconnected,
        "a dead server is a typed disconnect, not a silent None"
    );
}

/// A trace sink that parks the emitting worker at the end of every batch
/// (`BatchDispatched`) until the test releases it, so the test can look
/// at the reply channels while a tick is provably still in progress.
struct ParkAtBatchEnd {
    parked: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
}

impl TraceSink for ParkAtBatchEnd {
    fn record(&mut self, event: &TraceEvent) {
        if matches!(event.kind, EventKind::BatchDispatched { .. }) {
            let _ = self.parked.send(());
            let _ = self.release.recv();
        }
    }
}

#[test]
fn a_threaded_shed_is_answered_before_its_tick_solves() {
    let (parked_tx, parked) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let cfg = ServeConfig {
        overload: Some(OverloadConfig {
            max_queue_depth: 1,
            ..OverloadConfig::default()
        }),
        tracer: Tracer::new(Box::new(ParkAtBatchEnd {
            parked: parked_tx,
            release: release_rx,
        })),
        ..ServeConfig::default()
    };
    let server = Server::spawn(DecisionService::new(cfg));
    let client = server.client();

    // Park the worker inside a first tick, so the next two requests queue
    // up and form one sweep.
    let first = client.submit(req(1, RequestKind::Stats)).unwrap();
    parked.recv().unwrap();
    let admitted = client
        .submit(req(
            2,
            RequestKind::Open {
                session: 1,
                cores: 8,
            },
        ))
        .unwrap();
    let shed = client.submit(req(3, RequestKind::Stats)).unwrap();
    release.send(()).unwrap();
    first.recv().unwrap();

    // The second tick admits the Open and sheds the Stats (queue cap 1).
    // While that tick is still parked inside its batch, the shed is
    // already answered and the admitted request is not.
    parked.recv().unwrap();
    let answer = shed
        .recv_timeout(Duration::from_secs(30))
        .expect("the shed is answered while its tick is still parked");
    assert_eq!(code_of(&answer.kind), Some("overloaded"));
    assert!(
        admitted.try_recv().is_err(),
        "the admitted request was answered before its tick finished"
    );
    release.send(()).unwrap();
    assert!(matches!(
        admitted.recv().unwrap().kind,
        ResponseKind::Opened { .. }
    ));

    release.send(()).unwrap(); // lets the Shutdown tick through
    client.call(req(4, RequestKind::Shutdown)).unwrap();
    server.join();
}
