//! Primary/follower replication for the `bap serve` decision service
//! (tier 1).
//!
//! The replication tier rides the determinism contract proven in
//! `tests/serve.rs`: the primary ships admitted batches, the follower
//! replays them through its own service, and the per-session digests
//! cross-check the two histories. These tests pin the protocol's
//! user-visible guarantees:
//!
//! * a cold follower restores one join anchor, a checkpoint encoded at
//!   the primary's frontier when it attaches, and then tracks the primary
//!   tick for tick — in process, from a promoted follower, at any tick of
//!   a generated history (a thread-free proptest), and over the TCP
//!   bridge from an anchor of a 128-core session within the default ack
//!   timeout; no replica retains shipped entries;
//! * an unreplicated service stays **byte-identical to the
//!   pre-replication dialect** — no `term` member ever appears;
//! * followers refuse state-mutating requests with `not-primary`, and
//!   `call_with_retry` redirects across the replica list on that answer;
//! * promotion bumps the fencing term, deposed-primary answers are
//!   demoted to the pinned `fenced` error client-side, and a diverged
//!   follower refuses promotion;
//! * a primary killed in the durability window (shipped, unanswered)
//!   loses nothing: the promoted follower answers the retried id from
//!   its dedup cache, exactly once.
//!
//! Faults are injected around the servers, never inside their loop: a
//! `bap_fault::TamperRelay` between the primary and the follower's sink
//! corrupts a shipped digest, a `bap_fault::CrashSink` tracer crashes the
//! primary at an exact trace event, and "this replica is gone" is a
//! served `Shutdown` plus `join`.

use bankaware::fault::{CrashSink, TamperRelay};
use bankaware::partitioning::{net, DecisionService, ReplItem, ServeConfig, Server};
use bankaware::trace::wire::{
    encode_request, encode_response, parse_response_line, RequestKind, ResponseKind, WireCurve,
    WireRequest, WireResponse,
};
use bankaware::trace::{EventKind, TraceEvent, TraceSink, Tracer};
use bankaware::types::{ReplicationConfig, RetryConfig};
use proptest::collection;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

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
                accesses: base.max(1.0) * 4.0,
                misses,
            }
        })
        .collect()
}

fn req(id: u64, kind: RequestKind) -> WireRequest {
    WireRequest::new(id, kind)
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

/// Spawn a replicated primary/follower pair with the follower attached.
fn spawn_pair() -> (Server, Server) {
    let primary = Server::spawn(DecisionService::new(repl_cfg(false)));
    let follower = Server::spawn(DecisionService::new(repl_cfg(true)));
    primary.replicate_to(&follower);
    (primary, follower)
}

/// A response's kind with envelope fields masked, for byte comparison
/// across replicas (tick depends on batching, term on the answerer, id
/// on the probing request).
fn masked(resp: &WireResponse) -> String {
    encode_response(&WireResponse {
        id: 0,
        tick: 0,
        term: None,
        kind: resp.kind.clone(),
    })
}

fn open(conn: &bankaware::partitioning::ServeClient, id: u64, session: u64) {
    let resp = conn
        .call(req(id, RequestKind::Open { session, cores: 8 }))
        .unwrap();
    assert!(
        matches!(resp.kind, ResponseKind::Opened { .. }),
        "open answered {}",
        resp.kind.label()
    );
}

fn snapshot(
    conn: &bankaware::partitioning::ServeClient,
    id: u64,
    session: u64,
    seed: u64,
) -> WireResponse {
    conn.call(req(
        id,
        RequestKind::Snapshot {
            session,
            curves: knee_curves(8, seed),
        },
    ))
    .unwrap()
}

/// The role, term, tick and divergence count of a `ReplStatus` answer.
fn repl_fields(kind: ResponseKind) -> (String, u64, u64, u64) {
    match kind {
        ResponseKind::ReplStatus {
            role,
            term,
            tick,
            divergences,
            ..
        } => (role, term, tick, divergences),
        other => panic!("repl_status answered {}", other.label()),
    }
}

fn repl_status(conn: &bankaware::partitioning::ServeClient, id: u64) -> (String, u64, u64, u64) {
    repl_fields(conn.call(req(id, RequestKind::ReplStatus)).unwrap().kind)
}

/// The `log_entries` and `anchor_tick` of a `ReplStatus` answer.
fn anchor_fields(conn: &bankaware::partitioning::ServeClient, id: u64) -> (usize, u64) {
    match conn.call(req(id, RequestKind::ReplStatus)).unwrap().kind {
        ResponseKind::ReplStatus {
            log_entries,
            anchor_tick,
            ..
        } => (log_entries, anchor_tick),
        other => panic!("repl_status answered {}", other.label()),
    }
}

// ---------------------------------------------------------------------------
// Catch-up and live tracking.
// ---------------------------------------------------------------------------

#[test]
fn cold_follower_joins_from_anchor_and_tracks_the_primary() {
    // The follower attaches after ten decisions, so the join restores a
    // checkpoint of decided state, not an empty service.
    let primary = Server::spawn(DecisionService::new(repl_cfg(false)));
    let follower = Server::spawn(DecisionService::new(repl_cfg(true)));
    let (pconn, fconn) = (primary.client(), follower.client());

    open(&pconn, 1, 1);
    for round in 0..10u64 {
        snapshot(&pconn, 2 + round, 1, round);
    }
    primary.replicate_to(&follower);
    // The next acknowledged decision proves the follower is attached and
    // acking (the primary answers only after every live follower acked).
    snapshot(&pconn, 100, 1, 99);

    let (_, _, ptick, _) = repl_status(&pconn, 101);
    let (role, term, ftick, divergences) = repl_status(&fconn, 1);
    assert_eq!(role, "follower");
    assert_eq!(term, 1);
    assert_eq!(ftick, ptick, "follower applied the primary's tick frontier");
    assert_eq!(divergences, 0);

    // Replayed state answers read queries byte-identically.
    let pplan = pconn
        .call(req(102, RequestKind::Plan { session: 1 }))
        .unwrap();
    let fplan = fconn
        .call(req(2, RequestKind::Plan { session: 1 }))
        .unwrap();
    assert!(matches!(pplan.kind, ResponseKind::Plan { .. }));
    assert_eq!(masked(&pplan), masked(&fplan));

    pconn.call(req(103, RequestKind::Shutdown)).unwrap();
    fconn.call(req(3, RequestKind::Shutdown)).unwrap();
    primary.join();
    follower.join();
}

// ---------------------------------------------------------------------------
// Byte-identity of the unreplicated dialect.
// ---------------------------------------------------------------------------

/// With no replication config the service is byte-identical to the
/// pre-replication server: no `term` member on any line, and the exact
/// response shapes of the old dialect.
#[test]
fn unreplicated_service_speaks_the_old_dialect_byte_for_byte() {
    let mut svc = DecisionService::new(ServeConfig::default());
    let out = svc.process_batch(&[
        req(
            1,
            RequestKind::Open {
                session: 7,
                cores: 8,
            },
        ),
        req(
            2,
            RequestKind::Snapshot {
                session: 7,
                curves: knee_curves(8, 3),
            },
        ),
        req(3, RequestKind::Stats),
    ]);
    for resp in &out {
        assert_eq!(resp.term, None);
        let line = encode_response(resp);
        assert!(
            !line.contains("\"term\""),
            "unreplicated line leaked a term member: {line}"
        );
    }
    assert_eq!(
        encode_response(&out[0]),
        r#"{"id":1,"tick":1,"kind":{"Opened":{"session":7,"cores":8}}}"#,
        "the pre-replication Opened line changed shape"
    );

    // The same batch on a replicated primary stamps term on every line.
    let mut repl = DecisionService::new(repl_cfg(false));
    let out = repl.process_batch(&[req(
        1,
        RequestKind::Open {
            session: 7,
            cores: 8,
        },
    )]);
    assert_eq!(out[0].term, Some(1));
    assert!(encode_response(&out[0]).contains("\"term\":1"));
}

// ---------------------------------------------------------------------------
// Refusals, redirects, and fencing.
// ---------------------------------------------------------------------------

#[test]
fn follower_refuses_writes_and_call_with_retry_redirects() {
    let (primary, follower) = spawn_pair();
    let fconn = follower.client();

    // Direct write on the follower: the pinned not-primary refusal.
    let refused = fconn
        .call(req(
            1,
            RequestKind::Open {
                session: 1,
                cores: 8,
            },
        ))
        .unwrap();
    match &refused.kind {
        ResponseKind::Error { code, .. } => assert_eq!(code, "not-primary"),
        other => panic!("follower write answered {}", other.label()),
    }
    assert_eq!(refused.term, Some(1), "refusals carry the fencing term");

    // A fleet client whose cursor starts on the follower redirects to the
    // primary and succeeds.
    let fleet = Server::client_of(&[&follower, &primary]);
    let retry = RetryConfig {
        max_attempts: 4,
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        jitter_frac: 0.0,
        seed: 7,
    };
    let resp = fleet
        .call_with_retry(
            req(
                10,
                RequestKind::Open {
                    session: 1,
                    cores: 8,
                },
            ),
            &retry,
        )
        .unwrap();
    assert!(
        matches!(resp.kind, ResponseKind::Opened { .. }),
        "redirect-on-not-primary reached the primary, got {}",
        resp.kind.label()
    );

    fleet.call(req(11, RequestKind::Shutdown)).unwrap();
    fconn.call(req(2, RequestKind::Shutdown)).unwrap();
    primary.join();
    follower.join();
}

#[test]
fn gave_up_carries_the_last_fence_hint() {
    // A lone follower never stops refusing: exhaustion must surface the
    // term it kept fencing on, typed, instead of a silent drop.
    let follower = Server::spawn(DecisionService::new(repl_cfg(true)));
    let fconn = follower.client();
    let retry = RetryConfig {
        max_attempts: 3,
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        jitter_frac: 0.0,
        seed: 7,
    };
    let err = fconn
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
        .unwrap_err();
    match err {
        bankaware::partitioning::ClientError::GaveUp {
            attempts,
            last_fence_term,
            ..
        } => {
            assert_eq!(attempts, 3);
            assert_eq!(last_fence_term, Some(1));
        }
        other => panic!("expected GaveUp, got {other}"),
    }
    fconn.call(req(2, RequestKind::Shutdown)).unwrap();
    follower.join();
}

#[test]
fn promotion_bumps_the_term_and_deposed_answers_are_fenced() {
    let (primary, follower) = spawn_pair();
    let (pconn, fconn) = (primary.client(), follower.client());
    open(&pconn, 1, 1);
    snapshot(&pconn, 2, 1, 5);

    // Promote the follower while the deposed primary keeps running.
    match fconn.call(req(10, RequestKind::Promote)).unwrap().kind {
        ResponseKind::Promoted { term, .. } => assert_eq!(term, 2),
        other => panic!("promote answered {}", other.label()),
    }
    let (role, term, _, _) = repl_status(&fconn, 11);
    assert_eq!((role.as_str(), term), ("primary", 2));

    // A client that has observed term 2 must demote the deposed
    // primary's term-1 answers to the pinned `fenced` error.
    let fleet = Server::client_of(&[&follower, &primary]);
    let fresh = fleet.call(req(20, RequestKind::Stats)).unwrap();
    assert_eq!(fresh.term, Some(2), "cursor starts on the successor");
    // The successor goes away; the fleet falls back to the deposed
    // primary, whose term-1 answer must come back fenced.
    fconn.call(req(12, RequestKind::Shutdown)).unwrap();
    follower.join();
    let stale = fleet.call(req(21, RequestKind::Stats)).unwrap();
    match &stale.kind {
        ResponseKind::Error { code, detail, .. } => {
            assert_eq!(code, "fenced");
            assert!(
                detail.contains("deposed"),
                "detail names the cause: {detail}"
            );
        }
        other => panic!("deposed answer surfaced as {}", other.label()),
    }

    pconn.call(req(3, RequestKind::Shutdown)).unwrap();
    primary.join();
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

#[test]
fn diverged_follower_refuses_promotion() {
    let primary = Server::spawn(DecisionService::new(repl_cfg(false)));
    let follower = Server::spawn(DecisionService::new(repl_cfg(true)));
    let (sink, flip) = TamperRelay::spawn(follower.repl_sink(), flip_first_digest);
    primary.attach(sink);
    let (pconn, fconn) = (primary.client(), follower.client());
    open(&pconn, 1, 1);
    snapshot(&pconn, 2, 1, 5);

    // Only the shipped copy lies: the primary's own state stays clean.
    flip.arm();
    snapshot(&pconn, 3, 1, 6);

    let (_, _, _, divergences) = repl_status(&fconn, 10);
    assert!(divergences >= 1, "flipped digest must be detected");
    match fconn.call(req(11, RequestKind::Promote)).unwrap().kind {
        ResponseKind::Error { code, .. } => assert_eq!(code, "divergence"),
        other => panic!("diverged promote answered {}", other.label()),
    }

    pconn.call(req(4, RequestKind::Shutdown)).unwrap();
    fconn.call(req(12, RequestKind::Shutdown)).unwrap();
    primary.join();
    follower.join();
}

// ---------------------------------------------------------------------------
// The durability window: kill after ship, before answer.
// ---------------------------------------------------------------------------

/// A primary killed after shipping a batch but before answering it has
/// made the decision durable: the promoted follower holds it and serves
/// the client's retry of the same id from its dedup cache — exactly
/// once, byte-identical to what an unreplicated service would answer.
#[test]
fn killed_primary_loses_nothing_and_retries_dedup_exactly_once() {
    let ids: Vec<u64> = (3..=10).collect();
    let last = *ids.last().unwrap();
    // The primary crashes at the first shipment after it served `last`:
    // every follower has acked that batch, no client has heard back.
    let mut served_last = false;
    let crash = CrashSink::new(move |e: &TraceEvent| match e.kind {
        EventKind::RequestServed { id, .. } if id == last => {
            served_last = true;
            false
        }
        EventKind::ReplEntryShipped { .. } => served_last,
        _ => false,
    });
    let primary = Server::spawn(DecisionService::new(ServeConfig {
        tracer: Tracer::new(Box::new(crash)),
        ..repl_cfg(false)
    }));
    let follower = Server::spawn(DecisionService::new(repl_cfg(true)));
    primary.replicate_to(&follower);
    let (pconn, fconn) = (primary.client(), follower.client());
    open(&pconn, 1, 1);
    snapshot(&pconn, 2, 1, 5);

    // Enqueue a burst of snapshots. The worker answers every batch before
    // the one holding `last`; that one is shipped, acked, and never
    // answered — those reply channels report disconnection.
    let pending: Vec<_> = ids
        .iter()
        .map(|&id| {
            pconn
                .submit(req(
                    id,
                    RequestKind::Snapshot {
                        session: 1,
                        curves: knee_curves(8, id + 3),
                    },
                ))
                .unwrap()
        })
        .collect();
    let answered: Vec<bool> = pending.iter().map(|rx| rx.recv().is_ok()).collect();
    assert_eq!(
        answered.last(),
        Some(&false),
        "the crash must swallow the answer to {last}"
    );
    assert!(
        answered.iter().skip_while(|ok| **ok).all(|ok| !ok),
        "every batch before the crash was answered: {answered:?}"
    );
    // A crashed server is dropped, not joined.
    drop(primary);

    // Fail over and retry the LAST id — the one request a synchronous
    // client would actually have in flight when its primary died. The
    // whole burst was shipped and acked before the crash, so the
    // promoted follower holds it and must answer the retry from its
    // dedup cache.
    match fconn.call(req(100, RequestKind::Promote)).unwrap().kind {
        ResponseKind::Promoted { term, .. } => assert_eq!(term, 2),
        other => panic!("promote answered {}", other.label()),
    }
    let retried = snapshot(&fconn, last, 1, last + 3);
    assert!(
        matches!(retried.kind, ResponseKind::Decision { .. }),
        "retried id answered {}",
        retried.kind.label()
    );

    // Ground truth: an unreplicated service fed the same id-ordered
    // sequence answers the retried id byte-identically — and the epoch
    // advanced exactly once for it (dedup, not re-execution).
    let mut truth = DecisionService::new(ServeConfig::default());
    let mut expect = None;
    let mut seq = vec![
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
                curves: knee_curves(8, 5),
            },
        ),
    ];
    seq.extend(ids.iter().map(|&id| {
        req(
            id,
            RequestKind::Snapshot {
                session: 1,
                curves: knee_curves(8, id + 3),
            },
        )
    }));
    for r in seq {
        for resp in truth.process_batch(std::slice::from_ref(&r)) {
            if resp.id == last {
                expect = Some(masked(&resp));
            }
        }
    }
    assert_eq!(
        masked(&retried),
        expect.unwrap(),
        "retried answer diverged from ground truth"
    );

    match fconn
        .call(req(101, RequestKind::Plan { session: 1 }))
        .unwrap()
        .kind
    {
        ResponseKind::Plan { epoch, .. } => assert_eq!(
            epoch,
            1 + ids.len() as u64,
            "every snapshot closed exactly one epoch — the retry re-executed nothing"
        ),
        other => panic!("plan answered {}", other.label()),
    }

    fconn.call(req(102, RequestKind::Shutdown)).unwrap();
    follower.join();
}

// ---------------------------------------------------------------------------
// Client liveness against dead replicas.
// ---------------------------------------------------------------------------

#[test]
fn client_pinned_to_a_dead_server_fails_typed_not_hanging() {
    let server = Server::spawn(DecisionService::new(ServeConfig::default()));
    let conn = server.client();
    conn.call(req(0, RequestKind::Shutdown)).unwrap();
    server.join();
    let err = conn.call(req(1, RequestKind::Stats)).unwrap_err();
    assert_eq!(err, bankaware::partitioning::ClientError::Disconnected);
    // call_with_retry with one target treats disconnection as final.
    let retry = RetryConfig {
        max_attempts: 5,
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        jitter_frac: 0.0,
        seed: 1,
    };
    let err = conn
        .call_with_retry(req(2, RequestKind::Stats), &retry)
        .unwrap_err();
    assert_eq!(err, bankaware::partitioning::ClientError::Disconnected);
}

// ---------------------------------------------------------------------------
// The TCP replication bridge.
// ---------------------------------------------------------------------------

/// Forwards a primary's follower-membership events to the test, so it
/// waits on the join itself rather than on a sleep.
struct Membership(mpsc::Sender<EventKind>);

impl TraceSink for Membership {
    fn record(&mut self, event: &TraceEvent) {
        if matches!(
            event.kind,
            EventKind::FollowerJoined { .. } | EventKind::FollowerLost { .. }
        ) {
            let _ = self.0.send(event.kind.clone());
        }
    }
}

/// One JSONL client connection to a `serve_tcp` front end.
struct TcpConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl TcpConn {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        TcpConn {
            reader: BufReader::new(stream.try_clone().expect("clone socket")),
            writer: BufWriter::new(stream),
        }
    }

    fn call(&mut self, request: WireRequest) -> WireResponse {
        writeln!(self.writer, "{}", encode_request(&request)).expect("write");
        self.writer.flush().expect("flush");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        parse_response_line(line.trim_end()).expect("a response line")
    }

    fn repl_status(&mut self, id: u64) -> (String, u64, u64, u64) {
        repl_fields(self.call(req(id, RequestKind::ReplStatus)).kind)
    }
}

/// Serve `cfg` on a fresh loopback listener in its own thread.
fn spawn_tcp(
    cfg: ServeConfig,
    replica_of: Option<(String, bool)>,
) -> (SocketAddr, thread::JoinHandle<DecisionService>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = thread::spawn(move || {
        net::serve_tcp(
            DecisionService::new(cfg),
            listener,
            Arc::new(net::no_profile),
            replica_of,
        )
    });
    (addr, handle)
}

#[test]
fn tcp_follower_joins_a_large_anchor_within_the_ack_timeout() {
    const CORES: usize = 128;
    // Default ack timeout (1 s). The session decides before the follower
    // exists, so the join anchor is a checkpoint of its whole history.
    let repl = |follower| ReplicationConfig {
        follower,
        ..ReplicationConfig::default()
    };
    let (events_tx, events) = mpsc::channel();
    let (paddr, primary) = spawn_tcp(
        ServeConfig {
            replication: Some(repl(false)),
            tracer: Tracer::new(Box::new(Membership(events_tx))),
            ..ServeConfig::default()
        },
        None,
    );
    let mut pconn = TcpConn::connect(paddr);
    let opened = pconn.call(req(
        1,
        RequestKind::Open {
            session: 1,
            cores: CORES,
        },
    ));
    assert!(matches!(opened.kind, ResponseKind::Opened { .. }));
    for round in 0..6u64 {
        let curves = knee_curves(CORES, round);
        let resp = pconn.call(req(2 + round, RequestKind::Snapshot { session: 1, curves }));
        assert!(matches!(resp.kind, ResponseKind::Decision { .. }));
    }
    // The anchor a joiner restores is a checkpoint of this one session.
    match pconn.call(req(20, RequestKind::Checkpoint)).kind {
        ResponseKind::Checkpointed { bytes, .. } => {
            assert!(bytes >= 150_000, "a {bytes} B checkpoint is too small")
        }
        other => panic!("checkpoint answered {}", other.label()),
    }

    let (faddr, follower) = spawn_tcp(
        ServeConfig {
            replication: Some(repl(true)),
            ..ServeConfig::default()
        },
        Some((paddr.to_string(), true)),
    );
    match events.recv_timeout(Duration::from_secs(60)) {
        Ok(EventKind::FollowerJoined { anchor_tick, .. }) => {
            assert!(anchor_tick > 0, "the join restored no checkpoint")
        }
        other => panic!("the follower did not join: {other:?}"),
    }

    // Answered after every live follower acked, so the follower has
    // applied the primary's tick frontier by the time it answers.
    let (_, _, ptick, _) = pconn.repl_status(21);
    let mut fconn = TcpConn::connect(faddr);
    let (role, term, ftick, divergences) = fconn.repl_status(1);
    assert_eq!(role, "follower", "the follower promoted itself");
    assert_eq!(term, 1);
    assert_eq!(ftick, ptick, "follower applied the primary's tick frontier");
    assert_eq!(divergences, 0);
    let pplan = pconn.call(req(22, RequestKind::Plan { session: 1 }));
    let fplan = fconn.call(req(2, RequestKind::Plan { session: 1 }));
    assert!(matches!(pplan.kind, ResponseKind::Plan { .. }));
    assert_eq!(masked(&pplan), masked(&fplan));
    assert!(
        events.try_recv().is_err(),
        "the primary dropped its follower"
    );

    fconn.call(req(3, RequestKind::Shutdown));
    follower.join().expect("follower exits cleanly");
    pconn.call(req(23, RequestKind::Shutdown));
    primary.join().expect("primary exits cleanly");
}

// ---------------------------------------------------------------------------
// The join anchor.
// ---------------------------------------------------------------------------

#[test]
fn a_joiner_restores_an_anchor_at_the_primarys_frontier() {
    let (events_tx, events) = mpsc::channel();
    let primary = Server::spawn(DecisionService::new(ServeConfig {
        tracer: Tracer::new(Box::new(Membership(events_tx))),
        ..repl_cfg(false)
    }));
    let follower = Server::spawn(DecisionService::new(repl_cfg(true)));
    let (pconn, fconn) = (primary.client(), follower.client());
    // One Open and eleven decisions: the primary's frontier is tick 12.
    open(&pconn, 1, 1);
    for round in 0..11u64 {
        snapshot(&pconn, 2 + round, 1, round);
    }
    const FRONTIER: u64 = 12;

    primary.replicate_to(&follower);
    match events.recv_timeout(Duration::from_secs(60)) {
        Ok(EventKind::FollowerJoined { anchor_tick }) => assert_eq!(
            anchor_tick, FRONTIER,
            "the join anchor covers every committed tick"
        ),
        other => panic!("the follower did not join: {other:?}"),
    }
    // The status query is itself a shipped tick, so the follower has
    // applied it by the time the primary answers.
    let (_, _, ptick, _) = repl_status(&pconn, 100);
    let (_, _, ftick, divergences) = repl_status(&fconn, 1);
    assert_eq!(ftick, ptick);
    assert_eq!(divergences, 0);
    for (who, conn, id) in [("primary", &pconn, 101), ("follower", &fconn, 2)] {
        let (log_entries, anchor_tick) = anchor_fields(conn, id);
        assert_eq!(log_entries, 0, "the {who} retained shipped entries");
        assert_eq!(anchor_tick, FRONTIER, "the {who}'s newest anchor");
    }

    pconn.call(req(102, RequestKind::Shutdown)).unwrap();
    fconn.call(req(3, RequestKind::Shutdown)).unwrap();
    primary.join();
    follower.join();
}

/// A promoted follower serves joiners itself: its join anchor is its own
/// checkpoint at its frontier, under the bumped term.
#[test]
fn a_promoted_follower_anchors_a_chain_join() {
    let (primary, follower) = spawn_pair();
    let (pconn, fconn) = (primary.client(), follower.client());
    open(&pconn, 1, 1);
    for round in 0..3u64 {
        snapshot(&pconn, 2 + round, 1, round);
    }
    pconn.call(req(10, RequestKind::Shutdown)).unwrap();
    primary.join();
    match fconn.call(req(1, RequestKind::Promote)).unwrap().kind {
        ResponseKind::Promoted { term, .. } => assert_eq!(term, 2),
        other => panic!("promote answered {}", other.label()),
    }

    let third = Server::spawn(DecisionService::new(repl_cfg(true)));
    let tconn = third.client();
    follower.replicate_to(&third);
    let decided = snapshot(&fconn, 20, 1, 7);
    assert!(
        matches!(decided.kind, ResponseKind::Decision { .. }),
        "the promoted primary answered {}",
        decided.kind.label()
    );

    let (_, pterm, ptick, _) = repl_status(&fconn, 21);
    let (role, term, ttick, divergences) = repl_status(&tconn, 1);
    assert_eq!((role.as_str(), term), ("follower", pterm));
    assert_eq!(ttick, ptick, "the third replica applied the frontier");
    assert_eq!(divergences, 0);
    let pplan = fconn
        .call(req(22, RequestKind::Plan { session: 1 }))
        .unwrap();
    let tplan = tconn
        .call(req(2, RequestKind::Plan { session: 1 }))
        .unwrap();
    assert!(matches!(pplan.kind, ResponseKind::Plan { epoch: 4, .. }));
    assert_eq!(masked(&pplan), masked(&tplan));

    fconn.call(req(23, RequestKind::Shutdown)).unwrap();
    tconn.call(req(3, RequestKind::Shutdown)).unwrap();
    follower.join();
    third.join();
}

/// One generated request: `(kind, session slot, curve seed)`.
type GenRequest = (u8, usize, u64);

/// The batch of one generated tick, ids continuing from `next_id`.
fn tick_requests(tick: &[GenRequest], cores: &[usize], next_id: &mut u64) -> Vec<WireRequest> {
    tick.iter()
        .map(|&(kind, slot, seed)| {
            let session = (slot % cores.len()) as u64 + 1;
            let n = cores[slot % cores.len()];
            let kind = match kind % 4 {
                0 => RequestKind::Open { session, cores: n },
                1 => RequestKind::Snapshot {
                    session,
                    curves: knee_curves(n, seed),
                },
                2 => RequestKind::Evaluate {
                    session,
                    curves: knee_curves(n, seed),
                },
                _ => RequestKind::Plan { session },
            };
            *next_id += 1;
            req(*next_id, kind)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Thread-free, at the service level: a follower that restores the
    /// primary's join anchor at any tick of a generated history (before
    /// the first, or after the last) and then applies every later entry
    /// acks each with its tick, never diverges, and answers every
    /// session's `Plan` as the primary does.
    #[test]
    fn a_follower_joining_at_any_tick_tracks_the_primary(
        sizes in collection::vec(1usize..3, 1..4),
        ticks in collection::vec(
            collection::vec((0u8..4, 0usize..3, 0u64..1_000), 1..5),
            0..10,
        ),
        join in 0usize..12,
    ) {
        let cores: Vec<usize> = sizes.iter().map(|s| 8 * s).collect();
        let mut primary = DecisionService::new(repl_cfg(false));
        let mut follower = DecisionService::new(repl_cfg(true));
        // Every session opens in the first tick; the generated ticks may
        // open them again (`session_exists`).
        let mut history: Vec<Vec<GenRequest>> =
            vec![(0..cores.len()).map(|slot| (0, slot, 0)).collect()];
        history.extend(ticks);
        let join = join.min(history.len());
        let mut next_id = 0;
        for t in 0..=history.len() {
            if t == join {
                let (state, tick, term) = primary.join_anchor().expect("replicated");
                prop_assert_eq!(tick, primary.ticks());
                follower.restore_from_anchor(&state, tick, term).expect("the anchor restores");
            }
            let Some(tick) = history.get(t) else { break };
            let batch = tick_requests(tick, &cores, &mut next_id);
            primary.process_batch(&batch);
            let entry = primary.log_batch(&batch, 0).expect("a primary commits every tick");
            if t >= join {
                prop_assert_eq!(follower.apply_repl_entry(&entry), Some(entry.tick));
            }
        }
        prop_assert_eq!(follower.divergences(), 0);
        for session in 1..=cores.len() as u64 {
            let plan = [req(u64::MAX, RequestKind::Plan { session })];
            let p = masked(&primary.process_batch(&plan)[0]);
            let f = masked(&follower.process_batch(&plan)[0]);
            prop_assert_eq!(p, f);
        }
    }
}
