//! Concurrency-determinism for the `bap serve` decision service (tier 1).
//!
//! The contract under test: responses are a pure function of the
//! id-ordered per-session request sequences. How a workload is split into
//! batches, how requests are ordered *within* a batch, and how many
//! client threads race the server cannot change any plan, fingerprint,
//! error, or summary — only the `tick` field (which honestly reports how
//! work actually batched) may differ. The ground truth every variant is
//! compared against is the fully serial schedule: one request per batch,
//! ascending id order.

use std::collections::BTreeMap;
use std::thread;

use bankaware::partitioning::{DecisionService, ServeConfig, Server};
use bankaware::trace::wire::{RequestKind, ResponseKind, WireCurve, WireRequest, WireResponse};

// ---------------------------------------------------------------------------
// Deterministic workload generation (no rand dependency: splitmix64).
// ---------------------------------------------------------------------------

fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

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

/// Sessions used by the canonical workload: (session id, cores).
const SESSIONS: [(u64, usize); 3] = [(1, 8), (2, 16), (3, 8)];

/// A mixed workload in ascending id order: opens first, then rounds of
/// snapshot/evaluate traffic (including deterministic *errors* — an
/// unknown session and a wrong-arity snapshot), then plan queries. Ids
/// are dense from 1; the phase layout mirrors how a well-formed client
/// must sequence per-session traffic.
fn workload(rounds: usize, seed: u64) -> Vec<WireRequest> {
    let mut reqs = Vec::new();
    let mut id = 0u64;
    let mut req = |kind: RequestKind| {
        id += 1;
        WireRequest::new(id, kind)
    };
    for (session, cores) in SESSIONS {
        reqs.push(req(RequestKind::Open { session, cores }));
    }
    for r in 0..rounds {
        for (session, cores) in SESSIONS {
            let curves = knee_curves(cores, seed ^ (r as u64) << 8 ^ session);
            reqs.push(req(RequestKind::Snapshot { session, curves }));
            if r % 2 == 1 {
                let probe = knee_curves(cores, seed ^ 0xE7A1 ^ session);
                reqs.push(req(RequestKind::Evaluate {
                    session,
                    curves: probe,
                }));
            }
        }
        // Deterministic failures ride along with every round.
        reqs.push(req(RequestKind::Snapshot {
            session: 99,
            curves: knee_curves(8, seed),
        }));
        reqs.push(req(RequestKind::Snapshot {
            session: 1,
            curves: knee_curves(4, seed), // wrong arity for an 8-core session
        }));
    }
    for (session, _) in SESSIONS {
        reqs.push(req(RequestKind::Plan { session }));
    }
    reqs
}

/// Key responses by request id, dropping the batch-dependent `tick`.
fn keyed(responses: Vec<WireResponse>) -> BTreeMap<u64, ResponseKind> {
    responses.into_iter().map(|r| (r.id, r.kind)).collect()
}

/// Serial ground truth: one request per batch, ascending id order.
fn serial_ground_truth(reqs: &[WireRequest]) -> BTreeMap<u64, ResponseKind> {
    let mut service = DecisionService::new(ServeConfig::default());
    let mut out = Vec::new();
    for r in reqs {
        out.extend(service.process_batch(std::slice::from_ref(r)));
    }
    keyed(out)
}

// ---------------------------------------------------------------------------
// Batch-partitioning and arrival-order invariance.
// ---------------------------------------------------------------------------

#[test]
fn any_contiguous_batching_matches_the_serial_schedule() {
    let reqs = workload(3, 0xBA12);
    let truth = serial_ground_truth(&reqs);
    assert!(
        truth.values().any(|k| matches!(
            k,
            ResponseKind::Decision {
                installed: true,
                ..
            }
        )),
        "workload must install at least one plan to be probative"
    );
    assert!(
        truth
            .values()
            .any(|k| matches!(k, ResponseKind::Error { .. })),
        "workload must exercise error paths to be probative"
    );

    // One giant batch.
    let mut service = DecisionService::new(ServeConfig::default());
    assert_eq!(keyed(service.process_batch(&reqs)), truth);

    // Five random contiguous partitionings.
    let mut rng = 0x5EED_0001u64;
    for _ in 0..5 {
        let mut service = DecisionService::new(ServeConfig::default());
        let mut out = Vec::new();
        let mut lo = 0;
        while lo < reqs.len() {
            let hi = (lo + 1 + (mix(&mut rng) % 7) as usize).min(reqs.len());
            out.extend(service.process_batch(&reqs[lo..hi]));
            lo = hi;
        }
        assert_eq!(keyed(out), truth);
    }
}

#[test]
fn arrival_order_within_a_batch_is_irrelevant() {
    let reqs = workload(2, 0xC0DE);
    let truth = serial_ground_truth(&reqs);
    let mut rng = 0x5EED_0002u64;
    for _ in 0..4 {
        let mut shuffled = reqs.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (mix(&mut rng) % (i as u64 + 1)) as usize);
        }
        let mut service = DecisionService::new(ServeConfig::default());
        let out = service.process_batch(&shuffled);
        // Responses are 1:1 positional with the *input* order…
        assert_eq!(out.len(), shuffled.len());
        for (resp, req) in out.iter().zip(&shuffled) {
            assert_eq!(resp.id, req.id);
        }
        // …and keyed by id they are bit-identical to the serial schedule.
        assert_eq!(keyed(out), truth);
    }
}

// ---------------------------------------------------------------------------
// Threaded server: real client threads racing a live batching loop.
// ---------------------------------------------------------------------------

fn run_threaded(reqs: &[WireRequest], clients: usize) -> BTreeMap<u64, ResponseKind> {
    // Per-session id order is each client's responsibility: shard whole
    // sessions across clients so every session's sequence stays ordered
    // while cross-session arrival is genuinely racy.
    let mut shards: Vec<Vec<WireRequest>> = vec![Vec::new(); clients];
    for r in reqs {
        let shard = match r.kind.session() {
            Some(s) => (s as usize) % clients,
            None => 0,
        };
        shards[shard].push(r.clone());
    }
    let server = Server::spawn(DecisionService::new(ServeConfig::default()));
    let handles: Vec<thread::JoinHandle<Vec<WireResponse>>> = shards
        .into_iter()
        .map(|shard| {
            let client = server.client();
            thread::spawn(move || {
                shard
                    .into_iter()
                    .map(|req| {
                        let id = req.id;
                        let resp = client.call(req).expect("server alive during load");
                        assert_eq!(resp.id, id, "response must echo its request id");
                        resp
                    })
                    .collect()
            })
        })
        .collect();
    let mut out = Vec::new();
    for h in handles {
        out.extend(h.join().expect("client thread"));
    }
    let bye = server
        .client()
        .call(WireRequest::new(u64::MAX, RequestKind::Shutdown))
        .expect("shutdown acknowledged");
    assert!(matches!(bye.kind, ResponseKind::Bye { .. }));
    server.join();
    keyed(out)
}

#[test]
fn client_threads_cannot_perturb_any_response() {
    let reqs = workload(2, 0xFA11);
    let truth = serial_ground_truth(&reqs);
    for clients in [1, 4] {
        assert_eq!(
            run_threaded(&reqs, clients),
            truth,
            "{clients} racing clients must produce the serial schedule's responses"
        );
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/restore equivalence and shutdown drain.
// ---------------------------------------------------------------------------

/// Session summaries narrate *process* lifetime, so a restored service
/// legitimately restarts them from zero; everything else in a Decision
/// must match. Blank the summary before comparing.
fn desummarized(mut kind: ResponseKind) -> ResponseKind {
    if let ResponseKind::Decision { summary, .. } = &mut kind {
        *summary = Default::default();
    }
    kind
}

#[test]
fn a_restored_service_continues_bit_identically() {
    let reqs = workload(3, 0xD1CE);
    let half = reqs.len() / 2;

    let mut original = DecisionService::new(ServeConfig::default());
    original.process_batch(&reqs[..half]);
    let snap = original.snapshot();

    let mut restored = DecisionService::new(ServeConfig::default());
    restored.restore(snap).expect("restore snapshot");
    assert_eq!(restored.num_sessions(), original.num_sessions());

    let a = original.process_batch(&reqs[half..]);
    let b = restored.process_batch(&reqs[half..]);
    let a: BTreeMap<u64, ResponseKind> = keyed(a)
        .into_iter()
        .map(|(k, v)| (k, desummarized(v)))
        .collect();
    let b: BTreeMap<u64, ResponseKind> = keyed(b)
        .into_iter()
        .map(|(k, v)| (k, desummarized(v)))
        .collect();
    assert_eq!(a, b, "post-restore traffic must be bit-identical");
}

#[test]
fn shutdown_drains_the_inflight_batch() {
    let mut service = DecisionService::new(ServeConfig::default());
    service.process_batch(&workload(1, 0xAB)[..3]); // opens only
    let batch = vec![
        WireRequest::new(
            10,
            RequestKind::Snapshot {
                session: 1,
                curves: knee_curves(8, 0xAB),
            },
        ),
        WireRequest::new(11, RequestKind::Shutdown),
        WireRequest::new(12, RequestKind::Plan { session: 1 }),
    ];
    let out = service.process_batch(&batch);
    assert!(matches!(out[0].kind, ResponseKind::Decision { .. }));
    assert!(
        matches!(out[1].kind, ResponseKind::Bye { drained: 2 }),
        "Bye must report the co-batched requests it drained, got {:?}",
        out[1].kind
    );
    let fp_decision = match &out[0].kind {
        ResponseKind::Decision { fingerprint, .. } => *fingerprint,
        other => panic!("expected Decision, got {other:?}"),
    };
    match &out[2].kind {
        ResponseKind::Plan { fingerprint, .. } => {
            assert_eq!(*fingerprint, fp_decision, "Plan sees the drained decision")
        }
        other => panic!("expected Plan, got {other:?}"),
    }
}
