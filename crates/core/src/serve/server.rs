//! The threaded shell around the service: one worker thread per
//! [`Server`] sweeping its queue into ticks, and the blocking
//! [`ServeClient`] handles (with replica-fleet failover and fencing) that
//! feed it.

use super::service::DecisionService;
use super::tick::run_tick;
use crate::replication::{apply_repl_item, attach_follower, ship_entry, ReplItem};
use bap_trace::wire::{RequestKind, ResponseKind, WireRequest, WireResponse};
use bap_types::RetryConfig;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// A client request on the server queue: the request, its arrival
/// instant (the deadline clock starts here), and its private reply
/// channel — the reply token of the worker's tick sweep.
type Envelope = (WireRequest, Instant, mpsc::Sender<WireResponse>);

/// Everything the worker loop multiplexes on its one queue: client
/// requests, shipped replication traffic, and follower attachment.
enum WorkItem {
    /// A client request awaiting its reply.
    Client(Envelope),
    /// A shipped replication item to apply (the follower side).
    Repl(ReplItem),
    /// Attach a follower sink: catch it up (anchor + suffix), then ship
    /// it every committed entry.
    Attach(mpsc::Sender<ReplItem>),
}

/// The threaded shell around a [`DecisionService`]: one worker thread owns
/// the service; clients enqueue requests; the worker drains the queue's
/// natural backlog into one batch per epoch tick. Concurrency shapes only
/// the batching — determinism is the service's job.
///
/// With replication on, the worker is also the replication endpoint: a
/// primary ships every committed batch to its attached follower sinks
/// and holds the batch's client responses until every live follower
/// acked (semi-synchronous — an acknowledged decision is durable on the
/// fleet); a follower applies shipped items between client sweeps.
pub struct Server {
    tx: mpsc::Sender<WorkItem>,
    handle: thread::JoinHandle<DecisionService>,
}

/// A cloneable, blocking client handle onto one [`Server`] — or onto a
/// replica fleet ([`Server::client_of`]): calls go to the current
/// replica and fail over in list order on a dead target, and
/// [`ServeClient::call_with_retry`] also redirects on `not-primary` and
/// `fenced` answers. Clones share the replica cursor and the highest
/// fencing term seen, so one thread's failover redirects every clone
/// and a deposed primary's stale answers are rejected fleet-wide.
#[derive(Clone)]
pub struct ServeClient {
    targets: Vec<mpsc::Sender<WorkItem>>,
    /// Index of the replica currently targeted (shared across clones).
    current: Arc<AtomicUsize>,
    /// Highest fencing term observed on any response; a lower-termed
    /// response is from a deposed primary and answers `fenced`.
    max_term: Arc<AtomicU64>,
}

impl Server {
    /// Move the service onto its worker thread and start serving. With
    /// [`crate::ServeConfig::overload`] set, an [`crate::OverloadGovernor`]
    /// gates every dequeue sweep before it becomes a batch; without it the
    /// worker is the plain unregulated loop. Either way the queue itself
    /// is unbounded and `send` never blocks — backpressure is expressed as
    /// immediate `overloaded` answers, never as a stalled accept path.
    pub fn spawn(mut service: DecisionService) -> Server {
        let (tx, rx) = mpsc::channel::<WorkItem>();
        let mut governor = service.governor();
        let ack_timeout = service.ack_timeout();
        let handle = thread::Builder::new()
            .name("bap-serve".to_string())
            .spawn(move || {
                let mut sinks: Vec<mpsc::Sender<ReplItem>> = Vec::new();
                // Block for the first item (until every client handle is
                // dropped), then sweep whatever else already queued into
                // the same tick.
                while let Ok(first) = rx.recv() {
                    let items: Vec<WorkItem> =
                        std::iter::once(first).chain(rx.try_iter()).collect();
                    // Replication traffic peels off first; the client
                    // envelopes left form the tick's sweep.
                    let mut sweep: Vec<Envelope> = Vec::with_capacity(items.len());
                    for item in items {
                        match item {
                            WorkItem::Client(env) => sweep.push(env),
                            WorkItem::Repl(item) => apply_repl_item(&mut service, item),
                            WorkItem::Attach(sink) => {
                                if attach_follower(&service, &sink, ack_timeout) {
                                    sinks.push(sink);
                                }
                            }
                        }
                    }
                    let shutdown = sweep
                        .iter()
                        .any(|(req, ..)| matches!(req.kind, RequestKind::Shutdown));
                    if shutdown {
                        // Drain stragglers that raced the shutdown into
                        // the final batch so they are answered, not lost.
                        sweep.extend(rx.try_iter().filter_map(|item| match item {
                            WorkItem::Client(env) => Some(env),
                            _ => None,
                        }));
                    }
                    // Sheds answer at once, before the tick's solve; a
                    // client that hung up just doesn't read its reply.
                    let tick = run_tick(
                        &mut service,
                        governor.as_mut(),
                        sweep,
                        Instant::now(),
                        |reply, resp| {
                            let _ = reply.send(resp);
                        },
                    );
                    // Ship *before answering*: a response only leaves
                    // once every live follower acked the entry that
                    // produced it, so an acknowledged decision is durable
                    // on the fleet — the zero-loss contract.
                    if let Some(entry) = &tick.entry {
                        ship_entry(&service, &mut sinks, entry, ack_timeout);
                    }
                    for (reply, resp) in tick.answers {
                        let _ = reply.send(resp);
                    }
                    if shutdown {
                        break;
                    }
                }
                service
            })
            .expect("spawn server thread");
        Server { tx, handle }
    }

    /// A client handle; clone freely across threads.
    pub fn client(&self) -> ServeClient {
        Server::client_of(&[self])
    }

    /// A client over a replica fleet: calls target the replicas in list
    /// order, failing over on a dead target, `not-primary`, or a fence.
    /// List the primary first.
    pub fn client_of(replicas: &[&Server]) -> ServeClient {
        ServeClient {
            targets: replicas.iter().map(|s| s.tx.clone()).collect(),
            current: Arc::new(AtomicUsize::new(0)),
            max_term: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A sink feeding shipped replication items into this server's
    /// worker — the in-process transport (the TCP front end bridges the
    /// same items over a socket). The relay exits when either side
    /// hangs up.
    pub fn repl_sink(&self) -> mpsc::Sender<ReplItem> {
        let (tx, rx) = mpsc::channel::<ReplItem>();
        let worker = self.tx.clone();
        thread::Builder::new()
            .name("bap-repl-sink".to_string())
            .spawn(move || {
                while let Ok(item) = rx.recv() {
                    if worker.send(WorkItem::Repl(item)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn repl sink relay");
        tx
    }

    /// Attach a raw follower sink to this server's replication stream: a
    /// socket bridge, or a relay in front of a follower's
    /// [`Server::repl_sink`] ([`Server::replicate_to`] attaches the sink
    /// itself).
    pub fn attach(&self, sink: mpsc::Sender<ReplItem>) {
        let _ = self.tx.send(WorkItem::Attach(sink));
    }

    /// Subscribe `follower` to this server's replication stream: anchor
    /// plus suffix catch-up first, then every committed entry, with
    /// every item acked before the primary answers its clients.
    pub fn replicate_to(&self, follower: &Server) {
        self.attach(follower.repl_sink());
    }

    /// Wait for the worker to exit (after a `Shutdown` was served, or once
    /// every client handle is dropped) and take the service back —
    /// checkpoint state and all. Panics if the worker itself panicked: a
    /// crashed server is dropped, not joined.
    pub fn join(self) -> DecisionService {
        drop(self.tx);
        self.handle.join().expect("server thread panicked")
    }
}

/// Why a [`ServeClient`] call could not produce a server answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// Every server worker the client knows is gone — each served a
    /// `Shutdown`, or its thread died — so the request can never be
    /// answered on this handle.
    Disconnected,
    /// Every retry attempt was answered `overloaded`, redirected off a
    /// fence, or found the fleet mid-failover; the client gave up.
    GaveUp {
        /// Attempts made, including the first send.
        attempts: u32,
        /// The server's last `retry_after_ms` hint, if any.
        last_retry_after_ms: Option<u64>,
        /// The last fencing term a `not-primary`/`fenced` redirect
        /// chased, if any — tells the operator how far behind the
        /// client's view of the fleet was when it gave up.
        last_fence_term: Option<u64>,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Disconnected => write!(f, "server disconnected"),
            ClientError::GaveUp {
                attempts,
                last_retry_after_ms,
                last_fence_term,
            } => write!(
                f,
                "gave up after {attempts} attempts (last hint: {last_retry_after_ms:?}, last fence term: {last_fence_term:?})"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl ServeClient {
    /// Send one request and block for its response, failing over across
    /// the replica list when the current target is gone. A response
    /// stamped with a fencing term below the highest this client (or any
    /// clone) has seen comes from a deposed primary: its kind is
    /// replaced with the pinned `fenced` error before the caller sees
    /// it, so stale answers can never be mistaken for authority.
    pub fn call(&self, req: WireRequest) -> Result<WireResponse, ClientError> {
        let n = self.targets.len();
        for _ in 0..n {
            let idx = self.current.load(Ordering::Relaxed) % n;
            let (tx, rx) = mpsc::channel();
            let sent = self.targets[idx]
                .send(WorkItem::Client((req.clone(), Instant::now(), tx)))
                .is_ok();
            if sent {
                if let Ok(resp) = rx.recv() {
                    return Ok(self.fence_check(resp));
                }
            }
            // Dead replica: advance the shared cursor. First thread to
            // notice wins; the rest just see the moved cursor.
            let _ = self.current.compare_exchange(
                idx,
                (idx + 1) % n,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        Err(ClientError::Disconnected)
    }

    /// Enqueue one request without blocking for the answer — the open-loop
    /// send of the overload experiments. The caller polls or blocks on the
    /// returned channel at its leisure; dropping it abandons the reply.
    /// Targets the current replica only (no failover: an open-loop
    /// sender has nowhere to re-route an in-flight reply).
    pub fn submit(&self, req: WireRequest) -> Result<mpsc::Receiver<WireResponse>, ClientError> {
        let (tx, rx) = mpsc::channel();
        let idx = self.current.load(Ordering::Relaxed) % self.targets.len();
        self.targets[idx]
            .send(WorkItem::Client((req, Instant::now(), tx)))
            .map_err(|_| ClientError::Disconnected)?;
        Ok(rx)
    }

    /// Subscribe to the replication stream of the current target:
    /// attaches a fresh sink to the server's worker and returns its
    /// receiving end — the TCP front end bridges the items it yields
    /// onto the socket.
    pub fn subscribe(&self) -> mpsc::Receiver<ReplItem> {
        let (tx, rx) = mpsc::channel();
        let idx = self.current.load(Ordering::Relaxed) % self.targets.len();
        let _ = self.targets[idx].send(WorkItem::Attach(tx));
        rx
    }

    /// Enforce fencing on one response: remember the highest term seen
    /// across every clone, and demote a lower-termed response to the
    /// pinned `fenced` error.
    fn fence_check(&self, resp: WireResponse) -> WireResponse {
        let Some(term) = resp.term else { return resp };
        let prev = self.max_term.fetch_max(term, Ordering::Relaxed);
        if term < prev {
            return WireResponse {
                kind: ResponseKind::fenced(format!(
                    "response stamped term {term}, but term {prev} was already observed: \
                     this answer is from a deposed primary"
                )),
                ..resp
            };
        }
        resp
    }

    /// Move the shared cursor past the current replica (the redirect
    /// after a `not-primary` or `fenced` answer).
    fn advance(&self) {
        let n = self.targets.len();
        if n <= 1 {
            return;
        }
        let idx = self.current.load(Ordering::Relaxed) % n;
        let _ =
            self.current
                .compare_exchange(idx, (idx + 1) % n, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// [`ServeClient::call`] with retry on `overloaded` answers and
    /// redirect-on-fence: jittered exponential back-off (salted by the
    /// request id), the server's `retry_after_ms` hint honored as a
    /// floor, attempts bounded by the policy. A `not-primary` or
    /// `fenced` answer advances the replica cursor and retries — this is
    /// how a client survives a failover. Every other answer — success
    /// *or* error — returns immediately; exhaustion is the typed
    /// [`ClientError::GaveUp`] carrying the last overload hint and the
    /// last fence term chased.
    pub fn call_with_retry(
        &self,
        req: WireRequest,
        retry: &RetryConfig,
    ) -> Result<WireResponse, ClientError> {
        let salt = req.id;
        let attempts = retry.attempts();
        let mut last_hint = None;
        let mut last_fence = None;
        for attempt in 1..=attempts {
            let backoff_hint = match self.call(req.clone()) {
                Ok(resp) => match &resp.kind {
                    ResponseKind::Error {
                        code,
                        retry_after_ms,
                        ..
                    } if code == "overloaded" => {
                        last_hint = (*retry_after_ms).or(last_hint);
                        *retry_after_ms
                    }
                    ResponseKind::Error { code, .. }
                        if code == "not-primary" || code == "fenced" =>
                    {
                        last_fence = resp.term.or(last_fence);
                        self.advance();
                        None
                    }
                    _ => return Ok(resp),
                },
                // With one target a dead server is final; with a fleet
                // the sweep may have raced a promotion — back off and
                // sweep again.
                Err(ClientError::Disconnected) if self.targets.len() > 1 => None,
                Err(e) => return Err(e),
            };
            if attempt < attempts {
                thread::sleep(Duration::from_millis(retry.backoff_ms(
                    attempt,
                    backoff_hint,
                    salt,
                )));
            }
        }
        Err(ClientError::GaveUp {
            attempts,
            last_retry_after_ms: last_hint,
            last_fence_term: last_fence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::service::tests::{fp, knee_curves, req};
    use crate::ServeConfig;

    #[test]
    fn call_with_retry_gives_up_typed_on_persistent_overload() {
        // A minimal fake worker that sheds every request: the retry loop's
        // behaviour is then exact — one wire call per attempt, back-off
        // between them, a typed give-up carrying the last hint.
        let (tx, rx) = mpsc::channel::<WorkItem>();
        let client = ServeClient {
            targets: vec![tx],
            current: Arc::new(AtomicUsize::new(0)),
            max_term: Arc::new(AtomicU64::new(0)),
        };
        let worker = thread::spawn(move || {
            let mut calls = 0u32;
            while let Ok(WorkItem::Client((req, _, reply))) = rx.recv() {
                calls += 1;
                let _ = reply.send(WireResponse {
                    id: req.id,
                    tick: 0,
                    term: None,
                    kind: ResponseKind::overloaded("always shed", 1),
                });
            }
            calls
        });
        let retry = RetryConfig {
            max_attempts: 3,
            base_backoff_ms: 1,
            max_backoff_ms: 2,
            jitter_frac: 0.0,
            seed: 1,
        };
        let err = client
            .call_with_retry(WireRequest::new(9, RequestKind::Stats), &retry)
            .unwrap_err();
        assert_eq!(
            err,
            ClientError::GaveUp {
                attempts: 3,
                last_retry_after_ms: Some(1),
                last_fence_term: None,
            }
        );
        drop(client);
        assert_eq!(worker.join().unwrap(), 3, "one wire call per attempt");
    }

    #[test]
    fn threaded_server_serves_and_drains_on_shutdown() {
        let server = Server::spawn(DecisionService::new(ServeConfig::default()));
        let client = server.client();
        let opened = client
            .call(req(
                1,
                RequestKind::Open {
                    session: 1,
                    cores: 8,
                },
            ))
            .expect("server alive");
        assert!(matches!(opened.kind, ResponseKind::Opened { .. }));

        let curves = knee_curves(8, 1);
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let c = server.client();
                let curves = curves.clone();
                thread::spawn(move || {
                    c.call(req(100 + w, RequestKind::Snapshot { session: 1, curves }))
                        .expect("server alive")
                })
            })
            .collect();
        let decisions: Vec<WireResponse> = workers.into_iter().map(|h| h.join().unwrap()).collect();
        let fps: Vec<Option<u64>> = decisions.iter().map(fp).collect();
        assert!(fps.iter().all(|f| f.is_some() && *f == fps[0]), "{fps:?}");

        let bye = client
            .call(req(999, RequestKind::Shutdown))
            .expect("shutdown answered");
        assert!(matches!(bye.kind, ResponseKind::Bye { .. }));
        let service = server.join();
        assert_eq!(service.num_sessions(), 1);
        assert_eq!(
            client.call(req(1000, RequestKind::Stats)).unwrap_err(),
            ClientError::Disconnected,
            "server is gone"
        );
    }
}
