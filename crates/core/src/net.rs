//! The transports of `bap serve`: the stdio loop, and the TCP front end
//! (one connection per client thread, all feeding the shared batched
//! [`Server`]) with the socket transport of the replication protocol.
//!
//! Both transports run the same tick step (`serve::run_tick`), and
//! answer parse errors and `Profile` requests in one envelope (tick 0,
//! no term).
//!
//! Two properties the TCP front end owns:
//!
//! * **Panic isolation** — a panic anywhere in a connection handler
//!   (a poisoned parser, a panicking `Profile` resolver) kills that one
//!   connection, emits a typed [`EventKind::ConnectionFailed`] event,
//!   and leaves the accept loop serving everyone else. A remote peer
//!   must never be able to take the listener down.
//! * **The replication bridge** — a [`RequestKind::ReplSubscribe`] turns
//!   its connection into a log stream: the handler attaches a sink to
//!   the worker, writes the anchor as a [`ResponseKind::ReplSnapshot`]
//!   and every entry as a [`ResponseKind::ReplEntry`], and relays the
//!   follower's [`RequestKind::ReplAck`] lines back as sink acks — the
//!   same ack-before-answer contract as the in-process transport, over
//!   a socket. [`spawn_replica_link`] is the follower half: subscribe,
//!   feed the local worker, ack, and (optionally) promote itself when
//!   the primary's stream dies.

use crate::replication::ReplItem;
use crate::serve::{run_tick, DecisionService, ServeClient, Server};
use bap_trace::wire::{
    encode_request, encode_response, from_hex, parse_request_line, parse_response_line, to_hex,
    RequestKind, ResponseKind, WireError, WireRequest, WireResponse,
};
use bap_trace::{EventKind, Tracer};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How a front end resolves `Profile` requests (they need the workload
/// catalog, which lives above `bap-core`). The service's TCP tests pass
/// a stub; `src/bin/bap.rs` passes the real catalog profiler.
pub type ProfileFn = dyn Fn(&[String], u64, u64) -> ResponseKind + Send + Sync;

/// A `Profile` resolver for front ends without a workload catalog.
pub fn no_profile(_workloads: &[String], _instructions: u64, _seed: u64) -> ResponseKind {
    ResponseKind::error(
        "unsupported",
        "profile requests need the workload catalog; use the bap front end",
    )
}

/// One input line, as a front end sees it.
enum Inbound {
    /// A blank line: the stdio batch delimiter (ignored on TCP).
    Blank,
    /// A request for the service.
    Request(WireRequest),
    /// A line the front end answers itself: a parse error, or a
    /// `Profile` request resolved against the workload catalog.
    Answered(WireResponse),
}

/// Classify one line (newline already stripped). Front-end answers share
/// one envelope on every transport — tick 0, no term — because neither
/// case reaches the service.
fn inbound(line: &str, profile: &ProfileFn) -> Inbound {
    match parse_request_line(line) {
        Err(WireError::EmptyLine) => Inbound::Blank,
        Err(err) => Inbound::Answered(err.to_response()),
        Ok(WireRequest {
            id,
            kind:
                RequestKind::Profile {
                    workloads,
                    instructions,
                    seed,
                },
            ..
        }) => Inbound::Answered(WireResponse {
            id,
            tick: 0,
            term: None,
            kind: profile(&workloads, instructions, seed),
        }),
        Ok(req) => Inbound::Request(req),
    }
}

/// Serve the JSONL protocol over a line stream — `bap serve`'s stdio
/// transport. One request per line; a blank line (or EOF) flushes the
/// pending requests as one epoch tick, answered in request order with
/// one flush (with overload regulation on, sheds keep their slot). Parse
/// errors and `Profile` requests are answered at once, and a served
/// `Shutdown` ends the loop after its tick. Runs synchronously on the
/// caller's thread: no worker, no channel. Returns the service when the
/// input ends or shuts down.
pub fn serve_stdio(
    mut service: DecisionService,
    input: impl BufRead,
    mut output: impl Write,
    profile: &ProfileFn,
) -> io::Result<DecisionService> {
    let mut governor = service.governor();
    let mut lines = input.lines();
    // The reply token is the request's output slot.
    let mut sweep: Vec<(WireRequest, Instant, usize)> = Vec::new();
    loop {
        let eof = match lines.next().transpose()? {
            None => true,
            Some(line) => match inbound(&line, profile) {
                Inbound::Blank => false,
                Inbound::Request(req) => {
                    sweep.push((req, Instant::now(), sweep.len()));
                    continue;
                }
                Inbound::Answered(resp) => {
                    writeln!(output, "{}", encode_response(&resp))?;
                    output.flush()?;
                    continue;
                }
            },
        };
        let stop = eof
            || sweep
                .iter()
                .any(|(req, ..)| matches!(req.kind, RequestKind::Shutdown));
        if !sweep.is_empty() {
            let mut answers: Vec<Option<WireResponse>> = vec![None; sweep.len()];
            // No follower can subscribe without a listener: the tick's
            // log entry has nowhere to ship.
            let tick = run_tick(
                &mut service,
                governor.as_mut(),
                std::mem::take(&mut sweep),
                Instant::now(),
                |slot, resp| answers[slot] = Some(resp),
            );
            for (slot, resp) in tick.answers {
                answers[slot] = Some(resp);
            }
            for resp in answers.into_iter().flatten() {
                writeln!(output, "{}", encode_response(&resp))?;
            }
            output.flush()?;
        }
        if stop {
            return Ok(service);
        }
    }
}

/// Serve the JSONL protocol on `listener` until a `Shutdown` is served
/// (or the listener breaks), then join the worker and hand the service
/// back. Each connection gets its own thread and its own panic
/// boundary; the replication stream rides the same listener via
/// `ReplSubscribe`. A follower passes `replica_of = Some((primary_addr,
/// promote_on_loss))` to subscribe itself to a primary while serving
/// its own clients (reads, and writes once promoted).
pub fn serve_tcp(
    service: DecisionService,
    listener: TcpListener,
    profile: Arc<ProfileFn>,
    replica_of: Option<(String, bool)>,
) -> DecisionService {
    let local = listener.local_addr().expect("bound socket has an address");
    let tracer = service.tracer().clone();
    let server = Server::spawn(service);
    if let Some((primary, promote_on_loss)) = replica_of {
        spawn_replica_link(&server, primary, promote_on_loss, tracer.clone());
    }
    let stop = Arc::new(AtomicBool::new(false));

    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                let detail = format!("accept failed: {e}");
                tracer.emit(|| EventKind::ConnectionFailed { detail });
                continue;
            }
        };
        let client = server.client();
        let profile = Arc::clone(&profile);
        let stop = Arc::clone(&stop);
        let tracer = tracer.clone();
        thread::spawn(move || {
            // The panic boundary: whatever a connection handler does to
            // itself, the listener keeps accepting. The typed event is
            // the operator's signal that a peer (or a handler bug) blew
            // a connection up.
            let caught = catch_unwind(AssertUnwindSafe(|| {
                handle_connection(stream, client, profile.as_ref(), &stop, local);
            }));
            if let Err(payload) = caught {
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                let detail = format!("connection handler panicked: {what}");
                tracer.emit(|| EventKind::ConnectionFailed { detail });
            }
        });
    }
    server.join()
}

/// One connection's request/response loop. Returns when the peer hangs
/// up, the worker is gone, a `Bye` was written, or the connection
/// switched into (and finished) replication streaming.
fn handle_connection(
    stream: TcpStream,
    client: ServeClient,
    profile: &ProfileFn,
    stop: &AtomicBool,
    local: SocketAddr,
) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break, // EOF — possibly mid-frame; nothing to answer
            Ok(_) => {}
            Err(_) => break,
        }
        let resp = match inbound(line.trim_end_matches(['\r', '\n']), profile) {
            Inbound::Blank => continue,
            Inbound::Answered(resp) => resp,
            Inbound::Request(req) if matches!(req.kind, RequestKind::ReplSubscribe { .. }) => {
                // This connection is now a replication stream; it never
                // goes back to request/response.
                stream_log(&client, req.id, &mut reader, &mut writer);
                break;
            }
            Inbound::Request(req) => match client.call(req) {
                Ok(resp) => resp,
                Err(_) => break, // worker gone; connection done
            },
        };
        let bye = matches!(resp.kind, ResponseKind::Bye { .. });
        if writeln!(writer, "{}", encode_response(&resp)).is_err() || writer.flush().is_err() {
            break;
        }
        if bye {
            stop.store(true, Ordering::SeqCst);
            // Poke the accept loop so it notices the flag.
            let _ = TcpStream::connect(local);
            break;
        }
    }
}

/// The primary half of the replication bridge: pull items from a fresh
/// worker subscription, write each as a wire frame, and relay the
/// follower's `ReplAck` line back as the sink ack the shipper is
/// blocked on. Any stall or garbage drops the ack on the floor — the
/// shipper's timeout then drops this follower, which is the protocol's
/// one failure mode.
fn stream_log(
    client: &ServeClient,
    subscribe_id: u64,
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
) {
    let rx = client.subscribe();
    let mut line = String::new();
    while let Ok(item) = rx.recv() {
        let (kind, ack, tick) = match item {
            ReplItem::Snapshot {
                state,
                tick,
                term,
                ack,
            } => (
                ResponseKind::ReplSnapshot {
                    tick,
                    term,
                    state: to_hex(&state),
                },
                ack,
                tick,
            ),
            ReplItem::Entry { entry, ack } => {
                let tick = entry.tick;
                (ResponseKind::ReplEntry { entry }, ack, tick)
            }
        };
        let frame = WireResponse {
            id: subscribe_id,
            tick,
            term: None,
            kind,
        };
        if writeln!(writer, "{}", encode_response(&frame)).is_err() || writer.flush().is_err() {
            return;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => return,
        }
        match parse_request_line(line.trim_end_matches(['\r', '\n'])) {
            Ok(WireRequest {
                kind: RequestKind::ReplAck { tick },
                ..
            }) => {
                let _ = ack.send(tick);
            }
            _ => return, // anything but an ack breaks the stream
        }
    }
}

/// The follower half of the replication bridge: connect to the primary,
/// subscribe, and feed every shipped frame into the local worker —
/// acking each applied item back over the socket. When the stream dies
/// (primary killed, network gone) and `promote_on_loss` is set, the
/// follower promotes itself and starts accepting mutations under the
/// bumped term. Returns the link thread's handle; it exits when the
/// stream ends.
pub fn spawn_replica_link(
    server: &Server,
    primary: String,
    promote_on_loss: bool,
    tracer: Tracer,
) -> thread::JoinHandle<()> {
    let sink = server.repl_sink();
    let client = server.client();
    thread::Builder::new()
        .name("bap-replica-link".to_string())
        .spawn(move || {
            if let Err(detail) = run_replica_link(&sink, &primary) {
                tracer.emit(|| EventKind::ConnectionFailed { detail });
            }
            if promote_on_loss {
                // The stream is gone: claim the fleet. The service
                // itself refuses this if its replay ever diverged.
                let _ = client.call(WireRequest::new(u64::MAX, RequestKind::Promote));
            }
        })
        .expect("spawn replica link thread")
}

/// Drive one subscription until the stream ends. `Ok(())` is a clean
/// EOF (the primary closed); `Err` carries what broke.
fn run_replica_link(sink: &mpsc::Sender<ReplItem>, primary: &str) -> Result<(), String> {
    // The primary may still be binding when the follower starts; retry
    // the dial briefly rather than demanding ordered process startup.
    let mut stream = None;
    for _ in 0..50 {
        match TcpStream::connect(primary) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => thread::sleep(Duration::from_millis(100)),
        }
    }
    let stream = stream.ok_or_else(|| format!("cannot reach primary at {primary}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    let subscribe = WireRequest::new(1, RequestKind::ReplSubscribe { after_tick: 0 });
    writeln!(writer, "{}", encode_request(&subscribe)).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;

    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // clean EOF: the primary is gone
            Ok(_) => {}
            Err(e) => return Err(format!("replication stream read failed: {e}")),
        }
        let frame = parse_response_line(line.trim_end_matches(['\r', '\n']))
            .map_err(|e| format!("bad replication frame: {e}"))?;
        let (item, ack_rx) = match frame.kind {
            ResponseKind::ReplSnapshot { tick, term, state } => {
                let bytes = from_hex(&state)
                    .ok_or_else(|| "replication snapshot is not valid hex".to_string())?;
                let (ack_tx, ack_rx) = mpsc::channel();
                (
                    ReplItem::Snapshot {
                        state: bytes,
                        tick,
                        term,
                        ack: ack_tx,
                    },
                    ack_rx,
                )
            }
            ResponseKind::ReplEntry { entry } => {
                let (ack_tx, ack_rx) = mpsc::channel();
                (ReplItem::Entry { entry, ack: ack_tx }, ack_rx)
            }
            other => return Err(format!("unexpected frame on replication stream: {other:?}")),
        };
        sink.send(item)
            .map_err(|_| "local worker is gone".to_string())?;
        let tick = ack_rx
            .recv()
            .map_err(|_| "local worker refused the shipped item".to_string())?;
        let ack = WireRequest::new(1, RequestKind::ReplAck { tick });
        writeln!(writer, "{}", encode_request(&ack)).map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServeConfig;
    use bap_trace::{NoopSink, Tracer};

    fn spawn_server(panicking_profile: bool) -> (SocketAddr, thread::JoinHandle<DecisionService>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let cfg = ServeConfig {
            tracer: Tracer::new(Box::new(NoopSink)),
            ..ServeConfig::default()
        };
        let service = DecisionService::new(cfg);
        let profile: Arc<ProfileFn> = if panicking_profile {
            Arc::new(|_: &[String], _, _| panic!("injected profile panic"))
        } else {
            Arc::new(no_profile)
        };
        let handle = thread::spawn(move || serve_tcp(service, listener, profile, None));
        (addr, handle)
    }

    fn send_lines(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = BufWriter::new(stream);
        let mut out = Vec::new();
        for l in lines {
            writeln!(writer, "{l}").expect("write");
            writer.flush().expect("flush");
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("read");
            out.push(resp.trim_end().to_string());
        }
        out
    }

    #[test]
    fn garbage_and_hangups_do_not_kill_the_listener() {
        let (addr, handle) = spawn_server(false);

        // Connection 1: pure garbage gets a typed parse error back.
        let out = send_lines(addr, &["{not json"]);
        assert!(out[0].contains("\"code\":\"malformed\""), "{out:?}");

        // Connection 2: hang up mid-frame (no newline, then drop).
        {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut w = BufWriter::new(stream);
            w.write_all(b"{\"id\":1,\"kind\":\"op").expect("write half");
            w.flush().expect("flush");
            // drop: the handler sees EOF mid-frame and just closes
        }

        // Connection 3: still serving, full lifecycle works.
        let out = send_lines(
            addr,
            &[
                r#"{"id":1,"kind":{"Open":{"session":1,"cores":8}}}"#,
                r#"{"id":2,"kind":"Shutdown"}"#,
            ],
        );
        assert!(out[0].contains("\"Opened\""), "{out:?}");
        assert!(out[1].contains("\"Bye\""), "{out:?}");
        let service = handle.join().expect("accept loop exits cleanly");
        assert_eq!(service.num_sessions(), 1);
    }

    #[test]
    fn panicking_handler_loses_its_connection_not_the_listener() {
        let (addr, handle) = spawn_server(true);

        // The profile resolver panics; the connection dies without a
        // response, but the accept loop must keep serving.
        {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = BufWriter::new(stream);
            writeln!(
                writer,
                r#"{{"id":1,"kind":{{"Profile":{{"workloads":["art"],"instructions":1,"seed":1}}}}}}"#
            )
            .expect("write");
            writer.flush().expect("flush");
            let mut resp = String::new();
            let n = reader.read_line(&mut resp).expect("read to EOF");
            assert_eq!(n, 0, "panicked handler answers nothing, got {resp:?}");
        }

        let out = send_lines(
            addr,
            &[
                r#"{"id":2,"kind":"Stats"}"#,
                r#"{"id":3,"kind":"Shutdown"}"#,
            ],
        );
        assert!(out[0].contains("\"Stats\""), "{out:?}");
        let service = handle.join().expect("accept loop exits cleanly");
        let summary = service.tracer().summary().expect("counting tracer");
        assert_eq!(
            summary.connection_failures, 1,
            "the panic was reported as a typed event"
        );
    }
}
