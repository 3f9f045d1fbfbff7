//! The stdio transport of `bap serve` (tier 1), driven in memory through
//! `net::serve_stdio` — the same function the binary runs over
//! stdin/stdout.
//!
//! * a blank line flushes exactly one tick, answered in request order
//!   with one flush; EOF flushes whatever is pending;
//! * with overload regulation on, a shed answer keeps its slot and
//!   carries a `retry_after_ms` hint;
//! * malformed lines and `Profile` requests are answered at once, outside
//!   any tick, in the same envelope (tick 0, no term) as over TCP;
//! * `Shutdown` ends the loop after its tick;
//! * the answers equal the serial ground truth of `process_batch`;
//! * the binary refuses `--replication on` without `--listen`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::Arc;

use bankaware::partitioning::net::{self, ProfileFn};
use bankaware::partitioning::{DecisionService, ServeConfig};
use bankaware::trace::wire::{
    encode_request, parse_response_line, RequestKind, ResponseKind, WireCurve, WireRequest,
    WireResponse,
};
use bankaware::types::{OverloadConfig, ReplicationConfig};

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

fn line(id: u64, kind: RequestKind) -> String {
    encode_request(&WireRequest::new(id, kind))
}

fn open(id: u64, session: u64) -> String {
    line(id, RequestKind::Open { session, cores: 8 })
}

fn snapshot(id: u64, session: u64, seed: u64) -> String {
    line(
        id,
        RequestKind::Snapshot {
            session,
            curves: knee_curves(8, seed),
        },
    )
}

fn profile_line(id: u64) -> String {
    line(
        id,
        RequestKind::Profile {
            workloads: vec!["art".to_string()],
            instructions: 1,
            seed: 1,
        },
    )
}

/// A `Profile` resolver standing in for the workload catalog.
fn stub_profile(workloads: &[String], _instructions: u64, _seed: u64) -> ResponseKind {
    ResponseKind::Profiled {
        curves: workloads
            .iter()
            .map(|_| WireCurve {
                accesses: 4.0,
                misses: vec![4.0, 1.0],
            })
            .collect(),
    }
}

/// An in-memory stdout that counts its flushes.
#[derive(Default)]
struct Recorder {
    bytes: Vec<u8>,
    flushes: usize,
}

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes += 1;
        Ok(())
    }
}

/// Run the stdio loop over `lines`; returns the decoded answers in output
/// order, the flush count, and the service it handed back.
fn run(cfg: ServeConfig, lines: &[String]) -> (Vec<WireResponse>, usize, DecisionService) {
    let input = lines.join("\n");
    let mut out = Recorder::default();
    let service = net::serve_stdio(
        DecisionService::new(cfg),
        input.as_bytes(),
        &mut out,
        &stub_profile,
    )
    .expect("in-memory I/O cannot fail");
    let answers = String::from_utf8(out.bytes)
        .expect("JSONL is UTF-8")
        .lines()
        .map(|l| parse_response_line(l).expect("every answer decodes"))
        .collect();
    (answers, out.flushes, service)
}

fn ids(answers: &[WireResponse]) -> Vec<u64> {
    answers.iter().map(|r| r.id).collect()
}

#[test]
fn a_blank_line_flushes_one_tick_in_request_order() {
    let lines = vec![
        open(5, 1),
        snapshot(9, 1, 3),
        line(2, RequestKind::Stats),
        String::new(),
        line(7, RequestKind::Plan { session: 1 }),
    ];
    let (answers, flushes, service) = run(ServeConfig::default(), &lines);
    // Request order, not id order; the last request rides the EOF flush.
    assert_eq!(ids(&answers), vec![5, 9, 2, 7]);
    let ticks: Vec<u64> = answers.iter().map(|r| r.tick).collect();
    assert_eq!(ticks, vec![1, 1, 1, 2], "one tick per flush");
    assert!(matches!(answers[1].kind, ResponseKind::Decision { .. }));
    assert!(matches!(
        answers[2].kind,
        ResponseKind::Stats {
            ticks: 1,
            requests: 3,
            ..
        }
    ));
    assert_eq!(flushes, 2, "one flush per tick");
    assert_eq!(service.ticks(), 2);
}

#[test]
fn a_shed_keeps_its_slot_and_carries_a_retry_hint() {
    let cfg = ServeConfig {
        overload: Some(OverloadConfig {
            max_queue_depth: 1,
            ..OverloadConfig::default()
        }),
        ..ServeConfig::default()
    };
    let lines = vec![open(1, 1), line(2, RequestKind::Stats), open(3, 2)];
    let (answers, flushes, service) = run(cfg, &lines);
    assert_eq!(ids(&answers), vec![1, 2, 3]);
    assert!(matches!(answers[0].kind, ResponseKind::Opened { .. }));
    for shed in &answers[1..] {
        assert_eq!(shed.kind.error_code(), Some("overloaded"));
        assert_eq!(shed.tick, 0, "a shed never reaches the service");
        match shed.kind {
            ResponseKind::Error {
                retry_after_ms: Some(hint),
                ..
            } => assert!(hint >= 1),
            ref other => panic!("shed without a hint: {other:?}"),
        }
    }
    assert_eq!(flushes, 1);
    assert_eq!(service.num_sessions(), 1);
}

#[test]
fn malformed_lines_answer_at_once_and_the_loop_keeps_serving() {
    let lines = vec![
        open(1, 1),
        "{not json".to_string(),
        line(2, RequestKind::Stats),
    ];
    let (answers, flushes, service) = run(ServeConfig::default(), &lines);
    // The parse error is answered before the pending tick's answers.
    assert_eq!(ids(&answers), vec![0, 1, 2]);
    assert_eq!(answers[0].kind.error_code(), Some("malformed"));
    assert!(matches!(answers[1].kind, ResponseKind::Opened { .. }));
    assert_eq!(flushes, 2, "the error flushes on its own, then the tick");
    assert_eq!(service.num_sessions(), 1);
}

#[test]
fn profile_is_answered_without_a_tick() {
    let lines = vec![open(1, 1), profile_line(2), String::new()];
    let (answers, _, service) = run(ServeConfig::default(), &lines);
    assert_eq!(ids(&answers), vec![2, 1]);
    assert!(matches!(answers[0].kind, ResponseKind::Profiled { .. }));
    assert_eq!(answers[0].tick, 0);
    assert_eq!(service.ticks(), 1, "only the Open formed a tick");
}

#[test]
fn shutdown_ends_the_loop_after_its_tick() {
    let lines = vec![
        open(1, 1),
        line(2, RequestKind::Shutdown),
        String::new(),
        open(3, 2),
        String::new(),
    ];
    let (answers, _, service) = run(ServeConfig::default(), &lines);
    assert_eq!(ids(&answers), vec![1, 2]);
    assert!(matches!(answers[1].kind, ResponseKind::Bye { drained: 1 }));
    assert_eq!(service.num_sessions(), 1, "nothing after the Shutdown ran");
}

#[test]
fn eof_flushes_a_pending_batch() {
    let (answers, flushes, service) = run(ServeConfig::default(), &[open(1, 1)]);
    assert_eq!(ids(&answers), vec![1]);
    assert_eq!(flushes, 1);
    assert_eq!(service.ticks(), 1);
}

#[test]
fn stdio_answers_match_the_serial_ground_truth() {
    // Three sessions, interleaved snapshots and what-ifs, then plan reads,
    // cut into ticks of uneven length. (A query observes its tick's
    // post-decision state, so the reads come after the last decision, as
    // in `tests/serve.rs`.)
    let mut reqs = Vec::new();
    let mut id = 0;
    let mut next = |kind: RequestKind| {
        id += 1;
        WireRequest::new(id, kind)
    };
    for session in 1..=3 {
        reqs.push(next(RequestKind::Open { session, cores: 8 }));
    }
    for round in 0..4u64 {
        for session in 1..=3 {
            reqs.push(next(RequestKind::Snapshot {
                session,
                curves: knee_curves(8, round * 7 + session),
            }));
        }
        reqs.push(next(RequestKind::Evaluate {
            session: 1 + round % 3,
            curves: knee_curves(8, 100 + round),
        }));
    }
    for session in 1..=3 {
        reqs.push(next(RequestKind::Plan { session }));
    }

    let mut truth = DecisionService::new(ServeConfig::default());
    let mut expect = BTreeMap::new();
    for r in &reqs {
        for resp in truth.process_batch(std::slice::from_ref(r)) {
            expect.insert(resp.id, resp.kind);
        }
    }

    let mut lines = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        lines.push(encode_request(r));
        if i % 5 == 3 {
            lines.push(String::new());
        }
    }
    let (answers, _, _) = run(ServeConfig::default(), &lines);
    let got: BTreeMap<u64, ResponseKind> = answers.into_iter().map(|r| (r.id, r.kind)).collect();
    assert_eq!(got, expect);
}

/// Front-end answers carry one envelope on every transport: tick 0 and no
/// term, even on a replicating primary that stamps a term on everything
/// its service answers.
#[test]
fn front_end_answers_share_one_envelope_across_transports() {
    let cfg = || ServeConfig {
        replication: Some(ReplicationConfig::default()),
        ..ServeConfig::default()
    };
    let probes = [profile_line(7), "{not json".to_string()];

    // A tick first, so the service has a non-zero tick to leak.
    let input = [open(6, 1), String::new()]
        .iter()
        .chain(&probes)
        .cloned()
        .collect::<Vec<_>>()
        .join("\n");
    let mut out = Vec::new();
    net::serve_stdio(
        DecisionService::new(cfg()),
        input.as_bytes(),
        &mut out,
        &stub_profile,
    )
    .expect("in-memory I/O cannot fail");
    let stdio: Vec<String> = String::from_utf8(out)
        .unwrap()
        .lines()
        .skip(1) // the Open's answer
        .map(str::to_string)
        .collect();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let profile: Arc<ProfileFn> = Arc::new(stub_profile);
    let server = std::thread::spawn(move || {
        net::serve_tcp(DecisionService::new(cfg()), listener, profile, None)
    });
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    let mut ask = |l: &str| {
        writeln!(writer, "{l}").expect("write");
        writer.flush().expect("flush");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read");
        resp.trim_end().to_string()
    };
    ask(&open(6, 1));
    let tcp: Vec<String> = probes.iter().map(|l| ask(l)).collect();
    let bye = ask(&line(8, RequestKind::Shutdown));
    assert!(
        bye.contains("\"term\":1"),
        "the service stamps its term: {bye}"
    );
    server.join().expect("accept loop exits cleanly");

    assert_eq!(stdio, tcp, "front-end answers depend on the transport");
    for l in &stdio {
        let resp = parse_response_line(l).expect("decodes");
        assert_eq!((resp.tick, resp.term), (0, None), "{l}");
    }
}

#[test]
fn replication_without_listen_is_refused() {
    for flags in [
        &["--replication", "on"][..],
        &["--replica-of", "127.0.0.1:9"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bap"))
            .arg("serve")
            .args(flags)
            .stdin(Stdio::null())
            .output()
            .expect("run bap");
        assert_eq!(out.status.code(), Some(2), "bap serve {flags:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("needs --listen"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing was served");
    }
}
