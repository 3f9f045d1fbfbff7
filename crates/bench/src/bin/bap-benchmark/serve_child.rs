//! The two workloads that drive a child `bap serve` through a real
//! transport: `serve-tcp` (two closed-loop connections) and
//! `serve-stdio-batch` (16-request ticks on stdin/stdout).

use crate::check::Checks;
use crate::gen::{checkpoint_line, Line, Sent, SessionStream, What, DRIFT_ROUNDS};
use crate::layers::{self, LiveStats, REPLAY_REQUESTS};
use crate::procfs::Proc;
use crate::report::{self, metric, Metric, Outcome};
use crate::spans::Spans;
use crate::stats::{self, median};
use crate::Opts;
use bap_core::ServeConfig;
use bap_trace::wire::{parse_response_line, RequestKind, WireRequest, WireResponse};
use bap_types::OverloadConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Set-up is measured this many times per run (fresh server each time);
/// the run reports the median and keeps the last server.
pub const SETUP_REPEATS: usize = 21;

/// Untimed load before the measured window.
pub const WARMUP: Duration = Duration::from_secs(2);

/// serve-tcp: connections (one session each), cores per session, curve
/// phases, and how often a round adds a what-if `Evaluate`.
const TCP_CONNECTIONS: usize = 2;
const TCP_CORES: usize = 32;
const TCP_PHASES: usize = 64;
const TCP_EVALUATE_EVERY: u64 = 16;

/// serve-stdio-batch: sessions, cores, curve phases, and how often a tick
/// carries a `Checkpoint`.
const STDIO_SESSIONS: usize = 8;
const STDIO_CORES: usize = 32;
const STDIO_PHASES: usize = 32;
const STDIO_CHECKPOINT_EVERY: u64 = 64;

/// The budget `serve-stdio-batch` runs the overload gate under: generous
/// enough that the brownout ladder never arms on this load.
const STDIO_TICK_BUDGET_MS: u64 = 1000;

/// Ids of the Stats/Shutdown control requests (above every workload id).
const STATS_ID: u64 = u64::MAX - 1;
const SHUTDOWN_ID: u64 = u64::MAX;

/// `bap`, built next to this executable.
fn bap_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    let bap = exe.with_file_name("bap");
    assert!(
        bap.exists(),
        "{} not found: build it with `cargo build --release -p bankaware --bin bap`",
        bap.display()
    );
    bap
}

/// A child `bap serve`; dropping it kills and reaps the process.
struct BapProcess {
    child: Child,
    drain: Option<thread::JoinHandle<()>>,
}

impl BapProcess {
    fn pid(&self) -> Proc {
        Proc::Pid(self.child.id())
    }

    /// Wait for the exit a served `Shutdown` (or closed stdin) causes.
    fn finish(mut self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) | Err(_) => return,
                Ok(None) => thread::sleep(Duration::from_millis(2)),
            }
        }
        panic!("bap serve did not exit after its shutdown");
    }
}

impl Drop for BapProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

fn parse_answer(line: &str) -> Result<WireResponse, String> {
    parse_response_line(line.trim_end()).map_err(|e| format!("garbled answer: {e}"))
}

/// CPU seconds of the server child and of this process at one instant.
fn cpu_pair(server: Proc) -> (f64, f64) {
    (
        server.cpu_s().unwrap_or(0.0),
        Proc::Current.cpu_s().unwrap_or(0.0),
    )
}

/// What the client saw in the measured window, and the CPU both sides
/// spent in it.
struct Window {
    rtt_us: Vec<f64>,
    /// When decisions were answered, and how many.
    decided: Vec<(Instant, u64)>,
    start: Instant,
    seconds: u64,
    server_cpu_s: f64,
    client_cpu_s: f64,
}

impl Window {
    fn decisions(&self) -> u64 {
        self.decided.iter().map(|(_, n)| n).sum()
    }

    /// `process.*` and `pool.*`, from the window's CPU probes.
    fn cpu_metrics(&self) -> Vec<Metric> {
        vec![
            metric(
                "process.cpu_ms_per_decision",
                (self.server_cpu_s + self.client_cpu_s) * 1e3 / self.decisions().max(1) as f64,
                "ms",
            ),
            metric(
                "pool.cpu_util",
                self.server_cpu_s / self.seconds as f64,
                "ratio",
            ),
        ]
    }
}

/// The end-to-end metrics, with the sample count and client CPU share.
fn end_to_end(
    window: &Window,
    setups: &[f64],
    peak_rss_mb: f64,
    checks: &mut Checks,
) -> (Vec<Metric>, Vec<Metric>) {
    let lat = checks.latency(&window.rtt_us);
    let rate = stats::median_rate(&window.decided, window.start, window.seconds);
    let (e2e, samples) = report::end_to_end(rate, &lat, setups, peak_rss_mb);
    let total_cpu = window.server_cpu_s + window.client_cpu_s;
    let share = window.client_cpu_s / total_cpu.max(1e-9);
    (
        e2e,
        vec![samples, metric("process.client_cpu_share", share, "ratio")],
    )
}

// ---- serve-tcp ----------------------------------------------------------

/// One client connection: the pre-stamped line goes out in one write, the
/// answer comes back as one line.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> Conn {
        let writer = TcpStream::connect(addr).expect("connect to bap serve");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone socket"));
        Conn { reader, writer }
    }

    fn round_trip(&mut self, line: &[u8], answer: &mut String) {
        self.writer.write_all(line).expect("send a request line");
        answer.clear();
        let n = self.reader.read_line(answer).expect("read an answer line");
        assert!(n > 0, "bap serve closed the connection");
    }

    fn call(&mut self, line: &Line, id: u64) -> String {
        let mut buf = Vec::new();
        line.stamp(id, &mut buf);
        let mut answer = String::new();
        self.round_trip(&buf, &mut answer);
        answer
    }
}

/// Start `bap serve --listen` and open the first session: the set-up time
/// runs from spawn until that `Open` is answered.
fn start_tcp(open: &Line, id: u64) -> (BapProcess, Conn, f64, String) {
    let start = Instant::now();
    let mut child = Command::new(bap_binary())
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bap serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let (tx, rx) = mpsc::channel();
    // Reads the listening address, then keeps draining so the server
    // never blocks on a full stderr pipe.
    let drain = thread::spawn(move || {
        let mut tx = Some(tx);
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if let Some(addr) = line.strip_prefix("bap serve listening on ") {
                if let Some(tx) = tx.take() {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        }
    });
    let process = BapProcess {
        child,
        drain: Some(drain),
    };
    let addr = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("bap serve reports its listening address");
    let mut conn = Conn::connect(&addr);
    let answer = conn.call(open, id);
    let setup = start.elapsed().as_secs_f64();
    (process, conn, setup, answer)
}

/// Connection `c` owns the id band `(c + 1) · 10¹²`.
fn id_base(c: usize) -> u64 {
    (c as u64 + 1) * 1_000_000_000_000
}

/// What one connection thread sent and saw.
struct ConnOut {
    sent: Vec<Sent>,
    answers: Vec<String>,
    rtt_us: Vec<f64>,
    decided: Vec<(Instant, u64)>,
    spans: Spans,
}

/// The closed loop of one connection: each round sends the session's
/// snapshot (plus an evaluate every 16th round) and waits for each answer.
/// Returns the still-open connection with what it saw.
fn drive_tcp(
    c: usize,
    mut conn: Conn,
    stream: &SessionStream,
    lines: &[Line],
    window: (Instant, Instant),
    spans: Spans,
) -> (Conn, ConnOut) {
    let (start, end) = window;
    let mut out = ConnOut {
        sent: Vec::new(),
        answers: Vec::new(),
        rtt_us: Vec::new(),
        decided: Vec::new(),
        spans,
    };
    let connection_span = out.spans.reserve();
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut answer = String::new();
    let mut next_id = id_base(c) + 1;
    let mut round = 0u64;
    'rounds: loop {
        let evaluate = round % TCP_EVALUATE_EVERY == TCP_EVALUATE_EVERY - 1;
        let requests = [
            Some((stream.snapshot(round), true)),
            evaluate.then(|| (stream.evaluate(round), false)),
        ];
        for (template, decision) in requests.into_iter().flatten() {
            let sent_at = Instant::now();
            if sent_at >= end {
                break 'rounds;
            }
            let id = next_id;
            next_id += 1;
            buf.clear();
            lines[template].stamp(id, &mut buf);
            conn.round_trip(&buf, &mut answer);
            let done = Instant::now();
            out.sent.push(Sent::session(id, c, template));
            out.answers.push(std::mem::take(&mut answer));
            if sent_at >= start {
                out.rtt_us.push((done - sent_at).as_secs_f64() * 1e6);
                out.decided.push((done, u64::from(decision)));
                out.spans
                    .record("tcp.round_trip", connection_span, id, sent_at, done);
            }
        }
        round += 1;
    }
    out.spans.record_as(
        connection_span,
        "tcp.connection",
        0,
        0,
        start,
        Instant::now(),
    );
    (conn, out)
}

pub fn run_tcp(opts: &Opts) -> Outcome {
    let epoch = Instant::now();
    let streams: Vec<SessionStream> = (0..TCP_CONNECTIONS)
        .map(|c| SessionStream::new(opts.seed, c as u64 + 1, TCP_CORES, TCP_PHASES, DRIFT_ROUNDS))
        .collect();
    let lines: Vec<Vec<Line>> = streams.iter().map(SessionStream::lines).collect();
    let mut checks = Checks::default();
    let mut spans = Spans::new(epoch, opts.trace, 0);
    let mut attempted = 0u64;
    let open0 = Sent::session(id_base(0), 0, SessionStream::OPEN);

    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let (process, mut conn, setup, answer) =
            start_tcp(&lines[0][SessionStream::OPEN], open0.id);
        spans.record("tcp.setup", 0, open0.id, t0, Instant::now());
        setups.push(setup);
        attempted += 1;
        match parse_answer(&answer) {
            Ok(resp) => checks.answer(&open0, &streams, &resp),
            Err(why) => checks.fail(why),
        }
        if i + 1 < SETUP_REPEATS {
            conn.call(&Line::new(&shutdown()), SHUTDOWN_ID);
            drop(conn);
            process.finish();
        } else {
            live = Some((process, conn));
        }
    }
    let (process, conn0) = live.expect("at least one set-up");
    let mut conns = vec![conn0];
    let mut sent = vec![open0];
    let mut answers = Vec::new();
    for (c, stream_lines) in lines.iter().enumerate().skip(1) {
        let addr = conns[0].writer.peer_addr().expect("connected").to_string();
        let mut conn = Conn::connect(&addr);
        let open = Sent::session(id_base(c), c, SessionStream::OPEN);
        answers.push((open, conn.call(&stream_lines[SessionStream::OPEN], open.id)));
        sent.push(open);
        conns.push(conn);
    }

    let start = Instant::now() + WARMUP;
    let end = start + Duration::from_secs(opts.seconds);
    let server = process.pid();
    let (outs, window_cpu) = thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let (stream, lines) = (&streams[c], &lines[c]);
                let spans = Spans::new(epoch, opts.trace, c as u64 + 1);
                scope.spawn(move || drive_tcp(c, conn, stream, lines, (start, end), spans))
            })
            .collect();
        thread::sleep(start.saturating_duration_since(Instant::now()));
        let before = cpu_pair(server);
        thread::sleep(end.saturating_duration_since(Instant::now()));
        let after = cpu_pair(server);
        let outs: Vec<(Conn, ConnOut)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (outs, (after.0 - before.0, after.1 - before.1))
    });

    let mut window = Window {
        rtt_us: Vec::new(),
        decided: Vec::new(),
        start,
        seconds: opts.seconds,
        server_cpu_s: window_cpu.0,
        client_cpu_s: window_cpu.1,
    };
    let mut conns = Vec::new();
    let mut per_conn: Vec<Vec<Sent>> = Vec::new();
    for (conn, mut out) in outs {
        window.rtt_us.append(&mut out.rtt_us);
        window.decided.append(&mut out.decided);
        spans.merge(out.spans);
        answers.extend(out.sent.iter().copied().zip(out.answers));
        per_conn.push(out.sent.clone());
        sent.extend(out.sent);
        conns.push(conn);
    }
    let stats = LiveStats::of(
        &parse_answer(&conns[0].call(&Line::new(&stats_request()), STATS_ID))
            .expect("Stats answer decodes"),
    );
    let peak_rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    conns.truncate(1);
    conns[0].call(&Line::new(&shutdown()), SHUTDOWN_ID);
    drop(conns);
    process.finish();

    attempted += answers.len() as u64;
    for (s, answer) in &answers {
        match parse_answer(answer) {
            Ok(resp) => checks.answer(s, &streams, &resp),
            Err(why) => checks.fail(why),
        }
    }
    checks.against_ground_truth(&streams, &sent);

    let (e2e, mut extra) = end_to_end(&window, &setups, peak_rss_mb, &mut checks);
    let mut layers = Vec::new();
    if opts.trace {
        // The live server mostly sees one request per tick: replay the
        // opens, then the connections' requests interleaved, one a batch.
        let longest = per_conn.iter().map(Vec::len).max().unwrap_or(0);
        let interleaved =
            (0..longest).flat_map(|k| per_conn.iter().filter_map(move |s| s.get(k).copied()));
        let batches: Vec<Vec<Sent>> = sent[..TCP_CONNECTIONS]
            .iter()
            .copied()
            .chain(interleaved)
            .take(REPLAY_REQUESTS)
            .map(|s| vec![s])
            .collect();
        let replay = layers::replay(
            &ServeConfig::default(),
            &streams,
            &lines,
            &batches,
            &mut spans,
        );
        for why in replay.failures {
            checks.fail(why);
        }
        layers = replay.metrics;
        stats.apply(&mut layers, TCP_CORES / 8);
        layers.extend(window.cpu_metrics());
        // Server path of each replayed request: its decode, its batch's
        // processing, its answer's encode. The rest of the round trip is
        // socket, scheduling and client time.
        let path: Vec<f64> = replay
            .batches
            .iter()
            .flat_map(|b| {
                b.decode
                    .iter()
                    .zip(&b.encode)
                    .map(move |(d, e)| d + b.process + e)
            })
            .collect();
        let rtt_p50 = e2e[1].value;
        extra.push(metric("net.overhead_us.p50", rtt_p50 - median(&path), "us"));
    }
    Outcome {
        e2e,
        layers,
        extra,
        attempted,
        checks,
        spans,
    }
}

fn shutdown() -> WireRequest {
    WireRequest::new(0, RequestKind::Shutdown)
}

fn stats_request() -> WireRequest {
    WireRequest::new(0, RequestKind::Stats)
}

// ---- serve-stdio-batch --------------------------------------------------

/// A `bap serve` on stdin/stdout.
struct StdioServer {
    process: BapProcess,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl StdioServer {
    /// Write a whole tick (blank-line terminated), then read one answer
    /// per request.
    fn tick(&mut self, tick: &[u8], requests: usize, answers: &mut Vec<String>) {
        self.stdin.write_all(tick).expect("write a tick");
        self.stdin.flush().expect("flush a tick");
        for _ in 0..requests {
            let mut line = String::new();
            let n = self.stdout.read_line(&mut line).expect("read an answer");
            assert!(n > 0, "bap serve closed stdout");
            answers.push(line);
        }
    }
}

/// Start `bap serve` on stdio and open every session in one tick: the
/// set-up time runs from spawn until the first `Open` is answered.
fn start_stdio(opens: &[u8], n: usize) -> (StdioServer, f64, Vec<String>) {
    let start = Instant::now();
    let mut child = Command::new(bap_binary())
        .args([
            "serve",
            "--overload",
            "on",
            "--tick-budget-ms",
            &STDIO_TICK_BUDGET_MS.to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn bap serve");
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut server = StdioServer {
        process: BapProcess { child, drain: None },
        stdin,
        stdout,
    };
    let mut answers = Vec::new();
    server.tick(opens, 1, &mut answers);
    let setup = start.elapsed().as_secs_f64();
    let mut rest = Vec::new();
    server.tick(b"", n - 1, &mut rest);
    answers.append(&mut rest);
    (server, setup, answers)
}

/// The requests of tick `t` (ids assigned by the caller, ascending): one
/// snapshot per session, what-if evaluates on half the sessions and plan
/// queries on the other half, and a checkpoint every 64th tick.
fn stdio_tick(t: u64, streams: &[SessionStream]) -> Vec<(usize, Option<usize>)> {
    let mut reqs: Vec<(usize, Option<usize>)> = streams
        .iter()
        .enumerate()
        .map(|(s, stream)| (s, Some(stream.snapshot(t))))
        .collect();
    let half = (t % 2) as usize;
    for j in 0..STDIO_SESSIONS / 2 {
        let s = 2 * j + half;
        reqs.push((s, Some(streams[s].evaluate(t))));
    }
    for j in 0..STDIO_SESSIONS / 2 {
        let s = 2 * j + 1 - half;
        reqs.push((s, Some(streams[s].plan())));
    }
    if t % STDIO_CHECKPOINT_EVERY == STDIO_CHECKPOINT_EVERY - 1 {
        reqs.push((0, None));
    }
    reqs
}

pub fn run_stdio(opts: &Opts) -> Outcome {
    let epoch = Instant::now();
    let streams: Vec<SessionStream> = (0..STDIO_SESSIONS)
        .map(|s| {
            SessionStream::new(
                opts.seed,
                s as u64 + 1,
                STDIO_CORES,
                STDIO_PHASES,
                DRIFT_ROUNDS,
            )
        })
        .collect();
    let lines: Vec<Vec<Line>> = streams.iter().map(SessionStream::lines).collect();
    let checkpoint = checkpoint_line();
    let mut checks = Checks::default();
    let mut spans = Spans::new(epoch, opts.trace, 0);
    let mut attempted = 0u64;

    let opens: Vec<Sent> = (0..STDIO_SESSIONS)
        .map(|s| Sent::session(s as u64 + 1, s, SessionStream::OPEN))
        .collect();
    let mut open_tick = Vec::new();
    for s in &opens {
        s.line(&lines, &checkpoint).stamp(s.id, &mut open_tick);
    }
    open_tick.push(b'\n');

    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let (server, setup, answers) = start_stdio(&open_tick, opens.len());
        spans.record("stdio.setup", 0, 0, t0, Instant::now());
        setups.push(setup);
        attempted += opens.len() as u64;
        for (s, answer) in opens.iter().zip(&answers) {
            match parse_answer(answer) {
                Ok(resp) => checks.answer(s, &streams, &resp),
                Err(why) => checks.fail(why),
            }
        }
        if i + 1 < SETUP_REPEATS {
            // Closing stdin flushes and ends the server.
            let StdioServer { process, stdin, .. } = server;
            drop(stdin);
            process.finish();
        } else {
            live = Some(server);
        }
    }
    let mut server = live.expect("at least one set-up");
    let pid = server.process.pid();

    let mut ticks: Vec<Vec<Sent>> = vec![opens.clone()];
    let mut answers: Vec<String> = Vec::new();
    let mut next_id = opens.len() as u64 + 1;
    let start = Instant::now() + WARMUP;
    let mut window = Window {
        rtt_us: Vec::new(),
        decided: Vec::new(),
        start,
        seconds: opts.seconds,
        server_cpu_s: 0.0,
        client_cpu_s: 0.0,
    };
    let end = start + Duration::from_secs(opts.seconds);
    let mut cpu_before = None;
    let mut buf = Vec::with_capacity(512 * 1024);
    let mut t = 0u64;
    loop {
        let sent_at = Instant::now();
        if sent_at >= end {
            break;
        }
        if cpu_before.is_none() && sent_at >= start {
            cpu_before = Some(cpu_pair(pid));
        }
        let tick: Vec<Sent> = stdio_tick(t, &streams)
            .into_iter()
            .map(|(s, template)| {
                let id = next_id;
                next_id += 1;
                match template {
                    Some(template) => Sent::session(id, s, template),
                    None => Sent {
                        id,
                        what: What::Checkpoint,
                    },
                }
            })
            .collect();
        buf.clear();
        for s in &tick {
            s.line(&lines, &checkpoint).stamp(s.id, &mut buf);
        }
        buf.push(b'\n');
        server.tick(&buf, tick.len(), &mut answers);
        let done = Instant::now();
        if sent_at >= start {
            window.rtt_us.push((done - sent_at).as_secs_f64() * 1e6);
            window.decided.push((done, STDIO_SESSIONS as u64));
            spans.record("stdio.tick", 0, tick[0].id, sent_at, done);
        }
        ticks.push(tick);
        t += 1;
    }
    let cpu_after = cpu_pair(pid);
    let cpu_before = cpu_before.unwrap_or(cpu_after);
    window.server_cpu_s = cpu_after.0 - cpu_before.0;
    window.client_cpu_s = cpu_after.1 - cpu_before.1;

    let mut control = Vec::new();
    let mut buf = Vec::new();
    Line::new(&stats_request()).stamp(STATS_ID, &mut buf);
    buf.push(b'\n');
    server.tick(&buf, 1, &mut control);
    let stats = LiveStats::of(&parse_answer(&control[0]).expect("Stats answer decodes"));
    let peak_rss_mb = pid.peak_rss_mb().unwrap_or(0.0);
    let StdioServer { process, stdin, .. } = server;
    drop(stdin);
    process.finish();

    let sent: Vec<Sent> = ticks.iter().flatten().copied().collect();
    attempted += (sent.len() - opens.len()) as u64;
    let mut shed = 0usize;
    for (s, answer) in sent[opens.len()..].iter().zip(&answers) {
        match parse_answer(answer) {
            Ok(resp) => {
                if matches!(
                    resp.kind.error_code(),
                    Some("overloaded" | "deadline-exceeded")
                ) {
                    shed += 1;
                }
                checks.answer(s, &streams, &resp)
            }
            Err(why) => checks.fail(why),
        }
    }
    checks.against_ground_truth(&streams, &sent);

    let (e2e, mut extra) = end_to_end(&window, &setups, peak_rss_mb, &mut checks);
    extra.push(metric(
        "governor.shed_ratio",
        shed as f64 / answers.len().max(1) as f64,
        "ratio",
    ));
    let mut layers = Vec::new();
    if opts.trace {
        let mut batches = Vec::new();
        let mut n = 0;
        for tick in &ticks {
            if n >= REPLAY_REQUESTS {
                break;
            }
            n += tick.len();
            batches.push(tick.clone());
        }
        let cfg = ServeConfig {
            overload: Some(OverloadConfig {
                tick_budget_ms: STDIO_TICK_BUDGET_MS,
                ..OverloadConfig::default()
            }),
            ..ServeConfig::default()
        };
        let replay = layers::replay(&cfg, &streams, &lines, &batches, &mut spans);
        for why in replay.failures {
            checks.fail(why);
        }
        layers = replay.metrics;
        stats.apply(&mut layers, STDIO_CORES / 8);
        layers.extend(window.cpu_metrics());
        // Server path of a tick: every decode, the batch, every encode.
        // The rest of the tick's round trip is pipe, parsing-loop and
        // client time.
        let path: Vec<f64> = replay
            .batches
            .iter()
            .skip(1)
            .map(|b| b.decode.iter().sum::<f64>() + b.process + b.encode.iter().sum::<f64>())
            .collect();
        let rtt_p50 = e2e[1].value;
        extra.push(metric(
            "bap.stdio_overhead_us.p50",
            rtt_p50 - median(&path),
            "us",
        ));
    }
    Outcome {
        e2e,
        layers,
        extra,
        attempted,
        checks,
        spans,
    }
}
