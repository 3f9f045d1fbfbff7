//! `serve-replicated`: an in-process primary `Server` shipping every tick
//! to a follower `Server`, driven by one client thread through
//! `ServeClient`. No codec is on the path; every decision is a cold
//! sharded solve on both replicas.

use crate::check::{fingerprint, Checks};
use crate::gen::{Line, Sent, SessionStream};
use crate::layers::{self, replica_config, LiveStats, REPLAY_REQUESTS};
use crate::procfs::Proc;
use crate::report::{self, metric, Outcome};
use crate::serve_child::{SETUP_REPEATS, WARMUP};
use crate::spans::Spans;
use crate::stats::{self, median};
use crate::Opts;
use bap_core::{DecisionService, ServeClient, Server};
use bap_trace::wire::{RequestKind, ResponseKind, WireRequest, WireResponse};
use std::time::{Duration, Instant};

/// One 128-core session: 16 clusters, so solves shard.
const CORES: usize = 128;

/// Distinct curve sets cycled through; consecutive decisions always
/// differ, so no cluster is ever reused warm.
const PHASES: usize = 48;

fn call(client: &ServeClient, req: WireRequest) -> WireResponse {
    client.call(req).expect("in-process server answers")
}

/// A primary with a joined follower.
struct Pair {
    primary: Server,
    follower: Server,
}

impl Pair {
    fn start() -> Pair {
        let primary = Server::spawn(DecisionService::new(replica_config(false)));
        let follower = Server::spawn(DecisionService::new(replica_config(true)));
        primary.replicate_to(&follower);
        Pair { primary, follower }
    }

    fn stop(self) {
        let shutdown = |s: &Server| {
            call(
                &s.client(),
                WireRequest::new(u64::MAX, RequestKind::Shutdown),
            );
        };
        shutdown(&self.primary);
        shutdown(&self.follower);
        self.primary.join();
        self.follower.join();
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let epoch = Instant::now();
    let streams = vec![SessionStream::new(opts.seed, 1, CORES, PHASES, 1)];
    let stream = &streams[0];
    let mut checks = Checks::default();
    let mut spans = Spans::new(epoch, opts.trace, 0);
    let open = Sent::session(1, 0, SessionStream::OPEN);

    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUP_REPEATS {
        let start = Instant::now();
        let pair = Pair::start();
        let client = pair.primary.client();
        let resp = call(&client, open.request(&streams));
        let end = Instant::now();
        spans.record("replicated.setup", 0, open.id, start, end);
        setups.push((end - start).as_secs_f64());
        checks.answer(&open, &streams, &resp);
        if i + 1 < SETUP_REPEATS {
            pair.stop();
        } else {
            live = Some((pair, client));
        }
    }
    let (pair, client) = live.expect("at least one set-up");

    let mut sent = vec![open];
    let mut rtt_us = Vec::new();
    let start = Instant::now() + WARMUP;
    let end = start + Duration::from_secs(opts.seconds);
    let mut cpu_before = None;
    let mut decided = Vec::new();
    let mut round = 0u64;
    loop {
        let s = Sent::session(round + 2, 0, stream.snapshot(round));
        let req = s.request(&streams);
        let sent_at = Instant::now();
        if sent_at >= end {
            break;
        }
        if cpu_before.is_none() && sent_at >= start {
            cpu_before = Some(cpu_pair());
        }
        let resp = call(&client, req);
        let done = Instant::now();
        if sent_at >= start {
            rtt_us.push((done - sent_at).as_secs_f64() * 1e6);
            decided.push((done, 1));
            spans.record("replicated.call", 0, s.id, sent_at, done);
        }
        // Checked as they arrive: keeping 128-core answers for later would
        // put the client's memory into this process's peak.
        checks.answer(&s, &streams, &resp);
        sent.push(s);
        round += 1;
    }
    let cpu_now = cpu_pair();
    let cpu_before = cpu_before.unwrap_or(cpu_now);
    let (process_cpu_s, client_cpu_s) = (cpu_now.0 - cpu_before.0, cpu_now.1 - cpu_before.1);
    let peak_rss_mb = Proc::Current.peak_rss_mb().unwrap_or(0.0);
    let decisions = rtt_us.len() as u64;

    // The follower must hold the primary's plan and must never have
    // diverged.
    let plan = |server: &Server| {
        fingerprint(
            &call(
                &server.client(),
                WireRequest::new(u64::MAX - 1, RequestKind::Plan { session: 1 }),
            )
            .kind,
        )
    };
    let (primary_plan, follower_plan) = (plan(&pair.primary), plan(&pair.follower));
    if primary_plan != follower_plan {
        checks.fail(format!(
            "follower plan {follower_plan:?} differs from the primary's {primary_plan:?}"
        ));
    }
    let status = call(
        &pair.follower.client(),
        WireRequest::new(u64::MAX - 1, RequestKind::ReplStatus),
    );
    match status.kind {
        ResponseKind::ReplStatus { divergences: 0, .. } => {}
        other => checks.fail(format!("follower status: {other:?}")),
    }
    let stats = call(&client, WireRequest::new(u64::MAX - 1, RequestKind::Stats));
    pair.stop();

    let attempted = (SETUP_REPEATS + sent.len() - 1) as u64;
    checks.against_ground_truth(&streams, &sent);

    let lat = checks.latency(&rtt_us);
    let rate = stats::median_rate(&decided, start, opts.seconds);
    let (e2e, samples) = report::end_to_end(rate, &lat, &setups, peak_rss_mb);
    let mut extra = vec![
        samples,
        metric(
            "process.client_cpu_share",
            client_cpu_s / process_cpu_s.max(1e-9),
            "ratio",
        ),
    ];
    let mut layers = Vec::new();
    if opts.trace {
        let lines: Vec<Vec<Line>> = streams.iter().map(SessionStream::lines).collect();
        let batches: Vec<Vec<Sent>> = sent
            .iter()
            .take(REPLAY_REQUESTS)
            .map(|s| vec![*s])
            .collect();
        let replay = layers::replay(
            &replica_config(false),
            &streams,
            &lines,
            &batches,
            &mut spans,
        );
        for why in replay.failures {
            checks.fail(why);
        }
        layers = replay.metrics;
        LiveStats::of(&stats).apply(&mut layers, CORES / 8);
        layers.push(metric(
            "process.cpu_ms_per_decision",
            process_cpu_s * 1e3 / decisions.max(1) as f64,
            "ms",
        ));
        layers.push(metric(
            "pool.cpu_util",
            process_cpu_s / opts.seconds as f64,
            "ratio",
        ));
        // The client's round trip beyond the primary's processing, its log
        // append and the follower's replay: queueing, shipping and acks.
        let path: Vec<f64> = replay
            .batches
            .iter()
            .skip(1)
            .map(|b| b.process + b.log + b.apply)
            .collect();
        extra.push(metric(
            "replication.overhead_us.p50",
            lat.p50 - median(&path),
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

/// CPU seconds of this process and of the calling (client) thread.
fn cpu_pair() -> (f64, f64) {
    (
        Proc::Current.cpu_s().unwrap_or(0.0),
        Proc::Thread.cpu_s().unwrap_or(0.0),
    )
}
