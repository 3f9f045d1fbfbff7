//! The traced run's layer replay: a workload's generated batches go
//! through each layer's public call in turn, in process, one call at a
//! time, with a span around every call. Layer metrics come from those
//! spans; nothing inside the program is instrumented.

use crate::gen::{checkpoint_line, Line, Sent, SessionStream, What};
use crate::report::{metric, Metric};
use crate::spans::Spans;
use crate::stats::{median, pct};
use bap_core::{
    try_bank_aware_partition, validate_bank_rules, Controller, DecisionService, OverloadGovernor,
    Policy, ServeConfig, Server,
};
use bap_msa::{EngineKind, MissRatioCurve, ProfilerConfig};
use bap_trace::wire::{
    encode_response, parse_request_line, RequestKind, ResponseKind, WireRequest, WireResponse,
};
use bap_trace::{NoopSink, Tracer};
use bap_types::{DegradedTopology, OverloadConfig, ReplicationConfig, Topology};
use std::collections::BTreeMap;
use std::time::Instant;

/// Batches between timed checkpoints (the replication log's re-anchor
/// interval).
const CHECKPOINT_EVERY: usize = 64;

/// `Plan` round trips timed on the idle in-process server.
const QUEUE_PROBES: u64 = 1000;

/// Server-side timings of one replayed batch, in µs.
#[derive(Default)]
pub struct BatchTiming {
    pub decode: Vec<f64>,
    pub process: f64,
    pub encode: Vec<f64>,
    pub log: f64,
    pub apply: f64,
}

pub struct Replay {
    /// The [`crate::report::PER_LAYER`] metrics, except the two the
    /// workload measures itself (`process.*`, `pool.*`).
    pub metrics: Vec<Metric>,
    pub batches: Vec<BatchTiming>,
    /// Layer calls that returned an error on generated input.
    pub failures: Vec<String>,
}

/// A controller built the way the service builds a session's (reference
/// profiler geometry, Naive engine, warm starts, summary-counting tracer).
fn session_controller(cores: usize) -> (Controller, Topology) {
    let cfg = ServeConfig::default();
    let topo = Topology::ring_of_paper_dies(cores);
    let profiler = ProfilerConfig::reference(cfg.profiler_sets, cfg.profiler_max_ways)
        .with_engine(EngineKind::Naive);
    let mut controller = Controller::new(
        Policy::BankAware,
        topo.clone(),
        cfg.bank_ways,
        profiler,
        cfg.solver,
    );
    controller.set_control(cfg.control);
    controller.set_tracer(Tracer::new(Box::new(NoopSink)));
    (controller, topo)
}

/// A replicating service's configuration: the primary's or a follower's,
/// with the default log (re-anchored every 64 ticks).
pub fn replica_config(follower: bool) -> ServeConfig {
    ServeConfig {
        replication: Some(ReplicationConfig {
            follower,
            ..ReplicationConfig::default()
        }),
        ..ServeConfig::default()
    }
}

/// How many requests of a run the layer replay takes, from its start.
pub const REPLAY_REQUESTS: usize = 2000;

/// Replay `batches` (requests of `streams`, whose pre-encoded lines are
/// `lines`) against a service configured as `cfg`, in two passes: first
/// the path a live server takes (decode, gate, process, encode), batch by
/// batch with nothing in between, then the layers beneath the service one
/// call at a time.
pub fn replay(
    cfg: &ServeConfig,
    streams: &[SessionStream],
    lines: &[Vec<Line>],
    batches: &[Vec<Sent>],
    spans: &mut Spans,
) -> Replay {
    let mut out = Replay {
        metrics: Vec::new(),
        batches: Vec::with_capacity(batches.len()),
        failures: Vec::new(),
    };
    let checkpoint_line = checkpoint_line();
    let mut buf = Vec::new();
    let (mut bytes, mut decode_ns, mut requests) = (0usize, 0f64, 0usize);
    let mut checkpoint_bytes = Vec::new();
    let mut main = DecisionService::new(cfg.clone());
    let mut governor = OverloadGovernor::new(
        cfg.overload.unwrap_or(OverloadConfig {
            tick_budget_ms: 1000,
            ..OverloadConfig::default()
        }),
        Tracer::off(),
    );
    for (t, batch) in batches.iter().enumerate() {
        let tick = spans.reserve();
        let tick_start = Instant::now();
        let mut timing = BatchTiming::default();

        let mut reqs = Vec::with_capacity(batch.len());
        for sent in batch {
            buf.clear();
            sent.line(lines, &checkpoint_line).stamp(sent.id, &mut buf);
            // The transports strip the newline before decoding.
            let line = std::str::from_utf8(&buf[..buf.len() - 1]).expect("JSON lines are UTF-8");
            let start = Instant::now();
            let parsed = parse_request_line(line);
            let end = Instant::now();
            spans.record("wire.decode", tick, sent.id, start, end);
            let dur = (end - start).as_nanos() as f64;
            timing.decode.push(dur / 1e3);
            decode_ns += dur;
            bytes += line.len();
            requests += 1;
            match parsed {
                Ok(req) => reqs.push(req),
                Err(e) => note(
                    &mut out.failures,
                    format!("request {} did not decode: {e}", sent.id),
                ),
            }
        }

        let now = Instant::now();
        let pending: Vec<(&WireRequest, Instant)> = reqs.iter().map(|r| (r, now)).collect();
        let verdicts = spans.time("governor.gate", tick, 0, || governor.gate(now, &pending));
        if verdicts.iter().any(Option::is_some) {
            note(
                &mut out.failures,
                format!("the gate shed part of batch {t}"),
            );
        }

        let start = Instant::now();
        let responses = main.process_batch(&reqs);
        let end = Instant::now();
        spans.record("serve.process_batch", tick, 0, start, end);
        timing.process = (end - start).as_secs_f64() * 1e6;
        governor.tick_done(end - start, reqs.len());

        for resp in &responses {
            let start = Instant::now();
            let line = encode_response(resp);
            let end = Instant::now();
            std::hint::black_box(line);
            spans.record("wire.encode", tick, resp.id, start, end);
            timing.encode.push((end - start).as_secs_f64() * 1e6);
        }

        if t % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 || t + 1 == batches.len() {
            let encoded = spans.time("recovery.checkpoint", tick, 0, || {
                main.checkpoint().encode()
            });
            checkpoint_bytes.push(encoded.len() as f64);
        }
        spans.record_as(tick, "replay.server_path", 0, 0, tick_start, Instant::now());
        out.batches.push(timing);
    }
    let warm = warm_stats(&mut main);

    // The controller and solver on session state equivalent to the
    // service's, and log shipping between a primary and a follower.
    let ServeConfig {
        solver, bank_ways, ..
    } = ServeConfig::default();
    let mut controllers: BTreeMap<u64, (Controller, Topology)> = BTreeMap::new();
    let mut primary = DecisionService::new(replica_config(false));
    let mut follower = DecisionService::new(replica_config(true));
    for (batch, timing) in batches.iter().zip(&mut out.batches) {
        let tick = spans.reserve();
        let tick_start = Instant::now();
        let reqs: Vec<WireRequest> = batch.iter().map(|s| s.request(streams)).collect();
        for r in &reqs {
            match &r.kind {
                RequestKind::Open { session, cores } => {
                    controllers.insert(*session, session_controller(*cores));
                }
                RequestKind::Snapshot { session, curves } => {
                    let Some((controller, topo)) = controllers.get_mut(session) else {
                        continue;
                    };
                    let converted: Vec<MissRatioCurve> = curves
                        .iter()
                        .map(|c| MissRatioCurve::from_misses(c.misses.clone(), c.accesses))
                        .collect();
                    let input = converted.clone();
                    spans.time("controller.epoch", tick, r.id, || {
                        controller.epoch_boundary_with_curves(input)
                    });
                    let machine = DegradedTopology::new(topo.clone(), *controller.mask());
                    let solved = spans.time("bank_aware.solve", tick, r.id, || {
                        try_bank_aware_partition(&converted, &machine, bank_ways, &solver)
                    });
                    match solved {
                        Ok(plan) => {
                            let valid = spans.time("bank_aware.validate", tick, r.id, || {
                                validate_bank_rules(&plan, topo)
                            });
                            if let Err(e) = valid {
                                let why =
                                    format!("request {}: plan breaks the bank rules: {e}", r.id);
                                note(&mut out.failures, why);
                            }
                        }
                        Err(e) => note(
                            &mut out.failures,
                            format!("request {}: solve failed: {e}", r.id),
                        ),
                    }
                }
                _ => {}
            }
        }

        primary.process_batch(&reqs);
        let start = Instant::now();
        let entry = primary.log_batch(&reqs, 0);
        let end = Instant::now();
        spans.record("replication.log_batch", tick, 0, start, end);
        timing.log = (end - start).as_secs_f64() * 1e6;
        let Some(entry) = entry else {
            note(&mut out.failures, "the primary logged no entry".to_string());
            continue;
        };
        let start = Instant::now();
        let applied = follower.apply_repl_entry(&entry);
        let end = Instant::now();
        spans.record("replication.replay", tick, 0, start, end);
        timing.apply = (end - start).as_secs_f64() * 1e6;
        if applied != Some(entry.tick) {
            let why = format!("follower refused the entry for tick {}", entry.tick);
            note(&mut out.failures, why);
        }
        spans.record_as(tick, "replay.layers", 0, 0, tick_start, Instant::now());
    }
    if follower.divergences() > 0 {
        let why = format!(
            "{} replication divergences in the replay",
            follower.divergences()
        );
        note(&mut out.failures, why);
    }

    let clusters = controllers
        .values()
        .map(|(_, topo)| topo.num_clusters())
        .max()
        .unwrap_or(1);
    let queue_rtt_us = queue_rtt(cfg, streams, batches, spans);
    let d = |name: &str| spans.durations_us(name);
    let p50 = |name: &str| pct(&d(name), 0.50);
    let p99 = |name: &str| pct(&d(name), 0.99);
    out.metrics = vec![
        metric("wire.decode_us.p50", p50("wire.decode"), "us"),
        metric("wire.decode_us.p99", p99("wire.decode"), "us"),
        metric("wire.decode_ns_per_byte", decode_ns / bytes as f64, "ns/B"),
        metric("wire.request_bytes", bytes as f64 / requests as f64, "B"),
        metric("wire.encode_us.p50", p50("wire.encode"), "us"),
        metric("serve.queue_rtt_us.p50", queue_rtt_us, "us"),
        metric(
            "serve.process_batch_us.p50",
            p50("serve.process_batch"),
            "us",
        ),
        metric(
            "serve.process_batch_us.p99",
            p99("serve.process_batch"),
            "us",
        ),
        metric("serve.batch_size", warm.batch_size(), "count"),
        metric("governor.gate_us.p50", p50("governor.gate"), "us"),
        metric("controller.epoch_us.p50", p50("controller.epoch"), "us"),
        metric("controller.epoch_us.p99", p99("controller.epoch"), "us"),
        metric("bank_aware.solve_us.p50", p50("bank_aware.solve"), "us"),
        metric(
            "bank_aware.validate_us.p50",
            p50("bank_aware.validate"),
            "us",
        ),
        metric(
            "incremental.warm_hit_ratio",
            warm.warm_hit_ratio(clusters),
            "ratio",
        ),
        metric(
            "replication.log_batch_us.p50",
            p50("replication.log_batch"),
            "us",
        ),
        metric(
            "replication.log_batch_us.p99",
            p99("replication.log_batch"),
            "us",
        ),
        metric("replication.replay_us.p50", p50("replication.replay"), "us"),
        metric(
            "recovery.checkpoint_us",
            median(&d("recovery.checkpoint")),
            "us",
        ),
        metric("recovery.checkpoint_bytes", median(&checkpoint_bytes), "B"),
    ];
    out
}

/// The replay service's own counters.
fn warm_stats(service: &mut DecisionService) -> LiveStats {
    let stats = service.process_batch(&[WireRequest::new(u64::MAX, RequestKind::Stats)]);
    let mut live = LiveStats::of(&stats[0]);
    // The Stats request itself is not part of the replayed traffic.
    live.requests -= 1;
    live.ticks -= 1;
    live
}

/// A live server's `Stats` counters. They replace the replay's batch size
/// and warm-hit ratio, which depend on how the live run batched.
pub struct LiveStats {
    pub requests: u64,
    pub ticks: u64,
    pub decisions: u64,
    pub warm_hits: u64,
}

impl LiveStats {
    pub fn of(resp: &WireResponse) -> LiveStats {
        match resp.kind {
            ResponseKind::Stats {
                requests,
                ticks,
                decisions,
                warm_hits,
                ..
            } => LiveStats {
                requests,
                ticks,
                decisions,
                warm_hits,
            },
            _ => panic!("Stats answered with {}", resp.kind.label()),
        }
    }

    /// Requests per tick.
    fn batch_size(&self) -> f64 {
        self.requests as f64 / self.ticks.max(1) as f64
    }

    /// Warm cluster reuses per cluster solved; `clusters` per session.
    fn warm_hit_ratio(&self, clusters: usize) -> f64 {
        self.warm_hits as f64 / (self.decisions as f64 * clusters as f64).max(1.0)
    }

    /// Overwrite the replay's `serve.batch_size` and
    /// `incremental.warm_hit_ratio` with these counters.
    pub fn apply(&self, metrics: &mut [Metric], clusters: usize) {
        for m in metrics.iter_mut() {
            match m.name.as_str() {
                "serve.batch_size" => m.value = self.batch_size(),
                "incremental.warm_hit_ratio" => m.value = self.warm_hit_ratio(clusters),
                _ => {}
            }
        }
    }
}

fn note(failures: &mut Vec<String>, why: String) {
    if failures.len() < 8 {
        failures.push(why);
    }
}

/// Median `ServeClient::call` round trip of a `Plan` query on an idle
/// in-process server holding the workload's sessions.
fn queue_rtt(
    cfg: &ServeConfig,
    streams: &[SessionStream],
    batches: &[Vec<Sent>],
    spans: &mut Spans,
) -> f64 {
    let server = Server::spawn(DecisionService::new(cfg.clone()));
    let client = server.client();
    let opens: Vec<WireRequest> = batches
        .iter()
        .flatten()
        .filter(|s| {
            matches!(
                s.what,
                What::Session {
                    template: SessionStream::OPEN,
                    ..
                }
            )
        })
        .map(|s| s.request(streams))
        .collect();
    for open in &opens {
        client.call(open.clone()).expect("idle server answers");
    }
    let session = opens
        .first()
        .and_then(|o| o.kind.session())
        .expect("the replay opens a session");
    let mut rtts = Vec::with_capacity(QUEUE_PROBES as usize);
    for i in 0..QUEUE_PROBES {
        let id = u64::MAX / 2 + i;
        let start = Instant::now();
        client
            .call(WireRequest::new(id, RequestKind::Plan { session }))
            .expect("idle server answers");
        let end = Instant::now();
        spans.record("serve.queue_rtt", 0, id, start, end);
        rtts.push((end - start).as_secs_f64() * 1e6);
    }
    client
        .call(WireRequest::new(u64::MAX, RequestKind::Shutdown))
        .expect("idle server drains");
    server.join();
    median(&rtts)
}
