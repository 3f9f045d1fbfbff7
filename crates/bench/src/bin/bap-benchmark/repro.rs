//! `repro-quick`: the researcher's path. A fresh process builds the Fig. 7
//! profile library, decides the Monte Carlo mixes, and runs the Fig. 8/9
//! detailed sweep, reading and writing no `results/` cache. Each
//! repetition is its own child process: what a fresh process pays (the
//! worker pool's start-up included) is part of the measurement.
//!
//! The seed drives the Fig. 7 half (profiling streams and mixes). The
//! sweep always runs the paper-reproduction seed's Table III sets, so
//! every seed measures the same simulation work and checks its digest.

use crate::gen::{Line, Sent, SessionStream};
use crate::layers::{self, REPLAY_REQUESTS};
use crate::procfs::Proc;
use crate::report::{self, metric, Metric, Outcome};
use crate::serve_child::SETUP_REPEATS;
use crate::spans::Spans;
use crate::stats::{median, Latency};
use crate::{check::Checks, Opts};
use bap_bench::common::Args;
use bap_bench::detailed::{run_all, sim_options};
use bap_bench::mc::{build_library, evaluate_mix};
use bap_bench::mixes::monte_carlo_mixes;
use bap_core::{Policy, ServeConfig};
use bap_trace::wire::WireCurve;
use bap_types::{SystemConfig, Topology};
use serde::{Deserialize, Serialize};
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Fig. 7 quick budgets: instructions profiled per analogue, geometry
/// divisor, cores per mix.
const PROFILE_INSTRUCTIONS: u64 = 1_000_000;
const SCALE: u64 = 8;
const CORES: usize = 8;

/// Mixes decided per repetition: ten times the paper's 1000, so the p99
/// of one decision rests on a hundred samples and moves little with the
/// seed's draw of hard mixes.
const MIXES: usize = 10_000;

/// Detailed runs per sweep: 8 Table III sets × 3 policies, drawn with
/// the seed `exp_fig8`/`exp_fig9` default to.
const SWEEP_RUNS: u64 = 24;
const SWEEP_SEED: u64 = 42;

/// The committed digest of seed 42. Other seeds check the sweep against
/// it and the Fig. 7 half for invariants only.
const GOLDEN_SEED: u64 = 42;
const GOLDEN: &str = include_str!("golden-seed42.json");

/// The outputs a simulator-speed change must leave bit-identical.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Digest {
    pub seed: u64,
    pub fig7_mean_unrestricted: f64,
    pub fig7_mean_bank_aware: f64,
    pub runs: Vec<RunDigest>,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunDigest {
    pub set: usize,
    pub policy: String,
    pub misses: u64,
    pub accesses: u64,
    pub epochs: u64,
    pub final_ways: Vec<usize>,
}

/// What one child pipeline reports, as one JSON line on stdout.
#[derive(Serialize, Deserialize)]
struct ChildReport {
    profile_s: f64,
    evaluate_us: Vec<f64>,
    sweep_s: f64,
    /// Simulated instructions in the sweep (all cores, all runs).
    sim_instructions: u64,
    cpu_s: f64,
    /// From the child's `main` to the end of the pipeline.
    wall_s: f64,
    peak_rss_mb: f64,
    digest: Digest,
    /// Invariant violations found in the child's outputs.
    violations: Vec<String>,
    /// Layer metrics of the traced repetition.
    layers: Vec<Metric>,
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos() as u64
}

fn sweep_args(seed: u64) -> Args {
    Args {
        seed,
        scale: SCALE,
        quick: true,
        chain: None,
        seeds: 1,
        cores: None,
        check: false,
    }
}

/// `--child repro-setup`: make the inputs, report when they are ready.
pub fn child_setup(seed: u64) {
    let mixes = monte_carlo_mixes(seed, MIXES, CORES);
    std::hint::black_box(mixes);
    println!("{}", unix_ns());
}

/// `--child repro`: one whole pipeline in this (fresh) process.
pub fn child_pipeline(seed: u64, trace: bool, started: Instant) {
    let mixes = monte_carlo_mixes(seed, MIXES, CORES);
    let mut spans = Spans::new(started, trace, 0);

    let profile_start = Instant::now();
    let lib = build_library(&SystemConfig::scaled(SCALE), PROFILE_INSTRUCTIONS, seed);
    let profile_end = Instant::now();
    spans.record("mc.build_library", 0, 0, profile_start, profile_end);

    // Mixes are decided one at a time so each decision's latency is its
    // own, not shared with a concurrent one.
    let topo = Topology::baseline();
    let timed: Vec<_> = mixes
        .iter()
        .map(|mix| {
            let start = Instant::now();
            let outcome = evaluate_mix(&lib, mix, &topo);
            (outcome, start, Instant::now())
        })
        .collect();
    for (i, (_, start, end)) in timed.iter().enumerate() {
        spans.record("mc.evaluate_mix", 0, i as u64 + 1, *start, *end);
    }

    let args = sweep_args(SWEEP_SEED);
    let sweep_start = Instant::now();
    let sweep = run_all(&args);
    let sweep_end = Instant::now();
    spans.record("detailed.run_all", 0, 0, sweep_start, sweep_end);
    let wall_s = (sweep_end - started).as_secs_f64();
    let cpu_s = Proc::Current.cpu_s().unwrap_or(0.0);
    let peak_rss_mb = Proc::Current.peak_rss_mb().unwrap_or(0.0);

    let mut violations = Vec::new();
    let mean = |f: &dyn Fn(&bap_bench::mc::MixOutcome) -> f64| {
        timed.iter().map(|(o, _, _)| f(o)).sum::<f64>() / timed.len() as f64
    };
    let digest = Digest {
        seed,
        fig7_mean_unrestricted: mean(&|o| o.unrestricted_relative()),
        fig7_mean_bank_aware: mean(&|o| o.bank_aware_relative()),
        runs: sweep
            .runs
            .iter()
            .enumerate()
            .flat_map(|(set, runs)| {
                runs.iter()
                    .zip(["NoPartition", "Equal", "BankAware"])
                    .map(move |(r, policy)| RunDigest {
                        set,
                        policy: policy.to_string(),
                        misses: r.misses,
                        accesses: r.accesses,
                        epochs: r.epochs,
                        final_ways: r.final_ways.clone(),
                    })
            })
            .collect(),
    };
    let total_ways = topo.num_banks() * 8;
    if lib.curves.len() != 26 {
        violations.push(format!("library holds {} curves, not 26", lib.curves.len()));
    }
    for (o, _, _) in &timed {
        if o.bank_aware_ways.iter().sum::<usize>() != total_ways {
            violations.push(format!("mix {:?}: bank-aware plan misses ways", o.mix));
        }
        if o.unrestricted_ways.iter().sum::<usize>() > total_ways {
            violations.push(format!("mix {:?}: unrestricted plan overcommits", o.mix));
        }
    }
    for m in [digest.fig7_mean_unrestricted, digest.fig7_mean_bank_aware] {
        if !(m > 0.0 && m <= 1.05) {
            violations.push(format!("Fig. 7 mean relative miss ratio {m} out of range"));
        }
    }
    if digest.runs.len() != SWEEP_RUNS as usize {
        violations.push(format!(
            "{} detailed runs, not {SWEEP_RUNS}",
            digest.runs.len()
        ));
    }
    for r in &digest.runs {
        let bank_aware = r.policy == "BankAware";
        if r.accesses == 0 || r.misses > r.accesses {
            violations.push(format!(
                "set {} {}: {} misses of {} accesses",
                r.set, r.policy, r.misses, r.accesses
            ));
        }
        if bank_aware && (r.epochs == 0 || r.final_ways.iter().sum::<usize>() != total_ways) {
            violations.push(format!("set {} BankAware: no whole final plan", r.set));
        }
    }
    violations.truncate(8);

    let layers = if trace {
        replay_layers(&lib, &mixes, &mut spans)
    } else {
        Vec::new()
    };
    if trace {
        let path = crate::report::results_dir().join(format!("spans-repro-quick-seed{seed}.jsonl"));
        spans.write_jsonl(&path).expect("write the span file");
    }
    let opts = sim_options(&args, Policy::BankAware);
    let report = ChildReport {
        profile_s: (profile_end - profile_start).as_secs_f64(),
        evaluate_us: timed
            .iter()
            .map(|(_, s, e)| (*e - *s).as_secs_f64() * 1e6)
            .collect(),
        sweep_s: (sweep_end - sweep_start).as_secs_f64(),
        sim_instructions: (opts.warmup_instructions + opts.measure_instructions)
            * CORES as u64
            * SWEEP_RUNS,
        cpu_s,
        wall_s,
        peak_rss_mb,
        digest,
        violations,
        layers,
    };
    println!("{}", serde_json::to_string(&report).expect("serialisable"));
}

/// The layer replay on the researcher's inputs: the first Monte Carlo
/// mixes, each as one epoch snapshot of an 8-core session.
fn replay_layers(
    lib: &bap_bench::mc::ProfileLibrary,
    mixes: &[Vec<String>],
    spans: &mut Spans,
) -> Vec<Metric> {
    let snapshots: Vec<Vec<WireCurve>> = mixes
        .iter()
        .take(REPLAY_REQUESTS - 1)
        .map(|mix| {
            mix.iter()
                .map(|name| {
                    let c = &lib.curves[name];
                    WireCurve {
                        accesses: c.accesses(),
                        misses: (0..=c.max_ways()).map(|w| c.misses_at(w)).collect(),
                    }
                })
                .collect()
        })
        .collect();
    let decisions = snapshots.len();
    let streams = vec![SessionStream::from_snapshots(1, CORES, snapshots)];
    let lines: Vec<Vec<Line>> = streams.iter().map(SessionStream::lines).collect();
    let batches: Vec<Vec<Sent>> = (0..=decisions)
        .map(|k| {
            let template = if k == 0 {
                SessionStream::OPEN
            } else {
                streams[0].snapshot(k as u64 - 1)
            };
            vec![Sent::session(k as u64 + 1, 0, template)]
        })
        .collect();
    let replay = layers::replay(&ServeConfig::default(), &streams, &lines, &batches, spans);
    assert!(
        replay.failures.is_empty(),
        "layer replay failed: {:?}",
        replay.failures
    );
    replay.metrics
}

/// Run one child of this executable and return its last stdout line.
fn child(args: &[&str]) -> String {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("run a repro child");
    assert!(
        out.status.success(),
        "repro child {args:?} failed: {}",
        out.status
    );
    String::from_utf8(out.stdout)
        .expect("UTF-8 output")
        .lines()
        .last()
        .expect("the child reports")
        .to_string()
}

pub fn run(opts: &Opts) -> Outcome {
    let seed = opts.seed.to_string();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let spawned = unix_ns();
        let ready: u64 = child(&["--child", "repro-setup", "--seed", &seed])
            .parse()
            .expect("the setup child prints its ready time");
        setups.push(ready.saturating_sub(spawned) as f64 / 1e9);
    }

    // Repetitions while another one still fits the window (at least
    // one); the first one is traced.
    let window = Instant::now();
    let mut reps: Vec<(f64, ChildReport)> = Vec::new();
    let fits = |reps: &[(f64, ChildReport)]| {
        let per_rep = window.elapsed().as_secs_f64() / reps.len() as f64;
        window.elapsed().as_secs_f64() + per_rep <= opts.seconds as f64
    };
    while reps.is_empty() || fits(&reps) {
        let trace = if opts.trace && reps.is_empty() {
            "1"
        } else {
            "0"
        };
        let start = Instant::now();
        let line = child(&["--child", "repro", "--seed", &seed, "--trace", trace]);
        let wall = start.elapsed().as_secs_f64();
        let report: ChildReport =
            serde_json::from_str(&line).expect("the repro child reports JSON");
        reps.push((wall, report));
    }

    let mut checks = Checks::default();
    let first = &reps[0].1;
    std::fs::write(
        crate::report::results_dir().join(format!("repro-digest-seed{}.json", opts.seed)),
        serde_json::to_string_pretty(&first.digest).expect("serialisable"),
    )
    .expect("write the run's digest");
    for (_, r) in &reps {
        for why in &r.violations {
            checks.fail(why.clone());
        }
        if r.digest != first.digest {
            checks.fail("two fresh processes computed different digests".to_string());
        }
    }
    match serde_json::from_str::<Digest>(GOLDEN) {
        Ok(golden) if opts.seed == GOLDEN_SEED && golden != first.digest => {
            checks.fail(format!(
                "digest differs from golden-seed42.json (see results/benchmark/repro-digest-seed{}.json)",
                opts.seed
            ));
        }
        Ok(golden) if golden.runs != first.digest.runs => {
            checks.fail("the detailed sweep differs from golden-seed42.json".to_string())
        }
        Ok(_) => {}
        Err(e) => checks.fail(format!("golden-seed42.json does not parse: {e}")),
    }
    let attempted = reps.len() as u64 * (MIXES as u64 + SWEEP_RUNS);
    if !checks.failures.is_empty() {
        checks.failed = attempted;
    }

    let walls: Vec<f64> = reps.iter().map(|(w, _)| *w).collect();
    let field =
        |f: &dyn Fn(&ChildReport) -> f64| -> Vec<f64> { reps.iter().map(|(_, r)| f(r)).collect() };
    // Percentiles of each repetition, then their median over repetitions,
    // so one repetition the host disturbed moves neither.
    let per_rep: Vec<Latency> = reps
        .iter()
        .map(|(_, r)| checks.latency(&r.evaluate_us))
        .collect();
    let over_reps = |f: fn(&Latency) -> f64| median(&per_rep.iter().map(f).collect::<Vec<_>>());
    let lat = Latency {
        p50: over_reps(|l| l.p50),
        p99: over_reps(|l| l.p99),
        count: per_rep.iter().map(|l| l.count).sum(),
    };
    // Pipeline throughput, MIXES ÷ repro_s: the wall time is mostly the
    // library build and the sweep, so this bounds the whole pipeline, not
    // the mix decisions alone (their latency is `p50_us`).
    let repro_s = median(&walls);
    let rate = MIXES as f64 / repro_s;
    let peak_rss_mb = median(&field(&|r| r.peak_rss_mb));
    let (e2e, samples) = report::end_to_end(rate, &lat, &setups, peak_rss_mb);
    let accesses: u64 = first.digest.runs.iter().map(|r| r.accesses).sum();
    let misses: u64 = first.digest.runs.iter().map(|r| r.misses).sum();
    let epochs: u64 = first.digest.runs.iter().map(|r| r.epochs).sum();
    let extra = vec![
        samples,
        metric("repro_s", repro_s, "s"),
        metric("repetitions", reps.len() as f64, "count"),
        metric("msa.profile_s", median(&field(&|r| r.profile_s)), "s"),
        metric("system.run_s", median(&field(&|r| r.sweep_s)), "s"),
        metric(
            "system.minstr_per_s",
            median(&field(&|r| r.sim_instructions as f64 / 1e6 / r.sweep_s)),
            "Minstr/s",
        ),
        metric(
            "system.host_ns_per_l2_access",
            median(&field(&|r| r.sweep_s * 1e9 / accesses as f64)),
            "ns",
        ),
        metric("system.l2_accesses", accesses as f64, "count"),
        metric("system.l2_misses", misses as f64, "count"),
        metric("system.epochs", epochs as f64, "count"),
    ];
    let mut layers = Vec::new();
    if opts.trace {
        layers = first.layers.clone();
        layers.push(metric(
            "process.cpu_ms_per_decision",
            first.cpu_s * 1e3 / MIXES as f64,
            "ms",
        ));
        layers.push(metric("pool.cpu_util", first.cpu_s / first.wall_s, "ratio"));
    }
    Outcome {
        e2e,
        layers,
        extra,
        attempted,
        checks,
        // The traced child wrote its own spans.
        spans: Spans::new(Instant::now(), false, 0),
    }
}
