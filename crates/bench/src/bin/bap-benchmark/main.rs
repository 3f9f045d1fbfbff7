//! `bap-benchmark` — the benchmark every performance or simplicity change
//! to this repository is judged by.
//!
//! ```text
//! bap-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--runs N]
//! ```
//!
//! One invocation runs one workload in this (fresh) process, prints one
//! `<workload> <metric> <value> <unit>` line per metric, writes its files
//! under `results/benchmark/`, and ends with one JSON result line:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics, or with `--trace 1` the per-layer ones. It exits non-zero if
//! any output check fails. `--workload all` and `--runs N` re-execute this
//! binary once per workload and run. See `README.md` beside this file for
//! the workloads, metrics and bounds; `BENCHMARK.json` at the repository
//! root is the definition.

mod check;
mod gen;
mod layers;
mod procfs;
mod replicated;
mod report;
mod repro;
mod serve_child;
mod spans;
mod stats;

use report::Metric;
use std::collections::BTreeMap;
use std::process::{exit, Command, Stdio};
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "serve-tcp",
    "serve-stdio-batch",
    "serve-replicated",
    "repro-quick",
];

/// One invocation's settings.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    pub trace: bool,
    runs: usize,
    /// Internal: the role of a re-executed child (`repro`, `repro-setup`).
    child: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bap-benchmark --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--runs N]",
        WORKLOADS.join("|")
    );
    exit(2)
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        seed: 42,
        seconds: 25,
        trace: false,
        runs: 1,
        child: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        let number = || value.parse::<u64>().unwrap_or_else(|_| usage());
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = number(),
            "--seconds" => opts.seconds = number().max(1),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--runs" => opts.runs = number().max(1) as usize,
            "--child" => opts.child = Some(value.clone()),
            _ => usage(),
        }
    }
    let known = opts.workload == "all" || WORKLOADS.contains(&opts.workload.as_str());
    if opts.child.is_none() && !known {
        usage();
    }
    opts
}

fn main() {
    let started = Instant::now();
    let opts = parse_args();
    match opts.child.as_deref() {
        Some("repro") => return repro::child_pipeline(opts.seed, opts.trace, started),
        Some("repro-setup") => return repro::child_setup(opts.seed),
        Some(_) => usage(),
        None => {}
    }
    if opts.workload == "all" || opts.runs > 1 {
        exit(orchestrate(&opts));
    }
    let outcome = match opts.workload.as_str() {
        "serve-tcp" => serve_child::run_tcp(&opts),
        "serve-stdio-batch" => serve_child::run_stdio(&opts),
        "serve-replicated" => replicated::run(&opts),
        "repro-quick" => repro::run(&opts),
        _ => usage(),
    };
    exit(report::emit(
        &opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        &outcome,
    ));
}

/// Run one workload in a fresh child process, passing its output through;
/// returns its exit code and every metric from the results file it wrote
/// (none if it failed).
fn run_child(workload: &str, opts: &Opts, trace: bool) -> (i32, BTreeMap<String, Metric>) {
    let exe = std::env::current_exe().expect("own executable path");
    let (seed, seconds) = (opts.seed.to_string(), opts.seconds.to_string());
    let path = report::results_dir().join(format!(
        "{workload}-seed{}-trace{}.json",
        opts.seed,
        u8::from(trace)
    ));
    // A file left by an earlier invocation must not stand in for a child
    // that dies before writing its own.
    let _ = std::fs::remove_file(&path);
    let status = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed,
            "--seconds",
            &seconds,
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .status()
        .expect("run a benchmark child");
    let code = status.code().unwrap_or(1);
    let mut metrics = BTreeMap::new();
    if let Some(v) = std::fs::read_to_string(path)
        .ok()
        .filter(|_| code == 0)
        .and_then(|text| serde_json::from_str::<serde_json::Value>(&text).ok())
    {
        for (name, m) in v
            .get("metrics")
            .and_then(|m| m.as_object())
            .into_iter()
            .flatten()
        {
            let value = m.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(|x| x.as_str()).unwrap_or("");
            metrics.insert(name.clone(), report::metric(name, value, unit));
        }
    }
    (code, metrics)
}

/// `--workload all` and `--runs N`: every run in its own process. With
/// more than one run, one traced run follows and a spread summary per
/// end-to-end metric is printed and written to
/// `results/benchmark/runs-seed<seed>.json`.
fn orchestrate(opts: &Opts) -> i32 {
    let workloads: Vec<&str> = if opts.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![opts.workload.as_str()]
    };
    let mut code = 0;
    let mut summary = Vec::new();
    for workload in workloads {
        if opts.runs == 1 {
            code |= run_child(workload, opts, opts.trace).0;
            continue;
        }
        let mut runs = Vec::new();
        for _ in 0..opts.runs {
            let (c, metrics) = run_child(workload, opts, false);
            code |= c;
            runs.push(metrics);
        }
        let (c, traced) = run_child(workload, opts, true);
        code |= c;
        summary.push((workload, spread_summary(workload, &runs, &traced)));
    }
    if !summary.is_empty() {
        let file = serde_json::Value::Object(
            summary
                .into_iter()
                .map(|(w, v)| (w.to_string(), v))
                .collect(),
        );
        let path = report::results_dir().join(format!("runs-seed{}.json", opts.seed));
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&file).expect("serialisable"),
        )
        .expect("write the runs summary");
        println!("wrote {}", path.display());
    }
    code
}

/// Print and return the per-metric median, quartiles and spread of a set
/// of runs, flagging any end-to-end metric whose (max − min)/median spread
/// exceeds its bound, plus the traced run's overhead on `p50_us`.
fn spread_summary(
    workload: &str,
    runs: &[BTreeMap<String, Metric>],
    traced: &BTreeMap<String, Metric>,
) -> serde_json::Value {
    let bounds: BTreeMap<String, f64> = report::bounds().into_iter().collect();
    let mut rows = Vec::new();
    for name in report::END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get(name).map(|m| m.value))
            .collect();
        if values.is_empty() {
            continue;
        }
        let med = stats::median(&values);
        let (q1, q3) = stats::quartiles(&values);
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        let spread = (max - min) / med;
        let iqr = (q3 - q1) / med;
        let bound = bounds[name];
        let flag = if spread > bound {
            "  FLAG: spread > bound"
        } else {
            ""
        };
        println!(
            "{workload} {name} median={med:.6} q1={q1:.6} q3={q3:.6} spread={:.2}% iqr={:.2}% \
             bound={:.0}%{flag}",
            spread * 100.0,
            iqr * 100.0,
            bound * 100.0
        );
        rows.push((
            name.to_string(),
            serde_json::json!({
                "values": values,
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "iqr": iqr,
                "bound": bound,
                "flagged": spread > bound,
            }),
        ));
    }
    let untraced_p50: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.get("p50_us").map(|m| m.value))
        .collect();
    let overhead = match (traced.get("p50_us"), untraced_p50.is_empty()) {
        (Some(t), false) => {
            let base = stats::median(&untraced_p50);
            println!(
                "{workload} tracing_overhead.p50_us {:.3} us ({:+.2}%)",
                t.value - base,
                (t.value / base - 1.0) * 100.0
            );
            t.value - base
        }
        _ => f64::NAN,
    };
    serde_json::json!({
        "runs": runs.len(),
        "end_to_end": serde_json::Value::Object(rows),
        "tracing_overhead_p50_us": overhead,
        "traced_run": report::metrics_object(&traced.values().collect::<Vec<_>>()),
    })
}
