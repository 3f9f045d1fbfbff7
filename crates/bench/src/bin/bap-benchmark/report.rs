//! Metric names, the printed report, and the files a run leaves in
//! `results/benchmark/`.

use crate::check::Checks;
use crate::spans::Spans;
use crate::stats::{median, Latency};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::PathBuf;

/// The benchmark definition this binary reports against.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// End-to-end metrics: every untraced run reports all of them.
pub const END_TO_END: [&str; 5] = [
    "decisions_per_s",
    "p50_us",
    "p99_us",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics: every traced run reports all of them.
pub const PER_LAYER: [&str; 22] = [
    "wire.decode_us.p50",
    "wire.decode_us.p99",
    "wire.decode_ns_per_byte",
    "wire.request_bytes",
    "wire.encode_us.p50",
    "serve.queue_rtt_us.p50",
    "serve.process_batch_us.p50",
    "serve.process_batch_us.p99",
    "serve.batch_size",
    "governor.gate_us.p50",
    "controller.epoch_us.p50",
    "controller.epoch_us.p99",
    "bank_aware.solve_us.p50",
    "bank_aware.validate_us.p50",
    "incremental.warm_hit_ratio",
    "replication.log_batch_us.p50",
    "replication.log_batch_us.p99",
    "replication.replay_us.p50",
    "recovery.checkpoint_us",
    "recovery.checkpoint_bytes",
    "process.cpu_ms_per_decision",
    "pool.cpu_util",
];

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

pub fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// The [`END_TO_END`] metrics, in order, with the sample count (printed,
/// not part of the result line).
pub fn end_to_end(
    decisions_per_s: f64,
    lat: &Latency,
    setups: &[f64],
    peak_rss_mb: f64,
) -> (Vec<Metric>, Metric) {
    let e2e = vec![
        metric("decisions_per_s", decisions_per_s, "1/s"),
        metric("p50_us", lat.p50, "us"),
        metric("p99_us", lat.p99, "us"),
        metric("setup_s", median(setups), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    (e2e, metric("samples", lat.count as f64, "count"))
}

/// Everything one workload run produced.
pub struct Outcome {
    /// The [`END_TO_END`] metrics.
    pub e2e: Vec<Metric>,
    /// The [`PER_LAYER`] metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Workload-specific diagnostics: printed and written, not part of the
    /// result line.
    pub extra: Vec<Metric>,
    /// Operations attempted (requests sent; mixes and runs for repro).
    pub attempted: u64,
    pub checks: Checks,
    pub spans: Spans,
}

/// Where a run's files go (relative to the working directory, which is the
/// repository root).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results/benchmark");
    std::fs::create_dir_all(&dir).expect("create results/benchmark");
    dir
}

/// The command that reproduces a run.
pub fn repro_command(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    format!(
        "bash crates/bench/src/bin/bap-benchmark/run.sh --workload {workload} --seed {seed} \
         --seconds {seconds} --trace {}",
        u8::from(trace)
    )
}

/// `{name: {"value", "unit"}}`, the result line's shape.
pub fn metrics_object(metrics: &[&Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    serde_json::json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect(),
    )
}

/// Print the report, write its files, and return the process exit code.
pub fn emit(workload: &str, seed: u64, seconds: u64, trace: bool, out: &Outcome) -> i32 {
    let required: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    let reported = if trace { &out.layers } else { &out.e2e };
    let names: Vec<&str> = reported.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names, required,
        "{workload} must report exactly the defined metrics"
    );

    // Failed, garbled, typed-error or shed answers per request sent. Not
    // an end-to-end metric because it is 0 on every correct run; the
    // result line carries it as `failed` / `attempted`.
    let error_rate = metric(
        "error_rate",
        out.checks.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    let all: Vec<&Metric> = out
        .e2e
        .iter()
        .chain(&out.layers)
        .chain(&out.extra)
        .chain([&error_rate])
        .collect();
    for m in &all {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    let correct = out.checks.failures.is_empty();
    for why in &out.checks.failures {
        eprintln!("CHECK FAILED [{workload}]: {why}");
    }

    let dir = results_dir();
    let stem = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
    let file = serde_json::json!({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.checks.failed,
        "failures": out.checks.failures,
        "metrics": metrics_object(&all),
    });
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&file).expect("serialisable"),
    )
    .expect("write the run's results file");
    if trace && !out.spans.spans.is_empty() {
        let spans = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
        out.spans
            .write_jsonl(&spans)
            .expect("write the run's span file");
    }
    if !correct {
        let why = out.checks.failures.first().cloned().unwrap_or_default();
        let path = PathBuf::from("results/benchmark_failing_seed.txt");
        let body = format!(
            "seed={seed}\nworkload={workload}\nviolation={why}\nreproduce: {}\n",
            repro_command(workload, seed, seconds, trace)
        );
        std::fs::write(&path, body).expect("write the failing-seed file");
        eprintln!("failing seed written to {}", path.display());
    }

    let line = serde_json::json!({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.checks.failed,
        "metrics": metrics_object(&reported.iter().collect::<Vec<_>>()),
    });
    println!("{}", serde_json::to_string(&line).expect("serialisable"));
    i32::from(!correct)
}

/// `(name, bound)` of every end-to-end metric in the benchmark definition.
pub fn bounds() -> Vec<(String, f64)> {
    let def: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    def.get("end_to_end")
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists end_to_end metrics")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).expect("metric name");
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .expect("metric bound");
            (name.to_string(), bound)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(section: &str) -> Vec<String> {
        let def: Value = serde_json::from_str(BENCHMARK_JSON).expect("parses");
        def.get(section)
            .and_then(Value::as_array)
            .expect("section")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn the_definition_lists_exactly_what_runs_report() {
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        let workloads = names("workloads");
        assert_eq!(workloads, crate::WORKLOADS);
        assert!(bounds().iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
    }
}
