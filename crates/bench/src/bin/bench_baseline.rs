//! Machine-readable performance baseline of the profiling stack.
//!
//! Times `StackProfiler::observe` for both stack-distance engines and
//! writes the numbers to `results/BENCH_profiler.json` so the perf
//! trajectory is comparable across PRs without scraping bench output.
//!
//! Two access patterns are measured:
//!
//! * **deep-reuse** — every sampled set holds `K` resident tags and each
//!   access hits the deepest one (stack distance `K − 1`). All profiler
//!   state is cache-resident, so this isolates engine *compute* cost at
//!   the paper's reference depth — the case the Fenwick engine's
//!   `O(log K)` prefix sum accelerates over the naive `O(K)` scan, and
//!   the acceptance number for this repo (`speedup_at_reference_depth`,
//!   must stay ≥ 3 for K ≥ 72).
//! * **uniform** — pseudo-random blocks over a 300 k-block footprint.
//!   This spreads accesses over every set's stack and is dominated by
//!   memory latency, not engine arithmetic; it is recorded as the
//!   end-to-end sanity number, not the engine comparison.
//!
//! Runs are noisy on shared hosts, so every measurement is best-of-N
//! repetitions (2 quick / 5 full).
//!
//! ```sh
//! cargo run --release -p bap-bench --bin bench_baseline            # full windows
//! cargo run --release -p bap-bench --bin bench_baseline -- --quick # smoke
//! ```

use bap_bench::common::{write_json, Args};
use bap_core::{bank_aware_partition, BankAwareConfig};
use bap_msa::{EngineKind, MissRatioCurve, ProfilerConfig, StackProfiler};
use bap_types::{BlockAddr, Topology};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// One engine × configuration measurement.
#[derive(Serialize)]
struct EngineRow {
    config: String,
    engine: String,
    ns_per_access: f64,
    accesses: u64,
}

/// The persisted `BENCH_profiler.json` payload.
#[derive(Serialize)]
struct BenchProfiler {
    rows: Vec<EngineRow>,
    /// naive / fenwick ns-per-access, deep-reuse pattern at K = 72.
    speedup_reference_k72: f64,
    /// naive / fenwick ns-per-access, deep-reuse pattern at K = 128.
    speedup_reference_k128: f64,
    /// The acceptance number: best engine speedup at reference depth
    /// (K ≥ 72), i.e. the max of the two rows above. Must stay ≥ 3.
    speedup_at_reference_depth: f64,
    /// One full Bank-aware allocation on 8 curves, microseconds.
    partition_decision_us: f64,
    quick: bool,
}

/// The block whose tag is `t` in set `s`.
fn block(t: u64, s: usize, num_sets: usize) -> BlockAddr {
    BlockAddr((t << num_sets.trailing_zeros()) | s as u64)
}

/// Deep-reuse pattern: populate each set with `k` tags, then cycle them in
/// insertion order so every access hits at stack distance `k − 1`. Returns
/// best-of-`reps` ns/access over `rounds` measured passes.
fn time_observe_deep(cfg: ProfilerConfig, rounds: u32, reps: u32) -> f64 {
    let (sets, k) = (cfg.num_sets, cfg.max_ways);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut p = StackProfiler::new(cfg);
        // Populate: tag-major order leaves tag k−1 at the top of every
        // stack, so cycling t = 0, 1, … afterwards always hits the bottom.
        for t in 0..k as u64 {
            for s in 0..sets {
                p.observe(block(t, s, sets));
            }
        }
        // One untimed round to reach the steady state.
        for s in 0..sets {
            for t in 0..k as u64 {
                p.observe(block(t, s, sets));
            }
        }
        let accesses = (rounds as u64) * (sets as u64) * (k as u64);
        let start = Instant::now();
        for _ in 0..rounds {
            for s in 0..sets {
                for t in 0..k as u64 {
                    p.observe(black_box(block(t, s, sets)));
                }
            }
        }
        let elapsed = start.elapsed();
        black_box(p.histogram());
        best = best.min(elapsed.as_nanos() as f64 / accesses as f64);
    }
    best
}

/// Uniform pattern: `accesses` pseudo-random blocks over a 300 k-block
/// footprint. Best-of-`reps` ns/access.
fn time_observe_uniform(cfg: ProfilerConfig, accesses: u64, reps: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut p = StackProfiler::new(cfg);
        let mut i = 0u64;
        // Warm the stacks so steady-state cost is measured, not cold misses.
        for _ in 0..accesses / 4 {
            i = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            p.observe(BlockAddr(i % 300_000));
        }
        let start = Instant::now();
        for _ in 0..accesses {
            i = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            p.observe(black_box(BlockAddr(i % 300_000)));
        }
        let elapsed = start.elapsed();
        black_box(p.histogram());
        best = best.min(elapsed.as_nanos() as f64 / accesses as f64);
    }
    best
}

fn time_partition_decision(iterations: u64) -> f64 {
    let curves: Vec<MissRatioCurve> = (0..8)
        .map(|c| {
            let knee = 8 + 6 * c;
            let misses = (0..=128)
                .map(|w| {
                    if w >= knee {
                        50.0
                    } else {
                        5000.0 - (5000.0 - 50.0) * w as f64 / knee as f64
                    }
                })
                .collect();
            MissRatioCurve::from_misses(misses, 5000.0)
        })
        .collect();
    let topo = Topology::baseline();
    let cfg = BankAwareConfig::default();
    let start = Instant::now();
    for _ in 0..iterations {
        black_box(bank_aware_partition(black_box(&curves), &topo, 8, &cfg));
    }
    start.elapsed().as_nanos() as f64 / iterations as f64 / 1000.0
}

fn main() {
    let args = Args::parse();
    let reps: u32 = if args.quick { 2 } else { 5 };
    let rounds: u32 = if args.quick { 2 } else { 4 };
    let accesses: u64 = if args.quick { 300_000 } else { 3_000_000 };
    let decisions: u64 = if args.quick { 20 } else { 200 };

    let mut rows = Vec::new();
    let mut deep = [[0.0f64; 2]; 2];
    for (d, (label, cfg)) in [
        ("deep_k72", ProfilerConfig::reference(2048, 72)),
        ("deep_k128", ProfilerConfig::reference(2048, 128)),
    ]
    .into_iter()
    .enumerate()
    {
        for (e, engine) in [EngineKind::Naive, EngineKind::Fenwick]
            .into_iter()
            .enumerate()
        {
            let ns = time_observe_deep(cfg.with_engine(engine), rounds, reps);
            println!("{label:<16} {engine:?}: {ns:8.2} ns/access");
            deep[d][e] = ns;
            rows.push(EngineRow {
                config: label.to_string(),
                engine: format!("{engine:?}"),
                ns_per_access: ns,
                accesses: (rounds as u64) * 2048 * cfg.max_ways as u64,
            });
        }
    }
    for (label, cfg) in [
        ("uniform_k72", ProfilerConfig::reference(2048, 72)),
        ("paper_hardware", ProfilerConfig::paper_hardware(2048)),
    ] {
        for engine in [EngineKind::Naive, EngineKind::Fenwick] {
            let ns = time_observe_uniform(cfg.with_engine(engine), accesses, reps);
            println!("{label:<16} {engine:?}: {ns:8.2} ns/access");
            rows.push(EngineRow {
                config: label.to_string(),
                engine: format!("{engine:?}"),
                ns_per_access: ns,
                accesses,
            });
        }
    }
    let speedup_k72 = deep[0][0] / deep[0][1];
    let speedup_k128 = deep[1][0] / deep[1][1];
    let partition_us = time_partition_decision(decisions);
    println!("deep-reuse K=72  speedup (naive/fenwick): {speedup_k72:.2}x");
    println!("deep-reuse K=128 speedup (naive/fenwick): {speedup_k128:.2}x");
    println!("bank-aware partition decision: {partition_us:.1} us");

    let out = BenchProfiler {
        rows,
        speedup_reference_k72: speedup_k72,
        speedup_reference_k128: speedup_k128,
        speedup_at_reference_depth: speedup_k72.max(speedup_k128),
        partition_decision_us: partition_us,
        quick: args.quick,
    };
    let path = write_json("BENCH_profiler", &out);
    println!("wrote {}", path.display());
}
