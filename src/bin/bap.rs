//! `bap` — command-line front end for the bank-aware partitioning library.
//!
//! ```text
//! bap workloads                       list the SPEC CPU2000 analogues
//! bap profile <name> [--scale N]      print a workload's miss-ratio curve
//! bap partition <name>...             run the Bank-aware algorithm on a mix
//! bap simulate <name>... [options]    full detailed simulation of a mix
//!     --policy none|equal|bank-aware  (default bank-aware)
//!     --scale N                       geometry divisor (default 8)
//!     --instructions N                measured instructions/core (default 2000000)
//!     --seed N                        (default 42)
//!     --json FILE                     write the result as JSON
//! bap record <name> <file>            record a workload's op trace to a file
//!     --instructions N                trace length (default 1000000)
//! bap replay <file> x8 [options]      simulate a mix of recorded traces
//! bap serve [options]                 long-lived partitioning-decision service
//!     --listen ADDR                   serve the JSONL protocol over TCP
//!                                     (default: stdin/stdout JSONL; a blank
//!                                     line flushes the pending batch)
//!     --checkpoint FILE               restore from FILE at startup if present;
//!                                     Checkpoint requests persist to it
//!     --scale N                       geometry divisor for Profile requests
//!     --overload on|off               enable overload regulation with the
//!                                     tuned defaults (any knob below implies on)
//!     --queue-depth N                 requests admitted per tick (0 = unlimited)
//!     --inflight N                    per-session admissions per tick (0 = unl.)
//!     --tick-budget-ms N              wall-clock budget per tick (0 = unlimited)
//!     --brownout-enter N              over-budget ticks before browning out
//!     --brownout-exit N               calm ticks before stepping back up
//!     --replication on|off            run as a replicating primary (requires
//!                                     --listen): stamp the fencing term on
//!                                     every response, log and ship every
//!                                     committed batch to followers
//!     --replica-of ADDR               run as a follower of the primary at ADDR
//!                                     (requires --listen): replay its log,
//!                                     refuse writes with `not-primary`
//!     --promote-on-loss on|off        follower only: promote to primary when
//!                                     the primary's stream dies (default off)
//! ```
//!
//! `bap serve` only parses flags here: both transports — the stdio loop
//! (`net::serve_stdio`) and the TCP front end (`net::serve_tcp`) — live in
//! `bap-core` and run its one tick step. The binary contributes the
//! `Profile` resolver, which needs the workload catalog.

use bankaware::msa::ProfilerConfig;
use bankaware::partitioning::{
    bank_aware_partition, net, BankAwareConfig, DecisionService, Policy, ServeConfig,
};
use bankaware::system::sim::OpStream;
use bankaware::system::{profile_workloads, SimOptions, System};
use bankaware::trace::wire;
use bankaware::types::{CoreId, OverloadConfig, ReplicationConfig, SystemConfig, Topology};
use bankaware::workloads::trace::{replay, LoopedTrace};
use bankaware::workloads::{spec_by_name, workload_names, WorkloadSpec};
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage:\n  bap workloads\n  bap profile <name> [--scale N]\n  \
         bap partition <name> x8 [--scale N] [--seed N]\n  \
         bap simulate <name> x8 [--policy none|equal|bank-aware] [--scale N] \
         [--instructions N] [--seed N] [--json FILE]\n  \
         bap record <name> <file> [--instructions N] [--seed N]\n  \
         bap replay <file> x8 [--policy ...] [--scale N] [--instructions N]\n  \
         bap serve [--listen ADDR] [--checkpoint FILE] [--scale N] [--overload on] \
         [--queue-depth N] [--inflight N] [--tick-budget-ms N] \
         [--brownout-enter N] [--brownout-exit N] \
         [--replication on] [--replica-of ADDR] [--promote-on-loss on]"
    );
    exit(2)
}

/// Minimal flag parser: returns (positional args, flag lookups).
struct Flags(Vec<(String, String)>);

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn u64(&self, name: &str, default: u64) -> u64 {
        self.get(name).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--{name} expects an integer, got {v:?}");
                exit(2)
            })
        })
    }
}

fn parse(args: &[String]) -> (Vec<String>, Flags) {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            i += 1;
            if i >= args.len() {
                eprintln!("--{name} expects a value");
                exit(2);
            }
            flags.push((name.to_string(), args[i].clone()));
        } else {
            positional.push(args[i].clone());
        }
        i += 1;
    }
    (positional, Flags(flags))
}

/// The detailed-simulation options of `simulate` and `replay`: policy,
/// geometry, instruction budget (half of it warm-up and one epoch), seed.
fn sim_flags(flags: &Flags, default_instructions: u64) -> SimOptions {
    let policy = match flags.get("policy").unwrap_or("bank-aware") {
        "none" => Policy::NoPartition,
        "equal" => Policy::Equal,
        "bank-aware" => Policy::BankAware,
        other => {
            eprintln!("unknown policy {other:?}");
            exit(2)
        }
    };
    let mut opts = SimOptions::new(SystemConfig::scaled(flags.u64("scale", 8)), policy);
    opts.measure_instructions = flags.u64("instructions", default_instructions);
    opts.warmup_instructions = opts.measure_instructions / 2;
    opts.config.epoch_cycles = opts.measure_instructions / 2;
    opts.seed = flags.u64("seed", 42);
    opts
}

fn resolve_mix(names: &[String]) -> Vec<WorkloadSpec> {
    if names.len() != 8 {
        eprintln!(
            "expected 8 workload names (one per core), got {}",
            names.len()
        );
        exit(2);
    }
    names
        .iter()
        .map(|n| {
            spec_by_name(n).unwrap_or_else(|| {
                eprintln!("unknown workload {n:?}; run `bap workloads` for the catalog");
                exit(2)
            })
        })
        .collect()
}

fn cmd_workloads() {
    println!(
        "{:<10} {:>8} {:>10} {:>11} {:>9}",
        "name", "mem%", "L2 apki", "appetite", "scans"
    );
    for name in workload_names() {
        let w = spec_by_name(&name).expect("catalog");
        let appetite = w
            .components
            .iter()
            .map(|c| c.hi_ways)
            .chain(w.scans.iter().map(|s| s.ways))
            .fold(0.0f64, f64::max);
        println!(
            "{:<10} {:>7.0}% {:>10.1} {:>8.0} ways {:>9}",
            w.name,
            100.0 * w.mem_fraction,
            w.l2_apki(0.5),
            appetite,
            if w.scans.is_empty() { "no" } else { "yes" }
        );
    }
}

fn cmd_profile(names: &[String], flags: &Flags) {
    let name = names.first().unwrap_or_else(|| usage());
    let spec = spec_by_name(name).unwrap_or_else(|| {
        eprintln!("unknown workload {name:?}");
        exit(2)
    });
    let cfg = SystemConfig::scaled(flags.u64("scale", 8));
    let pcfg = ProfilerConfig::reference(cfg.l2_bank_sets(), 72);
    let curve = profile_workloads(
        std::slice::from_ref(&spec),
        &cfg,
        pcfg,
        flags.u64("instructions", 10_000_000),
        flags.u64("seed", 42),
    )
    .remove(0);
    println!("{name}: projected L2 miss ratio vs dedicated ways");
    for w in [1usize, 2, 4, 6, 8, 12, 16, 24, 32, 40, 48, 56, 64, 72] {
        let bar_len = (curve.miss_ratio_at(w) * 50.0).round() as usize;
        println!(
            "{w:>4} ways  {:>6.3}  {}",
            curve.miss_ratio_at(w),
            "#".repeat(bar_len)
        );
    }
}

fn cmd_partition(names: &[String], flags: &Flags) {
    let specs = resolve_mix(names);
    let cfg = SystemConfig::scaled(flags.u64("scale", 8));
    let pcfg = ProfilerConfig::reference(cfg.l2_bank_sets(), 72);
    let curves = profile_workloads(
        &specs,
        &cfg,
        pcfg,
        flags.u64("instructions", 10_000_000),
        flags.u64("seed", 42),
    );
    let plan = bank_aware_partition(
        &curves,
        &Topology::baseline(),
        8,
        &BankAwareConfig::default(),
    );
    println!("bank-aware assignment:");
    for (c, name) in names.iter().enumerate() {
        let allocs: Vec<String> = plan.per_core[c]
            .iter()
            .map(|a| format!("{}x{}", a.bank, a.ways))
            .collect();
        println!(
            "  core{c} {:<10} {:>3} ways  [{}]",
            name,
            plan.ways_of(CoreId(c as u16)),
            allocs.join(", ")
        );
    }
}

fn cmd_simulate(names: &[String], flags: &Flags) {
    let specs = resolve_mix(names);
    let opts = sim_flags(flags, 2_000_000);
    let policy = opts.policy;
    let result = System::new(opts, specs).run();

    println!("policy: {policy:?}");
    println!(
        "{:<6} {:<10} {:>10} {:>10} {:>8} {:>8}",
        "core", "workload", "L2 acc", "L2 miss", "ratio", "CPI"
    );
    for (c, name) in names.iter().enumerate() {
        let s = &result.per_core[c];
        println!(
            "{:<6} {:<10} {:>10} {:>10} {:>8.3} {:>8.2}",
            format!("core{c}"),
            name,
            s.l2.accesses(),
            s.l2.misses,
            s.l2.miss_ratio(),
            s.cpi()
        );
    }
    println!(
        "\ntotal: {} misses, miss ratio {:.3}, mean CPI {:.2}, {} epochs",
        result.total_l2_misses(),
        result.l2_miss_ratio(),
        result.mean_cpi(),
        result.epochs
    );
    if let Some(plan) = &result.final_plan {
        let ways: Vec<usize> = (0..8).map(|c| plan.ways_of(CoreId(c))).collect();
        println!("final ways per core: {ways:?}");
    }
    if let Some(path) = flags.get("json") {
        let summary = serde_json::json!({
            "policy": format!("{policy:?}"),
            "per_core": result.per_core,
            "total_misses": result.total_l2_misses(),
            "miss_ratio": result.l2_miss_ratio(),
            "mean_cpi": result.mean_cpi(),
            "epochs": result.epochs,
        });
        std::fs::write(
            path,
            serde_json::to_string_pretty(&summary).expect("serialise"),
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1)
        });
        println!("wrote {path}");
    }
}

fn cmd_record(names: &[String], flags: &Flags) {
    let (name, path) = match names {
        [n, p] => (n, p),
        _ => usage(),
    };
    let spec = spec_by_name(name).unwrap_or_else(|| {
        eprintln!("unknown workload {name:?}");
        exit(2)
    });
    let cfg = SystemConfig::scaled(flags.u64("scale", 8));
    let budget = flags.u64("instructions", 1_000_000);
    let mut stream = bankaware::workloads::AddressStream::new(
        spec,
        cfg.l2_bank_sets() as u64,
        1,
        flags.u64("seed", 42),
    );
    let mut ops = Vec::new();
    let mut executed = 0u64;
    while executed < budget {
        let op = stream.next().expect("infinite");
        executed += op.instructions();
        ops.push(op);
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        exit(1)
    }));
    bankaware::workloads::trace::record(ops, &mut file).expect("write trace");
    println!("recorded {budget} instructions of {name} to {path}");
}

fn cmd_replay(names: &[String], flags: &Flags) {
    if names.len() != 8 {
        eprintln!("expected 8 trace files (one per core), got {}", names.len());
        exit(2);
    }
    let streams: Vec<OpStream> = names
        .iter()
        .map(|path| {
            let file = std::fs::File::open(path).unwrap_or_else(|e| {
                eprintln!("cannot open {path}: {e}");
                exit(1)
            });
            let ops: Vec<_> = replay(std::io::BufReader::new(file))
                .collect::<Result<_, _>>()
                .unwrap_or_else(|e| {
                    eprintln!("corrupt trace {path}: {e}");
                    exit(1)
                });
            Box::new(LoopedTrace::new(ops)) as OpStream
        })
        .collect();
    let result = System::with_streams(sim_flags(flags, 1_000_000), streams).run();
    println!(
        "replayed: {} misses, miss ratio {:.3}, mean CPI {:.2}",
        result.total_l2_misses(),
        result.l2_miss_ratio(),
        result.mean_cpi()
    );
}

/// Resolve a `Profile` request against the workload catalog — the one
/// request kind the service can't serve, because the catalog and the
/// profiling pipeline live in `bap-system`/`bap-workloads`. Both
/// transports of `bap serve` answer it through this resolver.
fn serve_profile(
    workloads: &[String],
    instructions: u64,
    seed: u64,
    scale: u64,
) -> wire::ResponseKind {
    let mut specs = Vec::with_capacity(workloads.len());
    for name in workloads {
        match spec_by_name(name) {
            Some(spec) => specs.push(spec),
            None => {
                return wire::ResponseKind::error(
                    "bad_request",
                    format!("unknown workload {name:?}; run `bap workloads` for the catalog"),
                )
            }
        }
    }
    if specs.is_empty() {
        return wire::ResponseKind::error("bad_request", "no workloads named");
    }
    let cfg = SystemConfig::scaled(scale);
    let pcfg = ProfilerConfig::reference(cfg.l2_bank_sets(), 72);
    let curves = profile_workloads(&specs, &cfg, pcfg, instructions.max(1), seed);
    wire::ResponseKind::Profiled {
        curves: curves
            .iter()
            .map(|c| wire::WireCurve {
                accesses: c.accesses(),
                misses: (0..=c.max_ways()).map(|w| c.misses_at(w)).collect(),
            })
            .collect(),
    }
}

/// The overload regulation requested on the command line: `--overload on`
/// (or any individual knob) enables the layer with the tuned defaults,
/// individual knobs override from there. No flag at all leaves the
/// service unregulated — byte-identical to the pre-overload server.
fn overload_flags(flags: &Flags) -> Option<OverloadConfig> {
    let knobs = [
        "queue-depth",
        "inflight",
        "tick-budget-ms",
        "brownout-enter",
        "brownout-exit",
    ];
    let enabled = match flags.get("overload") {
        Some("on") => true,
        Some("off") => return None,
        Some(other) => {
            eprintln!("--overload expects on|off, got {other:?}");
            exit(2)
        }
        None => knobs.iter().any(|k| flags.get(k).is_some()),
    };
    if !enabled {
        return None;
    }
    let d = OverloadConfig::default();
    Some(OverloadConfig {
        max_queue_depth: flags.u64("queue-depth", d.max_queue_depth as u64) as usize,
        max_session_inflight: flags.u64("inflight", d.max_session_inflight as u64) as usize,
        tick_budget_ms: flags.u64("tick-budget-ms", d.tick_budget_ms),
        brownout_enter_ticks: flags.u64("brownout-enter", u64::from(d.brownout_enter_ticks)) as u32,
        brownout_exit_ticks: flags.u64("brownout-exit", u64::from(d.brownout_exit_ticks)) as u32,
    })
}

/// The replication role requested on the command line. `--replica-of`
/// makes a follower; `--replication on` makes a replicating primary; no
/// flag leaves the service unreplicated — byte-identical to the
/// pre-replication server.
fn replication_flags(flags: &Flags) -> (Option<ReplicationConfig>, Option<(String, bool)>) {
    let on_off = |name: &str| match flags.get(name) {
        Some("on") => true,
        Some("off") | None => false,
        Some(other) => {
            eprintln!("--{name} expects on|off, got {other:?}");
            exit(2)
        }
    };
    let promote_on_loss = on_off("promote-on-loss");
    let primary = on_off("replication");
    match flags.get("replica-of") {
        Some(addr) => {
            if primary {
                eprintln!("--replica-of and --replication on are mutually exclusive");
                exit(2);
            }
            let cfg = ReplicationConfig {
                follower: true,
                ..ReplicationConfig::default()
            };
            (Some(cfg), Some((addr.to_string(), promote_on_loss)))
        }
        None => {
            if promote_on_loss {
                eprintln!("--promote-on-loss needs --replica-of");
                exit(2);
            }
            (primary.then(ReplicationConfig::default), None)
        }
    }
}

fn cmd_serve(flags: &Flags) {
    let listen = flags.get("listen");
    let mut cfg = ServeConfig::default();
    if let Some(path) = flags.get("checkpoint") {
        cfg.checkpoint_path = Some(std::path::PathBuf::from(path));
    }
    cfg.overload = overload_flags(flags);
    let (replication, replica_of) = replication_flags(flags);
    if replication.is_some() && listen.is_none() {
        // A stdio primary has no listener for a follower to subscribe
        // on, and a follower serves its clients over TCP.
        let flag = if replica_of.is_some() {
            "--replica-of"
        } else {
            "--replication on"
        };
        eprintln!("{flag} needs --listen: replicas ship and serve over TCP");
        exit(2);
    }
    cfg.replication = replication;
    let mut service = DecisionService::new(cfg);
    if let Some(path) = flags.get("checkpoint") {
        let path = std::path::Path::new(path);
        if path.exists() {
            match service.restore_from_path(path) {
                Ok(tick) => eprintln!(
                    "restored {} session(s) at tick {tick} from {}",
                    service.num_sessions(),
                    path.display()
                ),
                Err(e) => {
                    eprintln!("cannot restore {}: {e}", path.display());
                    exit(1)
                }
            }
        }
    }
    let scale = flags.u64("scale", 8);
    let profile: Arc<net::ProfileFn> =
        Arc::new(move |workloads: &[String], instructions: u64, seed: u64| {
            serve_profile(workloads, instructions, seed, scale)
        });
    match listen {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
                eprintln!("cannot listen on {addr}: {e}");
                exit(1)
            });
            let local = listener.local_addr().expect("bound socket has an address");
            eprintln!("bap serve listening on {local}");
            net::serve_tcp(service, listener, profile, replica_of);
        }
        None => {
            let output = std::io::BufWriter::new(std::io::stdout().lock());
            if let Err(e) = net::serve_stdio(service, std::io::stdin().lock(), output, &*profile) {
                eprintln!("stdio transport failed: {e}");
                exit(1)
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        usage()
    };
    let (positional, flags) = parse(&args[1..]);
    match command.as_str() {
        "workloads" => cmd_workloads(),
        "profile" => cmd_profile(&positional, &flags),
        "partition" => cmd_partition(&positional, &flags),
        "simulate" => cmd_simulate(&positional, &flags),
        "record" => cmd_record(&positional, &flags),
        "replay" => cmd_replay(&positional, &flags),
        "serve" => cmd_serve(&flags),
        _ => usage(),
    }
}
