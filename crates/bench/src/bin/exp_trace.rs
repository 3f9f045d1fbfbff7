//! exp_trace — decision-trace dump + offline replay gate for the canonical
//! Fig. 7 mix (mcf, twolf, art, sixtrack, gcc, gap, vpr, eon).
//!
//! Runs the traced analytic profiler and the detailed simulator under
//! Bank-aware partitioning with a JSONL sink attached, then:
//!
//! 1. writes the raw event ledger to `results/trace_fig7.jsonl`;
//! 2. re-parses it through [`bap_trace::parse_jsonl`], failing on any
//!    schema-invalid line, non-increasing sequence number or backwards
//!    epoch;
//! 3. **replays** every Bank-aware solve offline: rebuilds each epoch's
//!    sanitized curves from their [`EventKind::CurveSnapshot`] payloads,
//!    re-runs the allocation algorithm, and requires the replayed way
//!    assignment to match the recorded `AssignmentComputed` *and* the
//!    `PlanInstalled` that follows, exactly;
//! 4. writes the per-run decision summary to `results/trace_summary.json`.
//!
//! Any divergence exits non-zero — this is the CI gate proving the trace
//! is a faithful, self-sufficient record of the controller's decisions.

use bap_bench::common::{results_dir, write_json, Args};
use bap_core::{try_bank_aware_partition, BankAwareConfig, Policy};
use bap_msa::{MissRatioCurve, ProfilerConfig};
use bap_system::{profile_workloads_traced, SimOptions, System};
use bap_trace::{parse_jsonl, EventKind, TraceEvent, TraceSummary, Tracer};
use bap_types::{BankId, BankMask, CoreId, DegradedTopology, SystemConfig, Topology};
use bap_workloads::{spec_by_name, WorkloadSpec};
use serde::Serialize;
use std::collections::BTreeMap;

/// The canonical Fig. 7 mix: four cache-hungry SPEC analogues and four
/// modest ones, the paper's showcase skew.
const MIX: [&str; 8] = [
    "mcf", "twolf", "art", "sixtrack", "gcc", "gap", "vpr", "eon",
];

#[derive(Serialize)]
struct TraceReport {
    mix: Vec<String>,
    events: usize,
    jsonl_bytes: usize,
    solves_replayed: usize,
    replayed_exactly: bool,
    stage_nanos: BTreeMap<String, u64>,
    summary: TraceSummary,
}

fn mix_specs() -> Vec<WorkloadSpec> {
    MIX.iter()
        .map(|n| spec_by_name(n).expect("catalog"))
        .collect()
}

/// Replay every Bank-aware solve recorded in `events` and check each
/// against the `AssignmentComputed` / `PlanInstalled` events that follow.
/// Returns the number of solves replayed, or an error naming the first
/// divergence.
fn replay_solves(events: &[TraceEvent], cfg: &SystemConfig) -> Result<usize, String> {
    let topo = Topology::new(cfg.num_cores, cfg.l2_min_latency, cfg.l2_max_latency);
    let bank_ways = cfg.l2.bank.ways;
    let ba_cfg = BankAwareConfig::default();
    let mut mask = BankMask::all_healthy(cfg.l2.num_banks);
    // Latest sanitized curve snapshot per core, within the current epoch.
    let mut snapshots: Vec<Option<MissRatioCurve>> = vec![None; cfg.num_cores];
    let mut replayed = 0usize;
    // The assignment awaiting its PlanInstalled confirmation.
    let mut pending_install: Option<(u64, Vec<usize>)> = None;

    for ev in events {
        match &ev.kind {
            EventKind::EpochBegin => snapshots = vec![None; cfg.num_cores],
            EventKind::CurveSnapshot {
                core,
                accesses,
                misses,
            } if ev.epoch > 0 => {
                // Epoch 0 holds the analytic profiles, which feed no solve.
                snapshots[*core] = Some(MissRatioCurve::from_misses(misses.clone(), *accesses));
            }
            EventKind::BankOffline { bank, .. } => {
                mask.disable(BankId(*bank as u16));
            }
            EventKind::BankRestored { bank } => {
                mask.enable(BankId(*bank as u16));
            }
            EventKind::AssignmentComputed { policy, ways } if policy == "bank_aware" => {
                let curves: Vec<MissRatioCurve> = snapshots
                    .iter()
                    .map(|s| {
                        s.clone().ok_or_else(|| {
                            format!("epoch {}: solve without a full curve set", ev.epoch)
                        })
                    })
                    .collect::<Result<_, _>>()?;
                let machine = DegradedTopology::new(topo.clone(), mask);
                let plan = try_bank_aware_partition(&curves, &machine, bank_ways, &ba_cfg)
                    .map_err(|e| format!("epoch {}: replayed solve failed: {e}", ev.epoch))?;
                let replayed_ways: Vec<usize> = (0..cfg.num_cores)
                    .map(|c| plan.ways_of(CoreId(c as u16)))
                    .collect();
                if &replayed_ways != ways {
                    return Err(format!(
                        "epoch {}: replayed assignment {replayed_ways:?} != recorded {ways:?}",
                        ev.epoch
                    ));
                }
                replayed += 1;
                pending_install = Some((ev.epoch, ways.clone()));
            }
            EventKind::PlanInstalled { ways, .. } => {
                if let Some((epoch, expected)) = pending_install.take() {
                    if ways != &expected {
                        return Err(format!(
                            "epoch {epoch}: installed plan {ways:?} != computed assignment \
                             {expected:?}"
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    if replayed == 0 {
        return Err("trace contains no Bank-aware solves to replay".to_string());
    }
    Ok(replayed)
}

fn main() {
    let args = Args::parse();
    let cfg = SystemConfig::scaled(args.scale.max(8));
    let specs = mix_specs();
    let tracer = Tracer::jsonl(true);

    // Stage 1: stand-alone profiles (the analytic pipeline), traced.
    let profile_instructions = if args.quick { 200_000 } else { 2_000_000 };
    eprintln!("profiling the mix ({profile_instructions} instructions each)...");
    let pcfg = ProfilerConfig::reference(cfg.l2_bank_sets(), 72);
    profile_workloads_traced(&specs, &cfg, pcfg, profile_instructions, args.seed, &tracer);

    // Stage 2: the detailed simulator with the same tracer attached.
    let mut opts = SimOptions::new(cfg.clone(), Policy::BankAware);
    opts.seed = args.seed;
    // The controller solves warm, and a reused cluster sub-plan is
    // bit-identical to what a full solve would produce, so gate 2 below
    // doubles as the incremental-solver fidelity check.
    opts.config.epoch_cycles = if args.quick { 60_000 } else { 250_000 };
    opts.warmup_instructions = if args.quick { 50_000 } else { 200_000 };
    opts.measure_instructions = if args.quick { 150_000 } else { 1_000_000 };
    eprintln!(
        "simulating the mix under Bank-aware partitioning ({} instructions/core)...",
        opts.measure_instructions
    );
    let mut system = System::new(opts.clone(), specs);
    system.set_tracer(tracer.clone());
    let result = system.run();

    // Dump the ledger.
    let jsonl = tracer.take_output().expect("jsonl sink buffers text");
    let path = results_dir().join("trace_fig7.jsonl");
    std::fs::write(&path, &jsonl).expect("write trace file");
    println!("wrote {} ({} bytes)", path.display(), jsonl.len());

    // Gate 1: the dump must re-parse under the strict schema.
    let events = match parse_jsonl(&jsonl) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("FAIL: trace is schema-invalid: {e}");
            std::process::exit(1);
        }
    };
    println!("parsed {} schema-valid events", events.len());

    // Gate 2: offline replay must reproduce every installed plan.
    let solves = match replay_solves(&events, &opts.config) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("FAIL: replay diverged: {e}");
            std::process::exit(1);
        }
    };
    println!("replayed {solves} Bank-aware solves exactly");

    // Per-stage wall-clock totals out of the timing channel, plus the bank
    // masks the solver was timed under (stamped on every solve event).
    let mut stage_nanos: BTreeMap<String, u64> = BTreeMap::new();
    let mut masks_seen: Vec<u64> = Vec::new();
    for ev in &events {
        if let EventKind::StageTiming { stage, nanos, mask } = &ev.kind {
            *stage_nanos.entry(stage.clone()).or_insert(0) += nanos;
            if *stage == "solve" && *mask != 0 && !masks_seen.contains(mask) {
                masks_seen.push(*mask);
            }
        }
    }
    for (stage, nanos) in &stage_nanos {
        println!("stage {stage:>16}: {:.3} ms total", *nanos as f64 / 1e6);
    }
    for mask in &masks_seen {
        println!("solve timed under bank mask {mask:#06x}");
    }

    let summary = result.trace.expect("traced run carries a summary");
    println!(
        "decisions: {} events over {} epochs — {} center grants, {} local grants, \
         {} pairs, {} shares, {} rule rejections, {} plans installed",
        summary.events,
        summary.epochs,
        summary.center_grants,
        summary.local_grants,
        summary.pairs_formed,
        summary.shares_taken,
        summary.rules_rejected,
        summary.plans_installed,
    );

    let report = TraceReport {
        mix: MIX.iter().map(|s| s.to_string()).collect(),
        events: events.len(),
        jsonl_bytes: jsonl.len(),
        solves_replayed: solves,
        replayed_exactly: true,
        stage_nanos,
        summary,
    };
    let path = write_json("trace_summary", &report);
    println!("wrote {}", path.display());
}
