//! §III-B ablation — bank-aggregation schemes.
//!
//! The paper rejects pure Cascade because simulated migration rates are
//! "prohibitively high", and chooses Parallel over Address-Hash despite its
//! wider directory look-ups. This experiment measures all three on one
//! Table III set: migrations and bank probes per 1000 L2 accesses, plus
//! the resulting miss ratio.

use bap_bench::common::{write_json, Args};
use bap_bench::detailed::sim_options;
use bap_bench::mixes::{resolve, table3_sets};
use bap_cache::AggregationScheme;
use bap_core::Policy;
use bap_system::energy::{estimate, EnergyParams};
use bap_system::System;
use rayon::prelude::*;
use serde::Serialize;

#[derive(Serialize)]
struct SchemeRow {
    scheme: String,
    migrations_per_1k: f64,
    probes_per_1k: f64,
    miss_ratio: f64,
    mean_cpi: f64,
    energy_uj: f64,
    tag_energy_uj: f64,
    migration_energy_uj: f64,
}

fn main() {
    let args = Args::parse();
    let mix = table3_sets(args.seed).remove(0);
    let schemes = [
        AggregationScheme::Cascade,
        AggregationScheme::AddressHash,
        AggregationScheme::Parallel,
    ];
    let rows: Vec<SchemeRow> = schemes
        .par_iter()
        .map(|&scheme| {
            let mut opts = sim_options(&args, Policy::BankAware);
            opts.scheme = scheme;
            let r = System::new(opts, resolve(&mix)).run();
            let accesses = r.total_l2_accesses().max(1) as f64;
            let energy = estimate(
                &EnergyParams::default(),
                &r.l2,
                &r.noc,
                &r.dram,
                r.total_l2_accesses(),
                r.total_l2_accesses(),
            );
            SchemeRow {
                scheme: format!("{scheme:?}"),
                migrations_per_1k: 1000.0 * r.l2.migrations as f64 / accesses,
                probes_per_1k: 1000.0 * r.l2.bank_probes as f64 / accesses,
                miss_ratio: r.l2_miss_ratio(),
                mean_cpi: r.mean_cpi(),
                energy_uj: energy.total_uj(),
                tag_energy_uj: energy.tag_pj / 1e6,
                migration_energy_uj: energy.migration_pj / 1e6,
            }
        })
        .collect();

    println!("Aggregation-scheme ablation (mix: {})", mix.join(", "));
    println!(
        "{:>12} {:>14} {:>11} {:>10} {:>7} {:>10} {:>9} {:>9}",
        "scheme",
        "migrations/1k",
        "probes/1k",
        "missratio",
        "CPI",
        "energy uJ",
        "tag uJ",
        "migr uJ"
    );
    for r in &rows {
        println!(
            "{:>12} {:>14.1} {:>11.1} {:>10.3} {:>7.3} {:>10.1} {:>9.1} {:>9.1}",
            r.scheme,
            r.migrations_per_1k,
            r.probes_per_1k,
            r.miss_ratio,
            r.mean_cpi,
            r.energy_uj,
            r.tag_energy_uj,
            r.migration_energy_uj
        );
    }
    println!("\nexpected shape: Cascade migrations >> AddressHash/Parallel;");
    println!("Parallel probes > AddressHash (wider look-ups).");
    let path = write_json("ablate_aggregation", &rows);
    println!("wrote {}", path.display());
}
