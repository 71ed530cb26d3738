//! Pareto sweep: leakage class × slowdown × storage overhead, all 15
//! schemes.
//!
//! The scheme pipeline spans four leakage classes — interface-only
//! (UNSECURE, SECDDR), shared metadata (VAULT/SYNERGY lineage),
//! isolated metadata (the IT* variants), and pattern-hidden (IRORAM) —
//! and this figure places every design point on the three axes a
//! deployment trades between: what the memory bus leaks, what the
//! scheme costs in time, and what it costs in bytes. One simulated run
//! per scheme (4-core mcf), slowdown normalized to the UNSECURE
//! baseline, storage from the analytic [`Scheme::storage_overhead`]
//! model.

use itesp_core::Scheme;
use itesp_sim::ExperimentParams;
use serde::Serialize;

use super::GridFigure;
use crate::runset::{RunKey, RunSet};
use crate::{print_table, save_json};

pub const FIGURE: GridFigure = GridFigure {
    name: "figpareto",
    keys,
    report,
};

#[derive(Serialize)]
pub(super) struct Row {
    scheme: String,
    family: String,
    leakage: String,
    /// Execution time normalized to UNSECURE on the same workload.
    slowdown: f64,
    /// Metadata bytes per data byte (Table I model, paper capacity).
    storage_overhead: f64,
    /// Metadata transactions per data access in the simulated run.
    meta_per_access: f64,
}

/// Per scheme: the mcf baseline, then the scheme's mcf run.
fn keys(ops: usize) -> Vec<RunKey> {
    let p4 = |s| ("mcf", ExperimentParams::paper_4core(s, ops));
    Scheme::ALL
        .iter()
        .flat_map(|&s| [p4(Scheme::Unsecure), p4(s)])
        .collect()
}

pub(super) fn fold(set: &RunSet, ops: usize) -> Vec<Row> {
    let base = set.get("mcf", ExperimentParams::paper_4core(Scheme::Unsecure, ops));
    Scheme::ALL
        .iter()
        .map(|&scheme| {
            let r = set.get("mcf", ExperimentParams::paper_4core(scheme, ops));
            let e = &r.engine;
            let data = (e.data_reads + e.data_writes).max(1);
            let meta: u64 = e.meta_reads.iter().chain(e.meta_writes.iter()).sum();
            Row {
                scheme: scheme.label().to_owned(),
                family: format!("{:?}", scheme.family()),
                leakage: scheme.leakage_class().label().to_owned(),
                slowdown: r.normalized_time(base),
                storage_overhead: scheme.storage_overhead(),
                meta_per_access: meta as f64 / data as f64,
            }
        })
        .collect()
}

fn report(set: &RunSet, ops: usize) -> Option<()> {
    let rows = fold(set, ops);
    println!("Pareto sweep: leakage x slowdown x storage (4 cores, mcf, {ops} ops/program)\n");
    let headers = [
        "scheme",
        "family",
        "leakage",
        "slowdown",
        "storage ovh",
        "meta/access",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                r.family.clone(),
                r.leakage.clone(),
                format!("{:.3}x", r.slowdown),
                format!("{:.4}", r.storage_overhead),
                format!("{:.3}", r.meta_per_access),
            ]
        })
        .collect();
    print_table(&headers, &table);
    println!("\nInterface-only schemes pay nothing on either cost axis (SECDDR");
    println!("rides the ECC pins); pattern hiding costs a doubled footprint and");
    println!("a bucket path per access; the IT* points buy isolation in between.");
    save_json("figpareto", &rows);
    Some(())
}
