//! Figure 13: metadata-cache size sensitivity. Execution time, memory
//! energy, and system EDP for SYNERGY and ITESP with 8/16/32/64 KB of
//! metadata cache per core, top-15 geomean, normalized to non-secure.
//!
//! Paper's shape: bigger caches help every design by similar amounts
//! and slightly shrink ITESP's edge (59% at 32 KB/core, 52% at 64 KB).

use itesp_core::Scheme;
use itesp_sim::ExperimentParams;
use serde::Serialize;

use super::{top15_keys, top15_norms, GridFigure};
use crate::runset::{RunKey, RunSet};
use crate::{print_table, save_json};

pub const FIGURE: GridFigure = GridFigure {
    name: "fig13",
    keys,
    report,
};

const KB_PER_CORE: [usize; 4] = [8, 16, 32, 64];
const SCHEMES: [Scheme; 2] = [Scheme::Synergy, Scheme::Itesp];

#[derive(Serialize)]
pub(super) struct Row {
    kb_per_core: usize,
    scheme: String,
    norm_time: f64,
    norm_memory_energy: f64,
    norm_system_edp: f64,
}

/// The 4-core run of `scheme` with `kb` KB of metadata cache per core.
fn sized(scheme: Scheme, kb: usize, ops: usize) -> ExperimentParams {
    ExperimentParams {
        metadata_cache_bytes: kb * 1024 * 4, // per core -> total
        ..ExperimentParams::paper_4core(scheme, ops)
    }
}

/// The (cache size, scheme) points in figure order.
fn points() -> impl Iterator<Item = (usize, Scheme)> {
    KB_PER_CORE
        .into_iter()
        .flat_map(|kb| SCHEMES.map(|s| (kb, s)))
}

/// Per cache size and scheme: each top-15 benchmark's baseline and run.
fn keys(ops: usize) -> Vec<RunKey> {
    let base = ExperimentParams::paper_4core(Scheme::Unsecure, ops);
    points()
        .flat_map(|(kb, s)| top15_keys(base, sized(s, kb, ops)))
        .collect()
}

pub(super) fn fold(set: &RunSet, ops: usize) -> Vec<Row> {
    let base = ExperimentParams::paper_4core(Scheme::Unsecure, ops);
    points()
        .map(|(kb, s)| {
            let (time, energy, edp) = top15_norms(set, base, sized(s, kb, ops));
            Row {
                kb_per_core: kb,
                scheme: s.label().to_owned(),
                norm_time: time,
                norm_memory_energy: energy,
                norm_system_edp: edp,
            }
        })
        .collect()
}

fn report(set: &RunSet, ops: usize) -> Option<()> {
    let rows = fold(set, ops);
    println!("Figure 13: metadata-cache size sensitivity, top-15 geomean ({ops} ops/program)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{} KB/core", r.kb_per_core),
                r.scheme.clone(),
                format!("{:.2}", r.norm_time),
                format!("{:.2}", r.norm_memory_energy),
                format!("{:.2}", r.norm_system_edp),
            ]
        })
        .collect();
    print_table(
        &["cache", "scheme", "exec time", "mem energy", "system EDP"],
        &table,
    );

    println!("\nITESP improvement over SYNERGY by cache size:");
    for kb in KB_PER_CORE {
        let get = |scheme: &str| {
            rows.iter()
                .find(|r| r.kb_per_core == kb && r.scheme == scheme)
                .expect("row")
                .norm_time
        };
        println!(
            "  {kb:>2} KB/core: {:.0}%",
            (get("SYNERGY") / get("ITESP") - 1.0) * 100.0
        );
    }
    println!("(paper: 59% at 32 KB, 52% at 64 KB — improvement shrinks as caches grow)");
    save_json("fig13", &rows);
    Some(())
}
