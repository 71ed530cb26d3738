//! Figure 10: normalized memory energy (left) and normalized system
//! energy-delay product (right) for the Figure 8 models, top-15
//! geomean, normalized to the non-secure baseline.
//!
//! Paper's shape: energy follows the metadata-traffic reductions; ITESP
//! cuts memory energy and system EDP by ~45% vs the Synergy baseline.

use itesp_core::Scheme;
use itesp_sim::ExperimentParams;
use itesp_trace::memory_intensive;
use serde::Serialize;

use super::{top15_norms, GridFigure};
use crate::runset::{RunKey, RunSet};
use crate::{print_table, save_json};

pub const FIGURE: GridFigure = GridFigure {
    name: "fig10",
    keys,
    report,
};

#[derive(Serialize)]
pub(super) struct Row {
    scheme: String,
    norm_memory_energy: f64,
    norm_system_edp: f64,
}

/// Per top-15 benchmark: the Unsecure baseline, then every Figure 8
/// scheme.
fn keys(ops: usize) -> Vec<RunKey> {
    memory_intensive()
        .flat_map(|b| {
            std::iter::once(Scheme::Unsecure)
                .chain(Scheme::FIGURE_8)
                .map(move |s| (b.name, ExperimentParams::paper_4core(s, ops)))
        })
        .collect()
}

pub(super) fn fold(set: &RunSet, ops: usize) -> Vec<Row> {
    let p4 = |s| ExperimentParams::paper_4core(s, ops);
    Scheme::FIGURE_8
        .iter()
        .map(|&s| {
            let (_, energy, edp) = top15_norms(set, p4(Scheme::Unsecure), p4(s));
            Row {
                scheme: s.label().to_owned(),
                norm_memory_energy: energy,
                norm_system_edp: edp,
            }
        })
        .collect()
}

fn report(set: &RunSet, ops: usize) -> Option<()> {
    let rows = fold(set, ops);
    println!(
        "Figure 10: normalized memory energy and system EDP, top-15 geomean ({ops} ops/program)\n"
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{:.2}", r.norm_memory_energy),
                format!("{:.2}", r.norm_system_edp),
            ]
        })
        .collect();
    print_table(&["scheme", "memory energy", "system EDP"], &table);

    let syn = &rows[2];
    let itesp = &rows[7];
    println!(
        "\nITESP vs SYNERGY: memory energy -{:.0}%, system EDP -{:.0}% (paper: ~45% and ~45%)",
        (1.0 - itesp.norm_memory_energy / syn.norm_memory_energy) * 100.0,
        (1.0 - itesp.norm_system_edp / syn.norm_system_edp) * 100.0
    );
    save_json("fig10", &rows);
    Some(())
}
