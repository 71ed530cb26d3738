//! Figure 12: core-count sensitivity. Execution time, memory energy,
//! and system EDP for SYNERGY and ITESP on the 4-core/1-channel and
//! 8-core/2-channel systems, normalized to the matching non-secure
//! baseline, top-15 geomean.
//!
//! Paper's shape: Synergy's slowdown *grows* with core count (more
//! inter-program metadata interference) even with a second channel, so
//! ITESP's advantage widens from ~64% to ~82%.

use itesp_core::Scheme;
use itesp_sim::ExperimentParams;
use serde::Serialize;

use super::{top15_keys, top15_norms, GridFigure};
use crate::runset::{RunKey, RunSet};
use crate::{print_table, save_json};

pub const FIGURE: GridFigure = GridFigure {
    name: "fig12",
    keys,
    report,
};

const SCHEMES: [Scheme; 2] = [Scheme::Synergy, Scheme::Itesp];

#[derive(Serialize)]
pub(super) struct Row {
    config: String,
    scheme: String,
    norm_time: f64,
    norm_memory_energy: f64,
    norm_system_edp: f64,
}

/// The parameters of a scheme on one system.
type SystemParams = fn(Scheme, usize) -> ExperimentParams;

/// The two systems.
const CONFIGS: [(&str, SystemParams); 2] = [
    ("4 cores / 1 ch", ExperimentParams::paper_4core),
    ("8 cores / 2 ch", ExperimentParams::paper_8core),
];

/// Per system and scheme: each top-15 benchmark's baseline and run.
fn keys(ops: usize) -> Vec<RunKey> {
    CONFIGS
        .iter()
        .flat_map(|(_, params)| {
            SCHEMES.map(|s| top15_keys(params(Scheme::Unsecure, ops), params(s, ops)))
        })
        .flatten()
        .collect()
}

pub(super) fn fold(set: &RunSet, ops: usize) -> Vec<Row> {
    CONFIGS
        .iter()
        .flat_map(|(label, params)| {
            SCHEMES.map(|s| {
                let (time, energy, edp) =
                    top15_norms(set, params(Scheme::Unsecure, ops), params(s, ops));
                Row {
                    config: (*label).to_owned(),
                    scheme: s.label().to_owned(),
                    norm_time: time,
                    norm_memory_energy: energy,
                    norm_system_edp: edp,
                }
            })
        })
        .collect()
}

fn report(set: &RunSet, ops: usize) -> Option<()> {
    let rows = fold(set, ops);
    println!("Figure 12: core-count sensitivity, top-15 geomean ({ops} ops/program)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                r.scheme.clone(),
                format!("{:.2}", r.norm_time),
                format!("{:.2}", r.norm_memory_energy),
                format!("{:.2}", r.norm_system_edp),
            ]
        })
        .collect();
    print_table(
        &["config", "scheme", "exec time", "mem energy", "system EDP"],
        &table,
    );

    let imp = |cfg: &str| {
        let time = |scheme: &str| {
            rows.iter()
                .find(|r| r.config == cfg && r.scheme == scheme)
                .expect("row")
                .norm_time
        };
        (time("SYNERGY") / time("ITESP") - 1.0) * 100.0
    };
    println!(
        "\nITESP improvement over SYNERGY: {:.0}% at 4 cores -> {:.0}% at 8 cores (paper: 64% -> 82%)",
        imp("4 cores / 1 ch"),
        imp("8 cores / 2 ch")
    );
    save_json("fig12", &rows);
    Some(())
}
