//! Figures 14+15: address-mapping policy exploration for ITESP.
//!
//! For each of the four policies (Column, Rank, 2-RBH, 4-RBH) this
//! reports ITESP's performance improvement over SYNERGY-with-its-best-
//! mapping (Column), plus ITESP's metadata-cache miss rate and DRAM
//! row-buffer hit rate — the two competing forces the policies balance.
//!
//! Paper's shape: Column maximizes row hits but wrecks ITESP's
//! metadata locality (parity groups land in foreign leaves); Rank does
//! the opposite; 4-RBH gets both, because a leaf holds 4 shared
//! parities and 4 consecutive lines can share one leaf.

use itesp_core::Scheme;
use itesp_dram::AddressMapping;
use itesp_sim::{ExperimentParams, RunResult};
use itesp_trace::memory_intensive;
use serde::Serialize;

use super::GridFigure;
use crate::runset::{RunKey, RunSet};
use crate::{print_table, save_json};

pub const FIGURE: GridFigure = GridFigure {
    name: "fig15",
    keys,
    report,
};

#[derive(Serialize)]
pub(super) struct Row {
    mapping: String,
    improvement_over_synergy_pct: f64,
    metadata_miss_rate: f64,
    row_buffer_hit_rate: f64,
}

/// The 4-core run of `scheme` under `mapping`.
fn mapped(scheme: Scheme, mapping: AddressMapping, ops: usize) -> ExperimentParams {
    ExperimentParams {
        mapping,
        ..ExperimentParams::paper_4core(scheme, ops)
    }
}

/// Per top-15 benchmark: Synergy under its best mapping (Column), then
/// ITESP under each of the four.
fn keys(ops: usize) -> Vec<RunKey> {
    memory_intensive()
        .flat_map(|b| {
            std::iter::once(mapped(Scheme::Synergy, AddressMapping::Column, ops))
                .chain(AddressMapping::ALL.map(|m| mapped(Scheme::Itesp, m, ops)))
                .map(move |p| (b.name, p))
        })
        .collect()
}

pub(super) fn fold(set: &RunSet, ops: usize) -> Vec<Row> {
    AddressMapping::ALL
        .iter()
        .map(|&m| {
            let (mut impr, mut miss, mut rbh) = (Vec::new(), Vec::new(), Vec::new());
            for b in memory_intensive() {
                let synergy = set.get(b.name, mapped(Scheme::Synergy, AddressMapping::Column, ops));
                let r = set.get(b.name, mapped(Scheme::Itesp, m, ops));
                impr.push(synergy.cycles as f64 / r.cycles as f64);
                miss.push(1.0 - r.metadata_cache.hit_rate());
                rbh.push(r.dram.row_hit_rate());
            }
            Row {
                mapping: m.label().to_owned(),
                improvement_over_synergy_pct: (RunResult::geomean(&impr) - 1.0) * 100.0,
                metadata_miss_rate: miss.iter().sum::<f64>() / miss.len() as f64,
                row_buffer_hit_rate: rbh.iter().sum::<f64>() / rbh.len() as f64,
            }
        })
        .collect()
}

fn report(set: &RunSet, ops: usize) -> Option<()> {
    let rows = fold(set, ops);
    println!("Figure 15: ITESP under the four address mappings, top-15 ({ops} ops/program)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mapping.clone(),
                format!("{:+.0}%", r.improvement_over_synergy_pct),
                format!("{:.0}%", r.metadata_miss_rate * 100.0),
                format!("{:.0}%", r.row_buffer_hit_rate * 100.0),
            ]
        })
        .collect();
    print_table(
        &[
            "mapping",
            "perf vs SYNERGY(best)",
            "metadata miss rate",
            "row-buffer hit rate",
        ],
        &table,
    );
    println!(
        "\n(paper: Column has the best row hits but the worst metadata miss rate for ITESP;\n\
         4-RBH balances both and is the chosen policy)"
    );
    save_json("fig15", &rows);
    Some(())
}
