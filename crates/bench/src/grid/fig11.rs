//! Figure 11: Morphable-counter designs with local-counter-overflow
//! overheads, on 8 cores with 2 channels: SYNERGY (VAULT-tree),
//! SYN128, SYN128 with isolation, ITESP 64, and ITESP 128.
//!
//! Paper's shape: higher-arity trees shift misses to the leaf level, so
//! isolation matters less and embedded parity more; ITESP 64's 5-bit
//! local counters trade cacheability for a much lower overflow rate
//! than ITESP 128's 2-bit counters (the margin between the two is small
//! and workload-dependent — ~1.4% in the paper at 5 M ops/program).

use itesp_core::Scheme;
use itesp_sim::{ExperimentParams, RunResult};
use itesp_trace::memory_intensive;
use serde::Serialize;

use super::GridFigure;
use crate::runset::{RunKey, RunSet};
use crate::{print_table, save_json};

pub const FIGURE: GridFigure = GridFigure {
    name: "fig11",
    keys,
    report,
};

#[derive(Serialize)]
pub(super) struct Row {
    scheme: String,
    norm_time: f64,
    overflows_per_kilo_write: f64,
    overflow_stall_fraction: f64,
}

/// The 8-core run of `scheme` with overflow stalls modelled.
fn with_overflow(scheme: Scheme, ops: usize) -> ExperimentParams {
    ExperimentParams {
        model_overflow: true,
        ..ExperimentParams::paper_8core(scheme, ops)
    }
}

/// Per top-15 benchmark: the Unsecure baseline (no overflow model),
/// then every Figure 11 scheme with overflow stalls.
fn keys(ops: usize) -> Vec<RunKey> {
    memory_intensive()
        .flat_map(|b| {
            std::iter::once(ExperimentParams::paper_8core(Scheme::Unsecure, ops))
                .chain(Scheme::FIGURE_11.map(|s| with_overflow(s, ops)))
                .map(move |p| (b.name, p))
        })
        .collect()
}

pub(super) fn fold(set: &RunSet, ops: usize) -> Vec<Row> {
    let schemes = Scheme::FIGURE_11;
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut ofl = vec![(0u64, 0u64, 0u64); schemes.len()]; // overflows, writes, stall
    for b in memory_intensive() {
        let base = set.get(b.name, ExperimentParams::paper_8core(Scheme::Unsecure, ops));
        for (i, &s) in schemes.iter().enumerate() {
            let r = set.get(b.name, with_overflow(s, ops));
            times[i].push(r.normalized_time(base));
            ofl[i].0 += r.engine.overflows;
            ofl[i].1 += r.engine.data_writes;
            ofl[i].2 += r.engine.overflow_stall_cycles;
        }
    }
    schemes
        .iter()
        .enumerate()
        .map(|(i, s)| Row {
            scheme: s.label().to_owned(),
            norm_time: RunResult::geomean(&times[i]),
            overflows_per_kilo_write: ofl[i].0 as f64 * 1000.0 / ofl[i].1.max(1) as f64,
            overflow_stall_fraction: ofl[i].2 as f64 / (ofl[i].1.max(1) as f64 * 100.0),
        })
        .collect()
}

fn report(set: &RunSet, ops: usize) -> Option<()> {
    let rows = fold(set, ops);
    println!(
        "Figure 11: Morphable-counter designs incl. overflow, 8 cores / 2 channels, top-15 geomean ({ops} ops/program)\n"
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{:.2}", r.norm_time),
                format!("{:.2}", r.overflows_per_kilo_write),
            ]
        })
        .collect();
    print_table(&["scheme", "norm. exec time", "overflows/kWrite"], &table);

    println!(
        "\nLocal counter widths: SYN128 3-bit, ITESP64 5-bit, ITESP128 2-bit;\n\
         overflow rate ordering must be ITESP64 < SYN128 < ITESP128."
    );
    save_json("fig11", &rows);
    Some(())
}
