//! Figure 8: normalized execution time for the eight secure-memory
//! designs across all 31 benchmarks (4 cores, 1 channel), normalized to
//! the non-secure baseline.
//!
//! Paper's shape: VAULT ~2.5x and Synergy ~2.3x on the memory-intensive
//! benchmarks; isolation buys Synergy ~39-46%; a parity cache ~3%;
//! shared parity alone loses (RMW); ITESP is the best of all bars.

use itesp_core::Scheme;
use itesp_sim::{ExperimentParams, RunResult};
use itesp_trace::BENCHMARKS;
use serde::Serialize;

use super::GridFigure;
use crate::runset::{RunKey, RunSet};
use crate::{print_table, save_json};

pub const FIGURE: GridFigure = GridFigure {
    name: "fig08",
    keys,
    report,
};

#[derive(Serialize)]
pub(super) struct Row {
    benchmark: String,
    memory_intensive: bool,
    /// Normalized execution time per scheme, Figure 8 bar order.
    times: Vec<f64>,
}

/// Per benchmark: the Unsecure baseline, then every Figure 8 scheme.
fn keys(ops: usize) -> Vec<RunKey> {
    BENCHMARKS
        .iter()
        .flat_map(|b| {
            std::iter::once(Scheme::Unsecure)
                .chain(Scheme::FIGURE_8)
                .map(move |s| (b.name, ExperimentParams::paper_4core(s, ops)))
        })
        .collect()
}

pub(super) fn fold(set: &RunSet, ops: usize) -> Vec<Row> {
    BENCHMARKS
        .iter()
        .map(|b| {
            let run = |s| set.get(b.name, ExperimentParams::paper_4core(s, ops));
            let base = run(Scheme::Unsecure);
            Row {
                benchmark: b.name.to_owned(),
                memory_intensive: b.memory_intensive,
                times: Scheme::FIGURE_8
                    .iter()
                    .map(|&s| run(s).normalized_time(base))
                    .collect(),
            }
        })
        .collect()
}

fn report(set: &RunSet, ops: usize) -> Option<()> {
    let schemes = Scheme::FIGURE_8;
    let rows = fold(set, ops);

    println!("Figure 8: normalized execution time (4 cores, 1 channel, {ops} ops/program)\n");
    let headers: Vec<&str> = std::iter::once("benchmark")
        .chain(schemes.iter().map(|s| s.label()))
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let name = if r.memory_intensive {
                format!("{}*", r.benchmark)
            } else {
                r.benchmark.to_owned()
            };
            std::iter::once(name)
                .chain(r.times.iter().map(|t| format!("{t:.2}")))
                .collect()
        })
        .collect();
    print_table(&headers, &table);
    println!("(* = one of the 15 memory-intensive benchmarks)\n");

    // Top-15 geomeans and the headline improvements.
    let geo = |idx: usize| {
        let v: Vec<f64> = rows
            .iter()
            .filter(|r| r.memory_intensive)
            .map(|r| r.times[idx])
            .collect();
        RunResult::geomean(&v)
    };
    println!("Top-15 geomean slowdowns:");
    for (i, s) in schemes.iter().enumerate() {
        println!("  {:>12}: {:.2}x", s.label(), geo(i));
    }
    let synergy = geo(2);
    let itsyn = geo(3);
    let itesp = geo(7);
    println!(
        "\nITSYNERGY improvement over SYNERGY: {:.0}% (paper: 39-45%)",
        (synergy / itsyn - 1.0) * 100.0
    );
    println!(
        "ITESP improvement over SYNERGY:     {:.0}% (paper: 64%)",
        (synergy / itesp - 1.0) * 100.0
    );
    save_json("fig08", &rows);
    Some(())
}
