//! Figure 9: breakdown of data+metadata memory accesses per read/write
//! operation, averaged over the top-15 memory-intensive benchmarks.
//!
//! Paper's shape: Synergy ~2.8 metadata accesses per operation, halved
//! to ~1.4 by isolation, and reduced to ~1.0 (tree only) by ITESP,
//! which eliminates the separate MAC/parity structure.

use itesp_core::{MetaKind, Scheme};
use itesp_sim::ExperimentParams;
use itesp_trace::memory_intensive;
use serde::Serialize;

use super::GridFigure;
use crate::runset::{RunKey, RunSet};
use crate::{print_table, save_json};

pub const FIGURE: GridFigure = GridFigure {
    name: "fig09",
    keys,
    report,
};

#[derive(Serialize)]
pub(super) struct Row {
    scheme: String,
    data: f64,
    mac: f64,
    tree: f64,
    parity: f64,
    total_meta: f64,
}

/// Per top-15 benchmark: every Figure 8 scheme.
fn keys(ops: usize) -> Vec<RunKey> {
    memory_intensive()
        .flat_map(|b| Scheme::FIGURE_8.map(|s| (b.name, ExperimentParams::paper_4core(s, ops))))
        .collect()
}

pub(super) fn fold(set: &RunSet, ops: usize) -> Vec<Row> {
    let schemes = Scheme::FIGURE_8;
    // Per-scheme sums of (MAC, tree, parity, total) per access, added
    // in benchmark order.
    let mut acc = [[0.0f64; 4]; Scheme::FIGURE_8.len()];
    for b in memory_intensive() {
        for (a, &s) in acc.iter_mut().zip(&schemes) {
            let e = &set
                .get(b.name, ExperimentParams::paper_4core(s, ops))
                .engine;
            a[0] += e.kind_per_access(MetaKind::Mac);
            a[1] += e.kind_per_access(MetaKind::Tree);
            a[2] += e.kind_per_access(MetaKind::Parity);
            a[3] += e.meta_per_access();
        }
    }
    let n = memory_intensive().count() as f64;
    schemes
        .iter()
        .zip(&acc)
        .map(|(s, a)| Row {
            scheme: s.label().to_owned(),
            data: 1.0,
            mac: a[0] / n,
            tree: a[1] / n,
            parity: a[2] / n,
            total_meta: a[3] / n,
        })
        .collect()
}

fn report(set: &RunSet, ops: usize) -> Option<()> {
    let rows = fold(set, ops);
    println!("Figure 9: accesses per read/write op, top-15 average ({ops} ops/program)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                format!("{:.2}", r.data),
                format!("{:.2}", r.mac),
                format!("{:.2}", r.tree),
                format!("{:.2}", r.parity),
                format!("{:.2}", r.total_meta),
            ]
        })
        .collect();
    print_table(
        &["scheme", "data", "MAC", "tree", "parity", "meta-total"],
        &table,
    );
    println!("\n(paper: SYNERGY ~2.8 meta/op shared -> ~1.4 isolated -> ~1.0 ITESP, tree-only)");
    save_json("fig09", &rows);
    Some(())
}
