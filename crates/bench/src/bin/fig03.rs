//! Figure 3: breakdown of metadata access patterns per LLC data miss,
//! for the Large (shared, 4 programs) and Small (1 program) VAULT
//! models. Cases: A = everything on-chip; B = MAC only missed;
//! C = leaf only; D = MAC+leaf; E = leaf+parent; F = MAC+leaf+parent;
//! G = leaf+2+ ancestors; H = MAC+leaf+2+ ancestors.
//!
//! Paper's takeaways: a large fraction of misses trigger no metadata
//! access (spatial locality); ~30% are correlated MAC+counter misses;
//! Large shifts mass toward the high-ancestor cases.
//!
//! Run: `cargo run --release -p itesp-bench --bin fig03 [ops]`
//! (supports `--resume`, `--timeout`; see EXPERIMENTS.md)

use itesp_bench::{engine_replay, ops_from_env, print_table, run_campaign, save_json, TRACE_SEED};
use itesp_core::{EngineConfig, MissCase, Scheme};
use itesp_snap::Persist;
use itesp_trace::{memory_intensive, FreeListModel, MultiProgram};
use serde::Serialize;

#[derive(Default, Serialize, Persist)]
struct Row {
    benchmark: String,
    model: String,
    /// Fractions per MissCase A..H.
    cases: [f64; 8],
}

fn breakdown(mp: &MultiProgram, cfg: EngineConfig) -> [f64; 8] {
    let r = engine_replay(mp, cfg);
    let total: u64 = r.stats.case_counts.iter().sum();
    let mut out = [0.0; 8];
    for (i, &c) in r.stats.case_counts.iter().enumerate() {
        out[i] = c as f64 / total.max(1) as f64;
    }
    out
}

fn main() {
    let ops = ops_from_env();
    let benches: Vec<_> = memory_intensive().collect();
    // One checkpointed job per benchmark, producing its Large and Small
    // rows; a killed run resumes with `--resume`.
    let pairs: Vec<(Row, Row)> = run_campaign("fig03", benches.len(), move |i| {
        let b = &benches[i];
        let large_mp = MultiProgram::homogeneous(b, 4, ops, TRACE_SEED);
        let large = breakdown(
            &large_mp,
            EngineConfig {
                scheme: Scheme::Vault,
                enclaves: 4,
                data_capacity: 128 << 30,
                enclave_capacity: 32 << 30,
                metadata_cache_bytes: 64 << 10,
                cache_ways: 8,
                model_overflow: false,
                rank_stride_blocks: 4,
            },
        );
        let large_row = Row {
            benchmark: b.name.to_owned(),
            model: "Large".to_owned(),
            cases: large,
        };
        // Small: a pristine single-tenant machine (sequential free list).
        let small_mp =
            MultiProgram::homogeneous_with_model(b, 1, ops, TRACE_SEED, FreeListModel::Sequential);
        let small = breakdown(
            &small_mp,
            EngineConfig {
                scheme: Scheme::Vault,
                enclaves: 1,
                data_capacity: 32 << 30,
                enclave_capacity: 32 << 30,
                metadata_cache_bytes: 16 << 10,
                cache_ways: 8,
                model_overflow: false,
                rank_stride_blocks: 4,
            },
        );
        let small_row = Row {
            benchmark: b.name.to_owned(),
            model: "Small".to_owned(),
            cases: small,
        };
        (large_row, small_row)
    })
    .into_rows_or_exit();
    let rows: Vec<Row> = pairs.into_iter().flat_map(|(l, s)| [l, s]).collect();

    println!("Figure 3: metadata access-pattern breakdown (VAULT), top-15 benchmarks");
    println!("({} ops/program)\n", ops);
    let headers: Vec<&str> = std::iter::once("benchmark/model")
        .chain(MissCase::ALL.iter().map(|c| c.label()))
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![format!("{}/{}", r.benchmark, r.model)];
            cells.extend(r.cases.iter().map(|c| format!("{:.0}%", c * 100.0)));
            cells
        })
        .collect();
    print_table(&headers, &table);

    // Aggregate view, as in the figure's average bars.
    for model in ["Large", "Small"] {
        let sel: Vec<&Row> = rows.iter().filter(|r| r.model == model).collect();
        let mut avg = [0.0; 8];
        for r in &sel {
            for (a, c) in avg.iter_mut().zip(r.cases.iter()) {
                *a += c / sel.len() as f64;
            }
        }
        let none = avg[0];
        let correlated: f64 = avg[3] + avg[5] + avg[7]; // MAC+counter cases
        println!(
            "\n{model}: no-metadata {:.0}%  correlated MAC+counter misses {:.0}%  deep-walk (G+H) {:.0}%",
            none * 100.0,
            correlated * 100.0,
            (avg[6] + avg[7]) * 100.0
        );
    }
    save_json("fig03", &rows);
}
