//! Figure 2: metadata block utilization (hits per block while cached)
//! in the Large model (4 programs, tree over 128 GB, 64 KB shared
//! metadata cache) vs the Small model (1 program, 32 GB, 16 KB cache),
//! plus the Large model's metadata cache hit rate, for a VAULT design.
//!
//! Paper's takeaway: utilization is on average ~2.1x lower in Large.
//!
//! Run: `cargo run --release -p itesp-bench --bin fig02 [ops]`
//! (supports `--resume`, `--timeout`; see EXPERIMENTS.md)

use itesp_bench::{engine_replay, ops_from_env, print_table, run_campaign, save_json, TRACE_SEED};
use itesp_core::{EngineConfig, Scheme};
use itesp_trace::{FreeListModel, MultiProgram, BENCHMARKS};
use serde::Serialize;
use serde_json::FromValue;

#[derive(Serialize, FromValue)]
struct Row {
    benchmark: String,
    hits_per_block_large: f64,
    hits_per_block_small: f64,
    ratio: f64,
    hit_rate_large: f64,
}

fn main() {
    let ops = ops_from_env();
    // One checkpointed job per benchmark; a killed run resumes with
    // `--resume`.
    let rows: Vec<Row> = run_campaign("fig02", BENCHMARKS.len(), move |i| {
        let b = &BENCHMARKS[i];
        let large_mp = MultiProgram::homogeneous(b, 4, ops, TRACE_SEED);
        let large = engine_replay(
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
        // Small: a pristine single-tenant machine (sequential free list).
        let small_mp =
            MultiProgram::homogeneous_with_model(b, 1, ops, TRACE_SEED, FreeListModel::Sequential);
        let small = engine_replay(
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
        let ul = large.metadata_cache.hits_per_block();
        let us = small.metadata_cache.hits_per_block();
        Row {
            benchmark: b.name.to_owned(),
            hits_per_block_large: ul,
            hits_per_block_small: us,
            ratio: if ul > 0.0 { us / ul } else { f64::NAN },
            hit_rate_large: large.metadata_cache.hit_rate(),
        }
    })
    .into_rows_or_exit();

    println!("Figure 2: metadata block utilization, Large vs Small (VAULT)");
    println!("({} ops/program)\n", ops);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_owned(),
                format!("{:.2}", r.hits_per_block_large),
                format!("{:.2}", r.hits_per_block_small),
                format!("{:.2}x", r.ratio),
                format!("{:.0}%", r.hit_rate_large * 100.0),
            ]
        })
        .collect();
    print_table(
        &[
            "benchmark",
            "util(Large)",
            "util(Small)",
            "Small/Large",
            "hit-rate(Large)",
        ],
        &table,
    );

    let valid: Vec<f64> = rows
        .iter()
        .map(|r| r.ratio)
        .filter(|r| r.is_finite())
        .collect();
    let avg = valid.iter().sum::<f64>() / valid.len() as f64;
    println!("\nAverage Small/Large utilization ratio: {avg:.2}x (paper: ~2.1x)");
    save_json("fig02", &rows);
}
