//! Whole-cluster migration benchmark: one small live-migration run
//! (2 nodes x 2 slots, 8 churn tenants x 500 ops, rebalancer on) from
//! admission to the last tenant's exit, so transfer framing, held
//! commits and blob install are timed together with the ops around
//! them.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use itesp_core::Scheme;
use itesp_migrate::{Cluster, ClusterConfig, ClusterWorkload};
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload};

fn bench_cluster_run(c: &mut Criterion) {
    let churn = ChurnWorkload::generate(
        benchmark("mcf").expect("Table IV benchmark"),
        &ChurnConfig {
            slots: 2,
            sessions_per_slot: 4,
            ops_per_session: 500,
            mean_arrival_gap: 20_000.0,
            footprint_pages: 64,
            free_fraction: 0.25,
            seed: 0x3161,
        },
    );
    let wl = ClusterWorkload::from_churn(&churn, 6);
    let mut cfg = ClusterConfig::small(2, 2, Scheme::Itesp);
    cfg.rebalance_every = 16;
    cfg.rebalance_threshold = 4;
    let run = || {
        let mut cluster = Cluster::new(cfg, wl.clone());
        cluster.run_to_completion().expect("cluster run");
        cluster.stats().migrations_committed
    };
    assert!(run() > 0, "the benchmark run migrates nothing");

    let mut g = c.benchmark_group("migrate");
    g.throughput(Throughput::Elements(wl.total_ops() as u64));
    g.bench_function("cluster_2x2_rebalance", |b| b.iter(run));
    g.finish();
}

criterion_group!(benches, bench_cluster_run);
criterion_main!(benches);
