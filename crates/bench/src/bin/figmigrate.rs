//! Live-migration drill: scripted migrations, a node drain, and the
//! rebalancer over a churn+RAS workload — with a SIGKILL mid-transfer
//! and a cluster anti-rollback oracle.
//!
//! The headline claims under test (see `itesp-migrate`):
//!
//! * **Placement independence** — per-tenant final stats are
//!   byte-identical between a single-node reference run and a 4-node
//!   cluster run with three scripted migrations, a drain, and the
//!   load rebalancer all active.
//! * **Cross-node anti-rollback** — a migration blob captured on the
//!   wire and replayed after its commit is rejected (`EpochStale`) on
//!   *every* node, with no state change: the per-enclave migration
//!   epoch makes stale blobs permanently dead cluster-wide.
//! * **Crash safety** — SIGKILL the cluster while a transfer is in
//!   flight; recovery lands in a mid-migration snapshot (the freeze
//!   forces one), the enclave is live on exactly one node, and the
//!   completed run is byte-identical to the reference.
//! * **Durable-state freshness** — every stale snapshot restored
//!   as-if-latest is rejected (`RollbackDetected`); withholding the
//!   newest snapshot file is detected while replay recovery from the
//!   older state still reproduces the run.
//!
//! Run: `cargo run --release -p itesp-bench --bin figmigrate [ops]`
//! Failures print an `ITESP_TEST_SEED` replay line.

use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

use itesp_bench::drill::{Drill, Kill, SnapshotConfig};
use itesp_bench::{ops_from_env, print_table, save_json};
use itesp_core::Scheme;
use itesp_migrate::{
    peek_header, Cluster, ClusterConfig, ClusterStats, ClusterWorkload, MigrateError,
};
use itesp_reliability::env_seed;
use itesp_snap::SnapshotStore;
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload};

const NODES: usize = 4;
const SLOTS_PER_NODE: usize = 3;
/// Churn slots × sessions per slot.
const TENANTS: usize = 12;
/// Ticks between crash snapshots in the drill stages.
const DRILL_EVERY: u64 = 24;

/// Marker env var: set on the child process the parent SIGKILLs.
const CHILD_ENV: &str = "ITESP_FIGMIGRATE_CHILD";
/// File the child drops once a transfer is in flight and it is
/// standing still, waiting for the parent's SIGKILL.
const MARKER: &str = "freeze.marker";

/// The drill workload: a pure function of `(seed, ops)` so the
/// reference, the cluster, the killed child, and every recovery all
/// rebuild the identical tenant scripts.
fn workload(seed: u64, ops: usize) -> ClusterWorkload {
    let w = ChurnWorkload::generate(
        benchmark("mcf").expect("table IV has mcf"),
        &ChurnConfig {
            slots: 4,
            sessions_per_slot: 3,
            ops_per_session: (ops / TENANTS).max(200),
            mean_arrival_gap: 20_000.0,
            footprint_pages: 24,
            free_fraction: 0.3,
            seed,
        },
    );
    ClusterWorkload::from_churn(&w, 6)
}

/// The 4-node cluster under test: rebalancer on, faults on.
fn cluster_cfg(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::small(NODES, SLOTS_PER_NODE, Scheme::Itesp);
    cfg.master = seed ^ 0x9e37_79b9_7f4a_7c15;
    cfg.seed = seed.rotate_left(17) ^ 0x17e5;
    cfg.rebalance_every = 96;
    cfg.rebalance_threshold = 16;
    cfg
}

/// The single-node reference: same tenants, keys, and fault streams —
/// nothing ever moves.
fn reference_cfg(seed: u64, tenants: usize) -> ClusterConfig {
    let mut cfg = cluster_cfg(seed);
    cfg.nodes = 1;
    cfg.slots_per_node = tenants;
    cfg.rebalance_every = 0;
    cfg.rebalance_threshold = 0;
    cfg
}

/// The scripted schedule, anchored to workload arrivals (absolute
/// ticks would race the admission queue): two tenants hop across
/// nodes, tenant 0 twice, then node 0 drains and retires.
struct Schedule {
    migrations: [(u64, u64, usize); 3],
    drain: (u64, usize),
}

fn schedule(wl: &ClusterWorkload) -> Schedule {
    let a0 = wl.tenants[0].arrival;
    let a1 = wl.tenants[1].arrival;
    let m0 = a0 + 60;
    let m1 = a1.max(m0) + 50;
    let m2 = m1 + 60;
    Schedule {
        migrations: [(m0, 0, 2), (m1, 1, 3), (m2, 0, 1)],
        drain: (m2 + 80, 0),
    }
}

/// Schedules are inputs, not state: every cluster instance (including
/// recovered ones) gets the same calls.
fn register(cluster: &mut Cluster, s: &Schedule) {
    for &(tick, tenant, to) in &s.migrations {
        cluster.schedule_migration(tick, tenant, to);
    }
    cluster.schedule_drain(s.drain.0, s.drain.1);
}

fn wedge_limit(wl: &ClusterWorkload) -> u64 {
    wl.max_arrival() + 4 * wl.total_ops() as u64 + 100_000
}

/// Child mode: run the scheduled cluster with snapshots attached. The
/// moment the first migration freezes (which forces a snapshot), drop
/// the marker file and stand still so the parent's SIGKILL lands while
/// the transfer is in flight. If the kill never comes, finish anyway.
fn child_main(seed: u64, ops: usize) -> ! {
    let dir = SnapshotConfig::from_env()
        .expect("child needs ITESP_SNAPSHOT_DIR")
        .dir;
    let wl = workload(seed, ops);
    let s = schedule(&wl);
    let limit = wedge_limit(&wl);
    let mut cluster = Cluster::new(cluster_cfg(seed), wl);
    cluster
        .attach_snapshots(&dir, DRILL_EVERY)
        .expect("child snapshot dir must open");
    register(&mut cluster, &s);
    let mut paused = false;
    while !cluster.done() {
        cluster.step().expect("child cluster step");
        assert!(cluster.tick() < limit, "child cluster wedged");
        if !paused && cluster.stats().migrations_started > 0 {
            paused = true;
            fs::write(dir.join(MARKER), b"frozen").expect("write freeze marker");
            std::thread::sleep(Duration::from_secs(60));
        }
    }
    fs::write(dir.join("final.json"), cluster.tenants_json()).expect("write child artifact");
    std::process::exit(0);
}

/// Stage 2: the 4-node run. Captures the first transfer's wire blob,
/// finishes the schedule, proves byte-identity with the reference, and
/// replays the stale blob at every surviving node.
fn live_cluster_drill(drill: Drill, ops: usize, expect: &str) -> (ClusterStats, u64, usize) {
    let seed = drill.seed;
    let wl = workload(seed, ops);
    let s = schedule(&wl);
    let limit = wedge_limit(&wl);
    let mut cluster = Cluster::new(cluster_cfg(seed), wl);
    register(&mut cluster, &s);

    while cluster.inflight().is_empty() {
        cluster.step().expect("cluster step");
        assert!(
            cluster.tick() < limit,
            "no migration ever started ({drill})"
        );
    }
    let frozen = cluster.inflight()[0].tenant;
    let stale = cluster
        .inflight_blob(frozen)
        .expect("transfer in flight")
        .to_vec();
    let stale_epoch = peek_header(&stale).expect("blob header decodes").epoch;

    cluster
        .run_to_completion()
        .unwrap_or_else(|e| panic!("cluster run failed: {e} ({drill})"));
    assert_eq!(
        cluster.tenants_json(),
        expect,
        "placement leaked into per-tenant stats ({drill})"
    );
    assert!(
        cluster.nodes()[0].retired(),
        "drained node 0 never retired ({drill})"
    );
    assert!(cluster.stats().migrations_committed >= 2);

    // The captured blob is permanently stale on every surviving node.
    let mut rejected = 0;
    for node in 0..NODES {
        if cluster.nodes()[node].retired() {
            continue;
        }
        let before = cluster.node_live_pages();
        match cluster.deliver_blob(node, &stale) {
            Err(MigrateError::EpochStale {
                tenant,
                blob_epoch,
                current_epoch,
            }) => {
                assert_eq!((tenant, blob_epoch), (frozen, stale_epoch));
                assert!(current_epoch > blob_epoch);
                rejected += 1;
            }
            other => {
                panic!("node {node}: stale blob replay must be EpochStale, got {other:?} ({drill})")
            }
        }
        assert_eq!(
            cluster.node_live_pages(),
            before,
            "rejection mutated node state ({drill})"
        );
    }
    cluster
        .check_exactly_one_home()
        .unwrap_or_else(|e| panic!("residency invariant broken: {e} ({drill})"));
    (cluster.stats(), stale_epoch, rejected)
}

/// Stage 3: spawn the child, SIGKILL it mid-transfer (the marker file
/// says when), recover from the snapshots, and finish the run.
/// Returns (recovered snapshot seq, WAL head at kill).
fn kill_and_recover(drill: Drill, ops: usize, expect: &str, dir: &Path) -> (u64, u64) {
    let seed = drill.seed;
    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe)
        .env(CHILD_ENV, "1")
        .env("ITESP_TEST_SEED", seed.to_string())
        .env("ITESP_OPS", ops.to_string())
        .env("ITESP_SNAPSHOT_DIR", dir)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn drill child");
    let kill = drill.kill_when(&mut child, "its first migration", || {
        dir.join(MARKER).exists()
    });
    assert_eq!(
        kill,
        Kill::Killed,
        "drill child exited before freezing a transfer ({drill})"
    );

    let store = SnapshotStore::open(dir).expect("open drill store");
    let head = store
        .latest_seq()
        .expect("read drill WAL")
        .expect("child committed at least the freeze snapshot");

    let wl = workload(seed, ops);
    let s = schedule(&wl);
    let (mut recovered, meta) = Cluster::recover(cluster_cfg(seed), wl, dir, DRILL_EVERY)
        .unwrap_or_else(|e| panic!("recovery after SIGKILL failed: {e} ({drill})"));
    assert!(
        !recovered.inflight().is_empty(),
        "latest snapshot should hold the frozen transfer ({drill})"
    );
    recovered
        .check_exactly_one_home()
        .unwrap_or_else(|e| panic!("post-crash residency broken: {e} ({drill})"));
    register(&mut recovered, &s);
    recovered
        .run_to_completion()
        .unwrap_or_else(|e| panic!("recovered run failed: {e} ({drill})"));
    assert_eq!(
        recovered.tenants_json(),
        expect,
        "recovered run diverged from the reference ({drill})"
    );
    (meta.seq, head)
}

/// Stage 4: run the schedule to completion with snapshots, then the
/// cluster rollback oracle over them. Returns the snapshots committed,
/// every one of them a rejected stale restore.
fn rollback_oracle(drill: Drill, ops: usize, expect: &str, dir: &Path) -> usize {
    let seed = drill.seed;
    let wl = workload(seed, ops);
    let s = schedule(&wl);
    let mut cluster = Cluster::new(cluster_cfg(seed), wl.clone());
    cluster
        .attach_snapshots(dir, DRILL_EVERY)
        .expect("open oracle store");
    register(&mut cluster, &s);
    cluster
        .run_to_completion()
        .unwrap_or_else(|e| panic!("oracle run failed: {e} ({drill})"));
    assert_eq!(cluster.tenants_json(), expect, "{drill}");
    drop(cluster);

    drill.rollback_oracle(
        dir,
        expect,
        || Cluster::new(cluster_cfg(seed), wl.clone()),
        |mut recovered| {
            register(&mut recovered, &s);
            recovered
                .run_to_completion()
                .unwrap_or_else(|e| panic!("fallback replay failed: {e} ({drill})"));
            recovered.tenants_json()
        },
    )
}

fn main() {
    let seed = env_seed(0xC0FFEE);
    let ops = ops_from_env();
    if std::env::var_os(CHILD_ENV).is_some() {
        child_main(seed, ops);
    }
    let drill = Drill::new("figmigrate", seed);

    eprintln!("[figmigrate: single-node reference, {ops} ops, seed {seed}]");
    let wl = workload(seed, ops);
    let tenants = wl.tenant_count();
    let mut reference = Cluster::new(reference_cfg(seed, tenants), wl);
    reference
        .run_to_completion()
        .unwrap_or_else(|e| panic!("reference run failed: {e} ({drill})"));
    let expect = reference.tenants_json();

    eprintln!("[figmigrate: 4-node cluster, scripted hops + drain + rebalancer]");
    let (stats, stale_epoch, stale_rejected) = live_cluster_drill(drill, ops, &expect);

    eprintln!("[figmigrate: SIGKILL mid-transfer drill]");
    let drill_dir = drill.scratch("drill");
    let (recovered_seq, snapshots_at_kill) = kill_and_recover(drill, ops, &expect, &drill_dir);
    let _ = fs::remove_dir_all(&drill_dir);

    eprintln!("[figmigrate: cluster anti-rollback oracle]");
    let oracle_dir = drill.scratch("oracle");
    let oracle_snapshots = rollback_oracle(drill, ops, &expect, &oracle_dir);
    let stale_restores = oracle_snapshots;
    let _ = fs::remove_dir_all(&oracle_dir);

    #[derive(serde::Serialize)]
    struct Row {
        seed: u64,
        ops: usize,
        tenants: usize,
        nodes: usize,
        migrations_started: u64,
        migrations_committed: u64,
        migrations_skipped: u64,
        drains_completed: u64,
        stale_blob_epoch: u64,
        stale_replays_rejected: usize,
        child_killed: bool,
        snapshots_at_kill: u64,
        recovered_seq: u64,
        recovered_identical: bool,
        oracle_snapshots: usize,
        stale_restores_rejected: usize,
    }
    let rows = vec![Row {
        seed,
        ops,
        tenants,
        nodes: NODES,
        migrations_started: stats.migrations_started,
        migrations_committed: stats.migrations_committed,
        migrations_skipped: stats.migrations_skipped,
        drains_completed: stats.drains_completed,
        stale_blob_epoch: stale_epoch,
        stale_replays_rejected: stale_rejected,
        child_killed: true,
        snapshots_at_kill,
        recovered_seq,
        recovered_identical: true,
        oracle_snapshots,
        stale_restores_rejected: stale_restores,
    }];
    print_table(
        &[
            "migrations",
            "committed",
            "drains",
            "stale replays",
            "killed",
            "recovered seq",
            "identical",
            "stale restores",
        ],
        &[vec![
            stats.migrations_started.to_string(),
            stats.migrations_committed.to_string(),
            stats.drains_completed.to_string(),
            format!("{stale_rejected}/{stale_rejected}"),
            "true".to_owned(),
            recovered_seq.to_string(),
            "yes".to_owned(),
            format!("{stale_restores}/{stale_restores}"),
        ]],
    );
    save_json("figmigrate", &rows);
    println!(
        "figmigrate: migrated-cluster run byte-identical to single-node reference; \
         {stale_rejected} stale blob replay(s) and {stale_restores} stale restore(s) rejected."
    );
}
