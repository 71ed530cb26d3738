//! Cluster-level properties: placement-independent tenant artifacts,
//! epoch-gated replay rejection, drain/rebalance behaviour, and
//! snapshot recovery equivalence.

use std::path::PathBuf;

use itesp_core::Scheme;
use itesp_migrate::{
    peek_header, Cluster, ClusterConfig, ClusterWorkload, MigrateError, Residence,
};
use itesp_snap::SnapWriter;
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload};

fn workload(seed: u64) -> ClusterWorkload {
    let w = ChurnWorkload::generate(
        benchmark("mcf").unwrap(),
        &ChurnConfig {
            slots: 3,
            sessions_per_slot: 2,
            ops_per_session: 400,
            mean_arrival_gap: 20_000.0,
            footprint_pages: 24,
            free_fraction: 0.35,
            seed,
        },
    );
    // Shift arrivals into tick space so sessions overlap.
    ClusterWorkload::from_churn(&w, 6)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itesp-migrate-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The tentpole property: per-tenant stats are byte-identical between
/// a single-node run and a multi-node run with migrations, a drain,
/// and the rebalancer all active.
#[test]
fn migrated_tenants_match_the_single_node_reference_byte_for_byte() {
    let wl = workload(0xA11CE);

    let mut reference = Cluster::new(
        ClusterConfig::small(1, wl.tenant_count(), Scheme::Itesp),
        wl.clone(),
    );
    reference.run_to_completion().unwrap();
    let expect = reference.tenants_json();
    assert!(expect.contains("\"counter_checksum\""));

    let mut cfg = ClusterConfig::small(4, 3, Scheme::Itesp);
    cfg.rebalance_every = 64;
    cfg.rebalance_threshold = 8;
    let mut cluster = Cluster::new(cfg, wl.clone());
    // Schedule relative to arrivals so the tenants are live (scripts
    // are 400 ops ≈ 400 ticks once admitted).
    let a0 = wl.tenants[0].arrival;
    let a1 = wl.tenants[1].arrival;
    cluster.schedule_migration(a0 + 40, 0, 2);
    cluster.schedule_migration(a1.max(a0 + 40) + 40, 1, 3);
    cluster.schedule_migration(a1.max(a0 + 40) + 120, 0, 1); // second hop
    cluster.schedule_drain(a1.max(a0 + 40) + 160, 0);
    cluster.run_to_completion().unwrap();

    assert_eq!(
        cluster.tenants_json(),
        expect,
        "placement leaked into stats"
    );
    assert!(cluster.stats().migrations_committed >= 2);
    // The drained node retired empty.
    assert!(cluster.nodes()[0].retired());
    assert_eq!(cluster.nodes()[0].live_pages(), 0);
    cluster.check_exactly_one_home().unwrap();
}

/// The headline safety property, attacked directly: a blob captured
/// mid-migration and replayed after the commit is rejected typed, on
/// every node, with no state change.
#[test]
fn stale_blob_replay_is_rejected_on_every_node() {
    let wl = workload(0xBEEF);
    let mut cluster = Cluster::new(ClusterConfig::small(3, 3, Scheme::Itesp), wl);
    // Run until tenant 0 is live, then start a migration by hand.
    while cluster.directory().entry(0).is_none() {
        cluster.step().unwrap();
    }
    cluster.start_migration(0, 1).unwrap();
    let stale = cluster.inflight_blob(0).expect("transfer in flight");

    // A fresh copy delivered to the *wrong* node is refused.
    assert!(matches!(
        cluster.deliver_blob(2, &stale),
        Err(MigrateError::NotInMigration { tenant: 0, node: 2 })
    ));

    // Let the protocol finish: the commit bumps the epoch.
    while cluster.inflight_blob(0).is_some() {
        cluster.step().unwrap();
    }
    let entry = cluster.directory().entry(0).unwrap();
    assert_eq!(entry.epoch, 2);
    assert_eq!(entry.residence, Residence::Live { node: 1 });

    // The captured blob is now permanently stale — on any node.
    for node in 0..3 {
        let before = cluster.node_live_pages();
        match cluster.deliver_blob(node, &stale) {
            Err(MigrateError::EpochStale {
                tenant: 0,
                blob_epoch: 1,
                current_epoch: 2,
            }) => {}
            other => panic!("node {node}: expected EpochStale, got {other:?}"),
        }
        assert_eq!(cluster.node_live_pages(), before, "rejection mutated state");
    }
    cluster.check_exactly_one_home().unwrap();
    cluster.run_to_completion().unwrap();
}

/// A blob from a differently-configured cluster fails the fingerprint
/// check before the epoch is even consulted.
#[test]
fn config_fingerprint_gates_foreign_blobs() {
    let wl = workload(0xFACE);
    let mut donor = Cluster::new(ClusterConfig::small(2, 3, Scheme::ItVault), wl.clone());
    while donor.directory().entry(0).is_none() {
        donor.step().unwrap();
    }
    donor.start_migration(0, 1).unwrap();
    let foreign = donor.inflight_blob(0).unwrap();

    let mut cluster = Cluster::new(ClusterConfig::small(2, 3, Scheme::Itesp), wl);
    while cluster.directory().entry(0).is_none() {
        cluster.step().unwrap();
    }
    assert!(matches!(
        cluster.deliver_blob(1, &foreign),
        Err(MigrateError::ConfigMismatch { .. })
    ));
}

/// A bad blob leaves no trace: a padded, a truncated and a spliced
/// blob (one tenant's header in front of another tenant's body) are
/// each refused with a typed error before any node is touched, and the
/// genuine blob still commits afterwards.
#[test]
fn malformed_blobs_are_refused_without_a_trace() {
    let wl = workload(0xB10B);
    let mut cluster = Cluster::new(ClusterConfig::small(3, 3, Scheme::Itesp), wl);
    let live = |c: &Cluster, t: u64| match c.directory().entry(t)?.residence {
        Residence::Live { node } => Some(node),
        _ => None,
    };
    while live(&cluster, 0).is_none() || live(&cluster, 1).is_none() {
        cluster.step().unwrap();
    }
    let (home0, home1) = (live(&cluster, 0).unwrap(), live(&cluster, 1).unwrap());
    let to0 = (home0 + 1) % 3;
    cluster.start_migration(0, to0).unwrap();
    cluster.start_migration(1, (home1 + 1) % 3).unwrap();
    let blob0 = cluster.inflight_blob(0).unwrap();
    let blob1 = cluster.inflight_blob(1).unwrap();
    let header_len = {
        let mut w = SnapWriter::new();
        w.put(&peek_header(&blob0).unwrap());
        w.into_bytes().len()
    };

    let mut padded = blob0.clone();
    padded.push(0);
    let truncated = &blob0[..blob0.len() - 1];
    let spliced: Vec<u8> = blob0[..header_len]
        .iter()
        .chain(&blob1[header_len..])
        .copied()
        .collect();
    let before = (cluster.node_live_pages(), cluster.directory().clone());
    for (what, blob) in [("padded", &padded[..]), ("truncated", truncated)] {
        match cluster.deliver_blob(to0, blob) {
            Err(MigrateError::Decode(_)) => {}
            other => panic!("{what} blob: expected Decode, got {other:?}"),
        }
    }
    match cluster.deliver_blob(to0, &spliced) {
        Err(MigrateError::TenantMismatch { header: 0, body: 1 }) => {}
        other => panic!("spliced blob: expected TenantMismatch, got {other:?}"),
    }
    assert_eq!(
        (cluster.node_live_pages(), cluster.directory().clone()),
        before,
        "a refused blob changed cluster state"
    );
    assert_eq!(cluster.nodes()[to0].slot_of(0), None, "half-installed");
    cluster.check_exactly_one_home().unwrap();

    // The genuine transfer still lands.
    while cluster.inflight_blob(0).is_some() {
        cluster.step().unwrap();
    }
    let entry = cluster.directory().entry(0).unwrap();
    assert_eq!(
        (entry.epoch, entry.residence),
        (2, Residence::Live { node: to0 })
    );
    cluster.run_to_completion().unwrap();
}

/// Crash-recovery equivalence: snapshots taken mid-run (including the
/// forced capture at a migration freeze) recover into a cluster that
/// finishes with the byte-identical artifact.
#[test]
fn recovery_from_a_mid_migration_snapshot_is_equivalent() {
    let wl = workload(0xD00D);
    let cfg = ClusterConfig::small(3, 3, Scheme::Itesp);
    let m0 = wl.tenants[0].arrival + 50;
    let m1 = wl.tenants[1].arrival.max(m0) + 40;

    let mut reference = Cluster::new(cfg, wl.clone());
    reference.schedule_migration(m0, 0, 1);
    reference.schedule_migration(m1, 1, 2);
    reference.run_to_completion().unwrap();
    let expect = reference.tenants_json();
    assert_eq!(reference.stats().migrations_committed, 2);

    // Same run, snapshotting every 16 ticks; abandon it mid-flight.
    let dir = scratch("recover");
    let mut victim = Cluster::new(cfg, wl.clone());
    victim.attach_snapshots(&dir, 16).unwrap();
    victim.schedule_migration(m0, 0, 1);
    victim.schedule_migration(m1, 1, 2);
    // Step until the second migration's transfer is in flight, then
    // "crash" (drop the cluster without completing).
    while victim.stats().migrations_started < 2 {
        victim.step().unwrap();
        assert!(victim.tick() < m1 + 10, "second migration never started");
    }
    assert!(!victim.inflight().is_empty(), "transfer should be live");
    let crash_tick = victim.tick();
    drop(victim);

    // Recover from durable state and finish.
    let (mut recovered, meta) = Cluster::recover(cfg, wl, &dir, 16).unwrap();
    assert!(meta.cycle <= crash_tick);
    recovered.check_exactly_one_home().unwrap();
    recovered.schedule_migration(m0, 0, 1);
    recovered.schedule_migration(m1, 1, 2);
    recovered.run_to_completion().unwrap();
    assert_eq!(
        recovered.tenants_json(),
        expect,
        "recovered run diverged from the uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
