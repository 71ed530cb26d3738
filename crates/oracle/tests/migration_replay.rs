//! Cross-node anti-rollback oracle for live migration.
//!
//! A migration blob is a full serialized enclave (tree geometry, page
//! map, counters, ledger — never key material). If an attacker records
//! one on the wire and replays it after the migration commits, they
//! are attempting a *cross-node* rollback: resurrecting the enclave's
//! pre-migration counters somewhere in the cluster. The per-enclave
//! migration epoch is the defence — the commit bumps it, permanently
//! staling every earlier capture — and this oracle attacks it
//! directly, on every node, for every capture point:
//!
//! * a blob captured mid-flight and replayed after the commit must be
//!   rejected with [`MigrateError::EpochStale`] on **every** node,
//!   with node state untouched;
//! * a blob delivered to a node that is not the migration's
//!   destination must be rejected even at the *current* epoch;
//! * a second migration stales the first hop's blob by a further
//!   epoch, and directory epochs only ever grow.
//!
//! Seeds are replayable via `ITESP_TEST_SEED`.

use itesp_core::Scheme;
use itesp_migrate::{
    peek_header, Cluster, ClusterConfig, ClusterWorkload, MigrateError, Residence,
};
use itesp_oracle::with_seeds;
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload};

const NODES: usize = 3;

fn workload(seed: u64) -> ClusterWorkload {
    let w = ChurnWorkload::generate(
        benchmark("mcf").expect("table IV has mcf"),
        &ChurnConfig {
            slots: 2,
            sessions_per_slot: 2,
            ops_per_session: 250,
            mean_arrival_gap: 10_000.0,
            footprint_pages: 16,
            free_fraction: 0.3,
            seed,
        },
    );
    ClusterWorkload::from_churn(&w, 6)
}

fn cluster(seed: u64) -> Cluster {
    let mut cfg = ClusterConfig::small(NODES, 2, Scheme::Itesp);
    cfg.master = seed ^ 0x6d16_9a7e_0000_0001;
    cfg.seed = seed.rotate_left(11) ^ 0x6d16;
    Cluster::new(cfg, workload(seed))
}

/// Step until tenant 0 is admitted somewhere.
fn run_until_live(c: &mut Cluster, seed: u64) -> usize {
    while c.directory().entry(0).is_none() {
        c.step()
            .unwrap_or_else(|e| panic!("cluster step failed: {e} (seed {seed})"));
    }
    match c.directory().entry(0).unwrap().residence {
        Residence::Live { node } => node,
        other => panic!("tenant 0 admitted into {other:?} (seed {seed})"),
    }
}

#[test]
fn cross_node_migration_replay_is_rejected_everywhere() {
    with_seeds(
        "cross_node_migration_replay_is_rejected_everywhere",
        3,
        |seed| {
            let mut c = cluster(seed);
            let home = run_until_live(&mut c, seed);
            let first_hop = (home + 1) % NODES;
            c.start_migration(0, first_hop)
                .unwrap_or_else(|e| panic!("migration refused: {e} (seed {seed})"));
            let stale = c.inflight_blob(0).expect("transfer in flight").to_vec();
            let header = peek_header(&stale).expect("blob header decodes");
            assert_eq!(header.tenant, 0, "seed {seed}");
            assert_eq!(
                header.epoch, 1,
                "first hop carries the admit epoch (seed {seed})"
            );

            // Mid-flight, a copy delivered anywhere but the destination is
            // refused at the *current* epoch.
            let bystander = (home + 2) % NODES;
            assert!(
                matches!(
                    c.deliver_blob(bystander, &stale),
                    Err(MigrateError::NotInMigration { tenant: 0, .. })
                ),
                "wrong-node delivery must be refused (seed {seed})"
            );

            // Let the protocol commit; the epoch bumps.
            while c.inflight_blob(0).is_some() {
                c.step()
                    .unwrap_or_else(|e| panic!("cluster step failed: {e} (seed {seed})"));
            }
            let entry = c.directory().entry(0).expect("tenant stays tracked");
            assert_eq!(entry.epoch, 2, "commit bumps the epoch (seed {seed})");

            // The captured blob is now permanently stale — on every node,
            // including its own former source and destination — and a
            // rejection never mutates node state.
            for node in 0..NODES {
                let before = c.node_live_pages();
                match c.deliver_blob(node, &stale) {
                    Err(MigrateError::EpochStale {
                        tenant: 0,
                        blob_epoch: 1,
                        current_epoch,
                    }) => assert_eq!(current_epoch, 2, "seed {seed}"),
                    other => {
                        panic!("node {node}: expected EpochStale, got {other:?} (seed {seed})")
                    }
                }
                assert_eq!(
                    c.node_live_pages(),
                    before,
                    "rejection mutated node {node} (seed {seed})"
                );
            }
            c.check_exactly_one_home()
                .unwrap_or_else(|e| panic!("residency broken: {e} (seed {seed})"));

            // A second hop stales the second blob too, and the first blob
            // falls further behind — epochs only grow.
            let second_hop = (0..NODES)
                .find(|&n| n != first_hop && c.nodes()[n].free_slot().is_some())
                .unwrap_or_else(|| panic!("no node can take the second hop (seed {seed})"));
            c.start_migration(0, second_hop)
                .unwrap_or_else(|e| panic!("second migration refused: {e} (seed {seed})"));
            let second = c
                .inflight_blob(0)
                .expect("second transfer in flight")
                .to_vec();
            assert_eq!(peek_header(&second).unwrap().epoch, 2, "seed {seed}");
            while c.inflight_blob(0).is_some() {
                c.step()
                    .unwrap_or_else(|e| panic!("cluster step failed: {e} (seed {seed})"));
            }
            assert_eq!(c.directory().entry(0).unwrap().epoch, 3, "seed {seed}");
            for (blob, blob_epoch) in [(&stale, 1), (&second, 2)] {
                match c.deliver_blob(home, blob) {
                    Err(MigrateError::EpochStale {
                        blob_epoch: got, ..
                    }) => assert_eq!(got, blob_epoch, "seed {seed}"),
                    other => panic!(
                        "epoch-{blob_epoch} blob: expected EpochStale, got {other:?} (seed {seed})"
                    ),
                }
            }

            // The run still completes cleanly after every attack.
            c.run_to_completion()
                .unwrap_or_else(|e| panic!("post-attack run failed: {e} (seed {seed})"));
            c.check_exactly_one_home()
                .unwrap_or_else(|e| panic!("final residency broken: {e} (seed {seed})"));
        },
    );
}
