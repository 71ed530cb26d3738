//! Crash-recovery integration: snapshots taken mid-run restore into a
//! freshly built system and the replayed suffix reproduces the
//! uninterrupted run byte for byte; torn snapshot files are rejected
//! with a typed error naming the path and recovery falls back to the
//! last good one; a capture that cannot commit ends the run with a
//! typed error.

use std::fs;

use itesp_core::Scheme;
use itesp_sim::recovery::{recover_system, RestoreError, SnapshotSink};
use itesp_sim::{build_churn_ras_system, ExperimentParams, RasConfig, RunError, RunResult, System};
use itesp_snap::{decode_into, SnapshotStore, StoreError};
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload};

fn seed() -> u64 {
    std::env::var("ITESP_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED)
}

fn workload(seed: u64) -> ChurnWorkload {
    ChurnWorkload::generate(
        benchmark("mcf").unwrap(),
        &ChurnConfig {
            slots: 4,
            sessions_per_slot: 3,
            ops_per_session: 400,
            mean_arrival_gap: 5_000.0,
            footprint_pages: 16,
            free_fraction: 0.3,
            seed,
        },
    )
}

fn params(seed: u64) -> ExperimentParams {
    ExperimentParams {
        seed,
        ..ExperimentParams::paper_4core(Scheme::Itesp, 400)
    }
}

fn build(seed: u64) -> System {
    build_churn_ras_system(
        &workload(seed),
        params(seed),
        RasConfig::new(seed ^ 0xFA17).with_fault_rate(20.0),
    )
}

/// Byte-exact fingerprint of a finished run (Debug covers every field).
fn fp(r: &RunResult) -> String {
    format!("{r:?}")
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "itesp-recovery-{tag}-{}-{}",
        std::process::id(),
        seed()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

#[test]
fn every_snapshot_resumes_to_the_identical_final_result() {
    let seed = seed();
    let dir = tmpdir("resume");
    let baseline = {
        let mut sys = build(seed);
        sys.attach_snapshots(SnapshotSink::new(&dir, 100_000).unwrap());
        fp(&sys.try_run().unwrap())
    };

    let store = SnapshotStore::open(&dir).unwrap();
    let records = store.wal_records().unwrap();
    assert!(
        records.len() >= 2,
        "run too short to checkpoint more than once (seed {seed}): {records:?}"
    );
    // Monotone WAL: seq and cycle never rewind.
    for w in records.windows(2) {
        assert!(w[1].seq > w[0].seq, "seq rewound: {records:?}");
        assert!(w[1].cycle > w[0].cycle, "cycle rewound: {records:?}");
    }

    // A crash immediately after *any* surviving snapshot recovers to the
    // same final result: load it, replay the suffix, compare bytes.
    let mut checked = 0;
    for rec in &records {
        let Ok((meta, payload)) = store.load(rec.seq) else {
            continue; // pruned (old snapshots are deleted, WAL kept)
        };
        assert_eq!(meta.seq, rec.seq);
        let mut sys = build(seed);
        decode_into(&payload, &mut sys)
            .unwrap_or_else(|e| panic!("snapshot {} failed to decode (seed {seed}): {e}", rec.seq));
        assert_eq!(sys.cycle(), rec.cycle, "WAL cycle mismatch");
        let resumed = fp(&sys.try_run().unwrap());
        assert_eq!(
            resumed, baseline,
            "suffix replay from snapshot {} diverged (seed {seed})",
            rec.seq
        );
        checked += 1;
    }
    assert!(checked >= 1, "no loadable snapshot to check (seed {seed})");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_skips_a_torn_snapshot_and_uses_the_last_good_one() {
    let seed = seed();
    let dir = tmpdir("torn");
    let baseline = {
        let mut sys = build(seed);
        sys.attach_snapshots(SnapshotSink::new(&dir, 100_000).unwrap());
        fp(&sys.try_run().unwrap())
    };

    let store = SnapshotStore::open(&dir).unwrap();
    let head = store.wal_head().unwrap().expect("snapshots were written");
    // Tear the newest snapshot mid-write: truncate to half its length.
    let path = dir.join(format!("snap-{:016}.bin", head.seq));
    let len = fs::metadata(&path).unwrap().len();
    let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len / 2).unwrap();
    drop(f);

    // Direct load of the torn file is a typed error naming the path.
    match store.load(head.seq) {
        Err(StoreError::Torn { path: p, .. }) => assert_eq!(p, path),
        other => panic!("expected Torn, got {other:?}"),
    }

    // Recovery falls back to the previous good snapshot and still
    // reproduces the uninterrupted run.
    let mut sys = build(seed);
    let meta = recover_system(&mut sys, &dir).unwrap();
    assert!(meta.seq < head.seq, "must fall back past the torn head");
    assert_eq!(fp(&sys.try_run().unwrap()), baseline);

    // Strict (as-if-latest) restore of the same stale state is a
    // detected rollback: the WAL proves fresher state existed.
    let mut sys = build(seed);
    match store.restore_head(&mut sys) {
        Err(RestoreError::Store(StoreError::RollbackDetected {
            snapshot_seq,
            wal_seq,
        })) => {
            assert_eq!(snapshot_seq, meta.seq);
            assert_eq!(wal_seq, head.seq);
        }
        other => panic!("expected RollbackDetected, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshots_from_a_different_configuration_are_rejected() {
    let seed = seed();
    let dir = tmpdir("confmix");
    {
        let mut sys = build(seed);
        sys.attach_snapshots(SnapshotSink::new(&dir, 100_000).unwrap());
        sys.try_run().unwrap();
    }
    // Same workload shape, different scheme: the engine fingerprint
    // must refuse the restore instead of resuming corrupted state.
    let mut other = build_churn_ras_system(
        &workload(seed),
        ExperimentParams {
            seed,
            ..ExperimentParams::paper_4core(Scheme::Synergy, 400)
        },
        RasConfig::new(seed ^ 0xFA17).with_fault_rate(20.0),
    );
    match recover_system(&mut other, &dir) {
        Err(RestoreError::Decode(e)) => {
            let msg = e.to_string();
            assert!(
                msg.contains("fingerprint") || msg.contains("configuration"),
                "unhelpful mismatch error: {msg}"
            );
        }
        other => panic!("expected a decode rejection, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_capture_is_a_typed_error() {
    let dir = tmpdir("gone");
    let mut sys = build(seed());
    sys.attach_snapshots(SnapshotSink::new(&dir, 100_000).unwrap());
    fs::remove_dir_all(&dir).unwrap();
    match sys.try_run() {
        Err(RunError::Snapshot(StoreError::Io(_))) => {}
        other => panic!("expected a snapshot I/O error, got {other:?}"),
    }
}
