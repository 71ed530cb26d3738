//! The one commit and restore path: `write_atomic`, `commit`, the
//! `SnapshotSink` cadence, and the latest-good / strict-head restore
//! pair with its typed `RestoreError`.

use std::fs;
use std::path::PathBuf;

use itesp_snap::{
    write_atomic, Persist, RestoreError, SnapError, SnapReader, SnapWriter, SnapshotSink,
    SnapshotStore, StoreError, KEEP_SNAPSHOTS,
};

/// A state that counts how often it was decoded into.
#[derive(Debug, Default)]
struct Probe {
    value: u64,
    loads: usize,
}

impl Persist for Probe {
    fn save(&self, w: &mut SnapWriter) {
        w.section("PROB", 1);
        w.u64(self.value);
    }

    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        self.loads += 1;
        r.section("PROB", 1)?;
        self.value = r.u64("probe value")?;
        Ok(())
    }
}

/// A different section: its bytes are not a `Probe`'s.
#[derive(Debug, Default, Persist)]
#[persist(section = "OTHR", version = 1)]
struct Other {
    value: u64,
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("itesp-snap-ckpt-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn snap_file(dir: &std::path::Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:016}.bin"))
}

/// Three commits of a `Probe` through a sink that captures every 10
/// ticks; returns the store.
fn three_commits(dir: &std::path::Path) -> SnapshotStore {
    let mut sink = SnapshotSink::new(dir, 10).unwrap();
    for tick in 0..30 {
        if sink.due(tick) {
            sink.capture(
                tick,
                &Probe {
                    value: tick,
                    loads: 0,
                },
            )
            .unwrap();
        }
    }
    let heads: Vec<_> = sink.store().wal_records().unwrap();
    assert_eq!(
        heads.iter().map(|r| (r.seq, r.cycle)).collect::<Vec<_>>(),
        [(1, 0), (2, 10), (3, 20)]
    );
    SnapshotStore::open(dir).unwrap()
}

#[test]
fn restore_pair_reads_the_head() {
    let dir = scratch("head");
    let store = three_commits(&dir);
    let mut latest = Probe::default();
    assert_eq!(store.restore_latest(&mut latest).unwrap().seq, 3);
    let mut strict = Probe::default();
    assert_eq!(store.restore_head(&mut strict).unwrap().seq, 3);
    assert_eq!((latest.value, strict.value), (20, 20));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn latest_good_restore_into_a_mismatched_section_is_a_decode_error() {
    let dir = scratch("mismatch");
    let store = three_commits(&dir);
    match store.restore_latest(&mut Other::default()) {
        Err(RestoreError::Decode(SnapError::BadSection {
            expected, found, ..
        })) => {
            assert_eq!((&expected, &found), (b"OTHR", b"PROB"));
        }
        other => panic!("expected a typed decode error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn strict_restore_with_the_head_withheld_names_it_and_decodes_nothing() {
    let dir = scratch("withheld");
    let store = three_commits(&dir);
    fs::remove_file(snap_file(&dir, 3)).unwrap();

    let mut state = Probe::default();
    match store.restore_head(&mut state) {
        Err(RestoreError::Store(StoreError::RollbackDetected {
            snapshot_seq,
            wal_seq,
        })) => assert_eq!((snapshot_seq, wal_seq), (2, 3)),
        other => panic!("expected RollbackDetected, got {other:?}"),
    }
    assert_eq!(state.loads, 0, "a refused snapshot must not be decoded");

    // Replay recovery from the older state is still available.
    let meta = store.restore_latest(&mut state).unwrap();
    assert_eq!((meta.seq, state.value, state.loads), (2, 10, 1));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn empty_store_restore_is_a_typed_store_error() {
    let dir = scratch("empty");
    let store = SnapshotStore::open(&dir).unwrap();
    assert!(matches!(
        store.restore_head(&mut Probe::default()),
        Err(RestoreError::Store(StoreError::NoSnapshot { .. }))
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn commit_keeps_the_newest_snapshots_and_the_head() {
    let dir = scratch("keep");
    let store = SnapshotStore::open(&dir).unwrap();
    let commits = KEEP_SNAPSHOTS as u64 + 3;
    for c in 1..=commits {
        store.commit(c, b"state").unwrap();
    }
    let kept: Vec<u64> = store.wal_records().unwrap().iter().map(|r| r.seq).collect();
    assert_eq!(
        kept,
        (commits - KEEP_SNAPSHOTS as u64 + 1..=commits).collect::<Vec<_>>()
    );
    assert!(
        store.load(commits - KEEP_SNAPSHOTS as u64).is_err(),
        "pruned"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_crashed_write_atomic_leaves_nothing_the_next_write_or_read_sees() {
    let dir = scratch("tmp");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("result.json");
    write_atomic(&path, b"first").unwrap();

    // Temp files a crash left behind before its rename: one from
    // another process, one from this process's own pid.
    let stale_other = dir.join("result.json.tmp.4000000");
    let stale_own = dir.join(format!("result.json.tmp.{}", std::process::id()));
    fs::write(&stale_other, b"torn").unwrap();
    fs::write(&stale_own, b"torn as well").unwrap();
    assert_eq!(fs::read(&path).unwrap(), b"first");

    write_atomic(&path, b"second").unwrap();
    assert_eq!(fs::read(&path).unwrap(), b"second");
    assert!(
        !stale_own.exists(),
        "the own-pid temp is reused and renamed"
    );

    // The same inside a snapshot store: a leftover temp of a snapshot
    // that never committed is invisible to restore and to the next
    // commit, which reuses its sequence number.
    let store = SnapshotStore::open(dir.join("store")).unwrap();
    store
        .commit(1, &itesp_snap::encode(&Probe { value: 5, loads: 0 }))
        .unwrap();
    fs::write(
        store.dir().join("snap-0000000000000002.bin.tmp.4000000"),
        b"torn",
    )
    .unwrap();
    let mut state = Probe::default();
    assert_eq!(store.restore_head(&mut state).unwrap().seq, 1);
    assert_eq!(state.value, 5);
    let meta = store
        .commit(2, &itesp_snap::encode(&Probe { value: 6, loads: 0 }))
        .unwrap();
    assert_eq!(meta.seq, 2);
    assert_eq!(store.restore_head(&mut state).unwrap().seq, 2);
    assert_eq!(state.value, 6);
    let _ = fs::remove_dir_all(&dir);
}
