//! Anti-rollback oracle for the durable security state.
//!
//! Drives a real [`SecurityEngine`] + [`EnclaveManager`] through a
//! scripted enclave lifetime, committing (engine, manager) snapshots
//! into a [`SnapshotStore`] at known points. The store's write-ahead
//! log is the freshness witness, and the oracle checks both halves of
//! the anti-rollback contract:
//!
//! * **every** stale snapshot — intact bytes, valid CRC — is rejected
//!   by [`SnapshotStore::verify_fresh`] when restored *as if latest*,
//!   and [`SnapshotStore::restore_head`] refuses the stale survivor of
//!   a withheld head (only deterministic suffix replay may start from
//!   old state);
//! * the rejection matters: the oracle exhibits the concrete hazards a
//!   stale restore would smuggle in — a leaf-id freed after the stale
//!   snapshot coming back live, and a write counter rewinding — and
//!   proves state along the committed sequence is monotone (no engine
//!   access count or leaf counter ever decreases, enclave ids never
//!   rewind).
//!
//! Seeds are replayable via `ITESP_TEST_SEED`.

use std::fs;
use std::path::PathBuf;

use itesp_core::{EngineConfig, Scheme, SecurityEngine};
use itesp_enclave::{EnclaveManager, PAGE_BLOCKS, PAGE_BYTES};
use itesp_oracle::with_seeds;
use itesp_snap::{decode_into, RestoreError, SnapWriter, SnapshotStore, StoreError};

const SLOTS: usize = 4;

fn tmpdir(seed: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "itesp-rollback-oracle-{}-{seed}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// One committed state: engine bytes then manager bytes.
/// Access `vpage` of `slot`, backing it with `ppage` if this is its
/// first touch; returns its leaf.
fn access(
    mgr: &mut EnclaveManager,
    engine: &mut SecurityEngine,
    slot: usize,
    vpage: u64,
    is_write: bool,
    ppage: u64,
) -> u64 {
    let (_, block, _) = mgr.access(engine, slot, vpage * PAGE_BYTES, is_write, || ppage);
    block / PAGE_BLOCKS
}

fn commit(store: &SnapshotStore, step: u64, engine: &SecurityEngine, mgr: &EnclaveManager) -> u64 {
    let mut w = SnapWriter::new();
    w.put(engine);
    w.put(mgr);
    store.append(step, &w.into_bytes()).unwrap().seq
}

/// A freshly built (engine, manager) pair to restore into.
fn fresh_pair(seed: u64) -> (SecurityEngine, EnclaveManager) {
    (
        SecurityEngine::new(EngineConfig::paper_default(Scheme::Itesp)),
        EnclaveManager::new(SLOTS, seed),
    )
}

/// Restore a committed state into a freshly built pair.
fn restore(store: &SnapshotStore, seq: u64, seed: u64) -> (SecurityEngine, EnclaveManager) {
    let (_, payload) = store.load(seq).unwrap();
    let mut pair = fresh_pair(seed);
    decode_into(&payload, &mut pair).unwrap();
    pair
}

#[test]
fn stale_snapshots_are_rejected_and_would_resurrect_freed_state() {
    with_seeds(
        "stale_snapshots_are_rejected_and_would_resurrect_freed_state",
        3,
        |seed| {
            let dir = tmpdir(seed);
            let store = SnapshotStore::open(&dir).unwrap();
            let mut engine = SecurityEngine::new(EngineConfig::paper_default(Scheme::Itesp));
            let mut mgr = EnclaveManager::new(SLOTS, seed);

            // Epoch 1: every slot gets an enclave; slot 0 maps pages
            // 0..8 and writes page 3 once.
            for slot in 0..SLOTS {
                mgr.create(&mut engine, slot, 8);
            }
            for vpage in 0..8 {
                let leaf = access(&mut mgr, &mut engine, 0, vpage, false, vpage);
                engine.on_access(0, leaf * 64, leaf * 64, true);
            }
            access(&mut mgr, &mut engine, 0, 3, true, 0);
            let victim_leaf = mgr.enclave(0).unwrap().leaf_of(3).unwrap();
            let victim_counter = mgr.counter_of(0, victim_leaf).unwrap();
            assert!(victim_counter > 0, "the victim page was written");
            let stale_seq = commit(&store, 1, &engine, &mgr);

            // Epoch 2: the victim page is freed (counters reset, leaf
            // returned) and other counters advance past the snapshot.
            mgr.free_page(&mut engine, 0, 3);
            for _ in 0..4 {
                access(&mut mgr, &mut engine, 0, 5, true, 0);
            }
            let mid_seq = commit(&store, 2, &engine, &mgr);

            // Epoch 3: more traffic; the head is the only live truth.
            for slot in 1..SLOTS {
                let leaf = access(&mut mgr, &mut engine, slot, 0, false, 100 + slot as u64);
                engine.on_access(slot, leaf * 64, leaf * 64, true);
            }
            let head_seq = commit(&store, 3, &engine, &mgr);

            // Half one: every stale seq is rejected as-if-latest; only
            // the head verifies fresh.
            for stale in [stale_seq, mid_seq] {
                match store.verify_fresh(stale) {
                    Err(StoreError::RollbackDetected {
                        snapshot_seq,
                        wal_seq,
                    }) => {
                        assert_eq!(snapshot_seq, stale);
                        assert_eq!(wal_seq, head_seq);
                    }
                    other => panic!(
                        "stale snapshot {stale} must be detected, got {other:?} (seed {seed})"
                    ),
                }
            }
            store.verify_fresh(head_seq).unwrap();

            // Half two: the hazards are real. The stale state holds
            // exactly what rollback would smuggle back in.
            let (engine_stale, mgr_stale) = restore(&store, stale_seq, seed);
            let (engine_head, mgr_head) = restore(&store, head_seq, seed);

            // Same tenant in slot 0 throughout — no rekey excuses.
            assert_eq!(
                mgr_stale.enclave(0).unwrap().id(),
                mgr_head.enclave(0).unwrap().id()
            );
            // Hazard 1: the freed leaf is live again under the stale
            // state, with its page mapping resurrected.
            assert!(
                !mgr_head
                    .enclave(0)
                    .unwrap()
                    .allocator()
                    .is_live(victim_leaf),
                "head must have freed the victim leaf (seed {seed})"
            );
            assert!(
                mgr_stale
                    .enclave(0)
                    .unwrap()
                    .allocator()
                    .is_live(victim_leaf),
                "stale restore would resurrect freed leaf {victim_leaf} (seed {seed})"
            );
            // Hazard 2: a write counter rewinds (head reset it to 0 at
            // free time after it had advanced; stale still holds the
            // pre-free value, and page 5's counter goes backwards too).
            assert_eq!(
                mgr_stale.counter_of(0, victim_leaf),
                Some(victim_counter),
                "stale restore carries the pre-free counter (seed {seed})"
            );
            let leaf5 = mgr_head.enclave(0).unwrap().leaf_of(5).unwrap();
            assert!(
                mgr_stale.counter_of(0, leaf5).unwrap() < mgr_head.counter_of(0, leaf5).unwrap(),
                "accepting the stale snapshot would rewind a live counter (seed {seed})"
            );
            // Hazard 3: engine traffic counters rewind.
            assert!(
                engine_stale.stats().data_accesses() < engine_head.stats().data_accesses(),
                "accepting the stale snapshot would rewind engine stats (seed {seed})"
            );

            // Through the strict restore: with the head file withheld,
            // the surviving stale state is refused, naming the head.
            fs::remove_file(dir.join(format!("snap-{head_seq:016}.bin"))).unwrap();
            match store.restore_head(&mut fresh_pair(seed)) {
                Err(RestoreError::Store(StoreError::RollbackDetected {
                    snapshot_seq,
                    wal_seq,
                })) => assert_eq!((snapshot_seq, wal_seq), (mid_seq, head_seq)),
                other => panic!("withheld head must be detected, got {other:?} (seed {seed})"),
            }
            let _ = fs::remove_dir_all(&dir);
        },
    );
}

#[test]
fn committed_sequence_is_monotone() {
    with_seeds("committed_sequence_is_monotone", 3, |seed| {
        let dir = tmpdir(seed ^ 0x4040);
        let store = SnapshotStore::open(&dir).unwrap();
        let mut engine = SecurityEngine::new(EngineConfig::paper_default(Scheme::Itesp));
        let mut mgr = EnclaveManager::new(SLOTS, seed);
        for slot in 0..SLOTS {
            mgr.create(&mut engine, slot, 8);
        }

        // Commit after every burst of writes (no frees or destroys, so
        // every counter is monotone by construction — the oracle
        // verifies the *snapshots* preserve that order).
        let mut seqs = Vec::new();
        for step in 0..6u64 {
            for slot in 0..SLOTS {
                let vpage = step % 4;
                let leaf = access(
                    &mut mgr,
                    &mut engine,
                    slot,
                    vpage,
                    true,
                    step * 16 + slot as u64,
                );
                engine.on_access(slot, leaf * 64, leaf * 64, true);
            }
            seqs.push(commit(&store, step + 1, &engine, &mgr));
        }

        let records = store.wal_records().unwrap();
        assert_eq!(records.len(), seqs.len());
        for (prev, next) in seqs.iter().zip(&seqs[1..]) {
            let (e0, m0) = restore(&store, *prev, seed);
            let (e1, m1) = restore(&store, *next, seed);
            assert!(
                e0.stats().data_accesses() < e1.stats().data_accesses(),
                "engine access count must advance between commits (seed {seed})"
            );
            for slot in 0..SLOTS {
                let (a, b) = (m0.enclave(slot).unwrap(), m1.enclave(slot).unwrap());
                assert_eq!(a.id(), b.id(), "enclave ids never rewind");
                for vpage in 0..4 {
                    let Some(leaf) = a.leaf_of(vpage) else {
                        continue;
                    };
                    assert_eq!(b.leaf_of(vpage), Some(leaf), "mappings persist");
                    assert!(
                        m0.counter_of(slot, leaf).unwrap() <= m1.counter_of(slot, leaf).unwrap(),
                        "leaf counter rewound across commits (seed {seed})"
                    );
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    });
}
