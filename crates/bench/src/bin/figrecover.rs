//! Crash-recovery drill: SIGKILL a live churn+RAS run, recover it,
//! prove the result.
//!
//! The headline robustness claim is that the durable security state —
//! snapshot files plus write-ahead log (see `itesp-snap`) —
//! loses nothing a crash can take: because the simulator is
//! deterministic, "load the newest good snapshot, replay the suffix"
//! reproduces the uninterrupted run **byte for byte**. This drill
//! proves it the hard way, in three stages:
//!
//! 1. **Reference** — run the churn+RAS schedule uninterrupted,
//!    in-process, and keep its final `RunResult`.
//! 2. **Kill** — spawn this same binary as a child with snapshots
//!    enabled (`ITESP_SNAPSHOT_DIR`/`ITESP_SNAPSHOT_EVERY`), wait for
//!    a seed-chosen number of checkpoints to commit, and SIGKILL it
//!    mid-flight. Rebuild the system, `recover_system`, run to
//!    completion, and require the recovered result identical to the
//!    reference (engine, DRAM, churn, and RAS statistics all compared).
//! 3. **Rollback oracle** — re-run with snapshots to completion, then
//!    attempt to restore every *stale* snapshot as-if-latest: each must
//!    be rejected with `RollbackDetected` (the WAL is the freshness
//!    witness). Deleting the newest snapshot — an attacker serving an
//!    old-but-intact file — must likewise be detected by the strict
//!    path while the replay path still recovers and matches.
//!
//! Run: `cargo run --release -p itesp-bench --bin figrecover [ops]`
//! With `--recover` (or `ITESP_RECOVER=1`) and `ITESP_SNAPSHOT_DIR`
//! set, skips the drill and resumes the schedule from the snapshots on
//! disk — the operator-facing recovery path. This binary reads
//! `ITESP_SNAPSHOT_DIR`/`ITESP_SNAPSHOT_EVERY` itself (see
//! [`SnapshotConfig`]).
//! Failures print an `ITESP_TEST_SEED` replay line.

use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};

use itesp_bench::drill::{Drill, Kill, SnapshotConfig};
use itesp_bench::{ops_from_env, print_table, recover_from_env, save_json};
use itesp_core::Scheme;
use itesp_reliability::env_seed;
use itesp_sim::{
    build_churn_ras_system, recover_system, ExperimentParams, RasConfig, RunResult, SnapshotSink,
    System,
};
use itesp_snap::SnapshotStore;
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SLOTS: usize = 4;
const SESSIONS_PER_SLOT: usize = 3;

/// Marker env var: set on the child process the parent SIGKILLs.
const CHILD_ENV: &str = "ITESP_FIGRECOVER_CHILD";

/// Default CPU cycles between the drill's snapshots — small enough
/// that even a quick run commits several checkpoints to kill between.
const DRILL_EVERY: u64 = 50_000;

/// The drill's churn+RAS schedule: one `System`, a pure function of
/// `(seed, ops)` so parent, child, and the recovery path all rebuild
/// the identical run.
fn build_system(seed: u64, ops: usize) -> System {
    let w = ChurnWorkload::generate(
        benchmark("mcf").expect("table IV has mcf"),
        &ChurnConfig {
            slots: SLOTS,
            sessions_per_slot: SESSIONS_PER_SLOT,
            ops_per_session: (ops / (SLOTS * SESSIONS_PER_SLOT)).max(200),
            mean_arrival_gap: 5_000.0,
            footprint_pages: 16,
            free_fraction: 0.3,
            seed,
        },
    );
    let p = ExperimentParams {
        seed,
        ..ExperimentParams::paper_4core(Scheme::Itesp, ops)
    };
    build_churn_ras_system(&w, p, RasConfig::new(seed ^ 0xFA17).with_fault_rate(20.0))
}

/// Byte-exact fingerprint of a finished run: the full serialized
/// `RunResult` (engine, DRAM, churn, and RAS statistics).
fn fingerprint(r: &RunResult) -> String {
    serde_json::to_string_pretty(r).expect("RunResult serializes")
}

/// Child mode: run the schedule with snapshots attached and leave the
/// final fingerprint next to them. The parent kills us somewhere in
/// the middle — if we survive to the end, the drill still verifies
/// recovery from the snapshots we wrote.
fn child_main(seed: u64, ops: usize) -> ! {
    let cfg = SnapshotConfig::from_env().expect("child needs ITESP_SNAPSHOT_DIR");
    let mut sys = build_system(seed, ops);
    sys.attach_snapshots(
        SnapshotSink::new(&cfg.dir, cfg.every).expect("child snapshot dir must open"),
    );
    let r = sys.try_run().expect("drill RAS config never halts");
    fs::write(cfg.dir.join("final.json"), fingerprint(&r)).expect("write child fingerprint");
    std::process::exit(0);
}

/// Operator mode (`--recover`): resume the schedule from the snapshots
/// in `ITESP_SNAPSHOT_DIR` and run it to completion.
fn recover_main(seed: u64, ops: usize) -> ! {
    let cfg = SnapshotConfig::from_env().unwrap_or_else(|| {
        eprintln!("error: --recover requires ITESP_SNAPSHOT_DIR");
        std::process::exit(2);
    });
    let mut sys = build_system(seed, ops);
    let meta = match recover_system(&mut sys, &cfg.dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: could not recover from {}: {e}", cfg.dir.display());
            std::process::exit(1);
        }
    };
    println!(
        "[recovered snapshot seq {} at cycle {}; replaying suffix]",
        meta.seq, meta.cycle
    );
    let r = sys.try_run().expect("drill RAS config never halts");
    println!("{}", fingerprint(&r));
    std::process::exit(0);
}

/// Stage 2: spawn the child, SIGKILL it after `kill_after` committed
/// checkpoints, recover, and return (snapshots seen, whether the kill
/// landed, the recovered seq, the recovered fingerprint).
fn kill_and_recover(
    drill: Drill,
    ops: usize,
    kill_after: usize,
    dir: &Path,
) -> (usize, bool, u64, String) {
    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe)
        .env(CHILD_ENV, "1")
        .env("ITESP_TEST_SEED", drill.seed.to_string())
        .env("ITESP_OPS", ops.to_string())
        .env("ITESP_SNAPSHOT_DIR", dir)
        .env("ITESP_SNAPSHOT_EVERY", DRILL_EVERY.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn drill child");

    // The head seq counts every commit ever acknowledged; the record
    // *count* no longer does, since pruning compacts the WAL. A child
    // that finishes before the kill lands is still verifiable.
    let store = SnapshotStore::open(dir).expect("open drill store");
    let what = format!("committing {kill_after} snapshots");
    let killed = drill.kill_when(&mut child, &what, || {
        let committed = store.wal_head().ok().flatten().map_or(0, |r| r.seq);
        committed as usize >= kill_after
    }) == Kill::Killed;

    let records = store.wal_records().expect("read drill WAL");
    assert!(
        !records.is_empty(),
        "child died before its first checkpoint — raise ops or lower \
         ITESP_SNAPSHOT_EVERY ({drill})"
    );
    let mut sys = build_system(drill.seed, ops);
    let meta = recover_system(&mut sys, dir)
        .unwrap_or_else(|e| panic!("recovery after SIGKILL failed: {e} ({drill})"));
    let fp = fingerprint(&sys.try_run().expect("drill RAS config never halts"));
    (records.len(), killed, meta.seq, fp)
}

/// Stage 3: run to completion with snapshots, then the rollback
/// oracle over them. Returns the snapshots committed, every one of
/// them a rejected stale restore.
fn rollback_oracle(drill: Drill, ops: usize, reference: &str, dir: &Path) -> usize {
    let seed = drill.seed;
    let mut sys = build_system(seed, ops);
    sys.attach_snapshots(SnapshotSink::new(dir, DRILL_EVERY).expect("open oracle store"));
    sys.try_run().expect("drill RAS config never halts");
    drill.rollback_oracle(
        dir,
        reference,
        || build_system(seed, ops),
        |sys| fingerprint(&sys.try_run().expect("drill RAS config never halts")),
    )
}

fn main() {
    let seed = env_seed(0xC0FFEE);
    let ops = ops_from_env();
    if std::env::var_os(CHILD_ENV).is_some() {
        child_main(seed, ops);
    }
    if recover_from_env() {
        recover_main(seed, ops);
    }

    eprintln!("[figrecover: reference run, {ops} ops, seed {seed}]");
    let reference = fingerprint(&build_system(seed, ops).try_run().expect("reference run"));

    let drill = Drill::new("figrecover", seed);
    let kill_after = StdRng::seed_from_u64(seed ^ 0x5163_4411).gen_range(1..=3);
    eprintln!("[figrecover: SIGKILL drill after {kill_after} checkpoint(s)]");
    let drill_dir = drill.scratch("drill");
    let (snapshots, killed, recovered_seq, recovered) =
        kill_and_recover(drill, ops, kill_after, &drill_dir);
    assert_eq!(
        recovered, reference,
        "recovered run diverged from the uninterrupted run ({drill})"
    );
    let _ = fs::remove_dir_all(&drill_dir);

    eprintln!("[figrecover: anti-rollback oracle]");
    let oracle_dir = drill.scratch("oracle");
    let committed = rollback_oracle(drill, ops, &reference, &oracle_dir);
    let rejected = committed;
    let _ = fs::remove_dir_all(&oracle_dir);

    #[derive(serde::Serialize)]
    struct Row {
        seed: u64,
        ops: usize,
        snapshot_every: u64,
        kill_after: usize,
        child_killed: bool,
        snapshots_at_kill: usize,
        recovered_seq: u64,
        recovered_identical: bool,
        oracle_snapshots: usize,
        stale_restores_rejected: usize,
    }
    let rows = vec![Row {
        seed,
        ops,
        snapshot_every: DRILL_EVERY,
        kill_after,
        child_killed: killed,
        snapshots_at_kill: snapshots,
        recovered_seq,
        recovered_identical: true,
        oracle_snapshots: committed,
        stale_restores_rejected: rejected,
    }];
    print_table(
        &[
            "kill after",
            "killed",
            "snapshots",
            "recovered seq",
            "identical",
            "stale rejected",
        ],
        &[vec![
            kill_after.to_string(),
            killed.to_string(),
            snapshots.to_string(),
            recovered_seq.to_string(),
            "yes".to_owned(),
            format!("{rejected}/{rejected}"),
        ]],
    );
    save_json("figrecover", &rows);
    println!(
        "figrecover: recovered run byte-identical to uninterrupted run; \
         {rejected} stale restore(s) rejected."
    );
}
