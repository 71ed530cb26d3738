//! The crash drills' shared machinery (`figrecover`, `figmigrate`,
//! `figserve`): scratch directories and the seed replay line, the
//! SIGKILL poll loop, the snapshot knobs, and the stale-snapshot
//! rollback oracle.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::{Duration, Instant};

use itesp_snap::{Persist, RestoreError, SnapshotStore, StoreError};

/// Default CPU cycles between snapshot captures.
const DEFAULT_SNAPSHOT_EVERY: u64 = 200_000;

/// How long a drill waits for its child to reach the kill point.
const KILL_DEADLINE: Duration = Duration::from_secs(600);

/// Where and how often a run checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotConfig {
    /// Checkpoint directory (snapshot files + WAL).
    pub dir: PathBuf,
    /// CPU cycles between captures.
    pub every: u64,
}

impl SnapshotConfig {
    /// Build from `ITESP_SNAPSHOT_DIR` (the checkpoint directory) and
    /// `ITESP_SNAPSHOT_EVERY` (CPU cycles between captures, default
    /// 200 000); `None` when no directory is configured (snapshots
    /// off). Exits with an error naming `ITESP_SNAPSHOT_EVERY` when it
    /// is set but not a positive integer.
    pub fn from_env() -> Option<Self> {
        let dir = std::env::var_os("ITESP_SNAPSHOT_DIR")?;
        if dir.is_empty() {
            return None;
        }
        let every =
            every_from(crate::env_var("ITESP_SNAPSHOT_EVERY").as_deref()).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
        Some(SnapshotConfig {
            dir: PathBuf::from(dir),
            every,
        })
    }
}

/// The capture cadence an `ITESP_SNAPSHOT_EVERY` value asks for
/// (unset: [`DEFAULT_SNAPSHOT_EVERY`]).
fn every_from(value: Option<&str>) -> Result<u64, String> {
    value.map_or(Ok(DEFAULT_SNAPSHOT_EVERY), |v| {
        crate::positive(v, "snapshot cadence", "ITESP_SNAPSHOT_EVERY").map(|n| n as u64)
    })
}

/// How a [`Drill::kill_when`] wait ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kill {
    /// The child reached the kill point and was SIGKILLed.
    Killed,
    /// The child exited on its own first.
    ExitedEarly,
}

/// One drill run: the binary and the seed that replays it. Displays as
/// the replay line every failure message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drill {
    pub bin: &'static str,
    pub seed: u64,
}

impl fmt::Display for Drill {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay: ITESP_TEST_SEED={} cargo run --release -p itesp-bench --bin {}",
            self.seed, self.bin
        )
    }
}

impl Drill {
    pub fn new(bin: &'static str, seed: u64) -> Self {
        Drill { bin, seed }
    }

    /// A fresh (emptied) per-process scratch directory for stage `tag`.
    pub fn scratch(&self, tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "itesp-{}-{tag}-{}-{}",
            self.bin,
            std::process::id(),
            self.seed
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// Poll `child` until `ready` holds, then SIGKILL and reap it.
    ///
    /// # Panics
    /// If neither happens before the deadline; `what` names the kill
    /// point the child never reached.
    pub fn kill_when(
        &self,
        child: &mut Child,
        what: &str,
        mut ready: impl FnMut() -> bool,
    ) -> Kill {
        let deadline = Instant::now() + KILL_DEADLINE;
        loop {
            if child.try_wait().expect("poll child").is_some() {
                return Kill::ExitedEarly;
            }
            if ready() {
                child.kill().expect("SIGKILL child");
                child.wait().expect("reap child");
                return Kill::Killed;
            }
            assert!(
                Instant::now() < deadline,
                "drill child hung before {what} ({self})"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The anti-rollback oracle over `dir`, which holds a finished
    /// run's checkpoints. Every non-head snapshot restored as-if-latest
    /// must be refused with `RollbackDetected`. Then the attacker's
    /// move: withhold the head file. The strict restore must name the
    /// withheld head without decoding anything, while replay recovery
    /// — `fresh()` restored from the older state, then `finish`ed —
    /// must still reproduce `reference`.
    ///
    /// Returns the snapshots the WAL held, which is also the number of
    /// stale restores rejected (every non-head one, plus the withheld
    /// head).
    pub fn rollback_oracle<T: Persist>(
        &self,
        dir: &Path,
        reference: &str,
        fresh: impl Fn() -> T,
        finish: impl FnOnce(T) -> String,
    ) -> usize {
        let store = SnapshotStore::open(dir).expect("reopen oracle store");
        let records = store.wal_records().expect("read oracle WAL");
        assert!(
            records.len() >= 2,
            "oracle needs at least two checkpoints, got {} ({self})",
            records.len()
        );
        let head = records.last().expect("non-empty").seq;
        assert_eq!(store.latest_seq().expect("head seq"), Some(head));
        for rec in &records[..records.len() - 1] {
            match store.verify_fresh(rec.seq) {
                Err(StoreError::RollbackDetected { .. }) => {}
                other => panic!(
                    "stale snapshot {} restored as-if-latest must be detected, got {other:?} ({self})",
                    rec.seq
                ),
            }
        }
        store.verify_fresh(head).expect("the head is fresh");

        fs::remove_file(dir.join(format!("snap-{head:016}.bin"))).expect("drop head snapshot");
        match store.restore_head(&mut fresh()) {
            Err(RestoreError::Store(StoreError::RollbackDetected { wal_seq, .. })) => {
                assert_eq!(wal_seq, head, "the WAL names the withheld head");
            }
            other => {
                panic!("strict restore of a withheld head must be detected, got {other:?} ({self})")
            }
        }
        let mut state = fresh();
        let meta = store
            .restore_latest(&mut state)
            .unwrap_or_else(|e| panic!("replay recovery failed: {e} ({self})"));
        assert!(meta.seq < head, "recovery must fall back past the head");
        assert_eq!(
            finish(state),
            reference,
            "replay from the stale snapshot diverged ({self})"
        );
        records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_cadence_rejects_bad_values() {
        assert_eq!(every_from(None), Ok(DEFAULT_SNAPSHOT_EVERY));
        assert_eq!(every_from(Some("50000")), Ok(50_000));
        for bad in ["0", "", "abc", "-5", "1e5"] {
            let err = every_from(Some(bad)).unwrap_err();
            assert!(err.contains("ITESP_SNAPSHOT_EVERY"), "{bad:?}: {err}");
        }
    }
}
