//! Crash recovery for a live [`System`]: the restore that resumes a
//! killed run. (The system's snapshot is its `Persist` impl, next to
//! [`System::save_state`].)
//!
//! Checkpointing and restoring go through [`itesp_snap`]'s one path:
//! on its cadence the run loop commits the *entire* simulation state
//! (clock, DRAM timing, engine, caches, cores, RAS fault process,
//! churn driver) through a [`SnapshotSink`], and the WAL records the
//! acknowledged `(seq, cycle)` head. Because the simulator is
//! deterministic, recovery is "load the newest good snapshot, replay
//! the suffix": rebuild the system from the same configuration and
//! workload, restore the snapshot, and run to completion — the final
//! [`RunResult`](crate::RunResult) is byte-identical to the
//! uninterrupted run's.
//!
//! Anti-rollback: restoring a *stale* snapshot as if it were the
//! latest state is what [`SnapshotStore::restore_head`] refuses with
//! [`StoreError::RollbackDetected`](itesp_snap::StoreError) — no
//! engine counter ever rewinds and no freed leaf-id comes back live.
//! Recovery *with* deterministic suffix replay from an old snapshot,
//! [`recover_system`], is always legitimate; it reproduces the exact
//! same run.

use std::path::Path;

pub use itesp_snap::{RestoreError, SnapshotSink};
use itesp_snap::{SnapshotMeta, SnapshotStore};

use crate::system::System;

/// Restore `sys` (freshly built with the run's configuration and
/// workload) from the newest good snapshot in `dir`, skipping torn
/// files. Returns the restored snapshot's metadata; the caller then
/// runs the system to completion, deterministically replaying the
/// suffix.
///
/// # Errors
/// [`RestoreError::Store`] on I/O failure or an empty store;
/// [`RestoreError::Decode`] when the payload does not match the
/// rebuilt system.
pub fn recover_system(sys: &mut System, dir: &Path) -> Result<SnapshotMeta, RestoreError> {
    SnapshotStore::open(dir)?.restore_latest(sys)
}
