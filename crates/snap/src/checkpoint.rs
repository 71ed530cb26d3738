//! The one commit and restore path for [`Persist`] state.
//!
//! Every checkpointing layer — the simulator's run loop, the migrate
//! cluster and the serve registry — commits through
//! [`SnapshotStore::commit`] (directly, or on a cadence through
//! [`SnapshotSink`]) and restores through one of two calls:
//!
//! * [`SnapshotStore::restore_latest`] — the newest snapshot that
//!   validates, skipping torn files. Legitimate only as the start of a
//!   deterministic suffix replay, which re-derives everything newer.
//! * [`SnapshotStore::restore_head`] — the WAL head or nothing: a
//!   snapshot older than the head is refused with
//!   [`StoreError::RollbackDetected`] *before* its payload is decoded.
//!   This is the anti-rollback restore for state that resumes as if it
//!   were the latest.
//!
//! Both report a typed [`RestoreError`]: the store refused the read,
//! or the payload did not decode into the target.

use std::fmt;
use std::path::PathBuf;

use crate::persist::Persist;
use crate::store::{SnapshotMeta, SnapshotStore, StoreError};
use crate::wire::{SnapError, SnapReader, SnapWriter};

/// Snapshot files a committing store keeps; older ones are pruned, and
/// the WAL is compacted to the retained suffix (the head — the
/// rollback evidence — always survives).
pub const KEEP_SNAPSHOTS: usize = 4;

/// Why a restore failed.
#[derive(Debug)]
pub enum RestoreError {
    /// The store refused the read: I/O, a corrupt WAL, an empty store,
    /// or a stale snapshot offered as the head.
    Store(StoreError),
    /// The payload did not decode into the target (codec corruption or
    /// a configuration mismatch).
    Decode(SnapError),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Store(e) => write!(f, "snapshot store: {e}"),
            RestoreError::Decode(e) => write!(f, "snapshot payload: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RestoreError::Store(e) => Some(e),
            RestoreError::Decode(e) => Some(e),
        }
    }
}

impl From<StoreError> for RestoreError {
    fn from(e: StoreError) -> Self {
        RestoreError::Store(e)
    }
}

impl From<SnapError> for RestoreError {
    fn from(e: SnapError) -> Self {
        RestoreError::Decode(e)
    }
}

/// `state`'s snapshot bytes.
pub fn encode<T: Persist + ?Sized>(state: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    state.save(&mut w);
    w.into_bytes()
}

/// Overwrite `state` from `payload`, which must be consumed exactly.
///
/// # Errors
/// The first decode failure, or trailing bytes.
pub fn decode_into<T: Persist + ?Sized>(payload: &[u8], state: &mut T) -> Result<(), SnapError> {
    let mut r = SnapReader::new(payload);
    state.load(&mut r, "snapshot")?;
    r.finish()
}

impl SnapshotStore {
    /// Durably commit `payload` as the next snapshot, then prune to
    /// [`KEEP_SNAPSHOTS`].
    ///
    /// # Errors
    /// Propagates store I/O failures.
    pub fn commit(&self, cycle: u64, payload: &[u8]) -> Result<SnapshotMeta, StoreError> {
        let meta = self.append(cycle, payload)?;
        self.prune(KEEP_SNAPSHOTS)?;
        Ok(meta)
    }

    /// Restore `state` from the newest snapshot that validates, walking
    /// back past torn or missing files. The caller replays the suffix.
    ///
    /// # Errors
    /// [`RestoreError::Store`] on I/O failure or an empty store;
    /// [`RestoreError::Decode`] when the payload does not fit `state`.
    pub fn restore_latest<T: Persist + ?Sized>(
        &self,
        state: &mut T,
    ) -> Result<SnapshotMeta, RestoreError> {
        let (meta, payload, _skipped) = self.load_latest_good()?;
        decode_into(&payload, state)?;
        Ok(meta)
    }

    /// Restore `state` from the WAL head only. The newest valid
    /// snapshot is checked against the head before anything is
    /// decoded, so a stale one — even an intact one served in place of
    /// a withheld head — leaves `state` untouched.
    ///
    /// # Errors
    /// Everything [`Self::restore_latest`] returns, plus
    /// [`StoreError::RollbackDetected`] naming the head when the newest
    /// valid snapshot is older than it.
    pub fn restore_head<T: Persist + ?Sized>(
        &self,
        state: &mut T,
    ) -> Result<SnapshotMeta, RestoreError> {
        let (meta, payload, _skipped) = self.load_latest_good()?;
        self.verify_fresh(meta.seq)?;
        decode_into(&payload, state)?;
        Ok(meta)
    }
}

/// A checkpoint cadence over a store: commits `state` when a capture
/// is due, every `every` ticks (CPU cycles for the simulator, cluster
/// ticks for migrate).
#[derive(Debug)]
pub struct SnapshotSink {
    store: SnapshotStore,
    every: u64,
    next_due: u64,
}

impl SnapshotSink {
    /// Open (creating if needed) a sink writing to `dir` every `every`
    /// ticks. The first capture is due at once.
    ///
    /// # Errors
    /// Propagates store-open failures.
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> Result<Self, StoreError> {
        Ok(SnapshotSink {
            store: SnapshotStore::open(dir)?,
            every,
            next_due: 0,
        })
    }

    /// Is a capture due at `tick`?
    pub fn due(&self, tick: u64) -> bool {
        tick >= self.next_due
    }

    /// The first tick at which a capture is due.
    pub fn next_due(&self) -> u64 {
        self.next_due
    }

    /// Commit `state` as the snapshot at `tick` and restart the cadence
    /// from there.
    ///
    /// # Errors
    /// Propagates store I/O failures.
    pub fn capture<T: Persist + ?Sized>(
        &mut self,
        tick: u64,
        state: &T,
    ) -> Result<SnapshotMeta, StoreError> {
        let meta = self.store.commit(tick, &encode(state))?;
        self.next_due = tick.saturating_add(self.every);
        Ok(meta)
    }

    /// The underlying store.
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }
}
