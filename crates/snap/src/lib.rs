//! # itesp-snap — crash-safe snapshot codec and durable snapshot store
//!
//! The crash-recovery substrate for the whole workspace (ISSUE 8): a
//! compact binary codec every layer serializes its live security state
//! through, plus a durable on-disk store pairing versioned snapshot
//! files with a write-ahead log of snapshot positions.
//!
//! * [`wire`] — [`SnapWriter`]/[`SnapReader`]: length-checked,
//!   section-tagged binary encoding with typed errors. No floats are
//!   approximated (f64 round-trips through its bit pattern), maps are
//!   written in sorted key order so identical state produces identical
//!   bytes.
//! * [`persist`] — [`Persist`] and `#[derive(Persist)]`: each type
//!   declares its snapshot bytes once, as its field list, and the
//!   derive writes and reads them in that order.
//! * [`crc`] — the CRC-32 (IEEE) integrity check framing every
//!   snapshot file.
//! * [`store`] — [`SnapshotStore`]: atomic temp+rename snapshot files
//!   with file *and directory* fsync, an fsync'd append-only WAL whose
//!   head names the freshest snapshot, torn-tail tolerance, and the
//!   anti-rollback freshness check ([`SnapshotStore::verify_fresh`]):
//!   presenting a stale snapshot as the latest state is detected, so
//!   no counter can rewind and no freed leaf-id can come back live
//!   without the deterministic suffix replay that re-derives them.
//!   [`write_atomic`] is the workspace's one temp → fsync → rename →
//!   directory-fsync sequence.
//! * [`checkpoint`] — the one commit and restore path for [`Persist`]
//!   state: [`SnapshotStore::commit`] (with the single
//!   [`KEEP_SNAPSHOTS`] retention), the [`SnapshotSink`] cadence, the
//!   latest-good and strict-head restore pair, and their typed
//!   [`RestoreError`]. The simulator, the migrate cluster and the serve
//!   registry all checkpoint through it.
//!
//! This crate depends only on its own derive macro, so the DRAM model
//! (the workspace's bottom crate) and the oracle harness can both use
//! it without cycles.

// Lets `#[derive(Persist)]`'s `::itesp_snap::` paths resolve in this
// crate's own tests.
extern crate self as itesp_snap;

pub mod checkpoint;
pub mod crc;
pub mod persist;
pub mod store;
pub mod wire;

pub use checkpoint::{decode_into, encode, RestoreError, SnapshotSink, KEEP_SNAPSHOTS};
pub use crc::crc32;
pub use itesp_snap_derive::Persist;
pub use persist::Persist;
pub use store::{write_atomic, SnapshotMeta, SnapshotStore, StoreError, WalRecord};
pub use wire::{SnapError, SnapReader, SnapWriter};
