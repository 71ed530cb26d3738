//! Durable snapshot store: atomic snapshot files + a write-ahead log.
//!
//! ## On-disk layout
//!
//! A store is one directory holding:
//!
//! * `snap-<seq>.bin` — one file per snapshot:
//!   `b"ITSN" | version:u16 | seq:u64 | cycle:u64 | payload_len:u64 |
//!   payload | crc32:u32` (all little-endian; the CRC covers every
//!   byte before it). Written with [`write_atomic`]: a temp file,
//!   `sync_all`'d, renamed into place, then the **directory** is
//!   fsync'd — the rename is not durable until the directory metadata
//!   is.
//! * `wal.log` — an append-only log of fixed 24-byte records
//!   (`b"ITWL" | seq:u64 | cycle:u64 | crc32:u32` over the first 20
//!   bytes), one appended after each snapshot commit and fsync'd. The
//!   last valid record is the *head*: the freshest state the store has
//!   ever acknowledged. A torn tail (partial trailing record from a
//!   crash mid-append) is tolerated and truncated logically on read.
//!
//! ## Anti-rollback
//!
//! Recovery that loads an older snapshot and *replays the suffix* is
//! always legitimate — determinism re-derives every counter. What must
//! be rejected is presenting a stale snapshot as the latest state with
//! no replay: [`SnapshotStore::verify_fresh`] compares a snapshot's
//! sequence number against the WAL head and returns
//! [`StoreError::RollbackDetected`] when the snapshot is stale. The
//! WAL *head* outlives snapshot pruning, so even deleting newer
//! snapshot files cannot hide that fresher state existed. Pruning
//! compacts the WAL down to the records covering retained snapshots
//! (never less than the head), keeping `wal.log` bounded on a
//! long-running daemon without weakening the rollback check.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc32;

/// Current snapshot-file format version.
pub const SNAPSHOT_VERSION: u16 = 1;

const SNAP_MAGIC: &[u8; 4] = b"ITSN";
const WAL_MAGIC: &[u8; 4] = b"ITWL";
/// Fixed snapshot-file header size: magic + version + seq + cycle + len.
const SNAP_HEADER: usize = 4 + 2 + 8 + 8 + 8;
/// Fixed WAL record size: magic + seq + cycle + crc.
const WAL_RECORD: usize = 4 + 8 + 8 + 4;

/// Store-level failure. `Torn` and `RollbackDetected` are the two the
/// recovery path branches on; both name exactly what was rejected.
#[derive(Debug)]
pub enum StoreError {
    Io(io::Error),
    /// A snapshot file failed its header/length/CRC validation.
    Torn {
        path: PathBuf,
        detail: String,
    },
    /// No valid snapshot exists in the store.
    NoSnapshot {
        dir: PathBuf,
    },
    /// A stale snapshot was presented as the latest state: its
    /// sequence number is behind the WAL head.
    RollbackDetected {
        snapshot_seq: u64,
        wal_seq: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot store I/O error: {e}"),
            StoreError::Torn { path, detail } => {
                write!(f, "torn snapshot {}: {detail}", path.display())
            }
            StoreError::NoSnapshot { dir } => {
                write!(f, "no valid snapshot in {}", dir.display())
            }
            StoreError::RollbackDetected {
                snapshot_seq,
                wal_seq,
            } => write!(
                f,
                "rollback detected: snapshot seq {snapshot_seq} is stale, \
                 WAL head acknowledges seq {wal_seq}"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Identity of one committed snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Monotone commit sequence number (1-based).
    pub seq: u64,
    /// Simulation cycle the snapshot was taken at.
    pub cycle: u64,
}

/// One WAL entry: the acknowledgement that snapshot `seq` at `cycle`
/// was durably committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord {
    pub seq: u64,
    pub cycle: u64,
}

/// A directory of snapshot files plus the WAL that orders them.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SnapshotStore { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snap_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("snap-{seq:016}.bin"))
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    /// Durably commit a snapshot: temp file + fsync + rename + parent
    /// directory fsync, then an fsync'd WAL append. Returns the
    /// committed metadata. The sequence number is one past the current
    /// WAL head, so it is monotone across process restarts.
    pub fn append(&self, cycle: u64, payload: &[u8]) -> Result<SnapshotMeta, StoreError> {
        let records = self.wal_records()?;
        let seq = records.last().map_or(1, |r| r.seq + 1);
        // Repair a torn tail left by a crash mid-append: truncate the
        // WAL back to its valid prefix so records stay aligned.
        let valid_len = (records.len() * WAL_RECORD) as u64;
        let wal_path = self.wal_path();
        if let Ok(md) = fs::metadata(&wal_path) {
            if md.len() > valid_len {
                let f = OpenOptions::new().write(true).open(&wal_path)?;
                f.set_len(valid_len)?;
                f.sync_all()?;
            }
        }

        let mut framed = Vec::with_capacity(SNAP_HEADER + payload.len() + 4);
        framed.extend_from_slice(SNAP_MAGIC);
        framed.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        framed.extend_from_slice(&seq.to_le_bytes());
        framed.extend_from_slice(&cycle.to_le_bytes());
        framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        framed.extend_from_slice(payload);
        let crc = crc32(&framed);
        framed.extend_from_slice(&crc.to_le_bytes());

        write_atomic(&self.snap_path(seq), &framed)?;

        // Only after the snapshot is durable does the WAL acknowledge
        // it; a crash between rename and append leaves an orphan file
        // newer than the head, which recovery treats as uncommitted.
        let mut wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.wal_path())?;
        wal.write_all(&encode_wal_record(WalRecord { seq, cycle }))?;
        wal.sync_all()?;

        Ok(SnapshotMeta { seq, cycle })
    }

    /// All valid WAL records in append order. A torn trailing record
    /// (bad length, magic, or CRC at the tail) is ignored; corruption
    /// *before* the tail is an error, since records behind it were
    /// once acknowledged.
    pub fn wal_records(&self) -> Result<Vec<WalRecord>, StoreError> {
        let path = self.wal_path();
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut records = Vec::new();
        let mut off = 0;
        while off + WAL_RECORD <= bytes.len() {
            let rec = &bytes[off..off + WAL_RECORD];
            let Some(parsed) = parse_wal_record(rec) else {
                // Valid only as a torn tail; mid-log corruption loses
                // acknowledged history and must surface.
                if off + WAL_RECORD == bytes.len()
                    || bytes[off + WAL_RECORD..].iter().all(|&b| b == 0)
                {
                    break;
                }
                return Err(StoreError::Torn {
                    path,
                    detail: format!("WAL record at offset {off} corrupt before the tail"),
                });
            };
            records.push(parsed);
            off += WAL_RECORD;
        }
        Ok(records)
    }

    /// The freshest acknowledged snapshot, or `None` for an empty store.
    pub fn wal_head(&self) -> Result<Option<WalRecord>, StoreError> {
        Ok(self.wal_records()?.into_iter().last())
    }

    /// The WAL head's sequence number without reading the whole log or
    /// loading any snapshot payload — the cheap freshness witness the
    /// migration epoch check polls on every commit.
    ///
    /// Fast path: seek to the last complete 24-byte record and validate
    /// it in place; a valid tail record is the head by construction,
    /// even when a crashed append left partial bytes after it. Anything
    /// irregular falls back to the full [`wal_records`] scan so
    /// torn-tail tolerance and `Torn` reporting stay byte-for-byte
    /// consistent with the slow path.
    ///
    /// [`wal_records`]: SnapshotStore::wal_records
    pub fn latest_seq(&self) -> Result<Option<u64>, StoreError> {
        let mut f = match File::open(self.wal_path()) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let record = WAL_RECORD as u64;
        let whole = f.metadata()?.len() / record;
        if whole == 0 {
            return Ok(None);
        }
        let mut rec = [0u8; WAL_RECORD];
        f.seek(SeekFrom::Start((whole - 1) * record))?;
        f.read_exact(&mut rec)?;
        if let Some(parsed) = parse_wal_record(&rec) {
            return Ok(Some(parsed.seq));
        }
        Ok(self.wal_records()?.last().map(|r| r.seq))
    }

    /// Load and validate snapshot `seq`, returning its payload.
    ///
    /// # Errors
    /// [`StoreError::Torn`] (naming the path) if the file is missing
    /// its tail, has a bad header, or fails the CRC.
    pub fn load(&self, seq: u64) -> Result<(SnapshotMeta, Vec<u8>), StoreError> {
        let path = self.snap_path(seq);
        let torn = |detail: String| StoreError::Torn {
            path: path.clone(),
            detail,
        };
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        if bytes.len() < SNAP_HEADER + 4 {
            return Err(torn(format!(
                "file is {} bytes, shorter than the {}-byte frame minimum",
                bytes.len(),
                SNAP_HEADER + 4
            )));
        }
        if &bytes[..4] != SNAP_MAGIC {
            return Err(torn("bad magic (not a snapshot file)".into()));
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(torn(format!(
                "format version {version}, this build reads {SNAPSHOT_VERSION}"
            )));
        }
        let file_seq = u64::from_le_bytes(bytes[6..14].try_into().unwrap());
        let cycle = u64::from_le_bytes(bytes[14..22].try_into().unwrap());
        let payload_len = u64::from_le_bytes(bytes[22..30].try_into().unwrap());
        let total = bytes.len();
        if usize::try_from(payload_len).ok() != Some(total - SNAP_HEADER - 4) {
            return Err(torn(format!(
                "length mismatch: header declares a {payload_len}-byte payload, file has {total} bytes"
            )));
        }
        let stored_crc = u32::from_le_bytes(bytes[total - 4..].try_into().unwrap());
        let actual_crc = crc32(&bytes[..total - 4]);
        if stored_crc != actual_crc {
            return Err(torn(format!(
                "CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            )));
        }
        if file_seq != seq {
            return Err(torn(format!(
                "sequence mismatch: file claims seq {file_seq}, name says {seq}"
            )));
        }
        let payload = bytes[SNAP_HEADER..total - 4].to_vec();
        Ok((SnapshotMeta { seq, cycle }, payload))
    }

    /// Load the freshest *valid* snapshot, walking the WAL backwards
    /// past torn or missing files. Returns the snapshot plus the list
    /// of `(seq, error)` pairs skipped on the way, so callers can log
    /// what was rejected.
    #[allow(clippy::type_complexity)]
    pub fn load_latest_good(
        &self,
    ) -> Result<(SnapshotMeta, Vec<u8>, Vec<(u64, StoreError)>), StoreError> {
        let mut skipped = Vec::new();
        for rec in self.wal_records()?.into_iter().rev() {
            match self.load(rec.seq) {
                Ok((meta, payload)) => return Ok((meta, payload, skipped)),
                Err(e) => skipped.push((rec.seq, e)),
            }
        }
        Err(StoreError::NoSnapshot {
            dir: self.dir.clone(),
        })
    }

    /// Anti-rollback check: fail unless `seq` is the WAL head.
    ///
    /// Restoring an older snapshot is only legitimate as the *start*
    /// of a replay that re-derives the suffix; a caller claiming a
    /// stale snapshot is the latest state gets
    /// [`StoreError::RollbackDetected`].
    pub fn verify_fresh(&self, seq: u64) -> Result<(), StoreError> {
        let head = self.wal_head()?.ok_or_else(|| StoreError::NoSnapshot {
            dir: self.dir.clone(),
        })?;
        if seq < head.seq {
            return Err(StoreError::RollbackDetected {
                snapshot_seq: seq,
                wal_seq: head.seq,
            });
        }
        Ok(())
    }

    /// Delete all but the newest `keep` snapshot files, then compact
    /// the WAL down to the records at or past the oldest *retained*
    /// snapshot (always at least the head — the rollback evidence), so
    /// `wal.log` stays bounded on a long-running daemon instead of
    /// growing one record per snapshot forever.
    ///
    /// The compacted log is written with [`write_atomic`] — a crash at
    /// any point leaves either the old or the new log, both valid. The record
    /// format is unchanged, so torn-tail detection and repair work
    /// exactly as before; sequence numbers simply no longer start at 1.
    pub fn prune(&self, keep: usize) -> Result<(), StoreError> {
        let records = self.wal_records()?;
        if records.len() <= keep {
            return Ok(());
        }
        for rec in &records[..records.len() - keep] {
            match fs::remove_file(self.snap_path(rec.seq)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        sync_dir(&self.dir)?;

        // Compact: keep the suffix covering retained snapshots, never
        // less than the head. Acknowledgements for snapshots that no
        // longer exist serve no recovery purpose — freshness only ever
        // compares against the head, which survives by construction.
        let body: Vec<u8> = records[records.len() - keep.max(1)..]
            .iter()
            .flat_map(|&rec| encode_wal_record(rec))
            .collect();
        write_atomic(&self.wal_path(), &body)?;
        Ok(())
    }
}

/// One 24-byte WAL record: magic, seq, cycle, and the CRC over them.
fn encode_wal_record(rec: WalRecord) -> [u8; WAL_RECORD] {
    let mut raw = [0u8; WAL_RECORD];
    raw[..4].copy_from_slice(WAL_MAGIC);
    raw[4..12].copy_from_slice(&rec.seq.to_le_bytes());
    raw[12..20].copy_from_slice(&rec.cycle.to_le_bytes());
    let crc = crc32(&raw[..WAL_RECORD - 4]);
    raw[WAL_RECORD - 4..].copy_from_slice(&crc.to_le_bytes());
    raw
}

/// Validate one 24-byte WAL record (magic + CRC) and decode it.
fn parse_wal_record(rec: &[u8]) -> Option<WalRecord> {
    debug_assert_eq!(rec.len(), WAL_RECORD);
    let crc_ok = crc32(&rec[..WAL_RECORD - 4])
        == u32::from_le_bytes(rec[WAL_RECORD - 4..].try_into().unwrap());
    if &rec[..4] != WAL_MAGIC || !crc_ok {
        return None;
    }
    Some(WalRecord {
        seq: u64::from_le_bytes(rec[4..12].try_into().unwrap()),
        cycle: u64::from_le_bytes(rec[12..20].try_into().unwrap()),
    })
}

/// Replace `path` with `bytes` crash-safely: write a temp file beside
/// it (same filesystem, so the rename is atomic), fsync it, rename it
/// over `path`, then fsync the directory — the new name is not durable
/// until the directory metadata is. A crash at any point leaves either
/// the old file or the new one, never a torn mix; a crash before the
/// rename leaves a `<name>.tmp.<pid>` file that nothing reads and the
/// next write to the same path from the same process overwrites.
///
/// This is the one temp → fsync → rename → directory-fsync sequence in
/// the workspace: snapshot files, WAL compaction and the bench
/// harness's result files and checkpoints all go through it.
///
/// # Errors
/// The first failing I/O step. An fsync failure is returned, never
/// retried: the data it covered cannot be trusted afterwards.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    sync_dir(dir.unwrap_or(Path::new(".")))
}

/// fsync a directory so a rename inside it is durable. On platforms
/// where directories cannot be opened for sync this is a no-op.
fn sync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(f) => f.sync_all(),
        Err(e) if e.kind() == io::ErrorKind::PermissionDenied => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> SnapshotStore {
        let dir =
            std::env::temp_dir().join(format!("itesp-snap-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        SnapshotStore::open(dir).unwrap()
    }

    #[test]
    fn append_load_round_trip() {
        let store = temp_store("roundtrip");
        let m1 = store.append(40, b"state at cycle 40").unwrap();
        let m2 = store.append(80, b"state at cycle 80").unwrap();
        assert_eq!((m1.seq, m1.cycle), (1, 40));
        assert_eq!((m2.seq, m2.cycle), (2, 80));

        let (meta, payload) = store.load(2).unwrap();
        assert_eq!(meta, SnapshotMeta { seq: 2, cycle: 80 });
        assert_eq!(payload, b"state at cycle 80");

        let head = store.wal_head().unwrap().unwrap();
        assert_eq!(head, WalRecord { seq: 2, cycle: 80 });
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn torn_snapshot_is_rejected_and_fallback_finds_last_good() {
        let store = temp_store("torn");
        store.append(10, b"good early state").unwrap();
        store.append(20, b"doomed state").unwrap();

        // Tear the newest snapshot: truncate mid-payload.
        let path = store.dir().join(format!("snap-{:016}.bin", 2u64));
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 7]).unwrap();

        let err = store.load(2).unwrap_err();
        match &err {
            StoreError::Torn { path: p, .. } => assert_eq!(p, &path),
            other => panic!("expected Torn, got {other}"),
        }
        assert!(err.to_string().contains("snap-"));

        let (meta, payload, skipped) = store.load_latest_good().unwrap();
        assert_eq!(meta.seq, 1);
        assert_eq!(payload, b"good early state");
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].0, 2);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn bit_flip_fails_crc() {
        let store = temp_store("bitflip");
        store.append(5, b"some payload bytes").unwrap();
        let path = store.dir().join(format!("snap-{:016}.bin", 1u64));
        let mut bytes = fs::read(&path).unwrap();
        bytes[SNAP_HEADER + 2] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = store.load(1).unwrap_err();
        assert!(matches!(err, StoreError::Torn { .. }), "{err}");
        assert!(err.to_string().contains("CRC"));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn stale_snapshot_without_replay_is_rollback() {
        let store = temp_store("rollback");
        store.append(10, b"v1").unwrap();
        store.append(20, b"v2").unwrap();
        store.append(30, b"v3").unwrap();

        // The head is fresh; everything older is a rollback.
        store.verify_fresh(3).unwrap();
        for stale in [1, 2] {
            let err = store.verify_fresh(stale).unwrap_err();
            match err {
                StoreError::RollbackDetected {
                    snapshot_seq,
                    wal_seq,
                } => {
                    assert_eq!(snapshot_seq, stale);
                    assert_eq!(wal_seq, 3);
                }
                other => panic!("expected RollbackDetected, got {other}"),
            }
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn deleting_newer_snapshots_cannot_hide_rollback() {
        let store = temp_store("hide");
        store.append(10, b"v1").unwrap();
        store.append(20, b"v2").unwrap();
        // An attacker deletes the newest snapshot file entirely.
        fs::remove_file(store.dir().join(format!("snap-{:016}.bin", 2u64))).unwrap();
        // The WAL still remembers seq 2, so claiming seq 1 is fresh fails.
        assert!(matches!(
            store.verify_fresh(1),
            Err(StoreError::RollbackDetected { wal_seq: 2, .. })
        ));
        // But recovery-with-replay from seq 1 is still available.
        let (meta, payload, skipped) = store.load_latest_good().unwrap();
        assert_eq!(meta.seq, 1);
        assert_eq!(payload, b"v1");
        assert_eq!(skipped.len(), 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn torn_wal_tail_is_tolerated() {
        let store = temp_store("waltail");
        store.append(10, b"v1").unwrap();
        store.append(20, b"v2").unwrap();
        // Simulate a crash mid-append: half a record at the tail.
        let wal = store.dir().join("wal.log");
        let mut bytes = fs::read(&wal).unwrap();
        bytes.extend_from_slice(b"ITWL\x05\x00\x00");
        fs::write(&wal, &bytes).unwrap();

        let records = store.wal_records().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(store.wal_head().unwrap().unwrap().seq, 2);

        // The next append repairs the torn tail and continues the
        // sequence with aligned records.
        let m = store.append(30, b"v3").unwrap();
        assert_eq!(m.seq, 3);
        let records = store.wal_records().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2], WalRecord { seq: 3, cycle: 30 });
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn prune_keeps_newest_and_compacts_wal() {
        let store = temp_store("prune");
        for c in 1..=5u64 {
            store.append(c * 10, format!("v{c}").as_bytes()).unwrap();
        }
        store.prune(2).unwrap();
        assert!(store.load(3).is_err());
        assert!(store.load(4).is_ok());
        assert!(store.load(5).is_ok());
        // The WAL is compacted to the retained suffix; the head (the
        // rollback evidence) survives, so freshness still works.
        let records = store.wal_records().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], WalRecord { seq: 4, cycle: 40 });
        assert_eq!(records[1], WalRecord { seq: 5, cycle: 50 });
        store.verify_fresh(5).unwrap();
        assert!(matches!(
            store.verify_fresh(4),
            Err(StoreError::RollbackDetected { wal_seq: 5, .. })
        ));
        // Appends continue the sequence from the compacted head.
        let m = store.append(60, b"v6").unwrap();
        assert_eq!(m.seq, 6);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn wal_stays_bounded_under_periodic_pruning() {
        let store = temp_store("walbound");
        let wal = store.dir().join("wal.log");
        for c in 1..=40u64 {
            store.append(c, b"state").unwrap();
            store.prune(3).unwrap();
        }
        // 3 retained records x 24 bytes, regardless of history length.
        assert_eq!(fs::metadata(&wal).unwrap().len(), 3 * WAL_RECORD as u64);
        assert_eq!(store.wal_head().unwrap().unwrap().seq, 40);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn prune_zero_retains_the_head_record() {
        let store = temp_store("prunezero");
        for c in 1..=3u64 {
            store.append(c * 10, b"v").unwrap();
        }
        store.prune(0).unwrap();
        // All snapshot files are gone, but the head acknowledgement
        // survives: a stale snapshot still cannot pose as fresh.
        assert!(store.load(3).is_err());
        let records = store.wal_records().unwrap();
        assert_eq!(records, vec![WalRecord { seq: 3, cycle: 30 }]);
        assert!(matches!(
            store.verify_fresh(2),
            Err(StoreError::RollbackDetected { wal_seq: 3, .. })
        ));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn torn_tail_repair_survives_compaction() {
        let store = temp_store("prunetear");
        for c in 1..=4u64 {
            store.append(c * 10, b"v").unwrap();
        }
        store.prune(2).unwrap();
        // Crash mid-append after a compaction: half a record at the tail.
        let wal = store.dir().join("wal.log");
        let mut bytes = fs::read(&wal).unwrap();
        bytes.extend_from_slice(b"ITWL\x07\x00");
        fs::write(&wal, &bytes).unwrap();
        assert_eq!(store.wal_records().unwrap().len(), 2);
        let m = store.append(50, b"v5").unwrap();
        assert_eq!(m.seq, 5);
        assert_eq!(store.wal_records().unwrap().len(), 3);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn latest_seq_tracks_the_head_cheaply() {
        let store = temp_store("latest");
        assert_eq!(store.latest_seq().unwrap(), None);
        store.append(10, b"v1").unwrap();
        assert_eq!(store.latest_seq().unwrap(), Some(1));
        store.append(20, b"v2").unwrap();
        store.append(30, b"v3").unwrap();
        assert_eq!(store.latest_seq().unwrap(), Some(3));
        // Pruning compacts the WAL but never loses the head.
        store.prune(1).unwrap();
        assert_eq!(store.latest_seq().unwrap(), Some(3));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn latest_seq_tolerates_a_torn_tail() {
        let store = temp_store("latesttorn");
        store.append(10, b"v1").unwrap();
        store.append(20, b"v2").unwrap();
        let wal = store.dir().join("wal.log");

        // Crash mid-append: a partial record past the last full one.
        let good = fs::read(&wal).unwrap();
        let mut bytes = good.clone();
        bytes.extend_from_slice(b"ITWL\x09\x00\x00\x00\x00");
        fs::write(&wal, &bytes).unwrap();
        assert_eq!(store.latest_seq().unwrap(), Some(2));

        // Crash mid-append landing exactly on a record boundary: the
        // final 24 bytes fail their CRC, so the fast path defers to the
        // full scan, which tolerates the corrupt record at the tail.
        let mut bytes = good.clone();
        let torn = [0xAAu8; WAL_RECORD];
        bytes.extend_from_slice(&torn);
        fs::write(&wal, &bytes).unwrap();
        assert_eq!(store.latest_seq().unwrap(), Some(2));

        // A file shorter than one record has no acknowledged head.
        fs::write(&wal, b"ITWL\x01").unwrap();
        assert_eq!(store.latest_seq().unwrap(), None);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn empty_store_reports_no_snapshot() {
        let store = temp_store("empty");
        assert!(matches!(
            store.load_latest_good(),
            Err(StoreError::NoSnapshot { .. })
        ));
        assert!(store.wal_head().unwrap().is_none());
        let _ = fs::remove_dir_all(store.dir());
    }
}
