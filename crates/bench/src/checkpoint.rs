//! Per-target incremental result checkpoints.
//!
//! A campaign persists every finished job's row as it completes, one
//! file per job, so a killed or partially failed run can resume with
//! `--resume`, skipping completed jobs:
//!
//! ```text
//! results/.ckpt/fig08/0.row
//! results/.ckpt/fig08/3.row
//! ```
//!
//! Each file is the [`itesp_snap`] encoding of a `CKPT` section: the
//! run shape (target, job count, ops), the job index, and the row's own
//! [`Persist`] bytes. Floats are stored as their bit patterns, so a
//! revived row is bit-identical to the one the job returned, and a
//! resumed run's output is byte-identical to an uninterrupted one.
//!
//! Resuming refuses a row file that does not decode or that was
//! written by a different run shape (its rows would be silently
//! wrong); the refusal names the file and advises a run without
//! `--resume`. Files not named `*.row` are ignored: they are temp
//! files of a write that a kill cut short.
//!
//! Each row is written with [`itesp_snap::write_atomic`] (temp file,
//! fsync, rename, directory fsync), so a SIGKILL at any instant leaves
//! every row file either absent or complete.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use itesp_snap::Persist;

/// One row file: the run shape it belongs to, and one job's row.
#[derive(Debug, Default, Persist)]
#[persist(section = "CKPT", version = 1)]
struct RowFile {
    target: String,
    jobs: usize,
    ops: usize,
    job: usize,
    /// The job's row, `itesp_snap::encode`d.
    row: Vec<u8>,
}

/// The on-disk checkpoint of one campaign target (or sub-sweep).
#[derive(Debug)]
pub struct Checkpoint {
    dir: PathBuf,
    target: String,
    jobs: usize,
    ops: usize,
}

/// The checkpoint directory under `results_dir`.
pub fn ckpt_dir(results_dir: &Path) -> PathBuf {
    results_dir.join(".ckpt")
}

impl Checkpoint {
    /// The checkpoint of `target`'s `jobs`-job, `ops`-op campaign under
    /// `results_dir`. Nothing is read or written yet.
    pub fn new(results_dir: &Path, target: &str, jobs: usize, ops: usize) -> Self {
        Checkpoint {
            dir: Self::dir_for(results_dir, target),
            target: target.to_owned(),
            jobs,
            ops,
        }
    }

    /// Where `target`'s row files live under `results_dir`.
    pub fn dir_for(results_dir: &Path, target: &str) -> PathBuf {
        ckpt_dir(results_dir).join(target)
    }

    /// The row file of `job`.
    fn row_path(&self, job: usize) -> PathBuf {
        self.dir.join(format!("{job}.row"))
    }

    /// Delete every stored row, for a fresh start.
    pub fn clear(&self) {
        let _ = fs::remove_dir_all(&self.dir);
    }

    /// The rows already completed, by job index. A missing directory is
    /// a fresh start.
    ///
    /// # Errors
    /// A row file that cannot be read, does not decode (as a row file,
    /// or its row as `T`), or was written by a different run shape,
    /// named with the advice to rerun without `--resume`.
    pub fn load<T: Persist + Default>(&self) -> Result<BTreeMap<usize, T>, String> {
        let mut rows = BTreeMap::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Ok(rows);
        };
        for entry in entries {
            let path = entry.map_err(|e| refusal(&self.dir, &e))?.path();
            if path.extension().is_none_or(|ext| ext != "row") {
                continue;
            }
            let bytes = fs::read(&path).map_err(|e| refusal(&path, &e))?;
            let mut file = RowFile::default();
            itesp_snap::decode_into(&bytes, &mut file).map_err(|e| refusal(&path, &e))?;
            if (file.target.as_str(), file.jobs, file.ops)
                != (self.target.as_str(), self.jobs, self.ops)
                || file.job >= self.jobs
            {
                return Err(format!(
                    "checkpoint {} was written by a different run \
                     (target {:?}, {} jobs, {} ops, job {}; this run: target {:?}, {} jobs, {} ops); \
                     rerun without --resume to start over",
                    path.display(),
                    file.target,
                    file.jobs,
                    file.ops,
                    file.job,
                    self.target,
                    self.jobs,
                    self.ops,
                ));
            }
            let mut row = T::default();
            itesp_snap::decode_into(&file.row, &mut row).map_err(|e| refusal(&path, &e))?;
            rows.insert(file.job, row);
        }
        Ok(rows)
    }

    /// Durably store `job`'s row. A failure is reported to stderr but
    /// does not fail the run: the checkpoint is an optimization, the
    /// campaign result is still held in memory.
    pub fn record<T: Persist>(&self, job: usize, row: &T) {
        let file = RowFile {
            target: self.target.clone(),
            jobs: self.jobs,
            ops: self.ops,
            job,
            row: itesp_snap::encode(row),
        };
        let path = self.row_path(job);
        let written = fs::create_dir_all(&self.dir)
            .and_then(|()| itesp_snap::write_atomic(&path, &itesp_snap::encode(&file)));
        if let Err(e) = written {
            eprintln!(
                "[warning: could not persist checkpoint {}: {e}]",
                path.display()
            );
        }
    }
}

/// Why a row file at `path` cannot be resumed from.
fn refusal(path: &Path, e: &dyn std::fmt::Display) -> String {
    format!(
        "checkpoint {} is unreadable ({e}); rerun without --resume to start over",
        path.display()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "itesp-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_then_resume_round_trips_rows() {
        let dir = scratch_dir("roundtrip");
        let ck = Checkpoint::new(&dir, "figX", 4, 100);
        ck.record(2, &(2.5f64, 7u64));
        ck.record(0, &(0.1f64, 3u64));

        let rows = Checkpoint::new(&dir, "figX", 4, 100)
            .load::<(f64, u64)>()
            .unwrap();
        assert_eq!(
            rows.into_iter().collect::<Vec<_>>(),
            vec![(0, (0.1, 3)), (2, (2.5, 7))]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_file_is_fresh() {
        let dir = scratch_dir("nofile");
        let rows = Checkpoint::new(&dir, "figY", 3, 50).load::<u64>().unwrap();
        assert!(rows.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_fingerprint_is_refused() {
        let dir = scratch_dir("mismatch");
        Checkpoint::new(&dir, "figZ", 4, 100).record(0, &1u64);
        let err = Checkpoint::new(&dir, "figZ", 4, 200)
            .load::<u64>()
            .unwrap_err();
        assert!(err.contains("different run"), "{err}");
        assert!(err.contains("--resume"), "{err}");
        // Same shape resumes fine.
        assert!(Checkpoint::new(&dir, "figZ", 4, 100).load::<u64>().is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_row_file_is_refused_by_name() {
        let dir = scratch_dir("truncated");
        let ck = Checkpoint::new(&dir, "figW", 3, 10);
        ck.record(0, &1u64);
        ck.record(1, &2u64);
        let path = ck.row_path(1);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let err = ck.load::<u64>().unwrap_err();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("--resume"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_discards_stale_checkpoint() {
        let dir = scratch_dir("stale");
        let ck = Checkpoint::new(&dir, "figV", 2, 10);
        ck.record(0, &1u64);
        fs::write(
            Checkpoint::dir_for(&dir, "figV").join("1.row.tmp.7"),
            b"torn",
        )
        .unwrap();
        assert_eq!(ck.load::<u64>().unwrap().len(), 1);
        ck.clear();
        assert!(ck.load::<u64>().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
