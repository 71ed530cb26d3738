//! Per-target incremental result checkpoints.
//!
//! A campaign persists every finished job's row into
//! `results/.ckpt/<target>.jsonl` as it completes, so a killed or
//! partially failed run can resume with `--resume`, skipping completed
//! jobs. The file layout is line-oriented JSON:
//!
//! ```text
//! {"itesp_checkpoint":1,"target":"fig08","jobs":31,"ops":20000}
//! {"job":0,"row":{"benchmark":"gcc", ... }}
//! {"job":3,"row":{"benchmark":"mcf", ... }}
//! ```
//!
//! The header line fingerprints the run shape; resuming against a
//! checkpoint written with different `jobs`/`ops` is refused (the rows
//! would be silently wrong). Rows are stored as the job's **compact
//! serialization**, the same bytes a fresh run would produce — the
//! vendored serializer's `Display`-based float formatting makes the
//! parse → re-serialize round trip byte-exact, which is what lets a
//! resumed run emit output byte-identical to an uninterrupted one.
//!
//! Every update rewrites the whole file with
//! [`itesp_snap::write_atomic`] (temp file, fsync, rename, directory
//! fsync), so a SIGKILL at any instant leaves either the previous or
//! the new complete checkpoint, never a truncated one. Job counts per target are tens, not millions; the
//! rewrite is cheap.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Bumped when the file layout changes; mismatched checkpoints are
/// refused on resume.
pub const CHECKPOINT_VERSION: u64 = 1;

/// The run-shape fingerprint in the header line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprint {
    target: String,
    jobs: usize,
    ops: usize,
}

/// An on-disk checkpoint for one figure target (or sub-sweep).
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    fp: Fingerprint,
    /// Completed rows: job index → compact JSON.
    rows: BTreeMap<usize, String>,
}

/// The checkpoint directory under `results_dir`.
pub fn ckpt_dir(results_dir: &Path) -> PathBuf {
    results_dir.join(".ckpt")
}

impl Checkpoint {
    /// Where `target`'s checkpoint lives under `results_dir`.
    pub fn path_for(results_dir: &Path, target: &str) -> PathBuf {
        ckpt_dir(results_dir).join(format!("{target}.jsonl"))
    }

    /// Start a fresh checkpoint, discarding any stale file for this
    /// target.
    pub fn fresh(results_dir: &Path, target: &str, jobs: usize, ops: usize) -> Self {
        let path = Self::path_for(results_dir, target);
        let _ = fs::remove_file(&path);
        Checkpoint {
            path,
            fp: Fingerprint {
                target: target.to_owned(),
                jobs,
                ops,
            },
            rows: BTreeMap::new(),
        }
    }

    /// Load an existing checkpoint to resume from. A missing file is a
    /// fresh start; corrupt **data** lines are dropped (those jobs just
    /// recompute); a header that fingerprints a different run shape is
    /// an error — resuming would merge rows from a different campaign.
    ///
    /// # Errors
    /// A human-readable description of the fingerprint mismatch or
    /// unreadable header, with the advice to rerun without `--resume`.
    pub fn resume(
        results_dir: &Path,
        target: &str,
        jobs: usize,
        ops: usize,
    ) -> Result<Self, String> {
        let path = Self::path_for(results_dir, target);
        let fp = Fingerprint {
            target: target.to_owned(),
            jobs,
            ops,
        };
        let Ok(contents) = fs::read_to_string(&path) else {
            return Ok(Checkpoint {
                path,
                fp,
                rows: BTreeMap::new(),
            });
        };
        let mut lines = contents.lines();
        let header = lines.next().unwrap_or("");
        let on_disk = parse_header(header).ok_or_else(|| {
            format!(
                "checkpoint {} has an unreadable header; \
                 rerun without --resume to start over",
                path.display()
            )
        })?;
        if on_disk != fp {
            return Err(format!(
                "checkpoint {} was written by a different run \
                 (target {:?}, {} jobs, {} ops; this run: target {:?}, {} jobs, {} ops); \
                 rerun without --resume to start over",
                path.display(),
                on_disk.target,
                on_disk.jobs,
                on_disk.ops,
                fp.target,
                fp.jobs,
                fp.ops,
            ));
        }
        let mut rows = BTreeMap::new();
        for line in lines {
            if let Some((job, row)) = parse_data_line(line) {
                if job < jobs {
                    rows.insert(job, row);
                }
            }
        }
        Ok(Checkpoint { path, fp, rows })
    }

    /// Job indices already completed.
    pub fn completed(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows.keys().copied()
    }

    /// How many jobs are already completed.
    pub fn completed_count(&self) -> usize {
        self.rows.len()
    }

    /// The compact JSON row recorded for `job`, if any.
    pub fn row(&self, job: usize) -> Option<&str> {
        self.rows.get(&job).map(String::as_str)
    }

    /// Drop a cached row (used when a stored row no longer parses as
    /// the expected type — the job is simply recomputed).
    pub fn forget(&mut self, job: usize) {
        self.rows.remove(&job);
    }

    /// The job indices in `0..jobs` that still need to run.
    pub fn pending(&self) -> Vec<usize> {
        (0..self.fp.jobs)
            .filter(|j| !self.rows.contains_key(j))
            .collect()
    }

    /// Record a completed job's compact JSON row and persist the whole
    /// checkpoint atomically. Persistence failures are reported to
    /// stderr but do not fail the run — the checkpoint is an
    /// optimization, the campaign result is still held in memory.
    pub fn record(&mut self, job: usize, compact_row: String) {
        self.rows.insert(job, compact_row);
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"itesp_checkpoint\":{CHECKPOINT_VERSION},\"target\":{},\"jobs\":{},\"ops\":{}}}\n",
            {
                let mut s = String::new();
                serde::Serialize::json(&self.fp.target, &mut s);
                s
            },
            self.fp.jobs,
            self.fp.ops,
        ));
        for (job, row) in &self.rows {
            out.push_str(&format!("{{\"job\":{job},\"row\":{row}}}\n"));
        }
        if let Some(dir) = self.path.parent() {
            let _ = fs::create_dir_all(dir);
        }
        if let Err(e) = itesp_snap::write_atomic(&self.path, out.as_bytes()) {
            eprintln!(
                "[warning: could not persist checkpoint {}: {e}]",
                self.path.display()
            );
        }
    }

    /// Delete the checkpoint file (called after the final results are
    /// durably saved — the checkpoint has served its purpose).
    pub fn discard(&self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Parse the header line into its fingerprint.
fn parse_header(line: &str) -> Option<Fingerprint> {
    let v = serde_json::from_str(line).ok()?;
    if v.field("itesp_checkpoint").ok()?.as_u64().ok()? != CHECKPOINT_VERSION {
        return None;
    }
    Some(Fingerprint {
        target: v.field("target").ok()?.as_str().ok()?.to_owned(),
        jobs: usize::try_from(v.field("jobs").ok()?.as_u64().ok()?).ok()?,
        ops: usize::try_from(v.field("ops").ok()?.as_u64().ok()?).ok()?,
    })
}

/// Parse a `{"job":N,"row":...}` data line, returning the row's **raw
/// text** (not a re-serialization) so stored bytes pass through
/// untouched. Returns `None` for corrupt lines (e.g. a torn write from
/// a pre-atomic-rename version of this file).
fn parse_data_line(line: &str) -> Option<(usize, String)> {
    let rest = line.strip_prefix("{\"job\":")?;
    let comma = rest.find(',')?;
    let job: usize = rest[..comma].parse().ok()?;
    let row = rest[comma + 1..]
        .strip_prefix("\"row\":")?
        .strip_suffix('}')?;
    // Only keep rows that are themselves valid JSON.
    serde_json::from_str(row).ok()?;
    Some((job, row.to_owned()))
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
        let mut ck = Checkpoint::fresh(&dir, "figX", 4, 100);
        ck.record(2, "{\"v\":2.5}".to_owned());
        ck.record(0, "{\"v\":0.1}".to_owned());

        let resumed = Checkpoint::resume(&dir, "figX", 4, 100).unwrap();
        assert_eq!(resumed.completed().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(resumed.row(2), Some("{\"v\":2.5}"));
        assert_eq!(resumed.pending(), vec![1, 3]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_file_is_fresh() {
        let dir = scratch_dir("nofile");
        let ck = Checkpoint::resume(&dir, "figY", 3, 50).unwrap();
        assert_eq!(ck.completed_count(), 0);
        assert_eq!(ck.pending(), vec![0, 1, 2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_fingerprint_is_refused() {
        let dir = scratch_dir("mismatch");
        let mut ck = Checkpoint::fresh(&dir, "figZ", 4, 100);
        ck.record(0, "1".to_owned());
        let err = Checkpoint::resume(&dir, "figZ", 4, 200).unwrap_err();
        assert!(err.contains("different run"), "{err}");
        assert!(err.contains("--resume"), "{err}");
        // Same shape resumes fine.
        assert!(Checkpoint::resume(&dir, "figZ", 4, 100).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_data_lines_recompute() {
        let dir = scratch_dir("corrupt");
        let mut ck = Checkpoint::fresh(&dir, "figW", 3, 10);
        ck.record(0, "{\"v\":1}".to_owned());
        ck.record(1, "{\"v\":2}".to_owned());
        // Tear the last line, as a torn non-atomic write would.
        let path = Checkpoint::path_for(&dir, "figW");
        let contents = fs::read_to_string(&path).unwrap();
        fs::write(&path, &contents[..contents.len() - 5]).unwrap();

        let resumed = Checkpoint::resume(&dir, "figW", 3, 10).unwrap();
        assert_eq!(resumed.completed().collect::<Vec<_>>(), vec![0]);
        assert_eq!(resumed.pending(), vec![1, 2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_discards_stale_checkpoint() {
        let dir = scratch_dir("stale");
        let mut ck = Checkpoint::fresh(&dir, "figV", 2, 10);
        ck.record(0, "1".to_owned());
        let ck2 = Checkpoint::fresh(&dir, "figV", 2, 10);
        assert_eq!(ck2.completed_count(), 0);
        assert_eq!(
            Checkpoint::resume(&dir, "figV", 2, 10)
                .unwrap()
                .completed_count(),
            0,
            "fresh() must remove the old file"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
