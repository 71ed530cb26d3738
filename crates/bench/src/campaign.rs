//! Checkpointed figure campaigns: the resumable layer every regenerator
//! binary runs its jobs through.
//!
//! A *campaign* is one figure target's fan-out of `n` deterministic
//! jobs. [`run_campaign`] loads the target's [`Checkpoint`] (honoring
//! `--resume`), runs only the pending jobs via
//! [`run_isolated`](itesp_orchestrate::run_isolated), persists each
//! result row as it completes, and returns a [`Campaign`] holding the
//! merged rows plus a [`FailureRecord`] per failed job. Failures are
//! written to `results/.ckpt/<target>.failures.json` and echoed with an
//! oracle-style replay command line, so a panicked job can be re-run in
//! isolation (`ITESP_JOB_ONLY=<job> ... --resume`).
//!
//! A row is any [`Persist`] type: the checkpoint stores its snapshot
//! bytes (see [`crate::checkpoint`]), floats as their bit patterns, so
//! a revived row is bit-identical to the computed one and a resumed
//! campaign's final JSON is byte-identical to an uninterrupted run's.

use std::path::PathBuf;
use std::sync::Arc;

use itesp_snap::Persist;
use serde::Serialize;

use crate::checkpoint::{ckpt_dir, Checkpoint};
use itesp_orchestrate::{run_isolated, JobOutcome, JobPolicy};

/// Everything a campaign needs to know, resolved once from CLI/env by
/// [`CampaignOptions::from_env`] — or built directly in tests, which
/// keeps them independent of process-global state.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Where results and `.ckpt/` live.
    pub results_dir: PathBuf,
    /// Resume from an existing checkpoint instead of starting over.
    pub resume: bool,
    /// Worker/timeout policy for the fan-out.
    pub policy: JobPolicy,
    /// Operations per program — part of the checkpoint fingerprint.
    pub ops: usize,
    /// Run only this job index (replay of a failed job); other pending
    /// jobs are left for a later `--resume`.
    pub job_only: Option<usize>,
    /// Fault-drill knob: panic in job `.1` of target `.0`.
    pub inject_panic: Option<(String, usize)>,
}

impl CampaignOptions {
    /// Resolve options from the command line and environment (see
    /// EXPERIMENTS.md for the knobs).
    pub fn from_env(ops: usize) -> Self {
        CampaignOptions {
            results_dir: crate::results_dir_from_env(),
            resume: crate::resume_from_env(),
            policy: JobPolicy {
                workers: crate::jobs_from_env(),
                timeout: crate::job_timeout_from_env(),
            },
            ops,
            job_only: crate::job_only_from_env(),
            inject_panic: inject_panic_from_env(),
        }
    }

    /// Serial, non-resuming options rooted at `results_dir` — the unit
    /// test baseline.
    pub fn for_tests(results_dir: impl Into<PathBuf>, ops: usize) -> Self {
        CampaignOptions {
            results_dir: results_dir.into(),
            resume: false,
            policy: JobPolicy::serial(),
            ops,
            job_only: None,
            inject_panic: None,
        }
    }
}

/// Parse `ITESP_INJECT_PANIC=<target>:<job>` (fault-drill knob).
fn inject_panic_from_env() -> Option<(String, usize)> {
    let v = crate::env_var("ITESP_INJECT_PANIC")?;
    let parsed = v
        .rsplit_once(':')
        .and_then(|(t, j)| j.parse::<usize>().ok().map(|j| (t.to_owned(), j)));
    match parsed {
        Some(p) => Some(p),
        None => {
            eprintln!(
                "error: invalid ITESP_INJECT_PANIC {v:?} (expected <target>:<job-index>, \
                 e.g. fig08:3)"
            );
            std::process::exit(2);
        }
    }
}

/// One failed job, as recorded in `<target>.failures.json`.
#[derive(Debug, Clone, Serialize)]
pub struct FailureRecord {
    /// Job index within the target.
    pub job: usize,
    /// `"panicked"` or `"timed_out"`.
    pub kind: String,
    /// The panic payload, or the deadline description.
    pub message: String,
    /// Ready-to-paste command that re-runs exactly this job.
    pub replay: String,
}

/// The merged result of one campaign.
#[derive(Debug)]
pub struct Campaign<T> {
    /// The figure target (checkpoint key).
    pub target: String,
    /// Row per job; `None` where the job failed or was skipped.
    pub rows: Vec<Option<T>>,
    /// One record per failed job (skipped jobs are not failures).
    pub failures: Vec<FailureRecord>,
    /// Jobs deliberately not run under `--job-only`.
    pub skipped: Vec<usize>,
}

impl<T> Campaign<T> {
    /// Whether every job produced a row.
    pub fn is_complete(&self) -> bool {
        self.rows.iter().all(Option::is_some)
    }

    /// The full row set, or `None` after reporting what failed.
    /// Completed jobs stay checkpointed, so the printed advice — rerun
    /// with `--resume` — only recomputes what is missing.
    pub fn into_rows(self) -> Option<Vec<T>> {
        if self.is_complete() {
            return Some(self.rows.into_iter().flatten().collect());
        }
        let n = self.rows.len();
        if !self.skipped.is_empty() {
            eprintln!(
                "[{}] {} of {n} job(s) not run under --job-only",
                self.target,
                self.skipped.len()
            );
        }
        eprintln!(
            "[{}] {} of {n} job(s) failed; completed jobs are checkpointed — \
             rerun with --resume to finish without recomputing them",
            self.target,
            self.failures.len(),
        );
        None
    }

    /// [`Campaign::into_rows`], exiting nonzero when a job failed.
    pub fn into_rows_or_exit(self) -> Vec<T> {
        self.into_rows().unwrap_or_else(|| std::process::exit(1))
    }
}

/// The replay command for one failed job of one target. A dotted
/// target (`figras.ras`, `run_all.grid`) is a campaign of the binary
/// named before the dot.
fn replay_line(target: &str, job: usize, ops: usize) -> String {
    let bin = target.split('.').next().unwrap_or(target);
    format!(
        "ITESP_JOB_ONLY={job} ITESP_JOBS=1 cargo run --release -p itesp-bench \
         --bin {bin} -- {ops} --resume"
    )
}

/// Run (or resume) the campaign for `target` with explicit options.
/// `f` must be deterministic per job index — resumed runs rely on it.
pub fn run_campaign_with<T, F>(target: &str, n: usize, opts: &CampaignOptions, f: F) -> Campaign<T>
where
    T: Persist + Default + Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    let ckpt = Checkpoint::new(&opts.results_dir, target, n, opts.ops);
    let mut rows: Vec<Option<T>> = Vec::with_capacity(n);
    rows.resize_with(n, || None);
    if opts.resume {
        let done = ckpt.load::<T>().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        if !done.is_empty() {
            eprintln!(
                "[{target}] resume: {} of {n} job(s) already checkpointed",
                done.len()
            );
        }
        for (job, row) in done {
            rows[job] = Some(row);
        }
    } else {
        ckpt.clear();
    }

    let (pending, skipped): (Vec<usize>, Vec<usize>) = (0..n)
        .filter(|&j| rows[j].is_none())
        .partition(|&j| opts.job_only.is_none_or(|only| j == only));

    let inject = match &opts.inject_panic {
        Some((t, job)) if t.as_str() == target => Some(*job),
        _ => None,
    };
    let func = Arc::new(move |job: usize| {
        if inject == Some(job) {
            panic!("injected fault (ITESP_INJECT_PANIC)");
        }
        f(job)
    });

    let outcomes = run_isolated(&pending, &opts.policy, func, |job, outcome| {
        if let JobOutcome::Ok(v) = outcome {
            ckpt.record(job, v);
        }
    });

    let mut failures = Vec::new();
    for (pos, outcome) in outcomes.into_iter().enumerate() {
        let job = pending[pos];
        match outcome {
            JobOutcome::Ok(v) => rows[job] = Some(v),
            JobOutcome::Panicked { message } => failures.push(FailureRecord {
                job,
                kind: "panicked".to_owned(),
                message,
                replay: replay_line(target, job, opts.ops),
            }),
            JobOutcome::TimedOut { timeout } => failures.push(FailureRecord {
                job,
                kind: "timed_out".to_owned(),
                message: format!("exceeded {:.1} s deadline", timeout.as_secs_f64()),
                replay: replay_line(target, job, opts.ops),
            }),
        }
    }

    write_failure_manifest(&opts.results_dir, target, &failures);
    Campaign {
        target: target.to_owned(),
        rows,
        failures,
        skipped,
    }
}

/// Run (or resume) the campaign for `target`, with options resolved
/// from the command line and environment.
pub fn run_campaign<T, F>(target: &str, n: usize, f: F) -> Campaign<T>
where
    T: Persist + Default + Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    run_campaign_with(
        target,
        n,
        &CampaignOptions::from_env(crate::ops_from_env()),
        f,
    )
}

/// Path of `target`'s failure manifest.
pub fn failure_manifest_path(results_dir: &std::path::Path, target: &str) -> PathBuf {
    ckpt_dir(results_dir).join(format!("{target}.failures.json"))
}

/// Persist (or clear) the failure manifest and echo replay lines.
fn write_failure_manifest(results_dir: &std::path::Path, target: &str, failures: &[FailureRecord]) {
    let path = failure_manifest_path(results_dir, target);
    if failures.is_empty() {
        let _ = std::fs::remove_file(&path);
        return;
    }
    for fr in failures {
        eprintln!(
            "\n[itesp-bench] {target} job {} {}: {}\n\
             [itesp-bench] replay with:\n\
             [itesp-bench]   {}\n",
            fr.job, fr.kind, fr.message, fr.replay
        );
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match serde_json::to_string_pretty(&failures.to_vec()) {
        Ok(json) => {
            if let Err(e) = itesp_snap::write_atomic(&path, json.as_bytes()) {
                eprintln!(
                    "[warning: could not write failure manifest {}: {e}]",
                    path.display()
                );
            } else {
                eprintln!("[failure manifest: {}]", path.display());
            }
        }
        Err(e) => eprintln!("[warning: failure manifest serialization failed: {e}]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "itesp-campaign-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn campaign_collects_rows_in_order() {
        let dir = scratch_dir("order");
        let opts = CampaignOptions::for_tests(&dir, 10);
        let c: Campaign<(f64, u64)> =
            run_campaign_with("t1", 5, &opts, |i| (i as f64 * 0.5, i as u64));
        assert!(c.is_complete());
        assert!(c.failures.is_empty());
        let rows = c.into_rows_or_exit();
        assert_eq!(rows[3], (1.5, 3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_completed_jobs_and_merges_identically() {
        let dir = scratch_dir("resume");
        let mut opts = CampaignOptions::for_tests(&dir, 10);
        static CALLS: AtomicUsize = AtomicUsize::new(0);

        // First run: jobs 0 and 1 succeed, job 2 panics.
        opts.inject_panic = Some(("t2".to_owned(), 2));
        let c1: Campaign<Vec<f64>> = run_campaign_with("t2", 3, &opts, |i| {
            CALLS.fetch_add(1, Ordering::SeqCst);
            vec![i as f64 + 0.25, 1.0 / (i as f64 + 1.0)]
        });
        assert!(!c1.is_complete());
        assert_eq!(c1.failures.len(), 1);
        assert_eq!(c1.failures[0].job, 2);
        assert_eq!(c1.failures[0].kind, "panicked");
        assert!(
            c1.failures[0].replay.contains("ITESP_JOB_ONLY=2"),
            "{}",
            c1.failures[0].replay
        );
        assert!(failure_manifest_path(&dir, "t2").exists());
        let calls_after_first = CALLS.load(Ordering::SeqCst);
        assert_eq!(calls_after_first, 2, "injected job panics before f runs");

        // Resume without the fault: only job 2 recomputes.
        opts.inject_panic = None;
        opts.resume = true;
        let c2: Campaign<Vec<f64>> = run_campaign_with("t2", 3, &opts, |i| {
            CALLS.fetch_add(1, Ordering::SeqCst);
            vec![i as f64 + 0.25, 1.0 / (i as f64 + 1.0)]
        });
        assert!(c2.is_complete());
        assert_eq!(CALLS.load(Ordering::SeqCst), calls_after_first + 1);
        assert!(
            !failure_manifest_path(&dir, "t2").exists(),
            "clean run clears the manifest"
        );

        // Merged rows byte-identical to a clean run.
        let clean_opts = CampaignOptions::for_tests(scratch_dir("resume-clean"), 10);
        let clean: Campaign<Vec<f64>> = run_campaign_with("t2", 3, &clean_opts, |i| {
            vec![i as f64 + 0.25, 1.0 / (i as f64 + 1.0)]
        });
        assert_eq!(
            serde_json::to_string_pretty(&c2.rows.into_iter().flatten().collect::<Vec<_>>())
                .unwrap(),
            serde_json::to_string_pretty(&clean.rows.into_iter().flatten().collect::<Vec<_>>())
                .unwrap(),
        );
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(clean_opts.results_dir);
    }

    #[test]
    fn job_only_runs_one_job_and_leaves_the_rest_pending() {
        let dir = scratch_dir("job-only");
        let mut opts = CampaignOptions::for_tests(&dir, 10);
        opts.job_only = Some(1);
        let c: Campaign<u64> = run_campaign_with("t3", 4, &opts, |i| i as u64 * 3);
        assert!(!c.is_complete());
        assert_eq!(c.rows[1], Some(3));
        assert_eq!(c.skipped, vec![0, 2, 3]);
        assert!(c.failures.is_empty(), "skipped jobs are not failures");

        // The one completed job survives into a later resume.
        let rows = Checkpoint::new(&dir, "t3", 4, 10).load::<u64>().unwrap();
        assert_eq!(rows.into_iter().collect::<Vec<_>>(), vec![(1, 3)]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Floats that a decimal round trip could lose or reject: NaN (with
    /// payload bits), negative zero, and a subnormal.
    #[test]
    fn resumed_rows_revive_floats_bit_for_bit() {
        let dir = scratch_dir("float-bits");
        let mut opts = CampaignOptions::for_tests(&dir, 10);
        let odd = [
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
            -0.0,
            f64::from_bits(1),
        ];
        let first: Campaign<Vec<f64>> =
            run_campaign_with("t4", 3, &opts, move |i| vec![odd[i], odd[(i + 1) % 3]]);
        assert!(first.is_complete());

        opts.resume = true;
        let revived: Campaign<Vec<f64>> = run_campaign_with("t4", 3, &opts, |_| {
            unreachable!("every job is checkpointed")
        });
        let bits = |c: Campaign<Vec<f64>>| -> Vec<Vec<u64>> {
            c.into_rows_or_exit()
                .iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(revived), bits(first));
        let _ = fs::remove_dir_all(&dir);
    }
}
