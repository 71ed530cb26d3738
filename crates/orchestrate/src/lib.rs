//! # itesp-orchestrate — fault-isolated job execution
//!
//! The one panic-isolation and deadline implementation shared by the
//! batch side (`itesp-bench`'s checkpointed campaigns) and the serving
//! side (`itesp-serve`'s shard workers).
//!
//! [`run_isolated`] fans jobs across worker threads, but each job runs
//! once under `catch_unwind` (one panicking job no longer poisons the
//! whole fan-out) and optionally under a watchdog deadline. Every job
//! resolves to a [`JobOutcome`] instead of `T`, so the caller decides
//! what a failure costs: the campaign layer records it in a failure
//! manifest and keeps going, and a serve connection turns it into a
//! typed error frame for that client alone.
//!
//! Jobs are deterministic, so a failed job is never re-run here: it
//! would only fail again. Campaigns replay it on demand instead
//! (`--job-only`, `--resume`).
//!
//! [`run_policied`] is the single-job entry point, for callers (shard
//! workers) that execute jobs one at a time rather than fanning out.
//!
//! This crate is deliberately environment-free — policy comes in as a
//! [`JobPolicy`] value, which keeps the layer testable without touching
//! process-global env vars. (`itesp-bench` owns the env/CLI parsing.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// How one job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job returned a result.
    Ok(T),
    /// The job panicked; `message` is the panic payload.
    Panicked { message: String },
    /// The job overran the watchdog deadline. Its thread is abandoned
    /// (it cannot be killed), so its work is discarded even if it
    /// eventually finishes.
    TimedOut { timeout: Duration },
}

/// Execution policy for one fan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPolicy {
    /// Worker threads (clamped to the job count; 1 = serial).
    pub workers: usize,
    /// Per-job watchdog deadline. `None` runs each job in the worker
    /// thread itself with no deadline.
    pub timeout: Option<Duration>,
}

impl Default for JobPolicy {
    fn default() -> Self {
        JobPolicy {
            workers: 1,
            timeout: None,
        }
    }
}

impl JobPolicy {
    /// Serial, no deadline — the unit-test baseline.
    pub fn serial() -> Self {
        Self::default()
    }

    /// Same policy with a different worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// Render a panic payload (the `Box<dyn Any>` from `catch_unwind`).
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload was not a string".to_owned()
    }
}

/// Run `f(job)` once: in-thread when there is no deadline, under a
/// detached watchdog thread otherwise. A timed-out job's thread is
/// abandoned, not killed — which is why `f` must be `'static` and
/// shared via `Arc`.
fn run_once<T, F>(job: usize, timeout: Option<Duration>, f: &Arc<F>) -> JobOutcome<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    let panicked = |message| JobOutcome::Panicked { message };
    let Some(timeout) = timeout else {
        return catch_unwind(AssertUnwindSafe(|| f(job)))
            .map_or_else(|p| panicked(payload_message(p)), JobOutcome::Ok);
    };
    let (tx, rx) = mpsc::channel();
    let fc = Arc::clone(f);
    let spawned = std::thread::Builder::new()
        .name(format!("itesp-job-{job}"))
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| fc(job))).map_err(payload_message);
            // The receiver is gone if the watchdog already gave up.
            let _ = tx.send(result);
        });
    if let Err(e) = spawned {
        return panicked(format!("could not spawn job thread: {e}"));
    }
    match rx.recv_timeout(timeout) {
        Ok(Ok(v)) => JobOutcome::Ok(v),
        Ok(Err(message)) => panicked(message),
        Err(_) => JobOutcome::TimedOut { timeout },
    }
}

/// Run a single job once under an optional watchdog deadline, with
/// panic isolation — the serving-side counterpart of [`run_isolated`].
pub fn run_policied<T, F>(timeout: Option<Duration>, f: F) -> JobOutcome<T>
where
    T: Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    run_once(0, timeout, &Arc::new(move |_job| f()))
}

/// Fan the jobs named by `indices` across `policy.workers` threads,
/// each run once with panic isolation and the policy's watchdog
/// deadline. Returns one [`JobOutcome`] per index, **aligned with
/// `indices`** regardless of completion order; `on_done(index,
/// outcome)` fires as each job settles (under a lock, so it may write
/// checkpoints without further synchronization).
///
/// `f` must be deterministic per index — resumed runs re-invoke it
/// with the same index and expect the same result.
pub fn run_isolated<T, F, C>(
    indices: &[usize],
    policy: &JobPolicy,
    f: Arc<F>,
    on_done: C,
) -> Vec<JobOutcome<T>>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
    C: FnMut(usize, &JobOutcome<T>) + Send,
{
    let n = indices.len();
    let mut slots: Vec<Option<JobOutcome<T>>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    if n == 0 {
        return Vec::new();
    }
    let workers = policy.workers.clamp(1, n);
    let done = Mutex::new((slots, on_done));
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let run_worker = || loop {
            let pos = next.fetch_add(1, Ordering::Relaxed);
            if pos >= n {
                break;
            }
            let outcome = run_once(indices[pos], policy.timeout, &f);
            let mut guard = done.lock().expect("orchestrator lock");
            let (slots, on_done) = &mut *guard;
            on_done(indices[pos], &outcome);
            slots[pos] = Some(outcome);
        };
        // One "worker" is this thread; extras are spawned. With
        // workers == 1 this is a plain serial loop (no threads at all
        // unless a timeout is set).
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(run_worker)).collect();
        run_worker();
        for h in handles {
            // Workers cannot panic: job panics are caught per job.
            h.join().expect("orchestrator worker panicked");
        }
    });
    let (slots, _) = done.into_inner().expect("orchestrator lock");
    slots
        .into_iter()
        .map(|s| s.expect("every job slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn ok_results_align_with_indices() {
        let indices: Vec<usize> = vec![5, 2, 9, 0];
        let out = run_isolated(
            &indices,
            &JobPolicy::serial().with_workers(3),
            Arc::new(|i: usize| i * 10),
            |_, _| {},
        );
        let want: Vec<_> = [50, 20, 90, 0].map(JobOutcome::Ok).into();
        assert_eq!(out, want);
    }

    #[test]
    fn panicking_job_is_isolated() {
        let out = run_isolated(
            &[0, 1, 2],
            &JobPolicy::serial().with_workers(2),
            Arc::new(|i: usize| {
                assert!(i != 1, "job one detonates");
                i
            }),
            |_, _| {},
        );
        assert_eq!(out[0], JobOutcome::Ok(0));
        assert_eq!(out[2], JobOutcome::Ok(2));
        match &out[1] {
            JobOutcome::Panicked { message } => {
                assert!(message.contains("job one detonates"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn timed_out_job_reports_deadline() {
        let policy = JobPolicy {
            timeout: Some(Duration::from_millis(25)),
            ..JobPolicy::serial()
        };
        let out = run_isolated(
            &[0, 1],
            &policy,
            Arc::new(|i: usize| {
                if i == 0 {
                    std::thread::sleep(Duration::from_secs(60));
                }
                i
            }),
            |_, _| {},
        );
        assert_eq!(
            out[0],
            JobOutcome::TimedOut {
                timeout: Duration::from_millis(25)
            }
        );
        assert_eq!(out[1], JobOutcome::Ok(1));
    }

    #[test]
    fn a_panicking_job_runs_exactly_once() {
        static ISOLATED: AtomicU32 = AtomicU32::new(0);
        let out: Vec<JobOutcome<usize>> = run_isolated(
            &[0],
            &JobPolicy::serial(),
            Arc::new(|_| {
                ISOLATED.fetch_add(1, Ordering::SeqCst);
                panic!("always fails");
            }),
            |_, _| {},
        );
        assert!(matches!(out[0], JobOutcome::Panicked { .. }), "{out:?}");
        assert_eq!(ISOLATED.load(Ordering::SeqCst), 1);

        static POLICIED: AtomicU32 = AtomicU32::new(0);
        let out: JobOutcome<u32> = run_policied(Some(Duration::from_secs(60)), || {
            POLICIED.fetch_add(1, Ordering::SeqCst);
            panic!("connection job detonates");
        });
        match out {
            JobOutcome::Panicked { message } => assert!(message.contains("detonates"), "{message}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(POLICIED.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn on_done_sees_every_job_exactly_once() {
        let mut seen = Vec::new();
        run_isolated(
            &[3, 1, 4, 1, 5],
            &JobPolicy::serial().with_workers(4),
            Arc::new(|i: usize| i),
            |i, o: &JobOutcome<usize>| {
                assert_eq!(*o, JobOutcome::Ok(i));
                seen.push(i);
            },
        );
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 1, 3, 4, 5]);
    }

    #[test]
    fn run_policied_single_job_paths() {
        // Success.
        assert_eq!(run_policied(None, || 41 + 1), JobOutcome::Ok(42));
        // Watchdog deadline.
        let out: JobOutcome<()> = run_policied(Some(Duration::from_millis(20)), || {
            std::thread::sleep(Duration::from_secs(60));
        });
        assert_eq!(
            out,
            JobOutcome::TimedOut {
                timeout: Duration::from_millis(20)
            }
        );
    }
}
