//! # itesp-orchestrate — fault-tolerant job execution policies
//!
//! The one timeout/retry/backoff implementation shared by the batch
//! side (`itesp-bench`'s checkpointed campaigns) and the serving side
//! (`itesp-serve`'s per-connection policies).
//!
//! [`run_isolated`] fans jobs across worker threads, but each job
//! attempt runs under `catch_unwind` (one panicking job no longer
//! poisons the whole fan-out), optionally under a watchdog deadline,
//! and failed attempts retry with exponential backoff. Every job
//! resolves to a [`JobOutcome`] instead of `T`, so the caller decides
//! what a failure costs: the campaign layer records it in a failure
//! manifest and keeps going, and a serve connection turns it into a
//! typed error frame for that client alone.
//!
//! [`run_policied`] is the single-job entry point: one attempt chain
//! under the same policy, for callers (shard workers, connection
//! handlers) that execute jobs one at a time rather than fanning out.
//!
//! This crate is deliberately environment-free — policy comes in as a
//! [`JobPolicy`] value, which keeps the layer testable without touching
//! process-global env vars. (`itesp-bench` owns the env/CLI parsing.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// How one job ended, after all retry attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job returned a result.
    Ok(T),
    /// Every attempt panicked; `message` is the last panic payload.
    Panicked { message: String, attempts: u32 },
    /// Every attempt overran the watchdog deadline. The hung attempt
    /// threads are abandoned (they cannot be killed), so their work is
    /// discarded even if they eventually finish.
    TimedOut { timeout: Duration, attempts: u32 },
    /// The job was not run (filtered out by `ITESP_JOB_ONLY`).
    Skipped,
}

impl<T> JobOutcome<T> {
    /// Whether the job produced a result.
    pub fn is_ok(&self) -> bool {
        matches!(self, JobOutcome::Ok(_))
    }

    /// The result, if any.
    pub fn ok(self) -> Option<T> {
        match self {
            JobOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }

    /// Short failure description for manifests and logs (`None` for
    /// `Ok`/`Skipped`).
    pub fn failure(&self) -> Option<String> {
        match self {
            JobOutcome::Ok(_) | JobOutcome::Skipped => None,
            JobOutcome::Panicked { message, attempts } => {
                Some(format!("panicked after {attempts} attempt(s): {message}"))
            }
            JobOutcome::TimedOut { timeout, attempts } => Some(format!(
                "timed out after {attempts} attempt(s) of {:.1} s",
                timeout.as_secs_f64()
            )),
        }
    }
}

/// Execution policy for one fan-out (or one serve connection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPolicy {
    /// Worker threads (clamped to the job count; 1 = serial).
    pub workers: usize,
    /// Per-attempt watchdog deadline. `None` runs attempts in the
    /// worker thread itself with no deadline.
    pub timeout: Option<Duration>,
    /// Extra attempts after a failed one.
    pub retries: u32,
    /// Sleep before the first retry; doubles per subsequent retry.
    pub backoff: Duration,
}

impl Default for JobPolicy {
    fn default() -> Self {
        JobPolicy {
            workers: 1,
            timeout: None,
            retries: 0,
            backoff: Duration::from_millis(100),
        }
    }
}

impl JobPolicy {
    /// Serial, no deadline, no retry — the unit-test baseline.
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

/// One attempt failure, before the retry policy decides what to do.
enum AttemptError {
    Panicked(String),
    TimedOut(Duration),
}

/// Run `f(job)` once: in-thread when there is no deadline, under a
/// detached watchdog thread otherwise. A timed-out attempt's thread is
/// abandoned, not killed — which is why `f` must be `'static` and
/// shared via `Arc`.
fn run_once<T, F>(job: usize, timeout: Option<Duration>, f: &Arc<F>) -> Result<T, AttemptError>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    let Some(timeout) = timeout else {
        return catch_unwind(AssertUnwindSafe(|| f(job)))
            .map_err(|p| AttemptError::Panicked(payload_message(p)));
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
        return Err(AttemptError::Panicked(format!(
            "could not spawn job thread: {e}"
        )));
    }
    match rx.recv_timeout(timeout) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(message)) => Err(AttemptError::Panicked(message)),
        Err(_) => Err(AttemptError::TimedOut(timeout)),
    }
}

/// Run one job to completion under the retry policy.
fn run_attempts<T, F>(job: usize, policy: &JobPolicy, f: &Arc<F>) -> JobOutcome<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    let attempts = policy.retries + 1;
    let mut backoff = policy.backoff;
    for attempt in 1..=attempts {
        match run_once(job, policy.timeout, f) {
            Ok(v) => return JobOutcome::Ok(v),
            Err(e) if attempt == attempts => {
                return match e {
                    AttemptError::Panicked(message) => JobOutcome::Panicked { message, attempts },
                    AttemptError::TimedOut(timeout) => JobOutcome::TimedOut { timeout, attempts },
                }
            }
            Err(_) => {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
        }
    }
    unreachable!("attempt loop always returns")
}

/// Run a single job under the policy's watchdog deadline, retry
/// budget, and panic isolation — the serving-side counterpart of
/// [`run_isolated`]. `policy.workers` is ignored (there is one job).
///
/// `f` should be deterministic — retries re-invoke it expecting the
/// same result, exactly as the batch fan-out does.
pub fn run_policied<T, F>(policy: &JobPolicy, f: F) -> JobOutcome<T>
where
    T: Send + 'static,
    F: Fn() -> T + Send + Sync + 'static,
{
    run_attempts(0, policy, &Arc::new(move |_job| f()))
}

/// Fan the jobs named by `indices` across `policy.workers` threads with
/// per-job panic isolation, watchdog deadlines, and retry. Returns one
/// [`JobOutcome`] per index, **aligned with `indices`** regardless of
/// completion order; `on_done(index, outcome)` fires as each job
/// settles (under a lock, so it may write checkpoints without further
/// synchronization).
///
/// `f` must be deterministic per index — retries and resumed runs
/// re-invoke it with the same index and expect the same result.
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
            let outcome = run_attempts(indices[pos], policy, &f);
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
            // Workers cannot panic: job panics are caught per-attempt.
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
        let values: Vec<usize> = out.into_iter().map(|o| o.ok().unwrap()).collect();
        assert_eq!(values, vec![50, 20, 90, 0]);
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
            JobOutcome::Panicked { message, attempts } => {
                assert!(message.contains("job one detonates"), "{message}");
                assert_eq!(*attempts, 1);
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
        match out[0] {
            JobOutcome::TimedOut { timeout, attempts } => {
                assert_eq!(timeout, Duration::from_millis(25));
                assert_eq!(attempts, 1);
            }
            ref other => panic!("expected TimedOut, got {other:?}"),
        }
        assert_eq!(out[1], JobOutcome::Ok(1));
    }

    #[test]
    fn transient_panic_is_retried_until_success() {
        static TRIES: AtomicU32 = AtomicU32::new(0);
        let policy = JobPolicy {
            retries: 3,
            backoff: Duration::from_millis(1),
            ..JobPolicy::serial()
        };
        let out = run_isolated(
            &[7],
            &policy,
            Arc::new(|i: usize| {
                if TRIES.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient");
                }
                i
            }),
            |_, _| {},
        );
        assert_eq!(out[0], JobOutcome::Ok(7));
        assert_eq!(TRIES.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn retries_are_bounded() {
        static TRIES: AtomicU32 = AtomicU32::new(0);
        let policy = JobPolicy {
            retries: 2,
            backoff: Duration::from_millis(1),
            ..JobPolicy::serial()
        };
        let out: Vec<JobOutcome<usize>> = run_isolated(
            &[0],
            &policy,
            Arc::new(|_| {
                TRIES.fetch_add(1, Ordering::SeqCst);
                panic!("always fails");
            }),
            |_, _| {},
        );
        match &out[0] {
            JobOutcome::Panicked { attempts, .. } => assert_eq!(*attempts, 3),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(TRIES.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn on_done_sees_every_job_exactly_once() {
        let mut seen = Vec::new();
        run_isolated(
            &[3, 1, 4, 1, 5],
            &JobPolicy::serial().with_workers(4),
            Arc::new(|i: usize| i),
            |i, o: &JobOutcome<usize>| {
                assert!(o.is_ok());
                seen.push(i);
            },
        );
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 1, 3, 4, 5]);
    }

    #[test]
    fn run_policied_single_job_paths() {
        // Success.
        assert_eq!(
            run_policied(&JobPolicy::serial(), || 41 + 1),
            JobOutcome::Ok(42)
        );
        // Panic isolation with a bounded retry budget.
        static TRIES: AtomicU32 = AtomicU32::new(0);
        let policy = JobPolicy {
            retries: 1,
            backoff: Duration::from_millis(1),
            ..JobPolicy::serial()
        };
        let out: JobOutcome<u32> = run_policied(&policy, || {
            TRIES.fetch_add(1, Ordering::SeqCst);
            panic!("connection job detonates");
        });
        match out {
            JobOutcome::Panicked { message, attempts } => {
                assert!(message.contains("detonates"), "{message}");
                assert_eq!(attempts, 2);
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(TRIES.load(Ordering::SeqCst), 2);
        // Watchdog deadline.
        let policy = JobPolicy {
            timeout: Some(Duration::from_millis(20)),
            ..JobPolicy::serial()
        };
        let out: JobOutcome<()> = run_policied(&policy, || {
            std::thread::sleep(Duration::from_secs(60));
        });
        assert!(matches!(out, JobOutcome::TimedOut { .. }), "{out:?}");
    }
}
