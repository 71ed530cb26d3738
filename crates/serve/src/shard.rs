//! Sharded engine workers with bounded queues and panic isolation.
//!
//! Tenants hash to shards (`tenant % shards`), each shard is one
//! worker thread draining a bounded queue, and every job runs once
//! under [`itesp_orchestrate::run_policied`] — the same panic isolation
//! and watchdog deadline the batch campaigns use. A panicking
//! simulation (injected by the chaos harness, or a real bug) is caught
//! there, surfaces as a typed outcome to exactly one client, and the
//! shard keeps serving.
//!
//! Admission control and backpressure are both the `pending` counter:
//! a connection must win a reservation (`try_admit`) *before* the
//! daemon reads its trace stream, and a full shard answers `Busy`
//! immediately — the socket of an unadmitted client is never read
//! further, which is the backpressure.
//!
//! Workers — not connection handlers — write completions into the
//! [`Registry`] and drop the reservation, so "all reservations
//! released" implies "registry fully up to date": the invariant the
//! SIGTERM drain snapshot relies on. The client connection may be long
//! gone by then; the result still lands in the registry, and the
//! tenant's retry after reconnecting recomputes byte-identical stats.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SendError, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use itesp_orchestrate::{run_policied, JobOutcome};
use itesp_snap::SnapshotStore;

use crate::registry::Registry;
use crate::tenant::{run_tenant, TenantRequest, TenantStats};

use crate::error::ServeError;

/// What a connection handler gets back for one submitted request.
pub type Outcome = JobOutcome<Result<TenantStats, ServeError>>;

struct Job {
    req: TenantRequest,
    reply: mpsc::Sender<Outcome>,
}

struct Shard {
    tx: SyncSender<Job>,
    /// Reservations outstanding: admitted, queued, or running.
    pending: Arc<AtomicUsize>,
}

/// The daemon's worker pool.
pub struct ShardPool {
    shards: Vec<Shard>,
    capacity: usize,
}

impl ShardPool {
    /// Spawn `shards` workers, each admitting at most `queue_depth`
    /// outstanding requests and running each under a `job_timeout`
    /// deadline; both counts must be nonzero. Completions land in
    /// `registry`; every `snap_every` completions the registry is
    /// snapshotted to `store` (when present). Requests from
    /// `panic_tenant` panic in the worker instead of running (the chaos
    /// drill's injected fault).
    pub fn spawn(
        shards: usize,
        queue_depth: usize,
        job_timeout: Duration,
        registry: Arc<Registry>,
        store: Option<Arc<Mutex<SnapshotStore>>>,
        snap_every: u64,
        panic_tenant: Option<u64>,
    ) -> Self {
        let built = (0..shards)
            .map(|i| {
                let (tx, rx) = mpsc::sync_channel::<Job>(queue_depth);
                let pending = Arc::new(AtomicUsize::new(0));
                let worker_pending = Arc::clone(&pending);
                let registry = Arc::clone(&registry);
                let store = store.clone();
                thread::Builder::new()
                    .name(format!("itesp-shard-{i}"))
                    .spawn(move || {
                        worker_loop(
                            rx,
                            job_timeout,
                            registry,
                            store,
                            snap_every,
                            panic_tenant,
                            worker_pending,
                        )
                    })
                    .expect("spawn shard worker");
                Shard { tx, pending }
            })
            .collect();
        ShardPool {
            shards: built,
            capacity: queue_depth,
        }
    }

    /// Which shard serves a tenant.
    pub fn shard_of(&self, tenant: u64) -> usize {
        (tenant % self.shards.len() as u64) as usize
    }

    /// Reserve a slot on the tenant's shard, or report `Busy`. The
    /// returned token releases the reservation when dropped unarmed
    /// (the connection died before `End`), or hands it to the worker
    /// on [`AdmitToken::submit`].
    pub fn try_admit(&self, tenant: u64) -> Result<AdmitToken<'_>, ServeError> {
        let shard = &self.shards[self.shard_of(tenant)];
        let admitted = shard
            .pending
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| {
                (p < self.capacity).then_some(p + 1)
            })
            .is_ok();
        if !admitted {
            return Err(ServeError::Busy);
        }
        Ok(AdmitToken { shard, armed: true })
    }

    /// Reservations outstanding across all shards (0 = fully drained).
    pub fn pending_total(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.pending.load(Ordering::Acquire))
            .sum()
    }

    /// Point-in-time load gauges, one per shard. `in_flight` is the
    /// shard's reservation count (admitted, queued, or running) and
    /// `queue_depth` its admission bound, so `in_flight == queue_depth`
    /// is the shard answering `Busy`. Operational telemetry for the
    /// metrics port — deliberately *not* part of the deterministic `T`
    /// report, since a gauge depends on when you look.
    pub fn gauges(&self) -> Vec<ShardGauge> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardGauge {
                shard,
                in_flight: s.pending.load(Ordering::Acquire),
                queue_depth: self.capacity,
            })
            .collect()
    }
}

/// One shard's load at a point in time (see [`ShardPool::gauges`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct ShardGauge {
    pub shard: usize,
    /// Reservations outstanding: admitted, queued, or running.
    pub in_flight: usize,
    /// Admission bound (reservations at which the shard goes `Busy`).
    pub queue_depth: usize,
}

/// A won admission reservation, tied to one shard.
pub struct AdmitToken<'a> {
    shard: &'a Shard,
    armed: bool,
}

impl AdmitToken<'_> {
    /// Hand the request to the shard worker. The reservation now
    /// belongs to the worker, which releases it after the completion
    /// is registered. Returns the channel the outcome arrives on.
    ///
    /// The send never waits: the channel holds `queue_depth` jobs, a
    /// queued job holds one of at most `queue_depth` reservations, and
    /// the worker releases a reservation only after its job has left
    /// the channel, so the channel is never full.
    pub fn submit(mut self, req: TenantRequest) -> Receiver<Outcome> {
        let (reply, outcome_rx) = mpsc::channel();
        self.armed = false;
        if let Err(SendError(job)) = self.shard.tx.send(Job { req, reply }) {
            // Worker gone (only during teardown): report as a panic
            // outcome so the client sees a typed error.
            self.shard.pending.fetch_sub(1, Ordering::AcqRel);
            let _ = job.reply.send(JobOutcome::Panicked {
                message: "shard worker unavailable".into(),
            });
        }
        outcome_rx
    }
}

impl Drop for AdmitToken<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.shard.pending.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

fn worker_loop(
    rx: mpsc::Receiver<Job>,
    job_timeout: Duration,
    registry: Arc<Registry>,
    store: Option<Arc<Mutex<SnapshotStore>>>,
    snap_every: u64,
    panic_tenant: Option<u64>,
    pending: Arc<AtomicUsize>,
) {
    while let Ok(job) = rx.recv() {
        let req = job.req;
        let outcome: Outcome = run_policied(Some(job_timeout), move || {
            let tenant = req.hello.tenant;
            if panic_tenant == Some(tenant) {
                panic!("chaos: injected worker panic for tenant {tenant}");
            }
            run_tenant(&req)
        });
        match &outcome {
            JobOutcome::Ok(Ok(stats)) => {
                registry.complete(stats.clone());
                if let Some(store) = &store {
                    if snap_every > 0 && registry.completed().is_multiple_of(snap_every) {
                        let store = store.lock().expect("snapshot store lock");
                        if let Err(e) = registry.snapshot_to(&store) {
                            eprintln!("[serve: periodic snapshot failed: {e}]");
                        }
                    }
                }
            }
            JobOutcome::Ok(Err(_)) => {}
            JobOutcome::Panicked { .. } => registry.count_worker_panic(),
            JobOutcome::TimedOut { .. } => registry.count_timeout(),
        }
        // Release the reservation only after the registry is updated
        // (the drain path treats pending == 0 as "stats are final"),
        // and before the reply, so a caller woken by `recv` observes
        // both the registry write and the freed slot.
        pending.fetch_sub(1, Ordering::AcqRel);
        let _ = job.reply.send(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Hello, PROTOCOL_VERSION};
    use itesp_trace::{benchmark, TraceRecord, WorkloadGen};

    const TIMEOUT: Duration = Duration::from_secs(120);

    fn request(tenant: u64, ops: usize) -> TenantRequest {
        let b = benchmark("mcf").unwrap();
        let records: Vec<TraceRecord> = WorkloadGen::for_benchmark(b, tenant).take(ops).collect();
        TenantRequest {
            hello: Hello {
                version: PROTOCOL_VERSION,
                tenant,
                request_seq: 1,
                seed: tenant,
                scheme: "ITESP".into(),
                benchmark: "mcf".into(),
                working_set_mb: b.working_set_mb,
                fault_rate: 0.0,
            },
            records,
        }
    }

    #[test]
    fn admission_bounds_and_busy_rejection() {
        let registry = Arc::new(Registry::new());
        let pool = ShardPool::spawn(1, 2, TIMEOUT, registry, None, 0, None);
        let t1 = pool.try_admit(1).unwrap();
        let _t2 = pool.try_admit(1).unwrap();
        assert!(matches!(pool.try_admit(1), Err(ServeError::Busy)));
        // Dropping an unarmed token releases the slot.
        drop(t1);
        assert!(pool.try_admit(1).is_ok());
    }

    #[test]
    fn gauges_track_reservations_per_shard() {
        let registry = Arc::new(Registry::new());
        let pool = ShardPool::spawn(2, 3, TIMEOUT, registry, None, 0, None);
        assert_eq!(
            pool.gauges(),
            vec![
                ShardGauge {
                    shard: 0,
                    in_flight: 0,
                    queue_depth: 3
                },
                ShardGauge {
                    shard: 1,
                    in_flight: 0,
                    queue_depth: 3
                },
            ]
        );
        // Tenant 1 hashes to shard 1; its reservations show up there.
        let t1 = pool.try_admit(1).unwrap();
        let _t2 = pool.try_admit(1).unwrap();
        let g = pool.gauges();
        assert_eq!(g[0].in_flight, 0);
        assert_eq!(g[1].in_flight, 2);
        drop(t1);
        assert_eq!(pool.gauges()[1].in_flight, 1);
    }

    #[test]
    fn jobs_complete_into_the_registry() {
        let registry = Arc::new(Registry::new());
        let pool = ShardPool::spawn(2, 4, TIMEOUT, Arc::clone(&registry), None, 0, None);
        let rx = pool.try_admit(5).unwrap().submit(request(5, 200));
        let outcome = rx.recv().unwrap();
        let JobOutcome::Ok(Ok(stats)) = outcome else {
            panic!("job failed: {outcome:?}");
        };
        assert_eq!(stats.tenant, 5);
        assert_eq!(registry.completed(), 1);
        // Reservation released only after registration.
        assert_eq!(pool.pending_total(), 0);
    }

    #[test]
    fn a_busy_shard_takes_queue_depth_submissions_without_waiting() {
        const DEPTH: usize = 3;
        let dir = std::env::temp_dir().join(format!("itesp-shard-submit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Mutex::new(SnapshotStore::open(&dir).unwrap()));
        let registry = Arc::new(Registry::new());
        let pool = ShardPool::spawn(
            1,
            DEPTH,
            TIMEOUT,
            Arc::clone(&registry),
            Some(Arc::clone(&store)),
            1,
            None,
        );
        // While the test holds the store, the worker blocks in the
        // snapshot after its first job, still holding every reservation.
        let held = store.lock().unwrap();
        let tokens: Vec<_> = (0..DEPTH as u64)
            .map(|tenant| (tenant, pool.try_admit(tenant).unwrap()))
            .collect();
        assert!(matches!(pool.try_admit(9), Err(ServeError::Busy)));
        let outcomes: Vec<_> = tokens
            .into_iter()
            .map(|(tenant, token)| token.submit(request(tenant, 50)))
            .collect();
        // Every submit returned while the worker could finish none.
        assert_eq!(pool.pending_total(), DEPTH);
        assert!(outcomes.iter().all(|rx| rx.try_recv().is_err()));
        drop(held);
        for rx in outcomes {
            let outcome = rx.recv();
            assert!(matches!(outcome, Ok(JobOutcome::Ok(Ok(_)))), "{outcome:?}");
        }
        assert_eq!(registry.completed(), DEPTH as u64);
        assert_eq!(pool.pending_total(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_panic_tenant_panics_in_the_worker_alone() {
        let registry = Arc::new(Registry::new());
        let pool = ShardPool::spawn(1, 2, TIMEOUT, Arc::clone(&registry), None, 0, Some(5));
        let outcome = pool.try_admit(5).unwrap().submit(request(5, 50)).recv();
        assert!(
            matches!(outcome, Ok(JobOutcome::Panicked { .. })),
            "{outcome:?}"
        );
        // The same worker still serves every other tenant.
        let outcome = pool.try_admit(6).unwrap().submit(request(6, 50)).recv();
        assert!(matches!(outcome, Ok(JobOutcome::Ok(Ok(_)))), "{outcome:?}");
        assert_eq!(registry.completed(), 1);
        assert_eq!(pool.pending_total(), 0);
    }

    #[test]
    fn tenants_land_on_stable_shards() {
        let registry = Arc::new(Registry::new());
        let pool = ShardPool::spawn(3, 1, TIMEOUT, registry, None, 0, None);
        assert_eq!(pool.shard_of(0), 0);
        assert_eq!(pool.shard_of(7), 1);
        assert_eq!(pool.shard_of(8), 2);
        assert_eq!(pool.shard_of(7), pool.shard_of(7));
    }
}
