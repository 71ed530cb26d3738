//! `serve-open`: tenant requests on a fixed open-loop schedule against
//! an in-process `itesp-serve` server with two shards.
//!
//! The only workload that exercises transport, admission, the registry
//! and registry snapshots. Requests are built before timing; two client
//! threads send them, one connection each at a time, and every latency
//! is counted from the moment the schedule said the request was due.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use itesp_serve::client::run_once;
use itesp_serve::protocol::{Hello, PROTOCOL_VERSION};
use itesp_serve::server::metrics_command;
use itesp_serve::{
    run_tenant, Registry, ServeError, Server, ServerConfig, TenantRequest, TenantStats,
};
use itesp_snap::SnapshotStore;
use itesp_trace::{benchmark, TraceRecord, WorkloadGen};

use crate::span::Tracer;
use crate::stats::{good_requests, median, ms, tail, Outcome, Sample};
use crate::{Ctx, Layers, Measured, SetupTimes, Workload};

const SHARDS: usize = 2;
/// Tenants, spread evenly over the shards (shard = tenant % shards).
const TENANTS: u64 = 16;
/// Trace records per request.
const RECORDS: usize = 2_000;
/// Scheduled arrivals per second. Two connections carry the load, and a
/// request stalled in transport holds one for ~50 ms; at this rate they
/// stay under half busy even when the host runs at half speed, so the
/// generator does not become the queue it is measuring.
const RATE_PER_S: f64 = 20.0;
/// Client threads; each holds at most one connection at a time.
const CLIENTS: usize = 2;
/// Goodput latency limit: three times the median in-process
/// `run_tenant` time of one request (about 10 ms on a 2-core x86-64
/// host).
const LIMIT_MS: f64 = 30.0;
/// Requests sent before the schedule starts, one per shard, on tenants
/// of their own.
const WARMUP: u64 = SHARDS as u64;
/// Repeats of the direct registry-snapshot timing.
const REGISTRY_PROBES: usize = 5;

pub struct ServeOpen;

pub struct Run {
    samples: Vec<Sample>,
    /// In-process `run_tenant` time of each request, ms.
    compute_ms: Vec<f64>,
    stats: Vec<TenantStats>,
    admitted: u64,
    busy: u64,
    state_dir: PathBuf,
}

fn hello(seed: u64, tenant: u64, request_seq: u64) -> Hello {
    Hello {
        version: PROTOCOL_VERSION,
        tenant,
        request_seq,
        seed,
        scheme: "ITESP".into(),
        benchmark: "mcf".into(),
        working_set_mb: benchmark("mcf").expect("Table IV benchmark").working_set_mb,
        fault_rate: 0.0,
    }
}

fn records(seed: u64, stream: u64) -> Vec<TraceRecord> {
    let mcf = benchmark("mcf").expect("Table IV benchmark");
    WorkloadGen::for_benchmark(mcf, seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .take(RECORDS)
        .collect()
}

fn requests_for(seconds: u64) -> usize {
    (RATE_PER_S * seconds as f64).round() as usize
}

fn config(dir: &Path) -> ServerConfig {
    let mut cfg = ServerConfig::new(dir);
    cfg.shards = SHARDS;
    cfg
}

/// Warm up every shard with an empty request. A request with records
/// ends in a small `End` write that can wait ~40 ms on a delayed ACK
/// (see `serve.overhead_ms_tail`); an empty one cannot, so set-up time
/// does not swing with whether the warm-up hit that stall.
fn warm_up(addr: SocketAddr, seed: u64) -> Result<(), ServeError> {
    for k in 0..WARMUP {
        run_once(addr, &hello(seed, TENANTS + k, 1), &[])?;
    }
    Ok(())
}

/// Drain the server through its metrics port and wait for it to exit.
fn shut_down(metrics: SocketAddr) -> Result<(), ServeError> {
    metrics_command(metrics, b'D').map(|_| ())
}

/// `(admitted, busy)` from the server's operational counters.
fn counters(metrics: SocketAddr) -> Result<(u64, u64), String> {
    let body = metrics_command(metrics, b'A').map_err(|e| e.to_string())?;
    let doc = serde_json::from_str(&body).map_err(|e| e.to_string())?;
    let get = |k| {
        doc.field("counters")
            .and_then(|c| c.field(k))
            .and_then(|v| v.as_u64())
    };
    Ok((get("admitted")?, get("busy_rejects")?))
}

impl Workload for ServeOpen {
    type Inputs = Vec<TenantRequest>;
    type Run = Run;

    fn setup(ctx: &Ctx, times: &mut SetupTimes) -> Vec<TenantRequest> {
        let t0 = Instant::now();
        let requests = (0..requests_for(ctx.seconds) as u64)
            .map(|i| TenantRequest {
                hello: hello(ctx.seed, i % TENANTS, i / TENANTS + 1),
                records: records(ctx.seed, i),
            })
            .collect();
        times.gen_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let server = Server::start(config(&ctx.scratch("serve-setup"))).expect("start server");
        let (addr, metrics) = (server.traffic_addr(), server.metrics_addr());
        times.build_s = t0.elapsed().as_secs_f64();
        std::thread::scope(|s| {
            let serving = s.spawn(|| server.run());
            let t0 = Instant::now();
            warm_up(addr, ctx.seed).expect("warm-up requests");
            times.warm_s = t0.elapsed().as_secs_f64();
            shut_down(metrics).expect("drain command");
            serving
                .join()
                .expect("server thread")
                .expect("server drained");
        });
        requests
    }

    fn measure(ctx: &Ctx, requests: &Self::Inputs, tr: &mut Tracer) -> (Measured, Run) {
        let state_dir = ctx.scratch("serve");
        let server = tr
            .span("serve.start", |_| Server::start(config(&state_dir)))
            .expect("start server");
        let (addr, metrics) = (server.traffic_addr(), server.metrics_addr());
        let n = requests.len();
        let mut replies: Vec<Option<Result<String, ServeError>>> = (0..n).map(|_| None).collect();
        let mut samples: Vec<Option<Sample>> = vec![None; n];
        let mut forks: Vec<Tracer> = (0..CLIENTS).map(|_| tr.fork()).collect();
        let next = AtomicUsize::new(0);
        let (admitted, busy) = std::thread::scope(|s| {
            let serving = s.spawn(|| server.run());
            warm_up(addr, ctx.seed).expect("warm-up requests");
            // The schedule starts a little after the clients are spawned.
            let start = Instant::now() + Duration::from_millis(20);
            let clients: Vec<_> = forks
                .iter_mut()
                .map(|ctr| {
                    let next = &next;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let due = start + Duration::from_secs_f64(i as f64 / RATE_PER_S);
                            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            let sent = Instant::now();
                            let req = &requests[i];
                            let reply = ctr.span_for("serve.request", Some(i as u64), |_| {
                                run_once(addr, &req.hello, &req.records)
                            });
                            let done = Instant::now();
                            let outcome = match &reply {
                                Ok(_) => Outcome::Ok,
                                Err(ServeError::Busy) => Outcome::Busy,
                                Err(_) => Outcome::Failed,
                            };
                            let sample = Sample {
                                due,
                                sent,
                                done,
                                outcome,
                            };
                            mine.push((i, sample, reply.map(|r| r.stats_json)));
                        }
                        mine
                    })
                })
                .collect();
            for c in clients {
                for (i, sample, reply) in c.join().expect("client thread") {
                    samples[i] = Some(sample);
                    replies[i] = Some(reply);
                }
            }
            let counted = counters(metrics).expect("server counters");
            shut_down(metrics).expect("drain command");
            serving
                .join()
                .expect("server thread")
                .expect("server drained");
            counted
        });
        for f in forks {
            tr.merge(f);
        }
        let mut outcomes: Vec<Sample> = samples
            .into_iter()
            .map(|s| s.expect("every request sent"))
            .collect();

        // Outside the schedule: recompute every request in process and
        // require byte-identical results.
        let mut m = Measured::default();
        let mut compute_ms = Vec::with_capacity(n);
        let mut stats = Vec::with_capacity(n);
        for (i, (req, reply)) in requests.iter().zip(replies).enumerate() {
            m.attempted += 1;
            let t0 = Instant::now();
            let want = tr
                .span("serve.compute", |_| run_tenant(req))
                .expect("run_tenant");
            compute_ms.push(ms(t0.elapsed()));
            let json = serde_json::to_string_pretty(&want).expect("stats serialize");
            let ok = tr.span("check", |_| matches!(&reply, Some(Ok(got)) if *got == json));
            if !ok {
                eprintln!("check failed: request {i}: reply {reply:?} differs from run_tenant");
                m.failed += 1;
                if outcomes[i].outcome == Outcome::Ok {
                    outcomes[i].outcome = Outcome::Failed;
                }
            }
            stats.push(want);
        }
        let latencies: Vec<f64> = outcomes.iter().map(Sample::latency_ms).collect();
        let first = outcomes.iter().map(|s| s.due).min().expect("requests");
        let last = outcomes.iter().map(|s| s.done).max().expect("requests");
        m.ops_per_s = good_requests(&outcomes, LIMIT_MS) as f64 / (last - first).as_secs_f64();
        m.busy_s = latencies.iter().sum::<f64>() / 1e3;
        m.op_ms = latencies;
        let run = Run {
            samples: outcomes,
            compute_ms,
            stats,
            admitted: admitted - WARMUP,
            busy,
            state_dir,
        };
        (m, run)
    }

    fn layers(
        ctx: &Ctx,
        requests: &Self::Inputs,
        run: &Run,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        out.set(
            "trace.records",
            requests.iter().map(|r| r.records.len()).sum::<usize>() as f64,
        );
        out.set("serve.limit_ms", LIMIT_MS);
        out.set("serve.compute_ms_p50", median(&run.compute_ms));
        let overhead: Vec<f64> = run
            .samples
            .iter()
            .zip(&run.compute_ms)
            .map(|(s, c)| s.latency_ms() - c)
            .collect();
        out.set("serve.overhead_ms_p50", median(&overhead));
        out.set("serve.overhead_ms_tail", tail(&overhead).1);
        let late = run.samples.iter().map(Sample::late_ms).fold(0.0, f64::max);
        out.set("serve.late_ms_max", late);
        out.set("serve.admitted", run.admitted as f64);
        out.set("serve.busy", run.busy as f64);

        let slowdowns: Vec<f64> = run.stats.iter().map(|s| s.slowdown).collect();
        out.set("sim.slowdown_itesp", crate::stats::geomean(&slowdowns));
        let sum = |f: fn(&TenantStats) -> u64| run.stats.iter().map(f).sum::<u64>();
        let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let meta: f64 = run
            .stats
            .iter()
            .map(|s| s.meta_per_access * s.records as f64)
            .sum();
        out.set("core.meta_per_access", meta / sum(|s| s.records) as f64);
        out.set(
            "core.metadata_cache_hit_rate",
            share(
                sum(|s| s.metadata_cache_hits),
                sum(|s| s.metadata_cache_accesses),
            ),
        );
        out.set(
            "core.parity_cache_hit_rate",
            share(
                sum(|s| s.parity_cache_hits),
                sum(|s| s.parity_cache_accesses),
            ),
        );

        // The registry snapshots the server committed while serving.
        let store = SnapshotStore::open(run.state_dir.join("snaps")).map_err(|e| e.to_string())?;
        let head = store.wal_head().map_err(|e| e.to_string())?;
        out.set("snap.commits", head.map_or(0, |h| h.seq) as f64);
        let (_, payload, _) = store.load_latest_good().map_err(|e| e.to_string())?;
        out.set("snap.bytes_per_commit", payload.len() as f64);

        // Direct timing of one registry snapshot holding every result.
        let registry = Registry::new();
        for s in &run.stats {
            registry.complete(s.clone());
        }
        let probe =
            SnapshotStore::open(ctx.scratch("registry-probe")).map_err(|e| e.to_string())?;
        let mut times = Vec::new();
        for _ in 0..REGISTRY_PROBES {
            let t0 = Instant::now();
            tr.span("snap.registry", |_| registry.snapshot_to(&probe))
                .map_err(|e| e.to_string())?;
            times.push(ms(t0.elapsed()));
        }
        out.set("snap.registry_ms", median(&times));
        Ok(())
    }
}
