//! Serve-mode chaos drill: a live `itesp-serve` daemon under hostile
//! load, a SIGKILL, and a SIGTERM drain — per-tenant stats must come
//! out byte-identical to an uninterrupted reference session.
//!
//! Three stages, each a separate daemon process on its own state dir.
//! The daemon is this binary re-executed with `ITESP_FIGSERVE_CHILD`
//! set, running the `itesp-serve` entry point, so the drill needs only
//! its own package built:
//!
//! 1. **Reference** — a quiet daemon serves every honest tenant once;
//!    its deterministic per-tenant stats JSON (metrics command `T`) is
//!    the reference artifact.
//! 2. **Chaos** — the same honest tenants retry through a daemon that
//!    is simultaneously fed disconnects mid-frame, slow-loris trickles,
//!    garbage, oversized frames, and a tenant whose requests panic in
//!    the shard worker (`ITESP_SERVE_CHAOS=panic-tenant=…`). Partway
//!    through, the parent SIGKILLs the daemon and restarts it on the
//!    same state dir; clients follow the new ports file. After all
//!    honest tenants complete, the daemon is drained with SIGTERM
//!    (exit 0 required) and its `T` scrape must equal the reference.
//! 3. **Recovery** — a third daemon boots from the drained state dir
//!    and must serve the reference JSON immediately, before any new
//!    request.
//!
//! Run: `cargo run --release -p itesp-bench --bin figserve [ops]`
//! Failures print an `ITESP_TEST_SEED` replay line.

use std::fs;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use itesp_bench::drill::{Drill, Kill};
use itesp_bench::{ops_from_env, print_table, save_json};
use itesp_reliability::env_seed;
use itesp_serve::chaos::ChaosMode;
use itesp_serve::client::{misbehave, run_once, run_with_retry};
use itesp_serve::protocol::{Hello, PROTOCOL_VERSION};
use itesp_serve::server::{metrics_command, read_ports};
use itesp_serve::ServeError;
use itesp_snap::SnapshotStore;
use itesp_trace::{benchmark, TraceRecord, WorkloadGen};

/// Honest tenants per session.
const TENANTS: u64 = 8;
/// The tenant whose requests the chaos daemon panics on.
const CURSED_TENANT: u64 = 99;
/// Rounds of each hostile-client mode during the chaos session.
const CHAOS_ROUNDS: usize = 3;
/// Set in the environment of the daemon children this drill spawns.
const CHILD_ENV: &str = "ITESP_FIGSERVE_CHILD";

/// The honest workload: a pure function of (seed, tenant, ops), so the
/// reference and chaos sessions submit identical requests.
fn tenant_hello(seed: u64, tenant: u64) -> Hello {
    Hello {
        version: PROTOCOL_VERSION,
        tenant,
        request_seq: 1,
        seed,
        scheme: "ITESP".into(),
        benchmark: "mcf".into(),
        working_set_mb: benchmark("mcf").expect("table IV has mcf").working_set_mb,
        fault_rate: 0.0,
    }
}

fn tenant_records(seed: u64, tenant: u64, ops: usize) -> Vec<TraceRecord> {
    let b = benchmark("mcf").expect("table IV has mcf");
    WorkloadGen::for_benchmark(b, seed ^ tenant.wrapping_mul(0x9E37_79B9))
        .take(ops)
        .collect()
}

/// Spawn a daemon (this binary as [`CHILD_ENV`]) and wait for it to
/// publish its ports.
// The returned child is owned by the caller, which always either
// SIGKILLs it (and waits) or SIGTERM-drains it via `drain_daemon`;
// clippy cannot see the `wait()` across the early return.
#[allow(clippy::zombie_processes)]
fn spawn_daemon(state_dir: &Path, drill: Drill, chaos: Option<&str>) -> (Child, u16, u16) {
    // Stale ports from a previous daemon on this dir must not be
    // mistaken for the new daemon's.
    let _ = fs::remove_file(state_dir.join("ports"));
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.env(CHILD_ENV, "1")
        .env("ITESP_SERVE_STATE", state_dir)
        .env("ITESP_SERVE_SHARDS", "4")
        .env("ITESP_SERVE_QUEUE", "4")
        .env("ITESP_SERVE_SNAP_EVERY", "1")
        .env("ITESP_SERVE_READ_TIMEOUT_MS", "1000")
        .env_remove("ITESP_SERVE_CHAOS")
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(directives) = chaos {
        cmd.env("ITESP_SERVE_CHAOS", directives);
    }
    let mut child = cmd.spawn().expect("spawn daemon child");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(ports) = read_ports(state_dir) {
            return (child, ports.0, ports.1);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon never published ports ({drill})");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// SIGTERM-drain a daemon and require a clean exit.
fn drain_daemon(mut child: Child, drill: Drill) {
    let status = Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM failed ({drill})");
    let code = child.wait().expect("reap daemon");
    assert!(
        code.success(),
        "drained daemon must exit 0, got {code:?} ({drill})"
    );
}

/// Scrape the deterministic per-tenant stats (`T`) from a metrics port.
fn scrape_tenants(metrics: u16, drill: Drill) -> String {
    metrics_command(SocketAddr::from(([127, 0, 0, 1], metrics)), b'T')
        .unwrap_or_else(|e| panic!("metrics scrape failed: {e} ({drill})"))
}

/// Run every honest tenant against the daemon behind `state_dir`,
/// retrying across Busy rejections and daemon restarts.
fn run_honest_tenants(state_dir: &Path, drill: Drill, ops: usize) -> usize {
    let seed = drill.seed;
    let handles: Vec<_> = (1..=TENANTS)
        .map(|tenant| {
            let dir = state_dir.to_path_buf();
            std::thread::spawn(move || {
                run_with_retry(
                    &dir,
                    &tenant_hello(seed, tenant),
                    &tenant_records(seed, tenant, ops),
                    12,
                    Duration::from_millis(25),
                )
            })
        })
        .collect();
    let mut completed = 0;
    for (tenant, h) in (1..=TENANTS).zip(handles) {
        h.join()
            .expect("tenant thread")
            .unwrap_or_else(|e| panic!("tenant {tenant} failed: {e} ({drill})"));
        completed += 1;
    }
    completed
}

/// The hostile side of the chaos session: ill-behaved clients plus the
/// cursed tenant, tolerant of the daemon restarting underneath them.
fn chaos_clients(
    state_dir: &Path,
    seed: u64,
    ops: usize,
    rounds: usize,
    stop: &AtomicBool,
) -> (usize, usize) {
    let mut hostile_runs = 0;
    let mut cursed_panics = 0;
    let recs = tenant_records(seed, CURSED_TENANT, ops.min(64));
    for _ in 0..rounds {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok((traffic, _)) = read_ports(state_dir) else {
            // Restart window: no ports published right now.
            std::thread::sleep(Duration::from_millis(25));
            continue;
        };
        let addr = SocketAddr::from(([127, 0, 0, 1], traffic));
        for mode in [
            ChaosMode::Garbage,
            ChaosMode::Oversized,
            ChaosMode::DisconnectMidFrame,
            ChaosMode::SlowLoris,
        ] {
            if misbehave(addr, mode, &tenant_hello(seed, CURSED_TENANT), &recs).is_ok() {
                hostile_runs += 1;
            }
        }
        // The cursed tenant: a worker panic the daemon must survive.
        // Busy, draining, or a restart mid-request are all fine — the
        // drill only requires the daemon to stay coherent.
        if let Err(ServeError::WorkerPanicked { .. }) =
            run_once(addr, &tenant_hello(seed, CURSED_TENANT), &recs)
        {
            cursed_panics += 1;
        }
    }
    (hostile_runs, cursed_panics)
}

fn main() {
    if std::env::var_os(CHILD_ENV).is_some() {
        itesp_serve::daemon::main();
    }
    let seed = env_seed(0x005E_127E);
    // Per-tenant trace length: the batch default is a campaign-scale
    // count; each of the 8 tenants runs a slice of it.
    let ops = (ops_from_env() / TENANTS as usize).clamp(200, 50_000);
    let drill = Drill::new("figserve", seed);

    // Stage 1: reference session, no chaos.
    eprintln!("[figserve: reference session, {TENANTS} tenants x {ops} ops, seed {seed}]");
    let ref_dir = drill.scratch("ref");
    let (ref_daemon, _, ref_metrics) = spawn_daemon(&ref_dir, drill, None);
    run_honest_tenants(&ref_dir, drill, ops);
    let reference = scrape_tenants(ref_metrics, drill);
    drain_daemon(ref_daemon, drill);
    let _ = fs::remove_dir_all(&ref_dir);

    // Stage 2: chaos session — hostile clients, a worker-panic tenant,
    // and a SIGKILL + restart in the middle of honest traffic.
    eprintln!("[figserve: chaos session — hostile clients + SIGKILL + restart]");
    let chaos_dir = drill.scratch("chaos");
    let directives = format!("panic-tenant={CURSED_TENANT}");
    let (mut daemon, _, _) = spawn_daemon(&chaos_dir, drill, Some(&directives));

    // One synchronous hostile round first: every misbehavior mode plus
    // the worker panic must land while the daemon is provably alive.
    let (pre_hostile, pre_panics) =
        chaos_clients(&chaos_dir, seed, ops, 1, &AtomicBool::new(false));
    assert!(
        pre_panics >= 1,
        "the cursed tenant must observe a typed WorkerPanicked reply ({drill})"
    );

    let stop = Arc::new(AtomicBool::new(false));
    let chaos_handle = {
        let dir = chaos_dir.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || chaos_clients(&dir, seed, ops, CHAOS_ROUNDS, &stop))
    };
    let honest_handle = {
        let dir = chaos_dir.clone();
        std::thread::spawn(move || run_honest_tenants(&dir, drill, ops))
    };

    // SIGKILL once the daemon has durably snapshotted at least two
    // completions (the WAL head seq counts every commit, even after
    // compaction), then restart it on the same state dir.
    let store = SnapshotStore::open(chaos_dir.join("snaps")).expect("open serve store");
    let kill = drill.kill_when(&mut daemon, "two snapshots committed", || {
        store.wal_head().ok().flatten().map_or(0, |r| r.seq) >= 2
    });
    assert_eq!(kill, Kill::Killed, "chaos daemon died on its own ({drill})");
    eprintln!("[figserve: SIGKILL delivered — restarting daemon on the same state dir]");
    let (daemon, _, chaos_metrics) = spawn_daemon(&chaos_dir, drill, Some(&directives));

    let honest_completed = honest_handle.join().expect("honest client thread");
    stop.store(true, Ordering::Relaxed);
    let (bg_hostile, bg_panics) = chaos_handle.join().expect("chaos client thread");
    let (hostile_runs, cursed_panics) = (pre_hostile + bg_hostile, pre_panics + bg_panics);

    let chaos_scrape = scrape_tenants(chaos_metrics, drill);
    assert_eq!(
        chaos_scrape, reference,
        "chaos-session tenant stats diverged from the reference ({drill})"
    );
    drain_daemon(daemon, drill);

    // Stage 3: a fresh daemon recovers the drained state and serves the
    // reference JSON before any new request arrives.
    eprintln!("[figserve: recovery session — restart from the drained state dir]");
    let (daemon, _, rec_metrics) = spawn_daemon(&chaos_dir, drill, None);
    let recovered = scrape_tenants(rec_metrics, drill);
    assert_eq!(
        recovered, reference,
        "recovered tenant stats diverged from the reference ({drill})"
    );
    drain_daemon(daemon, drill);
    let _ = fs::remove_dir_all(&chaos_dir);

    // The JSON keeps only what the seed and ops fix. The hostile-run and
    // worker-panic totals include the background chaos rounds, whose
    // number depends on thread timing, so only the table prints them.
    #[derive(serde::Serialize)]
    struct Row {
        seed: u64,
        tenants: u64,
        ops_per_tenant: usize,
        honest_completed: usize,
        sigkill_delivered: bool,
        chaos_identical: bool,
        recovered_identical: bool,
    }
    let rows = vec![Row {
        seed,
        tenants: TENANTS,
        ops_per_tenant: ops,
        honest_completed,
        sigkill_delivered: true,
        chaos_identical: true,
        recovered_identical: true,
    }];
    print_table(
        &[
            "tenants",
            "ops/tenant",
            "honest ok",
            "hostile runs",
            "worker panics",
            "sigkill",
            "identical",
        ],
        &[vec![
            TENANTS.to_string(),
            ops.to_string(),
            honest_completed.to_string(),
            hostile_runs.to_string(),
            cursed_panics.to_string(),
            "true".to_owned(),
            "yes".to_owned(),
        ]],
    );
    save_json("figserve", &rows);
    println!(
        "figserve: {honest_completed}/{TENANTS} honest tenants byte-identical through \
         chaos, SIGKILL, and drain-restart."
    );
}
