//! Shared harness for the serve integration tests: boot a daemon
//! in-process, talk to it over real sockets, drain it cleanly.
#![allow(dead_code)] // each test binary uses a different subset

use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Duration;

use itesp_serve::client::CHUNK_RECORDS;
use itesp_serve::protocol::{Hello, PROTOCOL_VERSION};
use itesp_serve::server::metrics_command;
use itesp_serve::{Server, ServerConfig};
use itesp_trace::{benchmark, TraceRecord, WorkloadGen};

/// A fresh scratch state directory (removed on [`TestDaemon::drain`]).
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itesp-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A config tuned for fast tests: short read deadline, snapshot on
/// every completion.
pub fn test_config(state_dir: PathBuf, shards: usize, queue_depth: usize) -> ServerConfig {
    let mut cfg = ServerConfig::new(state_dir);
    cfg.shards = shards;
    cfg.queue_depth = queue_depth;
    cfg.snap_every = 1;
    cfg.read_timeout = Duration::from_millis(500);
    cfg
}

/// A daemon running on its own thread, bound to ephemeral ports.
pub struct TestDaemon {
    pub traffic: SocketAddr,
    pub metrics: SocketAddr,
    pub state_dir: PathBuf,
    handle: JoinHandle<Result<(), itesp_serve::ServeError>>,
}

impl TestDaemon {
    /// Boot with [`test_config`].
    pub fn start(state_dir: PathBuf, shards: usize, queue_depth: usize) -> TestDaemon {
        TestDaemon::boot(test_config(state_dir, shards, queue_depth))
    }

    /// Boot with `cfg`.
    pub fn boot(cfg: ServerConfig) -> TestDaemon {
        let state_dir = cfg.state_dir.clone();
        let server = Server::start(cfg).expect("daemon start");
        let traffic = server.traffic_addr();
        let metrics = server.metrics_addr();
        let handle = std::thread::spawn(move || server.run());
        TestDaemon {
            traffic,
            metrics,
            state_dir,
            handle,
        }
    }

    /// Scrape the deterministic per-tenant stats JSON (`T`).
    pub fn tenants_json(&self) -> String {
        metrics_command(self.metrics, b'T').expect("metrics T")
    }

    /// Liveness probe (`P`).
    pub fn alive(&self) -> bool {
        matches!(metrics_command(self.metrics, b'P'), Ok(s) if s == "ok\n")
    }

    /// Trigger a drain (`D`) and wait for the daemon to exit cleanly.
    pub fn drain(self) {
        let _ = metrics_command(self.metrics, b'D');
        self.handle
            .join()
            .expect("daemon thread")
            .expect("clean drain");
    }
}

/// A well-formed Hello for `tenant`, scheme ITESP unless overridden.
pub fn hello(tenant: u64, scheme: &str) -> Hello {
    Hello {
        version: PROTOCOL_VERSION,
        tenant,
        request_seq: 1,
        seed: 7,
        scheme: scheme.into(),
        benchmark: "mcf".into(),
        working_set_mb: benchmark("mcf").unwrap().working_set_mb,
        fault_rate: 0.0,
    }
}

/// Deterministic per-tenant trace: each tenant streams different bytes.
pub fn records(tenant: u64, ops: usize) -> Vec<TraceRecord> {
    let b = benchmark("mcf").unwrap();
    WorkloadGen::for_benchmark(b, 0xC0FFEE ^ tenant)
        .take(ops)
        .collect()
}

/// Enough records to span several frames (exercises chunk reassembly).
pub fn multi_frame_ops() -> usize {
    2 * CHUNK_RECORDS + 17
}
