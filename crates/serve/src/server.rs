//! The daemon: acceptors, admission control, drain, metrics.
//!
//! Two listeners on ephemeral loopback ports, published atomically in
//! a `ports` file under the state directory (ports change across
//! restarts; clients re-read the file per retry attempt):
//!
//! * **traffic** — `ITSV` framed requests, one request per connection.
//! * **metrics** — single-byte commands: `T` returns the deterministic
//!   per-tenant stats JSON (the byte-identity artifact), `A` the full
//!   view including operational counters, `S` the per-shard queue-depth
//!   and in-flight gauges, `D` triggers a drain, `P` answers `ok`
//!   (liveness).
//!
//! ## Accepting
//!
//! Each listener has an acceptor thread of its own that blocks in
//! `accept` and hands every connection to a handler thread, so a new
//! connection is picked up the moment it arrives: no request waits on
//! a timer. Every accepted traffic stream, and every client stream,
//! sets `TCP_NODELAY` before its first read. A request ends with small
//! writes (the client's `End` frame after its `Records`, the daemon's
//! reply), and with Nagle's algorithm on, such a write can wait for
//! the peer's delayed ACK, about 40 ms.
//!
//! An acceptor stops when its stop flag is set and one connection
//! arrives after it: [`Server::run`] sets the flag and connects once to
//! the listener's own address. The main thread of `run` sleeps until
//! `D` (the metrics handler wakes it), an acceptor's `accept` fails,
//! or the SIGTERM latch is seen. A signal handler can only set a flag,
//! so the latch is read on a short timer; nothing else is.
//!
//! ## Drain
//!
//! SIGTERM (or `D`) flips the drain flag: the traffic acceptor stops,
//! Hellos on connections already open are refused with a typed
//! `Draining` error, admitted requests run to completion, and once
//! every reservation is released — which the shard workers only do
//! *after* registering the completion — the registry is snapshotted
//! through [`itesp_snap`] and the daemon exits. The metrics acceptor
//! keeps answering throughout and stops last. A restarted daemon
//! recovers the registry from the freshest valid snapshot with the
//! anti-rollback check enforced, so per-tenant stats survive both
//! graceful drains and SIGKILL (modulo requests completed after the
//! last snapshot, which clients simply retry — recomputation is
//! byte-identical).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use itesp_core::Scheme;
use itesp_orchestrate::JobOutcome;
use itesp_snap::SnapshotStore;
use itesp_trace::StreamDecoder;

use crate::error::ServeError;
use crate::protocol::{
    self, encode_error, read_frame, write_frame, FrameKind, Hello, PROTOCOL_VERSION,
};
use crate::registry::Registry;
use crate::shard::ShardPool;
use crate::tenant::TenantRequest;

/// Process-wide SIGTERM latch. The handler must be async-signal-safe:
/// one atomic store, nothing else.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

/// Install the SIGTERM handler (libc `signal`, already linked — the
/// crate keeps its zero-external-deps rule). Call once from `main`.
#[cfg(unix)]
pub fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
pub fn install_sigterm_handler() {}

/// How often the main thread of [`Server::run`] reads the SIGTERM
/// latch, the one trigger that cannot wake it.
const TERM_POLL: Duration = Duration::from_millis(10);

/// What wakes the main thread of [`Server::run`].
enum Wake {
    /// The metrics `D` command.
    Drain,
    /// An acceptor's `accept` failed; the error comes back from its join.
    Failed,
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine shards = worker threads.
    pub shards: usize,
    /// Outstanding requests admitted per shard (queued + running).
    pub queue_depth: usize,
    /// Watchdog deadline each shard job runs under, once.
    pub job_timeout: Duration,
    /// State directory: `ports` file + `snaps/` snapshot store.
    pub state_dir: PathBuf,
    /// Snapshot the registry every N completions (0 = drain-only).
    pub snap_every: u64,
    /// Per-read socket deadline — the slow-loris defense.
    pub read_timeout: Duration,
    /// Per-request record cap.
    pub max_records: u64,
    /// Chaos drill target: the shard worker panics instead of running
    /// this tenant's requests (`ITESP_SERVE_CHAOS=panic-tenant=<id>`).
    pub panic_tenant: Option<u64>,
}

impl ServerConfig {
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            shards: 4,
            queue_depth: 8,
            job_timeout: Duration::from_secs(120),
            state_dir: state_dir.into(),
            snap_every: 8,
            read_timeout: Duration::from_secs(5),
            max_records: 5_000_000,
            panic_tenant: None,
        }
    }
}

/// A running daemon.
pub struct Server {
    cfg: ServerConfig,
    registry: Arc<Registry>,
    pool: Arc<ShardPool>,
    draining: Arc<AtomicBool>,
    store: Arc<Mutex<SnapshotStore>>,
    traffic: TcpListener,
    metrics: TcpListener,
}

impl Server {
    /// Bind, recover state, publish ports, spawn shards.
    ///
    /// # Errors
    /// Fails on a zero shard count, queue depth or job timeout, on I/O
    /// errors, and — deliberately — on a corrupt store or an
    /// anti-rollback violation: refusing to serve from rolled-back
    /// security state is the point.
    pub fn start(cfg: ServerConfig) -> Result<Server, ServeError> {
        if cfg.shards == 0 || cfg.queue_depth == 0 || cfg.job_timeout.is_zero() {
            return Err(ServeError::Engine(
                "shards, queue depth and job timeout must be nonzero".into(),
            ));
        }
        std::fs::create_dir_all(&cfg.state_dir).map_err(ServeError::Io)?;
        let store = SnapshotStore::open(cfg.state_dir.join("snaps"))
            .map_err(|e| ServeError::Engine(format!("snapshot store: {e}")))?;
        let registry = Arc::new(Registry::new());
        match registry.recover_from(&store) {
            Ok(Some(meta)) => {
                eprintln!("[serve: recovered registry snapshot seq {}]", meta.seq)
            }
            Ok(None) => {}
            Err(e) => return Err(ServeError::Engine(format!("recovery refused: {e}"))),
        }
        let store = Arc::new(Mutex::new(store));
        let pool = Arc::new(ShardPool::spawn(
            cfg.shards,
            cfg.queue_depth,
            cfg.job_timeout,
            Arc::clone(&registry),
            Some(Arc::clone(&store)),
            cfg.snap_every,
            cfg.panic_tenant,
        ));
        let traffic = TcpListener::bind("127.0.0.1:0").map_err(ServeError::Io)?;
        let metrics = TcpListener::bind("127.0.0.1:0").map_err(ServeError::Io)?;
        let server = Server {
            cfg,
            registry,
            pool,
            draining: Arc::new(AtomicBool::new(false)),
            store,
            traffic,
            metrics,
        };
        server.publish_ports()?;
        Ok(server)
    }

    pub fn traffic_addr(&self) -> SocketAddr {
        self.traffic.local_addr().expect("bound listener")
    }

    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics.local_addr().expect("bound listener")
    }

    /// Atomically (tmp + rename) publish the two ports.
    fn publish_ports(&self) -> Result<(), ServeError> {
        let body = format!(
            "traffic={}\nmetrics={}\n",
            self.traffic_addr().port(),
            self.metrics_addr().port()
        );
        let tmp = self
            .cfg
            .state_dir
            .join(format!("ports.tmp.{}", std::process::id()));
        std::fs::write(&tmp, body).map_err(ServeError::Io)?;
        std::fs::rename(&tmp, self.cfg.state_dir.join("ports")).map_err(ServeError::Io)?;
        Ok(())
    }

    /// Serve until drained. Returns once the drain snapshot is durable.
    ///
    /// # Errors
    /// Only fatal I/O on the listeners; per-connection failures are
    /// handled (typed error to that client) without surfacing here.
    pub fn run(self) -> Result<(), ServeError> {
        let conns = Arc::new(AtomicUsize::new(0));
        let closed = AtomicBool::new(false);
        let (wake, woken) = mpsc::channel();
        thread::scope(|s| {
            let traffic = thread::Builder::new()
                .name("itesp-serve-accept".into())
                .spawn_scoped(s, || {
                    accept_until(&self.traffic, &self.draining, &wake, |stream| {
                        self.spawn_traffic(stream, &conns)
                    })
                })?;
            let metrics = thread::Builder::new()
                .name("itesp-serve-metrics-accept".into())
                .spawn_scoped(s, || {
                    accept_until(&self.metrics, &closed, &wake, |stream| {
                        self.spawn_metrics(stream, &wake)
                    })
                });
            let metrics = match metrics {
                Ok(handle) => handle,
                Err(e) => {
                    stop_acceptor(&self.draining, self.traffic_addr(), &traffic);
                    return Err(ServeError::Io(e));
                }
            };

            let failed = wait_for_stop(&woken);
            // Connections still open get typed `Draining` refusals for
            // new Hellos (the flag is checked per request); admitted
            // work finishes, and metrics are answered until the end.
            stop_acceptor(&self.draining, self.traffic_addr(), &traffic);
            let drained = if failed { Ok(()) } else { self.drain(&conns) };
            stop_acceptor(&closed, self.metrics_addr(), &metrics);
            let accepted = traffic.join().expect("traffic acceptor");
            accepted.and(metrics.join().expect("metrics acceptor"))?;
            drained
        })
    }

    /// Wait until every admitted request has finished, then commit the
    /// drain snapshot. Reservations are released only after the
    /// registry is updated, so pending == 0 means stats are final.
    fn drain(&self, conns: &AtomicUsize) -> Result<(), ServeError> {
        eprintln!("[serve: draining — refusing new admissions]");
        while self.pool.pending_total() > 0 || conns.load(Ordering::Acquire) > 0 {
            thread::sleep(Duration::from_millis(5));
        }
        let store = self.store.lock().expect("snapshot store lock");
        let meta = self
            .registry
            .snapshot_to(&store)
            .map_err(|e| ServeError::Engine(format!("drain snapshot: {e}")))?;
        eprintln!(
            "[serve: drained — snapshot seq {} covers {} completion(s)]",
            meta.seq,
            self.registry.completed()
        );
        Ok(())
    }

    fn spawn_traffic(&self, stream: TcpStream, conns: &Arc<AtomicUsize>) {
        let registry = Arc::clone(&self.registry);
        let pool = Arc::clone(&self.pool);
        let draining = Arc::clone(&self.draining);
        let handler_conns = Arc::clone(conns);
        let read_timeout = self.cfg.read_timeout;
        let max_records = self.cfg.max_records;
        conns.fetch_add(1, Ordering::AcqRel);
        let spawned = thread::Builder::new()
            .name("itesp-serve-conn".into())
            .spawn(move || {
                // The connection handler must never take the daemon
                // down: a panic here (it would be a bug — all expected
                // failures are typed) is caught, counted, and the
                // socket dropped.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    handle_connection(
                        stream,
                        &registry,
                        &pool,
                        &draining,
                        read_timeout,
                        max_records,
                    )
                }));
                if result.is_err() {
                    registry.count_protocol_error();
                    eprintln!("[serve: connection handler panicked — connection dropped]");
                }
                handler_conns.fetch_sub(1, Ordering::AcqRel);
            });
        if spawned.is_err() {
            conns.fetch_sub(1, Ordering::AcqRel);
        }
    }

    fn spawn_metrics(&self, stream: TcpStream, wake: &Sender<Wake>) {
        let registry = Arc::clone(&self.registry);
        let pool = Arc::clone(&self.pool);
        let draining = Arc::clone(&self.draining);
        let wake = wake.clone();
        let _ = thread::Builder::new()
            .name("itesp-serve-metrics".into())
            .spawn(move || {
                let _ = handle_metrics(stream, &registry, &pool, &draining, &wake);
            });
    }
}

/// Block in `accept`, handing each connection to `serve`, until a
/// connection arrives with `stop` set (see [`stop_acceptor`]). A failed
/// `accept` wakes the main thread and ends the loop with its error.
fn accept_until(
    listener: &TcpListener,
    stop: &AtomicBool,
    wake: &Sender<Wake>,
    mut serve: impl FnMut(TcpStream),
) -> std::io::Result<()> {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                let _ = wake.send(Wake::Failed);
                return Err(e);
            }
        };
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        serve(stream);
    }
}

/// Stop the acceptor of the listener at `addr`: set its `stop` flag,
/// then connect once so its blocked `accept` returns and sees the
/// flag. A connection that lands in the backlog is enough; the connect
/// is retried only while it fails and the acceptor still runs.
fn stop_acceptor<T>(stop: &AtomicBool, addr: SocketAddr, acceptor: &thread::ScopedJoinHandle<T>) {
    stop.store(true, Ordering::SeqCst);
    while !acceptor.is_finished() && TcpStream::connect(addr).is_err() {
        thread::sleep(TERM_POLL);
    }
}

/// Block until `D`, SIGTERM or a failed acceptor; true for the last.
fn wait_for_stop(woken: &Receiver<Wake>) -> bool {
    loop {
        match woken.recv_timeout(TERM_POLL) {
            Ok(Wake::Drain) => return false,
            Ok(Wake::Failed) => return true,
            Err(_) if TERM.load(Ordering::SeqCst) => return false,
            Err(_) => {}
        }
    }
}

/// One metrics command per connection.
fn handle_metrics(
    mut stream: TcpStream,
    registry: &Registry,
    pool: &ShardPool,
    draining: &AtomicBool,
    wake: &Sender<Wake>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut cmd = [0u8; 1];
    stream.read_exact(&mut cmd)?;
    let body = match cmd[0] {
        b'T' => registry.deterministic_json(),
        b'A' => registry.full_json(),
        b'S' => {
            let mut json = serde_json::to_string_pretty(&pool.gauges()).expect("gauges serialize");
            json.push('\n');
            json
        }
        b'D' => {
            draining.store(true, Ordering::SeqCst);
            let _ = wake.send(Wake::Drain);
            "draining\n".to_owned()
        }
        b'P' => "ok\n".to_owned(),
        other => format!("unknown command {other:#04x} (want T|A|S|D|P)\n"),
    };
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// One request per connection: Hello, records, End, reply.
fn handle_connection(
    mut stream: TcpStream,
    registry: &Registry,
    pool: &ShardPool,
    draining: &AtomicBool,
    read_timeout: Duration,
    max_records: u64,
) {
    if let Err(e) = serve_request(
        &mut stream,
        registry,
        pool,
        draining,
        read_timeout,
        max_records,
    ) {
        registry.count_protocol_error();
        // Best effort: the peer may already be gone (that is often
        // exactly what the error says).
        let _ = write_frame(&mut stream, FrameKind::ErrorFrame, &encode_error(&e));
    }
}

fn serve_request(
    stream: &mut TcpStream,
    registry: &Registry,
    pool: &ShardPool,
    draining: &AtomicBool,
    read_timeout: Duration,
    max_records: u64,
) -> Result<(), ServeError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(read_timeout))?;

    let Some(frame) = read_frame(stream)? else {
        return Ok(()); // connected and left without a word
    };
    if frame.kind != FrameKind::Hello {
        return Err(ServeError::Malformed(format!(
            "expected Hello, got {:?}",
            frame.kind
        )));
    }
    let hello = Hello::decode(&frame.payload)?;
    if hello.version != PROTOCOL_VERSION {
        return Err(ServeError::BadVersion {
            got: hello.version,
            want: PROTOCOL_VERSION,
        });
    }
    // Reject bad parameters before spending a queue slot.
    Scheme::from_label(&hello.scheme)
        .map_err(|_| ServeError::UnknownScheme(hello.scheme.clone()))?;

    if draining.load(Ordering::SeqCst) || TERM.load(Ordering::SeqCst) {
        registry.count_drain_reject();
        write_frame(
            stream,
            FrameKind::ErrorFrame,
            &encode_error(&ServeError::Draining),
        )?;
        return Ok(());
    }
    let token = match pool.try_admit(hello.tenant) {
        Ok(t) => t,
        Err(_) => {
            registry.count_busy();
            write_frame(stream, FrameKind::Busy, &[])?;
            return Ok(());
        }
    };
    registry.count_admitted();
    write_frame(stream, FrameKind::Admitted, &[])?;

    // Stream the trace. The admission token is held through the whole
    // read: if the client disconnects mid-frame or trickles past the
    // read deadline, the token drops and the slot frees immediately.
    let mut decoder = StreamDecoder::new();
    let mut records = Vec::new();
    let declared_total = loop {
        let Some(frame) = read_frame(stream)? else {
            return Err(ServeError::Truncated {
                needed: protocol::HEADER,
                got: 0,
            });
        };
        match frame.kind {
            FrameKind::Records => {
                let (_count, cells) = protocol::records_frame_cells(&frame.payload)?;
                decoder.push(cells, &mut records)?;
                if records.len() as u64 > max_records {
                    return Err(ServeError::TooManyRecords { limit: max_records });
                }
            }
            FrameKind::End => break protocol::decode_end(&frame.payload)?,
            other => {
                return Err(ServeError::Malformed(format!(
                    "expected Records or End, got {other:?}"
                )))
            }
        }
    };
    let total = decoder.finish()?;
    if total != declared_total {
        return Err(ServeError::RecordCount {
            declared: declared_total,
            got: total,
        });
    }

    let outcome = token
        .submit(TenantRequest { hello, records })
        .recv()
        .map_err(|_| ServeError::Engine("shard reply channel closed".into()))?;
    match outcome {
        JobOutcome::Ok(Ok(stats)) => {
            let json = serde_json::to_string_pretty(&stats).expect("stats serialize");
            write_frame(stream, FrameKind::Result, json.as_bytes())
        }
        JobOutcome::Ok(Err(e)) => write_frame(stream, FrameKind::ErrorFrame, &encode_error(&e)),
        JobOutcome::Panicked { message } => write_frame(
            stream,
            FrameKind::ErrorFrame,
            &encode_error(&ServeError::WorkerPanicked { message }),
        ),
        JobOutcome::TimedOut { timeout } => write_frame(
            stream,
            FrameKind::ErrorFrame,
            &encode_error(&ServeError::Timeout {
                ms: timeout.as_millis() as u64,
            }),
        ),
    }
}

/// Read the `ports` file a daemon published under `state_dir`.
///
/// # Errors
/// I/O errors, plus a malformed file (partial write never happens —
/// the daemon renames atomically — so malformed means wrong dir).
pub fn read_ports(state_dir: &Path) -> Result<(u16, u16), ServeError> {
    let text = std::fs::read_to_string(state_dir.join("ports"))?;
    let mut traffic = None;
    let mut metrics = None;
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("traffic=") {
            traffic = v.trim().parse().ok();
        } else if let Some(v) = line.strip_prefix("metrics=") {
            metrics = v.trim().parse().ok();
        }
    }
    match (traffic, metrics) {
        (Some(t), Some(m)) => Ok((t, m)),
        _ => Err(ServeError::Malformed(format!(
            "ports file in {} is incomplete",
            state_dir.display()
        ))),
    }
}

/// Send one metrics command and return the response body.
///
/// # Errors
/// Transport errors talking to the metrics port.
pub fn metrics_command(addr: SocketAddr, cmd: u8) -> Result<String, ServeError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(&[cmd])?;
    // Half-close the write side so the daemon sees EOF after the
    // command byte and the read below terminates on its close.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut body = String::new();
    stream.read_to_string(&mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(tag: &str) -> Server {
        let dir = std::env::temp_dir().join(format!("itesp-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServerConfig::new(dir);
        cfg.shards = 1;
        cfg.queue_depth = 1;
        Server::start(cfg).expect("start server")
    }

    #[cfg(unix)]
    #[test]
    fn a_failed_listener_ends_run_with_its_error() {
        let mut server = start("listener-error");
        let state_dir = server.cfg.state_dir.clone();
        // A UDP socket cannot accept, so the traffic acceptor's first
        // `accept` fails.
        let udp = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind udp");
        server.traffic = TcpListener::from(std::os::fd::OwnedFd::from(udp));
        let (done, result) = mpsc::channel();
        thread::spawn(move || done.send(server.run()));
        let outcome = result
            .recv_timeout(Duration::from_secs(30))
            .expect("run returns");
        assert!(matches!(outcome, Err(ServeError::Io(_))), "{outcome:?}");
        let _ = std::fs::remove_dir_all(state_dir);
    }

    #[test]
    fn traffic_streams_set_nodelay_before_reading() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let probe = accepted.try_clone().expect("clone");
        assert!(!probe.nodelay().expect("nodelay"));
        drop(client); // the handler reads EOF and returns
        let registry = Arc::new(Registry::new());
        let pool = ShardPool::spawn(
            1,
            1,
            Duration::from_secs(5),
            Arc::clone(&registry),
            None,
            0,
            None,
        );
        let draining = AtomicBool::new(false);
        handle_connection(
            accepted,
            &registry,
            &pool,
            &draining,
            Duration::from_secs(5),
            1,
        );
        assert!(probe.nodelay().expect("nodelay"));
    }
}
