//! Live-daemon smoke tests: concurrent well-behaved tenants, admission
//! control under a full queue, hostile clients, and the drain → restart
//! → byte-identical recovery loop — all over real sockets.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use itesp_serve::chaos::ChaosMode;
use itesp_serve::client::{misbehave, run_once, run_with_retry};
use itesp_serve::protocol::{encode_end, encode_records_frame, read_frame, write_frame, FrameKind};
use itesp_serve::{ServeError, Server, ServerConfig};

use common::{hello, multi_frame_ops, records, scratch_dir, TestDaemon};

#[test]
fn concurrent_tenants_each_get_deterministic_stats() {
    let daemon = TestDaemon::start(scratch_dir("concurrent"), 4, 8);
    let addr = daemon.traffic;
    let ops = multi_frame_ops();
    let handles: Vec<_> = (1..=8u64)
        .map(|tenant| {
            std::thread::spawn(move || {
                let recs = records(tenant, ops);
                run_once(addr, &hello(tenant, "ITESP"), &recs)
            })
        })
        .collect();
    for h in handles {
        let reply = h.join().unwrap().expect("tenant request succeeds");
        assert!(reply.stats_json.contains("\"slowdown\""));
    }
    // Re-running a tenant's identical request is idempotent: the
    // deterministic JSON does not change.
    let before = daemon.tenants_json();
    run_once(addr, &hello(3, "ITESP"), &records(3, ops)).expect("replay");
    assert_eq!(daemon.tenants_json(), before, "re-completion is idempotent");
    daemon.drain();
}

#[test]
fn full_queue_yields_busy_and_frees_on_completion() {
    // One shard, one slot: a client that is admitted but still
    // streaming holds the only reservation.
    let daemon = TestDaemon::start(scratch_dir("busy"), 1, 1);
    let addr = daemon.traffic;

    let mut holder = TcpStream::connect(addr).unwrap();
    holder
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write_frame(&mut holder, FrameKind::Hello, &hello(1, "ITESP").encode()).unwrap();
    let admitted = read_frame(&mut holder).unwrap().expect("reply");
    assert_eq!(admitted.kind, FrameKind::Admitted);

    // The shard gauges see the held reservation: one shard, full.
    let gauges = itesp_serve::server::metrics_command(daemon.metrics, b'S').expect("metrics S");
    assert!(gauges.contains("\"in_flight\": 1"), "got {gauges}");
    assert!(gauges.contains("\"queue_depth\": 1"), "got {gauges}");

    // Second tenant: the queue is full, so the daemon must say Busy
    // immediately rather than queueing the socket.
    let err = run_once(addr, &hello(2, "ITESP"), &records(2, 64)).unwrap_err();
    assert!(matches!(err, ServeError::Busy), "got {err:?}");
    assert!(err.is_retryable());

    // The holder finishes; its slot frees only after its stats land.
    let recs = records(1, 64);
    write_frame(
        &mut holder,
        FrameKind::Records,
        &encode_records_frame(&recs),
    )
    .unwrap();
    write_frame(&mut holder, FrameKind::End, &encode_end(recs.len() as u64)).unwrap();
    let result = read_frame(&mut holder).unwrap().expect("result");
    assert_eq!(result.kind, FrameKind::Result);
    drop(holder);

    // Now the retrying client path gets through.
    let reply = run_with_retry(
        &daemon.state_dir,
        &hello(2, "ITESP"),
        &records(2, 64),
        5,
        Duration::from_millis(20),
    )
    .expect("retry succeeds once the slot frees");
    assert!(reply.stats_json.contains("\"tenant\": 2"));
    daemon.drain();
}

#[test]
fn hostile_clients_do_not_take_the_daemon_down() {
    let daemon = TestDaemon::start(scratch_dir("hostile"), 2, 4);
    let addr = daemon.traffic;
    let recs = records(9, 256);
    for mode in [
        ChaosMode::Garbage,
        ChaosMode::Oversized,
        ChaosMode::DisconnectMidFrame,
        ChaosMode::SlowLoris,
    ] {
        misbehave(addr, mode, &hello(9, "ITESP"), &recs).expect("chaos client ran");
        assert!(daemon.alive(), "daemon died after {mode:?}");
    }
    // A disconnect mid-frame must have freed its admission slot: all
    // four slots... er, all slots are available for honest tenants.
    let reply = run_once(addr, &hello(10, "ITESP"), &records(10, 128)).expect("honest tenant");
    assert!(reply.stats_json.contains("\"tenant\": 10"));
    daemon.drain();
}

#[test]
fn drain_refuses_new_hellos_with_a_typed_error() {
    let daemon = TestDaemon::start(scratch_dir("drainrefuse"), 2, 4);
    // Open the connection *before* the drain so the accept loop picks
    // it up, then send the Hello after the flag flips.
    let mut stream = TcpStream::connect(daemon.traffic).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let _ = itesp_serve::server::metrics_command(daemon.metrics, b'D');
    std::thread::sleep(Duration::from_millis(50));
    write_frame(&mut stream, FrameKind::Hello, &hello(5, "ITESP").encode()).unwrap();
    stream.flush().unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("refusal frame");
    assert_eq!(reply.kind, FrameKind::ErrorFrame);
    let (code, _msg) = itesp_serve::protocol::decode_error(&reply.payload).unwrap();
    assert_eq!(code, ServeError::Draining.code());
    drop(stream);
    // A second `D` during the drain window is harmless.
    daemon.drain();
}

#[test]
fn drain_then_restart_recovers_byte_identical_stats() {
    let state = scratch_dir("recover");
    let daemon = TestDaemon::start(state.clone(), 2, 4);
    for tenant in 1..=4u64 {
        run_once(
            daemon.traffic,
            &hello(tenant, "ITESP"),
            &records(tenant, 200),
        )
        .expect("seed tenant");
    }
    let reference = daemon.tenants_json();
    assert!(reference.contains("\"tenant\": 4"));
    daemon.drain();

    // A restarted daemon serves the recovered registry immediately.
    let reborn = TestDaemon::start(state, 2, 4);
    assert_eq!(
        reborn.tenants_json(),
        reference,
        "recovered per-tenant stats must be byte-identical"
    );
    // And keeps accepting work on top of the recovered state.
    run_once(reborn.traffic, &hello(5, "ITESP"), &records(5, 200)).expect("post-recovery tenant");
    assert!(reborn.tenants_json().contains("\"tenant\": 5"));
    reborn.drain();
}

#[test]
fn a_zero_shard_count_queue_or_deadline_is_refused_at_start() {
    let zeroes: [fn(&mut ServerConfig); 3] = [
        |c| c.shards = 0,
        |c| c.queue_depth = 0,
        |c| c.job_timeout = Duration::ZERO,
    ];
    for zero in zeroes {
        let mut cfg = ServerConfig::new(scratch_dir("zero-config"));
        zero(&mut cfg);
        assert!(matches!(Server::start(cfg), Err(ServeError::Engine(_))));
    }
}
