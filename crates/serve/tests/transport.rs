//! Transport: a drain wakes the blocked acceptors, and both ends of a
//! traffic connection run with Nagle's algorithm off.

mod common;

use std::net::TcpListener;
use std::sync::mpsc;
use std::time::Duration;

use itesp_serve::client::connect;
use itesp_serve::server::metrics_command;
use itesp_serve::Server;

use common::{scratch_dir, test_config};

/// Far above a drain of an idle server (a few ms); only a leaked
/// acceptor gets near it.
const DEADLINE: Duration = Duration::from_secs(10);

#[test]
fn drain_wakes_the_acceptors_of_a_server_that_saw_no_traffic() {
    let state_dir = scratch_dir("idle-drain");
    let server = Server::start(test_config(state_dir.clone(), 1, 1)).expect("daemon start");
    let metrics = server.metrics_addr();
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || done.send(server.run()));
    assert_eq!(
        metrics_command(metrics, b'D').expect("metrics D"),
        "draining\n"
    );
    let outcome = result.recv_timeout(DEADLINE).expect("run returns after D");
    assert!(outcome.is_ok(), "{outcome:?}");
    let _ = std::fs::remove_dir_all(state_dir);
}

#[test]
fn client_streams_set_nodelay() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let stream = connect(listener.local_addr().expect("addr"), DEADLINE).expect("connect");
    assert!(stream.nodelay().expect("nodelay"));
    assert_eq!(stream.read_timeout().expect("read timeout"), Some(DEADLINE));
}
