//! Worker panic isolation, in its own test binary: this test sets the
//! process-global `ITESP_SERVE_CHAOS` directive, so it must not share
//! a process with other tests that run tenants.

mod common;

use itesp_serve::chaos::CHAOS_ENV;
use itesp_serve::client::run_once;
use itesp_serve::ServeError;

use common::{hello, records, scratch_dir, TestDaemon};

#[test]
fn worker_panic_is_isolated_per_tenant() {
    // The drill directive: every request from tenant 13 panics inside
    // the shard worker.
    std::env::set_var(CHAOS_ENV, "panic-tenant=13");
    let daemon = TestDaemon::start(scratch_dir("panic"), 2, 4);

    // The cursed tenant gets a typed error — not a hung socket, not a
    // daemon death.
    let err = run_once(daemon.traffic, &hello(13, "ITESP"), &records(13, 64)).unwrap_err();
    assert!(
        matches!(err, ServeError::WorkerPanicked { .. }),
        "got {err:?}"
    );
    assert!(daemon.alive(), "daemon must survive the worker panic");

    // Tenants sharing the panicked worker's shard still complete:
    // 13 % 2 == 1, and so is 15 % 2.
    let reply =
        run_once(daemon.traffic, &hello(15, "ITESP"), &records(15, 64)).expect("same-shard tenant");
    assert!(reply.stats_json.contains("\"tenant\": 15"));
    let reply =
        run_once(daemon.traffic, &hello(2, "ITESP"), &records(2, 64)).expect("other-shard tenant");
    assert!(reply.stats_json.contains("\"tenant\": 2"));

    // The panicked request never lands in the deterministic registry.
    assert!(!daemon.tenants_json().contains("\"tenant\": 13"));
    std::env::remove_var(CHAOS_ENV);
    daemon.drain();
}
