//! Worker panic isolation: a daemon configured with the chaos drill's
//! panic target (`ServerConfig::panic_tenant`, which the daemon fills
//! from `ITESP_SERVE_CHAOS=panic-tenant=<id>`).

mod common;

use itesp_serve::client::run_once;
use itesp_serve::ServeError;

use common::{hello, records, scratch_dir, test_config, TestDaemon};

#[test]
fn worker_panic_is_isolated_per_tenant() {
    // The drill directive: every request from tenant 13 panics inside
    // the shard worker.
    let mut cfg = test_config(scratch_dir("panic"), 2, 4);
    cfg.panic_tenant = Some(13);
    let daemon = TestDaemon::boot(cfg);

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
    daemon.drain();
}
