//! The daemon binary refuses a bad `ITESP_SERVE_*` value at startup:
//! exit 2 and an error line naming the variable, never a panic (exit
//! 101) and never a daemon running on a clamped value.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const VARS: &[&str] = &[
    "ITESP_SERVE_STATE",
    "ITESP_SERVE_SHARDS",
    "ITESP_SERVE_QUEUE",
    "ITESP_SERVE_SNAP_EVERY",
    "ITESP_SERVE_TIMEOUT_MS",
    "ITESP_SERVE_READ_TIMEOUT_MS",
    "ITESP_SERVE_CHAOS",
];

/// Run the daemon with one variable set; kill it if it is still up
/// after 30 s (it started, which is itself the failure).
fn daemon_with(var: &str, value: &str) -> Output {
    let state = std::env::temp_dir().join(format!("itesp-serve-env-{}", std::process::id()));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_itesp-serve"));
    for v in VARS {
        cmd.env_remove(v);
    }
    let mut child = cmd
        .env("ITESP_SERVE_STATE", &state)
        .env(var, value)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn itesp-serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll itesp-serve").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("reap itesp-serve");
    let _ = std::fs::remove_dir_all(&state);
    out
}

#[test]
fn bad_serve_variables_exit_2_naming_the_variable() {
    for (var, value) in [
        ("ITESP_SERVE_SHARDS", "0"),
        ("ITESP_SERVE_QUEUE", "0"),
        ("ITESP_SERVE_TIMEOUT_MS", "0"),
        ("ITESP_SERVE_READ_TIMEOUT_MS", "soon"),
        ("ITESP_SERVE_SNAP_EVERY", "-1"),
        ("ITESP_SERVE_CHAOS", "panic-tenant=everyone"),
    ] {
        let out = daemon_with(var, value);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
        assert!(stderr.contains(var), "{var}={value}: {stderr}");
    }
}
