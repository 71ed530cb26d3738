//! End-to-end fault drills against the real `fig08` binary: SIGKILL
//! mid-campaign, injected panics, and `--resume` byte-identity.
//!
//! Each test points the child at its own `ITESP_RESULTS_DIR`, so tests
//! run in parallel without sharing state.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Small enough that a full 31-job campaign finishes in seconds even in
/// debug builds, large enough that a serial run can be killed mid-way.
const OPS: &str = "200";

fn fig08(results_dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig08"));
    cmd.env("ITESP_RESULTS_DIR", results_dir)
        .env("ITESP_JOBS", "2");
    // Shield the child from any ambient orchestration knobs.
    for var in [
        "ITESP_OPS",
        "ITESP_RESUME",
        "ITESP_JOB_TIMEOUT",
        "ITESP_JOB_ONLY",
        "ITESP_INJECT_PANIC",
    ] {
        cmd.env_remove(var);
    }
    cmd
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itesp-kill-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run fig08 to completion and return the final JSON dump's bytes.
fn clean_run_bytes(dir: &Path) -> Vec<u8> {
    let status = fig08(dir)
        .arg(OPS)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn fig08");
    assert!(status.success(), "clean run must succeed");
    std::fs::read(dir.join("fig08.json")).expect("clean run writes fig08.json")
}

#[test]
fn sigkill_mid_run_then_resume_is_byte_identical() {
    let clean_dir = scratch_dir("sigkill-clean");
    let clean = clean_run_bytes(&clean_dir);

    // Start a serial run and SIGKILL it once at least two jobs have
    // been checkpointed (poll the row files, not the clock, so slow
    // machines don't race).
    let dir = scratch_dir("sigkill");
    let ckpt = dir.join(".ckpt").join("fig08");
    let mut child = fig08(&dir)
        .arg(OPS)
        .env("ITESP_JOBS", "1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fig08");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let checkpointed = std::fs::read_dir(&ckpt).map_or(0, |rows| {
            rows.flatten()
                .filter(|row| row.path().extension().is_some_and(|ext| ext == "row"))
                .count()
        });
        if checkpointed >= 2 {
            break;
        }
        if child.try_wait().expect("try_wait").is_some() {
            panic!("fig08 finished before it could be killed; lower OPS");
        }
        assert!(Instant::now() < deadline, "no checkpoint rows after 120 s");
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("kill fig08");
    let status = child.wait().expect("wait fig08");
    assert!(!status.success(), "killed run must not report success");
    assert!(
        !dir.join("fig08.json").exists(),
        "killed run must not have written final results"
    );

    // Resume: completes, reports the partial checkpoint, and the final
    // JSON is byte-identical to the uninterrupted run.
    let out = fig08(&dir)
        .arg(OPS)
        .arg("--resume")
        .stdout(Stdio::null())
        .output()
        .expect("resume fig08");
    assert!(out.status.success(), "resume must succeed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("already checkpointed"),
        "resume must report skipped jobs: {stderr}"
    );
    let resumed = std::fs::read(dir.join("fig08.json")).expect("resumed fig08.json");
    assert_eq!(resumed, clean, "resumed output must be byte-identical");
    assert!(
        !ckpt.exists(),
        "checkpoint must be cleared after the durable save"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_panic_is_reported_and_resume_completes_identically() {
    let clean_dir = scratch_dir("drill-clean");
    let clean = clean_run_bytes(&clean_dir);

    // Fault drill: job 3 panics; the run must finish the other 30 jobs,
    // exit nonzero, and name the failed job with a replay line.
    let dir = scratch_dir("drill");
    let out = fig08(&dir)
        .arg(OPS)
        .env("ITESP_INJECT_PANIC", "fig08:3")
        .stdout(Stdio::null())
        .output()
        .expect("spawn fig08");
    assert!(!out.status.success(), "a failed job must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig08 job 3 panicked"), "{stderr}");
    assert!(stderr.contains("ITESP_JOB_ONLY=3"), "{stderr}");
    let manifest_path = dir.join(".ckpt").join("fig08.failures.json");
    let manifest = std::fs::read_to_string(&manifest_path).expect("failure manifest");
    assert!(manifest.contains("\"job\": 3"), "{manifest}");
    assert!(manifest.contains("injected fault"), "{manifest}");
    assert!(
        !dir.join("fig08.json").exists(),
        "failed run must not have written final results"
    );

    // Resume without the fault: only job 3 recomputes; output matches
    // the clean run byte-for-byte and the manifest is cleared.
    let out = fig08(&dir)
        .arg(OPS)
        .arg("--resume")
        .stdout(Stdio::null())
        .output()
        .expect("resume fig08");
    assert!(out.status.success(), "resume must succeed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("resume: 30 of 31 job(s) already checkpointed"),
        "{stderr}"
    );
    let resumed = std::fs::read(dir.join("fig08.json")).expect("resumed fig08.json");
    assert_eq!(resumed, clean, "resumed output must be byte-identical");
    assert!(!manifest_path.exists(), "clean resume clears the manifest");

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_input_is_a_hard_error_naming_the_source() {
    let dir = scratch_dir("badinput");
    let out = fig08(&dir)
        .env("ITESP_OPS", "not-a-number")
        .stdout(Stdio::null())
        .output()
        .expect("spawn fig08");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ITESP_OPS"), "{stderr}");

    // Jobs and run_all children run once: the retry flags are gone.
    let run_all = || {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_all"));
        cmd.env("ITESP_RESULTS_DIR", &dir)
            .env("ITESP_BENCH_LOG", dir.join("bench.json"));
        cmd
    };
    for (mut cmd, flag) in [(fig08(&dir), "retries"), (run_all(), "target-retries")] {
        let flag = format!("--{flag}");
        let out = cmd
            .args([OPS, flag.as_str(), "1"])
            .stdout(Stdio::null())
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unexpected argument"), "{flag}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
