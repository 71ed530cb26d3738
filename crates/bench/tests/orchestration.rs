//! Orchestration-layer integration tests: watchdog timeouts, retries,
//! and campaign failure manifests — all through the public API with
//! explicit [`CampaignOptions`], no process-global env.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use itesp_bench::{run_campaign_with, Campaign, CampaignOptions};
use itesp_orchestrate::{run_isolated, JobOutcome, JobPolicy};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "itesp-orch-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn timed_out_job_is_killed_and_retried_to_success() {
    static TRIES: AtomicU32 = AtomicU32::new(0);
    let policy = JobPolicy {
        workers: 1,
        timeout: Some(Duration::from_millis(40)),
        retries: 2,
        backoff: Duration::from_millis(1),
    };
    let out = run_isolated(
        &[0],
        &policy,
        Arc::new(|i: usize| {
            // First attempt hangs past the deadline; the retry returns
            // promptly. The hung attempt's thread is abandoned, so its
            // (eventual) result must not leak into the outcome.
            if TRIES.fetch_add(1, Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_secs(30));
            }
            i + 100
        }),
        |_, _| {},
    );
    assert_eq!(out[0], JobOutcome::Ok(100));
    assert_eq!(TRIES.load(Ordering::SeqCst), 2, "exactly one retry");
}

#[test]
fn campaign_records_timeout_failure_with_replay_line() {
    let dir = scratch_dir("timeout");
    let mut opts = CampaignOptions::for_tests(&dir, 50);
    opts.policy = JobPolicy {
        workers: 1,
        timeout: Some(Duration::from_millis(40)),
        retries: 0,
        backoff: Duration::from_millis(1),
    };
    let c: Campaign<u64> = run_campaign_with("figT", 3, &opts, |i| {
        if i == 1 {
            std::thread::sleep(Duration::from_secs(30));
        }
        i as u64
    });
    assert!(!c.is_complete());
    assert_eq!(c.rows[0], Some(0));
    assert_eq!(c.rows[2], Some(2));
    assert_eq!(c.failures.len(), 1);
    assert_eq!(c.failures[0].job, 1);
    assert_eq!(c.failures[0].kind, "timed_out");
    assert!(
        c.failures[0].replay.contains("ITESP_JOB_ONLY=1"),
        "{}",
        c.failures[0].replay
    );
    assert!(
        c.failures[0].replay.contains("--resume"),
        "{}",
        c.failures[0].replay
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sub_target_replay_names_the_parent_binary() {
    let dir = scratch_dir("subtarget");
    let mut opts = CampaignOptions::for_tests(&dir, 10);
    opts.inject_panic = Some(("fig12.4c.SYNERGY".to_owned(), 0));
    let c: Campaign<u64> = run_campaign_with("fig12.4c.SYNERGY", 2, &opts, |i| i as u64);
    assert_eq!(c.failures.len(), 1);
    assert!(
        c.failures[0].replay.contains("--bin fig12"),
        "replay must strip the sub-sweep suffix: {}",
        c.failures[0].replay
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panic_in_one_job_leaves_other_workers_results_intact() {
    let dir = scratch_dir("isolation");
    let mut opts = CampaignOptions::for_tests(&dir, 10);
    opts.policy = JobPolicy::serial().with_workers(4);
    opts.inject_panic = Some(("figP".to_owned(), 5));
    let c: Campaign<u64> = run_campaign_with("figP", 12, &opts, |i| i as u64 * 7);
    assert_eq!(c.failures.len(), 1);
    assert_eq!(c.failures[0].job, 5);
    for i in (0..12).filter(|&i| i != 5) {
        assert_eq!(
            c.rows[i],
            Some(i as u64 * 7),
            "job {i} must survive the panic"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
