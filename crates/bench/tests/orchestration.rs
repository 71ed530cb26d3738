//! Orchestration-layer integration tests: watchdog timeouts and
//! campaign failure manifests — all through the public API with
//! explicit [`CampaignOptions`], no process-global env.

use std::path::PathBuf;
use std::time::Duration;

use itesp_bench::{run_campaign_with, Campaign, CampaignOptions};
use itesp_orchestrate::JobPolicy;

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
fn campaign_records_timeout_failure_with_replay_line() {
    let dir = scratch_dir("timeout");
    let mut opts = CampaignOptions::for_tests(&dir, 50);
    opts.policy = JobPolicy {
        workers: 1,
        timeout: Some(Duration::from_millis(40)),
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
