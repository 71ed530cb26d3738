//! End-to-end drills for the online RAS pipeline: kill a chip mid-run
//! and prove every affected block is corrected with the reconstruction
//! traffic visible in the per-channel DRAM command log.

use std::collections::HashMap;

use itesp_core::{EngineConfig, Scheme};
use itesp_dram::{Command, DramConfig, IssuedCommand};
use itesp_sim::{Drill, RasConfig, RasError, RunError, RunResult, System, SystemConfig};
use itesp_trace::{benchmark, MultiProgram};

const OPS: usize = 500;

fn workload() -> MultiProgram {
    MultiProgram::homogeneous(benchmark("mcf").unwrap(), 2, OPS, 7)
}

fn config(scheme: Scheme, ras: Option<RasConfig>) -> SystemConfig {
    let engine = EngineConfig {
        enclaves: 2,
        ..EngineConfig::paper_default(scheme)
    };
    let mut cfg = SystemConfig::table_iii(DramConfig::table_iii(), engine);
    cfg.ras = ras;
    cfg
}

fn chip_kill(seed: u64) -> RasConfig {
    let mut ras = RasConfig::new(seed).with_drill(Drill {
        at_dram_cycle: 200,
        channel: 0,
        rank: 2,
        chip: 3,
    });
    // Plain periodic patrol: keeps the recovery-traffic arithmetic
    // exact (scrub-on-detect bursts are exercised separately).
    ras.scrubber = itesp_reliability::Scrubber::hourly();
    ras.patrol_interval = 256;
    ras
}

/// Read/write command counts per rank for channel 0.
fn per_rank(log: &[IssuedCommand]) -> (HashMap<u32, u64>, u64, u64) {
    let mut reads = HashMap::new();
    let mut nread = 0;
    let mut nwrite = 0;
    for c in log {
        match c.cmd {
            Command::Read => {
                *reads.entry(c.rank).or_insert(0) += 1;
                nread += 1;
            }
            Command::Write => nwrite += 1,
            _ => {}
        }
    }
    (reads, nread, nwrite)
}

#[test]
fn chip_kill_drill_corrects_every_affected_block() {
    let mp = workload();
    let (base, base_log, _) = System::new(config(Scheme::Itesp, None), &mp).run_logged();
    let (ras, ras_log, _) =
        System::new(config(Scheme::Itesp, Some(chip_kill(21))), &mp).run_logged();

    assert_eq!(base.ras, Default::default(), "RAS off leaves zero stats");
    let s = &ras.ras;
    assert_eq!(s.drills_executed, 1);
    assert!(s.corrections > 0, "dead-rank reads must trigger recovery");
    assert_eq!(
        s.detections, s.corrections,
        "a single dead chip is always correctable"
    );
    assert_eq!(s.uncorrected(), 0, "no SDC, no DUE: {s:?}");
    assert_eq!(s.sdc_events, 0);
    assert_eq!(s.due_events, 0);
    assert_eq!(s.faults_injected, 0, "no Poisson process configured");
    assert_eq!(s.pages_retired, 0, "chip faults never retire pages");

    // ITESP reconstruction: one leaf-embedded parity fetch plus the
    // seven cross-rank companion reads per corrected block, then the
    // corrected-data writeback.
    assert_eq!(s.parity_reads, s.corrections);
    assert_eq!(s.companion_reads, 7 * s.corrections);
    assert_eq!(s.scrub_writebacks, s.corrections);
    assert!(s.patrol_reads > 0, "periodic patrol must run");

    // Every extra DRAM command is accounted recovery/patrol traffic,
    // visible in the command log.
    let (base_ranks, base_reads, base_writes) = per_rank(&base_log[0]);
    let (ras_ranks, ras_reads, ras_writes) = per_rank(&ras_log[0]);
    assert_eq!(ras_reads - base_reads, s.extra_reads());
    assert_eq!(ras_writes - base_writes, s.extra_writes());

    // The cross-rank reconstruction reads fan out: at least the 7
    // companion ranks plus the re-read dead rank see extra reads.
    let widened = ras_ranks
        .iter()
        .filter(|(rank, n)| **n > base_ranks.get(rank).copied().unwrap_or(0))
        .count();
    assert!(widened >= 8, "reconstruction spans ranks, got {widened}");
}

#[test]
fn scrub_on_detect_bursts_over_the_footprint() {
    let mp = workload();
    let mut cfg = chip_kill(22);
    cfg.scrubber = itesp_reliability::Scrubber::hourly().with_scrub_on_detect();
    cfg.patrol_interval = 0; // burst passes only
    let r = System::new(config(Scheme::Itesp, Some(cfg)), &mp).run();
    let s = &r.ras;
    assert!(s.corrections > 0);
    assert!(
        s.patrol_reads > 0,
        "corrections must trigger burst scrub passes"
    );
    assert!(s.scrubs_run > 0);
    assert_eq!(s.errors_cleared, s.corrections);
    assert_eq!(s.uncorrected(), 0);
}

#[test]
fn detection_only_scheme_reports_typed_uncorrectable() {
    let mp = workload();
    // VAULT detects via its MAC store but has no recovery parity: a
    // dead chip is detected-but-uncorrectable, surfaced as a typed
    // error under halt_on_due — never a panic.
    let mut cfg = chip_kill(23);
    cfg.halt_on_due = true;
    let err = System::new(config(Scheme::Vault, Some(cfg)), &mp)
        .try_run()
        .expect_err("a dead chip without parity must halt");
    match err {
        RunError::Ras(RasError::Uncorrectable { dram_cycle, .. }) => {
            assert!(dram_cycle >= 200, "cannot fail before the drill fires")
        }
        other => panic!("expected Uncorrectable, got {other}"),
    }
}

#[test]
fn detection_only_scheme_counts_due_without_halt() {
    let mp = workload();
    let r = System::new(config(Scheme::Vault, Some(chip_kill(23))), &mp).run();
    let s = &r.ras;
    assert!(s.due_events > 0, "every dead-rank read is a DUE");
    assert_eq!(s.detections, s.due_events);
    assert_eq!(s.corrections, 0);
    assert_eq!(s.parity_reads + s.companion_reads + s.scrub_writebacks, 0);
}

#[test]
fn secddr_chip_kill_is_detected_but_uncorrectable() {
    let mp = workload();
    // SecDDR has no tree at all, yet its link MAC detects every
    // corrupted transfer — and, with no parity structure, can never
    // correct one: all dead-rank reads are DUEs, none silent. (Before
    // detection became a model property this scheme would have been
    // misclassified as MAC-less and suffered SDCs.)
    let r = System::new(config(Scheme::SecDdr, Some(chip_kill(26))), &mp).run();
    let s = &r.ras;
    assert!(s.due_events > 0, "dead-rank reads must surface as DUEs");
    assert_eq!(s.detections, s.due_events);
    assert_eq!(s.sdc_events, 0, "the link MAC leaves nothing silent");
    assert_eq!(s.corrections, 0);
    assert_eq!(s.parity_reads + s.companion_reads + s.scrub_writebacks, 0);
}

#[test]
fn iroram_chip_kill_corrects_through_bucket_parity() {
    let mp = workload();
    // IRO: every detected dead-rank read recovers through the 8-wide
    // bucket parity group — one parity fetch plus seven companion
    // reads per corrected block, like ITESP's shared-parity decode.
    let r = System::new(config(Scheme::IrOram, Some(chip_kill(27))), &mp).run();
    let s = &r.ras;
    assert_eq!(s.drills_executed, 1);
    assert!(s.corrections > 0, "dead-rank reads must trigger recovery");
    assert_eq!(s.detections, s.corrections);
    assert_eq!(s.uncorrected(), 0, "no SDC, no DUE: {s:?}");
    assert_eq!(s.parity_reads, s.corrections);
    assert_eq!(s.companion_reads, 7 * s.corrections);
    assert_eq!(s.scrub_writebacks, s.corrections);
}

#[test]
fn unsecure_scheme_suffers_silent_corruption() {
    let mp = workload();
    let r = System::new(config(Scheme::Unsecure, Some(chip_kill(24))), &mp).run();
    let s = &r.ras;
    assert!(s.sdc_events > 0, "no MAC means silent consumption");
    assert_eq!(s.detections, 0);
}

#[test]
fn ras_runs_are_deterministic() {
    let mp = workload();
    let mut cfg = chip_kill(25);
    cfg.fault_rate_per_mcycle = 50.0;
    let a = System::new(config(Scheme::Itesp, Some(cfg.clone())), &mp).run();
    let b = System::new(config(Scheme::Itesp, Some(cfg)), &mp).run();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.ras, b.ras);
    assert_eq!(a.dram.reads, b.dram.reads);
}

#[test]
fn transient_fault_storm_retires_pages_through_the_indirection_layer() {
    let mp = workload();
    // Synergy's per-block parity corrects any single-device fault with
    // a local RMW, so a dense transient-fault storm stays fully
    // correctable while the leaky bucket (threshold 1) retires every
    // faulting page.
    let mut cfg = RasConfig::new(31);
    cfg.fault_rate_per_mcycle = 2000.0;
    cfg.patrol_interval = 16; // aggressive patrol: find faults fast
    cfg.retire_threshold = 1;
    cfg.leak_interval = 0; // buckets never leak
    cfg.scrubber = itesp_reliability::Scrubber::hourly();
    let r = System::new(config(Scheme::Synergy, Some(cfg)), &mp).run();
    let s = &r.ras;
    assert!(s.faults_injected > 0);
    assert!(s.corrections > 0);
    assert_eq!(s.uncorrected(), 0, "single-device faults stay correctable");
    assert!(
        s.pages_retired > 0,
        "threshold-1 buckets must retire pages: {s:?}"
    );
    assert_eq!(s.migration_reads, s.pages_retired * 64);
    assert_eq!(s.migration_writes, s.pages_retired * 64);
    // Per-block parity travels with the block: no groups to break.
    assert_eq!(s.broken_groups, 0);
    assert_eq!(s.parity_reads, s.corrections, "local parity RMW per fix");
    assert_eq!(s.companion_reads, 0);
}

fn count_kind(r: &RunResult) -> (u64, u64) {
    (r.ras.detections, r.ras.corrections)
}

#[test]
fn drill_timing_is_honored() {
    let mp = workload();
    // A drill far past the end of the run never fires.
    let mut late = chip_kill(40);
    late.drills[0].at_dram_cycle = u64::MAX / 8;
    let r = System::new(config(Scheme::Itesp, Some(late)), &mp).run();
    assert_eq!(r.ras.drills_executed, 0);
    assert_eq!(count_kind(&r), (0, 0));
}
