//! Mutation self-test: the protocol checker must actually fire.
//!
//! Each test builds a [`Channel`] whose timing config has one seeded bug
//! (a shrunken constraint), drives it over a workload that exercises the
//! constraint, and validates the emitted command log against a checker
//! built from the *true* Table III config. The scheduler legitimately
//! schedules as aggressively as its (buggy) config allows, so the
//! checker must reject the log — proving the oracle detects real timing
//! bugs rather than vacuously passing everything.

use itesp_dram::{AddressDecoder, Channel, DramConfig};
use itesp_oracle::workload::{find_addr, run_arrivals, run_stream, Arrival, WorkloadRun};
use itesp_oracle::{ProtocolChecker, ProtocolViolation, ReferenceChannel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic stress mix: dense bursts, row conflicts, mixed
/// reads/writes, and a tail request that forces the run across a
/// refresh interval.
fn stress_mix() -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(0x5EED_0AC1E);
    let mut arrivals: Vec<Arrival> = (0..200)
        .map(|_| {
            (
                rng.gen_range(0u64..3),
                rng.gen_range(0u8..4),
                rng.gen::<u32>(),
                rng.gen::<bool>(),
            )
        })
        .collect();
    // Cross the first refresh deadline with work still pending.
    arrivals.push((2 * DramConfig::table_iii().timing.t_refi, 0, 1, false));
    arrivals
}

/// Run `arrivals` through a channel built with `bad` and validate the
/// log against `truth`; returns the violation the checker must raise.
fn expect_caught(truth: DramConfig, bad: DramConfig, arrivals: &[Arrival]) -> ProtocolViolation {
    let run = run_arrivals(&mut Channel::new(bad), arrivals);
    expect_violation(truth, &run)
}

fn expect_violation(truth: DramConfig, run: &WorkloadRun) -> ProtocolViolation {
    match ProtocolChecker::check_log(truth, &run.log, run.end_cycle) {
        Err(v) => v,
        Ok(()) => panic!("checker failed to catch the seeded timing bug"),
    }
}

/// Shrunken ACT-to-CAS delay: every row miss issues its column access
/// too early.
#[test]
fn catches_shrunken_trcd() {
    let truth = DramConfig::table_iii();
    let mut bad = truth;
    bad.timing.t_rcd = 2;
    let v = expect_caught(truth, bad, &stress_mix());
    assert_eq!(v.rule, "tRCD", "{v}");
}

/// Shrunken CAS-to-CAS spacing (with the matching shorter burst, so the
/// data-bus model doesn't mask it): back-to-back row hits pack too
/// tightly.
#[test]
fn catches_shrunken_tccd() {
    let truth = DramConfig::table_iii();
    let mut bad = truth;
    bad.timing.t_ccd = 1;
    bad.timing.t_burst = 1;
    let v = expect_caught(truth, bad, &stress_mix());
    assert!(
        v.rule == "tCCD" || v.rule == "bus-overlap",
        "expected a CAS-spacing violation, got {v}"
    );
}

/// Shrunken row-activate window: conflicts precharge the row before
/// tRAS expires.
#[test]
fn catches_shrunken_tras() {
    let truth = DramConfig::table_iii();
    let mut bad = truth;
    bad.timing.t_ras = 5;
    let v = expect_caught(truth, bad, &stress_mix());
    assert_eq!(v.rule, "tRAS", "{v}");
}

/// Shrunken precharge latency: the re-activate after a conflict comes
/// too early.
#[test]
fn catches_shrunken_trp() {
    let truth = DramConfig::table_iii();
    let mut bad = truth;
    bad.timing.t_rp = 1;
    let v = expect_caught(truth, bad, &stress_mix());
    assert_eq!(v.rule, "tRP", "{v}");
}

/// Shrunken write recovery: a conflict precharges too soon after the
/// last write burst.
#[test]
fn catches_shrunken_twr() {
    let truth = DramConfig::table_iii();
    let mut bad = truth;
    bad.timing.t_wr = 0;
    let v = expect_caught(truth, bad, &stress_mix());
    assert_eq!(v.rule, "tWR", "{v}");
}

/// Dropped write-to-read turnaround: reads chase writes onto the bus
/// without the tWTR gap. Everything is confined to rank 0 so the
/// write-drain exit hands the bus straight from a write to a read in
/// the same rank.
#[test]
fn catches_dropped_twtr() {
    let truth = DramConfig::table_iii();
    let mut bad = truth;
    bad.timing.t_wtr = 0;
    let dec = AddressDecoder::new(truth.geometry, truth.mapping);
    let mut stream = Vec::new();
    // A drain-triggering burst of writes (high watermark is 40).
    for i in 0..48u32 {
        stream.push((0u64, find_addr(&dec, 0, i % 8, i / 8), true));
    }
    // Row-hit reads into the same banks/rows while the drain is active.
    for b in 0..8u32 {
        stream.push((150, find_addr(&dec, 0, b, 5), false));
    }
    let run = run_stream(&mut Channel::new(bad), &dec, &stream);
    let v = expect_violation(truth, &run);
    assert_eq!(v.rule, "tWTR", "{v}");
}

/// Dropped rank-to-rank turnaround: bursts from different ranks abut on
/// the data bus.
#[test]
fn catches_dropped_trtrs() {
    let truth = DramConfig::table_iii();
    let mut bad = truth;
    bad.timing.t_rtrs = 0;
    let v = expect_caught(truth, bad, &stress_mix());
    assert_eq!(v.rule, "tRTRS", "{v}");
}

/// Reads to several banks of one rank, all at once — the ACT-spacing
/// workload for the tRRD / tFAW mutations.
fn same_rank_act_storm(truth: &DramConfig, banks: u32) -> Vec<(u64, u64, bool)> {
    let dec = AddressDecoder::new(truth.geometry, truth.mapping);
    (0..banks)
        .map(|b| (0u64, find_addr(&dec, 0, b, 1), false))
        .collect()
}

/// Shrunken ACT-to-ACT spacing within a rank.
#[test]
fn catches_shrunken_trrd() {
    let truth = DramConfig::table_iii();
    let mut bad = truth;
    bad.timing.t_rrd = 1;
    let stream = same_rank_act_storm(&truth, 6);
    let dec = AddressDecoder::new(bad.geometry, bad.mapping);
    let run = run_stream(&mut Channel::new(bad), &dec, &stream);
    let v = expect_violation(truth, &run);
    assert_eq!(v.rule, "tRRD", "{v}");
}

/// Shrunken four-activate window. Table III has tFAW == 4*tRRD, which
/// makes tRRD the binding constraint, so the "intended" config here is
/// Table III with a relaxed tRRD (a part where tFAW binds); the seeded
/// bug additionally shrinks tFAW. The checker, built from the intended
/// config, must flag the window violation.
#[test]
fn catches_shrunken_tfaw() {
    let mut truth = DramConfig::table_iii();
    truth.timing.t_rrd = 1;
    let mut bad = truth;
    bad.timing.t_faw = 6;
    let stream = same_rank_act_storm(&truth, 6);
    let dec = AddressDecoder::new(bad.geometry, bad.mapping);
    let run = run_stream(&mut Channel::new(bad), &dec, &stream);
    let v = expect_violation(truth, &run);
    assert_eq!(v.rule, "tFAW", "{v}");
}

/// Shrunken refresh interval: refreshes land off the true deadlines.
#[test]
fn catches_wrong_refresh_cadence() {
    let truth = DramConfig::table_iii();
    let mut bad = truth;
    bad.timing.t_refi = 4000;
    let v = expect_caught(truth, bad, &stress_mix());
    assert_eq!(v.rule, "refresh-deadline", "{v}");
}

/// Shrunken refresh blackout: an activate sneaks into the tRFC window.
#[test]
fn catches_shrunken_trfc() {
    let truth = DramConfig::table_iii();
    let mut bad = truth;
    bad.timing.t_rfc = 40;
    // A read to rank 0 arriving exactly at rank 0's first refresh
    // deadline: the buggy channel activates tRFC_bad after the refresh,
    // well inside the true blackout.
    let dec = AddressDecoder::new(truth.geometry, truth.mapping);
    let addr = find_addr(&dec, 0, 0, 1);
    let stream = vec![(truth.timing.t_refi, addr, false)];
    let run = run_stream(&mut Channel::new(bad), &dec, &stream);
    let v = expect_violation(truth, &run);
    assert_eq!(v.rule, "tRFC", "{v}");
}

/// A skipped refresh (the classic "forgot to refresh" bug, simulated by
/// deleting a refresh command from an otherwise-valid log) is reported
/// at end of run.
#[test]
fn catches_skipped_refresh() {
    let truth = DramConfig::table_iii();
    let run = run_arrivals(&mut Channel::new(truth), &stress_mix());
    // The unmutated log passes...
    ProtocolChecker::check_log(truth, &run.log, run.end_cycle).unwrap();
    // ...but dropping any single refresh must be caught (either as a
    // missed deadline at end of run or as the next refresh of that rank
    // landing off its deadline).
    let refresh_at = run
        .log
        .iter()
        .position(|c| c.cmd == itesp_dram::Command::Refresh)
        .expect("stress mix spans a refresh");
    let mut mutated = run.log.clone();
    mutated.remove(refresh_at);
    let v = ProtocolChecker::check_log(truth, &mutated, run.end_cycle)
        .expect_err("checker failed to catch a skipped refresh");
    assert!(
        v.rule == "refresh-missed" || v.rule == "refresh-deadline",
        "{v}"
    );
}

/// The reference scheduler with a seeded bug is caught just the same —
/// the checker is independent of which implementation produced the log.
#[test]
fn catches_mutation_in_reference_channel() {
    let truth = DramConfig::table_iii();
    let mut bad = truth;
    bad.timing.t_rcd = 2;
    let run = run_arrivals(&mut ReferenceChannel::new(bad), &stress_mix());
    let v = expect_violation(truth, &run);
    assert_eq!(v.rule, "tRCD", "{v}");
}
