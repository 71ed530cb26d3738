//! The unmutated schedulers obey the DDR3 protocol.
//!
//! Both the optimized [`Channel`] and the [`ReferenceChannel`] are driven
//! over the same randomized arrival mixes as the scheduler-equivalence
//! property tests (plus the fixed corner-case workloads), and every
//! command they emit is validated by the independent protocol checker.

use itesp_dram::{Channel, DramConfig};
use itesp_oracle::workload::{run_arrivals, Arrival};
use itesp_oracle::{with_seeds, ProtocolChecker, ReferenceChannel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Validate one arrival mix on both scheduler implementations.
fn check_both(arrivals: &[Arrival]) {
    let cfg = DramConfig::table_iii();
    for reference in [false, true] {
        let run = if reference {
            run_arrivals(&mut ReferenceChannel::new(cfg), arrivals)
        } else {
            run_arrivals(&mut Channel::new(cfg), arrivals)
        };
        let which = if reference {
            "ReferenceChannel"
        } else {
            "Channel"
        };
        assert_eq!(
            run.completions.len(),
            arrivals.len(),
            "{which} lost completions"
        );
        if let Err(v) = ProtocolChecker::check_log(cfg, &run.log, run.end_cycle) {
            panic!("{which}: {v}");
        }
    }
}

/// The general mix: mixed gaps, row hits, and same-bank row conflicts.
#[test]
fn protocol_conformance_random_mix() {
    with_seeds("protocol_conformance_random_mix", 48, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(1usize..100);
        let arrivals: Vec<Arrival> = (0..len)
            .map(|_| {
                (
                    rng.gen_range(0u64..8),
                    rng.gen_range(0u8..4),
                    rng.gen::<u32>(),
                    rng.gen::<bool>(),
                )
            })
            .collect();
        check_both(&arrivals);
    });
}

/// Zero-gap bursts: queue saturation, backpressure, and write-drain mode.
#[test]
fn protocol_conformance_bursty_mix() {
    with_seeds("protocol_conformance_bursty_mix", 24, |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(32usize..128);
        let arrivals: Vec<Arrival> = (0..len)
            .map(|_| {
                (
                    0,
                    rng.gen_range(0u8..2),
                    rng.gen::<u32>(),
                    rng.gen::<bool>(),
                )
            })
            .collect();
        check_both(&arrivals);
    });
}

/// Reads arriving at every parity of the write-drain flag oscillation.
#[test]
fn protocol_conformance_drain_flag_oscillation() {
    for read_arrival in [901u64, 902, 903, 904] {
        let arrivals: Vec<Arrival> = vec![
            (0, 0, 0, true),
            (0, 1, 0, true),
            (read_arrival, 0, 5, false),
            (1, 0, 9, false),
        ];
        check_both(&arrivals);
    }
}

/// Long idle gaps: refreshes fired by the channel's wake logic must land
/// exactly on their staggered deadlines.
#[test]
fn protocol_conformance_idle_gaps_spanning_refresh() {
    let t = DramConfig::table_iii().timing;
    let arrivals: Vec<Arrival> = vec![
        (0, 0, 0, false),
        (t.t_refi + 3, 1, 1, true),
        (2 * t.t_refi, 0, 77, false),
    ];
    check_both(&arrivals);
}
