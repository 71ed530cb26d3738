//! Property test: the optimized [`Channel`] is command-for-command
//! equivalent to the [`ReferenceChannel`] executable specification.
//!
//! Both channels are driven in lockstep with the same request stream,
//! ticking every cycle (so the optimized channel's event skipping must
//! be a provable no-op), and must produce identical command logs
//! (command, cycle, rank, bank, row), identical completion streams, and
//! identical statistics. Every property runs on the Table III geometry,
//! a 4-rank x 4-bank one and a 32-rank x 8-bank one, so neither the
//! bank-to-rank index nor the bank sets' word count is tied to one
//! shape; one property also snapshots the optimized channel mid-stream
//! and continues from a fresh channel loaded from the bytes.

use itesp_dram::{AddressDecoder, Channel, DramConfig, DramGeometry, Request};
use itesp_oracle::workload::{addr_for, Arrival};
use itesp_oracle::ReferenceChannel;
use itesp_snap::{Persist, SnapReader, SnapWriter};
use proptest::prelude::*;

/// The geometries every property runs on: Table III (16 ranks x 8
/// banks), a small 4 x 4 one, and a 32 x 8 one whose 256 banks span
/// four 64-bit words of the scheduler's bank sets (dense low blocks
/// reach every rank, so banks past index 128 queue requests).
fn configs() -> [DramConfig; 3] {
    let geometry = |ranks_per_channel, banks_per_rank| {
        DramGeometry {
            ranks_per_channel,
            banks_per_rank,
            ..DramGeometry::table_iii()
        }
        .validated()
        .expect("test geometry is valid")
    };
    [
        DramConfig::table_iii(),
        DramConfig {
            geometry: geometry(4, 4),
            ..DramConfig::table_iii()
        },
        DramConfig {
            geometry: geometry(32, 8),
            ..DramConfig::table_iii()
        },
    ]
}

/// Snapshot `ch` and load the bytes into a fresh channel of `cfg`.
fn restored(ch: &Channel, cfg: DramConfig) -> Channel {
    let mut w = SnapWriter::new();
    ch.save(&mut w);
    let bytes = w.into_bytes();
    let mut r = SnapReader::new(&bytes);
    let mut fresh = Channel::new(cfg);
    fresh
        .load(&mut r, "channel")
        .expect("channel snapshot loads");
    r.finish().expect("channel snapshot fully consumed");
    fresh
}

/// Drive both schedulers with the same arrivals and assert equivalence.
///
/// With `restore_at`, the optimized channel runs unlogged (a logged
/// channel refuses to snapshot) until the first cycle at or after
/// `restore_at` with a request queued; there it is replaced by a fresh
/// channel loaded from its snapshot, and command logs are compared from
/// that cycle on. Completions and occupancy are compared every cycle,
/// stats at the end. Returns whether the restore happened.
fn check_equivalence(cfg: DramConfig, arrivals: &[Arrival], restore_at: Option<u64>) -> bool {
    let dec = AddressDecoder::new(cfg.geometry, cfg.mapping);
    let mut opt = Channel::new(cfg);
    let mut refc = ReferenceChannel::new(cfg);
    let mut pending_restore = restore_at;
    if pending_restore.is_none() {
        opt.enable_cmd_log();
    }
    refc.enable_cmd_log();

    // Absolute arrival times from the generated gaps.
    let mut stream: Vec<(u64, u64, bool)> = Vec::new(); // (cycle, addr, is_write)
    let mut at = 0u64;
    for &(gap, kind, idx, is_write) in arrivals {
        at += gap;
        stream.push((at, addr_for(&cfg, kind, idx), is_write));
    }

    let mut next = 0usize; // next stream entry to enqueue
    let mut id = 0u64;
    let mut now = 0u64;
    let deadline = 4_000_000u64;
    while (next < stream.len() || !opt.is_idle() || !refc.is_idle()) && now < deadline {
        // Enqueue everything that has arrived, with identical
        // backpressure: a full queue retries next cycle.
        while next < stream.len() && stream[next].0 <= now {
            let (_, addr, is_write) = stream[next];
            let req = Request::new(id, addr, dec.decode(addr), is_write, now);
            let a = opt.enqueue(req);
            let b = refc.enqueue(req);
            assert_eq!(a, b, "enqueue acceptance diverged at cycle {now}");
            if !a {
                break; // full; retry next cycle
            }
            id += 1;
            next += 1;
        }
        if pending_restore.is_some_and(|at| now >= at && !opt.is_idle()) {
            opt = restored(&opt, cfg);
            opt.enable_cmd_log();
            refc.take_cmd_log();
            pending_restore = None;
        }
        opt.tick(now);
        refc.tick(now);
        let (mut co, mut cr) = (Vec::new(), Vec::new());
        opt.drain_completions_into(&mut co);
        refc.drain_completions_into(&mut cr);
        assert_eq!(co, cr, "completions diverged at cycle {now}");
        assert_eq!(
            opt.occupancy(),
            refc.occupancy(),
            "occupancy diverged at cycle {now}"
        );
        now += 1;
    }
    assert!(now < deadline, "channels failed to drain");
    assert_eq!(
        opt.take_cmd_log(),
        refc.take_cmd_log(),
        "command streams diverged"
    );
    assert_eq!(opt.stats(), refc.stats(), "stats diverged");
    restore_at.is_some() && pending_restore.is_none()
}

proptest! {
    fn optimized_scheduler_matches_reference(
        arrivals in prop::collection::vec(
            (0u64..8, 0u8..4, any::<u32>(), any::<bool>()),
            1..100,
        ),
    ) {
        for cfg in configs() {
            check_equivalence(cfg, &arrivals, None);
        }
    }

    fn optimized_scheduler_matches_reference_bursty(
        arrivals in prop::collection::vec(
            // Zero gaps: everything arrives at once and saturates the
            // queues, exercising backpressure and write-drain mode.
            (0u64..1, 0u8..2, any::<u32>(), any::<bool>()),
            32..128,
        ),
    ) {
        for cfg in configs() {
            check_equivalence(cfg, &arrivals, None);
        }
    }

    fn optimized_scheduler_matches_reference_across_restore(
        arrivals in prop::collection::vec(
            // Bursty, so the queues are still full when the snapshot
            // is taken, with rows open that queued requests hit.
            (0u64..1, 0u8..2, any::<u32>(), any::<bool>()),
            32..128,
        ),
        restore_at in 1u64..64,
    ) {
        for cfg in configs() {
            prop_assert!(
                check_equivalence(cfg, &arrivals, Some(restore_at)),
                "stream drained before the restore point"
            );
        }
    }
}

/// The write-drain flag oscillates every cycle while the read queue is
/// empty and the write queue sits at or below the low watermark; reads
/// arriving at either parity of that oscillation must see identical
/// scheduling.
#[test]
fn drain_flag_oscillation_parity() {
    for read_arrival in [901u64, 902, 903, 904] {
        let arrivals: Vec<Arrival> = vec![
            (0, 0, 0, true),
            (0, 1, 0, true),
            (read_arrival, 0, 5, false),
            (1, 0, 9, false),
        ];
        for cfg in configs() {
            check_equivalence(cfg, &arrivals, None);
        }
    }
}

/// Long idle gaps between requests: refreshes fire during the gap and
/// the optimized channel's wake computation must land on them exactly.
#[test]
fn idle_gaps_spanning_refresh() {
    let t = DramConfig::table_iii().timing;
    let arrivals: Vec<Arrival> = vec![
        (0, 0, 0, false),
        (t.t_refi + 3, 1, 1, true),
        (2 * t.t_refi, 0, 77, false),
    ];
    for cfg in configs() {
        check_equivalence(cfg, &arrivals, None);
    }
}
