//! Stepping oracle: the run loop's fast paths against per-cycle
//! stepping.
//!
//! `System::run_loop` elides work in two ways. Core parking skips a
//! core whose retire and fetch are provable no-ops until a completion
//! or a session reload. The clock jump (`try_bulk_advance`) applies a
//! window of linear core phases in one step when no memory or driver
//! event lands inside it. Both claim to change nothing, so every case
//! here runs twice from the same inputs: once as the figures run it,
//! and once after `System::step_every_cycle`, where every core steps
//! every CPU cycle and memory every DRAM cycle in the same loop. The
//! whole `RunResult` JSON must match. The cases:
//!
//! * all 15 schemes on a small static 4-core mix of `namd` (long idle
//!   memory phases) and `mcf`/`bc` (busy memory);
//! * the online RAS pipeline with dense Poisson faults, a chip-kill
//!   drill and a short leaky-bucket interval;
//! * enclave churn, with and without RAS;
//! * a snapshot sink with a short cadence: both runs must commit at the
//!   same ticks (the WAL) with the same bytes (every retained file).
//!
//! Workload seeds come from [`with_seeds`]: fixed per test, and
//! `ITESP_TEST_SEED` replays one. On a mismatch the test names the case
//! and shows both outputs around the first differing byte.

use std::path::Path;

use itesp_core::Scheme;
use itesp_oracle::with_seeds;
use itesp_sim::{build_churn_ras_system, Drill, ExperimentParams, RasConfig, System};
use itesp_snap::{SnapshotSink, SnapshotStore};
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload, MultiProgram};

/// Ops per core of the static runs.
const OPS: usize = 600;

/// A run's whole outcome as text: the `RunResult` JSON, or the typed
/// error that ended it.
fn outcome(sys: System) -> String {
    match sys.try_run() {
        Ok(r) => serde_json::to_string(&r).unwrap(),
        Err(e) => format!("error: {e}"),
    }
}

/// Panic with both texts around their first difference.
fn assert_same(case: &str, fast: &str, stepped: &str) {
    if fast == stepped {
        return;
    }
    let at = fast
        .bytes()
        .zip(stepped.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(fast.len().min(stepped.len()));
    let window = |s: &str| {
        let bytes = &s.as_bytes()[at.saturating_sub(80).min(s.len())..(at + 80).min(s.len())];
        String::from_utf8_lossy(bytes).into_owned()
    };
    panic!(
        "{case}: the fast paths change the result (first difference at byte {at})\n  \
         fast:    ...{}...\n  stepped: ...{}...",
        window(fast),
        window(stepped)
    );
}

/// Run the system `build` makes with and without the fast paths.
fn check(case: &str, build: impl Fn() -> System) {
    let fast = outcome(build());
    let mut sys = build();
    sys.step_every_cycle();
    assert_same(case, &fast, &outcome(sys));
}

fn system(p: &ExperimentParams, ras: Option<RasConfig>, mp: &MultiProgram) -> System {
    let mut cfg = p.system_config();
    cfg.ras = ras;
    System::new(cfg, mp)
}

fn static_mix(seed: u64) -> MultiProgram {
    MultiProgram::mixed(&["namd", "mcf", "namd", "bc"], OPS, seed)
}

fn churn_workload(seed: u64) -> ChurnWorkload {
    ChurnWorkload::generate(
        benchmark("mcf").unwrap(),
        &ChurnConfig {
            slots: 4,
            sessions_per_slot: 2,
            ops_per_session: 300,
            mean_arrival_gap: 20_000.0,
            footprint_pages: 16,
            free_fraction: 0.4,
            seed,
        },
    )
}

fn churn_params(scheme: Scheme, seed: u64) -> ExperimentParams {
    ExperimentParams {
        seed,
        ..ExperimentParams::paper_4core(scheme, 300)
    }
}

/// Dense Poisson faults, one chip kill, and buckets that retire a page
/// at two strikes and leak every 512 DRAM cycles, so a deferred leak
/// lets buckets reach the threshold and retire pages.
fn ras_config(seed: u64) -> RasConfig {
    let mut ras = RasConfig::new(seed ^ 0xFA17)
        .with_fault_rate(2_000.0)
        .with_drill(Drill {
            at_dram_cycle: 3_000,
            channel: 0,
            rank: 1,
            chip: 3,
        });
    ras.retire_threshold = 2;
    ras.leak_interval = 512;
    ras
}

#[test]
fn stepping_oracle_static_all_schemes() {
    with_seeds("stepping_oracle_static_all_schemes", 1, |seed| {
        let mp = static_mix(seed);
        for scheme in Scheme::ALL {
            let p = ExperimentParams::paper_4core(scheme, OPS);
            check(&format!("static {} seed {seed}", scheme.label()), || {
                system(&p, None, &mp)
            });
        }
    });
}

#[test]
fn stepping_oracle_ras() {
    with_seeds("stepping_oracle_ras", 1, |seed| {
        let mp = static_mix(seed);
        for scheme in [Scheme::Synergy, Scheme::Itesp] {
            let p = ExperimentParams::paper_4core(scheme, OPS);
            check(&format!("RAS {} seed {seed}", scheme.label()), || {
                system(&p, Some(ras_config(seed)), &mp)
            });
        }
    });
}

#[test]
fn stepping_oracle_churn() {
    with_seeds("stepping_oracle_churn", 1, |seed| {
        let w = churn_workload(seed);
        for scheme in [Scheme::Unsecure, Scheme::Synergy, Scheme::Itesp] {
            let p = churn_params(scheme, seed);
            check(&format!("churn {} seed {seed}", scheme.label()), || {
                System::new_churn(p.system_config(), &w, seed)
            });
        }
        let p = churn_params(Scheme::Itesp, seed);
        check(&format!("churn+RAS ITESP seed {seed}"), || {
            build_churn_ras_system(&w, p, ras_config(seed))
        });
    });
}

/// Every commit's `(seq, tick)` from the WAL, then each retained
/// snapshot's bytes.
fn store_contents(dir: &Path) -> String {
    let store = SnapshotStore::open(dir).unwrap();
    let wal = store.wal_records().unwrap();
    let mut out = format!(
        "{:?}",
        wal.iter().map(|r| (r.seq, r.cycle)).collect::<Vec<_>>()
    );
    for r in &wal {
        if let Ok((meta, payload)) = store.load(r.seq) {
            out += &format!("\nsnapshot {} @ {}: {:02x?}", meta.seq, meta.cycle, payload);
        }
    }
    out
}

#[test]
fn stepping_oracle_snapshot_captures() {
    with_seeds("stepping_oracle_snapshot_captures", 1, |seed| {
        let w = churn_workload(seed);
        let p = churn_params(Scheme::Itesp, seed);
        let base = std::env::temp_dir().join(format!("itesp-stepping-{}", std::process::id()));
        let run = |stepped: bool| {
            let dir = base.join(if stepped { "stepped" } else { "fast" });
            let _ = std::fs::remove_dir_all(&dir);
            let mut sys = build_churn_ras_system(&w, p, ras_config(seed));
            if stepped {
                sys.step_every_cycle();
            }
            sys.attach_snapshots(SnapshotSink::new(&dir, 25_001).unwrap());
            let result = outcome(sys);
            (result, store_contents(&dir))
        };
        let (fast, fast_store) = run(false);
        let (stepped, stepped_store) = run(true);
        let _ = std::fs::remove_dir_all(&base);
        assert!(fast_store.contains("snapshot"), "the sink committed");
        assert_same(&format!("snapshot run seed {seed}"), &fast, &stepped);
        assert_same(
            &format!("snapshot store seed {seed}"),
            &fast_store,
            &stepped_store,
        );
    });
}
