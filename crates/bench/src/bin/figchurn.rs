//! Churn sweep: enclave lifecycle cost across arrival rate x footprint.
//!
//! For each sweep point (bursty vs. steady Poisson arrivals, small vs.
//! large session footprint) every headline scheme serves the same
//! multi-tenant churn schedule: enclaves are created, grow their
//! private trees on first-touch, free pages mid-life (leaf-ids recycle
//! with mandatory counter resets), and are destroyed with their
//! metadata zeroized and the survivors' cache partitions rebuilt. The
//! table reports the slowdown against an unsecure run of the same
//! schedule plus the lifecycle traffic breakdown.
//!
//! Acceptance invariants (checked here, seed printed on failure):
//! every admitted session is served to completion; page frees and
//! leaf-id recycling occur at every sweep point; isolated-tree schemes
//! pay real init/zeroize traffic while shared-tree schemes only pay
//! leaf resets; the unsecure baseline does zero metadata work.
//!
//! Each sweep point is its own campaign sub-target (`figchurn.<point>`),
//! so `--resume` skips completed arrival-rate points.
//!
//! Run: `cargo run --release -p itesp-bench --bin figchurn [ops]`
//! (supports `--resume`, `--timeout`; see EXPERIMENTS.md)

use itesp_bench::{ops_from_env, print_table, run_campaign, save_json};
use itesp_core::Scheme;
use itesp_reliability::env_seed;
use itesp_sim::{run_workload_churn, ExperimentParams, RunResult};
use itesp_snap::Persist;
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload};
use serde::Serialize;

const SCHEMES: [Scheme; 5] = [
    Scheme::Unsecure,
    Scheme::Vault,
    Scheme::Synergy,
    Scheme::ItSynergySharedParity,
    Scheme::Itesp,
];

/// Sweep points: (sub-target label, mean arrival gap in CPU cycles,
/// session footprint in pages).
const SWEEPS: [(&str, f64, u64); 4] = [
    ("burst16", 4_000.0, 16),
    ("burst64", 4_000.0, 64),
    ("steady16", 40_000.0, 16),
    ("steady64", 40_000.0, 64),
];

const SLOTS: usize = 4;
const SESSIONS_PER_SLOT: usize = 3;
const FREE_FRACTION: f64 = 0.3;

#[derive(Default, Serialize, Persist)]
struct Row {
    sweep: String,
    arrival_gap: f64,
    footprint_pages: u64,
    scheme: String,
    slowdown: f64,
    sessions: u64,
    grows: u64,
    pages_freed: u64,
    leaves_recycled: u64,
    peak_live_pages: u64,
    init_writes: u64,
    migration_reads: u64,
    reset_writes: u64,
    zeroize_writes: u64,
    lifecycle_accesses: u64,
}

fn churn_config(gap: f64, footprint_pages: u64, ops: usize, seed: u64) -> ChurnConfig {
    ChurnConfig {
        slots: SLOTS,
        sessions_per_slot: SESSIONS_PER_SLOT,
        // `ops` is the total budget across all sessions, so the sweep
        // costs roughly one static figure run per scheme.
        ops_per_session: (ops / (SLOTS * SESSIONS_PER_SLOT)).max(200),
        mean_arrival_gap: gap,
        footprint_pages,
        free_fraction: FREE_FRACTION,
        seed,
    }
}

fn check_invariants(scheme: Scheme, sweep: &str, cfg: &ChurnConfig, r: &RunResult, seed: u64) {
    let c = &r.churn;
    let replay =
        format!("replay: ITESP_TEST_SEED={seed} cargo run --release -p itesp-bench --bin figchurn");
    let sessions = (cfg.slots * cfg.sessions_per_slot) as u64;
    assert_eq!(
        c.created, sessions,
        "{sweep}: every session admitted ({replay})"
    );
    assert_eq!(
        c.destroyed, sessions,
        "{sweep}: every session torn down ({replay})"
    );
    assert_eq!(
        r.engine.data_accesses(),
        sessions * cfg.ops_per_session as u64,
        "{sweep}: every record served ({replay})"
    );
    assert!(c.pages_freed > 0, "{sweep}: frees must fire ({replay})");
    assert!(
        c.grows > 0,
        "{sweep}: first-touch must outgrow the initial tree ({replay})"
    );
    assert!(
        c.leaves_recycled > 0,
        "{sweep}: freed leaf-ids must recycle ({replay})"
    );
    match scheme {
        Scheme::Unsecure => {
            assert_eq!(
                c.lifecycle_accesses(),
                0,
                "{sweep}: unsecure pays no lifecycle traffic ({replay})"
            );
        }
        Scheme::Vault | Scheme::Synergy => {
            // Shared-tree schemes: no private tree to build or zeroize,
            // but recycled leaves still get counter resets.
            assert_eq!(
                c.init_writes, 0,
                "{sweep}: shared tree pre-exists ({replay})"
            );
            assert_eq!(
                c.zeroize_writes, 0,
                "{sweep}: nothing private to wipe ({replay})"
            );
            assert!(
                c.reset_writes > 0,
                "{sweep}: frees reset counters ({replay})"
            );
        }
        _ => {
            // Isolated-tree schemes pay the full lifecycle.
            assert!(
                c.init_writes > 0,
                "{scheme:?} builds a private tree ({replay})"
            );
            assert!(
                c.zeroize_writes > 0,
                "{scheme:?} wipes on destroy ({replay})"
            );
            assert!(
                c.reset_writes > 0,
                "{sweep}: frees reset counters ({replay})"
            );
        }
    }
}

fn main() {
    let ops = ops_from_env();
    let seed = env_seed(0x5EED);

    let mut rows: Vec<Row> = Vec::new();
    for (label, gap, footprint) in SWEEPS {
        let target = format!("figchurn.{label}");
        let sweep: Vec<Row> = run_campaign(&target, SCHEMES.len(), move |i| {
            let scheme = SCHEMES[i];
            let cfg = churn_config(gap, footprint, ops, seed);
            let w = ChurnWorkload::generate(benchmark("mcf").unwrap(), &cfg);
            let mut p = ExperimentParams::paper_4core(scheme, ops);
            p.seed = seed;
            let r = run_workload_churn(&w, p);
            check_invariants(scheme, label, &cfg, &r, seed);
            let mut pb = p;
            pb.scheme = Scheme::Unsecure;
            let base = run_workload_churn(&w, pb);
            let c = &r.churn;
            eprintln!("[{label}/{scheme:?}: done]");
            Row {
                sweep: label.to_owned(),
                arrival_gap: gap,
                footprint_pages: footprint,
                scheme: format!("{scheme:?}"),
                slowdown: r.normalized_time(&base),
                sessions: c.created,
                grows: c.grows,
                pages_freed: c.pages_freed,
                leaves_recycled: c.leaves_recycled,
                peak_live_pages: c.peak_live_pages,
                init_writes: c.init_writes,
                migration_reads: c.migration_reads,
                reset_writes: c.reset_writes,
                zeroize_writes: c.zeroize_writes,
                lifecycle_accesses: c.lifecycle_accesses(),
            }
        })
        .into_rows_or_exit();
        rows.extend(sweep);
    }

    println!(
        "Churn sweep: arrival rate x footprint ({SLOTS} slots, {SESSIONS_PER_SLOT} \
         sessions/slot, mcf, {ops} ops total, seed {seed})\n"
    );
    let headers = [
        "sweep",
        "scheme",
        "slowdown",
        "sessions",
        "grows",
        "freed",
        "recycled",
        "peak pages",
        "init wr",
        "migr rd",
        "reset wr",
        "zero wr",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.sweep.clone(),
                r.scheme.clone(),
                format!("{:.2}x", r.slowdown),
                r.sessions.to_string(),
                r.grows.to_string(),
                r.pages_freed.to_string(),
                r.leaves_recycled.to_string(),
                r.peak_live_pages.to_string(),
                r.init_writes.to_string(),
                r.migration_reads.to_string(),
                r.reset_writes.to_string(),
                r.zeroize_writes.to_string(),
            ]
        })
        .collect();
    print_table(&headers, &table);
    println!("\nAll lifecycle invariants held: every session served, recycled leaves");
    println!("were counter-reset, and only isolated-tree schemes paid init/zeroize.");
    save_json("figchurn", &rows);
}
