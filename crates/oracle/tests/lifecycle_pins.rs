//! Byte pins for the per-tenant lifecycle outputs and for whole runs
//! under the simulator's drivers.
//!
//! Two drivers turn an enclave's lifecycle into a result: the timing
//! simulator's churn driver (`RunResult.churn`) and the migrating
//! cluster (`Cluster::tenants_json`, one `TenantFinal` per tenant).
//! Neither artifact may move when the code that produces it is
//! restructured, so this test pins the CRC-32 and length of each from
//! fixed seeds:
//!
//! * `serde_json` of `RunResult.churn` for a small churn run under
//!   Unsecure, Synergy and ITESP;
//! * `tenants_json()` of a 4-node cluster with scripted hops, a drain,
//!   the rebalancer and fault injection on, under ITESP (3 slots per
//!   node) and Synergy (1 and 3 slots per node — a shared-tree engine
//!   has one partition, so a fault on slot 2 must still find its
//!   parity through `SecurityEngine::locate`).
//!
//! * `serde_json` of the whole `RunResult` — cycles, per-core finish
//!   times, engine, DRAM, RAS and lifecycle counts — for runs with a
//!   driver attached: the three churn runs above, a churn run with the
//!   online RAS pipeline's Poisson faults on (ITESP), and a static
//!   4-core `mcf` run with Poisson faults plus one chip-kill drill
//!   (ITESP and Synergy), under the RAS and churn hooks, which the
//!   figures only check for invariants.
//! * the same for fault-free static 4-core runs of `mcf`, `bc` and
//!   `namd` under Unsecure, Synergy and ITESP, with no driver attached
//!   (the figures' regime; `namd` spends long stretches with memory
//!   idle).
//!
//! `stepping_oracle.rs` checks the stepping fast paths (core parking,
//! the clock jump) against per-cycle stepping; these pins keep the
//! stepped result itself from moving.
//!
//! `figmigrate.json` carries no per-tenant finals, so these pins are
//! the only cross-version check of `TenantFinal`. On mismatch the test
//! prints the full table of observed values.

use itesp_core::Scheme;
use itesp_migrate::{Cluster, ClusterConfig, ClusterWorkload};
use itesp_sim::{
    build_churn_ras_system, run_workload, run_workload_churn, run_workload_ras, Drill,
    ExperimentParams, RasConfig, RunResult,
};
use itesp_snap::crc32;
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload, MultiProgram};

const SEED: u64 = 0x5EED_0013;

/// `(output, crc32, length in bytes)`.
const PINS: &[(&str, u32, usize)] = &[
    ("churn UNSECURE", 0x372660cc, 234),
    ("churn SYNERGY", 0x92d33e93, 236),
    ("churn ITESP", 0xdd0b5710, 242),
    ("cluster ITESP 4x3", 0x2aadc957, 3445),
    ("cluster SYNERGY 4x1", 0x919ffed4, 3427),
    // Per-tenant finals do not depend on placement: 3 slots per node
    // reproduce the 1-slot run.
    ("cluster SYNERGY 4x3", 0x919ffed4, 3427),
    ("run churn UNSECURE", 0xd3adda2c, 1413),
    ("run churn SYNERGY", 0x22bbfac0, 1424),
    ("run churn ITESP", 0x259f8d4f, 1430),
    ("run churn+RAS ITESP", 0x51648eda, 1427),
    ("run static RAS ITESP", 0x0842cf9a, 1488),
    ("run static RAS SYNERGY", 0xc400a472, 1495),
    ("run static mcf UNSECURE", 0xc267aedb, 1395),
    ("run static mcf SYNERGY", 0x778016eb, 1454),
    ("run static mcf ITESP", 0xb45ae3e6, 1445),
    ("run static bc UNSECURE", 0xec800ac5, 1395),
    ("run static bc SYNERGY", 0xbe4a4f0d, 1439),
    ("run static bc ITESP", 0x9f52e1ea, 1430),
    ("run static namd UNSECURE", 0x5778af56, 1421),
    ("run static namd SYNERGY", 0x7584a9b8, 1451),
    ("run static namd ITESP", 0x599ab0b7, 1434),
];

fn pin(label: impl Into<String>, bytes: &[u8]) -> (String, u32, usize) {
    (label.into(), crc32(bytes), bytes.len())
}

fn run_pin(label: &str, r: &RunResult) -> (String, u32, usize) {
    pin(
        format!("run {label}"),
        serde_json::to_string(r).unwrap().as_bytes(),
    )
}

fn churn_workload() -> ChurnWorkload {
    ChurnWorkload::generate(
        benchmark("mcf").unwrap(),
        &ChurnConfig {
            slots: 4,
            sessions_per_slot: 2,
            ops_per_session: 400,
            mean_arrival_gap: 5_000.0,
            footprint_pages: 16,
            free_fraction: 0.4,
            seed: SEED,
        },
    )
}

fn churn_params(scheme: Scheme) -> ExperimentParams {
    ExperimentParams {
        seed: SEED,
        ..ExperimentParams::paper_4core(scheme, 400)
    }
}

/// The churn run's lifecycle counts, then the whole run.
fn churn_pins(scheme: Scheme) -> [(String, u32, usize); 2] {
    let r = run_workload_churn(&churn_workload(), churn_params(scheme));
    let json = serde_json::to_string(&r.churn).unwrap();
    [
        pin(format!("churn {}", scheme.label()), json.as_bytes()),
        run_pin(&format!("churn {}", scheme.label()), &r),
    ]
}

/// Churn with the RAS pipeline's Poisson faults on, built like the
/// `SYST` snapshot pin's system.
fn churn_ras_pin() -> (String, u32, usize) {
    let ras = RasConfig::new(SEED ^ 0xFA17).with_fault_rate(20.0);
    let sys = build_churn_ras_system(&churn_workload(), churn_params(Scheme::Itesp), ras);
    run_pin("churn+RAS ITESP", &sys.try_run().unwrap())
}

/// A static 4-core `mcf` run with Poisson faults and one chip kill.
fn static_ras_pin(scheme: Scheme) -> (String, u32, usize) {
    let mp = MultiProgram::homogeneous(benchmark("mcf").unwrap(), 4, 1_000, SEED);
    let ras = RasConfig::new(SEED ^ 0xC41F)
        .with_fault_rate(20.0)
        .with_drill(Drill {
            at_dram_cycle: 2_000,
            channel: 0,
            rank: 1,
            chip: 3,
        });
    let r = run_workload_ras(&mp, ExperimentParams::paper_4core(scheme, 1_000), ras).unwrap();
    assert_eq!(r.ras.drills_executed, 1, "the chip kill fires");
    run_pin(&format!("static RAS {}", scheme.label()), &r)
}

/// A fault-free static 4-core run: the figures' regime, with no
/// driver attached. `namd` is compute-bound enough to leave memory
/// idle for long stretches.
fn static_pin(bench: &str, scheme: Scheme) -> (String, u32, usize) {
    let mp = MultiProgram::homogeneous(benchmark(bench).unwrap(), 4, 2_000, SEED);
    let r = run_workload(&mp, ExperimentParams::paper_4core(scheme, 2_000));
    run_pin(&format!("static {bench} {}", scheme.label()), &r)
}

fn cluster_pin(scheme: Scheme, slots_per_node: usize) -> (String, u32, usize) {
    let churn = ChurnWorkload::generate(
        benchmark("mcf").unwrap(),
        &ChurnConfig {
            slots: 3,
            sessions_per_slot: 3,
            ops_per_session: 300,
            mean_arrival_gap: 20_000.0,
            footprint_pages: 24,
            free_fraction: 0.35,
            seed: SEED,
        },
    );
    let wl = ClusterWorkload::from_churn(&churn, 6);
    let mut cfg = ClusterConfig::small(4, slots_per_node, scheme);
    cfg.seed = SEED;
    cfg.fault_inverse = 50;
    cfg.rebalance_every = 48;
    cfg.rebalance_threshold = 6;
    let mut c = Cluster::new(cfg, wl.clone());
    let a0 = wl.tenants[0].arrival;
    let a1 = wl.tenants[1].arrival.max(a0 + 40);
    c.schedule_migration(a0 + 40, 0, 2);
    c.schedule_migration(a1 + 40, 1, 3);
    c.schedule_migration(a1 + 120, 0, 1);
    c.schedule_drain(a1 + 160, 0);
    c.run_to_completion().unwrap();
    assert!(c.stats().migrations_committed >= 2, "{:?}", c.stats());
    assert!(c.nodes()[0].retired(), "the drained node retires");
    pin(
        format!("cluster {} 4x{slots_per_node}", scheme.label()),
        c.tenants_json().as_bytes(),
    )
}

#[test]
fn lifecycle_outputs_match_their_pins() {
    let churn: Vec<[(String, u32, usize); 2]> = [Scheme::Unsecure, Scheme::Synergy, Scheme::Itesp]
        .into_iter()
        .map(churn_pins)
        .collect();
    let got: Vec<(String, u32, usize)> = churn
        .iter()
        .map(|[lifecycle, _]| lifecycle.clone())
        .chain(
            [
                (Scheme::Itesp, 3),
                (Scheme::Synergy, 1),
                (Scheme::Synergy, 3),
            ]
            .map(|(s, n)| cluster_pin(s, n)),
        )
        .chain(churn.iter().map(|[_, run]| run.clone()))
        .chain([churn_ras_pin()])
        .chain([Scheme::Itesp, Scheme::Synergy].map(static_ras_pin))
        .chain(["mcf", "bc", "namd"].into_iter().flat_map(|bench| {
            [Scheme::Unsecure, Scheme::Synergy, Scheme::Itesp].map(|s| static_pin(bench, s))
        }))
        .collect();
    let table: String = got
        .iter()
        .map(|(label, crc, len)| format!("    ({label:?}, 0x{crc:08x}, {len}),\n"))
        .collect();
    let expected: Vec<(String, u32, usize)> = PINS
        .iter()
        .map(|&(l, c, n)| (l.to_string(), c, n))
        .collect();
    assert_eq!(got, expected, "observed pins:\n{table}");
}
