//! Byte pins for the per-tenant lifecycle outputs.
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
//! `figmigrate.json` carries no per-tenant finals, so these pins are
//! the only cross-version check of `TenantFinal`. On mismatch the test
//! prints the full table of observed values.

use itesp_core::Scheme;
use itesp_migrate::{Cluster, ClusterConfig, ClusterWorkload};
use itesp_sim::{run_workload_churn, ExperimentParams};
use itesp_snap::crc32;
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload};

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
];

fn pin(label: impl Into<String>, bytes: &[u8]) -> (String, u32, usize) {
    (label.into(), crc32(bytes), bytes.len())
}

fn churn_pin(scheme: Scheme) -> (String, u32, usize) {
    let workload = ChurnWorkload::generate(
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
    );
    let params = ExperimentParams {
        seed: SEED,
        ..ExperimentParams::paper_4core(scheme, 400)
    };
    let r = run_workload_churn(&workload, params);
    let json = serde_json::to_string(&r.churn).unwrap();
    pin(format!("churn {}", scheme.label()), json.as_bytes())
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
    let got: Vec<(String, u32, usize)> = [Scheme::Unsecure, Scheme::Synergy, Scheme::Itesp]
        .into_iter()
        .map(churn_pin)
        .chain(
            [
                (Scheme::Itesp, 3),
                (Scheme::Synergy, 1),
                (Scheme::Synergy, 3),
            ]
            .map(|(s, n)| cluster_pin(s, n)),
        )
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
