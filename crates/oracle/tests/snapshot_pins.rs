//! Byte pins for the snapshot wire format.
//!
//! Every stateful layer's snapshot is a behavioural spec: crash
//! recovery, anti-rollback and live migration all depend on state
//! surviving *exactly*. This test drives each snapshot root from fixed
//! seeds and pins the CRC-32 and length of the encoded bytes:
//!
//! * `SecurityEngine` (`ENGN`) mid-stream, for all 15 schemes and with
//!   the counter-overflow tracker on;
//! * a churn + RAS timing `System` (`SYST`);
//! * a mid-migration `Cluster` (`CLUS`) and the in-flight `MIGB` blob;
//! * a filled serve `Registry` (`SRVT`).
//!
//! A pin may only change together with a deliberate version bump of a
//! section the snapshot contains, or with a deliberate change to the
//! state it captures; a codec refactor that keeps every version must
//! keep every pin. On mismatch the test prints the full table of
//! observed values. [`BUMPS`] lists every bumped section, and each
//! must refuse bytes at its old version with `SnapError::Version`.

use itesp_core::{EngineConfig, Scheme, SecurityEngine};
use itesp_dram::{DramConfig, MemorySystem};
use itesp_enclave::EnclaveManager;
use itesp_migrate::{Cluster, ClusterConfig, ClusterWorkload, Residence, TenantLedger};
use itesp_serve::{Registry, TenantStats};
use itesp_sim::{
    build_churn_ras_system, ChurnDriver, ExperimentParams, RasConfig, SnapshotSink, System,
};
use itesp_snap::{crc32, Persist, SnapError, SnapReader, SnapWriter, SnapshotStore};
use itesp_trace::{benchmark, ChurnConfig, ChurnWorkload, FrameAllocator, FreeListModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x5EED_0012;

/// `(snapshot, crc32, length in bytes)`. The tree-walk engines (every
/// `ENGN` but `SECDDR` and `IRORAM`), `SYST`, `CLUS` and `MIGB` contain
/// sections bumped since these pins were first taken; [`BUMPS`] lists
/// each with its reason.
const PINS: &[(&str, u32, usize)] = &[
    ("ENGN UNSECURE", 0x90827f8c, 234),
    ("ENGN VAULT", 0x9d2004b5, 27043),
    ("ENGN ITVAULT", 0x4de96726, 27564),
    ("ENGN SYNERGY", 0x10b159b0, 26951),
    ("ENGN ITSYNERGY", 0x357af8e8, 27214),
    ("ENGN ITSYN+P$", 0x1072165e, 27565),
    ("ENGN ITSYN+SP", 0x28cd748e, 27213),
    ("ENGN ITSYN+SP+P$", 0x1a5c3296, 27568),
    ("ENGN ITESP", 0xa4dc9e41, 27210),
    ("ENGN SYN128", 0x426b2e52, 26950),
    ("ENGN ITSYN128", 0x302de454, 27213),
    ("ENGN ITESP64", 0x06f9a981, 27212),
    ("ENGN ITESP128", 0xd7c15aef, 27213),
    ("ENGN SECDDR", 0x6d875bf3, 227),
    ("ENGN IRORAM", 0x342af614, 27355),
    ("ENGN SYN128 +overflow", 0x1fcaf17c, 34800),
    ("ENGN ITESP128 +overflow", 0xb90db098, 36071),
    ("SYST churn+RAS @ cycle 100000", 0x5cda7687, 124684),
    ("CLUS tick 151", 0x4a06c2e7, 18465),
    ("MIGB tenant 0", 0x37773af7, 904),
    ("SRVT 4 tenants", 0xfe5547ed, 622),
];

fn pin(label: impl Into<String>, bytes: &[u8]) -> (String, u32, usize) {
    (label.into(), crc32(bytes), bytes.len())
}

/// One data access of a generated stream.
#[derive(Debug, Clone, Copy)]
struct AccessRequest {
    enclave: usize,
    paddr: u64,
    enclave_block: u64,
    is_write: bool,
}

/// Locality-shaped stream (bursts inside hot leaves, rare cold
/// excursions) so caches and counters are warm at the pin.
fn engine_stream(rng: &mut StdRng, enclaves: usize, n: usize) -> Vec<AccessRequest> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let enclave = rng.gen_range(0..enclaves);
        let leaf = if rng.gen_bool(0.9) {
            rng.gen_range(0..48u64)
        } else {
            rng.gen_range(0..48 * 64u64)
        };
        for _ in 0..rng.gen_range(1..=6u32) {
            let block = leaf * 64 + rng.gen_range(0..64u64);
            out.push(AccessRequest {
                enclave,
                paddr: block * 64,
                enclave_block: block,
                is_write: rng.gen_bool(0.4),
            });
        }
    }
    out.truncate(n);
    out
}

/// Every scheme at its paper defaults, plus the two high-arity schemes
/// with the local-counter overflow tracker (`OVFL`) switched on.
fn engine_pins() -> Vec<(String, u32, usize)> {
    let overflow = [Scheme::Syn128, Scheme::Itesp128].map(|s| (s, true));
    Scheme::ALL
        .iter()
        .map(|&s| (s, false))
        .chain(overflow)
        .map(|(scheme, model_overflow)| {
            let cfg = EngineConfig {
                model_overflow,
                ..EngineConfig::paper_default(scheme)
            };
            let mut rng = StdRng::seed_from_u64(SEED);
            let mut engine = SecurityEngine::new(cfg);
            for r in engine_stream(&mut rng, cfg.enclaves, 1_000) {
                engine.on_access(r.enclave, r.paddr, r.enclave_block, r.is_write);
            }
            let mut w = SnapWriter::new();
            w.put(&engine);
            let overflow = if model_overflow { " +overflow" } else { "" };
            pin(
                format!("ENGN {}{overflow}", scheme.label()),
                &w.into_bytes(),
            )
        })
        .collect()
}

/// The churn + RAS timing system the `SYST` pin captures, unrun.
fn churn_ras_system() -> System {
    let workload = ChurnWorkload::generate(
        benchmark("mcf").unwrap(),
        &ChurnConfig {
            slots: 4,
            sessions_per_slot: 3,
            ops_per_session: 300,
            mean_arrival_gap: 5_000.0,
            footprint_pages: 16,
            free_fraction: 0.3,
            seed: SEED,
        },
    );
    let params = ExperimentParams {
        seed: SEED,
        ..ExperimentParams::paper_4core(Scheme::Itesp, 300)
    };
    build_churn_ras_system(
        &workload,
        params,
        RasConfig::new(SEED ^ 0xFA17).with_fault_rate(20.0),
    )
}

fn system_pin() -> (String, u32, usize) {
    let mut sys = churn_ras_system();
    let dir = std::env::temp_dir().join(format!("itesp-snapshot-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    sys.attach_snapshots(SnapshotSink::new(&dir, 100_000).unwrap());
    sys.try_run().unwrap();
    let store = SnapshotStore::open(&dir).unwrap();
    let (meta, payload, _) = store.load_latest_good().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    pin(format!("SYST churn+RAS @ cycle {}", meta.cycle), &payload)
}

fn cluster_pins() -> Vec<(String, u32, usize)> {
    let churn = ChurnWorkload::generate(
        benchmark("mcf").unwrap(),
        &ChurnConfig {
            slots: 2,
            sessions_per_slot: 2,
            ops_per_session: 250,
            mean_arrival_gap: 10_000.0,
            footprint_pages: 16,
            free_fraction: 0.3,
            seed: SEED,
        },
    );
    let mut cfg = ClusterConfig::small(3, 2, Scheme::Itesp);
    cfg.master = SEED ^ 0x6d16_9a7e_0000_0001;
    cfg.seed = SEED.rotate_left(11);
    let mut c = Cluster::new(cfg, ClusterWorkload::from_churn(&churn, 6));
    for _ in 0..150 {
        c.step().unwrap();
    }
    let (tenant, home) = (0..6u64)
        .find_map(|t| match c.directory().entry(t)?.residence {
            Residence::Live { node } => Some((t, node)),
            _ => None,
        })
        .expect("a live tenant after 150 ticks");
    c.start_migration(tenant, (home + 1) % 3).unwrap();
    c.step().unwrap();
    let blob = c.inflight_blob(tenant).expect("transfer still in flight");
    let mut w = SnapWriter::new();
    c.save_state(&mut w);
    vec![
        pin(format!("CLUS tick {}", c.tick()), &w.into_bytes()),
        pin(format!("MIGB tenant {tenant}"), blob),
    ]
}

fn registry_pin() -> (String, u32, usize) {
    let reg = Registry::new();
    for tenant in [5u64, 1, 9, 3] {
        let cycles = 1_000 + tenant * 37;
        reg.complete(TenantStats {
            tenant,
            request_seq: tenant + 2,
            scheme: "ITESP".into(),
            benchmark: if tenant % 2 == 0 { "bc" } else { "mcf" }.into(),
            records: 100 * tenant,
            cycles,
            baseline_cycles: cycles / 2 + 1,
            slowdown: cycles as f64 / (cycles / 2 + 1) as f64,
            meta_per_access: 0.25 * tenant as f64,
            metadata_cache_accesses: 90 + tenant,
            metadata_cache_hits: 60 + tenant,
            parity_cache_accesses: 30,
            parity_cache_hits: tenant,
            ras_faults_injected: tenant % 3,
            ras_detections: tenant % 2,
            ras_corrections: tenant % 2,
            ras_sdc_events: 0,
            ras_due_events: 0,
        });
    }
    pin("SRVT 4 tenants", &reg.encode())
}

#[test]
fn snapshot_bytes_match_their_pins() {
    let mut got = engine_pins();
    got.push(system_pin());
    got.extend(cluster_pins());
    got.push(registry_pin());

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

fn bytes_of<T: Persist>(v: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put(v);
    w.into_bytes()
}

fn itesp_engine() -> SecurityEngine {
    SecurityEngine::new(EngineConfig::paper_default(Scheme::Itesp))
}

fn overflow_engine() -> SecurityEngine {
    SecurityEngine::new(EngineConfig {
        model_overflow: true,
        ..EngineConfig::paper_default(Scheme::Syn128)
    })
}

fn busy_memory() -> MemorySystem {
    let mut m = MemorySystem::new(DramConfig::table_iii());
    for i in 0..24u64 {
        m.enqueue_read(i * 4096 + 64, 0).unwrap();
    }
    m.tick(1);
    m
}

fn manager(master: u64) -> EnclaveManager {
    EnclaveManager::new(2, master)
}

/// A manager with one live, touched enclave.
fn populated_manager() -> EnclaveManager {
    let mut e = itesp_engine();
    let mut m = manager(7);
    m.create(&mut e, 1, 16);
    m.access(&mut e, 1, 5 * 4096, true, || 42);
    m
}

fn small_churn() -> ChurnWorkload {
    ChurnWorkload::generate(
        benchmark("mcf").unwrap(),
        &ChurnConfig {
            slots: 2,
            sessions_per_slot: 2,
            ops_per_session: 50,
            mean_arrival_gap: 1_000.0,
            footprint_pages: 8,
            free_fraction: 0.3,
            seed: SEED,
        },
    )
}

fn churn_driver() -> ChurnDriver {
    ChurnDriver::new(&small_churn(), 1 << 30, SEED)
}

fn frame_allocator() -> FrameAllocator {
    FrameAllocator::new(
        1 << 30,
        FreeListModel::Fragmented {
            mean_extent_pages: 4.0,
            seed: SEED,
        },
    )
}

fn small_cluster() -> Cluster {
    Cluster::new(
        ClusterConfig::small(2, 2, Scheme::Itesp),
        ClusterWorkload::from_churn(&small_churn(), 6),
    )
}

/// A section whose bytes changed since the pins were first taken.
struct Bump {
    tag: [u8; 4],
    old: u16,
    new: u16,
    why: &'static str,
    /// A snapshot root that contains the section.
    save: fn() -> Vec<u8>,
    /// Restore `bytes` into a freshly built root.
    load: fn(&[u8]) -> Result<(), SnapError>,
}

const BUMPS: &[Bump] = &[
    Bump {
        tag: *b"OVFL",
        old: 1,
        new: 2,
        why: "node and block epochs at their native u32 width",
        save: || {
            let mut e = overflow_engine();
            for b in 0..64 {
                e.on_access(0, b * 64, b, true);
            }
            bytes_of(&e)
        },
        load: |b| overflow_engine().load(&mut SnapReader::new(b), "engine"),
    },
    Bump {
        tag: *b"CHAN",
        old: 1,
        new: 2,
        why: "open rows, bus rank and request coordinates at native u32 width",
        save: || bytes_of(&busy_memory()),
        load: |b| MemorySystem::new(DramConfig::table_iii()).load(&mut SnapReader::new(b), "dram"),
    },
    Bump {
        tag: *b"EMGR",
        old: 1,
        new: 3,
        why: "a master-key fingerprint in place of the master seed",
        save: || bytes_of(&manager(7)),
        load: |b| manager(7).load(&mut SnapReader::new(b), "manager"),
    },
    Bump {
        tag: *b"EMGR",
        old: 2,
        new: 3,
        why: "lifecycle stats carry the eight per-phase traffic counters",
        save: || bytes_of(&manager(7)),
        load: |b| manager(7).load(&mut SnapReader::new(b), "manager"),
    },
    Bump {
        tag: *b"ENCL",
        old: 1,
        new: 2,
        why: "each enclave carries its own lifecycle counts",
        save: || bytes_of(&populated_manager()),
        load: |b| manager(7).load(&mut SnapReader::new(b), "manager"),
    },
    Bump {
        tag: *b"CHRN",
        old: 1,
        new: 2,
        why: "the driver keeps a frame allocator, not a page mapper and traffic tallies",
        save: || bytes_of(&churn_driver()),
        load: |b| churn_driver().load(&mut SnapReader::new(b), "churn driver"),
    },
    Bump {
        tag: *b"PMAP",
        old: 1,
        new: 2,
        why: "the free list alone: no per-program page tables or allocation count",
        save: || bytes_of(&frame_allocator()),
        load: |b| frame_allocator().load(&mut SnapReader::new(b), "frame allocator"),
    },
    Bump {
        tag: *b"TLGR",
        old: 1,
        new: 2,
        why: "op counts, fault stream and script cursor only; lifecycle counts moved to ENCL",
        save: || bytes_of(&TenantLedger::new(SEED, 3)),
        load: |b| TenantLedger::default().load(&mut SnapReader::new(b), "ledger"),
    },
    Bump {
        tag: *b"CLUS",
        old: 1,
        new: 2,
        why: "per-tenant residence read from the directory; a final slot per tenant",
        save: || {
            let mut w = SnapWriter::new();
            small_cluster().save_state(&mut w);
            w.into_bytes()
        },
        load: |b| small_cluster().load_state(&mut SnapReader::new(b)),
    },
    Bump {
        tag: *b"TREE",
        old: 1,
        new: 2,
        why: "no ancestor memo: the tree walk keeps no per-partition fast-path state",
        save: || {
            let mut e = itesp_engine();
            for b in 0..64 {
                e.on_access(0, b * 64, b, b % 3 == 0);
            }
            bytes_of(&e)
        },
        load: |b| itesp_engine().load(&mut SnapReader::new(b), "engine"),
    },
    Bump {
        tag: *b"SYST",
        old: 1,
        new: 2,
        why: "no parked-core flags: parking elides no-op steps and is not state",
        save: || bytes_of(&churn_ras_system()),
        load: |b| churn_ras_system().load(&mut SnapReader::new(b), "system"),
    },
];

#[test]
fn bumped_sections_refuse_their_old_version() {
    for bump in BUMPS {
        let mut bytes = (bump.save)();
        let header: Vec<u8> = bump
            .tag
            .iter()
            .copied()
            .chain(bump.new.to_le_bytes())
            .collect();
        let at = bytes
            .windows(header.len())
            .position(|w| w == header)
            .unwrap_or_else(|| panic!("{:?} is not at version {}", bump.tag, bump.new));
        (bump.load)(&bytes).unwrap_or_else(|e| panic!("current {:?} bytes refused: {e}", bump.tag));
        bytes[at + 4..at + 6].copy_from_slice(&bump.old.to_le_bytes());
        assert_eq!(
            (bump.load)(&bytes),
            Err(SnapError::Version {
                section: bump.tag,
                expected: bump.new,
                found: bump.old,
            }),
            "{:?} v{} ({}) must refuse its v{} bytes",
            bump.tag,
            bump.new,
            bump.why,
            bump.old
        );
    }
}
