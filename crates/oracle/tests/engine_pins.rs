//! Byte pins for the security engine's access path.
//!
//! Drives generated access streams through [`SecurityEngine`] for all
//! 15 schemes and pins the CRC-32 and length of everything the engine
//! reports: each access's traffic list, stall cycles and Figure 3 case
//! (as JSON, one line per access), the end-of-run drain traffic, and
//! the final [`itesp_core::EngineStats`]. Any change to a scheme's walk, writeback,
//! MAC, parity or counter accounting moves its pin.
//!
//! Streams are generated with deliberate same-leaf runs, so walks that
//! stop at a warm leaf alternate with longer walks and writeback
//! cascades (a uniform stream would almost never revisit a leaf). Each
//! scheme runs twice: at the paper's defaults, and under stress — the
//! smallest metadata cache every scheme accepts, 90% writes and the
//! counter-overflow model on — so every cache evicts (parity caches
//! included), overflows stall, and dirty evictions cascade past
//! `MAX_WRITEBACK_CHAIN`'s smallest plausible values. The test asserts
//! that some access still carries such a cascade.
//!
//! A pin may only change together with a deliberate change to what an
//! engine emits. On mismatch the test prints the full table of
//! observed values.

use itesp_core::{EngineConfig, MetaKind, Scheme, SecurityEngine};
use itesp_snap::crc32;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ACCESSES: usize = 2_500;
/// Hot leaves per enclave: small enough that same-leaf runs revisit
/// warm paths, large enough to force real capacity misses.
const HOT_LEAVES: u64 = 48;
const BLOCKS_PER_LEAF: u64 = 64;
/// Fixed stream seeds (independent of `ITESP_TEST_SEED`, so a replay
/// run of the randomized oracles does not move the pins).
const SEEDS: [u64; 3] = [
    0xfb2e_9bb9_c5fc_4ce9,
    0x53e6_bf1c_50af_b0da,
    0x412e_a3b9_d50e_83ee,
];
/// Share of writes in the default and the stress streams.
const WRITE_SHARE: f64 = 0.4;
const STRESS_WRITE_SHARE: f64 = 0.9;

/// `(stream, crc32, length in bytes)`.
const PINS: &[(&str, u32, usize)] = &[
    ("UNSECURE", 0x3309c827, 82979),
    ("VAULT", 0xf01020b9, 286220),
    ("ITVAULT", 0x55e1c4fe, 542747),
    ("SYNERGY", 0x55946a36, 283329),
    ("ITSYNERGY", 0x8e51383a, 331833),
    ("ITSYN+P$", 0xbfa86135, 297691),
    ("ITSYN+SP", 0x5497a2fe, 494003),
    ("ITSYN+SP+P$", 0xff3e39f6, 251322),
    ("ITESP", 0xd55e7786, 238950),
    ("SYN128", 0xbf39e8ae, 268262),
    ("ITSYN128", 0x2488f718, 294855),
    ("ITESP64", 0xd39fc505, 167264),
    ("ITESP128", 0xba4019be, 138508),
    ("SECDDR", 0x3309c827, 82979),
    ("IRORAM", 0x95b586f3, 21593918),
    ("UNSECURE stress", 0xdbc63be7, 82977),
    ("VAULT stress", 0x87c61c98, 840117),
    ("ITVAULT stress", 0xa725c902, 1036667),
    ("SYNERGY stress", 0x4ee0e3a0, 544509),
    ("ITSYNERGY stress", 0x6378117e, 696921),
    ("ITSYN+P$ stress", 0xc408d170, 743606),
    ("ITSYN+SP stress", 0x3267687c, 1060944),
    ("ITSYN+SP+P$ stress", 0xe60e422a, 650769),
    ("ITESP stress", 0xfe04fb7d, 561449),
    ("SYN128 stress", 0x560946a2, 468940),
    ("ITSYN128 stress", 0x100f2c60, 601199),
    ("ITESP64 stress", 0x1d955854, 295058),
    ("ITESP128 stress", 0x80bdd7b9, 249462),
    ("SECDDR stress", 0xdbc63be7, 82977),
    ("IRORAM stress", 0xa20e8c7c, 21593916),
];

/// One data access of a generated stream.
#[derive(Debug, Clone, Copy)]
struct AccessRequest {
    enclave: usize,
    paddr: u64,
    enclave_block: u64,
    is_write: bool,
}

/// One randomized access with locality: bursts of 1..=6 touches inside
/// a single hot leaf, mixed reads/writes, occasional cold excursions.
fn gen_stream(rng: &mut StdRng, enclaves: usize, write_share: f64) -> Vec<AccessRequest> {
    let mut out = Vec::with_capacity(ACCESSES);
    while out.len() < ACCESSES {
        let enclave = rng.gen_range(0..enclaves);
        let leaf = if rng.gen_bool(0.9) {
            rng.gen_range(0..HOT_LEAVES)
        } else {
            rng.gen_range(0..HOT_LEAVES * 64)
        };
        for _ in 0..rng.gen_range(1..=6u32) {
            let block = leaf * BLOCKS_PER_LEAF + rng.gen_range(0..BLOCKS_PER_LEAF);
            out.push(AccessRequest {
                enclave,
                paddr: block * 64,
                enclave_block: block,
                is_write: rng.gen_bool(write_share),
            });
        }
    }
    out.truncate(ACCESSES);
    out
}

/// What one configuration's streams exercised.
#[derive(Default)]
struct Coverage {
    /// The most tree writebacks any single access carried.
    max_tree_writebacks: usize,
    /// Counter overflows over all streams.
    overflows: u64,
}

/// Everything `cfg`'s engine reports over the stream of each seed, and
/// what the streams exercised.
fn run(cfg: EngineConfig, write_share: f64) -> (String, Coverage) {
    let mut out = String::new();
    let mut cov = Coverage::default();
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = gen_stream(&mut rng, cfg.enclaves, write_share);
        let mut engine = SecurityEngine::new(cfg);
        for r in &stream {
            let o = engine.on_access(r.enclave, r.paddr, r.enclave_block, r.is_write);
            let tree_writebacks = o
                .mem
                .iter()
                .filter(|m| m.is_write && m.kind == MetaKind::Tree)
                .count();
            cov.max_tree_writebacks = cov.max_tree_writebacks.max(tree_writebacks);
            out += &serde_json::to_string(&(&o.mem, o.stall_cycles, o.case)).unwrap();
            out.push('\n');
        }
        out += &serde_json::to_string(&engine.drain()).unwrap();
        out.push('\n');
        let stats = engine.stats();
        cov.overflows += stats.overflows;
        out += &serde_json::to_string(stats).unwrap();
        out.push('\n');
    }
    (out, cov)
}

fn pin(label: impl Into<String>, bytes: &[u8]) -> (String, u32, usize) {
    (label.into(), crc32(bytes), bytes.len())
}

/// The stress configuration: 4 KB of metadata cache is one 8-way set
/// per structure for the isolated schemes that cache two structures,
/// the smallest budget every scheme accepts.
fn stress_config(scheme: Scheme) -> EngineConfig {
    EngineConfig {
        metadata_cache_bytes: 4 << 10,
        model_overflow: true,
        ..EngineConfig::paper_default(scheme)
    }
}

#[test]
fn engine_outputs_match_their_pins() {
    let mut got: Vec<(String, u32, usize)> = Scheme::ALL
        .into_iter()
        .map(|scheme| {
            let (out, _) = run(EngineConfig::paper_default(scheme), WRITE_SHARE);
            pin(scheme.label(), out.as_bytes())
        })
        .collect();
    let mut stress = Coverage::default();
    for scheme in Scheme::ALL {
        let (out, cov) = run(stress_config(scheme), STRESS_WRITE_SHARE);
        stress.max_tree_writebacks = stress.max_tree_writebacks.max(cov.max_tree_writebacks);
        stress.overflows += cov.overflows;
        got.push(pin(format!("{} stress", scheme.label()), out.as_bytes()));
    }
    assert!(
        stress.max_tree_writebacks >= 3,
        "a stress stream must carry at least 3 tree writebacks in one access \
         (saw at most {})",
        stress.max_tree_writebacks
    );
    assert!(
        stress.overflows > 0,
        "the stress streams must overflow a counter"
    );
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
