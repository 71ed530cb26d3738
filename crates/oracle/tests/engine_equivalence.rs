//! Lockstep equivalence oracle for the security engine's access path.
//!
//! [`SecurityEngine`] runs each scheme behind the `SchemeModel` seam,
//! with lifecycle and snapshot state, while [`ReferenceEngine`] is a
//! verbatim flat twin of the original access path. This oracle drives
//! both with identical randomized access streams over *every* scheme
//! and asserts access-by-access identical outcomes (traffic list,
//! stall cycles, Figure 3 case) plus identical final statistics. Any
//! divergence is a bug in the engine by construction.
//!
//! Streams are generated with deliberate same-leaf runs, so walks that
//! stop at a warm leaf alternate with longer walks and writeback
//! cascades (a uniform stream would almost never revisit a leaf).

use itesp_core::{EngineConfig, ReferenceEngine, Scheme, SecurityEngine};
use itesp_oracle::with_seeds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ACCESSES: usize = 2_500;
/// Hot leaves per enclave: small enough that same-leaf runs revisit
/// warm paths, large enough to force real capacity misses.
const HOT_LEAVES: u64 = 48;
const BLOCKS_PER_LEAF: u64 = 64;

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
fn gen_stream(rng: &mut StdRng, enclaves: usize) -> Vec<AccessRequest> {
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
                is_write: rng.gen_bool(0.4),
            });
        }
    }
    out.truncate(ACCESSES);
    out
}

/// The engine vs the scalar reference twin, access by
/// access, over every tree-lineage scheme in the paper. The reference
/// is deliberately a twin of the *original* 13-scheme access path: it
/// knows nothing of the SecDDR/IRO baselines, so the lockstep sweep is
/// pinned to [`Scheme::TREE_LINEAGE`] (the related-work models get
/// their own shadow oracles in the differential harness).
#[test]
fn optimized_engine_matches_scalar_reference() {
    with_seeds("optimized_engine_matches_scalar_reference", 3, |seed| {
        for scheme in Scheme::TREE_LINEAGE {
            let cfg = EngineConfig::paper_default(scheme);
            let mut rng = StdRng::seed_from_u64(seed);
            let stream = gen_stream(&mut rng, cfg.enclaves);
            let mut opt = SecurityEngine::new(cfg);
            let mut refr = ReferenceEngine::new(cfg);
            for (i, r) in stream.iter().enumerate() {
                let a = opt.on_access(r.enclave, r.paddr, r.enclave_block, r.is_write);
                let b = refr.on_access(r.enclave, r.paddr, r.enclave_block, r.is_write);
                assert_eq!(
                    a, b,
                    "outcome diverged at access {i} ({r:?}, scheme {scheme:?}, seed {seed})"
                );
            }
            assert_eq!(
                opt.stats(),
                refr.stats(),
                "stats diverged (scheme {scheme:?}, seed {seed})"
            );
        }
    });
}
