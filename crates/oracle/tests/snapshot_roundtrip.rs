//! Snapshot round-trip oracle for the security engine.
//!
//! For every scheme in the paper: drive the engine halfway through a
//! seeded access stream, serialize it with
//! its [`Persist`] impl, restore the bytes into a freshly
//! built engine, and continue *both* engines lockstep over the rest of
//! the stream. Any divergence — per-access outcomes or final
//! statistics — means the snapshot dropped or distorted mutable state.
//! The restored engine must also re-serialize to the exact bytes it
//! was loaded from (the snapshot is a fixed point).
//!
//! Streams use the equivalence oracle's locality shape so the caches
//! and counters are genuinely warm at the snapshot point; seeds are
//! replayable via `ITESP_TEST_SEED`.

use itesp_core::{EngineConfig, Scheme, SecurityEngine};
use itesp_oracle::with_seeds;
use itesp_snap::{Persist, SnapReader, SnapWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ACCESSES: usize = 2_000;
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

/// Locality-shaped random stream (bursts inside hot leaves, occasional
/// cold excursions) — same shape as the engine-equivalence oracle.
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

fn snapshot_bytes(engine: &SecurityEngine) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put(engine);
    w.into_bytes()
}

#[test]
fn restored_engine_continues_identically_for_every_scheme() {
    with_seeds(
        "restored_engine_continues_identically_for_every_scheme",
        3,
        |seed| {
            for scheme in Scheme::ALL {
                let cfg = EngineConfig::paper_default(scheme);
                let mut rng = StdRng::seed_from_u64(seed);
                let stream = gen_stream(&mut rng, cfg.enclaves);

                let mut original = SecurityEngine::new(cfg);
                for r in &stream[..ACCESSES / 2] {
                    original.on_access(r.enclave, r.paddr, r.enclave_block, r.is_write);
                }

                let bytes = snapshot_bytes(&original);
                let mut restored = SecurityEngine::new(cfg);
                let mut r = SnapReader::new(&bytes);
                restored.load(&mut r, "engine").unwrap_or_else(|e| {
                    panic!("restore failed (scheme {scheme:?}, seed {seed}): {e}")
                });
                r.finish().unwrap();

                // The snapshot is a fixed point: serializing the restored
                // engine reproduces the exact bytes it was loaded from.
                assert_eq!(
                    snapshot_bytes(&restored),
                    bytes,
                    "re-serialization diverged (scheme {scheme:?}, seed {seed})"
                );
                assert_eq!(
                    original.stats(),
                    restored.stats(),
                    "stats diverged at the snapshot point (scheme {scheme:?}, seed {seed})"
                );

                // Continue both lockstep: the restored engine must be
                // indistinguishable from the one that never stopped.
                for (i, r) in stream[ACCESSES / 2..].iter().enumerate() {
                    let a = original.on_access(r.enclave, r.paddr, r.enclave_block, r.is_write);
                    let b = restored.on_access(r.enclave, r.paddr, r.enclave_block, r.is_write);
                    assert_eq!(
                        a, b,
                        "post-restore outcome diverged at suffix access {i} \
                     ({r:?}, scheme {scheme:?}, seed {seed})"
                    );
                }
                assert_eq!(
                    original.stats(),
                    restored.stats(),
                    "final stats diverged (scheme {scheme:?}, seed {seed})"
                );
                assert_eq!(
                    snapshot_bytes(&original),
                    snapshot_bytes(&restored),
                    "final serialized state diverged (scheme {scheme:?}, seed {seed})"
                );
            }
        },
    );
}

#[test]
fn restore_into_a_different_scheme_is_rejected() {
    // A snapshot carries a config fingerprint; feeding Itesp bytes to
    // a Synergy engine must fail loudly, not resume corrupted state.
    let mut itesp = SecurityEngine::new(EngineConfig::paper_default(Scheme::Itesp));
    itesp.on_access(0, 0, 0, true);
    let bytes = snapshot_bytes(&itesp);

    let mut other = SecurityEngine::new(EngineConfig::paper_default(Scheme::Synergy));
    let mut r = SnapReader::new(&bytes);
    let err = other.load(&mut r, "engine").unwrap_err();
    assert!(
        err.to_string().contains("fingerprint"),
        "mismatch error should name the fingerprint: {err}"
    );
}
