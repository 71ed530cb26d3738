//! Lifecycle oracle: leaf-id recycling and cross-tenant replay under
//! randomized enclave churn.
//!
//! Drives the [`EnclaveManager`] through seeded create / touch / write
//! / free / destroy cycles against a real [`SecurityEngine`], shadowing
//! the leaf namespace independently and modeling each tenant's data
//! with the functional [`VerifiedMemory`]. Checked on every step:
//!
//! * a leaf-id is never handed out while still live, and the manager's
//!   allocator agrees with the shadow's live set;
//! * a leaf's model counter is zero immediately after every grant
//!   (fresh or recycled) and immediately after every free;
//! * enclave ids are monotone and MAC keys are never reused across a
//!   slot's tenants;
//! * a malicious-DIMM replay of a *dead* tenant's captured block —
//!   data, MAC, and counter together — fails verification inside the
//!   slot's next tenant.
//!
//! Four fresh seeds x three schemes x 100 cycles ≈ 1200 create/destroy
//! cycles per run (seed-replayable via `ITESP_TEST_SEED`).

use std::collections::HashSet;

use itesp_core::{EngineConfig, MacKey, Scheme, SecurityEngine, Snapshot, VerifiedMemory};
use itesp_enclave::{EnclaveManager, PAGE_BLOCKS, PAGE_BYTES};
use itesp_oracle::with_seeds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SLOTS: usize = 4;
const CYCLES_PER_SCHEME: usize = 100;

/// Blocks in each tenant's functional memory: enough to cover any
/// leaf-id the allocator can mint for a <=32-page footprint (capacity
/// doubles, so at most 64 leaves x 64 blocks).
const VM_BLOCKS: u64 = 64 * PAGE_BLOCKS;

/// Shadow state for one slot's current tenant.
struct Tenant {
    vm: VerifiedMemory,
    key: MacKey,
    footprint: u64,
    /// Leaf-ids currently granted to a mapped page.
    live: HashSet<u64>,
    /// Leaf-ids that have been freed at least once this lifetime.
    freed_once: HashSet<u64>,
    /// Blocks this tenant has written (candidates for capture).
    written: Vec<u64>,
}

/// What the attacker keeps from a destroyed tenant: a fully consistent
/// block capture and the key it was MAC'd under.
struct Capture {
    snap: Snapshot,
    old_key: MacKey,
}

fn block_of(leaf: u64, rng: &mut StdRng) -> u64 {
    leaf * PAGE_BLOCKS + rng.gen_range(0..PAGE_BLOCKS)
}

fn churn(scheme: Scheme, seed: u64) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut engine = SecurityEngine::new(EngineConfig::paper_default(scheme));
    let mut mgr = EnclaveManager::new(SLOTS, seed);
    let mut tenants: Vec<Option<Tenant>> = (0..SLOTS).map(|_| None).collect();
    let mut captures: Vec<Option<Capture>> = (0..SLOTS).map(|_| None).collect();
    let mut next_ppage = 0u64;
    let mut last_id = None;
    let mut recycles = 0u64;

    for _ in 0..CYCLES_PER_SCHEME {
        let slot = rng.gen_range(0..SLOTS);

        // Evict the incumbent, capturing replay material on the way out.
        if let Some(t) = tenants[slot].take() {
            if let Some(&block) = t.written.last() {
                captures[slot] = Some(Capture {
                    snap: t.vm.snapshot(block),
                    old_key: t.key,
                });
            }
            mgr.destroy(&mut engine, slot);
        }

        let footprint = rng.gen_range(4u64..=32);
        let (id, _) = mgr.create(&mut engine, slot, footprint);
        if let Some(prev) = last_id {
            assert!(id.0 > prev, "enclave ids must be monotone, never reused");
        }
        last_id = Some(id.0);
        let key = mgr.key_of(slot).unwrap();
        let mut tenant = Tenant {
            vm: VerifiedMemory::new(key, VM_BLOCKS),
            key,
            footprint,
            live: HashSet::new(),
            freed_once: HashSet::new(),
            written: Vec::new(),
        };

        // The replay attack: feed the dead tenant's consistent capture
        // to the new tenant's memory. Key freshness must reject it.
        if let Some(cap) = captures[slot].take() {
            assert_ne!(cap.old_key, tenant.key, "slot reuse must rekey");
            tenant.vm.rollback(&cap.snap);
            assert!(
                tenant.vm.read(cap.snap.block).is_err(),
                "a dead enclave's MAC must not verify for the next tenant \
                 (scheme {scheme:?})"
            );
            // Overwriting re-MACs the block under the live key.
            tenant.vm.write(cap.snap.block, [0u8; 64]);
            assert!(tenant.vm.read(cap.snap.block).is_ok());
        }

        // Use phase: touches, writes, and mid-life frees.
        for op in 0..rng.gen_range(8..24) {
            let vpage = rng.gen_range(0..tenant.footprint);
            let already_mapped = mgr.enclave(slot).unwrap().leaf_of(vpage).is_some();
            let is_write = op == 0 || rng.gen_bool(0.6);
            // Map the page with a read first: the fresh-counter check
            // below must see the grant before a write bumps it.
            let (_, block, _) =
                mgr.access(&mut engine, slot, vpage * PAGE_BYTES, false, || next_ppage);
            let leaf = block / PAGE_BLOCKS;
            next_ppage += 1;
            if !already_mapped {
                assert!(
                    tenant.live.insert(leaf),
                    "leaf {leaf} handed out while live (scheme {scheme:?})"
                );
                assert_eq!(
                    mgr.counter_of(slot, leaf),
                    Some(0),
                    "granted leaf must start from a fresh counter"
                );
                if tenant.freed_once.contains(&leaf) {
                    recycles += 1;
                }
            }
            if is_write {
                mgr.access(&mut engine, slot, vpage * PAGE_BYTES, true, || {
                    unreachable!("the page was just mapped")
                });
                let block = block_of(leaf, &mut rng);
                tenant.vm.write(block, [rng.gen::<u8>(); 64]);
                tenant.written.push(block);
                engine.on_access(slot, block * 64, block, true);
            } else {
                // Demand reads interleave with the lifecycle, so tree
                // walks cross install/grow/reset/destroy edges.
                let block = block_of(leaf, &mut rng);
                engine.on_access(slot, block * 64, block, false);
            }
            if rng.gen_bool(0.3) {
                // `min` rather than `iter().next()`: HashSet order varies
                // between runs, and seed replay needs the drive to be a
                // pure function of the seed.
                if let Some(&victim) = tenant.live.iter().min() {
                    // Free a live page by its leaf; find its vpage.
                    let enc = mgr.enclave(slot).unwrap();
                    let vp = (0..tenant.footprint)
                        .find(|&v| enc.leaf_of(v) == Some(victim))
                        .unwrap();
                    mgr.free_page(&mut engine, slot, vp).unwrap();
                    assert!(tenant.live.remove(&victim));
                    tenant.freed_once.insert(victim);
                    assert_eq!(
                        mgr.counter_of(slot, victim),
                        Some(0),
                        "free must reset the leaf's counter before it can recycle"
                    );
                    assert!(!mgr.enclave(slot).unwrap().allocator().is_live(victim));
                }
            }
            let alloc = mgr.enclave(slot).unwrap().allocator();
            assert_eq!(
                alloc.live_count() as usize,
                tenant.live.len(),
                "allocator and shadow disagree on live leaves"
            );
        }
        tenants[slot] = Some(tenant);
    }

    // Drain the survivors so created == destroyed.
    for (slot, t) in tenants.iter_mut().enumerate() {
        if t.take().is_some() {
            mgr.destroy(&mut engine, slot);
        }
    }
    let s = mgr.stats();
    assert_eq!(s.created, s.destroyed, "every tenant must be torn down");
    assert_eq!(s.created, CYCLES_PER_SCHEME as u64);
    (s.created, recycles)
}

#[test]
fn lifecycle_churn_never_replays_dead_state() {
    let schemes = [
        Scheme::Itesp,
        Scheme::ItSynergySharedParity,
        Scheme::Synergy,
    ];
    let mut cycles = 0u64;
    let mut recycles = 0u64;
    with_seeds("lifecycle_churn_never_replays_dead_state", 4, |seed| {
        for scheme in schemes {
            let (c, r) = churn(scheme, seed);
            cycles += c;
            recycles += r;
        }
    });
    // The acceptance bar: 1000+ create/destroy cycles, with real
    // leaf-id recycling exercised along the way (single-seed replay
    // runs are exempt from the totals).
    if std::env::var("ITESP_TEST_SEED").is_err() && std::env::var("ITESP_TEST_CASES").is_err() {
        assert!(cycles >= 1000, "only {cycles} lifecycle cycles ran");
        assert!(recycles > 0, "churn never recycled a leaf-id");
    }
}
