//! Per-tenant functional ledgers and the final deterministic artifact.
//!
//! A [`TenantLedger`] travels with the tenant: it rides in the
//! migration blob and in cluster crash snapshots, so the tenant's
//! op-stream position and fault-injection RNG survive both a node hop
//! and a SIGKILL. It holds only what the cluster itself owns; the
//! lifecycle counts belong to the enclave
//! ([`itesp_enclave::EnclaveStats`]) and travel in its own section of
//! the blob. Everything in it is *placement-independent*: nothing
//! depends on which node (or which physical frames) hosted the tenant,
//! which is what makes the cluster's per-tenant output byte-identical
//! to a single-node reference run.

use itesp_core::mac::siphash24_words;
use itesp_core::MacKey;
use itesp_snap::Persist;

/// xorshift64: the tenant fault stream's step function. Never maps a
/// nonzero state to zero.
pub fn xorshift64(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Seed the per-tenant fault RNG from the cluster seed and the tenant
/// id (splitmix64 finalizer, forced odd so xorshift never sees zero).
pub fn fault_rng_seed(seed: u64, tenant: u64) -> u64 {
    let mut z = seed ^ tenant.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1
}

/// Keyed digest of a tenant's (vpage, leaf, counter) triples — the
/// physical frame is deliberately excluded (it is node-local). Keyed
/// with the tenant's derived MAC key, so a matching checksum proves
/// both that the counters survived every hop *and* that the
/// destination re-derived the identical key from its master.
pub fn counter_checksum(key: &MacKey, triples: impl Iterator<Item = (u64, u64, u64)>) -> u64 {
    let mut words = Vec::new();
    for (vpage, leaf, counter) in triples {
        words.push(vpage);
        words.push(leaf);
        words.push(counter);
    }
    siphash24_words(key, &words)
}

/// A tenant's op counts, fault stream and script cursor, accumulated
/// one op per cluster tick.
#[derive(Debug, Clone, Default, PartialEq, Eq, Persist)]
#[persist(section = "TLGR", version = 2)]
pub struct TenantLedger {
    /// Ops executed (reads + writes).
    pub ops: u64,
    pub reads: u64,
    pub writes: u64,
    /// Chip faults the per-tenant RAS stream injected.
    pub faults_injected: u64,
    /// Injected faults whose block had a live parity group.
    pub fault_parity_hits: u64,
    /// Fault-stream RNG state (travels so a migrated or recovered
    /// tenant continues the identical stream).
    pub rng: u64,
    /// Next op index in the tenant's script.
    pub next_record: u64,
    /// Free events already executed.
    pub frees_done: u64,
}

impl TenantLedger {
    pub fn new(cluster_seed: u64, tenant: u64) -> Self {
        TenantLedger {
            rng: fault_rng_seed(cluster_seed, tenant),
            ..TenantLedger::default()
        }
    }
}

/// What a tenant leaves behind when its script completes: the ledger
/// scalars, the enclave's lifecycle counts, and exit-time tree state. This is the unit of the drill's
/// byte-identity artifact — every field must be placement- and
/// timing-independent (no engine cache stats, no migration counts, no
/// physical addresses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, Persist)]
#[persist(section = "TFIN", version = 1)]
pub struct TenantFinal {
    pub ops: u64,
    pub reads: u64,
    pub writes: u64,
    pub pages_touched: u64,
    pub pages_freed: u64,
    pub grow_events: u64,
    pub grow_meta: u64,
    pub free_meta: u64,
    pub leaves_recycled: u64,
    pub faults_injected: u64,
    pub fault_parity_hits: u64,
    /// Pages the tree could address at exit.
    pub tree_pages: u64,
    /// Highest leaf-id ever granted, plus one.
    pub leaf_high_water: u64,
    /// Pages still mapped when the script ran out.
    pub live_pages_at_exit: u64,
    /// Keyed digest of (vpage, leaf, counter) at exit — see
    /// [`counter_checksum`].
    pub counter_checksum: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_round_trips_through_the_codec() {
        let mut l = TenantLedger::new(42, 7);
        l.ops = 100;
        l.writes = 40;
        l.reads = 60;
        l.faults_injected = 3;
        l.next_record = 100;
        let mut w = itesp_snap::SnapWriter::new();
        w.put(&l);
        let bytes = w.into_bytes();
        let mut r = itesp_snap::SnapReader::new(&bytes);
        let back: TenantLedger = r.get("ledger").unwrap();
        r.finish().unwrap();
        assert_eq!(back, l);
    }

    #[test]
    fn fault_seed_is_nonzero_and_tenant_dependent() {
        let a = fault_rng_seed(1, 0);
        let b = fault_rng_seed(1, 1);
        assert_ne!(a, 0);
        assert_ne!(a, b);
        // xorshift never collapses the stream.
        let mut x = a;
        for _ in 0..1000 {
            x = xorshift64(x);
            assert_ne!(x, 0);
        }
    }

    #[test]
    fn checksum_ignores_nothing_it_covers() {
        let key = MacKey { k0: 1, k1: 2 };
        let base = vec![(0u64, 0u64, 5u64), (1, 1, 7)];
        let a = counter_checksum(&key, base.clone().into_iter());
        let mut bumped = base.clone();
        bumped[1].2 = 8;
        assert_ne!(a, counter_checksum(&key, bumped.into_iter()));
        let other_key = MacKey { k0: 1, k1: 3 };
        assert_ne!(a, counter_checksum(&other_key, base.into_iter()));
    }
}
