//! One simulated node: a full security stack plus a private frame
//! namespace.

use itesp_core::{EngineConfig, MetaAccess, SecurityEngine};
use itesp_enclave::{Enclave, EnclaveId, EnclaveManager};
use itesp_snap::{Persist, SnapError, SnapReader, SnapWriter};

use crate::cluster::ClusterConfig;

/// Operational per-node counters. Reported for observability, and
/// deliberately *excluded* from the deterministic per-tenant artifact
/// — how often a tenant moved is a property of the schedule, not of
/// the tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, Persist)]
pub struct NodeStats {
    pub admissions: u64,
    pub migrations_in: u64,
    pub migrations_out: u64,
    /// Frame bytes shipped out of this node (framing included).
    pub transfer_bytes: u64,
}

/// The engine configuration every node of a cluster runs. Derived
/// from the single-tenant serving config and scaled so the *per
/// partition* cache slice is identical to the single-tenant case —
/// which is what keeps a tenant's lifecycle traffic byte-identical no
/// matter which node (or how many co-tenants) it runs beside.
pub fn node_config(cfg: &ClusterConfig) -> EngineConfig {
    let mut ec = EngineConfig::single_tenant(cfg.scheme, cfg.enclave_capacity);
    ec.enclaves = cfg.slots_per_node;
    ec.data_capacity = cfg.enclave_capacity * cfg.slots_per_node as u64;
    if cfg.scheme.spec().isolated {
        ec.metadata_cache_bytes *= cfg.slots_per_node;
    }
    ec
}

/// One simulated node of the cluster.
#[derive(Debug)]
pub struct Node {
    id: usize,
    engine: SecurityEngine,
    mgr: EnclaveManager,
    /// Bump allocator over this node's private physical frames.
    next_frame: u64,
    /// Draining: hosts its tenants but admits nothing new; the cluster
    /// migrates its residents off.
    draining: bool,
    /// Retired: empty and out of service for good.
    retired: bool,
    stats: NodeStats,
}

impl Node {
    pub fn new(id: usize, cfg: &ClusterConfig) -> Self {
        Node {
            id,
            engine: SecurityEngine::new(node_config(cfg)),
            mgr: EnclaveManager::new(cfg.slots_per_node, cfg.master),
            next_frame: 0,
            draining: false,
            retired: false,
            stats: NodeStats::default(),
        }
    }

    pub fn id(&self) -> usize {
        self.id
    }

    pub fn engine(&self) -> &SecurityEngine {
        &self.engine
    }

    pub fn engine_mut(&mut self) -> &mut SecurityEngine {
        &mut self.engine
    }

    pub fn mgr(&self) -> &EnclaveManager {
        &self.mgr
    }

    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    pub fn stats_mut(&mut self) -> &mut NodeStats {
        &mut self.stats
    }

    pub fn draining(&self) -> bool {
        self.draining
    }

    pub fn set_draining(&mut self) {
        self.draining = true;
    }

    pub fn retired(&self) -> bool {
        self.retired
    }

    /// Take the node out of service. Only an empty node may retire.
    pub fn retire(&mut self) {
        assert_eq!(self.mgr.live_count(), 0, "retiring a node with residents");
        self.retired = true;
    }

    /// Can this node take a new tenant right now?
    pub fn accepting(&self) -> bool {
        !self.draining && !self.retired && self.free_slot().is_some()
    }

    /// Lowest empty enclave slot.
    pub fn free_slot(&self) -> Option<usize> {
        (0..self.mgr.slot_count()).find(|&s| self.mgr.enclave(s).is_none())
    }

    pub fn free_slots(&self) -> usize {
        (0..self.mgr.slot_count())
            .filter(|&s| self.mgr.enclave(s).is_none())
            .count()
    }

    /// Which slot hosts `tenant`, if it lives here.
    pub fn slot_of(&self, tenant: u64) -> Option<usize> {
        (0..self.mgr.slot_count())
            .find(|&s| self.mgr.enclave(s).is_some_and(|e| e.id().0 == tenant))
    }

    /// Resident tenant ids, ascending.
    pub fn residents(&self) -> Vec<u64> {
        let mut t: Vec<u64> = (0..self.mgr.slot_count())
            .filter_map(|s| self.mgr.enclave(s).map(|e| e.id().0))
            .collect();
        t.sort_unstable();
        t
    }

    pub fn live_pages(&self) -> u64 {
        self.mgr.total_live_pages()
    }

    pub fn fingerprint(&self) -> u64 {
        self.engine.config().fingerprint()
    }

    /// Admit a tenant with a cluster-assigned identity.
    pub fn admit(&mut self, slot: usize, tenant: u64, footprint_pages: u64) -> Vec<MetaAccess> {
        let (_, traffic) =
            self.mgr
                .create_with_id(&mut self.engine, slot, footprint_pages, EnclaveId(tenant));
        self.stats.admissions += 1;
        traffic
    }

    /// Lifecycle passthroughs that pair the manager with this node's
    /// engine (the split borrow callers can't spell from outside).
    /// First touches draw the next never-used frame of this node.
    pub fn access(
        &mut self,
        slot: usize,
        vaddr: u64,
        is_write: bool,
    ) -> (u64, u64, Vec<MetaAccess>) {
        let next = &mut self.next_frame;
        self.mgr
            .access(&mut self.engine, slot, vaddr, is_write, || bump(next))
    }

    pub fn free_page(&mut self, slot: usize, vpage: u64) -> Option<(u64, Vec<MetaAccess>)> {
        self.mgr.free_page(&mut self.engine, slot, vpage)
    }

    /// Tear the slot's enclave down. Frames are never reused, so the
    /// freed ones are dropped.
    pub fn destroy(&mut self, slot: usize) -> Vec<MetaAccess> {
        self.mgr.destroy(&mut self.engine, slot).1
    }

    /// Install a migrated enclave, remapping its page frames into this
    /// node's namespace.
    pub fn import(&mut self, slot: usize, enc: Enclave) {
        let next = &mut self.next_frame;
        self.mgr
            .import_enclave(&mut self.engine, slot, enc, |_src| bump(next));
        self.stats.migrations_in += 1;
    }
}

/// Grant the next never-used frame of a bump allocator.
fn bump(next: &mut u64) -> u64 {
    *next += 1;
    *next - 1
}

/// Hand-written: the stored node id must match this node's, and the
/// engine checks its own config fingerprint.
impl Persist for Node {
    fn save(&self, w: &mut SnapWriter) {
        w.section("NODE", 1);
        w.put(&self.id);
        w.put(&self.engine);
        w.put(&self.mgr);
        w.put(&self.next_frame);
        w.put(&self.draining);
        w.put(&self.retired);
        w.put(&self.stats);
    }

    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        r.section("NODE", 1)?;
        let at = r.pos();
        if r.get::<usize>("node id")? != self.id {
            return Err(SnapError::Corrupt {
                what: "node id (snapshot from a different node)",
                at,
            });
        }
        self.engine.load(r, "node engine")?;
        self.mgr.load(r, "node enclave manager")?;
        self.next_frame.load(r, "node next frame")?;
        self.draining.load(r, "node draining")?;
        self.retired.load(r, "node retired")?;
        self.stats.load(r, "node stats")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itesp_core::Scheme;

    fn test_cfg() -> ClusterConfig {
        ClusterConfig::small(2, 2, Scheme::Itesp)
    }

    #[test]
    fn node_config_validates_and_keeps_the_slice() {
        let cfg = test_cfg();
        let nc = node_config(&cfg);
        nc.validate().unwrap();
        let single = EngineConfig::single_tenant(cfg.scheme, cfg.enclave_capacity);
        // Scaling the budget with the slot count keeps the per-
        // partition slice — the determinism contract's foundation.
        assert_eq!(
            nc.metadata_cache_bytes / cfg.slots_per_node,
            single.metadata_cache_bytes
        );
    }

    #[test]
    fn slots_frames_and_residency() {
        let cfg = test_cfg();
        let mut n = Node::new(0, &cfg);
        assert!(n.accepting());
        assert_eq!(n.free_slot(), Some(0));
        n.admit(0, 5, 8);
        assert_eq!(n.slot_of(5), Some(0));
        assert_eq!(n.residents(), vec![5]);
        assert_eq!(n.free_slot(), Some(1));
        let (paddr, _, _) = n.access(0, 3 * 4096 + 64, true);
        assert_eq!(paddr, 64, "first frame of the node");
        let (paddr, _, _) = n.access(0, 9 * 4096, false);
        assert_eq!(paddr, 4096, "frames are handed out in order");
        n.set_draining();
        assert!(!n.accepting());
    }
}
