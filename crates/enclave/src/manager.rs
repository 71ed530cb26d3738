//! The enclave lifecycle state machine.
//!
//! [`EnclaveManager`] owns one slot per hardware context. Each slot
//! holds at most one live [`Enclave`]; create/destroy cycles reuse
//! slots but never ids. It is the only owner of lifecycle state: the
//! page tables, the per-leaf counters, the event counts, and the
//! metadata traffic each transition charged. Every transition also
//! returns that [`MetaAccess`] list, so callers (the simulator's churn
//! driver, the migrating cluster, tests) can route lifecycle cost
//! through the same DRAM model as ordinary metadata traffic.

use std::collections::BTreeMap;

use itesp_core::{siphash24, MacKey, MetaAccess, SecurityEngine};
use itesp_snap::{Persist, SnapError, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};

use crate::alloc::{LeafAllocator, LeafGrant};

/// Blocks per page (4 KB pages, 64 B blocks). Kept local so this crate
/// depends only on itesp-core.
pub const PAGE_BLOCKS: u64 = 64;

/// Bytes per page.
pub const PAGE_BYTES: u64 = PAGE_BLOCKS * 64;

/// Globally unique enclave identity; monotone across a manager's
/// lifetime, never reused even when slots are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Persist)]
pub struct EnclaveId(pub u64);

/// Where one of an enclave's virtual pages lives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Persist)]
pub struct PageInfo {
    /// Dense leaf-id inside the enclave's private tree.
    pub leaf: u64,
    /// Physical frame backing the page.
    pub ppage: u64,
}

/// One enclave's own lifecycle counts. They travel with the enclave
/// (a migration carries them in its `ENCL` section), and none depends
/// on which node or which frames hosted it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Persist)]
pub struct EnclaveStats {
    /// First touches (page faults that granted a leaf).
    pub pages_touched: u64,
    /// Pages returned early.
    pub pages_freed: u64,
    /// Tree doublings that re-rooted the engine's tree. Shared-tree
    /// schemes, and doublings past the enclave's capacity, charge no
    /// traffic and are not counted.
    pub grow_events: u64,
    /// Metadata transactions those doublings charged, less the cache
    /// flush that opens each one: what the partition happened to cache
    /// depends on placement (a migrated enclave starts cold).
    pub grow_meta: u64,
    /// Metadata transactions the page frees charged.
    pub free_meta: u64,
    /// First touches granted a previously-freed leaf-id.
    pub leaves_recycled: u64,
}

/// One live enclave: identity, key, page table, per-leaf write
/// counters, the leaf-id namespace, and its own lifecycle counts. The
/// MAC key is *not* in the snapshot: it re-derives from the manager's
/// master and the enclave id, so snapshot bytes never carry key
/// material.
#[derive(Debug, Clone, Default, Persist)]
#[persist(section = "ENCL", version = 2)]
pub struct Enclave {
    id: EnclaveId,
    #[persist(skip)]
    key: MacKey,
    footprint_pages: u64,
    /// Pages the current private tree covers (grows by doubling).
    tree_pages: u64,
    pages: BTreeMap<u64, PageInfo>,
    /// Per-leaf write counters — the model of the tree's counter
    /// state that the oracle checks freshness against.
    counters: BTreeMap<u64, u64>,
    allocator: LeafAllocator,
    stats: EnclaveStats,
}

impl Enclave {
    pub fn id(&self) -> EnclaveId {
        self.id
    }

    pub fn key(&self) -> MacKey {
        self.key
    }

    pub fn footprint_pages(&self) -> u64 {
        self.footprint_pages
    }

    /// Pages the currently-installed tree can address.
    pub fn tree_pages(&self) -> u64 {
        self.tree_pages
    }

    pub fn live_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    pub fn leaf_of(&self, vpage: u64) -> Option<u64> {
        self.pages.get(&vpage).map(|p| p.leaf)
    }

    pub fn page(&self, vpage: u64) -> Option<&PageInfo> {
        self.pages.get(&vpage)
    }

    pub fn allocator(&self) -> &LeafAllocator {
        &self.allocator
    }

    pub fn stats(&self) -> EnclaveStats {
        self.stats
    }

    /// Iterate the live page map in ascending vpage order. Cluster
    /// drivers use this for placement-independent checksums (vpage,
    /// leaf, counter — never the node-local physical frame).
    pub fn iter_pages(&self) -> impl Iterator<Item = (u64, PageInfo)> + '_ {
        self.pages.iter().map(|(&vpage, &info)| (vpage, info))
    }
}

/// Lifecycle event counts and the metadata traffic each phase charged,
/// accumulated across the manager's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize, Persist)]
pub struct LifecycleStats {
    pub created: u64,
    pub destroyed: u64,
    /// Tree re-roots (first-touch allocation outgrew leaf capacity).
    pub grows: u64,
    pub pages_freed: u64,
    /// Grants that reused a previously-freed leaf-id.
    pub leaves_recycled: u64,
    /// High-water mark of live pages across all slots.
    pub peak_live_pages: u64,
    /// Create: cache-repartition read-modify-writes.
    pub init_reads: u64,
    /// Create: private-tree initialization + repartition writebacks.
    pub init_writes: u64,
    /// Grow: old-tree migration reads.
    pub migration_reads: u64,
    /// Grow: new-layout initialization writes.
    pub grow_writes: u64,
    /// Free: parity-group rebuild reads.
    pub reset_reads: u64,
    /// Free: counter-reset and parity writes.
    pub reset_writes: u64,
    /// Destroy: survivor-repartition read-modify-writes.
    pub zeroize_reads: u64,
    /// Destroy: counter/MAC zeroization + repartition writebacks.
    pub zeroize_writes: u64,
}

impl LifecycleStats {
    /// All metadata accesses charged to lifecycle operations.
    pub fn lifecycle_accesses(&self) -> u64 {
        self.init_reads
            + self.init_writes
            + self.migration_reads
            + self.grow_writes
            + self.reset_reads
            + self.reset_writes
            + self.zeroize_reads
            + self.zeroize_writes
    }
}

/// Add `traffic`'s reads and writes to a pair of counters.
fn count_traffic(traffic: &[MetaAccess], reads: &mut u64, writes: &mut u64) {
    let w = traffic.iter().filter(|t| t.is_write).count() as u64;
    *writes += w;
    *reads += traffic.len() as u64 - w;
}

/// The lifecycle manager: one slot per hardware context, each serving
/// a sequence of enclaves.
#[derive(Debug)]
pub struct EnclaveManager {
    slots: Vec<Option<Enclave>>,
    /// Master key material the per-enclave MAC keys derive from.
    master: u64,
    next_id: u64,
    /// Rebuild parity groups covering freed leaves (`true`, the
    /// reliable choice) or break them (`false`: the group is marked
    /// unprotected until next written — cheaper, no RMW traffic).
    pub rebuild_parity: bool,
    stats: LifecycleStats,
}

impl EnclaveManager {
    pub fn new(slots: usize, master: u64) -> Self {
        assert!(slots > 0, "need at least one slot");
        EnclaveManager {
            slots: (0..slots).map(|_| None).collect(),
            master,
            next_id: 0,
            rebuild_parity: true,
            stats: LifecycleStats::default(),
        }
    }

    /// The engine cache/tree partition a slot maps to: its own under
    /// isolation, the single shared partition otherwise.
    fn part(engine: &SecurityEngine, slot: usize) -> usize {
        if engine.spec().isolated {
            slot
        } else {
            0
        }
    }

    /// Partition liveness mask sized for the engine (for isolated
    /// schemes, slot i ↔ partition i; shared schemes have one
    /// partition that is live while any slot is).
    fn mask(&self, engine: &SecurityEngine) -> Vec<bool> {
        let parts = engine.partitions();
        if parts == 1 {
            vec![self.slots.iter().any(Option::is_some)]
        } else {
            (0..parts)
                .map(|p| self.slots.get(p).is_some_and(Option::is_some))
                .collect()
        }
    }

    /// Admit an enclave into `slot`: install a footprint-sized private
    /// tree (a quarter of the requested footprint, at least one page —
    /// first-touch growth pays for the rest) and repartition the
    /// metadata caches so the newcomer gets its share.
    ///
    /// # Panics
    /// Panics if the slot is occupied — callers must destroy first.
    pub fn create(
        &mut self,
        engine: &mut SecurityEngine,
        slot: usize,
        footprint_pages: u64,
    ) -> (EnclaveId, Vec<MetaAccess>) {
        self.create_with_id(engine, slot, footprint_pages, EnclaveId(self.next_id))
    }

    /// [`Self::create`] with a caller-chosen identity. A cluster-level
    /// directory hands out globally unique ids so the same tenant
    /// derives the same MAC key on every node; the manager only
    /// enforces its local never-reuse watermark.
    ///
    /// # Panics
    /// Panics if the slot is occupied or the id is below an id this
    /// manager has already issued (local reuse).
    pub fn create_with_id(
        &mut self,
        engine: &mut SecurityEngine,
        slot: usize,
        footprint_pages: u64,
        id: EnclaveId,
    ) -> (EnclaveId, Vec<MetaAccess>) {
        assert!(footprint_pages > 0, "an enclave needs at least one page");
        assert!(
            id.0 >= self.next_id,
            "id {} was already issued by this manager (next is {})",
            id.0,
            self.next_id
        );
        let tree_pages = (footprint_pages / 4).max(1);
        let enc = Enclave {
            id,
            footprint_pages,
            tree_pages,
            allocator: LeafAllocator::new(tree_pages),
            ..Enclave::default()
        };
        let traffic = self.install(engine, slot, enc);
        let s = &mut self.stats;
        count_traffic(&traffic, &mut s.init_reads, &mut s.init_writes);
        s.created += 1;
        (id, traffic)
    }

    /// One access of a live enclave, the manager's single first-touch
    /// entry point. A mapped page is looked up. An unmapped page is
    /// granted a leaf-id — growing the tree if the namespace is
    /// exhausted; a recycled leaf was reset when it was freed — and
    /// backed by the frame `alloc_frame` returns, which is asked for
    /// only then. A write bumps the leaf's counter. Returns the
    /// physical address, the enclave-domain block index, and the
    /// growth traffic the access charged (empty unless the tree grew).
    ///
    /// # Panics
    /// Panics if the slot is empty.
    pub fn access(
        &mut self,
        engine: &mut SecurityEngine,
        slot: usize,
        vaddr: u64,
        is_write: bool,
        alloc_frame: impl FnOnce() -> u64,
    ) -> (u64, u64, Vec<MetaAccess>) {
        let (vpage, offset) = (vaddr / PAGE_BYTES, vaddr % PAGE_BYTES);
        let part = Self::part(engine, slot);
        let enc = self.slots[slot].as_mut().expect("access on an empty slot");
        let mut traffic = Vec::new();
        let info = match enc.pages.get(&vpage) {
            Some(&info) => info,
            None => {
                let grant = loop {
                    if let Some(g) = enc.allocator.alloc() {
                        break g;
                    }
                    // Out of leaves: double the tree. The engine flushes
                    // the partition's dirty lines, then pays migration
                    // reads over the old nodes and init writes over the
                    // new layout. Only the flush depends on what was
                    // cached, so `grow_meta` leaves it out.
                    let new_pages = enc.tree_pages * 2;
                    let (grow, flushed) = engine.grow_tree(part, new_pages * PAGE_BLOCKS);
                    if !grow.is_empty() {
                        enc.stats.grow_events += 1;
                        enc.stats.grow_meta += (grow.len() - flushed) as u64;
                    }
                    traffic.extend(grow);
                    enc.tree_pages = new_pages;
                    enc.allocator.grow(new_pages);
                    self.stats.grows += 1;
                };
                if matches!(grant, LeafGrant::Recycled(_)) {
                    enc.stats.leaves_recycled += 1;
                    self.stats.leaves_recycled += 1;
                }
                enc.stats.pages_touched += 1;
                let info = PageInfo {
                    leaf: grant.leaf(),
                    ppage: alloc_frame(),
                };
                // Fresh leaves were zeroed by install/grow; recycled
                // leaves were reset at free time. Either way the model
                // counter starts from zero.
                enc.counters.insert(info.leaf, 0);
                enc.pages.insert(vpage, info);
                let live = self.total_live_pages();
                self.stats.peak_live_pages = self.stats.peak_live_pages.max(live);
                let s = &mut self.stats;
                count_traffic(&traffic, &mut s.migration_reads, &mut s.grow_writes);
                info
            }
        };
        if is_write {
            let enc = self.slots[slot].as_mut().expect("checked above");
            *enc.counters.entry(info.leaf).or_insert(0) += 1;
        }
        (
            info.ppage * PAGE_BYTES + offset,
            info.leaf * PAGE_BLOCKS + offset / 64,
            traffic,
        )
    }

    /// Return a page early: its leaf's counters are reset in memory
    /// and its parity groups rebuilt (or broken, per
    /// [`Self::rebuild_parity`]) *before* the leaf enters the free
    /// list, so whoever receives it next cannot replay this page's
    /// history. Returns the freed physical frame, or `None` if the
    /// page is not mapped.
    pub fn free_page(
        &mut self,
        engine: &mut SecurityEngine,
        slot: usize,
        vpage: u64,
    ) -> Option<(u64, Vec<MetaAccess>)> {
        let part = Self::part(engine, slot);
        let rebuild = self.rebuild_parity;
        let enc = self.slots[slot].as_mut()?;
        let info = enc.pages.remove(&vpage)?;
        // Isolated trees index by the dense leaf-id; shared trees by
        // the physical block (matching `SecurityEngine::on_access`).
        let first_block = if engine.spec().isolated {
            info.leaf * PAGE_BLOCKS
        } else {
            info.ppage * PAGE_BLOCKS
        };
        let traffic = engine.reset_leaves(part, first_block, PAGE_BLOCKS, rebuild);
        enc.counters.insert(info.leaf, 0);
        enc.allocator.free(info.leaf);
        enc.stats.pages_freed += 1;
        enc.stats.free_meta += traffic.len() as u64;
        let s = &mut self.stats;
        count_traffic(&traffic, &mut s.reset_reads, &mut s.reset_writes);
        s.pages_freed += 1;
        Some((info.ppage, traffic))
    }

    /// Secure teardown: zeroize the enclave's tree and MAC regions,
    /// drop its cached metadata without writeback, and repartition the
    /// survivors' cache shares deterministically. Returns the frames
    /// of every page still mapped, and the traffic.
    pub fn destroy(
        &mut self,
        engine: &mut SecurityEngine,
        slot: usize,
    ) -> (Vec<u64>, Vec<MetaAccess>) {
        let part = Self::part(engine, slot);
        let Some(enc) = self.slots[slot].take() else {
            return (Vec::new(), Vec::new());
        };
        let mut traffic = engine.reset_partition(part);
        let mask = self.mask(engine);
        traffic.extend(engine.repartition_caches(&mask));
        let s = &mut self.stats;
        count_traffic(&traffic, &mut s.zeroize_reads, &mut s.zeroize_writes);
        s.destroyed += 1;
        (enc.pages.values().map(|p| p.ppage).collect(), traffic)
    }

    /// The model counter of a leaf (0 after reset/recycle).
    pub fn counter_of(&self, slot: usize, leaf: u64) -> Option<u64> {
        self.slots[slot].as_ref()?.counters.get(&leaf).copied()
    }

    pub fn key_of(&self, slot: usize) -> Option<MacKey> {
        self.slots[slot].as_ref().map(Enclave::key)
    }

    pub fn enclave(&self, slot: usize) -> Option<&Enclave> {
        self.slots[slot].as_ref()
    }

    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    pub fn live_count(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Live pages across all slots.
    pub fn total_live_pages(&self) -> u64 {
        self.slots.iter().flatten().map(Enclave::live_pages).sum()
    }

    pub fn stats(&self) -> LifecycleStats {
        self.stats
    }

    /// Install a migrated enclave — decoded from the `ENCL` section the
    /// source wrote with `SnapWriter::put(manager.enclave(slot))`,
    /// which carries **no key material** — into an empty slot:
    /// re-derive its key from this manager's master, remap every
    /// physical frame through `remap_frame` (frames are node-local;
    /// the transferred page map carries source frames), rebuild a
    /// private tree of the transferred geometry, and repartition the
    /// caches. Lifecycle stats are untouched — a migration is not a
    /// create; callers account it separately.
    ///
    /// # Panics
    /// Panics if the slot is occupied.
    pub fn import_enclave(
        &mut self,
        engine: &mut SecurityEngine,
        slot: usize,
        mut enc: Enclave,
        mut remap_frame: impl FnMut(u64) -> u64,
    ) -> Vec<MetaAccess> {
        for info in enc.pages.values_mut() {
            info.ppage = remap_frame(info.ppage);
        }
        self.install(engine, slot, enc)
    }

    /// Place `enc` in an empty slot under a key derived from this
    /// manager's master, advance the never-reuse watermark past its
    /// id, install a private tree of its geometry, and repartition the
    /// caches.
    fn install(
        &mut self,
        engine: &mut SecurityEngine,
        slot: usize,
        mut enc: Enclave,
    ) -> Vec<MetaAccess> {
        assert!(
            self.slots[slot].is_none(),
            "slot {slot} already holds a live enclave"
        );
        enc.key = MacKey::derive(self.master, enc.id.0);
        self.next_id = self.next_id.max(enc.id.0 + 1);
        let part = Self::part(engine, slot);
        let mut traffic = engine.install_tree(part, enc.tree_pages * PAGE_BLOCKS);
        self.slots[slot] = Some(enc);
        let mask = self.mask(engine);
        traffic.extend(engine.repartition_caches(&mask));
        traffic
    }
}

/// One-way tag of a master seed, stored in snapshots in place of the
/// seed itself: it proves which master a snapshot belongs to without
/// carrying the material every per-enclave MAC key derives from. Keyed
/// by the master's key for enclave id `u64::MAX`, an id no manager
/// reaches.
fn master_fingerprint(master: u64) -> u64 {
    siphash24(
        &MacKey::derive(master, u64::MAX),
        b"itesp enclave-manager master fingerprint",
    )
}

/// Hand-written: the master seed is not written — only its
/// [`master_fingerprint`], which `load` checks against this manager's
/// master — the slot count is checked against the constructed manager,
/// and every restored enclave's MAC key is re-derived from the master.
impl Persist for EnclaveManager {
    fn save(&self, w: &mut SnapWriter) {
        w.section("EMGR", 3);
        w.put(&master_fingerprint(self.master));
        w.put(&self.next_id);
        w.put(&self.rebuild_parity);
        w.put(&self.slots);
        w.put(&self.stats);
    }

    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        r.section("EMGR", 3)?;
        let at = r.pos();
        if r.get::<u64>("manager master fingerprint")? != master_fingerprint(self.master) {
            return Err(SnapError::Corrupt {
                what: "manager master-key fingerprint (snapshot from a different master key)",
                at,
            });
        }
        self.next_id.load(r, "manager next id")?;
        self.rebuild_parity.load(r, "manager rebuild_parity")?;
        r.load_exact(
            &mut self.slots,
            "manager slot count (snapshot from a different configuration)",
        )?;
        for enc in self.slots.iter_mut().flatten() {
            enc.key = MacKey::derive(self.master, enc.id.0);
        }
        self.stats.load(r, "lifecycle stats")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itesp_core::{EngineConfig, MetaKind, Scheme, SecurityEngine};

    fn engine(scheme: Scheme) -> SecurityEngine {
        SecurityEngine::new(EngineConfig::paper_default(scheme))
    }

    /// Read `vpage`, backing it with `ppage` if this is its first
    /// touch; returns its leaf and the traffic the access charged.
    fn touch(
        m: &mut EnclaveManager,
        e: &mut SecurityEngine,
        slot: usize,
        vpage: u64,
        ppage: u64,
    ) -> (u64, Vec<MetaAccess>) {
        let (paddr, block, traffic) = m.access(e, slot, vpage * PAGE_BYTES, false, || ppage);
        assert_eq!(
            paddr / PAGE_BYTES,
            m.enclave(slot).unwrap().page(vpage).unwrap().ppage
        );
        (block / PAGE_BLOCKS, traffic)
    }

    /// Write an already-mapped `vpage`.
    fn write(m: &mut EnclaveManager, e: &mut SecurityEngine, slot: usize, vpage: u64) {
        let (_, _, traffic) = m.access(e, slot, vpage * PAGE_BYTES, true, || {
            panic!("a write to a mapped page allocates no frame")
        });
        assert!(traffic.is_empty());
    }

    #[test]
    fn create_installs_a_footprint_sized_tree_and_carves_the_caches() {
        let mut e = engine(Scheme::Itesp);
        let mut m = EnclaveManager::new(4, 0x5A17);
        let (id, traffic) = m.create(&mut e, 0, 64);
        assert_eq!(id, EnclaveId(0));
        // 64-page footprint -> 16-page initial tree, every node
        // zero-written.
        assert!(traffic
            .iter()
            .any(|a| a.kind == MetaKind::Tree && a.is_write));
        let geo = e.active_geometry(0).unwrap();
        assert_eq!(geo.data_blocks(), 16 * PAGE_BLOCKS);
        assert_eq!(m.enclave(0).unwrap().tree_pages(), 16);
        assert_eq!(m.stats().created, 1);
    }

    #[test]
    fn ids_are_never_reused_and_keys_differ() {
        let mut e = engine(Scheme::Itesp);
        let mut m = EnclaveManager::new(2, 0x5A17);
        let (a, _) = m.create(&mut e, 0, 8);
        let ka = m.key_of(0).unwrap();
        m.destroy(&mut e, 0);
        let (b, _) = m.create(&mut e, 0, 8);
        let kb = m.key_of(0).unwrap();
        assert_ne!(a, b, "slot reuse must not reuse the id");
        assert_ne!(ka, kb, "each enclave gets its own MAC key");
    }

    #[test]
    fn touch_grows_the_tree_when_leaves_run_out() {
        let mut e = engine(Scheme::Itesp);
        let mut m = EnclaveManager::new(4, 1);
        // Footprint 8 -> initial tree of 2 pages.
        m.create(&mut e, 0, 8);
        let (_, t0) = touch(&mut m, &mut e, 0, 0, 100);
        let (_, t1) = touch(&mut m, &mut e, 0, 1, 101);
        assert!(t0.is_empty() && t1.is_empty(), "inside capacity: free");
        let (leaf2, grow_traffic) = touch(&mut m, &mut e, 0, 2, 102);
        assert_eq!(leaf2, 2);
        assert_eq!(m.stats().grows, 1);
        assert!(
            grow_traffic.iter().any(|a| !a.is_write),
            "growth pays migration reads"
        );
        assert!(
            grow_traffic.iter().any(|a| a.is_write),
            "growth pays re-init writes"
        );
        assert_eq!(m.enclave(0).unwrap().tree_pages(), 4);
        assert_eq!(e.active_geometry(0).unwrap().data_blocks(), 4 * PAGE_BLOCKS);
        let stats = m.enclave(0).unwrap().stats();
        assert_eq!((stats.pages_touched, stats.grow_events), (3, 1));
        assert_eq!(stats.grow_meta, grow_traffic.len() as u64, "nothing cached");
        let reads = grow_traffic.iter().filter(|a| !a.is_write).count() as u64;
        assert_eq!(m.stats().migration_reads, reads);
        assert_eq!(m.stats().grow_writes, grow_traffic.len() as u64 - reads);
        // Re-touching a mapped page stays free.
        let (leaf_again, t) = touch(&mut m, &mut e, 0, 2, 102);
        assert_eq!(leaf_again, 2);
        assert!(t.is_empty());
    }

    #[test]
    fn free_resets_counters_before_the_leaf_can_be_recycled() {
        let mut e = engine(Scheme::Itesp);
        let mut m = EnclaveManager::new(4, 2);
        m.create(&mut e, 0, 16);
        let (leaf, _) = touch(&mut m, &mut e, 0, 7, 200);
        write(&mut m, &mut e, 0, 7);
        write(&mut m, &mut e, 0, 7);
        assert_eq!(m.counter_of(0, leaf), Some(2));
        let (ppage, traffic) = m.free_page(&mut e, 0, 7).unwrap();
        assert_eq!(ppage, 200);
        assert!(
            traffic
                .iter()
                .any(|a| a.kind == MetaKind::Tree && a.is_write),
            "free must rewrite the leaf's counters in memory"
        );
        assert_eq!(m.counter_of(0, leaf), Some(0), "counter reset at free");
        assert!(!m.enclave(0).unwrap().allocator().is_live(leaf));
        // The next touch recycles the freed leaf, fresh.
        let (again, _) = touch(&mut m, &mut e, 0, 9, 201);
        assert_eq!(again, leaf, "LIFO free list hands the leaf back");
        assert_eq!(m.counter_of(0, leaf), Some(0));
        assert_eq!(m.stats().leaves_recycled, 1);
        assert_eq!(m.stats().pages_freed, 1);
    }

    #[test]
    fn parity_rebuild_is_optional_on_free() {
        let mut e = engine(Scheme::Itesp);
        let mut m = EnclaveManager::new(4, 3);
        m.rebuild_parity = false;
        m.create(&mut e, 0, 16);
        touch(&mut m, &mut e, 0, 0, 10);
        let (_, traffic) = m.free_page(&mut e, 0, 0).unwrap();
        assert!(
            traffic.iter().all(|a| a.kind != MetaKind::Parity),
            "break-not-rebuild frees skip parity traffic"
        );
    }

    #[test]
    fn destroy_zeroizes_and_repartitions_survivors() {
        let mut e = engine(Scheme::Itesp);
        let mut m = EnclaveManager::new(4, 4);
        for slot in 0..4 {
            m.create(&mut e, slot, 16);
            touch(&mut m, &mut e, slot, 0, 300 + slot as u64);
        }
        let (frames, traffic) = m.destroy(&mut e, 2);
        assert_eq!(frames, vec![302], "teardown hands back the mapped frames");
        assert!(
            traffic
                .iter()
                .any(|a| a.kind == MetaKind::Tree && a.is_write),
            "teardown zeroizes the tree region"
        );
        assert!(m.enclave(2).is_none());
        assert_eq!(m.live_count(), 3);
        assert_eq!(m.total_live_pages(), 3);
        // Destroying an empty slot is a no-op.
        assert_eq!(m.destroy(&mut e, 2), (vec![], vec![]));
        assert_eq!(m.stats().destroyed, 1);
    }

    #[test]
    fn shared_schemes_track_state_without_private_tree_traffic() {
        let mut e = engine(Scheme::Synergy);
        let mut m = EnclaveManager::new(4, 5);
        let (_, create_t) = m.create(&mut e, 1, 16);
        assert!(
            create_t.is_empty(),
            "shared tree: no private install traffic"
        );
        let (leaf, _) = touch(&mut m, &mut e, 1, 0, 50);
        assert_eq!(leaf, 0);
        // Frees still reset the shared tree's leaves covering the page.
        let (_, free_t) = m.free_page(&mut e, 1, 0).unwrap();
        assert!(free_t
            .iter()
            .any(|a| a.kind == MetaKind::Tree && a.is_write));
    }

    #[test]
    fn export_import_moves_an_enclave_without_key_material() {
        let master = 0xBEEF;
        let mut e_src = engine(Scheme::Itesp);
        let mut m_src = EnclaveManager::new(4, master);
        let (id, _) = m_src.create_with_id(&mut e_src, 1, 16, EnclaveId(7));
        assert_eq!(id, EnclaveId(7));
        let (leaf, _) = touch(&mut m_src, &mut e_src, 1, 3, 500);
        write(&mut m_src, &mut e_src, 1, 3);
        write(&mut m_src, &mut e_src, 1, 3);
        m_src.free_page(&mut e_src, 1, 3);
        touch(&mut m_src, &mut e_src, 1, 4, 501);

        let mut w = SnapWriter::new();
        w.put(m_src.enclave(1).unwrap());
        let blob = w.into_bytes();
        let decode = || -> Enclave { SnapReader::new(&blob).get("enclave").unwrap() };
        assert_eq!(decode().key(), MacKey::default(), "no key on the wire");

        // The destination remaps frames into its own namespace and
        // re-derives the key from the shared master.
        let mut e_dst = engine(Scheme::Itesp);
        let mut m_dst = EnclaveManager::new(4, master);
        let traffic = m_dst.import_enclave(&mut e_dst, 2, decode(), |old| old + 1000);
        assert!(!traffic.is_empty(), "import rebuilds the private tree");
        let enc = m_dst.enclave(2).unwrap();
        assert_eq!(enc.id(), id);
        assert_eq!(enc.page(4).unwrap().ppage, 1501);
        assert_eq!(enc.leaf_of(4), Some(leaf), "recycled leaf survives");
        let stats = enc.stats();
        assert_eq!(stats, m_src.enclave(1).unwrap().stats(), "counts travel");
        assert_eq!(
            (
                stats.pages_touched,
                stats.pages_freed,
                stats.leaves_recycled
            ),
            (2, 1, 1)
        );
        assert_eq!(m_dst.stats(), LifecycleStats::default(), "not a create");
        assert_eq!(m_dst.counter_of(2, leaf), Some(0), "reset survives");
        assert_eq!(m_dst.key_of(2), m_src.key_of(1), "same master, same key");
        // next_id watermark advances past the imported id.
        let (next, _) = m_dst.create(&mut e_dst, 0, 8);
        assert!(next.0 > 7);

        // A different master derives a different key: the blob itself
        // carries no key material.
        let mut e_other = engine(Scheme::Itesp);
        let mut m_other = EnclaveManager::new(4, master ^ 1);
        m_other.import_enclave(&mut e_other, 0, decode(), |old| old);
        assert_ne!(m_other.key_of(0), m_src.key_of(1));
    }

    #[test]
    fn peak_live_pages_tracks_the_high_water_mark() {
        let mut e = engine(Scheme::Itesp);
        let mut m = EnclaveManager::new(2, 6);
        m.create(&mut e, 0, 16);
        m.create(&mut e, 1, 16);
        for v in 0..3 {
            touch(&mut m, &mut e, 0, v, v);
            touch(&mut m, &mut e, 1, v, 10 + v);
        }
        m.free_page(&mut e, 0, 0);
        m.free_page(&mut e, 0, 1);
        assert_eq!(m.total_live_pages(), 4);
        assert_eq!(m.stats().peak_live_pages, 6);
    }

    #[test]
    fn snapshots_carry_a_master_fingerprint_never_the_master() {
        let master = 0x5A17_C0DE_F00D_BEEF_u64;
        let mut e = engine(Scheme::Itesp);
        let mut m = EnclaveManager::new(4, master);
        m.create(&mut e, 1, 64);
        touch(&mut m, &mut e, 1, 3, 77);
        let mut w = SnapWriter::new();
        w.put(&m);
        let bytes = w.into_bytes();
        assert!(
            !bytes.windows(8).any(|b| b == master.to_le_bytes()),
            "snapshot bytes contain the master seed"
        );

        // The same master restores, re-deriving the enclave's key.
        let mut same = EnclaveManager::new(4, master);
        same.load(&mut SnapReader::new(&bytes), "manager").unwrap();
        assert_eq!(same.key_of(1), m.key_of(1));
        assert_eq!(same.counter_of(1, 0), m.counter_of(1, 0));

        // A different master is refused with a typed error instead of
        // silently deriving different keys.
        let mut other = EnclaveManager::new(4, master ^ 1);
        let err = other
            .load(&mut SnapReader::new(&bytes), "manager")
            .unwrap_err();
        assert!(
            matches!(err, SnapError::Corrupt { what, .. } if what.contains("master")),
            "{err}"
        );
        assert_eq!(other.live_count(), 0);
    }
}
