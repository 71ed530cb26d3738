//! The per-scheme traffic models behind [`crate::SecurityEngine`].
//!
//! The engine used to be a single tree-walk pipeline with the treeless
//! baseline squeezed in as `geo == None`; the related-work schemes
//! (SecDDR's link-level authentication, IRO's Ring ORAM paths) break
//! the "every access is a tree path" assumption outright. [`SchemeModel`]
//! is the seam: the engine owns configuration and statistics and
//! dispatches every access, lifecycle operation, and topology query
//! through the trait object; each family owns its caches, regions, and
//! address math.
//!
//! * [`TreeWalkModel`] — the paper's 13 design points, moved verbatim
//!   from the old engine body;
//! * [`LinkLevelModel`] — SecDDR: MAC in the ECC transfer, anti-replay
//!   counters on chip, zero extra memory transactions;
//! * [`OramModel`] — IRO: bucket-path reads per access, deterministic
//!   position remapping, reverse-lexicographic eviction with bucket
//!   parity read-modify-writes.

mod link;
mod oram;
mod tree_walk;

pub use link::LinkLevelModel;
pub use oram::{OramLayout, OramModel, OramShadow};
pub use tree_walk::{parity_group, TreeWalkModel};

use crate::cache::CacheStats;
use crate::engine::{EngineConfig, MetaAccess, MetaKind, MissCase};
use crate::scheme::ModelFamily;
use crate::tree::TreeGeometry;
use itesp_snap::Persist;

/// One scheme family's traffic model. The engine calls it for every
/// data access, drains it at end of run, and forwards the enclave
/// lifecycle; the model appends its metadata transactions to the
/// caller's list (the engine folds them into [`crate::EngineStats`]).
/// Its [`Persist`] impl snapshots the mutable state (caches, counters,
/// position maps — everything not derivable from config) and restores
/// it into a freshly built model of the same config.
pub trait SchemeModel: std::fmt::Debug + Send + Persist {
    /// Which family this model implements.
    fn family(&self) -> ModelFamily;

    /// Filter one data access: append the scheme's extra transactions
    /// to `mem`, return the overflow stall (cycles) and the Figure 3
    /// miss classification. `block` is already in the partition's
    /// domain (enclave block under isolation, `paddr / 64` otherwise).
    fn access(
        &mut self,
        part: usize,
        block: u64,
        is_write: bool,
        mem: &mut Vec<MetaAccess>,
    ) -> (u64, MissCase);

    /// Flush every cache, appending writeback traffic.
    fn drain(&mut self, mem: &mut Vec<MetaAccess>);

    /// Construction-time tree geometry, if the scheme walks one.
    fn geometry(&self) -> Option<&TreeGeometry> {
        None
    }

    /// The geometry partition `part` is actually running.
    fn active_geometry(&self, _part: usize) -> Option<&TreeGeometry> {
        self.geometry()
    }

    /// Number of metadata partitions.
    fn partitions(&self) -> usize;

    /// Base physical address of partition `part`'s tree region (ORAM:
    /// the bucket-tree region).
    fn tree_base(&self, part: usize) -> u64;

    /// Base physical address of partition `part`'s MAC region.
    fn mac_base(&self, part: usize) -> u64;

    /// Base physical address of partition `part`'s parity region.
    fn parity_base(&self, part: usize) -> u64;

    /// Size in bytes of one partition's region for `kind` — the bound
    /// the differential oracle checks traffic containment against.
    fn region_span(&self, kind: MetaKind) -> u64;

    fn tree_cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    fn mac_cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    fn parity_cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Can this scheme detect corrupted data at all? Drives the RAS
    /// layer's detected-vs-silent classification (a detecting scheme
    /// without parity raises DUE instead of SDC).
    fn detects_errors(&self) -> bool;

    /// How many blocks share one correction parity (0 = detection-only).
    fn parity_group_share(&self) -> u64;

    /// Embedded-parity viability under the current address mapping
    /// (tree-walk ITESP variants only).
    fn embedding_viable(&self) -> bool {
        false
    }

    /// The memory line recovery of `block` fetches correction parity
    /// from; `None` for detection-only schemes.
    fn recovery_parity_addr(&self, part: usize, block: u64) -> Option<u64>;

    /// Enclave lifecycle: install a footprint-sized private tree.
    fn install_tree(&mut self, _part: usize, _data_blocks: u64, _mem: &mut Vec<MetaAccess>) {}

    /// Enclave lifecycle: grow the installed tree. Returns how many of
    /// the leading transactions pushed are the cache flush.
    fn grow_tree(&mut self, _part: usize, _data_blocks: u64, _mem: &mut Vec<MetaAccess>) -> usize {
        0
    }

    /// Enclave lifecycle: secure teardown of a partition.
    fn reset_partition(&mut self, _part: usize, _mem: &mut Vec<MetaAccess>) {}

    /// Enclave lifecycle: fresh counters for recycled leaves.
    fn reset_leaves(
        &mut self,
        _part: usize,
        _first_block: u64,
        _count: u64,
        _rebuild_parity: bool,
        _mem: &mut Vec<MetaAccess>,
    ) {
    }

    /// Enclave lifecycle: redistribute cache slices over live tenants.
    fn repartition_caches(&mut self, _live: &[bool], _mem: &mut Vec<MetaAccess>) {}
}

/// Instantiate the model for `cfg.scheme` — the single place the
/// engine maps a scheme onto its family.
pub fn build_model(cfg: EngineConfig) -> Box<dyn SchemeModel> {
    match cfg.scheme.family() {
        ModelFamily::TreeWalk => Box::new(TreeWalkModel::new(cfg)),
        ModelFamily::LinkLevel => Box::new(LinkLevelModel::new(cfg)),
        ModelFamily::Oram => Box::new(OramModel::new(cfg)),
    }
}
